//! The live observability plane: an in-process snapshot server on
//! `std::net::TcpListener`.
//!
//! Production monitoring needs a run's health readable *while it runs*,
//! not after `drybell-doctor` folds the journal. A [`LiveServer`] binds
//! a plain TCP listener and answers three GET routes from one accept
//! thread:
//!
//! * `/metrics` — Prometheus-style text exposition rendered from a
//!   [`MetricsRegistry`] snapshot (names sanitized to `drybell_*`;
//!   histograms export `_count`/`_sum` plus `quantile`-labelled
//!   summary rows).
//! * `/snapshot` — the full [`Telemetry::report_json`] document.
//! * `/healthz` — `ok`, for liveness probes.
//!
//! The fold is taken on demand, per request: steady-state cost is zero
//! (the accept thread sleeps in `accept(2)`), and the handler reads the
//! shared instruments the same way report rendering does — thread-local
//! telemetry shards keep writing without ever seeing the server.
//! Shutdown flips an atomic flag and self-connects to unblock the
//! accept loop, so drops are prompt.
//!
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry
//! [`Telemetry::report_json`]: crate::Telemetry::report_json

use crate::metrics::MetricsSnapshot;
use crate::Telemetry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client has to send its whole request head, and each write
/// of the response: the handler must never hang the accept thread on a
/// stalled or dribbling client.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest request head we bother reading.
const MAX_REQUEST_BYTES: usize = 4096;

/// A running snapshot server; shuts down on drop.
pub struct LiveServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl LiveServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// snapshots of `telemetry` until shutdown or drop.
    pub fn bind(addr: &str, telemetry: &Telemetry) -> io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = telemetry.clone();
        // Pre-intern the request counter so handling never takes the
        // registry's name lock.
        let requests = telemetry.metrics().counter("live/requests");
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("drybell-live".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if handle_connection(stream, &telemetry).is_ok() {
                        requests.inc();
                    }
                }
            })?;
        Ok(LiveServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept(2) with a throwaway connection; the flag is
        // already set, so the loop exits before handling it.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the connection only wakes accept(2); if it fails, accept is not blocked"
        )]
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "shutdown is idempotent and infallible; a panicked accept thread has nothing left to stop"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read the request head, route it, and write one HTTP/1.0 response.
///
/// The head has one deadline, [`IO_TIMEOUT`] after accept, and each read
/// waits only for what is left of it: a client sending a byte just
/// inside a per-read timeout would otherwise hold the one accept thread
/// for as long as it takes to send [`MAX_REQUEST_BYTES`].
fn handle_connection(mut stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(buf.get(..n).unwrap_or_default());
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus(&telemetry.metrics().snapshot()),
            ),
            "/snapshot" => (
                "200 OK",
                "application/json",
                format!("{}\n", telemetry.report_json().to_pretty()),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// A registry name as a Prometheus metric name: `drybell_` prefix,
/// separators and any non-`[a-z0-9_]` byte flattened to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("drybell_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a metrics snapshot as Prometheus text exposition. Counters
/// and gauges are single samples; histograms export as summaries
/// (`_count`, `_sum`, and `quantile`-labelled p50/p95/p99 rows).
pub(crate) fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in &snapshot.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, hist) in &snapshot.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} summary\n"));
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.95", hist.p95()),
            ("0.99", hist.p99()),
        ] {
            if let Some(v) = v {
                out.push_str(&format!("{n}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out.push_str(&format!(
            "{n}_sum {}\n{n}_count {}\n",
            hist.sum(),
            hist.count()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    fn busy_telemetry() -> Telemetry {
        let t = Telemetry::new();
        t.metrics().counter("nlp_calls").add(7);
        t.metrics().gauge("nlp_cache/size").set(3);
        let h = t.metrics().histogram("obs/train/step_us");
        h.record(100);
        h.record(2_000);
        {
            let _s = t.span("run");
        }
        t
    }

    #[test]
    fn healthz_answers_ok_and_requests_are_counted() {
        let t = busy_telemetry();
        let server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let (status, body) = get(server.local_addr(), "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        let (status, _) = get(server.local_addr(), "/nope");
        assert!(status.contains("404"), "{status}");
        // Both requests were handled and counted. A request is counted
        // after its response is written, so join the accept thread first.
        drop(server);
        assert_eq!(t.metrics().snapshot().counter("live/requests"), 2);
    }

    #[test]
    fn metrics_route_renders_prometheus_text() {
        let t = busy_telemetry();
        let server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let (status, body) = get(server.local_addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE drybell_nlp_calls counter"), "{body}");
        assert!(body.contains("drybell_nlp_calls 7"), "{body}");
        assert!(body.contains("drybell_nlp_cache_size 3"), "{body}");
        assert!(
            body.contains("# TYPE drybell_obs_train_step_us summary"),
            "{body}"
        );
        assert!(body.contains("drybell_obs_train_step_us_count 2"), "{body}");
        assert!(
            body.contains("drybell_obs_train_step_us{quantile=\"0.99\"}"),
            "{body}"
        );
    }

    #[test]
    fn snapshot_route_serves_the_report_document() {
        let t = busy_telemetry();
        let server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let (status, body) = get(server.local_addr(), "/snapshot");
        assert!(status.contains("200"), "{status}");
        let doc = parse(body.trim()).unwrap();
        assert_eq!(
            doc.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("nlp_calls")
                .unwrap()
                .as_i64(),
            Some(7)
        );
        assert!(!doc.get("spans").unwrap().items().is_empty());
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let t = Telemetry::new();
        let mut server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn a_dribbling_client_cannot_stall_healthz() {
        let t = Telemetry::new();
        let server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let addr = server.local_addr();
        // A byte every 200 ms for 3 s, never finishing the head: inside a
        // 500 ms per-read timeout every time. It connects first, so it is
        // the connection the accept thread takes first.
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
        let dribbler = std::thread::spawn(move || {
            for _ in 0..15 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        let started = Instant::now();
        let (status, body) = get(addr, "/healthz");
        let waited = started.elapsed();
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        assert!(
            waited < Duration::from_millis(1500),
            "/healthz took {waited:?}"
        );
        dribbler.join().unwrap();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let t = Telemetry::new();
        let server = LiveServer::bind("127.0.0.1:0", &t).unwrap();
        let mut stream =
            TcpStream::connect_timeout(&server.local_addr(), Duration::from_secs(2)).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
    }
}
