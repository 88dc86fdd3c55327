//! The flight recorder: a fixed-capacity ring of recent journal events
//! and span samples, dumped to disk when something goes wrong.
//!
//! The append-only journal records everything, but a post-mortem wants
//! the *last* N events before a fault — which a multi-gigabyte journal
//! buries. A [`FlightRecorder`] keeps that context resident: every
//! journal event emitted through a [`Telemetry`] bundle with a recorder
//! attached (and every closed span, as a `span_sample` line) is mirrored
//! into a bounded ring, and a trigger — a `DRIFT` window verdict, an SLO
//! breach, a dataflow fault-budget exhaustion — calls [`dump`] to write
//! the ring to `flight-<ts>.jsonl` in the recorder's directory.
//!
//! Recording takes one short mutex over a `VecDeque` push; triggers are
//! rare (journal events fire at phase/window boundaries, spans close at
//! computation boundaries — never per row), so the ring never sits on a
//! scoring path. When no recorder is attached, the cost is an `Option`
//! check. Dumping drains the ring, so consecutive dumps partition the
//! event history instead of repeating it.
//!
//! [`Telemetry`]: crate::Telemetry
//! [`dump`]: FlightRecorder::dump

use crate::json::Json;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Default ring capacity: enough for the last few windows of events.
pub const DEFAULT_CAPACITY: usize = 256;

struct RingState {
    entries: VecDeque<Json>,
    dropped: u64,
    dumps: u64,
}

struct FlightInner {
    dir: PathBuf,
    capacity: usize,
    ring: Mutex<RingState>,
}

/// A shared, clonable flight-recorder handle.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("dir", &self.inner.dir)
            .field("capacity", &self.inner.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder dumping into `dir` with the default ring capacity.
    pub fn new(dir: impl Into<PathBuf>) -> FlightRecorder {
        FlightRecorder::with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (clamped to ≥ 1).
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                dir: dir.into(),
                capacity: capacity.max(1),
                ring: Mutex::new(RingState {
                    entries: VecDeque::new(),
                    dropped: 0,
                    dumps: 0,
                }),
            }),
        }
    }

    /// Whether the recorder is live. A plain field read — the check a
    /// hot path makes before handing an event to [`record`] costs
    /// nothing.
    ///
    /// [`record`]: FlightRecorder::record
    pub fn armed(&self) -> bool {
        self.inner.capacity > 0
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RingState> {
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror one line into the ring, evicting the oldest when full.
    pub fn record(&self, line: Json) {
        let mut ring = self.locked();
        if ring.entries.len() >= self.inner.capacity {
            ring.entries.pop_front();
            ring.dropped += 1;
        }
        ring.entries.push_back(line);
    }

    /// Mirror a closed span as a `span_sample` line.
    pub(crate) fn span_sample(&self, path: &str, dur_us: u64) {
        self.record(Json::obj(vec![
            ("kind", Json::from("span_sample")),
            ("path", Json::from(path)),
            ("dur_us", Json::from(dur_us)),
        ]));
    }

    /// Lines currently resident in the ring.
    pub fn len(&self) -> usize {
        self.locked().entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines evicted since the last dump (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.locked().dropped
    }

    /// Drain the ring to `flight-<ts>.jsonl` in the recorder's
    /// directory and return the path. The trigger's own event should be
    /// recorded *before* dumping so it lands as the file's last line.
    /// The dump ordinal is appended to the timestamp so rapid
    /// consecutive triggers never collide.
    pub fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        let (lines, dropped, seq) = {
            let mut ring = self.locked();
            let lines: Vec<Json> = ring.entries.drain(..).collect();
            let dropped = std::mem::take(&mut ring.dropped);
            ring.dumps += 1;
            (lines, dropped, ring.dumps)
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "flight dumps are post-mortem artifacts named by wall-clock time, never replayed"
        )]
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        std::fs::create_dir_all(&self.inner.dir)?;
        let path = self.inner.dir.join(format!("flight-{ts}-{seq}.jsonl"));
        let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            file,
            "{}",
            Json::obj(vec![
                ("kind", Json::from("flight_header")),
                ("reason", Json::from(reason)),
                ("events", Json::from(lines.len())),
                ("dropped", Json::from(dropped)),
            ])
            .to_line()
        )?;
        for line in &lines {
            writeln!(file, "{}", line.to_line())?;
        }
        file.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("obs-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(temp_dir("evict"), 3);
        assert!(rec.armed());
        for i in 0..5u64 {
            rec.record(Json::obj(vec![("i", Json::from(i))]));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn dump_writes_ring_in_order_with_trigger_last() {
        let dir = temp_dir("dump");
        let rec = FlightRecorder::with_capacity(&dir, 8);
        rec.span_sample("run/fit", 42);
        rec.record(Json::obj(vec![("kind", Json::from("phase"))]));
        rec.record(Json::obj(vec![("kind", Json::from("slo_breach"))]));
        let path = rec.dump("slo_breach").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0].get("kind").unwrap().as_str(),
            Some("flight_header")
        );
        assert_eq!(lines[0].get("reason").unwrap().as_str(), Some("slo_breach"));
        assert_eq!(lines[0].get("events").unwrap().as_i64(), Some(3));
        assert_eq!(lines[1].get("kind").unwrap().as_str(), Some("span_sample"));
        assert_eq!(lines[1].get("path").unwrap().as_str(), Some("run/fit"));
        assert_eq!(lines[1].get("dur_us").unwrap().as_i64(), Some(42));
        // The trigger's event is the last line of the dump.
        assert_eq!(
            lines.last().unwrap().get("kind").unwrap().as_str(),
            Some("slo_breach")
        );
        // Dumping drained the ring.
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn consecutive_dumps_get_distinct_paths() {
        let dir = temp_dir("seq");
        let rec = FlightRecorder::with_capacity(&dir, 4);
        rec.record(Json::obj(vec![("kind", Json::from("phase"))]));
        let a = rec.dump("first").unwrap();
        rec.record(Json::obj(vec![("kind", Json::from("phase"))]));
        let b = rec.dump("second").unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
