//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Hand-rolled (a handful of flags) to avoid pulling a CLI dependency
//! into the reproduction.

use std::path::PathBuf;

/// Options common to every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Dataset scale factor relative to the paper's sizes (default 0.1).
    pub scale: f64,
    /// Master seed override (default: each task's preset seed).
    pub seed: Option<u64>,
    /// Worker threads (default: available parallelism).
    pub workers: usize,
    /// Render the report as JSON instead of text tables.
    pub json: bool,
    /// Write a JSONL run journal to this path.
    pub journal: Option<PathBuf>,
    /// Write a `drybell-doctor` RunSummary JSON to this path.
    pub summary: Option<PathBuf>,
    /// Run id stamped into the journal's `run_header` event.
    pub run_id: Option<String>,
    /// Simulated NLP-service outage: per-call error rate in `[0, 1]`,
    /// injected via a seeded `FaultPlan` (binaries that run LFs only).
    pub nlp_outage: Option<f64>,
    /// Serve the live observability plane (`/metrics`, `/snapshot`,
    /// `/healthz`) on this address (e.g. `127.0.0.1:9800`; port `0`
    /// picks a free one, printed to stderr). Also arms a flight
    /// recorder dumping to `results/flight/` on drift or
    /// stream-fault-budget exhaustion.
    pub live: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> ExpArgs {
        ExpArgs {
            scale: 0.1,
            seed: None,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            json: false,
            journal: None,
            summary: None,
            run_id: None,
            nlp_outage: None,
            live: None,
        }
    }
}

impl ExpArgs {
    /// Parse from an iterator of arguments (without the program name).
    /// Unknown flags abort with a usage message.
    pub(crate) fn parse_from<I: Iterator<Item = String>>(mut args: I) -> Result<ExpArgs, String> {
        let mut out = ExpArgs::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().ok_or("--scale needs a value")?;
                    out.scale = v
                        .parse::<f64>()
                        .map_err(|e| format!("bad --scale {v:?}: {e}"))?;
                    // `<= 0.0` alone lets NaN through, and infinity would size
                    // corpora at `usize::MAX`.
                    if !(out.scale.is_finite() && out.scale > 0.0) {
                        return Err("--scale must be finite and positive".into());
                    }
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    out.seed = Some(
                        v.parse::<u64>()
                            .map_err(|e| format!("bad --seed {v:?}: {e}"))?,
                    );
                }
                "--workers" => {
                    let v = args.next().ok_or("--workers needs a value")?;
                    out.workers = v
                        .parse::<usize>()
                        .map_err(|e| format!("bad --workers {v:?}: {e}"))?
                        .max(1);
                }
                "--json" => out.json = true,
                "--journal" => {
                    let v = args.next().ok_or("--journal needs a path")?;
                    out.journal = Some(PathBuf::from(v));
                }
                "--summary" => {
                    let v = args.next().ok_or("--summary needs a path")?;
                    out.summary = Some(PathBuf::from(v));
                }
                "--run-id" => {
                    let v = args.next().ok_or("--run-id needs a value")?;
                    out.run_id = Some(v);
                }
                "--live" => {
                    let v = args.next().ok_or("--live needs an address")?;
                    out.live = Some(v);
                }
                "--nlp-outage" => {
                    let v = args.next().ok_or("--nlp-outage needs a rate")?;
                    let rate = v
                        .parse::<f64>()
                        .map_err(|e| format!("bad --nlp-outage {v:?}: {e}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err("--nlp-outage must be in [0, 1]".into());
                    }
                    out.nlp_outage = Some(rate);
                }
                "--help" | "-h" => {
                    return Err("usage: exp_* [--scale <f>] [--seed <n>] [--workers <n>] \
                         [--json] [--journal <path>] [--summary <path>] \
                         [--run-id <id>] [--nlp-outage <rate>] [--live <addr>]"
                        .into())
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// Parse from `std::env::args()`, exiting with the usage message on
    /// error.
    pub fn parse() -> ExpArgs {
        match ExpArgs::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The journal path these flags imply: `--journal` verbatim, else —
    /// when `--summary` is set — a `<summary>.journal.jsonl` sidecar, so
    /// a summary can always be folded from a real journal.
    pub fn journal_path(&self) -> Option<PathBuf> {
        self.journal.clone().or_else(|| {
            self.summary
                .as_ref()
                .map(|s| PathBuf::from(format!("{}.journal.jsonl", s.display())))
        })
    }

    /// Build the telemetry bundle these flags ask for: `--journal <path>`
    /// (or `--summary`, via its sidecar journal) attaches a JSONL
    /// [`drybell_obs::RunJournal`], `--live <addr>` a flight recorder,
    /// and `--json` alone still collects metrics and spans for the final
    /// report. `None` when no flag was given, so the default invocation
    /// keeps the un-instrumented fast path.
    pub fn telemetry(&self) -> std::io::Result<Option<drybell_obs::Telemetry>> {
        let base = match self.journal_path() {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                let journal = drybell_obs::RunJournal::to_path(&path)?;
                Some(drybell_obs::Telemetry::with_journal(journal))
            }
            None if self.json || self.live.is_some() => Some(drybell_obs::Telemetry::new()),
            None => None,
        };
        Ok(base.map(|t| match self.live {
            // The live plane comes with a black box: drift windows
            // and fault-budget exhaustion dump the recent event ring
            // to results/flight/.
            Some(_) => t.with_flight(drybell_obs::FlightRecorder::new("results/flight")),
            None => t,
        }))
    }

    /// [`ExpArgs::serve_live_or_exit`], returning the bind error.
    pub(crate) fn serve_live(
        &self,
        telemetry: &drybell_obs::Telemetry,
    ) -> std::io::Result<Option<drybell_obs::LiveServer>> {
        match &self.live {
            Some(addr) => {
                let server = drybell_obs::LiveServer::bind(addr, telemetry)?;
                eprintln!("live observability on http://{}", server.local_addr());
                Ok(Some(server))
            }
            None => Ok(None),
        }
    }

    /// Honor `--live`: bind the snapshot server on the requested
    /// address, exiting when it cannot bind. Hold the returned guard for
    /// the run's lifetime; it stops serving on drop. `None` without
    /// `--live`.
    pub fn serve_live_or_exit(
        &self,
        telemetry: &drybell_obs::Telemetry,
    ) -> Option<drybell_obs::LiveServer> {
        match self.serve_live(telemetry) {
            Ok(server) => server,
            Err(e) => {
                eprintln!(
                    "cannot bind --live {}: {e}",
                    self.live.as_deref().unwrap_or_default()
                );
                std::process::exit(2);
            }
        }
    }

    /// The run id for the journal header: `--run-id`, else the task name.
    pub(crate) fn run_id_or<'a>(&'a self, task: &'a str) -> &'a str {
        self.run_id.as_deref().unwrap_or(task)
    }

    /// Fingerprint of everything that shapes this run's results, so
    /// `doctor check` can flag baseline/current config mismatches.
    pub fn fingerprint(&self, task: &str) -> String {
        let scale = format!("scale={}", self.scale);
        let seed = format!("seed={:?}", self.seed);
        let workers = format!("workers={}", self.workers);
        let outage = format!("nlp_outage={:?}", self.nlp_outage);
        drybell_obs::config_fingerprint([task, &scale, &seed, &workers, &outage])
    }

    /// Stamp the `run_header` event (schema version, run id, config
    /// fingerprint) into the run's journal, if one is attached.
    pub fn emit_header(&self, telemetry: &drybell_obs::Telemetry, task: &str) {
        if let Some(journal) = telemetry.journal() {
            journal.emit_header(self.run_id_or(task), &self.fingerprint(task));
        }
    }

    /// Honor `--summary`: flush the journal, fold it into a
    /// [`drybell_doctor::RunSummary`], merge the metrics snapshot, and
    /// write the summary JSON. No-op without `--summary`.
    pub fn write_summary(
        &self,
        telemetry: &drybell_obs::Telemetry,
    ) -> Result<Option<PathBuf>, String> {
        let Some(out) = &self.summary else {
            return Ok(None);
        };
        let path = self
            .journal_path()
            .expect("--summary implies a journal path");
        if let Some(journal) = telemetry.journal() {
            journal.flush().map_err(|e| format!("flush journal: {e}"))?;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read journal {}: {e}", path.display()))?;
        let mut summary = drybell_doctor::RunSummary::from_journal_str(&text)
            .map_err(|e| format!("fold journal {}: {e}", path.display()))?;
        summary.merge_metrics_json(&telemetry.report_json());
        if let Some(parent) = out.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        let mut doc = summary.to_json().to_pretty();
        doc.push('\n');
        std::fs::write(out, doc).map_err(|e| format!("write {}: {e}", out.display()))?;
        Ok(Some(out.clone()))
    }

    /// [`ExpArgs::write_summary`], exiting on failure.
    pub fn write_summary_or_exit(&self, telemetry: &drybell_obs::Telemetry) {
        match self.write_summary(telemetry) {
            Ok(Some(path)) => eprintln!("summary written to {}", path.display()),
            Ok(None) => {}
            Err(msg) => {
                eprintln!("cannot write --summary: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// [`ExpArgs::telemetry`], exiting with a usage-style message when the
    /// `--journal` path cannot be opened.
    pub fn telemetry_or_exit(&self) -> Option<drybell_obs::Telemetry> {
        match self.telemetry() {
            Ok(t) => t,
            Err(e) => {
                let path = self.journal_path().unwrap_or_default();
                eprintln!("cannot open --journal {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.seed, None);
        assert!(!a.json);
        assert_eq!(a.journal, None);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale", "1.0", "--seed", "7", "--workers", "3"]).unwrap();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.workers, 3);
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&["--json", "--journal", "/tmp/run.jsonl"]).unwrap();
        assert!(a.json);
        assert_eq!(
            a.journal.as_deref(),
            Some(std::path::Path::new("/tmp/run.jsonl"))
        );
    }

    #[test]
    fn errors() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--scale", "nan"]).is_err());
        assert!(parse(&["--scale", "inf"]).is_err());
        assert!(parse(&["--journal"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        // There is no `--trace`: a script passing it fails rather than
        // running untraced.
        assert!(parse(&["--trace", "x"]).is_err());
        assert!(parse(&["--help"]).is_err());
        assert!(parse(&["--nlp-outage", "1.5"]).is_err());
        assert!(parse(&["--nlp-outage", "x"]).is_err());
    }

    #[test]
    fn doctor_flags_parse() {
        let a = parse(&[
            "--summary",
            "/tmp/s.json",
            "--run-id",
            "nightly",
            "--nlp-outage",
            "0.35",
        ])
        .unwrap();
        assert_eq!(
            a.summary.as_deref(),
            Some(std::path::Path::new("/tmp/s.json"))
        );
        assert_eq!(a.run_id.as_deref(), Some("nightly"));
        assert_eq!(a.nlp_outage, Some(0.35));
        // --summary implies a sidecar journal path.
        assert_eq!(
            a.journal_path().unwrap().to_str().unwrap(),
            "/tmp/s.json.journal.jsonl"
        );
        // An explicit --journal wins over the sidecar.
        let b = parse(&["--summary", "/tmp/s.json", "--journal", "/tmp/j.jsonl"]).unwrap();
        assert_eq!(
            b.journal_path().as_deref(),
            Some(std::path::Path::new("/tmp/j.jsonl"))
        );
    }

    #[test]
    fn fingerprint_tracks_result_shaping_flags() {
        let a = parse(&["--scale", "0.2", "--seed", "7"]).unwrap();
        let b = parse(&["--scale", "0.2", "--seed", "7"]).unwrap();
        assert_eq!(a.fingerprint("quickstart"), b.fingerprint("quickstart"));
        assert_ne!(a.fingerprint("quickstart"), a.fingerprint("other_task"));
        let c = parse(&["--scale", "0.2", "--seed", "8"]).unwrap();
        assert_ne!(a.fingerprint("quickstart"), c.fingerprint("quickstart"));
        let d = parse(&["--scale", "0.2", "--seed", "7", "--nlp-outage", "0.5"]).unwrap();
        assert_ne!(a.fingerprint("quickstart"), d.fingerprint("quickstart"));
        // Run id is identity, not config: it must not move the print.
        let e = parse(&["--scale", "0.2", "--seed", "7", "--run-id", "x"]).unwrap();
        assert_eq!(a.fingerprint("quickstart"), e.fingerprint("quickstart"));
    }

    #[test]
    fn live_flag_serves_metrics_and_keeps_the_fingerprint() {
        let a = parse(&["--live", "127.0.0.1:0"]).unwrap();
        assert_eq!(a.live.as_deref(), Some("127.0.0.1:0"));
        assert!(parse(&["--live"]).is_err());
        // Serving a snapshot endpoint is a rendering knob, not config:
        // the fingerprint must not move.
        let plain = parse(&[]).unwrap();
        assert_eq!(a.fingerprint("quickstart"), plain.fingerprint("quickstart"));
        // --live alone enables telemetry, arms the flight recorder, and
        // binds the snapshot server.
        let t = a.telemetry().unwrap().unwrap();
        assert!(t.flight().is_some(), "--live must arm the flight recorder");
        t.metrics().counter("nlp_calls").add(3);
        let server = a.serve_live(&t).unwrap().unwrap();
        let addr = server.local_addr();
        use std::io::{Read, Write};
        let mut sock = std::net::TcpStream::connect(addr).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        sock.read_to_string(&mut body).unwrap();
        assert!(body.contains("drybell_nlp_calls 3"), "{body}");
    }

    #[test]
    fn telemetry_matches_the_flags() {
        assert!(parse(&[]).unwrap().telemetry().unwrap().is_none());
        let t = parse(&["--json"]).unwrap().telemetry().unwrap().unwrap();
        assert!(t.journal().is_none());
        let dir = std::env::temp_dir().join(format!("bench-args-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let args = parse(&["--journal", path.to_str().unwrap()]).unwrap();
        let t = args.telemetry().unwrap().unwrap();
        assert!(t.journal().is_some());
        t.emit(drybell_obs::Event::new("probe"));
        t.journal().unwrap().flush().unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("probe"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
