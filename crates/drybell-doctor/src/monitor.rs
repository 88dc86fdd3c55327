//! In-stream drift monitoring over rolling journal windows.
//!
//! The batch doctor (`doctor check`) diffs one *finished* run against a
//! baseline — drift surfaces at batch boundaries, hours after the
//! upstream resource started misbehaving. §3.3 of the DryBell paper
//! monitors labeling-function statistics *over time* precisely because
//! the organizational resources LFs lean on degrade mid-run. This
//! module closes that gap for streaming ingestion:
//!
//! * [`WindowFolder`] folds journal events (and periodic metric
//!   snapshots) into an accumulating [`RunSummary`] — the same folding
//!   `doctor baseline` uses, so a window is diffable against any
//!   checked-in baseline *and* against a baseline built from the
//!   stream's own healthy prefix.
//! * [`StreamMonitor`] closes a window every `window_events` journal
//!   events and runs [`DriftReport::diff`] on it immediately, so a
//!   degrading NLP server is flagged within a bounded number of
//!   *events*, not at the end of the run.
//!
//! Metric snapshots are cumulative (counters only go up), while a
//! window is a delta: folding raw counter values into a window would
//! mix lifetime vote totals with per-window example counts and report
//! coverage > 1 — spurious drift by construction. [`WindowFolder`]
//! therefore remembers the previous snapshot and folds only the
//! *difference*, while journal events (which are already per-execution
//! deltas) fold in directly.

use crate::config::DoctorConfig;
use crate::drift::DriftReport;
use crate::summary::RunSummary;
use drybell_obs::{Json, MetricsSnapshot, Telemetry};
use std::collections::BTreeMap;

/// Folds journal events and metric-snapshot deltas into a
/// [`RunSummary`] covering one window of a stream.
///
/// Journal events are per-execution deltas and fold in directly (via
/// the same folding as `RunSummary::from_journal_str`, journal-gap
/// tracking included — a corrupt event mid-stream gates the window it
/// lands in). Metric snapshots are cumulative, so only the delta since
/// the previous snapshot is folded; the previous-value memory survives
/// [`WindowFolder::take`] so windows never double-count.
#[derive(Debug, Default)]
pub struct WindowFolder {
    summary: RunSummary,
    /// Last-seen cumulative values, keyed `"c/<name>"` for counters and
    /// `"g/<name>"` for gauges. Outlives individual windows.
    prev: BTreeMap<String, u64>,
    events: usize,
}

impl WindowFolder {
    /// An empty folder.
    pub fn new() -> WindowFolder {
        WindowFolder::default()
    }

    /// Journal events folded into the current (unclosed) window.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Fold one already-parsed journal event.
    pub fn fold_event(&mut self, event: &Json) {
        let examples_before = self.summary.examples;
        self.summary.fold_event(event);
        // Batch folding takes the *max* of `lf_execution` example
        // counts because a batch journal's executions re-describe one
        // corpus. Stream shards are disjoint slices of the stream, so
        // a window's example count is the *sum* of its shards'.
        if event.get("kind").and_then(Json::as_str) == Some("lf_execution") {
            let shard_examples = event
                .get("examples")
                .and_then(Json::as_i64)
                .map(|v| v.max(0) as u64)
                .unwrap_or(0);
            self.summary.examples = examples_before + shard_examples;
        }
        self.events += 1;
    }

    /// Fold the delta since the previous snapshot of the per-LF
    /// counters (`votes/<lf>`, `lf/<lf>/degraded`).
    ///
    /// Scalar NLP health (`nlp_calls`, degradations, cache traffic) is
    /// deliberately *not* read from the snapshot: `lf_execution`
    /// journal events already carry those as per-execution deltas, and
    /// folding both sources would double-count.
    ///
    /// A cumulative counter that moves *backwards* means the producer
    /// restarted: the delta is clamped to zero (not underflowed into a
    /// huge spurious value), the reset is tallied into the window's
    /// `counter_resets` — which flags the window `info` at diff time —
    /// and the new lower value becomes the delta base. Returns the
    /// number of resets this snapshot exhibited.
    pub fn fold_metrics(&mut self, snapshot: &MetricsSnapshot) -> u64 {
        let mut resets = 0u64;
        for (name, value) in &snapshot.counters {
            let prev = self.prev.insert(format!("c/{name}"), *value).unwrap_or(0);
            if *value < prev {
                resets += 1;
                self.summary.counter_resets += 1;
                continue;
            }
            let delta = value.saturating_sub(prev);
            if delta == 0 {
                continue;
            }
            if let Some(lf) = name.strip_prefix("votes/") {
                let entry = self.summary.lfs.entry(lf.to_string()).or_default();
                *entry.votes.get_or_insert(0) += delta;
            } else if let Some(lf) = name
                .strip_prefix("lf/")
                .and_then(|rest| rest.strip_suffix("/degraded"))
            {
                self.summary.lfs.entry(lf.to_string()).or_default().degraded += delta;
            }
        }
        resets
    }

    /// Close the window: hand out its summary and start a fresh one.
    ///
    /// The run identity (schema, run id, config fingerprint) carries
    /// over — a `run_header` seen in window 1 still describes window 7
    /// — as does the cumulative-counter memory.
    pub fn take(&mut self) -> RunSummary {
        self.events = 0;
        let out = std::mem::take(&mut self.summary);
        self.summary.schema_version = out.schema_version;
        self.summary.run_id = out.run_id.clone();
        self.summary.config_fingerprint = out.config_fingerprint.clone();
        out
    }
}

/// One closed window's drift verdict.
#[derive(Debug)]
pub struct WindowVerdict {
    /// 1-based index of the window within the stream.
    pub window: u64,
    /// Journal events folded into this window.
    pub events: usize,
    /// The window's folded summary (what was diffed).
    pub summary: RunSummary,
    /// The drift verdicts for this window against the baseline.
    pub report: DriftReport,
}

impl WindowVerdict {
    /// Whether any verdict in this window gates.
    pub fn gates(&self) -> bool {
        self.report.has_drift()
    }
}

/// Rolling-window live monitor: folds a stream of journal events into
/// fixed-size windows and diffs each closed window against a baseline
/// the moment it closes.
///
/// The baseline should cover the *same window shape* — typically built
/// by running a healthy prefix of the stream through a
/// [`WindowFolder`] of the same size — so that signals absent from a
/// window (training, score distributions) are absent from both sides
/// and produce no verdict at all, rather than a spurious MISSING.
pub struct StreamMonitor {
    baseline: RunSummary,
    cfg: DoctorConfig,
    window_events: usize,
    folder: WindowFolder,
    windows_closed: u64,
    events_seen: u64,
    telemetry: Option<Telemetry>,
}

impl StreamMonitor {
    /// A monitor closing a window every `window_events` journal events
    /// (clamped to ≥ 1).
    pub fn new(baseline: RunSummary, cfg: DoctorConfig, window_events: usize) -> StreamMonitor {
        StreamMonitor {
            baseline,
            cfg,
            window_events: window_events.max(1),
            folder: WindowFolder::new(),
            windows_closed: 0,
            events_seen: 0,
            telemetry: None,
        }
    }

    /// Attach telemetry: every observed event bumps the
    /// `stream/events` counter.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> StreamMonitor {
        self.telemetry = Some(telemetry);
        self
    }

    /// Continue folding through `folder` instead of a fresh one.
    ///
    /// When the baseline was built by folding the stream's healthy
    /// prefix through a [`WindowFolder`] ([`WindowFolder::take`] hands
    /// out the baseline and keeps the folder alive), passing that same
    /// folder here carries its cumulative-counter memory forward — a
    /// fresh folder would treat the next metrics snapshot's lifetime
    /// totals as one window's delta and double-count the prefix.
    pub fn with_folder(mut self, folder: WindowFolder) -> StreamMonitor {
        self.folder = folder;
        self
    }

    /// Total journal events observed across all windows.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Windows closed (and therefore judged) so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Observe one already-parsed journal event; returns the window
    /// verdict when this event closes a window.
    pub fn observe_event(&mut self, event: &Json) -> Option<WindowVerdict> {
        self.folder.fold_event(event);
        self.events_seen += 1;
        if let Some(t) = &self.telemetry {
            t.metrics().counter("stream/events").inc();
        }
        (self.folder.events() >= self.window_events).then(|| self.close_window())
    }

    /// Observe a cumulative metrics snapshot (delta-folded into the
    /// current window). Snapshots do not count toward the window size —
    /// they are a sampling side-channel, not stream progress. Counter
    /// resets (a restarted producer) bump `stream/counter_resets`.
    pub fn observe_metrics(&mut self, snapshot: &MetricsSnapshot) {
        let resets = self.folder.fold_metrics(snapshot);
        if resets > 0 {
            if let Some(t) = &self.telemetry {
                t.metrics().counter("stream/counter_resets").add(resets);
            }
        }
    }

    /// Close the current window even if short, judging whatever has
    /// accumulated. Returns `None` when the window is empty.
    pub fn flush(&mut self) -> Option<WindowVerdict> {
        (self.folder.events() > 0).then(|| self.close_window())
    }

    fn close_window(&mut self) -> WindowVerdict {
        let events = self.folder.events();
        let mut summary = self.folder.take();
        if summary.nlp_degraded == 0 {
            // Same floor as `from_journal_str`: per-LF degradations
            // seen only through counters still count as NLP trouble.
            summary.nlp_degraded = summary
                .lfs
                .values()
                .map(|lf| lf.degraded)
                .max()
                .unwrap_or(0);
        }
        self.windows_closed += 1;
        let report = DriftReport::diff(&self.baseline, &summary, &self.cfg);
        if report.has_drift() {
            if let Some(t) = &self.telemetry {
                // A gating window is a fault: capture the last-N-events
                // context while it is still resident.
                t.dump_flight("drift_window");
            }
        }
        WindowVerdict {
            window: self.windows_closed,
            events,
            summary,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::Status;
    use drybell_obs::MetricsRegistry;

    /// A healthy `lf_execution` event covering `examples` examples.
    fn lf_execution(examples: u64, degraded: u64) -> Json {
        let line = format!(
            "{{\"kind\":\"lf_execution\",\"seconds\":0.5,\"examples\":{examples},\
             \"nlp_calls\":{examples},\"nlp_degraded\":{degraded}}}"
        );
        drybell_obs::parse_json(&line).expect("test event parses")
    }

    /// Snapshot a registry whose cumulative counters stand at the given
    /// values.
    fn snapshot_at(votes: u64, degraded: u64) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        registry.counter("votes/topic").add(votes);
        registry.counter("lf/topic/degraded").add(degraded);
        registry.snapshot()
    }

    fn window_baseline(events: usize, examples: u64, votes: u64) -> RunSummary {
        let mut folder = WindowFolder::new();
        for _ in 0..events {
            folder.fold_event(&lf_execution(examples, 0));
        }
        folder.fold_metrics(&snapshot_at(votes, 0));
        folder.take()
    }

    #[test]
    fn healthy_windows_close_on_schedule_and_stay_quiet() {
        let baseline = window_baseline(4, 100, 320);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 4);
        let mut verdicts = Vec::new();
        for shard in 0u64..8 {
            monitor.observe_metrics(&snapshot_at((shard + 1) * 80, 0));
            if let Some(v) = monitor.observe_event(&lf_execution(100, 0)) {
                verdicts.push(v);
            }
        }
        assert_eq!(verdicts.len(), 2, "8 events / window of 4");
        assert_eq!(monitor.events_seen(), 8);
        for v in &verdicts {
            assert_eq!(v.events, 4);
            assert!(
                !v.gates(),
                "healthy window {} gated: {}",
                v.window,
                v.report.to_table()
            );
        }
        // Per-window coverage came out of the counter *deltas*: four
        // shards × 80 votes over 400 examples, both windows alike.
        assert_eq!(verdicts[0].summary.lfs["topic"].votes, Some(320));
        assert_eq!(verdicts[1].summary.lfs["topic"].votes, Some(320));
        assert_eq!(verdicts[1].summary.examples, 400);
    }

    #[test]
    fn degraded_shard_gates_the_window_it_lands_in() {
        let baseline = window_baseline(4, 100, 320);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 4);
        // One healthy window, then an outage on the sixth shard.
        let mut flagged = None;
        for shard in 0u64..8 {
            let outage = shard == 5;
            let degraded = if outage { 40 } else { 0 };
            monitor.observe_metrics(&snapshot_at((shard + 1) * 80, if outage { 40 } else { 0 }));
            if let Some(v) = monitor.observe_event(&lf_execution(100, degraded)) {
                if v.gates() && flagged.is_none() {
                    flagged = Some(v);
                }
            }
        }
        let v = flagged.expect("outage window must gate");
        assert_eq!(v.window, 2, "flagged in the window containing the outage");
        let gating: Vec<&str> = v.report.gating().map(|g| g.signal.as_str()).collect();
        assert!(
            gating.contains(&"nlp/degraded"),
            "nlp/degraded should gate, got {gating:?}"
        );
        assert!(
            gating.contains(&"lf/topic/degraded"),
            "lf/topic/degraded should gate, got {gating:?}"
        );
        for g in v.report.gating() {
            assert!(
                matches!(g.status, Status::Drift | Status::Missing),
                "unexpected gating status {:?}",
                g.status
            );
        }
    }

    #[test]
    fn metric_deltas_never_double_count_across_windows() {
        let mut folder = WindowFolder::new();
        folder.fold_metrics(&snapshot_at(10, 0));
        folder.fold_event(&lf_execution(20, 0));
        let first = folder.take();
        assert_eq!(first.lfs["topic"].votes, Some(10));
        // The cumulative counter moved 10 → 25; the next window must
        // see 15, not 25.
        folder.fold_metrics(&snapshot_at(25, 0));
        folder.fold_event(&lf_execution(20, 0));
        let second = folder.take();
        assert_eq!(second.lfs["topic"].votes, Some(15));
        assert_eq!(folder.events(), 0, "events reset with the window");
        // Handing the folder to a monitor keeps the memory: the next
        // cumulative snapshot (25 → 40) folds as 15, not 40.
        let mut monitor = StreamMonitor::new(first, DoctorConfig::default(), 1).with_folder(folder);
        monitor.observe_metrics(&snapshot_at(40, 0));
        let v = monitor
            .observe_event(&lf_execution(20, 0))
            .expect("window of one closes per event");
        assert_eq!(v.summary.lfs["topic"].votes, Some(15));
    }

    #[test]
    fn corrupt_event_mid_stream_gates_its_window_as_missing() {
        let baseline = window_baseline(2, 100, 160);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 2);
        let truncated =
            drybell_obs::parse_json("{\"kind\":\"lf_execution\",\"seconds\":0.5}").unwrap();
        assert!(monitor.observe_event(&truncated).is_none());
        let v = monitor
            .observe_event(&lf_execution(100, 0))
            .expect("second event closes the window");
        let gating: Vec<&str> = v.report.gating().map(|g| g.signal.as_str()).collect();
        assert!(
            gating
                .iter()
                .any(|s| s.starts_with("journal/lf_execution.")),
            "journal gap should gate the window, got {gating:?}"
        );
    }

    /// A minimal `shadow` event carrying per-window score histograms.
    fn shadow_event(serving: &[u64], candidate: &[u64]) -> Json {
        let fmt = |d: &[u64]| {
            d.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let line = format!(
            "{{\"kind\":\"shadow\",\"score_dist/serving\":[{}],\"score_dist/candidate\":[{}],\
             \"invalid/serving\":0,\"invalid/candidate\":0}}",
            fmt(serving),
            fmt(candidate)
        );
        drybell_obs::parse_json(&line).expect("test event parses")
    }

    #[test]
    fn counter_reset_clamps_counts_and_flags_info() {
        let telemetry = Telemetry::new();
        let baseline = window_baseline(2, 100, 160);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 2)
            .with_telemetry(telemetry.clone());
        monitor.observe_metrics(&snapshot_at(80, 0));
        monitor.observe_event(&lf_execution(100, 0));
        // Producer restarted: the cumulative vote counter fell 80 → 20.
        monitor.observe_metrics(&snapshot_at(20, 0));
        // It resumes from the new base: 20 → 100 folds as 80, so the
        // window's total is 160 — same as the healthy baseline, not an
        // underflowed u64 and not the restarted counter double-counted.
        monitor.observe_metrics(&snapshot_at(100, 0));
        let v = monitor
            .observe_event(&lf_execution(100, 0))
            .expect("second event closes the window");
        assert_eq!(v.summary.lfs["topic"].votes, Some(160));
        assert_eq!(v.summary.counter_resets, 1);
        assert_eq!(
            telemetry
                .metrics()
                .snapshot()
                .counter("stream/counter_resets"),
            1
        );
        let reset = v
            .report
            .verdicts
            .iter()
            .find(|g| g.signal == "stream/counter_resets")
            .expect("reset verdict present");
        assert_eq!(reset.status, Status::Info, "resets inform, never gate");
        assert!(
            !v.gates(),
            "clamped window must not gate: {}",
            v.report.to_table()
        );
    }

    #[test]
    fn drifted_shadow_dist_gates_its_window_in_stream() {
        let stable = [40u64, 60, 80, 60, 40, 30, 30, 25, 20, 15];
        let shifted = [5u64, 5, 10, 20, 40, 60, 80, 70, 60, 50];
        // Baseline window: one lf_execution plus a healthy shadow
        // report, so both sides carry score dists and PSI is judged.
        let mut folder = WindowFolder::new();
        folder.fold_event(&lf_execution(100, 0));
        folder.fold_event(&shadow_event(&stable, &stable));
        let baseline = folder.take();
        let mut monitor =
            StreamMonitor::new(baseline, DoctorConfig::default(), 2).with_folder(folder);
        // Healthy window: identical distributions, PSI 0, quiet.
        monitor.observe_event(&lf_execution(100, 0));
        let v = monitor
            .observe_event(&shadow_event(&stable, &stable))
            .expect("window closes");
        assert!(!v.gates(), "healthy window gated: {}", v.report.to_table());
        // Candidate model's scores shift: the window's candidate PSI
        // blows the psi.score_dist budget while serving stays stable.
        monitor.observe_event(&lf_execution(100, 0));
        let v = monitor
            .observe_event(&shadow_event(&stable, &shifted))
            .expect("window closes");
        assert!(v.gates(), "shifted window must gate");
        let gating: Vec<&str> = v.report.gating().map(|g| g.signal.as_str()).collect();
        assert!(
            gating.contains(&"serving/score_dist_candidate"),
            "candidate score PSI should gate, got {gating:?}"
        );
        assert!(
            !gating.contains(&"serving/score_dist"),
            "serving dist unchanged, got {gating:?}"
        );
    }

    #[test]
    fn gating_window_triggers_a_flight_dump() {
        let dir = std::env::temp_dir().join(format!("doctor-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = drybell_obs::FlightRecorder::with_capacity(&dir, 32);
        let telemetry = Telemetry::new().with_flight(recorder.clone());
        let baseline = window_baseline(1, 100, 80);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 1)
            .with_telemetry(telemetry.clone());
        // Healthy window: no dump.
        telemetry.emit(drybell_obs::Event::new("phase").field("name", "healthy"));
        monitor.observe_metrics(&snapshot_at(80, 0));
        let v = monitor.observe_event(&lf_execution(100, 0)).unwrap();
        assert!(!v.gates());
        assert!(std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) == 0);
        // Degraded window: the DRIFT verdict dumps the ring.
        monitor.observe_metrics(&snapshot_at(160, 40));
        let v = monitor.observe_event(&lf_execution(100, 40)).unwrap();
        assert!(v.gates());
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dumps.len(), 1, "one gating window, one dump");
        let text = std::fs::read_to_string(&dumps[0]).unwrap();
        assert!(text.contains("\"reason\":\"drift_window\""), "{text}");
        assert!(
            text.contains("\"kind\":\"phase\""),
            "ring context preserved: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_judges_a_partial_window_and_telemetry_counts_events() {
        let telemetry = Telemetry::new();
        let baseline = window_baseline(4, 100, 320);
        let mut monitor = StreamMonitor::new(baseline, DoctorConfig::default(), 4)
            .with_telemetry(telemetry.clone());
        assert!(monitor.flush().is_none(), "empty window flushes to None");
        monitor.observe_event(&lf_execution(100, 0));
        monitor.observe_event(&lf_execution(100, 0));
        let v = monitor.flush().expect("partial window still judged");
        assert_eq!(v.events, 2);
        assert_eq!(monitor.windows_closed(), 1);
        assert_eq!(
            telemetry.metrics().snapshot().counter("stream/events"),
            2,
            "stream/events counts observed events"
        );
        assert!(monitor.flush().is_none(), "flush drained the window");
    }
}
