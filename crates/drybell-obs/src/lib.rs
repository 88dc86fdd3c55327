//! # drybell-obs
//!
//! The telemetry layer for the DryBell reproduction: lightweight enough
//! to thread through every crate (zero dependencies, a few atomics per
//! record), structured enough to answer the questions the paper's
//! production deployment had to answer — where did the wall-clock go,
//! which labeling function is slow, is the NLP cache earning its keep,
//! did training converge.
//!
//! Three instruments, one bundle:
//!
//! * [`metrics`] — named counters, gauges, and log-bucketed latency
//!   histograms (p50/p95/p99/max) in a [`MetricsRegistry`].
//! * [`span`] — RAII wall-clock spans aggregated by `/`-separated path
//!   in a [`SpanSet`].
//! * [`journal`] — an append-only JSONL [`RunJournal`]: one event per
//!   phase, shard, or epoch, each line self-describing.
//!
//! [`Telemetry`] carries all three; it is `Clone` (shared handles) and
//! cheap to pass down a pipeline. Code paths accept `Option<&Telemetry>`
//! (or options types defaulting to none) so the un-instrumented hot
//! path stays allocation- and branch-trivial.
//!
//! Naming conventions: job-level counters keep their MapReduce names
//! (`votes/<lf>`, `nlp_calls`, `nlp_cache/hits`); instruments owned by
//! this layer are namespaced `obs/<area>/<metric>`, with `_us` suffixing
//! microsecond histograms.
//! The machine-readable form of that convention is [`naming::REGISTRY`]:
//! every name production code emits is declared there, and the telemetry
//! tests check every name a real run emits against it.
//!
//! [`MetricsRegistry`]: metrics::MetricsRegistry
//! [`SpanSet`]: span::SpanSet
//! [`RunJournal`]: journal::RunJournal

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod flight;
pub mod hash;
pub mod journal;
pub mod json;
pub mod live;
pub mod metrics;
pub mod naming;
pub mod report;
pub mod shard;
pub mod span;

pub use flight::FlightRecorder;
pub use hash::{fnv1a64, Fnv1a64, FnvHashMap, FnvHashSet};
pub use journal::{config_fingerprint, Event, JournalBuffer, RunJournal, SCHEMA_VERSION};
pub use json::{parse as parse_json, Json, JsonError};
pub use live::LiveServer;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricsRegistry, MetricsSnapshot,
};
pub use report::metrics_to_json;
pub(crate) use report::spans_to_json;
pub use shard::{CounterSlot, GaugeSlot, HistogramSlot, LocalShard, ShardLayout};
pub use span::{Span, SpanSet, SpanSnapshot, SpanStat};

/// The bundle handed down a pipeline: metrics + spans + optional
/// journal and flight recorder.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    spans: SpanSet,
    journal: Option<RunJournal>,
    flight: Option<FlightRecorder>,
}

impl Telemetry {
    /// Metrics and spans only; events are dropped.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Metrics, spans, and a journal for structured events.
    pub fn with_journal(journal: RunJournal) -> Telemetry {
        Telemetry {
            journal: Some(journal),
            ..Telemetry::default()
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span set.
    pub fn spans(&self) -> &SpanSet {
        &self.spans
    }

    /// The journal, if one is attached.
    pub fn journal(&self) -> Option<&RunJournal> {
        self.journal.as_ref()
    }

    /// The same bundle with a flight recorder attached: every emitted
    /// event (and every closed span, as a `span_sample` line) is
    /// mirrored into the recorder's ring for fault-triggered dumps.
    pub fn with_flight(mut self, flight: FlightRecorder) -> Telemetry {
        self.flight = Some(flight);
        self
    }

    /// The flight recorder, if one is attached.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Emit an event to the journal (a no-op without one), mirroring it
    /// into the flight recorder's ring when one is attached.
    pub fn emit(&self, event: Event) {
        if let Some(flight) = &self.flight {
            flight.record(event.to_json());
        }
        if let Some(journal) = &self.journal {
            journal.emit(event);
        }
    }

    /// Dump the flight recorder's ring (see [`FlightRecorder::dump`])
    /// and journal a `flight_dump` event pointing at the file. Returns
    /// the dump path, or `None` when no recorder is attached or the
    /// write failed (telemetry never takes down the pipeline).
    pub fn dump_flight(&self, reason: &str) -> Option<std::path::PathBuf> {
        let flight = self.flight.as_ref()?;
        let path = flight.dump(reason).ok()?;
        self.emit(
            Event::new("flight_dump")
                .field("reason", reason)
                .field("path", path.display().to_string()),
        );
        Some(path)
    }

    /// Open a span at `path`, mirrored into the flight recorder when
    /// one is attached.
    pub fn span(&self, path: &str) -> Span {
        let span = self.spans.span(path);
        match &self.flight {
            Some(flight) => span.with_flight(flight.clone()),
            None => span,
        }
    }

    /// Everything measured so far, as one JSON document with `metrics`
    /// and `spans` sections.
    pub fn report_json(&self) -> Json {
        Json::obj(vec![
            ("metrics", metrics_to_json(&self.metrics.snapshot())),
            ("spans", spans_to_json(&self.spans.snapshot())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_all_three_instruments() {
        let (journal, buffer) = RunJournal::in_memory();
        let telemetry = Telemetry::with_journal(journal);
        telemetry.metrics().counter("nlp_calls").add(2);
        {
            let _s = telemetry.span("run/fit");
        }
        telemetry.emit(Event::new("phase").field("name", "map"));

        let report = telemetry.report_json();
        assert_eq!(
            report
                .get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("nlp_calls")
                .unwrap()
                .as_i64(),
            Some(2)
        );
        assert_eq!(report.get("spans").unwrap().items().len(), 1);
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("phase"));
    }

    #[test]
    fn emit_without_journal_is_a_no_op() {
        let telemetry = Telemetry::new();
        telemetry.emit(Event::new("phase"));
        assert!(telemetry.journal().is_none());
    }

    #[test]
    fn clones_share_state() {
        let telemetry = Telemetry::new();
        let clone = telemetry.clone();
        clone.metrics().counter("x").inc();
        assert_eq!(telemetry.metrics().snapshot().counter("x"), 1);
    }

    #[test]
    fn flight_recorder_mirrors_events_and_spans() {
        let dir = std::env::temp_dir().join(format!("obs-telemetry-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, buffer) = RunJournal::in_memory();
        let recorder = FlightRecorder::with_capacity(&dir, 16);
        let telemetry = Telemetry::with_journal(journal).with_flight(recorder.clone());
        {
            let _s = telemetry.span("run");
        }
        telemetry.emit(Event::new("phase").field("name", "map"));
        telemetry.emit(Event::new("slo_breach").field("window", "fast"));
        assert_eq!(recorder.len(), 3);
        let path = telemetry.dump_flight("slo_breach").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| parse_json(l).unwrap()).collect();
        // Header, span sample, then the two events — trigger last.
        assert_eq!(lines[1].get("kind").unwrap().as_str(), Some("span_sample"));
        assert_eq!(lines[1].get("path").unwrap().as_str(), Some("run"));
        assert_eq!(
            lines.last().unwrap().get("kind").unwrap().as_str(),
            Some("slo_breach")
        );
        // The dump journaled a flight_dump event pointing at the file.
        let journal_lines = buffer.parsed_lines().unwrap();
        let dump = journal_lines
            .iter()
            .find(|l| l.get("kind").unwrap().as_str() == Some("flight_dump"))
            .unwrap();
        assert_eq!(dump.get("reason").unwrap().as_str(), Some("slo_breach"));
        assert_eq!(
            dump.get("path").unwrap().as_str(),
            Some(path.display().to_string().as_str())
        );
        // And the flight_dump event itself seeds the next ring.
        assert_eq!(recorder.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_flight_without_recorder_is_a_no_op() {
        let telemetry = Telemetry::new();
        assert!(telemetry.flight().is_none());
        assert!(telemetry.dump_flight("anything").is_none());
    }
}
