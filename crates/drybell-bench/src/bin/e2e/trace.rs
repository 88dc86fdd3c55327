//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer crate — nothing inside the crates is instrumented. A span is named
//! `<layer>.<call>`; the part before the dot is the layer its time is
//! booked to. Spans stay in memory until the run ends and are then written
//! as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! A disabled tracer (the untraced run) records nothing: [`Tracer::timed`]
//! then only runs its closure.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Microseconds from the tracer's origin.
    pub start_us: f64,
    /// Microseconds from the tracer's origin.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repetition (or phase) the span belongs to; spans of one repetition
    /// share it.
    pub rep: u32,
}

impl Span {
    /// The layer the span's time is booked to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the main thread, innermost last.
    stack: Vec<SpanId>,
    rep: u32,
}

/// Records spans when enabled; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Whether this is the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a panic while holding the span list already failed the run")
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Set the repetition id stamped on spans opened from now on.
    pub fn set_rep(&self, rep: u32) {
        if self.enabled {
            self.state().rep = rep;
        }
    }

    /// Run `work` inside a span named `name`, nested under whichever span
    /// is open. Call it from the main thread only: nesting is a stack, and
    /// what other threads do is timed by the span that spawned them.
    pub fn timed<T>(&self, name: &'static str, work: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return work();
        }
        let id = {
            let mut state = self.state();
            let id = state.spans.len();
            let span = Span {
                name,
                start_us: self.micros(Instant::now()),
                end_us: f64::NAN,
                parent: state.stack.last().copied(),
                rep: state.rep,
            };
            state.spans.push(span);
            state.stack.push(id);
            id
        };
        let out = work();
        let mut state = self.state();
        state.spans[id].end_us = self.micros(Instant::now());
        state.stack.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Microseconds of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let state = self.state();
        let spans = state.spans.iter().filter(|s| s.name == name);
        spans.map(Span::duration_us).collect()
    }

    /// Seconds spent in spans named `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }
}

/// Each span's self time in microseconds: its duration minus its
/// children's. Spans come from one thread, so a span's children lie inside
/// it and beside each other.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.duration_us();
        }
    }
    selfs
}

/// Self time per layer in seconds, layers in name order.
pub fn ledger(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_layer = std::collections::BTreeMap::new();
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        *by_layer.entry(span.layer()).or_insert(0.0) += self_us / 1e6;
    }
    by_layer.into_iter().collect()
}

/// Render `spans` as a Chrome trace-event document.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"rep\":{}}}}}",
            span.name,
            span.layer(),
            span.start_us,
            span.duration_us(),
            id,
            parent,
            span.rep
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.rep", 0.0, 100.0, None),
            span("lf.exec", 10.0, 60.0, Some(0)),
            span("core.fit", 60.0, 90.0, Some(0)),
            span("nlp.annotate", 20.0, 30.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs, vec![20.0, 40.0, 30.0, 10.0]);
        // The ledger books every microsecond of the root exactly once.
        let ledger = ledger(&spans);
        assert_eq!(
            ledger,
            vec![
                ("bench", 20.0 / 1e6),
                ("core", 30.0 / 1e6),
                ("lf", 40.0 / 1e6),
                ("nlp", 10.0 / 1e6)
            ]
        );
        assert_eq!(ledger.iter().map(|(_, s)| s).sum::<f64>(), 100.0 / 1e6);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_reps() {
        let tracer = Tracer::new(true);
        tracer.set_rep(3);
        let got = tracer.timed("bench.rep", || {
            tracer.timed("lf.exec", || 7) + tracer.timed("core.fit", || 1)
        });
        assert_eq!(got, 8);
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            names,
            vec![
                ("bench.rep", None, 3),
                ("lf.exec", Some(0), 3),
                ("core.fit", Some(0), 3)
            ]
        );
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"lf.exec\",\"cat\":\"lf\""));
        assert!(json.contains("\"parent\":0,\"rep\":3"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.timed("lf.exec", || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
