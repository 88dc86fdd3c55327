//! Hierarchical wall-clock spans.
//!
//! A [`Span`] is an RAII timer named by a `/`-separated path; dropping it
//! folds the elapsed time into its [`SpanSet`]. Sibling spans from many
//! threads aggregate into one entry per path (count, total, max), so the
//! same `pipeline/map` span opened by eight workers reports combined busy
//! time. Paths make the hierarchy: rendering indents by depth.
//!
//! Storage is striped: paths hash (FNV-1a) onto a fixed set of
//! independently-locked maps, so concurrent spans at different paths —
//! the common shape, since each worker times its own phase — close
//! without contending on one global lock. Snapshots lock the stripes in
//! order and sort, so the view stays deterministic.

use crate::flight::FlightRecorder;
use crate::hash::fnv1a64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of independently-locked path maps in a [`SpanSet`].
const STRIPES: usize = 8;

/// Aggregated timings for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many spans closed at this path.
    pub count: u64,
    /// Total microseconds across all of them.
    pub total_us: u64,
    /// The longest single span, microseconds.
    pub max_us: u64,
}

/// Thread-safe collection of span aggregates for one run.
#[derive(Debug, Clone)]
pub struct SpanSet {
    stripes: Arc<[Mutex<HashMap<String, SpanStat>>; STRIPES]>,
}

impl Default for SpanSet {
    fn default() -> SpanSet {
        SpanSet {
            stripes: Arc::new(std::array::from_fn(|_| Mutex::new(HashMap::new()))),
        }
    }
}

/// FNV-1a stripe index for a path.
fn stripe_of(path: &str) -> usize {
    (fnv1a64(path.as_bytes()) % STRIPES as u64) as usize
}

impl SpanSet {
    /// Create an empty set.
    pub fn new() -> SpanSet {
        SpanSet::default()
    }

    /// Open a span at `path` (e.g. `"pipeline/map"`). Time is recorded
    /// when the returned guard drops.
    pub fn span(&self, path: &str) -> Span {
        Span {
            set: self.clone(),
            path: path.to_string(),
            start: Instant::now(),
            flight: None,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "stripe_of is h % STRIPES, always in range"
    )]
    fn stripe(&self, path: &str) -> std::sync::MutexGuard<'_, HashMap<String, SpanStat>> {
        self.stripes[stripe_of(path)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold `elapsed_us` into `path` without an RAII guard — for callers
    /// that already measured the interval themselves.
    pub fn record(&self, path: &str, elapsed_us: u64) {
        let mut map = self.stripe(path);
        let entry = map.entry(path.to_string()).or_default();
        entry.count += 1;
        entry.total_us += elapsed_us;
        entry.max_us = entry.max_us.max(elapsed_us);
    }

    /// Snapshot all spans, sorted by path (parents before children).
    pub fn snapshot(&self) -> SpanSnapshot {
        let mut entries: Vec<(String, SpanStat)> = Vec::new();
        for stripe in self.stripes.iter() {
            let map = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            entries.extend(map.iter().map(|(k, v)| (k.clone(), *v)));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        SpanSnapshot { entries }
    }
}

/// RAII guard for one timed region. Records on drop.
#[derive(Debug)]
pub struct Span {
    set: SpanSet,
    path: String,
    start: Instant,
    flight: Option<FlightRecorder>,
}

impl Span {
    /// This span's full path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Attach a flight recorder: on drop the span also mirrors a
    /// `span_sample` line into the recorder's ring, so fault dumps show
    /// what the process was doing. Used by `Telemetry::span` when a
    /// recorder is configured.
    pub fn with_flight(mut self, flight: FlightRecorder) -> Span {
        self.flight = Some(flight);
        self
    }

    /// Elapsed time so far, microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.elapsed_us();
        self.set.record(&self.path, elapsed);
        if let Some(flight) = self.flight.take() {
            flight.span_sample(&self.path, elapsed);
        }
    }
}

/// Sorted, immutable view of a [`SpanSet`].
#[derive(Debug, Clone, Default)]
pub struct SpanSnapshot {
    entries: Vec<(String, SpanStat)>,
}

impl SpanSnapshot {
    /// All `(path, stat)` pairs, sorted by path.
    pub fn entries(&self) -> &[(String, SpanStat)] {
        &self.entries
    }

    /// Stats for one path.
    pub fn get(&self, path: &str) -> Option<SpanStat> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(path))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|(_, stat)| *stat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn spans_aggregate_by_path() {
        let set = SpanSet::new();
        for _ in 0..3 {
            let _s = set.span("job/map");
        }
        let _other = set.span("job/shard_attempt");
        drop(_other);
        let snap = set.snapshot();
        assert_eq!(snap.get("job/map").unwrap().count, 3);
        assert_eq!(snap.get("job/shard_attempt").unwrap().count, 1);
        assert!(snap.get("missing").is_none());
        // Sorted: "job/map" < "job/shard_attempt".
        assert_eq!(snap.entries()[0].0, "job/map");
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let set = SpanSet::new();
        {
            let _s = set.span("sleepy");
            thread::sleep(Duration::from_millis(5));
        }
        let stat = set.snapshot().get("sleepy").unwrap();
        assert!(stat.total_us >= 4_000, "total {}", stat.total_us);
        assert_eq!(stat.max_us, stat.total_us);
    }

    #[test]
    fn concurrent_spans_are_lossless() {
        let set = SpanSet::new();
        thread::scope(|scope| {
            for _ in 0..8 {
                let set = set.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _s = set.span("job/shard_attempt");
                    }
                });
            }
        });
        assert_eq!(set.snapshot().get("job/shard_attempt").unwrap().count, 800);
    }

    #[test]
    fn manual_record_folds_in() {
        let set = SpanSet::new();
        set.record("x", 10);
        set.record("x", 30);
        let stat = set.snapshot().get("x").unwrap();
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_us, 40);
        assert_eq!(stat.max_us, 30);
    }

    #[test]
    fn stripes_cover_many_distinct_paths() {
        // Distinct paths land across stripes; the snapshot still sees
        // all of them, sorted.
        let set = SpanSet::new();
        for i in 0..64 {
            set.record(&format!("p{i:02}"), i);
        }
        let snap = set.snapshot();
        assert_eq!(snap.entries().len(), 64);
        assert!(snap.entries().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(snap.get("p63").unwrap().total_us, 63);
    }
}
