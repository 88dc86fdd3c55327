//! The metrics registry: counters, gauges, and log-bucketed latency
//! histograms.
//!
//! All instruments are lock-free atomics once created, so recording on a
//! hot path costs a few relaxed atomic ops. Creation (name lookup) takes
//! a registry lock — callers on hot paths should look an instrument up
//! once and hold the `Arc`.
//!
//! Histograms bucket by the bit width of the recorded value: value `v`
//! lands in bucket `⌊log2 v⌋ + 1` (zero in bucket 0), so 64 buckets cover
//! the full `u64` range with ≤2× relative error, and percentile estimates
//! are clamped to the exactly-tracked min/max. By convention histogram
//! values are **microseconds** and names end in `_us`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (cache occupancy, queue depth, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` samples (conventionally µs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `⌊log2 v⌋ + 1`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket_of(v) ≤ 64 < HISTOGRAM_BUCKETS; per-sample hot path"
        )]
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in microseconds (saturating on overflow).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Merge a batch of locally-buffered samples in O(buckets) atomic
    /// operations. Merging is commutative, so any interleaving of
    /// flushes from many threads produces the same totals as recording
    /// every sample directly.
    pub fn merge_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "both bucket arrays share HISTOGRAM_BUCKETS length"
                )]
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.min.fetch_min(local.min, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }
}

/// An unsynchronized histogram buffer for one thread's samples.
///
/// Same bucketing as [`Histogram`], but plain integers: recording is a
/// couple of ordinary memory writes, with the whole buffer folded into
/// a shared [`Histogram`] at flush time via [`Histogram::merge_local`]
/// (through [`LocalHistogram::drain_into`]). This is what the
/// thread-local telemetry shards (`crate::shard`) buffer latency
/// samples in.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty buffer.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Buffer one sample (no synchronization).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "bucket_of(v) ≤ 64 < HISTOGRAM_BUCKETS; per-sample hot path"
    )]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Buffer a duration sample (microseconds, saturating).
    #[inline]
    pub fn observe_duration(&mut self, d: Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Samples buffered since the last drain.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold everything buffered into `shared` and reset this buffer.
    pub fn drain_into(&mut self, shared: &Histogram) {
        shared.merge_local(self);
        *self = LocalHistogram::default();
    }
}

impl Histogram {
    /// Copy out an immutable view for percentile queries.
    #[expect(
        clippy::indexing_slicing,
        reason = "from_fn passes i in 0..HISTOGRAM_BUCKETS, the array's own length"
    )]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`] supporting percentile queries.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw log-bucket counts (index `i` holds values whose bit width
    /// is `i`; see the module docs). Exposed so cross-run tooling can
    /// compare whole distributions (e.g. a population-stability index),
    /// not just the percentile ladder.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The non-empty buckets as `(index, count)` pairs — the sparse form
    /// reports and journals serialize.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// The estimate is the upper edge of the bucket holding the ranked
    /// sample, clamped into `[min, max]` — so a single-sample histogram
    /// reports that sample exactly, and the open-ended top bucket can
    /// never report beyond the observed maximum. Returns `None` when
    /// empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample we want.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i - 1]; its upper
                // edge over-estimates by at most 2×.
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return Some(upper.clamp(self.min, self.max));
            }
        }
        // Unreachable when counts are consistent; fall back to max.
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: HashMap<String, Arc<Counter>>,
    gauges: HashMap<String, Arc<Gauge>>,
    histograms: HashMap<String, Arc<Histogram>>,
}

/// A shared, clonable registry of named instruments.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up (or create) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.locked();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Arc::new(Counter::default());
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// Look up (or create) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.locked();
        if let Some(g) = inner.gauges.get(name) {
            return g.clone();
        }
        let g = Arc::new(Gauge::default());
        inner.gauges.insert(name.to_string(), g.clone());
        g
    }

    /// Look up (or create) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.locked();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Arc::new(Histogram::default());
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Snapshot every instrument, each section sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = inner
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of every instrument in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter value by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.counters.get(i))
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge value by name (zero if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.gauges.get(i))
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.histograms.get(i))
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_register_once() {
        let reg = MetricsRegistry::new();
        reg.counter("nlp_calls").add(3);
        reg.counter("nlp_calls").inc();
        reg.gauge("nlp_cache/size").set(7);
        reg.gauge("nlp_cache/size").add(-2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("nlp_calls"), 4);
        assert_eq!(snap.gauge("nlp_cache/size"), 5);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn histogram_empty_has_no_percentiles() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn histogram_single_sample_is_exact() {
        let h = Histogram::default();
        h.record(777);
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(777));
        assert_eq!(s.p99(), Some(777));
        assert_eq!(s.quantile(0.0), Some(777));
        assert_eq!(s.quantile(1.0), Some(777));
        assert_eq!(s.min(), Some(777));
        assert_eq!(s.max(), Some(777));
        assert_eq!(s.mean(), Some(777.0));
    }

    #[test]
    fn histogram_zero_goes_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(0));
        assert_eq!(s.max(), Some(0));
    }

    #[test]
    fn histogram_overflow_bucket_clamps_to_max() {
        let h = Histogram::default();
        // Top bucket is open-ended [2^63, u64::MAX]; estimates must not
        // exceed the observed maximum.
        h.record(u64::MAX - 3);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.p99(), Some(u64::MAX - 3));
        assert_eq!(s.p50(), Some(u64::MAX - 3));
    }

    #[test]
    fn histogram_percentiles_are_order_of_magnitude_right() {
        let h = Histogram::default();
        // 90 fast samples around 100µs, 10 slow around 100_000µs.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        let p50 = s.p50().unwrap();
        assert!((64..=256).contains(&p50), "p50 {p50}");
        let p99 = s.p99().unwrap();
        assert!((65_536..=100_000).contains(&p99), "p99 {p99}");
        assert_eq!(s.count(), 100);
    }

    #[test]
    fn local_histogram_merges_like_direct_recording() {
        let direct = Histogram::default();
        let shared = Histogram::default();
        let mut a = LocalHistogram::new();
        let mut b = LocalHistogram::new();
        for v in [0u64, 1, 100, 777, 100_000] {
            direct.record(v);
            a.observe(v);
        }
        for v in [3u64, 9] {
            direct.record(v);
            b.observe(v);
        }
        assert_eq!(a.count() + b.count(), 7);
        a.drain_into(&shared);
        b.drain_into(&shared);
        assert!(a.is_empty() && b.is_empty());
        let d = direct.snapshot();
        let s = shared.snapshot();
        assert_eq!(d.buckets(), s.buckets());
        assert_eq!(d.sum(), s.sum());
        assert_eq!(d.min(), s.min());
        assert_eq!(d.max(), s.max());
        assert_eq!(d.p50(), s.p50());
        assert_eq!(d.p99(), s.p99());
    }

    #[test]
    fn empty_local_merge_leaves_min_max_untouched() {
        let shared = Histogram::default();
        shared.record(5);
        shared.merge_local(&LocalHistogram::new());
        let s = shared.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(5));
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = Arc::new(Histogram::default());
        thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
