//! Thread-local telemetry shards: buffer observations locally, merge at
//! deterministic boundaries.
//!
//! The per-observation cost of the global instruments ([`Counter`],
//! [`Histogram`]) is a handful of relaxed atomics — cheap, but still a
//! shared-cache-line write on every row of a hot loop. A [`LocalShard`]
//! removes even that: a worker thread records counter bumps, gauge
//! writes and histogram samples into plain (non-atomic, unlocked)
//! thread-local storage, then [`LocalShard::flush_into`] folds the
//! whole batch into the shared instruments in O(instruments) — not
//! O(observations) — synchronized operations.
//!
//! Flush points are the boundaries of the computation (a worker
//! retiring, an epoch end, a served batch). Counter and histogram
//! merges are commutative, so the folded registry equals a
//! single-threaded run's at any thread count and any flush
//! interleaving; a gauge keeps the last flushed write, as direct
//! `Gauge::set` calls would.
//!
//! The slot indirection ([`CounterSlot`], [`GaugeSlot`],
//! [`HistogramSlot`]) keeps the hot loop free of name hashing: the
//! instruments are looked up once when the [`ShardLayout`] is built
//! (eagerly registering them, so reports include zero-valued
//! instruments exactly like the unbatched path), and each observation
//! is a bounds-checked vector write.
//!
//! [`Counter`]: crate::metrics::Counter
//! [`Histogram`]: crate::metrics::Histogram

use crate::metrics::{Counter, Gauge, Histogram, LocalHistogram};
use std::sync::Arc;
use std::time::Duration;

/// Index of a counter in a [`ShardLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSlot(usize);

/// Index of a gauge in a [`ShardLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSlot(usize);

/// Index of a histogram in a [`ShardLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSlot(usize);

/// The fixed set of instruments a family of shards records into.
///
/// Built once per instrumented region (holding the `Arc`s resolved from
/// the registry), then shared by every worker's [`LocalShard`]. Because
/// the instruments are resolved at layout-build time, they exist in the
/// registry even if no observation is ever recorded — snapshots look
/// identical to the unbatched instrumentation they replace.
#[derive(Debug, Default)]
pub struct ShardLayout {
    counters: Vec<Arc<Counter>>,
    gauges: Vec<Arc<Gauge>>,
    histograms: Vec<Arc<Histogram>>,
}

impl ShardLayout {
    /// An empty layout.
    pub fn new() -> ShardLayout {
        ShardLayout::default()
    }

    /// Add a counter (resolved via `MetricsRegistry::counter`) and get
    /// its slot.
    pub fn slot_counter(&mut self, counter: Arc<Counter>) -> CounterSlot {
        self.counters.push(counter);
        CounterSlot(self.counters.len() - 1)
    }

    /// Add a gauge and get its slot.
    pub fn slot_gauge(&mut self, gauge: Arc<Gauge>) -> GaugeSlot {
        self.gauges.push(gauge);
        GaugeSlot(self.gauges.len() - 1)
    }

    /// Add a histogram and get its slot.
    pub fn slot_histogram(&mut self, histogram: Arc<Histogram>) -> HistogramSlot {
        self.histograms.push(histogram);
        HistogramSlot(self.histograms.len() - 1)
    }

    /// A fresh, empty shard over this layout.
    pub fn shard(self: &Arc<ShardLayout>) -> LocalShard {
        LocalShard {
            layout: self.clone(),
            counters: vec![0; self.counters.len()],
            gauges: vec![None; self.gauges.len()],
            histograms: vec![LocalHistogram::new(); self.histograms.len()],
        }
    }
}

/// One thread's unsynchronized telemetry buffer.
///
/// Every recording method is a plain memory write — no atomics, no
/// locks — so it is safe to call per row of a hot loop. Nothing is
/// visible to the rest of the process until [`flush_into`] folds the
/// buffer into the layout's shared instruments.
///
/// The method names are deliberately distinct from the shared
/// instruments' (`tally`/`bump`/`observe` instead of `add`/`inc`/
/// `record`), so a per-row call reads differently from a synchronized
/// one.
///
/// [`flush_into`]: LocalShard::flush_into
#[derive(Debug)]
pub struct LocalShard {
    layout: Arc<ShardLayout>,
    counters: Vec<u64>,
    gauges: Vec<Option<i64>>,
    histograms: Vec<LocalHistogram>,
}

impl LocalShard {
    /// Add `n` to the counter at `slot`.
    #[inline]
    pub fn tally(&mut self, slot: CounterSlot, n: u64) {
        if let Some(v) = self.counters.get_mut(slot.0) {
            *v += n;
        }
    }

    /// Add one to the counter at `slot`.
    #[inline]
    pub fn bump(&mut self, slot: CounterSlot) {
        self.tally(slot, 1);
    }

    /// Overwrite the gauge at `slot` (last write across the flush wins
    /// the same way direct `Gauge::set` calls would).
    #[inline]
    pub fn level(&mut self, slot: GaugeSlot, v: i64) {
        if let Some(g) = self.gauges.get_mut(slot.0) {
            *g = Some(v);
        }
    }

    /// Record one histogram sample at `slot`.
    #[inline]
    pub fn observe(&mut self, slot: HistogramSlot, v: u64) {
        if let Some(h) = self.histograms.get_mut(slot.0) {
            h.observe(v);
        }
    }

    /// Record a duration sample (microseconds, saturating) at `slot`.
    #[inline]
    pub fn observe_duration(&mut self, slot: HistogramSlot, d: Duration) {
        self.observe(slot, d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Whether nothing has been recorded since the last flush.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(Option::is_none)
            && self.histograms.iter().all(LocalHistogram::is_empty)
    }

    /// Fold everything buffered into the layout's shared instruments
    /// and clear the buffer (the shard is reusable afterwards).
    pub fn flush_into(&mut self) {
        for (v, c) in self.counters.iter_mut().zip(&self.layout.counters) {
            let n = std::mem::take(v);
            if n > 0 {
                c.add(n);
            }
        }
        for (v, g) in self.gauges.iter_mut().zip(&self.layout.gauges) {
            if let Some(new) = v.take() {
                g.set(new);
            }
        }
        for (h, shared) in self.histograms.iter_mut().zip(&self.layout.histograms) {
            h.drain_into(shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::report::metrics_to_json;

    fn layout_for(
        m: &MetricsRegistry,
    ) -> (Arc<ShardLayout>, CounterSlot, GaugeSlot, HistogramSlot) {
        let mut layout = ShardLayout::new();
        let c = layout.slot_counter(m.counter("nlp_calls"));
        let g = layout.slot_gauge(m.gauge("obs/train/threads"));
        let h = layout.slot_histogram(m.histogram("obs/train/step_us"));
        (Arc::new(layout), c, g, h)
    }

    #[test]
    fn flush_folds_all_instrument_kinds() {
        let m = MetricsRegistry::new();
        let (layout, c, g, h) = layout_for(&m);
        let mut shard = layout.shard();
        shard.tally(c, 2);
        shard.bump(c);
        shard.level(g, 4);
        shard.observe(h, 100);
        shard.observe_duration(h, std::time::Duration::from_micros(50));
        assert!(!shard.is_empty());
        shard.flush_into();
        assert!(shard.is_empty());

        let snap = m.snapshot();
        assert_eq!(snap.counter("nlp_calls"), 3);
        assert_eq!(snap.gauge("obs/train/threads"), 4);
        assert_eq!(snap.histogram("obs/train/step_us").unwrap().count(), 2);
    }

    #[test]
    fn layout_preregisters_instruments() {
        let m = MetricsRegistry::new();
        let _ = layout_for(&m);
        // No observations, yet the instruments exist with zero values —
        // reports look the same as with direct instrumentation.
        let snap = m.snapshot();
        assert_eq!(snap.counter("nlp_calls"), 0);
        assert!(snap.histogram("obs/train/step_us").is_some());
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let m = MetricsRegistry::new();
        let (layout, ..) = layout_for(&m);
        let before = metrics_to_json(&m.snapshot()).to_pretty();
        let mut shard = layout.shard();
        assert!(shard.is_empty());
        shard.flush_into();
        assert_eq!(metrics_to_json(&m.snapshot()).to_pretty(), before);
    }
}
