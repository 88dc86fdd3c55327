//! Thread-local telemetry shards: buffer observations locally, merge at
//! deterministic boundaries.
//!
//! The per-observation cost of the global instruments ([`Counter`],
//! [`Histogram`]) is a handful of relaxed atomics — cheap, but still a
//! shared-cache-line write on every row of a hot loop. A [`LocalShard`]
//! removes even that: a worker thread records counter bumps, gauge
//! writes, histogram samples, span intervals, and journal events into
//! plain (non-atomic, unlocked) thread-local storage, then
//! [`LocalShard::flush_into`] folds the whole batch into the shared
//! registry in O(instruments) — not O(observations) — synchronized
//! operations.
//!
//! Flush points are the deterministic boundaries of the computation
//! (a shard commit, an epoch end, a span close), mirroring the
//! fixed-order reduction discipline of the parallel trainer: counter
//! and histogram merges are commutative, so the folded registry is
//! byte-identical to a single-threaded run at any thread count and any
//! flush interleaving. Journal events are *not* commutative (each line
//! carries a sequence number), so flushes write them with
//! [`RunJournal::emit_batch`] — one lock, consecutive sequence numbers
//! — and code that needs a reproducible journal collects its shards in
//! a [`ShardGroup`] and folds them in task-ordinal order.
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
//! [`RunJournal::emit_batch`]: crate::journal::RunJournal::emit_batch

use crate::journal::Event;
use crate::metrics::{Counter, Gauge, Histogram, LocalHistogram};
use crate::span::SpanStat;
use crate::Telemetry;
use std::sync::{Arc, Mutex, PoisonError};
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
            spans: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// One thread's unsynchronized telemetry buffer.
///
/// Every recording method is a plain memory write — no atomics, no
/// locks — so it is safe to call per row of a hot loop. Nothing is
/// visible to the rest of the process until [`flush_into`] folds the
/// buffer into a [`Telemetry`] bundle.
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
    spans: Vec<(String, SpanStat)>,
    events: Vec<Event>,
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

    /// Fold one measured span interval into the local aggregate for
    /// `path`. Distinct paths per shard are expected to be few, so
    /// lookup is a linear scan (no hashing on the hot path).
    pub fn span_sample(&mut self, path: &str, elapsed_us: u64) {
        if let Some((_, stat)) = self.spans.iter_mut().find(|(p, _)| p == path) {
            stat.count += 1;
            stat.total_us += elapsed_us;
            stat.max_us = stat.max_us.max(elapsed_us);
        } else {
            self.spans.push((
                path.to_string(),
                SpanStat {
                    count: 1,
                    total_us: elapsed_us,
                    max_us: elapsed_us,
                },
            ));
        }
    }

    /// Buffer a journal event. Events are written (in buffer order,
    /// with consecutive sequence numbers) by the next flush.
    pub fn push_event(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Whether nothing has been recorded since the last flush.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(Option::is_none)
            && self.histograms.iter().all(LocalHistogram::is_empty)
            && self.spans.is_empty()
            && self.events.is_empty()
    }

    /// Drain another shard of the same layout into this one (used by
    /// [`ShardGroup::commit`] when a task ordinal is re-attempted).
    pub fn absorb(&mut self, other: &mut LocalShard) {
        for (i, v) in other.counters.iter_mut().enumerate() {
            if let Some(dst) = self.counters.get_mut(i) {
                *dst += std::mem::take(v);
            }
        }
        for (i, v) in other.gauges.iter_mut().enumerate() {
            if let Some(new) = v.take() {
                if let Some(dst) = self.gauges.get_mut(i) {
                    *dst = Some(new);
                }
            }
        }
        for (i, h) in other.histograms.iter_mut().enumerate() {
            if let Some(dst) = self.histograms.get_mut(i) {
                dst.absorb(h);
            }
        }
        for (path, stat) in other.spans.drain(..) {
            if let Some((_, dst)) = self.spans.iter_mut().find(|(p, _)| p == &path) {
                dst.count += stat.count;
                dst.total_us += stat.total_us;
                dst.max_us = dst.max_us.max(stat.max_us);
            } else {
                self.spans.push((path, stat));
            }
        }
        self.events.append(&mut other.events);
    }

    /// Fold everything buffered into `telemetry` and clear the buffer
    /// (the shard is reusable afterwards).
    ///
    /// Counters and histograms merge commutatively into the shared
    /// atomics; span aggregates fold via [`SpanSet::merge`]; buffered
    /// events write through [`RunJournal::emit_batch`] under a single
    /// journal lock (dropped when no journal is attached, matching
    /// [`Telemetry::emit`]).
    ///
    /// [`SpanSet::merge`]: crate::span::SpanSet::merge
    /// [`RunJournal::emit_batch`]: crate::journal::RunJournal::emit_batch
    pub fn flush_into(&mut self, telemetry: &Telemetry) {
        for (i, v) in self.counters.iter_mut().enumerate() {
            let n = std::mem::take(v);
            if n > 0 {
                if let Some(c) = self.layout.counters.get(i) {
                    c.add(n);
                }
            }
        }
        for (i, v) in self.gauges.iter_mut().enumerate() {
            if let Some(new) = v.take() {
                if let Some(g) = self.layout.gauges.get(i) {
                    g.set(new);
                }
            }
        }
        for (i, h) in self.histograms.iter_mut().enumerate() {
            if !h.is_empty() {
                if let Some(shared) = self.layout.histograms.get(i) {
                    h.drain_into(shared);
                }
            }
        }
        for (path, stat) in self.spans.drain(..) {
            telemetry.spans().merge(&path, stat);
        }
        if !self.events.is_empty() {
            let events = std::mem::take(&mut self.events);
            if let Some(journal) = telemetry.journal() {
                journal.emit_batch(events);
            }
        }
    }
}

/// A set of [`LocalShard`]s keyed by task ordinal, folded in ordinal
/// order.
///
/// Counter/gauge/histogram/span merges are commutative, so a plain
/// per-thread flush already reproduces the single-threaded registry.
/// Journal events are ordered, so a reproducible journal requires the
/// PR-4 discipline: each deterministic unit of work (chunk, shard,
/// epoch) commits its shard under its ordinal, and [`fold_into`] then
/// flushes shards in ascending ordinal order — the event stream any
/// single-threaded execution of the same chunks would have written.
///
/// [`fold_into`]: ShardGroup::fold_into
#[derive(Debug)]
pub struct ShardGroup {
    layout: Arc<ShardLayout>,
    slots: Mutex<Vec<Option<LocalShard>>>,
}

impl ShardGroup {
    /// A group over `layout`.
    pub fn new(layout: Arc<ShardLayout>) -> ShardGroup {
        ShardGroup {
            layout,
            slots: Mutex::new(Vec::new()),
        }
    }

    /// A fresh shard for one unit of work.
    pub fn shard(&self) -> LocalShard {
        self.layout.shard()
    }

    /// Commit a finished unit's shard under its deterministic ordinal.
    /// Re-commits at the same ordinal merge (a retried task adds to its
    /// earlier attempt's observations, as the sequential run would).
    pub fn commit(&self, ordinal: usize, mut shard: LocalShard) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() <= ordinal {
            slots.resize_with(ordinal + 1, || None);
        }
        match slots.get_mut(ordinal) {
            Some(Some(existing)) => existing.absorb(&mut shard),
            Some(slot) => *slot = Some(shard),
            None => {}
        }
    }

    /// Flush every committed shard into `telemetry`, in ordinal order,
    /// and clear the group.
    pub fn fold_into(&self, telemetry: &Telemetry) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        for slot in slots.iter_mut() {
            if let Some(shard) = slot.as_mut() {
                shard.flush_into(telemetry);
            }
        }
        slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RunJournal;

    fn layout_for(t: &Telemetry) -> (Arc<ShardLayout>, CounterSlot, GaugeSlot, HistogramSlot) {
        let mut layout = ShardLayout::new();
        let c = layout.slot_counter(t.metrics().counter("nlp_calls"));
        let g = layout.slot_gauge(t.metrics().gauge("obs/train/threads"));
        let h = layout.slot_histogram(t.metrics().histogram("obs/train/step_us"));
        (Arc::new(layout), c, g, h)
    }

    #[test]
    fn flush_folds_all_instrument_kinds() {
        let (journal, buffer) = RunJournal::in_memory();
        let t = Telemetry::with_journal(journal);
        let (layout, c, g, h) = layout_for(&t);
        let mut shard = layout.shard();
        shard.tally(c, 2);
        shard.bump(c);
        shard.level(g, 4);
        shard.observe(h, 100);
        shard.observe_duration(h, std::time::Duration::from_micros(50));
        shard.span_sample("train/fit", 10);
        shard.span_sample("train/fit", 30);
        shard.push_event(Event::new("train_epoch").field("epoch", 0u64));
        assert!(!shard.is_empty());
        shard.flush_into(&t);
        assert!(shard.is_empty());

        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter("nlp_calls"), 3);
        assert_eq!(snap.gauge("obs/train/threads"), 4);
        assert_eq!(snap.histogram("obs/train/step_us").unwrap().count(), 2);
        let span = t.spans().snapshot().get("train/fit").unwrap();
        assert_eq!(span.count, 2);
        assert_eq!(span.total_us, 40);
        assert_eq!(span.max_us, 30);
        let lines = buffer.parsed_lines().unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("train_epoch"));
    }

    #[test]
    fn layout_preregisters_instruments() {
        let t = Telemetry::new();
        let _ = layout_for(&t);
        // No observations, yet the instruments exist with zero values —
        // reports look the same as with direct instrumentation.
        let snap = t.metrics().snapshot();
        assert_eq!(snap.counter("nlp_calls"), 0);
        assert!(snap.histogram("obs/train/step_us").is_some());
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let (journal, buffer) = RunJournal::in_memory();
        let t = Telemetry::with_journal(journal);
        let (layout, ..) = layout_for(&t);
        let mut shard = layout.shard();
        assert!(shard.is_empty());
        shard.flush_into(&t);
        assert!(buffer.contents().is_empty());
    }

    #[test]
    fn events_without_a_journal_are_dropped() {
        let t = Telemetry::new();
        let (layout, ..) = layout_for(&t);
        let mut shard = layout.shard();
        shard.push_event(Event::new("train_epoch"));
        shard.flush_into(&t);
        assert!(shard.is_empty());
    }

    #[test]
    fn group_folds_in_ordinal_order_regardless_of_commit_order() {
        let (journal, buffer) = RunJournal::in_memory();
        let t = Telemetry::with_journal(journal);
        let (layout, c, ..) = layout_for(&t);
        let group = ShardGroup::new(layout);
        // Commit out of order: ordinal 2 first, then 0, then 1.
        for ordinal in [2usize, 0, 1] {
            let mut shard = group.shard();
            shard.tally(c, ordinal as u64 + 1);
            shard.push_event(Event::new("shard_attempt").field("task", ordinal as u64));
            group.commit(ordinal, shard);
        }
        group.fold_into(&t);
        assert_eq!(t.metrics().snapshot().counter("nlp_calls"), 6);
        let tasks: Vec<i64> = buffer
            .parsed_lines()
            .unwrap()
            .iter()
            .map(|l| l.get("task").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(tasks, vec![0, 1, 2]);
    }

    #[test]
    fn recommits_at_one_ordinal_merge() {
        let t = Telemetry::new();
        let (layout, c, _, h) = layout_for(&t);
        let group = ShardGroup::new(layout);
        let mut first = group.shard();
        first.tally(c, 1);
        first.observe(h, 10);
        first.span_sample("train/fit", 5);
        group.commit(0, first);
        let mut retry = group.shard();
        retry.tally(c, 2);
        retry.observe(h, 20);
        retry.span_sample("train/fit", 7);
        group.commit(0, retry);
        group.fold_into(&t);
        assert_eq!(t.metrics().snapshot().counter("nlp_calls"), 3);
        let snap = t.metrics().snapshot();
        assert_eq!(snap.histogram("obs/train/step_us").unwrap().count(), 2);
        assert_eq!(t.spans().snapshot().get("train/fit").unwrap().count, 2);
    }
}
