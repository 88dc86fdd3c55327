//! Property: the sharded telemetry path reproduces the sequential one.
//!
//! Random op sequences are applied two ways: once through a single
//! [`LocalShard`] in order (the sequential reference), and once
//! chunked contiguously across N shards that real threads fill and
//! flush straight into the shared registry in whatever order the
//! scheduler produces. Counter and histogram merges are commutative, so
//! their report must be byte-identical to the sequential one — the
//! determinism contract the bench binaries' instrumentation relies on
//! at any `--workers` count. A gauge keeps the last flushed write, so it
//! is checked on the sequential run only.

use drybell_obs::{
    metrics_to_json, CounterSlot, GaugeSlot, HistogramSlot, LocalShard, ShardLayout, Telemetry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One buffered telemetry action.
#[derive(Debug, Clone)]
enum Op {
    /// Add to one of two counters.
    Tally(usize, u64),
    /// Set the gauge.
    Level(i64),
    /// Record a histogram sample.
    Observe(u64),
}

fn random_op(rng: &mut StdRng) -> Op {
    let v = rng.gen_range(0..10_000u64);
    match rng.gen_range(0..3) {
        0 => Op::Tally(v as usize % 2, v % 99 + 1),
        1 => Op::Level((v % 100) as i64 - 50),
        _ => Op::Observe(v),
    }
}

/// A telemetry bundle and a shard layout over two counters, a gauge,
/// and a histogram (registered names, so the fixture mirrors production
/// call sites).
struct Rig {
    telemetry: Telemetry,
    layout: Arc<ShardLayout>,
    counters: [CounterSlot; 2],
    gauge: GaugeSlot,
    hist: HistogramSlot,
}

fn rig() -> Rig {
    let telemetry = Telemetry::new();
    let mut layout = ShardLayout::new();
    let c0 = layout.slot_counter(telemetry.metrics().counter("nlp_calls"));
    let c1 = layout.slot_counter(telemetry.metrics().counter("trace/spans"));
    let gauge = layout.slot_gauge(telemetry.metrics().gauge("nlp_cache/size"));
    let hist = layout.slot_histogram(telemetry.metrics().histogram("obs/nlp/annotate_us"));
    Rig {
        telemetry,
        layout: Arc::new(layout),
        counters: [c0, c1],
        gauge,
        hist,
    }
}

fn apply(shard: &mut LocalShard, rig: &Rig, op: &Op) {
    match *op {
        Op::Tally(i, n) => shard.tally(rig.counters[i], n),
        Op::Level(v) => shard.level(rig.gauge, v),
        Op::Observe(v) => shard.observe(rig.hist, v),
    }
}

/// The rig's counters and histograms as a report, gauges left out.
fn commutative_report(rig: &Rig) -> String {
    let mut snapshot = rig.telemetry.metrics().snapshot();
    snapshot.gauges.clear();
    metrics_to_json(&snapshot).to_pretty()
}

#[test]
fn sharded_flushes_match_sequential() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..64 {
        let ops: Vec<Op> = (0..rng.gen_range(0..60))
            .map(|_| random_op(&mut rng))
            .collect();
        let shards = rng.gen_range(1..5);
        // Sequential reference: one shard, ops in order.
        let seq = rig();
        let mut shard = seq.layout.shard();
        for op in &ops {
            apply(&mut shard, &seq, op);
        }
        shard.flush_into();
        let last_level = ops.iter().rev().find_map(|op| match op {
            Op::Level(v) => Some(*v),
            _ => None,
        });
        let gauge = seq.telemetry.metrics().snapshot().gauge("nlp_cache/size");
        assert_eq!(gauge, last_level.unwrap_or(0), "{ops:?}");

        // Sharded: contiguous chunks, filled and flushed from real
        // threads in scheduler order.
        let par = rig();
        let per = ops.len().div_ceil(shards).max(1);
        std::thread::scope(|scope| {
            for chunk in ops.chunks(per) {
                let par = &par;
                scope.spawn(move || {
                    let mut s = par.layout.shard();
                    for op in chunk {
                        apply(&mut s, par, op);
                    }
                    s.flush_into();
                });
            }
        });

        assert_eq!(
            commutative_report(&par),
            commutative_report(&seq),
            "{ops:?}"
        );
    }
}
