//! Property: the sharded telemetry path reproduces the sequential one
//! byte-for-byte.
//!
//! Random op sequences are applied two ways: once through a single
//! [`LocalShard`] in order (the sequential reference), and once
//! chunked contiguously across N shards that real threads fill and
//! commit to a [`ShardGroup`] in whatever order the scheduler
//! produces. After the ordinal-ordered fold, the metrics report must
//! be byte-identical and the journal line-identical (modulo the wall
//! clock `t` field) — the determinism contract the bench binaries'
//! instrumentation relies on at any `--workers` count.

use drybell_obs::{
    CounterSlot, Event, GaugeSlot, HistogramSlot, JournalBuffer, Json, LocalShard, RunJournal,
    ShardGroup, ShardLayout, Telemetry,
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
    /// Aggregate a span sample.
    SpanSample(u64),
    /// Buffer a journal event.
    PushEvent(u64),
}

fn random_op(rng: &mut StdRng) -> Op {
    let v = rng.gen_range(0..10_000u64);
    match rng.gen_range(0..5) {
        0 => Op::Tally(v as usize % 2, v % 99 + 1),
        1 => Op::Level((v % 100) as i64 - 50),
        2 => Op::Observe(v),
        3 => Op::SpanSample(v % 5_000 + 1),
        _ => Op::PushEvent(v % 1_000),
    }
}

/// A telemetry bundle with an in-memory journal and a shard layout
/// over two counters, a gauge, and a histogram (registered names, so
/// the fixture mirrors production call sites).
struct Rig {
    telemetry: Telemetry,
    buffer: JournalBuffer,
    layout: Arc<ShardLayout>,
    counters: [CounterSlot; 2],
    gauge: GaugeSlot,
    hist: HistogramSlot,
}

fn rig() -> Rig {
    let (journal, buffer) = RunJournal::in_memory();
    let telemetry = Telemetry::with_journal(journal);
    let mut layout = ShardLayout::new();
    let c0 = layout.slot_counter(telemetry.metrics().counter("nlp_calls"));
    let c1 = layout.slot_counter(telemetry.metrics().counter("trace/spans"));
    let gauge = layout.slot_gauge(telemetry.metrics().gauge("nlp_cache/size"));
    let hist = layout.slot_histogram(telemetry.metrics().histogram("obs/nlp/annotate_us"));
    Rig {
        telemetry,
        buffer,
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
        Op::SpanSample(us) => shard.span_sample("lf_exec/in_memory", us),
        Op::PushEvent(v) => shard.push_event(Event::new("lf_execution").field("op", v)),
    }
}

/// A journal line with its wall-clock field removed — the only part
/// of a line that may differ between the two executions.
fn scrub(line: &Json) -> Json {
    match line {
        Json::Obj(pairs) => Json::Obj(pairs.iter().filter(|(k, _)| k != "t").cloned().collect()),
        other => other.clone(),
    }
}

fn journal_lines(rig: &Rig) -> Vec<Json> {
    rig.telemetry
        .journal()
        .expect("rig has a journal")
        .flush()
        .expect("in-memory flush");
    rig.buffer
        .parsed_lines()
        .expect("journal lines parse")
        .iter()
        .map(scrub)
        .collect()
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
        shard.flush_into(&seq.telemetry);
        let want_report = seq.telemetry.report_json().to_pretty();
        let want_journal = journal_lines(&seq);

        // Sharded: contiguous chunks, filled and committed from real
        // threads in scheduler order, folded by ordinal.
        let par = rig();
        let group = ShardGroup::new(par.layout.clone());
        let per = ops.len().div_ceil(shards).max(1);
        std::thread::scope(|scope| {
            for (ordinal, chunk) in ops.chunks(per).enumerate() {
                let group = &group;
                let par = &par;
                scope.spawn(move || {
                    let mut s = group.shard();
                    for op in chunk {
                        apply(&mut s, par, op);
                    }
                    group.commit(ordinal, s);
                });
            }
        });
        group.fold_into(&par.telemetry);

        assert_eq!(par.telemetry.report_json().to_pretty(), want_report);
        assert_eq!(journal_lines(&par), want_journal);
    }
}
