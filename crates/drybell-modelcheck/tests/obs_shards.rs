//! Model checks for the telemetry hot path's two protocols
//! (`drybell-obs`): the journal's sequence-number/write composition
//! and the thread-local shard flush/merge.
//!
//! The journal model exists in two versions. The *two-phase* one
//! mirrors the original implementation — seq allocation and line
//! write were separate critical sections (an atomic counter, then a
//! writer mutex) — and the explorer must **find** the interleaving
//! where a later seq lands in the file first. The *single-section*
//! one mirrors the current implementation (one `Mutex<JournalState>`
//! assigns the seq and appends the line together) and must hold over
//! every schedule. The shard model proves flush/merge loses no updates.

use drybell_modelcheck::{explore, ModelThread};

// ---------------------------------------------------------------------------
// Journal: seq allocation vs line write
// ---------------------------------------------------------------------------

/// Shared journal state: a seq counter, the written lines (in file
/// order), and per-thread scratch for the two-phase variant's
/// "allocated but not yet written" seq.
#[derive(Clone, Default)]
struct JournalModel {
    next_seq: u64,
    lines: Vec<u64>,
    pending: Vec<Option<u64>>,
}

impl JournalModel {
    fn with_threads(n: usize) -> JournalModel {
        JournalModel {
            next_seq: 0,
            lines: Vec::new(),
            pending: vec![None; n],
        }
    }

    /// Two-phase emit, step 1: allocate a seq (the old atomic
    /// `fetch_add`) without writing.
    fn alloc(&mut self, thread: usize) {
        if let Some(slot) = self.pending.get_mut(thread) {
            *slot = Some(self.next_seq);
            self.next_seq += 1;
        }
    }

    /// Two-phase emit, step 2: take the writer lock and append.
    fn write_pending(&mut self, thread: usize) {
        if let Some(seq) = self.pending.get_mut(thread).and_then(Option::take) {
            self.lines.push(seq);
        }
    }

    /// Current protocol: one critical section does both.
    fn emit(&mut self, _thread: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lines.push(seq);
    }

    /// Written seqs must appear in the file in increasing order.
    fn in_order(&self) -> Option<String> {
        self.lines
            .windows(2)
            .find(|w| w[0] > w[1])
            .map(|w| format!("seq {} written after seq {}", w[1], w[0]))
    }
}

#[test]
fn two_phase_emit_reorders_lines() {
    let threads: Vec<ModelThread<JournalModel>> = vec![
        ModelThread::new(
            "a",
            vec![
                Box::new(|s: &mut JournalModel| s.alloc(0)),
                Box::new(|s: &mut JournalModel| s.write_pending(0)),
            ],
        ),
        ModelThread::new(
            "b",
            vec![
                Box::new(|s: &mut JournalModel| s.alloc(1)),
                Box::new(|s: &mut JournalModel| s.write_pending(1)),
            ],
        ),
    ];
    let violation = explore(
        &JournalModel::with_threads(2),
        &threads,
        &|s| s.in_order(),
        &|_| None,
    )
    .expect_err("the two-phase protocol must admit an out-of-order write");
    assert!(violation.message.contains("written after"));
}

#[test]
fn single_critical_section_emit_keeps_seq_order() {
    let threads: Vec<ModelThread<JournalModel>> = vec![
        ModelThread::new(
            "a",
            vec![
                Box::new(|s: &mut JournalModel| s.emit(0)),
                Box::new(|s: &mut JournalModel| s.emit(0)),
            ],
        ),
        ModelThread::new(
            "b",
            vec![
                Box::new(|s: &mut JournalModel| s.emit(1)),
                Box::new(|s: &mut JournalModel| s.emit(1)),
                Box::new(|s: &mut JournalModel| s.emit(1)),
            ],
        ),
        ModelThread::new(
            "c",
            vec![
                Box::new(|s: &mut JournalModel| s.emit(2)),
                Box::new(|s: &mut JournalModel| s.emit(2)),
            ],
        ),
    ];
    let stats = explore(
        &JournalModel::with_threads(3),
        &threads,
        &|s| s.in_order(),
        &|s| {
            if s.lines.len() == 7 {
                None
            } else {
                Some(format!("expected 7 lines, journal has {}", s.lines.len()))
            }
        },
    )
    .expect("single-critical-section emit is order-safe");
    assert!(stats.interleavings > 1);
}

// ---------------------------------------------------------------------------
// Shards: thread-local tallies, flushed at a boundary
// ---------------------------------------------------------------------------

/// Mirror of `LocalShard` and its layout's shared instruments:
/// per-worker counter tallies and histogram sample buffers
/// (thread-local, no lock), flushed as two critical sections — the
/// counter merge (one atomic add per instrument) and the histogram
/// merge (one lock per instrument).
#[derive(Clone, Default)]
struct ShardModel {
    counter: u64,
    samples: Vec<u64>,
    local_counts: Vec<u64>,
    local_samples: Vec<Vec<u64>>,
}

impl ShardModel {
    fn with_workers(n: usize) -> ShardModel {
        ShardModel {
            counter: 0,
            samples: Vec::new(),
            local_counts: vec![0; n],
            local_samples: vec![Vec::new(); n],
        }
    }

    /// Thread-local: `LocalShard::tally` + `LocalShard::observe`.
    fn observe_row(&mut self, worker: usize, sample: u64) {
        if let Some(c) = self.local_counts.get_mut(worker) {
            *c += 1;
        }
        if let Some(s) = self.local_samples.get_mut(worker) {
            s.push(sample);
        }
    }

    /// Critical section 1 of `flush_into`: counter `fetch_add`.
    fn flush_counter(&mut self, worker: usize) {
        if let Some(c) = self.local_counts.get_mut(worker) {
            self.counter += std::mem::take(c);
        }
    }

    /// Critical section 2 of `flush_into`: histogram `merge_local`.
    fn flush_samples(&mut self, worker: usize) {
        if let Some(s) = self.local_samples.get_mut(worker) {
            self.samples.append(&mut std::mem::take(s));
        }
    }

    /// Nothing is ever double-counted, under any schedule.
    fn never_overshoots(&self, max: u64) -> Option<String> {
        (self.counter > max).then(|| format!("counter {} exceeds total work {max}", self.counter))
    }
}

#[test]
fn shard_flush_merge_loses_no_updates() {
    // Two workers, three rows each; worker 0 flushes mid-stream and
    // again at the end (a shard is reusable), worker 1 once at drop.
    let threads: Vec<ModelThread<ShardModel>> = vec![
        ModelThread::new(
            "w0",
            vec![
                Box::new(|s: &mut ShardModel| s.observe_row(0, 10)),
                Box::new(|s: &mut ShardModel| s.flush_counter(0)),
                Box::new(|s: &mut ShardModel| s.flush_samples(0)),
                Box::new(|s: &mut ShardModel| s.observe_row(0, 11)),
                Box::new(|s: &mut ShardModel| s.observe_row(0, 12)),
                Box::new(|s: &mut ShardModel| s.flush_counter(0)),
                Box::new(|s: &mut ShardModel| s.flush_samples(0)),
            ],
        ),
        ModelThread::new(
            "w1",
            vec![
                Box::new(|s: &mut ShardModel| s.observe_row(1, 20)),
                Box::new(|s: &mut ShardModel| s.observe_row(1, 21)),
                Box::new(|s: &mut ShardModel| s.observe_row(1, 22)),
                Box::new(|s: &mut ShardModel| s.flush_counter(1)),
                Box::new(|s: &mut ShardModel| s.flush_samples(1)),
            ],
        ),
    ];
    let stats = explore(
        &ShardModel::with_workers(2),
        &threads,
        &|s| s.never_overshoots(6),
        &|s| {
            if s.counter != 6 {
                return Some(format!("lost updates: counter {} != 6", s.counter));
            }
            let mut sorted = s.samples.clone();
            sorted.sort_unstable();
            if sorted != [10, 11, 12, 20, 21, 22] {
                return Some(format!("histogram content drifted: {sorted:?}"));
            }
            None
        },
    )
    .expect("flush/merge is exact under all interleavings");
    assert!(stats.interleavings > 100);
}
