//! Deterministic data parallelism for the label-model hot paths.
//!
//! The trainer's row scans (`grad_batch` accumulation, `predict_proba`,
//! `nll`) are sharded across a pool of scoped worker threads. Two rules
//! make the results **byte-identical at any thread count**, which the
//! determinism suite (`tests/parallel_determinism.rs`) pins down:
//!
//! 1. **Fixed chunking.** Work is split into [`CHUNK_ROWS`]-sized chunks
//!    whose boundaries depend only on the input length — never on the
//!    worker count. Workers pull `(chunk, output slot)` pairs from a
//!    shared queue, so scheduling is dynamic but what each slot ends up
//!    holding is a pure function of its chunk's index.
//! 2. **Fixed-order reduction.** Chunk results are combined with
//!    `tree_reduce`, a pairwise reduction whose association order
//!    depends only on the chunk count. Floating-point addition is not
//!    associative, so a "whoever finishes first" reduction would make
//!    posteriors drift run-to-run; a fixed tree keeps them exact.
//!
//! Inputs shorter than one chunk (the paper's batch-64 training setting,
//! most unit tests) collapse to a single chunk and never spawn a thread,
//! so the small-batch fast path keeps its PR-1 performance profile.

use std::ops::Range;
use std::sync::Mutex;

/// Rows per work chunk. Large enough that a chunk's compute dwarfs the
/// scheduling overhead (one uncontended lock to take it), small
/// enough that a 100k-row matrix yields ~100 chunks for load balancing.
pub const CHUNK_ROWS: usize = 1024;

/// Number of fixed chunks covering `n` items.
pub(crate) fn num_chunks(n: usize) -> usize {
    n.div_ceil(CHUNK_ROWS)
}

/// The half-open item range of chunk `c` over `n` items.
fn chunk_range(c: usize, n: usize) -> Range<usize> {
    let start = c * CHUNK_ROWS;
    start..((start + CHUNK_ROWS).min(n))
}

/// Run `f(item_range, slot)` for every fixed chunk of `0..n` on up to
/// `num_threads` scoped workers, chunk `c` getting the `c`-th item of
/// `slots` to write its result into — a sub-slice of the output, a
/// partial-sum buffer the caller keeps from step to step — so mapping the
/// chunks allocates nothing.
///
/// `f` must be a pure function of its range (plus captured shared state)
/// and write only through its slot; chunk scheduling order is
/// nondeterministic but what each slot holds afterwards is not. `slots`
/// must yield one item per chunk ([`num_chunks`]). With one worker (or one
/// chunk) everything runs inline on the caller's thread.
pub(crate) fn map_chunks<S, F>(
    num_threads: usize,
    n: usize,
    slots: impl Iterator<Item = S> + Send,
    f: F,
) where
    F: Fn(Range<usize>, S) + Sync,
{
    let chunks = num_chunks(n);
    let workers = num_threads.clamp(1, chunks.max(1));
    let slots = (0..chunks).zip(slots);
    if workers == 1 {
        slots.for_each(|(c, slot)| f(chunk_range(c, n), slot));
        return;
    }
    let queue = Mutex::new(slots);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // A poisoned lock only means another worker panicked
                // inside `next`; the panic itself propagates out of the
                // scope. The guard is dropped before the chunk runs.
                let next = match queue.lock() {
                    Ok(mut guard) => guard.next(),
                    Err(poisoned) => poisoned.into_inner().next(),
                };
                match next {
                    Some((c, slot)) => f(chunk_range(c, n), slot),
                    None => break,
                }
            });
        }
    });
}

/// Pairwise tree reduction in a fixed association order, in place:
/// adjacent pairs `(0,1), (2,3), …` are combined into their left member,
/// then the survivors are paired again, until everything is folded into
/// `items[0]`. The order depends only on `items.len()`, so reducing the
/// same chunk results always produces bit-identical output regardless of
/// how many workers computed them.
pub(crate) fn tree_reduce<T>(items: &mut [T], mut combine: impl FnMut(&mut T, &T)) {
    let mut stride = 1;
    while stride < items.len() {
        for group in items.chunks_mut(2 * stride) {
            if let Some((left, rest)) = group.split_first_mut() {
                if let Some(right) = rest.get(stride - 1) {
                    combine(left, right);
                }
            }
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_cover_exactly() {
        for n in [
            0usize,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            5 * CHUNK_ROWS + 7,
        ] {
            let mut covered = 0usize;
            for c in 0..num_chunks(n) {
                let r = chunk_range(c, n);
                assert_eq!(r.start, covered, "n={n} c={c}");
                assert!(r.end > r.start && r.end <= n);
                covered = r.end;
            }
            assert_eq!(covered, n, "chunks must tile 0..{n}");
        }
    }

    #[test]
    fn map_chunks_is_thread_count_invariant() {
        let n = 3 * CHUNK_ROWS + 123;
        let run = |threads| {
            let mut out = vec![(0, 0); num_chunks(n)];
            map_chunks(threads, n, out.iter_mut(), |r, slot| {
                *slot = (r.start, r.end)
            });
            out
        };
        let base = run(1);
        assert_eq!(base[3], (3 * CHUNK_ROWS, n));
        for threads in [2, 3, 8, 64] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_tiny_inputs() {
        map_chunks(4, 0, std::iter::empty::<&mut usize>(), |_, _| {
            unreachable!("no rows, no chunk")
        });
        let mut len = [0];
        map_chunks(8, 1, len.iter_mut(), |r, slot| *slot = r.len());
        assert_eq!(len, [1]);
    }

    #[test]
    fn tree_reduce_order_is_fixed() {
        // Combine into parenthesized strings: the association order must
        // match the documented adjacent-pairs tree exactly.
        let reduced = |n: usize| {
            let mut items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            tree_reduce(&mut items, |a, b| *a = format!("({a}+{b})"));
            items.into_iter().next()
        };
        assert_eq!(reduced(5).as_deref(), Some("(((0+1)+(2+3))+4)"));
        assert_eq!(reduced(6).as_deref(), Some("(((0+1)+(2+3))+(4+5))"));
        assert_eq!(reduced(0), None);
        assert_eq!(reduced(1).as_deref(), Some("0"));
    }

    #[test]
    fn float_sums_are_byte_identical_across_thread_counts() {
        let n = 10 * CHUNK_ROWS + 311;
        let xs: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 7.0)
            .collect();
        let sum_with = |threads| {
            let mut partials = vec![0.0; num_chunks(n)];
            map_chunks(threads, n, partials.iter_mut(), |r, slot| {
                *slot = xs.get(r).map(|s| s.iter().sum::<f64>()).unwrap_or(0.0)
            });
            tree_reduce(&mut partials, |a, b| *a += b);
            partials[0]
        };
        let base = sum_with(1).to_bits();
        for threads in [2, 4, 8] {
            assert_eq!(sum_with(threads).to_bits(), base, "threads={threads}");
        }
    }
}
