//! Exhaustive-interleaving model checking for DryBell's small
//! concurrent cores.
//!
//! The concurrency in this workspace is deliberately coarse: shared
//! state sits behind a mutex, and every lock-protected region is short.
//! What can still go wrong is the *composition* of critical sections —
//! `drybell_nlp`'s cached NLP server takes its lock twice per
//! annotate call (lookup, then insert/evict), and the dataflow
//! counters batch locally before merging. Those protocols have
//! interleaving-dependent behavior that unit tests exercise only on
//! the schedules the OS happens to produce.
//!
//! This crate checks such protocols the loom way, without the
//! dependency: model each thread as a sequence of *atomic steps*
//! (one step = one critical section, or one thread-local action) over
//! a cloneable model state, then run **every** interleaving of those
//! steps, checking invariants after each step and acceptance at the
//! end. For the handful of steps our protocols have, the schedule
//! space is tiny (tens to thousands of interleavings) and the check is
//! exact: a reported violation comes with the exact schedule that
//! produced it, and a pass is a proof over all schedules — not a
//! lucky run.
//!
//! The models live in this crate's tests, so `cargo test` (tier 1)
//! proves the protocols on every commit; the `ThreadSanitizer` CI job
//! covers the complementary question (data races in the real
//! implementations) that a model cannot.

// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

/// One atomic step of a model thread: a mutation of the shared model
/// state that the schedule cannot interrupt.
pub type Step<S> = Box<dyn Fn(&mut S)>;

/// One model thread: a name for diagnostics plus an ordered list of
/// atomic steps. Each step mutates the shared model state; atomicity
/// is the modeling assumption that the corresponding real-code region
/// holds a lock (or touches only thread-local data).
pub struct ModelThread<S> {
    /// Thread name used in violation schedules.
    pub name: &'static str,
    /// The steps, executed in order within the thread.
    pub steps: Vec<Step<S>>,
}

impl<S> ModelThread<S> {
    /// Build a thread from a name and step list.
    pub fn new(name: &'static str, steps: Vec<Step<S>>) -> ModelThread<S> {
        ModelThread { name, steps }
    }
}

/// A property violation, with the exact schedule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Thread names in the order their steps ran, up to the failure.
    pub schedule: Vec<&'static str>,
    /// What failed.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} under schedule [{}]",
            self.message,
            self.schedule.join(", ")
        )
    }
}

/// Exploration statistics from a passing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete interleavings executed.
    pub interleavings: u64,
    /// Total steps executed across all interleavings.
    pub steps: u64,
}

/// Run every interleaving of `threads` from `initial`.
///
/// `invariant` runs after **every** step; `accept` runs once per
/// complete interleaving on the final state. Both return a description
/// of what broke, or `None`. The first violation aborts the search and
/// is returned with its schedule.
pub fn explore<S: Clone>(
    initial: &S,
    threads: &[ModelThread<S>],
    invariant: &dyn Fn(&S) -> Option<String>,
    accept: &dyn Fn(&S) -> Option<String>,
) -> Result<ExploreStats, Violation> {
    let mut stats = ExploreStats::default();
    let mut pcs = vec![0usize; threads.len()];
    let mut schedule: Vec<&'static str> = Vec::new();
    dfs(
        initial,
        threads,
        invariant,
        accept,
        &mut pcs,
        &mut schedule,
        &mut stats,
    )?;
    Ok(stats)
}

fn dfs<S: Clone>(
    state: &S,
    threads: &[ModelThread<S>],
    invariant: &dyn Fn(&S) -> Option<String>,
    accept: &dyn Fn(&S) -> Option<String>,
    pcs: &mut Vec<usize>,
    schedule: &mut Vec<&'static str>,
    stats: &mut ExploreStats,
) -> Result<(), Violation> {
    let mut any_runnable = false;
    for (t, thread) in threads.iter().enumerate() {
        let pc = pcs.get(t).copied().unwrap_or(usize::MAX);
        let Some(step) = thread.steps.get(pc) else {
            continue;
        };
        any_runnable = true;
        let mut next = state.clone();
        step(&mut next);
        stats.steps += 1;
        schedule.push(thread.name);
        if let Some(msg) = invariant(&next) {
            return Err(Violation {
                schedule: schedule.clone(),
                message: msg,
            });
        }
        if let Some(pc) = pcs.get_mut(t) {
            *pc += 1;
        }
        let result = dfs(&next, threads, invariant, accept, pcs, schedule, stats);
        if let Some(pc) = pcs.get_mut(t) {
            *pc -= 1;
        }
        schedule.pop();
        result?;
    }
    if !any_runnable {
        stats.interleavings += 1;
        if let Some(msg) = accept(state) {
            return Err(Violation {
                schedule: schedule.clone(),
                message: format!("final state rejected: {msg}"),
            });
        }
    }
    Ok(())
}

/// Convenience: no per-step invariant.
pub fn explore_final<S: Clone>(
    initial: &S,
    threads: &[ModelThread<S>],
    accept: &dyn Fn(&S) -> Option<String>,
) -> Result<ExploreStats, Violation> {
    explore(initial, threads, &|_| None, accept)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads twice incrementing a counter atomically: all 6
    /// interleavings end at 4.
    #[test]
    fn atomic_increments_always_sum() {
        let threads: Vec<ModelThread<u64>> = vec![
            ModelThread::new("a", vec![Box::new(|s| *s += 1), Box::new(|s| *s += 1)]),
            ModelThread::new("b", vec![Box::new(|s| *s += 1), Box::new(|s| *s += 1)]),
        ];
        let stats = explore_final(&0u64, &threads, &|s| {
            (*s != 4).then(|| format!("expected 4, got {s}"))
        })
        .expect("no violation");
        assert_eq!(stats.interleavings, 6); // C(4,2)
    }

    /// The classic lost update: read and write split into two steps
    /// (i.e. no lock held across them). The explorer must find it.
    #[test]
    fn split_read_modify_write_loses_updates() {
        #[derive(Clone, Default)]
        struct S {
            shared: u64,
            reg_a: u64,
            reg_b: u64,
        }
        let threads: Vec<ModelThread<S>> = vec![
            ModelThread::new(
                "a",
                vec![
                    Box::new(|s: &mut S| s.reg_a = s.shared),
                    Box::new(|s: &mut S| s.shared = s.reg_a + 1),
                ],
            ),
            ModelThread::new(
                "b",
                vec![
                    Box::new(|s: &mut S| s.reg_b = s.shared),
                    Box::new(|s: &mut S| s.shared = s.reg_b + 1),
                ],
            ),
        ];
        let violation = explore_final(&S::default(), &threads, &|s| {
            (s.shared != 2).then(|| format!("lost update: {}", s.shared))
        })
        .expect_err("the race must be found");
        assert!(violation.message.contains("lost update"));
        // The losing schedule interleaves the two read steps.
        assert_eq!(violation.schedule.first().copied(), Some("a"));
    }

    /// Schedules are reported in execution order and the search is
    /// exhaustive: 3 threads with one step each → 3! interleavings.
    #[test]
    fn counts_all_interleavings() {
        let threads: Vec<ModelThread<u64>> = vec![
            ModelThread::new("x", vec![Box::new(|s| *s += 1)]),
            ModelThread::new("y", vec![Box::new(|s| *s += 1)]),
            ModelThread::new("z", vec![Box::new(|s| *s += 1)]),
        ];
        let stats = explore_final(&0u64, &threads, &|_| None).expect("no violation");
        assert_eq!(stats.interleavings, 6);
        assert_eq!(stats.steps, 6 + 6 + 3); // nodes of the schedule tree at depths 1..=3
    }

    /// Per-step invariants catch transient states that final-state
    /// acceptance would miss.
    #[test]
    fn per_step_invariant_sees_transients() {
        // One thread dips the value negative then restores it.
        let threads: Vec<ModelThread<i64>> = vec![ModelThread::new(
            "dipper",
            vec![Box::new(|s| *s -= 1), Box::new(|s| *s += 2)],
        )];
        assert!(explore_final(&0i64, &threads, &|s| {
            (*s != 1).then(|| format!("bad final {s}"))
        })
        .is_ok());
        let violation = explore(
            &0i64,
            &threads,
            &|s| (*s < 0).then(|| format!("negative transient {s}")),
            &|_| None,
        )
        .expect_err("transient must be caught");
        assert_eq!(violation.schedule, ["dipper"]);
    }
}
