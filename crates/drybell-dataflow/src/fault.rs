//! Deterministic fault injection for chaos tests.
//!
//! Production MapReduce treats worker failure as routine (§5.4's
//! pipelines "continuously process millions of examples" on exactly such
//! infrastructure), so the engine's retry paths need to be exercised as
//! thoroughly as its happy paths. A [`FaultPlan`] describes *when* the
//! engine should pretend to fail: either explicitly scheduled ("fail map
//! task 3 on attempt 0") or by seeded rate ("10% of map attempts
//! panic"). Every decision is a pure function of the plan's seed and the
//! fault site's coordinates — no RNG stream, no clock — so a chaos run
//! is bit-for-bit reproducible regardless of thread scheduling, and a
//! retried attempt asks the plan again with a higher attempt number
//! rather than re-rolling dice.
//!
//! Rate-based faults fire only on attempt 0: they model *transient*
//! failures (a preempted worker, a flaky RPC), which is what per-shard
//! retry is designed to absorb. Persistent failures are expressed with
//! explicit schedule entries covering several attempts.
//!
//! The same plan carries the NLP-server outage schedule
//! ([`FaultPlan::nlp_should_fail`]) so one seeded object can poison the
//! whole pipeline: the engine consults the task-level faults,
//! `NlpServer::try_annotate` consults the NLP ones, and the LF executor
//! degrades to abstention when the server errors.

use drybell_obs::fnv1a64;

/// What an injected fault does to the attempt it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt returns a `DataflowError::User` ("injected fault").
    Error,
    /// The attempt panics (exercising the catch-and-retry path).
    Panic,
    /// The attempt is delayed by this many milliseconds, then runs
    /// normally (straggler simulation).
    Delay(u64),
}

/// Which engine phase a task-level fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Map tasks: one per input shard of `par_map_shards`.
    Map,
    /// Streaming ingestion: one task per shard *arrival* (keyed by the
    /// order in which the [`crate::stream::StreamIngestor`] first sights
    /// each spool file).
    Stream,
}

impl FaultSite {
    /// Stable lower-case name, used in telemetry and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::Map => "map",
            FaultSite::Stream => "stream",
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultSite::Map => 0x6d61_7000,
            FaultSite::Stream => 0x7374_7200,
        }
    }
}

/// One explicitly scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduledFault {
    site: FaultSite,
    task: usize,
    attempt: u32,
    kind: FaultKind,
}

/// A deterministic, seeded fault-injection schedule.
///
/// Cheap to clone (a handful of scalars plus the explicit schedule);
/// `JobConfig` carries one by value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    map_error_rate: f64,
    map_panic_rate: f64,
    record_error_rate: f64,
    nlp_error_rate: f64,
    schedule: Vec<ScheduledFault>,
    nlp_fail_texts: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Fraction of first map attempts that return an injected error.
    pub fn with_map_error_rate(mut self, rate: f64) -> FaultPlan {
        self.map_error_rate = rate;
        self
    }

    /// Fraction of first map attempts that panic.
    pub fn with_map_panic_rate(mut self, rate: f64) -> FaultPlan {
        self.map_panic_rate = rate;
        self
    }

    /// Fraction of individual input records whose map call fails with an
    /// injected user error (the `skip_bad_record_budget` path). Unlike
    /// attempt-level rates, record faults are a property of the record
    /// and fire on *every* attempt.
    pub fn with_record_error_rate(mut self, rate: f64) -> FaultPlan {
        self.record_error_rate = rate;
        self
    }

    /// Fraction of texts for which `NlpServer::try_annotate` errors. The
    /// decision hashes the text, so a given text fails consistently.
    pub fn with_nlp_error_rate(mut self, rate: f64) -> FaultPlan {
        self.nlp_error_rate = rate;
        self
    }

    /// Schedule an injected error for `task` at `site` on `attempt`.
    pub fn fail_task(mut self, site: FaultSite, task: usize, attempt: u32) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            site,
            task,
            attempt,
            kind: FaultKind::Error,
        });
        self
    }

    /// Schedule an injected panic for `task` at `site` on `attempt`.
    pub fn panic_task(mut self, site: FaultSite, task: usize, attempt: u32) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            site,
            task,
            attempt,
            kind: FaultKind::Panic,
        });
        self
    }

    /// Schedule a delay of `ms` milliseconds for `task` at `site` on
    /// `attempt` (the attempt then runs normally).
    #[cfg(test)]
    pub(crate) fn delay_task(
        mut self,
        site: FaultSite,
        task: usize,
        attempt: u32,
        ms: u64,
    ) -> FaultPlan {
        self.schedule.push(ScheduledFault {
            site,
            task,
            attempt,
            kind: FaultKind::Delay(ms),
        });
        self
    }

    /// Make `NlpServer::try_annotate` error for exactly this text.
    pub fn fail_nlp_text(mut self, text: &str) -> FaultPlan {
        self.nlp_fail_texts.push(fnv1a64(text.as_bytes()));
        self
    }

    /// The fault (if any) to inject for one task attempt. Explicit
    /// schedule entries win; otherwise the seeded rates apply, and only
    /// to attempt 0 (rate faults are transient by construction, so
    /// retries always find a healthy worker).
    pub(crate) fn task_fault(
        &self,
        site: FaultSite,
        task: usize,
        attempt: u32,
    ) -> Option<FaultKind> {
        for s in &self.schedule {
            if s.site == site && s.task == task && s.attempt == attempt {
                return Some(s.kind);
            }
        }
        if attempt != 0 {
            return None;
        }
        let (error_rate, panic_rate) = match site {
            FaultSite::Map => (self.map_error_rate, self.map_panic_rate),
            // Stream-arrival faults are schedule-only: random rates would
            // make the retry count (and thus the deterministic arrival
            // sequence numbering) depend on poll timing.
            FaultSite::Stream => (0.0, 0.0),
        };
        if panic_rate > 0.0 && self.draw(site.tag() ^ 1, task as u64, 0) < panic_rate {
            return Some(FaultKind::Panic);
        }
        if error_rate > 0.0 && self.draw(site.tag() ^ 2, task as u64, 0) < error_rate {
            return Some(FaultKind::Error);
        }
        None
    }

    /// Whether the map call for record `index` of shard `shard` should
    /// fail with an injected user error.
    pub fn record_fault(&self, shard: usize, index: u64) -> bool {
        self.record_error_rate > 0.0
            && self.draw(0x7265_6300, shard as u64, index) < self.record_error_rate
    }

    /// Whether an NLP annotate call for `text` should error.
    pub fn nlp_should_fail(&self, text: &str) -> bool {
        let h = fnv1a64(text.as_bytes());
        if self.nlp_fail_texts.contains(&h) {
            return true;
        }
        self.nlp_error_rate > 0.0 && self.draw(0x6e6c_7000, h, 0) < self.nlp_error_rate
    }

    /// Whether the plan can inject anything at all (lets hot paths skip
    /// the bookkeeping entirely for the common no-chaos case).
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::seeded(self.seed)
    }

    /// A uniform draw in `[0, 1)` from the seed and coordinates — a
    /// stateless splitmix64-style hash, deliberately not an RNG stream,
    /// so decisions are independent of evaluation order.
    fn draw(&self, tag: u64, a: u64, b: u64) -> f64 {
        let h = mix(self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(mix(tag))
            .wrapping_add(mix(a).rotate_left(17))
            .wrapping_add(mix(b).rotate_left(31)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// splitmix64 finalizer: a strong 64-bit avalanche mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::seeded(7);
        assert!(plan.is_empty());
        for task in 0..100 {
            assert_eq!(plan.task_fault(FaultSite::Map, task, 0), None);
            assert_eq!(plan.task_fault(FaultSite::Stream, task, 0), None);
            assert!(!plan.record_fault(task, 0));
        }
        assert!(!plan.nlp_should_fail("anything"));
    }

    #[test]
    fn schedule_beats_rates_and_matches_exactly() {
        let plan = FaultPlan::seeded(1)
            .fail_task(FaultSite::Map, 3, 0)
            .panic_task(FaultSite::Map, 3, 1)
            .delay_task(FaultSite::Stream, 0, 0, 25);
        assert_eq!(
            plan.task_fault(FaultSite::Map, 3, 0),
            Some(FaultKind::Error)
        );
        assert_eq!(
            plan.task_fault(FaultSite::Map, 3, 1),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.task_fault(FaultSite::Map, 3, 2), None);
        assert_eq!(plan.task_fault(FaultSite::Map, 4, 0), None);
        assert_eq!(
            plan.task_fault(FaultSite::Stream, 0, 0),
            Some(FaultKind::Delay(25))
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn rate_faults_are_deterministic_and_first_attempt_only() {
        let plan = FaultPlan::seeded(42).with_map_error_rate(0.5);
        let decisions: Vec<_> = (0..64)
            .map(|t| plan.task_fault(FaultSite::Map, t, 0))
            .collect();
        let again: Vec<_> = (0..64)
            .map(|t| plan.task_fault(FaultSite::Map, t, 0))
            .collect();
        assert_eq!(decisions, again, "same seed, same decisions");
        let fired = decisions.iter().filter(|d| d.is_some()).count();
        assert!(
            (16..=48).contains(&fired),
            "roughly half of 64 tasks should fault, got {fired}"
        );
        // Retries are clean.
        for t in 0..64 {
            assert_eq!(plan.task_fault(FaultSite::Map, t, 1), None);
        }
        // The stream site takes scheduled faults only, never a rate.
        assert!((0..64).all(|t| plan.task_fault(FaultSite::Stream, t, 0).is_none()));
    }

    #[test]
    fn seeds_change_decisions() {
        let a = FaultPlan::seeded(1).with_map_error_rate(0.5);
        let b = FaultPlan::seeded(2).with_map_error_rate(0.5);
        let da: Vec<_> = (0..256)
            .map(|t| a.task_fault(FaultSite::Map, t, 0))
            .collect();
        let db: Vec<_> = (0..256)
            .map(|t| b.task_fault(FaultSite::Map, t, 0))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn nlp_faults_hash_the_text() {
        let plan = FaultPlan::seeded(9)
            .with_nlp_error_rate(0.5)
            .fail_nlp_text("always fails");
        assert!(plan.nlp_should_fail("always fails"));
        let texts: Vec<String> = (0..64).map(|i| format!("text {i}")).collect();
        let fails: Vec<bool> = texts.iter().map(|t| plan.nlp_should_fail(t)).collect();
        let again: Vec<bool> = texts.iter().map(|t| plan.nlp_should_fail(t)).collect();
        assert_eq!(fails, again);
        let n = fails.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&n), "roughly half should fail, got {n}");
    }

    #[test]
    fn record_faults_are_per_record() {
        let plan = FaultPlan::seeded(5).with_record_error_rate(0.25);
        let hits: usize = (0..10)
            .map(|s| (0..100).filter(|&r| plan.record_fault(s, r)).count())
            .sum();
        assert!((150..=350).contains(&hits), "~250 of 1000, got {hits}");
        // Same record, same verdict (fires on every attempt by design).
        assert_eq!(plan.record_fault(3, 17), plan.record_fault(3, 17));
    }
}
