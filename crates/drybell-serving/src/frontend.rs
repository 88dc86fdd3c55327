//! The high-throughput serving front-end: bounded admission,
//! micro-batched scoring, epoch-pointer hot swap, latency budgets.
//!
//! The paper's discriminative models serve production traffic behind
//! TFX; this module is the request path in front of the [`ServingRegistry`]:
//!
//! ```text
//! submit ──▶ admission (bounded, reject-on-overflow)
//!               │
//!               ▼
//!          worker takes what is queued (up to max_batch, one lock hold)
//!               │  refresh pinned epoch   ◀── promote republishes
//!               ▼
//!          score batch (amortized weights) ── budget exceeded ──▶ default score
//!               │                                                   (degraded)
//!               ▼
//!          write every slot of the batch, then one publish on the wake board
//! ```
//!
//! * **Admission** is the queue itself: one mutex holds the waiting
//!   requests, and a submit that finds the queue full is rejected under
//!   that lock with the typed [`ServingError::QueueFull`] instead of
//!   queueing unbounded work (load shedding).
//! * **Micro-batching** without a timer: a worker takes what is queued,
//!   up to [`FrontendConfig::max_batch`] requests, and scores it at once
//!   through one [`crate::BatchSession`], amortizing FTRL weight
//!   materialization. Requests pile up while a worker scores, so batch
//!   size follows the load and a lone request waits for no stragglers.
//! * **Hot swap**: workers score against a [`crate::PinnedSpec`]
//!   refreshed from the registry's [`crate::EpochCell`] at batch
//!   boundaries — zero locks on the scoring path, one atomic load per
//!   batch in steady state. Every response reports the one publication
//!   epoch it was scored under; the protocol is proven race-free by the
//!   `hot_swap` model in `drybell-modelcheck`.
//! * **Latency budgets**: a request whose
//!   [`FrontendConfig::request_budget`] expired before scoring returns
//!   the declared [`FrontendConfig::default_score`] immediately
//!   (`degraded: true`) instead of burning batch time on an answer the
//!   caller has given up on.
//! * **One wake per batch**: a worker writes every slot of the batch, then
//!   takes the wake-board lock once, waking waiters only if any sleep; the
//!   `wake` model in `drybell-modelcheck` proves no wake-up is lost.

use crate::{batch_session, BatchScratch, EpochCell, ScoreInput, ServingError, ServingRegistry};
use drybell_features::SparseVector;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Maximum requests waiting in the queue; a submission that finds
    /// this many waiting is rejected with [`ServingError::QueueFull`].
    /// The batch a worker has taken to score is not counted: up to
    /// [`FrontendConfig::max_batch`] more per worker are in flight.
    pub queue_depth: usize,
    /// Maximum requests scored in one batch.
    pub max_batch: usize,
    /// Per-request latency budget, measured from admission to scoring;
    /// an expired request degrades to [`FrontendConfig::default_score`].
    pub request_budget: Duration,
    /// The score returned for budget-degraded requests.
    pub default_score: f64,
    /// Batcher worker threads. `0` is valid (admission-only; requests
    /// queue until [`Frontend::shutdown`] answers them with
    /// [`ServingError::Shutdown`]) and is used by admission tests.
    pub workers: usize,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            queue_depth: 1024,
            max_batch: 64,
            request_budget: Duration::from_millis(20),
            default_score: 0.5,
            workers: 2,
        }
    }
}

/// An owned scoring input, movable across the admission queue (the
/// borrowed [`ScoreInput`] cannot outlive the caller's stack frame).
#[derive(Debug, Clone)]
pub enum OwnedInput {
    /// Hashed sparse features (logistic regression).
    Sparse(SparseVector),
    /// Dense feature vector (MLP).
    Dense(Vec<f64>),
}

impl OwnedInput {
    fn as_score_input(&self) -> ScoreInput<'_> {
        match self {
            OwnedInput::Sparse(x) => ScoreInput::Sparse(x),
            OwnedInput::Dense(x) => ScoreInput::Dense(x),
        }
    }
}

/// One scored response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// The model's probability — or [`FrontendConfig::default_score`]
    /// when degraded.
    pub score: f64,
    /// The publication epoch of the model snapshot that produced this
    /// response. Every response comes from exactly one epoch, never a
    /// torn mix.
    pub epoch: u64,
    /// The model version serving at that epoch.
    pub version: u32,
    /// `true` when the latency budget expired and the default score was
    /// returned without running the model.
    pub degraded: bool,
}

/// Write-once response slot: the worker fills it, the submitter takes it.
/// Poisoning is absorbed here and on the [`WakeBoard`]: a plain enum and
/// one integer cannot be left half-written by a panicking peer.
#[derive(Debug, Default)]
struct ResponseSlot(Mutex<Option<Result<Scored, ServingError>>>);

impl ResponseSlot {
    fn lock(&self) -> MutexGuard<'_, Option<Result<Scored, ServingError>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Where every waiter of one front-end sleeps: how many are asleep, and
/// one condvar. A publisher writes its slots *before* it takes this
/// lock, and a waiter re-checks its slot *under* it before sleeping, so
/// no publish falls between a waiter's check and its sleep.
#[derive(Debug, Default)]
struct WakeBoard {
    asleep: Mutex<usize>,
    wake: Condvar,
}

impl WakeBoard {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.asleep.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make every slot written so far visible: one lock, and a wake only
    /// if somebody sleeps.
    fn publish(&self) {
        if *self.lock() > 0 {
            self.wake.notify_all();
        }
    }
}

/// A submitted-but-unanswered request (returned by
/// [`Frontend::submit`]). Dropping it abandons the response; the worker
/// still scores the request and fills its slot, which open-loop load
/// generators rely on.
#[derive(Debug)]
pub struct Pending {
    slot: Arc<ResponseSlot>,
    board: Arc<WakeBoard>,
}

impl Pending {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<Scored, ServingError> {
        if let Some(result) = self.slot.lock().take() {
            return result;
        }
        let mut asleep = self.board.lock();
        loop {
            if let Some(result) = self.slot.lock().take() {
                return result;
            }
            *asleep += 1;
            asleep = self
                .board
                .wake
                .wait(asleep)
                .unwrap_or_else(PoisonError::into_inner);
            *asleep -= 1;
        }
    }
}

/// One admitted request travelling the queue.
struct Request {
    input: OwnedInput,
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

/// The admission queue: the requests waiting for a worker (its length
/// *is* the queue depth) and whether more are admitted.
struct Admission {
    queue: VecDeque<Request>,
    open: bool,
}

impl Admission {
    /// Move up to `max_batch` waiting requests into `batch`.
    fn take_into(&mut self, batch: &mut Vec<Request>, max_batch: usize) {
        let taken = max_batch.min(self.queue.len());
        batch.extend(self.queue.drain(..taken));
    }
}

/// State shared between the front-end handle and its workers.
struct Shared {
    cell: Arc<EpochCell>,
    cfg: FrontendConfig,
    /// The one lock `submit`, the workers and `shutdown` meet on. A
    /// [`ResponseSlot`] is never written while it is held.
    admission: Mutex<Admission>,
    /// Signalled per admitted request and on shutdown.
    ready: Condvar,
    /// Where this front-end's waiters sleep; published once per batch.
    board: Arc<WakeBoard>,
}

impl Shared {
    /// Poisoning is absorbed: every update under this lock is one push,
    /// drain or flag store, so a panicking holder leaves the queue valid.
    fn lock_admission(&self) -> MutexGuard<'_, Admission> {
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The serving front-end: admission, batching, hot swap, budgets.
///
/// Construct with [`Frontend::for_model`] to share the registry's
/// publication cell, so [`ServingRegistry::promote`] hot-swaps the
/// model under live traffic with zero scoring-path locks.
pub struct Frontend {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Frontend {
    /// A front-end for the serving version of `name`, subscribed to the
    /// registry's publication cell: later `promote` calls hot-swap this
    /// front-end live.
    pub fn for_model(
        registry: &ServingRegistry,
        name: &str,
        cfg: FrontendConfig,
    ) -> Result<Frontend, ServingError> {
        Ok(Frontend::build(registry.epoch_cell(name)?, cfg))
    }

    /// A front-end scoring the live version published in `cell`.
    fn build(cell: Arc<EpochCell>, cfg: FrontendConfig) -> Frontend {
        let shared = Arc::new(Shared {
            cell,
            cfg,
            admission: Mutex::new(Admission {
                queue: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            board: Arc::default(),
        });
        let mut handles = Vec::new();
        for _ in 0..shared.cfg.workers {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Frontend {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Admit one request without waiting for its response (open loop).
    ///
    /// Returns [`ServingError::QueueFull`] when
    /// [`FrontendConfig::queue_depth`] requests are already waiting, and
    /// [`ServingError::Shutdown`] after [`Frontend::shutdown`].
    pub fn submit(&self, input: OwnedInput) -> Result<Pending, ServingError> {
        let slot = Arc::new(ResponseSlot::default());
        let request = Request {
            input,
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        };
        let mut admission = self.shared.lock_admission();
        if !admission.open {
            return Err(ServingError::Shutdown);
        }
        if admission.queue.len() >= self.shared.cfg.queue_depth {
            return Err(ServingError::QueueFull {
                depth: self.shared.cfg.queue_depth,
            });
        }
        admission.queue.push_back(request);
        drop(admission);
        self.shared.ready.notify_one();
        Ok(Pending {
            slot,
            board: Arc::clone(&self.shared.board),
        })
    }

    /// Admit one request and block for its response (closed loop).
    pub fn score(&self, input: OwnedInput) -> Result<Scored, ServingError> {
        self.submit(input)?.wait()
    }

    /// The current publication epoch the workers score under.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Stop admitting, let workers drain the queue, join them, and
    /// answer anything still queued (the `workers: 0` case) with
    /// [`ServingError::Shutdown`]. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.lock_admission().open = false;
        self.shared.ready.notify_all();
        let handles: Vec<std::thread::JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked worker has no recovery path here; its queued requests are answered by the drain below"
            )]
            let _ = h.join();
        }
        let left = std::mem::take(&mut self.shared.lock_admission().queue);
        for req in left {
            *req.slot.lock() = Some(Err(ServingError::Shutdown));
        }
        self.shared.board.publish();
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The batcher body: block until requests wait, take up to
/// [`FrontendConfig::max_batch`] of them in that one lock hold, refresh
/// the epoch pin, and score them at once through one
/// [`crate::BatchSession`]; what arrives meanwhile forms the next batch.
/// Returns once the queue is closed and empty.
fn worker_loop(shared: &Shared) {
    // Copied once: `cfg` can share a cache line with the admission lock
    // and the condvar that every `submit` writes.
    let FrontendConfig {
        max_batch,
        request_budget,
        default_score,
        ..
    } = shared.cfg;
    let max_batch = max_batch.max(1);
    let mut scratch = BatchScratch::default();
    let mut pinned = shared.cell.pin();
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    loop {
        let mut admission = shared
            .ready
            .wait_while(shared.lock_admission(), |a| a.queue.is_empty() && a.open)
            .unwrap_or_else(PoisonError::into_inner);
        if admission.queue.is_empty() {
            return;
        }
        admission.take_into(&mut batch, max_batch);
        drop(admission);
        let started = Instant::now();
        // Batch boundary: one atomic load in steady state; the slot
        // lock is touched only when a promote actually landed.
        pinned.refresh(&shared.cell);
        let spec = Arc::clone(pinned.spec());
        let epoch = pinned.epoch();
        let mut session = batch_session(&spec, &mut scratch);
        for req in &batch {
            let queued = started.saturating_duration_since(req.enqueued);
            let result = if queued >= request_budget {
                Ok(Scored {
                    score: default_score,
                    epoch,
                    version: spec.version,
                    degraded: true,
                })
            } else {
                session
                    .score(&req.input.as_score_input())
                    .map(|score| Scored {
                        score,
                        epoch,
                        version: spec.version,
                        degraded: false,
                    })
            };
            *req.slot.lock() = Some(result);
        }
        // Batch boundary: one wake for the whole batch.
        shared.board.publish();
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{score_spec, ExportedModel, ModelSpec, ServingRegistry};
    use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry};
    use drybell_ml::{FtrlConfig, LogisticRegression, MlpScratch};
    use std::sync::{mpsc, Barrier};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// How long a test waits for an answer before calling it lost.
    const LIMIT: Duration = Duration::from_secs(30);

    /// Run `f` on a thread of its own and hand back the channel its result
    /// arrives on, so a test bounds its wait instead of hanging.
    fn on_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || drop(tx.send(f())));
        rx
    }

    /// A registry with `n` identical logreg versions of model `"m"`,
    /// version 1 promoted. With the publication cell created at
    /// promote-1 time, epoch k always serves version k — which is what
    /// lets the tests check torn epoch/version pairings directly.
    fn registry_with_versions(
        n: u32,
    ) -> Result<(ServingRegistry, FeatureHasher), Box<dyn std::error::Error>> {
        let mut spaces = SpaceRegistry::new();
        let hashed = spaces
            .register(FeatureSpace::servable("hashed", 10))
            .ok_or("space taken")?;
        let registry = ServingRegistry::new(spaces, 1_000);
        let h = FeatureHasher::new(1 << 10);
        let data = vec![
            (h.bag_of_words(&["yes"]), 1.0),
            (h.bag_of_words(&["nothing"]), 0.0),
        ];
        let mut m = LogisticRegression::new(1 << 10, FtrlConfig::default());
        m.fit(&data)?;
        for version in 1..=n {
            registry.stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(m.clone()),
            })?;
        }
        registry.promote("m", 1)?;
        Ok((registry, h))
    }

    #[test]
    fn queue_overflow_rejects_with_typed_error_under_contention() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        // No workers: nothing drains, so admissions 5..8 must find the
        // queue full and get the typed rejection, not queue unbounded.
        let cfg = FrontendConfig {
            queue_depth: 4,
            workers: 0,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        let barrier = Barrier::new(8);
        let (admitted, rejected) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let frontend = &frontend;
                    let barrier = &barrier;
                    let x = h.bag_of_words(&["yes"]);
                    scope.spawn(move || {
                        barrier.wait();
                        frontend.submit(OwnedInput::Sparse(x))
                    })
                })
                .collect();
            let mut admitted = Vec::new();
            let mut rejected = 0_u32;
            for handle in handles {
                match handle.join().unwrap() {
                    Ok(pending) => admitted.push(pending),
                    Err(ServingError::QueueFull { depth }) => {
                        assert_eq!(depth, 4);
                        rejected += 1;
                    }
                    Err(other) => panic!("unexpected admission error: {other}"),
                }
            }
            (admitted, rejected)
        });
        assert_eq!(admitted.len(), 4, "exactly queue_depth admissions win");
        assert_eq!(rejected, 4);
        assert_eq!(frontend.shared.lock_admission().queue.len(), 4);
        // Shutdown answers everything still queued with the typed error.
        frontend.shutdown();
        for pending in admitted {
            assert!(matches!(pending.wait(), Err(ServingError::Shutdown)));
        }
        assert_eq!(frontend.shared.lock_admission().queue.len(), 0);
        assert!(matches!(
            frontend.submit(OwnedInput::Sparse(h.bag_of_words(&["yes"]))),
            Err(ServingError::Shutdown)
        ));
        Ok(())
    }

    #[test]
    fn submitters_racing_shutdown_are_all_answered() -> TestResult {
        const SUBMITTERS: usize = 4;
        const PER_SUBMITTER: usize = 500;
        let (registry, h) = registry_with_versions(1)?;
        // A queue the submitters overrun at once, so all three outcomes
        // race: admitted, `QueueFull`, and `Shutdown` once the close lands.
        let cfg = FrontendConfig {
            queue_depth: 8,
            max_batch: 4,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        let barrier = Barrier::new(SUBMITTERS + 1);
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|_| {
                    let (frontend, barrier) = (&frontend, &barrier);
                    let x = h.bag_of_words(&["yes"]);
                    scope.spawn(move || {
                        barrier.wait();
                        (0..PER_SUBMITTER)
                            .map(|_| frontend.submit(OwnedInput::Sparse(x.clone())))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            barrier.wait();
            frontend.shutdown();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(outcomes.len(), SUBMITTERS * PER_SUBMITTER);
        assert_eq!(
            frontend.shared.lock_admission().queue.len(),
            0,
            "shutdown leaves nothing queued"
        );
        // Resolve on a helper thread so a request nobody answers fails
        // the test instead of hanging it.
        let (done, resolved) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for outcome in outcomes {
                let verdict = match outcome {
                    Ok(pending) => match pending.wait() {
                        Ok(_) | Err(ServingError::Shutdown) => Ok(()),
                        Err(other) => Err(format!("admitted request answered {other}")),
                    },
                    Err(ServingError::QueueFull { .. } | ServingError::Shutdown) => Ok(()),
                    Err(other) => Err(format!("submit refused with {other}")),
                };
                if done.send(verdict).is_err() {
                    return;
                }
            }
        });
        for _ in 0..SUBMITTERS * PER_SUBMITTER {
            resolved
                .recv_timeout(Duration::from_secs(30))
                .map_err(|_| "an admitted request was never answered")??;
        }
        Ok(())
    }

    #[test]
    fn budget_expired_requests_degrade_to_the_default_score() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let cfg = FrontendConfig {
            request_budget: Duration::ZERO,
            default_score: 0.25,
            workers: 1,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        for _ in 0..5 {
            let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
            assert!(scored.degraded);
            assert_eq!(scored.score, 0.25);
            assert_eq!(scored.epoch, 1);
            assert_eq!(scored.version, 1);
        }
        Ok(())
    }

    #[test]
    fn frontend_scoring_is_bit_identical_to_direct_scoring() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let frontend = Frontend::for_model(&registry, "m", FrontendConfig::default())?;
        let spec = registry.resolve_serving("m")?;
        let mut scratch = MlpScratch::default();
        for token in ["yes", "nothing", "maybe", "filler"] {
            let x = h.bag_of_words(&[token]);
            let direct = score_spec(&spec, &ScoreInput::Sparse(&x), &mut scratch)?;
            let served = frontend.score(OwnedInput::Sparse(x))?;
            assert!(!served.degraded);
            assert_eq!(
                direct.to_bits(),
                served.score.to_bits(),
                "batched front-end path must reproduce direct scoring exactly"
            );
        }
        Ok(())
    }

    #[test]
    fn promote_hot_swaps_the_frontend_live() -> TestResult {
        let (registry, h) = registry_with_versions(2)?;
        let frontend = Frontend::for_model(&registry, "m", FrontendConfig::default())?;
        let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
        assert_eq!((scored.epoch, scored.version), (1, 1));
        registry.promote("m", 2)?;
        assert_eq!(frontend.epoch(), 2, "promote republishes before returning");
        // The publish happens-before the next batch's epoch refresh, so
        // a request admitted after promote returns scores v2.
        let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
        assert_eq!((scored.epoch, scored.version), (2, 2));
        Ok(())
    }

    #[test]
    fn a_request_budget_of_duration_max_scores_without_degrading() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let cfg = FrontendConfig {
            request_budget: Duration::MAX,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
        assert!(!scored.degraded);
        Ok(())
    }

    #[test]
    fn a_lone_request_is_not_held_for_stragglers() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let cfg = FrontendConfig {
            workers: 1,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        // Sequential calls: each batch holds one request, and a batch of
        // one far short of `max_batch` is scored as soon as it is taken.
        // A round trip contains its batch, so it bounds the batch's time.
        let mut fastest = Duration::MAX;
        for _ in 0..20 {
            let x = OwnedInput::Sparse(h.bag_of_words(&["yes"]));
            let started = Instant::now();
            frontend.score(x)?;
            fastest = fastest.min(started.elapsed());
        }
        assert!(
            fastest < Duration::from_micros(100),
            "the fastest round trip took {fastest:?}"
        );
        Ok(())
    }

    #[test]
    fn queued_requests_are_taken_max_batch_at_a_time() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let spec = registry.resolve_serving("m")?;
        let cfg = FrontendConfig {
            max_batch: 4,
            request_budget: Duration::MAX,
            workers: 0,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        let mut scratch = MlpScratch::default();
        let mut queued = Vec::new();
        for token in ["yes", "nothing", "maybe", "filler"]
            .iter()
            .cycle()
            .take(10)
        {
            let x = h.bag_of_words(&[token]);
            let direct = score_spec(&spec, &ScoreInput::Sparse(&x), &mut scratch)?;
            queued.push((frontend.submit(OwnedInput::Sparse(x))?, direct));
        }
        // Ten waiting before any worker runs: batches of 4, 4 and 2. The
        // taken requests go back in admission order for the worker below.
        let mut admission = frontend.shared.lock_admission();
        let mut taken = Vec::new();
        let split: Vec<(usize, usize)> = (0..3)
            .map(|_| {
                let before = taken.len();
                admission.take_into(&mut taken, 4);
                (taken.len() - before, admission.queue.len())
            })
            .collect();
        assert_eq!(split, [(4, 6), (4, 2), (2, 0)]);
        admission.queue.extend(taken);
        drop(admission);
        let shared = Arc::clone(&frontend.shared);
        let worker = std::thread::spawn(move || worker_loop(&shared));
        for (pending, direct) in queued {
            let served = pending.wait()?;
            assert!(!served.degraded);
            assert_eq!(served.score.to_bits(), direct.to_bits());
        }
        frontend.shutdown();
        worker.join().map_err(|_| "the worker panicked")?;
        Ok(())
    }

    #[test]
    fn a_waiter_asleep_when_shutdown_sweeps_is_woken() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let cfg = FrontendConfig {
            workers: 0,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model(&registry, "m", cfg)?;
        let pending = frontend.submit(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
        let answer = on_thread(move || pending.wait());
        // With no worker only the sweep can answer, so the waiter sleeps;
        // it counts itself asleep and sleeps under one hold of the lock.
        let started = Instant::now();
        while *frontend.shared.board.lock() == 0 {
            if started.elapsed() > LIMIT {
                return Err("the waiter never went to sleep".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        frontend.shutdown();
        let result = answer
            .recv_timeout(LIMIT)
            .map_err(|_| "the sleeping waiter was never woken")?;
        assert!(matches!(result, Err(ServingError::Shutdown)), "{result:?}");
        Ok(())
    }

    #[test]
    fn dropped_pendings_do_not_stall_the_others() -> TestResult {
        const CLIENTS: usize = 4;
        const IN_FLIGHT: usize = 16;
        const PER_CLIENT: usize = 300;
        let (registry, h) = registry_with_versions(1)?;
        let spec = registry.resolve_serving("m")?;
        let inputs: Vec<SparseVector> = ["yes", "nothing", "maybe", "filler"]
            .iter()
            .map(|token| h.bag_of_words(&[token]))
            .collect();
        let mut scratch = MlpScratch::default();
        let expected = inputs
            .iter()
            .map(|x| score_spec(&spec, &ScoreInput::Sparse(x), &mut scratch).map(f64::to_bits))
            .collect::<Result<Vec<u64>, _>>()?;
        // No answer may degrade to the default score, however slow the host.
        let cfg = FrontendConfig {
            request_budget: Duration::MAX,
            ..FrontendConfig::default()
        };
        let frontend = Arc::new(Frontend::for_model(&registry, "m", cfg)?);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (frontend, inputs) = (Arc::clone(&frontend), inputs.clone());
                on_thread(move || {
                    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
                    let mut kept = Vec::new();
                    for k in 0..PER_CLIENT {
                        let item = (c + k) % inputs.len();
                        let pending = frontend.submit(OwnedInput::Sparse(inputs[item].clone()))?;
                        // Every third is abandoned, as an open loop does.
                        if k % 3 != 2 {
                            in_flight.push_back((pending, item));
                        }
                        if in_flight.len() == IN_FLIGHT {
                            if let Some((pending, item)) = in_flight.pop_front() {
                                kept.push((pending.wait()?, item));
                            }
                        }
                    }
                    for (pending, item) in in_flight {
                        kept.push((pending.wait()?, item));
                    }
                    Ok::<_, ServingError>(kept)
                })
            })
            .collect();
        for client in clients {
            let kept = client
                .recv_timeout(LIMIT)
                .map_err(|_| "a client stalled")??;
            assert_eq!(kept.len(), PER_CLIENT - PER_CLIENT / 3);
            for (scored, item) in kept {
                assert!(!scored.degraded);
                assert_eq!(scored.score.to_bits(), expected[item]);
            }
        }
        Ok(())
    }

    /// Scorers hammer the front-end while the main thread promotes
    /// versions 2..=4. Every response must be attributable to exactly
    /// one published (epoch, version) pairing — with this registry's
    /// construction, epoch k serves version k — never a torn mix of an
    /// old epoch with a new slot (the race the `hot_swap` model in
    /// drybell-modelcheck proves impossible). Every batch cap from 1 to 7
    /// runs against two and three scorers.
    #[test]
    fn prop_every_response_comes_from_one_published_epoch() {
        for (max_batch, scorers) in (1_usize..8).flat_map(|b| [(b, 2_usize), (b, 3)]) {
            let per_thread = 10 + 4 * max_batch;
            let (registry, h) = registry_with_versions(4).unwrap();
            let cfg = FrontendConfig {
                max_batch,
                workers: 2,
                ..FrontendConfig::default()
            };
            let frontend = Frontend::for_model(&registry, "m", cfg).unwrap();
            let responses = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..scorers)
                    .map(|_| {
                        let frontend = &frontend;
                        let x = h.bag_of_words(&["yes"]);
                        scope.spawn(move || {
                            (0..per_thread)
                                .map(|_| frontend.score(OwnedInput::Sparse(x.clone())).unwrap())
                                .collect::<Vec<Scored>>()
                        })
                    })
                    .collect();
                for version in 2..=4 {
                    std::thread::sleep(Duration::from_micros(200));
                    registry.promote("m", version).unwrap();
                }
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().unwrap())
                    .collect::<Vec<Scored>>()
            });
            assert_eq!(responses.len(), scorers * per_thread);
            for s in &responses {
                assert!(
                    (1..=4).contains(&s.version),
                    "unknown version {}",
                    s.version
                );
                // A torn pairing would make epoch != version here.
                assert_eq!(s.epoch, u64::from(s.version));
            }
        }
    }
}
