//! The high-throughput serving front-end: bounded admission,
//! micro-batched scoring, epoch-pointer hot swap, latency budgets.
//!
//! The paper's discriminative models serve production traffic behind
//! TFX; this module is the request path in front of the
//! [`ServingRegistry`](crate::ServingRegistry):
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
//!   queueing unbounded work (load shedding, counted in
//!   `serving/rejected`).
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
//!   (`degraded: true`, counted in `serving/degraded`) instead of
//!   burning batch time on an answer the caller has given up on.
//! * **One wake per batch**: a worker writes every slot of the batch, then
//!   takes the wake-board lock once, waking waiters only if any sleep; the
//!   `wake` model in `drybell-modelcheck` proves no wake-up is lost.

use crate::slo::{SloConfig, SloTracker, WindowStats};
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
    /// SLO budgets to judge the request stream against. `None` (the
    /// default) disables tracking; `Some` requires telemetry
    /// ([`Frontend::for_model_with_telemetry`]) for the gauges and
    /// breach events to land anywhere.
    pub slo: Option<SloConfig>,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            queue_depth: 1024,
            max_batch: 64,
            request_budget: Duration::from_millis(20),
            default_score: 0.5,
            workers: 2,
            slo: None,
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

/// Pre-interned front-end instruments (names in
/// `drybell_obs::naming::REGISTRY`), built once so the request path
/// never touches the `MetricsRegistry` lock. Worker-side instruments
/// are [`drybell_obs::ShardLayout`] slots: the scoring loop writes
/// plain cells in a per-worker [`drybell_obs::LocalShard`] and folds
/// them into the shared registry once per batch
/// ([`drybell_obs::LocalShard::flush_into`]), so steady-state scoring
/// pays no atomic or histogram lock per request. Flushed counters are
/// therefore visible only after the batch that produced them.
struct FrontendInstruments {
    /// Flush target for the per-worker shards.
    telemetry: drybell_obs::Telemetry,
    /// Slot layout shared by every worker's `LocalShard`.
    layout: Arc<drybell_obs::ShardLayout>,
    /// `serving/rejected` — admissions refused at a full queue;
    /// incremented synchronously on the caller's `submit` path (the
    /// rejection path is off the scoring loop).
    rejected: Arc<drybell_obs::Counter>,
    /// `serving/degraded` — budget-expired requests answered with the
    /// default score.
    degraded: drybell_obs::CounterSlot,
    /// `serving/queue_depth` — queue depth sampled after each drain.
    queue_depth: drybell_obs::GaugeSlot,
    /// `serving/batch_size` — size of the most recent batch.
    batch_size: drybell_obs::GaugeSlot,
    /// `obs/serving/batch_us` — wall time per batch, from its take to
    /// its publish.
    batch_us: drybell_obs::HistogramSlot,
    /// `obs/serving/request_us` — end-to-end latency per request, from
    /// admission to the publish that made its answer visible (the
    /// p50/p99/p999 source).
    request_us: drybell_obs::HistogramSlot,
    /// SLO judge, present when [`FrontendConfig::slo`] is set.
    slo: Option<SloInstruments>,
}

/// One window's pre-interned `slo/{window}/*` gauges.
struct SloGauges {
    p99_us: Arc<drybell_obs::Gauge>,
    error_ppm: Arc<drybell_obs::Gauge>,
    p99_burn_ppm: Arc<drybell_obs::Gauge>,
    error_burn_ppm: Arc<drybell_obs::Gauge>,
}

impl SloGauges {
    fn interned(metrics: &drybell_obs::MetricsRegistry, window: &str) -> SloGauges {
        SloGauges {
            p99_us: metrics.gauge(&format!("slo/{window}/p99_us")),
            error_ppm: metrics.gauge(&format!("slo/{window}/error_ppm")),
            p99_burn_ppm: metrics.gauge(&format!("slo/{window}/p99_burn_ppm")),
            error_burn_ppm: metrics.gauge(&format!("slo/{window}/error_burn_ppm")),
        }
    }

    fn publish(&self, stats: &WindowStats) {
        self.p99_us.set(stats.p99_us as i64);
        self.error_ppm.set(stats.error_ppm as i64);
        self.p99_burn_ppm.set(stats.p99_burn_ppm as i64);
        self.error_burn_ppm.set(stats.error_burn_ppm as i64);
    }
}

/// SLO tracking shared by all workers: the tracker is locked **once
/// per batch** (never per request) to fold that batch's latency/error
/// pairs, refresh the burn gauges, and catch the breach edge.
struct SloInstruments {
    tracker: Mutex<SloTracker>,
    fast: SloGauges,
    slow: SloGauges,
}

impl SloInstruments {
    fn interned(metrics: &drybell_obs::MetricsRegistry, cfg: SloConfig) -> SloInstruments {
        SloInstruments {
            tracker: Mutex::new(SloTracker::new(cfg)),
            fast: SloGauges::interned(metrics, "fast"),
            slow: SloGauges::interned(metrics, "slow"),
        }
    }

    /// Fold one batch of `(latency_us, error)` samples. On a breach
    /// edge, journal an `slo_breach` event and dump the flight
    /// recorder — the event is teed into the ring first, so the dump's
    /// last ring line *is* the breach.
    fn observe_batch(&self, samples: &[(u64, bool)], telemetry: &drybell_obs::Telemetry) {
        let mut breaches = Vec::new();
        {
            let mut tracker = self.tracker.lock().unwrap_or_else(PoisonError::into_inner);
            for &(latency_us, error) in samples {
                breaches.extend(tracker.observe(latency_us, error));
            }
            self.fast.publish(&tracker.fast());
            self.slow.publish(&tracker.slow());
        }
        for b in breaches {
            telemetry.emit(
                drybell_obs::Event::new("slo_breach")
                    .field("signal", b.signal)
                    .field("fast/p99_us", b.fast.p99_us)
                    .field("fast/error_ppm", b.fast.error_ppm)
                    .field("fast/p99_burn_ppm", b.fast.p99_burn_ppm)
                    .field("fast/error_burn_ppm", b.fast.error_burn_ppm)
                    .field("slow/p99_us", b.slow.p99_us)
                    .field("slow/error_ppm", b.slow.error_ppm)
                    .field("slow/p99_burn_ppm", b.slow.p99_burn_ppm)
                    .field("slow/error_burn_ppm", b.slow.error_burn_ppm),
            );
            telemetry.dump_flight("slo_breach");
        }
    }
}

/// The admission queue: the requests waiting for a worker (its length
/// *is* the queue depth) and whether more are admitted.
struct Admission {
    queue: VecDeque<Request>,
    open: bool,
}

impl Admission {
    /// Move up to `max_batch` waiting requests into `batch`; returns how
    /// many are still waiting.
    fn take_into(&mut self, batch: &mut Vec<Request>, max_batch: usize) -> usize {
        let taken = max_batch.min(self.queue.len());
        batch.extend(self.queue.drain(..taken));
        self.queue.len()
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
    instruments: Option<FrontendInstruments>,
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
        Ok(Frontend::build(registry.epoch_cell(name)?, cfg, None))
    }

    /// [`Frontend::for_model`] plus telemetry: queue/batch gauges,
    /// rejected/degraded counters, and batch/request latency
    /// histograms, all pre-interned.
    pub fn for_model_with_telemetry(
        registry: &ServingRegistry,
        name: &str,
        cfg: FrontendConfig,
        telemetry: &drybell_obs::Telemetry,
    ) -> Result<Frontend, ServingError> {
        let metrics = telemetry.metrics();
        let mut layout = drybell_obs::ShardLayout::new();
        let degraded = layout.slot_counter(metrics.counter("serving/degraded"));
        let queue_depth = layout.slot_gauge(metrics.gauge("serving/queue_depth"));
        let batch_size = layout.slot_gauge(metrics.gauge("serving/batch_size"));
        let batch_us = layout.slot_histogram(metrics.histogram("obs/serving/batch_us"));
        let request_us = layout.slot_histogram(metrics.histogram("obs/serving/request_us"));
        let slo = cfg
            .slo
            .clone()
            .map(|slo_cfg| SloInstruments::interned(metrics, slo_cfg));
        let instruments = FrontendInstruments {
            telemetry: telemetry.clone(),
            layout: Arc::new(layout),
            rejected: metrics.counter("serving/rejected"),
            degraded,
            queue_depth,
            batch_size,
            batch_us,
            request_us,
            slo,
        };
        Ok(Frontend::build(
            registry.epoch_cell(name)?,
            cfg,
            Some(instruments),
        ))
    }

    /// A front-end scoring the live version published in `cell`.
    fn build(
        cell: Arc<EpochCell>,
        cfg: FrontendConfig,
        instruments: Option<FrontendInstruments>,
    ) -> Frontend {
        let shared = Arc::new(Shared {
            cell,
            cfg,
            admission: Mutex::new(Admission {
                queue: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            board: Arc::default(),
            instruments,
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
            drop(admission);
            if let Some(i) = &self.shared.instruments {
                i.rejected.inc();
            }
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
    let max_batch = shared.cfg.max_batch.max(1);
    let mut scratch = BatchScratch::default();
    let mut pinned = shared.cell.pin();
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    let mut shard = shared.instruments.as_ref().map(|i| i.layout.shard());
    // Per-batch (latency, error) staging for the SLO judge: plain
    // pushes into a reused buffer on the request path, one tracker
    // lock per batch.
    let mut slo_samples: Vec<(u64, bool)> = Vec::with_capacity(max_batch);
    loop {
        let mut admission = shared
            .ready
            .wait_while(shared.lock_admission(), |a| a.queue.is_empty() && a.open)
            .unwrap_or_else(PoisonError::into_inner);
        if admission.queue.is_empty() {
            return;
        }
        let waiting = admission.take_into(&mut batch, max_batch);
        drop(admission);
        let started = Instant::now();
        // Batch boundary: one atomic load in steady state; the slot
        // lock is touched only when a promote actually landed.
        pinned.refresh(&shared.cell);
        let spec = Arc::clone(pinned.spec());
        let epoch = pinned.epoch();
        if let (Some(i), Some(shard)) = (&shared.instruments, shard.as_mut()) {
            shard.level(i.queue_depth, waiting as i64);
            shard.level(i.batch_size, batch.len() as i64);
        }
        let mut session = batch_session(&spec, &mut scratch);
        let track_slo = shared.instruments.as_ref().is_some_and(|i| i.slo.is_some());
        for req in &batch {
            let queued = started.saturating_duration_since(req.enqueued);
            let result = if queued >= shared.cfg.request_budget {
                if let (Some(i), Some(shard)) = (&shared.instruments, shard.as_mut()) {
                    shard.bump(i.degraded);
                }
                Ok(Scored {
                    score: shared.cfg.default_score,
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
            if track_slo {
                // A degraded answer is an SLO error: the caller got the
                // default score, not the model's. The latency is
                // stamped at publish.
                let error = matches!(&result, Ok(s) if s.degraded) || result.is_err();
                slo_samples.push((0, error));
            }
            *req.slot.lock() = Some(result);
        }
        shared.board.publish();
        // Batch boundary: one wake, request latencies stamped at that
        // publish (when the answers became visible), one amortized fold
        // of the worker's local telemetry into the shared registry, and
        // one SLO-tracker lock for the whole batch.
        if let (Some(i), Some(shard)) = (&shared.instruments, shard.as_mut()) {
            let published = Instant::now();
            for (k, req) in batch.iter().enumerate() {
                let latency = published.saturating_duration_since(req.enqueued);
                shard.observe_duration(i.request_us, latency);
                if let Some(sample) = slo_samples.get_mut(k) {
                    sample.0 = latency.as_micros() as u64;
                }
            }
            shard.observe_duration(i.batch_us, published.duration_since(started));
            shard.flush_into();
            if let Some(slo) = &i.slo {
                slo.observe_batch(&slo_samples, &i.telemetry);
            }
            slo_samples.clear();
        }
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
        let telemetry = drybell_obs::Telemetry::new();
        // No workers: nothing drains, so admissions 5..8 must find the
        // queue full and get the typed rejection, not queue unbounded.
        let cfg = FrontendConfig {
            queue_depth: 4,
            workers: 0,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model_with_telemetry(&registry, "m", cfg, &telemetry)?;
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
        assert_eq!(telemetry.metrics().counter("serving/rejected").get(), 4);
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
        let telemetry = drybell_obs::Telemetry::new();
        let cfg = FrontendConfig {
            request_budget: Duration::ZERO,
            default_score: 0.25,
            workers: 1,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model_with_telemetry(&registry, "m", cfg, &telemetry)?;
        for _ in 0..5 {
            let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
            assert!(scored.degraded);
            assert_eq!(scored.score, 0.25);
            assert_eq!(scored.epoch, 1);
            assert_eq!(scored.version, 1);
        }
        // Worker shards flush at batch boundaries, after responses are
        // fulfilled: join the workers before reading the counters.
        frontend.shutdown();
        assert_eq!(telemetry.metrics().counter("serving/degraded").get(), 5);
        let snap = telemetry.metrics().snapshot();
        assert_eq!(
            snap.histogram("obs/serving/request_us")
                .ok_or("missing request histogram")?
                .count(),
            5
        );
        Ok(())
    }

    #[test]
    fn slo_breach_publishes_gauges_journals_and_dumps_flight() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let dir = std::env::temp_dir().join(format!("frontend-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        let telemetry = drybell_obs::Telemetry::with_journal(journal)
            .with_flight(drybell_obs::FlightRecorder::with_capacity(&dir, 64));
        // Zero budget: every request degrades, so the error burn rate
        // is 1000× the 1000-ppm budget as soon as the windows warm.
        let cfg = FrontendConfig {
            request_budget: Duration::ZERO,
            workers: 1,
            slo: Some(crate::SloConfig {
                fast_window: 4,
                slow_window: 8,
                ..crate::SloConfig::default()
            }),
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model_with_telemetry(&registry, "m", cfg, &telemetry)?;
        for _ in 0..16 {
            let scored = frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
            assert!(scored.degraded);
        }
        frontend.shutdown();
        // Burn gauges are live on the shared registry.
        let snap = telemetry.metrics().snapshot();
        assert!(
            snap.gauge("slo/fast/error_burn_ppm") > 1_000_000,
            "fast error burn must exceed the budget"
        );
        assert!(snap.gauge("slo/slow/error_burn_ppm") > 1_000_000);
        assert_eq!(snap.gauge("slo/fast/error_ppm"), 1_000_000);
        // Exactly one edge-triggered breach event, plus its dump record.
        let events = buffer.parsed_lines()?;
        let kinds: Vec<_> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(|k| k.as_str()))
            .collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "slo_breach").count(),
            1,
            "breach must be edge-triggered: {kinds:?}"
        );
        assert!(kinds.contains(&"flight_dump"));
        let breach = events
            .iter()
            .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("slo_breach"))
            .ok_or("missing breach event")?;
        assert_eq!(
            breach.get("signal").and_then(|s| s.as_str()),
            Some("error_ppm")
        );
        // The dump's last ring line is the breach itself.
        let dumps: Vec<_> = std::fs::read_dir(&dir)?
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(dumps.len(), 1);
        let text = std::fs::read_to_string(&dumps[0])?;
        let last = text.lines().last().ok_or("empty dump")?;
        let last = drybell_obs::parse_json(last)?;
        assert_eq!(
            last.get("kind").and_then(|k| k.as_str()),
            Some("slo_breach")
        );
        assert!(text.starts_with("{\"kind\":\"flight_header\""));
        assert!(text.contains("\"reason\":\"slo_breach\""));
        // Every name the front-end emitted — metrics, span paths, event
        // kinds — is declared in `naming::REGISTRY`.
        let spans = telemetry.spans().snapshot();
        let unregistered = drybell_obs::naming::unregistered(&snap, &spans, kinds.iter().copied());
        assert!(unregistered.is_empty(), "unregistered: {unregistered:?}");
        let _ = std::fs::remove_dir_all(&dir);
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
        let telemetry = drybell_obs::Telemetry::new();
        let cfg = FrontendConfig {
            workers: 1,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model_with_telemetry(&registry, "m", cfg, &telemetry)?;
        // Sequential calls: each batch holds one request, and a batch of
        // one far short of `max_batch` is scored as soon as it is taken.
        for _ in 0..20 {
            frontend.score(OwnedInput::Sparse(h.bag_of_words(&["yes"])))?;
        }
        frontend.shutdown();
        let snap = telemetry.metrics().snapshot();
        let batch_us = snap
            .histogram("obs/serving/batch_us")
            .ok_or("missing batch histogram")?;
        assert_eq!(batch_us.count(), 20);
        let fastest = batch_us.min().ok_or("no batch recorded")?;
        assert!(fastest < 100, "the fastest batch took {fastest} µs");
        Ok(())
    }

    #[test]
    fn queued_requests_are_taken_max_batch_at_a_time() -> TestResult {
        let (registry, h) = registry_with_versions(1)?;
        let spec = registry.resolve_serving("m")?;
        let telemetry = drybell_obs::Telemetry::new();
        let cfg = FrontendConfig {
            max_batch: 4,
            request_budget: Duration::MAX,
            workers: 0,
            ..FrontendConfig::default()
        };
        let frontend = Frontend::for_model_with_telemetry(&registry, "m", cfg, &telemetry)?;
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
        // Ten waiting before any worker runs: batches of 4, 4 and 2.
        let shared = Arc::clone(&frontend.shared);
        let worker = std::thread::spawn(move || worker_loop(&shared));
        for (pending, direct) in queued {
            let served = pending.wait()?;
            assert!(!served.degraded);
            assert_eq!(served.score.to_bits(), direct.to_bits());
        }
        frontend.shutdown();
        worker.join().map_err(|_| "the worker panicked")?;
        let snap = telemetry.metrics().snapshot();
        let batch_us = snap
            .histogram("obs/serving/batch_us")
            .ok_or("missing batch histogram")?;
        assert_eq!(batch_us.count(), 3);
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
