//! The MapReduce-style execution engine.
//!
//! Snorkel DryBell executes every labeling function as a MapReduce pipeline
//! over Google's distributed compute environment (§5.1), and that job is a
//! map: a worker reads an input shard, votes, and writes a vote shard. This
//! module is the local substitute: a thread-per-worker, shard-parallel map
//! ([`par_map_shards`]) over [`crate::shard`] datasets, beside the same map
//! over a slice already in memory ([`par_map_vec`]). It preserves the
//! architectural properties the paper relies on —
//!
//! * workers process whole shards and may hold per-worker state (the hook
//!   used to "launch a model server on each compute node"),
//! * jobs expose named counters and wall-clock stats, and a shard that is
//!   retried counts once,
//! * failures are handled the way production MapReduce handles them
//!   (§5.4's pipelines assume workers die routinely): a failed or
//!   panicked shard attempt is retried on whichever worker is free, up
//!   to [`JobConfig::max_attempts`], with shard outputs committed
//!   atomically so retries are idempotent; only exhausted retries (or
//!   unrecoverable configuration errors) abort the job and surface as
//!   [`DataflowError`]s rather than hanging.

use crate::counters::{CounterHandle, CounterSnapshot, Counters};
use crate::error::DataflowError;
use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::shard::{ShardReader, ShardSpec, ShardWriter};
use crate::Record;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Name of a job's one phase: in its `phase` and `shard_attempt` journal
/// events, its [`PhaseStats`] and injected-fault messages.
const PHASE: &str = "map";

/// Configuration of a job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name used in stats and error messages.
    pub name: String,
    /// Number of worker threads.
    pub workers: usize,
    /// Maximum executions of any one shard task before the job
    /// fails. `1` (the default) is fail-stop: the first failed attempt
    /// aborts the job. Higher values requeue a failed task, at the back
    /// of the queue, for whichever worker is free next.
    pub max_attempts: u32,
    /// Job-wide budget of input records whose map-function errors are
    /// *skipped* (dropped, with the `dataflow/skipped_records` counter
    /// bumped) instead of failing the shard. `0` (the default) disables
    /// skipping entirely. The budget is best-effort across retries: a
    /// shard attempt that skips records and later fails anyway does not
    /// refund them.
    pub skip_bad_record_budget: u64,
    /// Deterministic fault-injection schedule (chaos tests). `None` in
    /// production.
    pub fault_plan: Option<FaultPlan>,
    /// Optional telemetry sink: one `job/shard_attempt` span sample and
    /// one `shard_attempt` journal event per task attempt.
    pub telemetry: Option<drybell_obs::Telemetry>,
}

impl JobConfig {
    /// A job named `name` using all available parallelism.
    pub fn new(name: impl Into<String>) -> JobConfig {
        JobConfig {
            name: name.into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_attempts: 1,
            skip_bad_record_budget: 0,
            fault_plan: None,
            telemetry: None,
        }
    }

    /// Override the worker count.
    pub fn with_workers(mut self, workers: usize) -> JobConfig {
        self.workers = workers.max(1);
        self
    }

    /// Allow up to `attempts` executions per shard task.
    pub fn with_max_attempts(mut self, attempts: u32) -> JobConfig {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Allow up to `budget` bad records to be skipped job-wide.
    pub fn with_skip_bad_record_budget(mut self, budget: u64) -> JobConfig {
        self.skip_bad_record_budget = budget;
        self
    }

    /// Attach a deterministic fault-injection plan (chaos tests).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> JobConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Attach a telemetry sink for per-attempt spans/journal events.
    pub fn with_telemetry(mut self, telemetry: drybell_obs::Telemetry) -> JobConfig {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Wall-clock accounting for one phase of a job. A job has exactly one,
/// `map`; [`JobStats::phases`] stays a list because the run journal and
/// the doctor's summary schema carry it as one.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name.
    pub name: String,
    /// Wall-clock seconds spent in this phase.
    pub seconds: f64,
    /// Records entering the phase.
    pub records_in: u64,
    /// Records leaving the phase.
    pub records_out: u64,
}

/// Wall-clock and throughput accounting for a finished job.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// Records read from the input dataset.
    pub records_in: u64,
    /// Records written to the output dataset.
    pub records_out: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Per-phase wall-clock breakdown: one entry, `map`, spanning the job.
    pub phases: Vec<PhaseStats>,
    /// Seconds each worker spent executing tasks (indexed by worker id).
    /// Time blocked on the work queue and worker startup are *not*
    /// charged, so a worker that received no shards reads exactly zero.
    /// Uneven values reveal stragglers.
    pub worker_busy: Vec<f64>,
}

impl JobStats {
    /// Input records per second.
    pub fn throughput(&self) -> f64 {
        self.records_in as f64 / self.seconds.max(1e-12)
    }

    /// Slowest worker's busy time over the mean busy time — 1.0 means a
    /// perfectly balanced job, 2.0 means one worker carried twice the
    /// average load.
    pub fn straggler_ratio(&self) -> f64 {
        if self.worker_busy.is_empty() {
            return 1.0;
        }
        let sum: f64 = self.worker_busy.iter().sum();
        let mean = sum / self.worker_busy.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.worker_busy.iter().cloned().fold(0.0, f64::max);
        max / mean
    }

    /// Emit this job to a run journal: one `job` event carrying the
    /// totals, preceded by one `phase` event per phase.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        for phase in &self.phases {
            journal.emit(
                drybell_obs::Event::new("phase")
                    .field("job", self.name.as_str())
                    .field("name", phase.name.as_str())
                    .field("seconds", phase.seconds)
                    .field("records_in", phase.records_in)
                    .field("records_out", phase.records_out),
            );
        }
        let mut event = drybell_obs::Event::new("job")
            .field("name", self.name.as_str())
            .field("records_in", self.records_in)
            .field("records_out", self.records_out)
            .field("seconds", self.seconds)
            .field("workers", self.workers)
            .field("straggler_ratio", self.straggler_ratio())
            .field(
                "worker_busy",
                drybell_obs::Json::Arr(
                    self.worker_busy
                        .iter()
                        .map(|&s| drybell_obs::Json::Num(s))
                        .collect(),
                ),
            );
        for (name, value) in self.counters.entries() {
            event = event.field(&format!("counters/{name}"), *value);
        }
        journal.emit(event);
    }
}

/// Per-worker busy-time accumulator, microseconds.
struct BusyClock {
    micros: Vec<AtomicU64>,
}

impl BusyClock {
    fn new(workers: usize) -> BusyClock {
        BusyClock {
            micros: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn charge(&self, worker_id: usize, since: Instant) {
        let us = since.elapsed().as_micros().min(u64::MAX as u128) as u64;
        if let Some(m) = self.micros.get(worker_id) {
            m.fetch_add(us, Ordering::Relaxed);
        }
    }

    fn seconds(&self) -> Vec<f64> {
        self.micros
            .iter()
            .map(|m| m.load(Ordering::Relaxed) as f64 / 1e6)
            .collect()
    }
}

/// Per-worker context passed to worker-state initializers.
pub struct WorkerContext {
    /// Worker index in `0..workers`.
    pub worker_id: usize,
    /// Batched counter handle for this worker.
    pub counters: CounterHandle,
}

/// Long-lived per-worker helper (e.g. an NLP model server) that jobs can
/// start once per worker and reuse across every record the worker maps —
/// the paper's "launch a model server on each compute node" pattern.
pub trait Service: Send {
    /// Service name for logging and counters.
    fn name(&self) -> &str;
    /// One-time startup (load models, open sockets, ...).
    fn warm_up(&mut self) -> Result<(), DataflowError> {
        Ok(())
    }
}

/// Emits output records from a map function into the worker's output shard.
pub struct Emit<'a, O: Record> {
    writer: &'a mut ShardWriter<O>,
    emitted: u64,
}

impl<'a, O: Record> Emit<'a, O> {
    /// Write one output record.
    pub fn emit(&mut self, record: &O) -> Result<(), DataflowError> {
        self.writer.write(record)?;
        self.emitted += 1;
        Ok(())
    }
}

fn render_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Shared abort/error state for a running job.
struct JobState {
    failed: AtomicBool,
    first_error: Mutex<Option<DataflowError>>,
    records_in: AtomicU64,
    records_out: AtomicU64,
}

impl JobState {
    fn new() -> JobState {
        JobState {
            failed: AtomicBool::new(false),
            first_error: Mutex::new(None),
            records_in: AtomicU64::new(0),
            records_out: AtomicU64::new(0),
        }
    }

    fn fail(&self, err: DataflowError) {
        let mut slot = self
            .first_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(err);
        }
        self.failed.store(true, Ordering::SeqCst);
    }

    fn into_result(self, stats: JobStats) -> Result<JobStats, DataflowError> {
        match self
            .first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(err) => Err(err),
            None => Ok(stats),
        }
    }
}

// ---------------------------------------------------------------------------
// Retrying task queue
// ---------------------------------------------------------------------------

/// One unit of work: an input shard index, plus which attempt this is.
#[derive(Debug, Clone, Copy)]
struct Task {
    index: usize,
    attempt: u32,
}

/// A work queue that supports requeueing failed tasks.
///
/// Everything sits under one lock so any worker can (a) requeue a
/// failed task for another attempt and (b) close the queue — either
/// because every task completed or because the job failed — which wakes
/// all workers blocked in [`TaskQueue::next`].
struct TaskQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    tasks: VecDeque<Task>,
    /// Tasks not yet completed, queued or running.
    pending: usize,
    closed: bool,
}

impl TaskQueue {
    fn new(num_tasks: usize) -> TaskQueue {
        let tasks = (0..num_tasks).map(|index| Task { index, attempt: 0 });
        TaskQueue {
            state: Mutex::new(QueueState {
                tasks: tasks.collect(),
                pending: num_tasks,
                closed: num_tasks == 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Poisoning is absorbed: every update under this lock is one push,
    /// pop, count or flag store, so a panicking holder leaves it valid.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next task, blocking while the queue is empty and open; `None`
    /// once it is closed and drained.
    fn next(&self) -> Option<Task> {
        let mut state = self
            .ready
            .wait_while(self.lock(), |s| s.tasks.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        state.tasks.pop_front()
    }

    /// Stop accepting requeues and wake every worker blocked in `next`.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Requeue a failed task for another attempt. Returns `false` when
    /// the queue is already closed (the job failed elsewhere).
    fn requeue(&self, task: Task) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        state.tasks.push_back(task);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Mark one task complete, closing the queue when none remain.
    fn task_done(&self) {
        let mut state = self.lock();
        state.pending -= 1;
        let last = state.pending == 0;
        drop(state);
        if last {
            self.close();
        }
    }
}

/// Record one task attempt into the job's telemetry sink, when present.
fn record_attempt(
    cfg: &JobConfig,
    task: Task,
    started: Instant,
    outcome: &str,
    error: Option<&DataflowError>,
) {
    let Some(t) = &cfg.telemetry else {
        return;
    };
    let us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    t.spans().record("job/shard_attempt", us);
    let mut event = drybell_obs::Event::new("shard_attempt")
        .field("job", cfg.name.as_str())
        .field("phase", PHASE)
        .field("task", task.index as u64)
        .field("attempt", u64::from(task.attempt))
        .field("outcome", outcome);
    if let Some(e) = error {
        event = event.field("error", e.to_string().as_str());
    }
    t.emit(event);
}

/// Run a job's map phase over a retrying task queue.
///
/// Each of `workers` threads builds per-worker state via `init`, then
/// drains tasks. A failed or panicked attempt (including injected
/// faults from [`JobConfig::fault_plan`]) goes to the back of the queue
/// while attempts remain, so other tasks keep flowing; exhausted retries
/// fail the job via `state` and close the queue so every worker winds
/// down promptly.
#[expect(
    clippy::too_many_arguments,
    reason = "the job's shared state, borrowed for the phase's scoped threads"
)]
fn run_phase<W, InitF, RunF>(
    num_tasks: usize,
    workers: usize,
    cfg: &JobConfig,
    state: &JobState,
    busy: &BusyClock,
    counters: &Counters,
    init: InitF,
    run: RunF,
) where
    W: Send,
    InitF: Fn(&mut WorkerContext) -> Result<W, DataflowError> + Sync,
    RunF: Fn(&mut W, usize, &mut CounterHandle) -> Result<(), DataflowError> + Sync,
{
    let queue = TaskQueue::new(num_tasks);
    // The phase's span: it times the whole map phase, workers included.
    let _phase_span = cfg.telemetry.as_ref().map(|t| t.span("job/map"));
    std::thread::scope(|scope| {
        for worker_id in 0..workers {
            let queue = &queue;
            let counters = counters.clone();
            let init = &init;
            let run = &run;
            scope.spawn(move || {
                // Backstop for panics in engine code itself (shard I/O,
                // queue handling). User-code panics are caught per
                // attempt below and retried; reaching this catch means
                // an engine bug, which fails the job outright.
                let backstop = catch_unwind(AssertUnwindSafe(|| {
                    phase_worker(worker_id, queue, counters, cfg, state, busy, init, run);
                }));
                if let Err(payload) = backstop {
                    state.fail(DataflowError::WorkerPanicked {
                        worker: worker_id,
                        message: render_panic(payload),
                    });
                    queue.close();
                }
            });
        }
    });
}

#[expect(
    clippy::too_many_arguments,
    reason = "run_phase's arguments plus the worker's own id"
)]
fn phase_worker<W, InitF, RunF>(
    worker_id: usize,
    queue: &TaskQueue,
    counters: Counters,
    cfg: &JobConfig,
    state: &JobState,
    busy: &BusyClock,
    init: &InitF,
    run: &RunF,
) where
    W: Send,
    InitF: Fn(&mut WorkerContext) -> Result<W, DataflowError> + Sync,
    RunF: Fn(&mut W, usize, &mut CounterHandle) -> Result<(), DataflowError> + Sync,
{
    let mut ctx = WorkerContext {
        worker_id,
        counters: CounterHandle::new(counters.clone()),
    };
    let mut wstate = match init(&mut ctx) {
        Ok(s) => s,
        Err(e) => {
            // Worker startup (e.g. a model server that cannot load) is
            // not a per-shard fault; it aborts the job as before.
            state.fail(e);
            queue.close();
            return;
        }
    };
    // What the map function counts during one attempt. It is flushed to
    // the job's counters only once the attempt has committed its shard
    // and thrown away when the attempt errors or panics, so a retried
    // shard counts once. It lives outside the per-attempt `catch_unwind`
    // so that an unwinding attempt cannot drop (and thereby flush) it.
    // The engine's own counters count every retry, and go through the
    // worker's handle.
    let mut tally = CounterHandle::new(counters);
    while let Some(task) = queue.next() {
        if state.failed.load(Ordering::SeqCst) {
            return;
        }
        let injected = cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.task_fault(FaultSite::Map, task.index, task.attempt));
        let started = Instant::now();
        // Per-attempt catch: a panicking user function costs one
        // attempt, not the whole job.
        let outcome = catch_unwind(AssertUnwindSafe(|| match injected {
            Some(FaultKind::Error) => Err(DataflowError::user(format!(
                "injected fault: {PHASE} task {} attempt {}",
                task.index, task.attempt
            ))),
            #[expect(
                clippy::panic,
                reason = "deliberate chaos-test injection; caught by the per-attempt catch_unwind above"
            )]
            Some(FaultKind::Panic) => {
                panic!(
                    "injected panic: {PHASE} task {} attempt {}",
                    task.index, task.attempt
                );
            }
            other => {
                if let Some(FaultKind::Delay(ms)) = other {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                run(&mut wstate, task.index, &mut tally)
            }
        }));
        // Busy time covers task execution only — never queue waits — so
        // an idle worker's clock reads zero.
        busy.charge(worker_id, started);
        let error = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e),
            Err(payload) => Some(DataflowError::WorkerPanicked {
                worker: worker_id,
                message: render_panic(payload),
            }),
        };
        match error {
            None => {
                tally.flush();
                record_attempt(cfg, task, started, "ok", None);
                queue.task_done();
            }
            Some(e) => {
                tally.discard();
                if state.failed.load(Ordering::SeqCst) {
                    // The job already failed elsewhere; this attempt's
                    // error is noise (often "job aborted"), not a retry.
                    return;
                }
                let next = task.attempt + 1;
                if next < cfg.max_attempts {
                    ctx.counters.inc("dataflow/retries");
                    record_attempt(cfg, task, started, "retry", Some(&e));
                    if !queue.requeue(Task {
                        index: task.index,
                        attempt: next,
                    }) {
                        return;
                    }
                } else {
                    record_attempt(cfg, task, started, "failed", Some(&e));
                    state.fail(e);
                    queue.close();
                    return;
                }
            }
        }
    }
}

/// Consume one unit of skip budget, if any remains. The skip is counted
/// on the job's counters at once, not on the attempt's tally: a failed
/// attempt is not refunded, so the counter equals the budget consumed.
fn try_skip_record(skip_budget: &AtomicU64, counters: &Counters) -> bool {
    let mut cur = skip_budget.load(Ordering::SeqCst);
    while cur > 0 {
        match skip_budget.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                counters.inc("dataflow/skipped_records");
                return true;
            }
            Err(actual) => cur = actual,
        }
    }
    false
}

/// Run a shard-parallel map: each input shard `i` is transformed into
/// output shard `i` by a user function, with per-worker state created by
/// `init` (the model-server hook).
///
/// Requires `output.num_shards() == input.num_shards()`.
///
/// Fault tolerance: each shard is one retryable task (see
/// [`JobConfig::max_attempts`]); its output shard is committed
/// atomically on success, so a retried shard rewrites its stage file
/// from scratch and the final dataset is identical to a fault-free run.
/// So are the job's counters: what `f` adds through its `CounterHandle`
/// counts only for the attempt that commits the shard.
pub fn par_map_shards<I, O, S, Init, F>(
    input: &ShardSpec,
    output: &ShardSpec,
    cfg: &JobConfig,
    init: Init,
    f: F,
) -> Result<JobStats, DataflowError>
where
    I: Record,
    O: Record,
    S: Send,
    Init: Fn(&mut WorkerContext) -> Result<S, DataflowError> + Sync,
    F: Fn(&mut S, I, &mut Emit<'_, O>, &mut CounterHandle) -> Result<(), DataflowError> + Sync,
{
    if output.num_shards() != input.num_shards() {
        return Err(DataflowError::BadJob(format!(
            "par_map_shards needs matching shard counts: {} in vs {} out",
            input.num_shards(),
            output.num_shards()
        )));
    }
    let counters = Counters::new();
    let state = JobState::new();
    let skip_budget = AtomicU64::new(cfg.skip_bad_record_budget);
    let start = Instant::now();
    let workers = cfg.workers.max(1);
    let busy = BusyClock::new(workers);
    run_phase(
        input.num_shards(),
        workers,
        cfg,
        &state,
        &busy,
        &counters,
        init,
        |user_state: &mut S, shard, tally| {
            run_one_shard(
                input,
                output,
                shard,
                user_state,
                &f,
                &state,
                tally,
                &skip_budget,
                cfg.fault_plan.as_ref(),
            )
        },
    );
    let seconds = start.elapsed().as_secs_f64();
    let records_in = state.records_in.load(Ordering::SeqCst);
    let records_out = state.records_out.load(Ordering::SeqCst);
    let stats = JobStats {
        name: cfg.name.clone(),
        records_in,
        records_out,
        seconds,
        workers,
        counters: counters.snapshot(),
        phases: vec![PhaseStats {
            name: PHASE.to_string(),
            seconds,
            records_in,
            records_out,
        }],
        worker_busy: busy.seconds(),
    };
    state.into_result(stats)
}

#[expect(
    clippy::too_many_arguments,
    reason = "one attempt's inputs, each borrowed from a different owner"
)]
fn run_one_shard<I, O, S, F>(
    input: &ShardSpec,
    output: &ShardSpec,
    shard: usize,
    user_state: &mut S,
    f: &F,
    state: &JobState,
    tally: &mut CounterHandle,
    skip_budget: &AtomicU64,
    plan: Option<&FaultPlan>,
) -> Result<(), DataflowError>
where
    I: Record,
    O: Record,
    F: Fn(&mut S, I, &mut Emit<'_, O>, &mut CounterHandle) -> Result<(), DataflowError> + Sync,
{
    let reader = ShardReader::<I>::open(&input.shard_path(shard))?;
    let mut writer = ShardWriter::<O>::create(&output.shard_path(shard))?;
    let mut read = 0u64;
    let mut emit = Emit {
        writer: &mut writer,
        emitted: 0,
    };
    for record in reader {
        if state.failed.load(Ordering::SeqCst) {
            // Doomed job: bail before doing (and committing) more work.
            return Err(DataflowError::internal("job aborted during shard map"));
        }
        let record = record?;
        let record_error = if plan.is_some_and(|p| p.record_fault(shard, read)) {
            Some(DataflowError::user(format!(
                "injected record fault: shard {shard} record {read}"
            )))
        } else {
            f(user_state, record, &mut emit, tally).err()
        };
        read += 1;
        if let Some(e) = record_error {
            if try_skip_record(skip_budget, tally.shared()) {
                continue;
            }
            return Err(e);
        }
    }
    let emitted = emit.emitted;
    // Commit (footer + atomic rename) before the job-level accounting:
    // a shard only ever counts once, on its successful attempt.
    writer.finish()?;
    state.records_in.fetch_add(read, Ordering::SeqCst);
    state.records_out.fetch_add(emitted, Ordering::SeqCst);
    Ok(())
}

/// Parallel in-memory map preserving input order, with per-worker state.
///
/// This is the fast path used when a dataset already fits in memory (the
/// experiment harness' default); the shard-based [`par_map_shards`] is the
/// faithful pipeline for on-disk datasets.
pub fn par_map_vec<T, U, S, Init, F>(
    items: &[T],
    workers: usize,
    init: Init,
    f: F,
) -> Result<Vec<U>, DataflowError>
where
    T: Sync,
    U: Send,
    S: Send,
    Init: Fn(usize) -> Result<S, DataflowError> + Sync,
    F: Fn(&mut S, &T) -> Result<U, DataflowError> + Sync,
{
    let workers = workers.max(1);
    let chunk = items.len().div_ceil(workers).max(1);
    let state = JobState::new();
    let mut results: Vec<Mutex<Vec<U>>> = Vec::new();
    for _ in 0..workers {
        results.push(Mutex::new(Vec::new()));
    }
    std::thread::scope(|scope| {
        for (worker_id, (slot, block)) in results.iter().zip(items.chunks(chunk)).enumerate() {
            let state = &state;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut s = match init(worker_id) {
                        Ok(s) => s,
                        Err(e) => {
                            state.fail(e);
                            return;
                        }
                    };
                    let mut out = Vec::with_capacity(block.len());
                    for item in block {
                        if state.failed.load(Ordering::SeqCst) {
                            return;
                        }
                        match f(&mut s, item) {
                            Ok(u) => out.push(u),
                            Err(e) => {
                                state.fail(e);
                                return;
                            }
                        }
                    }
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = out;
                }));
                if let Err(payload) = result {
                    state.fail(DataflowError::WorkerPanicked {
                        worker: worker_id,
                        message: render_panic(payload),
                    });
                }
            });
        }
    });
    if let Some(err) = state
        .first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(err);
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in results {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry(index: usize) -> Task {
        Task { index, attempt: 1 }
    }

    #[test]
    fn close_wakes_a_worker_blocked_in_next() {
        // One task, taken and still running: the queue is empty and
        // open, so a second worker's `next` blocks until the close.
        let queue = TaskQueue::new(1);
        assert_eq!(queue.next().map(|t| t.index), Some(0));
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| {
                barrier.wait();
                queue.next().map(|t| t.index)
            });
            barrier.wait();
            queue.close();
            assert_eq!(blocked.join().unwrap(), None);
        });
    }

    #[test]
    fn requeue_after_close_is_refused() {
        let queue = TaskQueue::new(2);
        assert_eq!(queue.next().map(|t| t.index), Some(0));
        queue.close();
        assert!(!queue.requeue(retry(0)));
        // Drain-then-stop: what was queued at the close still comes
        // out, the refused retry does not, then the queue ends.
        assert_eq!(queue.next().map(|t| (t.index, t.attempt)), Some((1, 0)));
        assert!(queue.next().is_none());
    }

    #[test]
    fn the_last_task_done_closes_the_queue() {
        let queue = TaskQueue::new(2);
        assert_eq!(queue.next().map(|t| t.index), Some(0));
        assert_eq!(queue.next().map(|t| t.index), Some(1));
        queue.task_done();
        assert_eq!(queue.lock().pending, 1);
        // One task is still out: its retry is accepted and handed out.
        assert!(queue.requeue(retry(1)));
        assert_eq!(queue.next().map(|t| (t.index, t.attempt)), Some((1, 1)));
        queue.task_done();
        assert!(!queue.requeue(retry(1)));
        assert!(queue.next().is_none());
    }

    #[test]
    fn an_empty_phase_starts_closed() {
        assert!(TaskQueue::new(0).next().is_none());
    }
}
