//! Executing labeling-function sets over corpora.
//!
//! Two execution paths, mirroring the deployment spectrum in §5:
//!
//! * [`execute_in_memory`] — worker threads over an in-memory slice, the
//!   fast path for experimentation and the default for the benchmark
//!   harness. Each worker gets its own NLP model server (warmed up once),
//!   the direct analog of "launch a model server on each compute node".
//! * [`execute_sharded`] — the faithful pipeline: examples stream from
//!   sharded record files through `drybell-dataflow`'s `par_map_shards`,
//!   vote rows stream out to shards keyed by example id, and the label
//!   matrix is assembled from the output dataset. This is the path the
//!   scaling experiment (§1's "6M+ data points with sub-30min execution")
//!   measures.

use crate::{Lf, LfSet, Resolved, Words};
use drybell_core::LabelMatrix;
use drybell_dataflow::codec::{self, CodecError, Record};
use drybell_dataflow::FaultPlan;
use drybell_dataflow::{
    par_map_shards, par_map_vec, CounterHandle, CounterSnapshot, DataflowError, JobConfig,
    JobStats, Service, ShardSpec,
};
use drybell_kg::KnowledgeGraph;
use drybell_nlp::{CacheStats, CachedNlpServer, NlpError, NlpResult, NlpServer};
use drybell_obs::{HistogramSlot, LocalShard, ShardLayout, Telemetry};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Per-example text extractor (the paper's `GetText`): called once per
/// example, its string feeds both the NLP model server and the word view
/// of the set's word LFs.
pub type TextExtractor<X> = Arc<dyn Fn(&X) -> String + Send + Sync>;

/// Wall-clock statistics from an LF execution, in memory or sharded.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionStats {
    /// Examples labeled.
    pub examples: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// NLP annotation requests issued (0 when no LF needed the server).
    /// With a cache this counts requests, not underlying model runs —
    /// `cache` breaks the figure into hits and misses.
    pub nlp_calls: u64,
    /// Examples whose NLP annotation call failed: their NLP LFs degraded
    /// to abstain rather than aborting the run. Always 0 without an
    /// injected fault plan.
    pub nlp_degraded: u64,
    /// Memo-table statistics when the run used a cached NLP server.
    pub cache: Option<CacheStats>,
}

impl ExecutionStats {
    /// Examples labeled per second.
    pub fn throughput(&self) -> f64 {
        self.examples as f64 / self.seconds.max(1e-12)
    }

    /// Emit one `lf_execution` event to a run journal. Both executors do
    /// this when their telemetry carries a journal.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        let mut event = drybell_obs::Event::new("lf_execution")
            .field("examples", self.examples)
            .field("seconds", self.seconds)
            .field("throughput", self.throughput())
            .field("nlp_calls", self.nlp_calls)
            .field("nlp_degraded", self.nlp_degraded);
        if let Some(cache) = &self.cache {
            event = event
                .field("nlp_cache/hits", cache.hits)
                .field("nlp_cache/misses", cache.misses)
                .field("nlp_cache/evictions", cache.evictions)
                .field("nlp_cache/hit_rate", cache.hit_rate());
        }
        journal.emit(event);
    }
}

/// Knobs for the observed execution variants.
///
/// The default (`ExecOptions::default()`) reproduces the uninstrumented
/// fast path exactly: no memo table, no telemetry, no per-record timing.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Wrap the per-node NLP server in a [`CachedNlpServer`] with this
    /// memo-table capacity. The cache is shared by every worker thread
    /// (one cache per node, as a deployed memo table would be).
    pub nlp_cache: Option<usize>,
    /// Telemetry sink: per-LF `votes/<lf>` counters and
    /// `obs/lf/<lf>/eval_us` latency histograms, `nlp_calls`, the
    /// `obs/nlp/annotate_us` histogram, and an execution span.
    pub telemetry: Option<Telemetry>,
    /// Deterministic NLP fault injection (chaos tests): attached to every
    /// worker's model server, making annotation calls fail per the plan's
    /// NLP schedule. Affected examples degrade to abstain on NLP LFs.
    pub nlp_faults: Option<FaultPlan>,
}

impl ExecOptions {
    /// Options with every knob off (alias for `Default`).
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Enable the shared NLP memo table with `capacity` entries.
    pub fn with_nlp_cache(mut self, capacity: usize) -> ExecOptions {
        self.nlp_cache = Some(capacity);
        self
    }

    /// Attach a telemetry sink.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ExecOptions {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attach a deterministic NLP fault-injection plan (chaos tests).
    pub fn with_nlp_faults(mut self, plan: FaultPlan) -> ExecOptions {
        self.nlp_faults = Some(plan);
        self
    }
}

/// Shard layout for the per-LF latency histograms, slots parallel to
/// `set.lfs()` column order. Built once per job; each worker buffers its
/// rows in a private [`LocalShard`] and the whole batch folds into the
/// shared registry when the worker retires — the per-row cost is plain
/// memory writes, no atomics or locks. The per-LF counts are not
/// recorded here but read off Λ ([`report_counts`]); building the layout
/// registers their counters, so an LF that never votes still appears in
/// snapshots, and so does a run that fails before it has a Λ.
struct LfShards {
    layout: Arc<ShardLayout>,
    /// `obs/lf/<lf>/eval_us` — wall-clock latency of each evaluation.
    eval_us: Vec<HistogramSlot>,
}

impl LfShards {
    fn for_set<X>(set: &LfSet<X>, telemetry: &Telemetry) -> Arc<LfShards> {
        let metrics = telemetry.metrics();
        let mut layout = ShardLayout::new();
        let mut eval_us = Vec::with_capacity(set.len());
        for lf in set.lfs() {
            let name = &lf.metadata().name;
            metrics.counter(&format!("votes/{name}"));
            metrics.counter(&format!("lf/{name}/degraded"));
            eval_us
                .push(layout.slot_histogram(metrics.histogram(&format!("obs/lf/{name}/eval_us"))));
        }
        Arc::new(LfShards {
            layout: Arc::new(layout),
            eval_us,
        })
    }

    /// One worker's buffer.
    fn worker(self: &Arc<LfShards>) -> LfWorkerShard {
        LfWorkerShard {
            shard: self.layout.shard(),
            shards: Arc::clone(self),
        }
    }
}

/// One worker's view of the observed execution: its local telemetry
/// shard, flushed on drop, i.e. when the worker retires.
struct LfWorkerShard {
    shards: Arc<LfShards>,
    shard: LocalShard,
}

impl LfWorkerShard {
    /// Record one LF evaluation's latency.
    fn eval(&mut self, i: usize, elapsed: std::time::Duration) {
        if let Some(&slot) = self.shards.eval_us.get(i) {
            self.shard.observe_duration(slot, elapsed);
        }
    }
}

impl Drop for LfWorkerShard {
    fn drop(&mut self) {
        self.shard.flush_into();
    }
}

/// Evaluate every LF on one example into `votes` (one slot per LF, in
/// column order), optionally timing each evaluation. A missing feature
/// space (an NLP LF with no annotation, a word LF with no graph) is a
/// wiring bug in the caller and surfaces as a [`DataflowError::User`]
/// rather than a panic inside a worker.
///
/// `degraded` marks an example whose NLP annotation call failed: its NLP
/// LFs abstain (vote 0) instead of erroring on the intentionally absent
/// annotation.
fn row_of<X>(
    lfs: &[Lf<X>],
    x: &X,
    annotation: Option<&NlpResult>,
    words: Option<&Words<'_>>,
    obs: Option<&mut LfWorkerShard>,
    degraded: bool,
    votes: &mut [i8],
) -> Result<(), DataflowError> {
    debug_assert_eq!(votes.len(), lfs.len());
    match obs {
        // The row is written where it will live — a stretch of the
        // matrix, a `VoteRow`'s vector — so a row costs no allocation: on
        // the million-row events task a `Vec` per row was most of the
        // executor's time and, with two workers, a contended allocator.
        None => {
            for (lf, vote) in lfs.iter().zip(votes) {
                *vote = if degraded && lf.needs_nlp() {
                    0
                } else {
                    lf.vote_in(x, annotation, words)
                        .map_err(|e| DataflowError::user(e.to_string()))?
                        .as_i8()
                };
            }
        }
        // One clock read per LF boundary: an evaluation ends where the
        // next one starts, so its latency also carries the recording of
        // the one before it. A read costs about what a cheap LF does.
        Some(obs) => {
            let mut last = Instant::now();
            for (i, (lf, vote)) in lfs.iter().zip(votes).enumerate() {
                if degraded && lf.needs_nlp() {
                    *vote = 0;
                    continue;
                }
                *vote = lf
                    .vote_in(x, annotation, words)
                    .map_err(|e| DataflowError::user(e.to_string()))?
                    .as_i8();
                let now = Instant::now();
                obs.eval(i, now - last);
                last = now;
            }
        }
    }
    Ok(())
}

/// One worker's state: the set it runs, its NLP service handle, the
/// buffer its word views are built in and its telemetry shard, if any.
struct LfWorker<'s, X> {
    lfs: &'s [Lf<X>],
    text: Option<&'s TextExtractor<X>>,
    reads_nlp: bool,
    /// The set's graph, when the set has word LFs to resolve words for.
    words_kg: Option<&'s KnowledgeGraph>,
    nlp: WorkerNlp,
    words: Vec<Resolved<'s>>,
    obs: Option<LfWorkerShard>,
}

impl<'s, X> LfWorker<'s, X> {
    fn new(
        set: &'s LfSet<X>,
        text: Option<&'s TextExtractor<X>>,
        opts: &ExecOptions,
        shared: &Option<Arc<CachedNlpServer>>,
        obs: Option<LfWorkerShard>,
    ) -> Result<LfWorker<'s, X>, DataflowError> {
        Ok(LfWorker {
            lfs: set.lfs(),
            text,
            reads_nlp: set.needs_nlp(),
            words_kg: set
                .knowledge_graph()
                .map(Arc::as_ref)
                .filter(|_| set.lfs().iter().any(Lf::needs_graph)),
            nlp: worker_nlp(set, opts, shared)?,
            words: Vec::new(),
            obs,
        })
    }

    /// Label one example into `votes`. Its text is extracted once: the NLP
    /// server annotates it if the set has NLP LFs, and its word view is
    /// built if the set has word LFs. Returns whether the annotation call
    /// failed — its NLP LFs then abstained, and its word LFs voted as
    /// usual.
    fn label(&mut self, x: &X, votes: &mut [i8]) -> Result<bool, DataflowError> {
        let text = match self.text {
            Some(t) if self.reads_nlp || self.words_kg.is_some() => Some(t(x)),
            _ => None,
        };
        let (mut annotation, mut words, mut failed) = (None, None, false);
        if let Some(text) = &text {
            if self.reads_nlp {
                annotation = self.nlp.try_annotate(text).ok();
                failed = annotation.is_none();
            }
            if let Some(kg) = self.words_kg {
                words = Some(Words::resolve(text, kg, &mut self.words));
            }
        }
        let (nlp, obs) = (annotation.as_deref(), self.obs.as_mut());
        row_of(self.lfs, x, nlp, words.as_ref(), obs, failed, votes)?;
        Ok(failed)
    }
}

/// The per-worker view of the NLP service: either a private plain server
/// (the status-quo "model server per compute node" path) or a handle to
/// the node-shared memo table.
enum WorkerNlp {
    Plain(Box<NlpServer>),
    Shared(Arc<CachedNlpServer>),
}

impl WorkerNlp {
    /// Annotate, surfacing service failures so the caller can degrade.
    /// The shared-cache path serves hits even during an outage.
    fn try_annotate(&self, text: &str) -> Result<Annotation, NlpError> {
        Ok(match self {
            WorkerNlp::Plain(server) => Annotation::Owned(server.try_annotate(text)?),
            WorkerNlp::Shared(cache) => Annotation::Shared(cache.try_annotate(text)?),
        })
    }
}

/// One example's annotation as the LFs read it: the result a private
/// server returned, or the memo table's entry, shared without a copy.
enum Annotation {
    Owned(NlpResult),
    Shared(Arc<NlpResult>),
}

impl std::ops::Deref for Annotation {
    type Target = NlpResult;

    fn deref(&self) -> &NlpResult {
        match self {
            Annotation::Owned(result) => result,
            Annotation::Shared(result) => result,
        }
    }
}

/// Build the node-shared cached server when `opts.nlp_cache` is set.
fn build_shared_cache<X>(
    set: &LfSet<X>,
    opts: &ExecOptions,
) -> Result<Option<Arc<CachedNlpServer>>, DataflowError> {
    opts.nlp_cache
        .map(|capacity| Ok(Arc::new(CachedNlpServer::new(server(set, opts)?, capacity))))
        .transpose()
}

/// A model server, warmed up if the set has NLP LFs, then instrumented
/// (so the warm-up call is not counted) and given the fault plan.
fn server<X>(set: &LfSet<X>, opts: &ExecOptions) -> Result<NlpServer, DataflowError> {
    let mut server = NlpServer::new();
    if set.needs_nlp() {
        server.warm_up()?;
    }
    if let Some(t) = &opts.telemetry {
        server = server.with_metrics(t.metrics());
    }
    if let Some(plan) = &opts.nlp_faults {
        server = server.with_fault_plan(plan.clone());
    }
    Ok(server)
}

/// Build one worker's NLP handle: a clone of the shared cache, or a
/// private warmed server.
fn worker_nlp<X>(
    set: &LfSet<X>,
    opts: &ExecOptions,
    shared: &Option<Arc<CachedNlpServer>>,
) -> Result<WorkerNlp, DataflowError> {
    Ok(match shared {
        Some(cache) => WorkerNlp::Shared(Arc::clone(cache)),
        None => WorkerNlp::Plain(Box::new(server(set, opts)?)),
    })
}

/// Refuse a set whose NLP or word LFs would get no text.
fn check_text<X>(set: &LfSet<X>, text: Option<&TextExtractor<X>>) -> Result<(), DataflowError> {
    let reads_text = |lf: &Lf<X>| lf.needs_nlp() || lf.needs_graph();
    match text {
        None if set.lfs().iter().any(reads_text) => Err(DataflowError::BadJob(
            "LF set has NLP or word labeling functions but no text extractor".into(),
        )),
        _ => Ok(()),
    }
}

/// Write the per-LF counts, read off Λ, where the run reports them. Λ's
/// non-abstain cells per column are `votes/<lf>`, and a set that reads
/// NLP made one `nlp_calls` request per row; both go to the job counters
/// (zero counts stay absent). The telemetry counters get `votes/<lf>` and,
/// for each NLP LF, `degraded` — the failed annotations — as
/// `lf/<lf>/degraded` (its `nlp_calls` is the NLP server's own). Returns
/// `nlp_calls`.
fn report_counts<X>(
    set: &LfSet<X>,
    matrix: &LabelMatrix,
    degraded: u64,
    telemetry: Option<&Telemetry>,
    mut job: Option<&mut CounterSnapshot>,
) -> u64 {
    let nlp_calls = matrix.num_examples() as u64 * u64::from(set.needs_nlp());
    if telemetry.is_none() && job.is_none() {
        return nlp_calls;
    }
    let mut votes = vec![0u64; set.len()];
    for row in matrix.raw().chunks_exact(set.len().max(1)) {
        for (n, &v) in votes.iter_mut().zip(row) {
            *n += u64::from(v != 0);
        }
    }
    for (lf, n) in set.lfs().iter().zip(votes) {
        let name = &lf.metadata().name;
        if let Some(m) = telemetry.map(Telemetry::metrics) {
            m.counter(&format!("votes/{name}")).add(n);
            if lf.needs_nlp() {
                m.counter(&format!("lf/{name}/degraded")).add(degraded);
            }
        }
        if let Some(job) = job.as_deref_mut().filter(|_| n > 0) {
            job.add(&format!("votes/{name}"), n);
        }
    }
    if let Some(job) = job.filter(|_| nlp_calls > 0) {
        job.add("nlp_calls", nlp_calls);
    }
    nlp_calls
}

/// Most rows in one unit of in-memory work (see
/// [`execute_in_memory_observed`]).
const BLOCK_ROWS: usize = 256;

/// Run every LF over every example with `workers` threads, producing the
/// label matrix `Λ` with rows in example order.
///
/// Returns an error if an NLP or word LF is present but the set has no
/// text extractor, or if a worker fails. This is the uninstrumented fast
/// path; see [`execute_in_memory_observed`] for caching and telemetry.
pub fn execute_in_memory<X: Sync>(
    set: &LfSet<X>,
    text: Option<&TextExtractor<X>>,
    examples: &[X],
    workers: usize,
) -> Result<(LabelMatrix, ExecutionStats), DataflowError> {
    execute_in_memory_observed(set, text, examples, workers, &ExecOptions::default())
}

/// [`execute_in_memory`] with observability knobs: an optional node-shared
/// NLP memo table and an optional [`Telemetry`] sink.
pub fn execute_in_memory_observed<X: Sync>(
    set: &LfSet<X>,
    text: Option<&TextExtractor<X>>,
    examples: &[X],
    workers: usize,
    opts: &ExecOptions,
) -> Result<(LabelMatrix, ExecutionStats), DataflowError> {
    check_text(set, text)?;
    let shards = opts.telemetry.as_ref().map(|t| LfShards::for_set(set, t));
    let shared_cache = build_shared_cache(set, opts)?;
    let _span = opts.telemetry.as_ref().map(|t| t.span("lf_exec/in_memory"));
    let start = Instant::now();
    let nlp_degraded = std::sync::atomic::AtomicU64::new(0);
    // The matrix's own buffer, filled in place. A `par_map_vec` item is a
    // block of examples with its stretch of the buffer, behind a mutex
    // that only the worker given the block ever takes; blocks are short so
    // that a failure elsewhere stops a worker soon, and no longer than an
    // even share so that a small input still splits across the workers.
    let width = set.len();
    let mut votes = vec![0i8; width * examples.len()];
    let block = examples.len().div_ceil(workers.max(1)).clamp(1, BLOCK_ROWS);
    let blocks: Vec<(&[X], Mutex<&mut [i8]>)> = examples
        .chunks(block)
        .zip(votes.chunks_mut(block * width.max(1)).map(Mutex::new))
        .collect();
    par_map_vec(
        &blocks,
        workers,
        // One model server per worker (or one shared memo table per
        // node), warmed up before any record, plus the worker's local
        // telemetry shard (flushed when the worker retires).
        |_worker| {
            let obs = shards.as_ref().map(|s| s.worker());
            LfWorker::new(set, text, opts, &shared_cache, obs)
        },
        |worker: &mut LfWorker<'_, X>, (examples, votes)| {
            // Bytes have no invalid state for a panicked holder to leave,
            // and a failed run drops the buffer anyway.
            let mut votes = votes.lock().unwrap_or_else(PoisonError::into_inner);
            for (x, row) in examples.iter().zip(votes.chunks_mut(width)) {
                if worker.label(x, row)? {
                    nlp_degraded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            Ok(())
        },
    )?;
    drop(blocks);
    // A set with no LFs labels nothing: an empty matrix of width 0, which
    // `from_raw` (rightly) refuses to make out of data.
    let matrix = if width == 0 {
        LabelMatrix::new(0)
    } else {
        LabelMatrix::from_raw(width, votes).map_err(|e| DataflowError::user(e.to_string()))?
    };
    let cache = shared_cache.as_ref().map(|c| c.stats());
    if let (Some(t), Some(c)) = (&opts.telemetry, &shared_cache) {
        c.export_to(t.metrics());
    }
    let nlp_degraded = nlp_degraded.into_inner();
    let stats = ExecutionStats {
        examples: examples.len(),
        seconds: start.elapsed().as_secs_f64(),
        nlp_calls: report_counts(set, &matrix, nlp_degraded, opts.telemetry.as_ref(), None),
        nlp_degraded,
        cache,
    };
    if let Some(journal) = opts.telemetry.as_ref().and_then(Telemetry::journal) {
        stats.emit_to(journal);
    }
    Ok((matrix, stats))
}

/// One labeled example flowing out of the sharded pipeline: the example's
/// id and its vote row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRow {
    /// Caller-assigned example id (used to restore global order).
    pub id: u64,
    /// One vote per LF, in LF-set column order.
    pub votes: Vec<i8>,
}

impl Record for VoteRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.id);
        codec::put_varint(buf, self.votes.len() as u64);
        // Bias i8 {-1,0,1} into u8 {0,1,2} for compact single bytes.
        buf.extend(self.votes.iter().map(|&v| (v + 1) as u8));
    }

    fn decode(buf: &mut &[u8]) -> Result<VoteRow, CodecError> {
        let id = codec::get_varint(buf)?;
        let len = codec::get_varint(buf)? as usize;
        let (body, rest) = match (buf.get(..len), buf.get(len..)) {
            (Some(body), Some(rest)) => (body, rest),
            _ => return Err(CodecError::UnexpectedEof),
        };
        let mut votes = Vec::with_capacity(len);
        for &b in body {
            if b > 2 {
                return Err(CodecError::InvalidTag(b));
            }
            votes.push(b as i8 - 1);
        }
        *buf = rest;
        Ok(VoteRow { id, votes })
    }
}

/// Run an LF set shard-to-shard over the dataflow engine.
///
/// `id_of` assigns each input record a unique id so the returned matrix's
/// rows can be ordered by id regardless of shard layout. The votes are
/// also durably written to `output` as [`VoteRow`] records — downstream
/// stages (the generative model, audits) read them from there, matching
/// the paper's file-based decoupling of pipeline stages.
pub fn execute_sharded<X>(
    set: &LfSet<X>,
    text: Option<&TextExtractor<X>>,
    input: &ShardSpec,
    output: &ShardSpec,
    cfg: &JobConfig,
    id_of: impl Fn(&X) -> u64 + Sync,
) -> Result<(LabelMatrix, JobStats), DataflowError>
where
    X: Record + Sync,
{
    let (matrix, job, _) = execute_sharded_observed(
        set,
        text,
        input,
        output,
        cfg,
        id_of,
        &ExecOptions::default(),
    )?;
    Ok((matrix, job))
}

/// [`execute_sharded`] with observability knobs (see [`ExecOptions`]).
///
/// Returns the run's [`ExecutionStats`] beside the job's: the same figures
/// [`execute_in_memory_observed`] reports, journaled as the same
/// `lf_execution` event. With a cache enabled, its final [`CacheStats`]
/// are also surfaced as the job counters `nlp_cache/hits`,
/// `nlp_cache/misses`, and `nlp_cache/evictions` alongside the
/// `nlp_calls` and `votes/<lf>` counters read off Λ.
pub fn execute_sharded_observed<X>(
    set: &LfSet<X>,
    text: Option<&TextExtractor<X>>,
    input: &ShardSpec,
    output: &ShardSpec,
    cfg: &JobConfig,
    id_of: impl Fn(&X) -> u64 + Sync,
    opts: &ExecOptions,
) -> Result<(LabelMatrix, JobStats, ExecutionStats), DataflowError>
where
    X: Record + Sync,
{
    check_text(set, text)?;
    let start = Instant::now();
    // `lf/<name>/degraded` job-counter names for the NLP LFs, interned
    // once: the per-record loop below must not allocate them.
    let degraded_names: Vec<String> = set
        .lfs()
        .iter()
        .filter(|lf| lf.needs_nlp())
        .map(|lf| format!("lf/{}/degraded", lf.metadata().name))
        .collect();
    let shards = opts.telemetry.as_ref().map(|t| LfShards::for_set(set, t));
    let shared_cache = build_shared_cache(set, opts)?;
    let _span = opts.telemetry.as_ref().map(|t| t.span("lf_exec/sharded"));
    // The dataflow layer reads `JobConfig::telemetry` for its `job/map`
    // and `job/shard_attempt` spans and its `phase`, `shard_attempt` and
    // `job` events; callers attach the sink via `ExecOptions`, so mirror
    // it onto the job config here — otherwise the run has none of them.
    let observed_cfg;
    let cfg = match (&cfg.telemetry, &opts.telemetry) {
        (None, Some(t)) => {
            observed_cfg = cfg.clone().with_telemetry(t.clone());
            &observed_cfg
        }
        _ => cfg,
    };
    let mut stats = par_map_shards(
        input,
        output,
        cfg,
        |_ctx| {
            let obs = shards.as_ref().map(|s| s.worker());
            let worker = LfWorker::new(set, text, opts, &shared_cache, obs)?;
            // One row per worker, overwritten by each record.
            let votes = vec![0; set.len()];
            Ok((worker, VoteRow { id: 0, votes }))
        },
        |(worker, row): &mut (LfWorker<'_, X>, VoteRow),
         x: X,
         emit,
         counters: &mut CounterHandle| {
            // The one count made per record: counted through the attempt's
            // handle, it counts once however often the shard is retried.
            if worker.label(&x, &mut row.votes)? {
                for name in &degraded_names {
                    counters.inc(name);
                }
            }
            row.id = id_of(&x);
            emit.emit(row)
        },
    )?;
    let cache = shared_cache.as_ref().map(|c| c.stats());
    if let (Some(shared), Some(cs)) = (&shared_cache, cache) {
        stats.counters.add("nlp_cache/hits", cs.hits);
        stats.counters.add("nlp_cache/misses", cs.misses);
        stats.counters.add("nlp_cache/evictions", cs.evictions);
        if let Some(t) = &opts.telemetry {
            shared.export_to(t.metrics());
        }
    }
    // Assemble the matrix in id order.
    let mut rows: Vec<VoteRow> = drybell_dataflow::read_all(output)?;
    rows.sort_by_key(|r| r.id);
    let mut matrix = LabelMatrix::with_capacity(set.len(), rows.len());
    for row in &rows {
        matrix
            .push_raw_row(&row.votes)
            .map_err(|e| DataflowError::user(e.to_string()))?;
    }
    // Counted once per example through the attempts' handles, so a
    // retried shard counts once.
    let nlp_degraded = degraded_names.first().map_or(0, |n| stats.counters.get(n));
    let telemetry = opts.telemetry.as_ref();
    let counters = Some(&mut stats.counters);
    let lf_stats = ExecutionStats {
        examples: matrix.num_examples(),
        seconds: start.elapsed().as_secs_f64(),
        nlp_calls: report_counts(set, &matrix, nlp_degraded, telemetry, counters),
        nlp_degraded,
        cache,
    };
    if let Some(journal) = telemetry.and_then(Telemetry::journal) {
        stats.emit_to(journal);
        lf_stats.emit_to(journal);
    }
    Ok((matrix, stats, lf_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lf, LfCategory};
    use drybell_core::Vote;
    use drybell_dataflow::write_all;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Doc = (u64, String);

    fn doc_set() -> LfSet<Doc> {
        LfSet::new()
            .with(Lf::plain(
                "has_good",
                LfCategory::ContentHeuristic,
                true,
                |d: &Doc| {
                    if d.1.contains("good") {
                        Vote::Positive
                    } else {
                        Vote::Abstain
                    }
                },
            ))
            .with(Lf::plain(
                "has_bad",
                LfCategory::ContentHeuristic,
                true,
                |d: &Doc| {
                    if d.1.contains("bad") {
                        Vote::Negative
                    } else {
                        Vote::Abstain
                    }
                },
            ))
            .with(Lf::nlp("mentions_person", |_d: &Doc, nlp| {
                if nlp.people().is_empty() {
                    Vote::Negative
                } else {
                    Vote::Positive
                }
            }))
    }

    fn extractor() -> TextExtractor<Doc> {
        Arc::new(|d: &Doc| d.1.clone())
    }

    fn docs() -> Vec<Doc> {
        vec![
            (0, "a good day with Alice Johnson".into()),
            (1, "a bad day".into()),
            (2, "nothing notable".into()),
            (3, "good and bad together".into()),
        ]
    }

    #[test]
    fn in_memory_matches_expected_votes() {
        let set = doc_set();
        let ext = extractor();
        let (matrix, stats) = execute_in_memory(&set, Some(&ext), &docs(), 3).unwrap();
        assert_eq!(matrix.num_examples(), 4);
        assert_eq!(matrix.num_lfs(), 3);
        assert_eq!(matrix.row(0), &[1, 0, 1]); // good + Alice Johnson
        assert_eq!(matrix.row(1), &[0, -1, -1]);
        assert_eq!(matrix.row(2), &[0, 0, -1]);
        assert_eq!(matrix.row(3), &[1, -1, -1]);
        assert_eq!(stats.examples, 4);
        assert_eq!(stats.nlp_calls, 4);
        assert!(stats.throughput() > 0.0);
    }

    /// `n` documents cycling through [`docs`]' texts, ids `0..n`.
    fn many_docs(n: u64) -> Vec<Doc> {
        let texts = docs();
        (0..n)
            .map(|i| (i, texts[i as usize % texts.len()].1.clone()))
            .collect()
    }

    #[test]
    fn empty_inputs_keep_their_answers() {
        let ext = extractor();
        // No examples: a matrix of the set's width with no rows, and no
        // worker is even started.
        let (matrix, stats) = execute_in_memory(&doc_set(), Some(&ext), &[], 3).unwrap();
        assert_eq!(matrix, LabelMatrix::with_capacity(3, 0));
        assert_eq!((matrix.num_lfs(), matrix.num_examples()), (3, 0));
        assert_eq!((stats.examples, stats.nlp_calls), (0, 0));
        // No LFs: the empty matrix of width 0 that pushing empty rows
        // used to leave (`from_raw` would refuse to build it).
        let (matrix, stats) = execute_in_memory(&LfSet::new(), None, &docs(), 2).unwrap();
        assert_eq!(matrix, LabelMatrix::new(0));
        assert_eq!((matrix.num_lfs(), matrix.num_examples()), (0, 0));
        assert_eq!(matrix.rows().count(), 0);
        assert_eq!((stats.examples, stats.nlp_calls), (4, 0));
        // No LFs through the sharded path: every record is read, and the
        // matrix is the same width-0 one with no rows.
        let dir = tempfile::tempdir().unwrap();
        let input = ShardSpec::new(dir.path(), "docs", 2);
        write_all(&input, &docs()).unwrap();
        let output = input.derive("votes");
        let cfg = JobConfig::new("lf-exec").with_workers(2);
        let (matrix, stats) =
            execute_sharded(&LfSet::new(), None, &input, &output, &cfg, |d: &Doc| d.0).unwrap();
        assert_eq!(matrix, LabelMatrix::new(0));
        assert_eq!((matrix.num_lfs(), matrix.num_examples()), (0, 0));
        assert_eq!(matrix.rows().count(), 0);
        assert_eq!(stats.records_in, 4);
    }

    #[test]
    fn a_failure_on_a_late_row_returns_no_partial_matrix() {
        // 700 rows are three blocks at one worker, and row 650 is in the
        // last block whichever worker gets it.
        let corpus = many_docs(700);
        let mut set = doc_set();
        set.push(Lf::plain(
            "panics_late",
            LfCategory::ContentHeuristic,
            true,
            |d: &Doc| {
                assert!(d.0 != 650, "boom at row {}", d.0);
                Vote::Abstain
            },
        ));
        let ext = extractor();
        for workers in [1, 2, 3] {
            match execute_in_memory(&set, Some(&ext), &corpus, workers) {
                Err(DataflowError::WorkerPanicked { message, .. }) => {
                    assert!(message.contains("boom at row 650"), "{message}");
                }
                other => panic!("{workers} worker(s): {:?}", other.map(|(m, _)| m)),
            }
        }
        // An LF whose feature space was never wired is an error, not a
        // panic, from whichever row meets it first.
        let mut set = doc_set();
        set.push(Lf::graph("needs_a_graph", false, |_: &Doc, _| {
            Vote::Positive
        }));
        for workers in [1, 2] {
            let err = execute_in_memory(&set, Some(&ext), &corpus, workers).unwrap_err();
            assert!(
                matches!(&err, DataflowError::User(m) if m.contains("needs_a_graph")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn in_memory_requires_extractor_for_nlp() {
        let set = doc_set();
        let err = execute_in_memory(&set, None, &docs(), 2);
        assert!(matches!(err, Err(DataflowError::BadJob(_))));
    }

    #[test]
    fn plain_only_set_skips_nlp() {
        let mut set: LfSet<Doc> = LfSet::new();
        set.push(Lf::plain(
            "always_pos",
            LfCategory::SourceHeuristic,
            true,
            |_| Vote::Positive,
        ));
        let (matrix, stats) = execute_in_memory(&set, None, &docs(), 2).unwrap();
        assert_eq!(stats.nlp_calls, 0);
        assert!(matrix.rows().all(|r| r == [1]));
    }

    #[test]
    fn sharded_matches_in_memory() {
        let set = doc_set();
        let ext = extractor();
        let corpus = docs();
        let (mem_matrix, _) = execute_in_memory(&set, Some(&ext), &corpus, 2).unwrap();

        let dir = tempfile::tempdir().unwrap();
        let input = ShardSpec::new(dir.path(), "docs", 2);
        write_all(&input, &corpus).unwrap();
        let output = input.derive("votes");
        let cfg = JobConfig::new("lf-exec").with_workers(2);
        let (shard_matrix, stats) =
            execute_sharded(&set, Some(&ext), &input, &output, &cfg, |d| d.0).unwrap();
        assert_eq!(shard_matrix, mem_matrix);
        assert_eq!(stats.records_in, 4);
        assert_eq!(stats.counters.get("nlp_calls"), 4);
        assert_eq!(stats.counters.get("votes/has_good"), 2);
    }

    #[test]
    fn cached_in_memory_matches_uncached() {
        let set = doc_set();
        let ext = extractor();
        // Duplicate the corpus so the memo table can actually hit.
        let mut corpus = docs();
        corpus.extend(docs());
        let (plain, _) = execute_in_memory(&set, Some(&ext), &corpus, 3).unwrap();
        let opts = ExecOptions::new().with_nlp_cache(64);
        for workers in [1, 3] {
            let (cached, stats) =
                execute_in_memory_observed(&set, Some(&ext), &corpus, workers, &opts).unwrap();
            assert_eq!(cached, plain);
            let cache = stats.cache.expect("cache stats present");
            assert_eq!(cache.hits + cache.misses, 8);
            assert_eq!(stats.nlp_calls, 8, "requests counted, not model runs");
            // Concurrent workers can each be handed one copy of a text and
            // both miss, so only the sequential run has a hit floor.
            if workers == 1 {
                assert!(cache.hits >= 4, "duplicated corpus must hit the memo table");
            }
        }
    }

    #[test]
    fn telemetry_records_votes_latency_and_journal() {
        let set = doc_set();
        let ext = extractor();
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        let telemetry = Telemetry::with_journal(journal);
        let opts = ExecOptions::new()
            .with_nlp_cache(16)
            .with_telemetry(telemetry.clone());
        let (_, stats) = execute_in_memory_observed(&set, Some(&ext), &docs(), 2, &opts).unwrap();
        let snap = telemetry.metrics().snapshot();
        // Per-LF vote counters match the known matrix from
        // `in_memory_matches_expected_votes`.
        assert_eq!(snap.counter("votes/has_good"), 2);
        assert_eq!(snap.counter("votes/has_bad"), 2);
        assert_eq!(snap.counter("votes/mentions_person"), 4);
        // Per-LF latency histograms saw one sample per example.
        for lf in ["has_good", "has_bad", "mentions_person"] {
            let hist = snap
                .histogram(&format!("obs/lf/{lf}/eval_us"))
                .unwrap_or_else(|| panic!("missing histogram for {lf}"));
            assert_eq!(hist.count(), 4);
        }
        // The model server ran once per distinct text (cache misses only).
        assert_eq!(snap.counter("nlp_calls"), stats.cache.unwrap().misses);
        // Cache gauges exported.
        assert_eq!(snap.gauge("nlp_cache/misses"), 4);
        // The span closed and the journal captured the run.
        assert!(telemetry
            .spans()
            .snapshot()
            .get("lf_exec/in_memory")
            .is_some());
        let events = buffer.parsed_lines().unwrap();
        let exec = events
            .iter()
            .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("lf_execution"))
            .expect("lf_execution event");
        assert_eq!(exec.get("examples").and_then(|v| v.as_i64()), Some(4));
    }

    #[test]
    fn sharded_cache_stats_become_job_counters() {
        let set = doc_set();
        let ext = extractor();
        let mut corpus = docs();
        corpus.extend(docs()); // ids repeat; votes identical so matrix rows dedupe-safe
        let corpus: Vec<Doc> = corpus
            .into_iter()
            .enumerate()
            .map(|(i, (_, text))| (i as u64, text))
            .collect();
        let dir = tempfile::tempdir().unwrap();
        let input = ShardSpec::new(dir.path(), "docs", 2);
        write_all(&input, &corpus).unwrap();
        let cfg = JobConfig::new("lf-exec-uncached").with_workers(2);
        let output = input.derive("votes-uncached");
        let (plain, _) = execute_sharded(&set, Some(&ext), &input, &output, &cfg, |d| d.0).unwrap();
        let opts = ExecOptions::new().with_nlp_cache(64);
        for workers in [1, 2] {
            let output = input.derive(format!("votes-{workers}w"));
            let cfg = JobConfig::new("lf-exec-cached").with_workers(workers);
            let (matrix, stats, _) =
                execute_sharded_observed(&set, Some(&ext), &input, &output, &cfg, |d| d.0, &opts)
                    .unwrap();
            assert_eq!(matrix, plain);
            assert_eq!(matrix.num_examples(), 8);
            assert_eq!(stats.counters.get("nlp_calls"), 8);
            let hits = stats.counters.get("nlp_cache/hits");
            let misses = stats.counters.get("nlp_cache/misses");
            assert_eq!(hits + misses, 8);
            // As above: only the sequential run has a hit floor.
            if workers == 1 {
                assert!(hits >= 4);
            }
            assert_eq!(stats.counters.get("votes/has_good"), 4);
        }
    }

    #[test]
    fn in_memory_degrades_to_abstain_when_nlp_fails() {
        let set = doc_set();
        let ext = extractor();
        // Fail the NLP call for doc 0 only; plain LFs keep voting, the
        // NLP LF abstains instead of erroring on the missing annotation.
        let plan = FaultPlan::seeded(4).fail_nlp_text("a good day with Alice Johnson");
        let opts = ExecOptions::new().with_nlp_faults(plan);
        let (matrix, stats) =
            execute_in_memory_observed(&set, Some(&ext), &docs(), 2, &opts).unwrap();
        assert_eq!(
            matrix.row(0),
            &[1, 0, 0],
            "NLP LF must abstain, plain LFs vote"
        );
        assert_eq!(matrix.row(1), &[0, -1, -1], "healthy examples unchanged");
        assert_eq!(stats.nlp_degraded, 1);
        assert_eq!(stats.nlp_calls, 4, "the failed request still counts");
    }

    #[test]
    fn degraded_lf_counter_is_recorded() {
        let set = doc_set();
        let ext = extractor();
        let plan = FaultPlan::seeded(4).fail_nlp_text("a bad day");
        let telemetry = Telemetry::new();
        let opts = ExecOptions::new()
            .with_nlp_faults(plan)
            .with_telemetry(telemetry.clone());
        let (matrix, stats) =
            execute_in_memory_observed(&set, Some(&ext), &docs(), 2, &opts).unwrap();
        assert_eq!(matrix.row(1), &[0, -1, 0]);
        assert_eq!(stats.nlp_degraded, 1);
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("lf/mentions_person/degraded"), 1);
        // Only the NLP LF degrades; plain LFs never do.
        assert_eq!(snap.counter("lf/has_good/degraded"), 0);
        // The degraded example still contributes its plain votes.
        assert_eq!(snap.counter("votes/has_bad"), 2);
    }

    #[test]
    fn sharded_degrades_and_counts_per_lf() {
        let set = doc_set();
        let ext = extractor();
        let corpus = docs();
        let dir = tempfile::tempdir().unwrap();
        let input = ShardSpec::new(dir.path(), "docs", 2);
        write_all(&input, &corpus).unwrap();
        let output = input.derive("votes");
        let cfg = JobConfig::new("lf-exec-degraded").with_workers(2);
        let plan = FaultPlan::seeded(4).fail_nlp_text("a good day with Alice Johnson");
        let opts = ExecOptions::new().with_nlp_faults(plan);
        let (matrix, stats, lf_stats) =
            execute_sharded_observed(&set, Some(&ext), &input, &output, &cfg, |d| d.0, &opts)
                .unwrap();
        assert_eq!(lf_stats.nlp_degraded, 1);
        assert_eq!(matrix.row(0), &[1, 0, 0]);
        assert_eq!(matrix.row(3), &[1, -1, -1], "healthy rows unchanged");
        assert_eq!(stats.counters.get("lf/mentions_person/degraded"), 1);
        assert_eq!(stats.counters.get("lf/has_good/degraded"), 0);
        assert_eq!(stats.counters.get("nlp_calls"), 4);
    }

    /// [`doc_set`] plus an LF that votes on even ids and, when `armed`,
    /// panics the first time it meets row 150 (a transient failure in the
    /// middle of that row's shard).
    fn set_with_tripwire(armed: bool) -> LfSet<Doc> {
        let tripped = std::sync::atomic::AtomicBool::new(!armed);
        doc_set().with(Lf::plain(
            "even_id",
            LfCategory::ContentHeuristic,
            true,
            move |d: &Doc| {
                let trips = d.0 == 150 && !tripped.swap(true, std::sync::atomic::Ordering::SeqCst);
                assert!(!trips, "transient failure at row 150");
                if d.0.is_multiple_of(2) {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
    }

    #[test]
    fn sharded_job_counters_are_exact_under_retry() {
        let corpus = many_docs(300);
        let ext = extractor();
        let run = |set: &LfSet<Doc>, cfg: &JobConfig, opts: &ExecOptions| {
            let dir = tempfile::tempdir().unwrap();
            let input = ShardSpec::new(dir.path(), "docs", 6);
            write_all(&input, &corpus).unwrap();
            let output = input.derive("votes");
            execute_sharded_observed(set, Some(&ext), &input, &output, cfg, |d| d.0, opts).unwrap()
        };
        let set = set_with_tripwire(false);
        let plain = ExecOptions::new();
        let (clean_matrix, clean, _) = run(&set, &JobConfig::new("clean").with_workers(2), &plain);
        // Task-level faults cost an attempt before it counts anything;
        // the tripwire kills one after 25 rows of shard 0 were counted.
        let plan = FaultPlan::seeded(7)
            .with_map_error_rate(0.3)
            .with_map_panic_rate(0.2)
            .fail_task(drybell_dataflow::FaultSite::Map, 3, 0);
        let cfg = JobConfig::new("chaos")
            .with_workers(2)
            .with_max_attempts(3)
            .with_fault_plan(plan);
        let (matrix, stats, _) = run(&set_with_tripwire(true), &cfg, &plain);
        assert_eq!(matrix, clean_matrix);
        assert!(stats.counters.get("dataflow/retries") >= 2);
        assert_eq!(clean.counters.get("nlp_calls"), 300);
        assert_eq!(stats.counters.get("nlp_calls"), 300);
        let mut votes = 0;
        for name in set.names() {
            let counter = format!("votes/{name}");
            assert_eq!(
                stats.counters.get(&counter),
                clean.counters.get(&counter),
                "{counter}"
            );
            votes += stats.counters.get(&counter);
        }
        let cells = matrix.raw().iter().filter(|&&v| v != 0).count();
        assert_eq!(votes, cells as u64);

        // The same chaos job observed, with one text's annotations
        // failing: its telemetry counts are the job's, not one per attempt,
        // and its votes add up to Λ's non-abstain cells.
        let telemetry = Telemetry::new();
        let outage = FaultPlan::seeded(4).fail_nlp_text("nothing notable");
        let opts = ExecOptions::new()
            .with_telemetry(telemetry.clone())
            .with_nlp_faults(outage);
        let (matrix, stats, lf_stats) = run(&set_with_tripwire(true), &cfg, &opts);
        assert!(stats.counters.get("dataflow/retries") >= 2);
        assert_eq!(stats.counters.get("lf/mentions_person/degraded"), 75);
        assert_eq!(lf_stats.nlp_degraded, 75, "a retried shard counts once");
        let snap = telemetry.metrics().snapshot();
        let mut votes = 0;
        for name in set.names() {
            for counter in [format!("votes/{name}"), format!("lf/{name}/degraded")] {
                assert_eq!(
                    snap.counter(&counter),
                    stats.counters.get(&counter),
                    "{counter}"
                );
            }
            votes += snap.counter(&format!("votes/{name}"));
        }
        let cells = matrix.raw().iter().filter(|&&v| v != 0).count();
        assert_eq!(votes, cells as u64);
    }

    #[test]
    fn degraded_examples_hit_the_cache_shield() {
        let set = doc_set();
        let ext = extractor();
        // Duplicate the corpus. Healthy texts are answered from the memo
        // table on their second pass; the poisoned text never enters the
        // cache (failures are not memoized), so both of its requests
        // degrade.
        let mut corpus = docs();
        corpus.extend(docs());
        let plan = FaultPlan::seeded(4).fail_nlp_text("nothing notable");
        let opts = ExecOptions::new().with_nlp_cache(64).with_nlp_faults(plan);
        let (matrix, stats) =
            execute_in_memory_observed(&set, Some(&ext), &corpus, 1, &opts).unwrap();
        assert_eq!(
            stats.nlp_degraded, 2,
            "failures are never cached; both degrade"
        );
        assert_eq!(matrix.row(2), &[0, 0, 0]);
        assert_eq!(matrix.row(6), &[0, 0, 0]);
        // Healthy duplicated texts hit the memo table.
        assert!(stats.cache.unwrap().hits >= 3);
    }

    #[test]
    fn vote_row_record_roundtrip() {
        let row = VoteRow {
            id: 77,
            votes: vec![-1, 0, 1, 1, -1],
        };
        let buf = codec::encode_record(&row);
        let back: VoteRow = codec::decode_record(&buf).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn vote_row_rejects_bad_bytes() {
        let row = VoteRow {
            id: 1,
            votes: vec![0],
        };
        let mut buf = codec::encode_record(&row);
        let idx = buf.len() - 1;
        buf[idx] = 9; // invalid vote byte
        assert!(matches!(
            codec::decode_record::<VoteRow>(&buf),
            Err(CodecError::InvalidTag(9))
        ));
    }

    #[test]
    fn prop_vote_row_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let id = rng.gen();
            let votes = (0..rng.gen_range(0..40))
                .map(|_| rng.gen_range(-1i8..=1))
                .collect();
            let row = VoteRow { id, votes };
            let buf = codec::encode_record(&row);
            assert_eq!(codec::decode_record::<VoteRow>(&buf).unwrap(), row);
        }
    }

    #[test]
    fn prop_workers_do_not_change_results() {
        let set = doc_set();
        let ext = extractor();
        let (reference, _) = execute_in_memory(&set, Some(&ext), &docs(), 1).unwrap();
        // More than one block of rows, the last one short.
        let corpus = many_docs(2 * BLOCK_ROWS as u64 + 89);
        // Every worker count from 1 to 7, three times over: a result that
        // hangs on thread timing gets more than one chance to show.
        for workers in (1..8).cycle().take(21) {
            let (matrix, _) = execute_in_memory(&set, Some(&ext), &docs(), workers).unwrap();
            assert_eq!(matrix, reference);
            let (matrix, _) = execute_in_memory(&set, Some(&ext), &corpus, workers).unwrap();
            assert_eq!(matrix.num_examples(), corpus.len());
            for (i, row) in matrix.rows().enumerate() {
                assert_eq!((i, row), (i, reference.row(i % 4)));
            }
        }
    }
}
