//! `topic_stream` — the topic task arriving as a stream of small shards.
//!
//! The same `lf` and `nlp` layers as `product_batch`, used the other way
//! round: hundreds of 500-document calls instead of one 325K-document job,
//! so what each call costs before its first document (worker threads, a
//! model server built and warmed per worker, a fresh memo table) decides
//! the result. A quarter of the documents are re-crawls of one of the
//! previous 2048, the input sharing a memo table exists for.
//!
//! Phase 1 is an open loop: shards encoded during set-up are renamed into
//! the spool on a fixed schedule, and a shard's freshness runs from the
//! moment it was due to the moment its posteriors exist. Phase 2 commits a
//! backlog at once and drains it flat out.

use crate::common::{
    checksum_f64, checksum_votes, err, timed_setup, Check, Mark, Outcome, PhaseRate, Run, Size,
    SplitMix64, WORKERS,
};
use crate::stats::{self, Reps};
use drybell_core::generative::{GenerativeModel, IncrementalState, TrainConfig};
use drybell_core::vote::Label;
use drybell_dataflow::{ShardReader, ShardWriter, StreamIngestor};
use drybell_datagen::topic::{self, TopicDoc, TopicTaskConfig};
use drybell_lf::executor::{execute_in_memory_observed, ExecOptions, TextExtractor};
use drybell_lf::LfSet;
use drybell_ml::metrics::BinaryMetrics;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Documents per shard.
const SHARD_DOCS: usize = 500;
/// Open-loop arrival rate, shards per second (about 40% of what the
/// consumer sustained on the two-core host the sizes were chosen on).
const SHARDS_PER_S: f64 = 16.0;
/// Share of `--seconds` the open loop runs for; the drain takes the rest.
const OPEN_LOOP_SHARE: f64 = 0.8;
/// Segments the open loop's freshness samples are cut into for the noise
/// record (21 shards, 1.3 s each at the default `--seconds`).
const NOISE_SEGMENTS: usize = 12;
/// Shards per slice of the drain phase (about half a second).
const DRAIN_SLICE_SHARDS: usize = 20;
/// Shards committed at once for the drain phase.
const DRAIN_SHARDS: usize = 200;
/// One document in four is a re-crawl …
const REEMIT_ONE_IN: usize = 4;
/// … of one of this many preceding documents.
const REEMIT_WINDOW: usize = 2048;
/// Memo-table capacity handed to the executor.
const NLP_CACHE: usize = 4096;
/// Gradient steps folded into the label model per shard.
const FOLD_STEPS: usize = 200;
/// How long the consumer naps when a poll finds nothing.
const IDLE_NAP: Duration = Duration::from_micros(500);
/// How long the consumer waits for a shard before calling the stream
/// stalled (a producer that failed must not hang the run).
const STALL: Duration = Duration::from_secs(20);
/// Lowest F1 of the streamed posteriors against gold at full size; seeds
/// 11 to 15 gave 0.89 to 0.92.
const F1_FLOOR: f64 = 0.7;

fn fold_config(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: FOLD_STEPS,
        batch_size: 256,
        class_prior: 0.5,
        seed,
        ..TrainConfig::default()
    }
}

fn shard_name(index: usize) -> String {
    format!("shard-{index:06}.rec")
}

/// What set-up builds: the LF set and the stream, already encoded.
struct Inputs {
    set: LfSet<TopicDoc>,
    text: TextExtractor<TopicDoc>,
    /// Committed shard files waiting outside the spool, in stream order.
    staged: Vec<PathBuf>,
    /// Gold label of every streamed document, in stream order.
    gold: Vec<bool>,
    generate_s: f64,
}

fn build_inputs(run: &Run<'_>, shards: usize) -> Result<Inputs, String> {
    // Decide the stream's shape first, so exactly as many fresh documents
    // are generated as it needs.
    let total = shards * SHARD_DOCS;
    let mut rng = SplitMix64(run.seed);
    let mut fresh = 0_usize;
    // `source[i]` is the index of the fresh document stream position `i`
    // carries: a new one, or a copy of a recent position's.
    let mut source = Vec::with_capacity(total);
    for i in 0..total {
        if i > 0 && rng.below(REEMIT_ONE_IN) == 0 {
            let back = 1 + rng.below(REEMIT_WINDOW.min(i));
            source.push(source[i - back]);
        } else {
            source.push(fresh);
            fresh += 1;
        }
    }

    let start = Instant::now();
    let ds = topic::generate(&TopicTaskConfig {
        num_unlabeled: fresh,
        num_dev: 0,
        num_test: 0,
        seed: run.seed,
        ..TopicTaskConfig::paper()
    });
    let generate_s = start.elapsed().as_secs_f64();

    let dir = run.work.fresh_subdir("staged")?;
    let mut staged = Vec::with_capacity(shards);
    for (index, docs) in source.chunks(SHARD_DOCS).enumerate() {
        let path = dir.join(shard_name(index));
        let mut writer = ShardWriter::<TopicDoc>::create(&path).map_err(err)?;
        for &doc in docs {
            writer.write(&ds.unlabeled[doc]).map_err(err)?;
        }
        writer.finish().map_err(err)?;
        staged.push(path);
    }
    Ok(Inputs {
        set: topic::lf_set(ds.crawl_table.clone()),
        text: topic::text_extractor(),
        staged,
        gold: source
            .iter()
            .map(|&doc| ds.unlabeled_gold[doc] == Label::Positive)
            .collect(),
        generate_s,
    })
}

/// The consumer: ingestor, label model and everything it has produced.
struct Consumer<'a> {
    run: &'a Run<'a>,
    inputs: &'a Inputs,
    ingestor: StreamIngestor,
    model: GenerativeModel,
    state: IncrementalState,
    config: TrainConfig,
    /// Stream positions delivered, in delivery order.
    delivered: Vec<usize>,
    votes: Vec<i8>,
    posteriors: Vec<f64>,
    docs_in: usize,
    nlp_calls: u64,
    nlp_degraded: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl<'a> Consumer<'a> {
    fn new(run: &'a Run<'a>, inputs: &'a Inputs, spool: &Path) -> Result<Consumer<'a>, String> {
        let config = fold_config(run.seed);
        let mut model = GenerativeModel::new(inputs.set.len(), 0.7);
        let state = model.begin_incremental(&config).map_err(err)?;
        Ok(Consumer {
            run,
            inputs,
            ingestor: StreamIngestor::new(spool),
            model,
            state,
            config,
            delivered: Vec::new(),
            votes: Vec::new(),
            posteriors: Vec::new(),
            docs_in: 0,
            nlp_calls: 0,
            nlp_degraded: 0,
            cache_hits: 0,
            cache_misses: 0,
        })
    }

    /// Poll once and take every arrived shard through to posteriors,
    /// calling `done` with each shard's stream position as it completes.
    /// Returns how many shards arrived.
    fn step(&mut self, mut done: impl FnMut(usize) -> Result<(), String>) -> Result<usize, String> {
        let tracer = self.run.tracer;
        let arrived = tracer
            .timed("dataflow.poll", || self.ingestor.poll())
            .map_err(err)?;
        for shard in &arrived {
            let docs: Vec<TopicDoc> = tracer
                .timed("dataflow.shard_read", || {
                    ShardReader::<TopicDoc>::open(&shard.path)?.collect::<Result<_, _>>()
                })
                .map_err(err)?;
            let options = ExecOptions::new().with_nlp_cache(NLP_CACHE);
            let (matrix, exec) = tracer
                .timed("lf.execute_in_memory", || {
                    execute_in_memory_observed(
                        &self.inputs.set,
                        Some(&self.inputs.text),
                        &docs,
                        WORKERS,
                        &options,
                    )
                })
                .map_err(err)?;
            tracer
                .timed("core.fit_incremental", || {
                    self.model
                        .fit_incremental(&matrix, &self.config, &mut self.state)
                })
                .map_err(err)?;
            let posteriors =
                tracer.timed("core.predict_proba", || self.model.predict_proba(&matrix));

            self.docs_in += docs.len();
            self.nlp_calls += exec.nlp_calls;
            self.nlp_degraded += exec.nlp_degraded;
            if let Some(cache) = exec.cache {
                self.cache_hits += cache.hits;
                self.cache_misses += cache.misses;
            }
            self.votes.extend_from_slice(matrix.raw());
            self.posteriors.extend_from_slice(&posteriors);
            self.delivered.push(shard.sequence as usize);
            done(shard.sequence as usize)?;
        }
        Ok(arrived.len())
    }

    /// Keep stepping until `target` shards in all have been delivered.
    fn consume_until(
        &mut self,
        target: usize,
        mut done: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut last_arrival = Instant::now();
        while self.delivered.len() < target {
            if self.step(&mut done)? > 0 {
                last_arrival = Instant::now();
            } else if last_arrival.elapsed() > STALL {
                return Err(format!(
                    "stream stalled: {} of {target} shards after {STALL:?} without an arrival",
                    self.delivered.len()
                ));
            } else {
                std::thread::sleep(IDLE_NAP);
            }
        }
        Ok(())
    }
}

/// Rename `staged` into `spool`, shard `k` at `start + k·interval`; sleeps
/// until each is due and catches up without spinning when late. Returns
/// how late each commit was, in microseconds.
fn produce(
    staged: &[PathBuf],
    spool: &Path,
    start: Instant,
    interval: Duration,
) -> Result<Vec<f64>, String> {
    let mut late_us = Vec::with_capacity(staged.len());
    for (k, path) in staged.iter().enumerate() {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let name = path.file_name().ok_or("staged shard without a file name")?;
        std::fs::rename(path, spool.join(name)).map_err(err)?;
        late_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
    }
    Ok(late_us)
}

/// Run the workload.
pub fn run(run: &Run<'_>) -> Result<Outcome, String> {
    let open_s = run.size.seconds(OPEN_LOOP_SHARE * run.seconds);
    // At least twenty shards, so the open loop supports a median.
    let open_shards = ((open_s * SHARDS_PER_S).round() as usize).max(20);
    let drain_shards = run.size.count(DRAIN_SHARDS, 4);
    let total_shards = open_shards + drain_shards;
    let (inputs, setup_s) = timed_setup(|| build_inputs(run, total_shards))?;
    let (open_staged, drain_staged) = inputs.staged.split_at(open_shards);

    let spool = run.work.fresh_subdir("spool")?;
    let mut consumer = Consumer::new(run, &inputs, &spool)?;
    let tracer = run.tracer;

    // Phase 1: open loop.
    tracer.set_rep(0);
    let interval = Duration::from_secs_f64(1.0 / SHARDS_PER_S);
    let start = Instant::now() + Duration::from_millis(20);
    let mut freshness_ms = vec![f64::NAN; open_shards];
    let late_us = tracer.timed("bench.open_loop", || {
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| produce(open_staged, &spool, start, interval));
            let consumed = consumer.consume_until(open_shards, |k| {
                let due = start + interval * k as u32;
                if let Some(slot) = freshness_ms.get_mut(k) {
                    *slot = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                }
                Ok(())
            });
            let produced = producer
                .join()
                .map_err(|_| "the producer thread panicked".to_owned())?;
            consumed.and(produced)
        })
    })?;
    let open_elapsed_s = Instant::now().duration_since(start).as_secs_f64();

    // Phase 2: a committed backlog, drained flat out.
    tracer.set_rep(1);
    for path in drain_staged {
        let name = path.file_name().ok_or("staged shard without a file name")?;
        std::fs::rename(path, spool.join(name)).map_err(err)?;
    }
    let mut marks = vec![Mark::now(0)?];
    tracer.timed("bench.drain", || {
        consumer.consume_until(total_shards, |k| {
            let drained = k + 1 - open_shards;
            if drained.is_multiple_of(DRAIN_SLICE_SHARDS) || k + 1 == total_shards {
                marks.push(Mark::now((drained * SHARD_DOCS) as u64)?);
            }
            Ok(())
        })
    })?;
    let drain = PhaseRate::of(&marks).ok_or("the drain phase completed nothing")?;

    let mut out = Outcome {
        setup_s,
        examples_per_s: drain.per_s,
        cpu_us_per_example: drain.cpu_us,
        ..Outcome::default()
    };
    // Percentiles over every shard of the open loop. A smoke-sized open
    // loop is too short to have a p90; it reports its median twice rather
    // than a percentile its sample cannot support.
    let p50 = stats::percentile(&freshness_ms, 50.0);
    let p90 = stats::percentile(&freshness_ms, 90.0);
    out.checks.push(Check::new(
        "the open loop supports its percentiles",
        p50.is_some() && (p90.is_some() || run.size == Size::Smoke),
        format!("{} freshness samples", freshness_ms.len()),
    ));
    out.result_p50_ms = p50.unwrap_or(f64::NAN);
    out.result_tail_ms = p90.or(p50).unwrap_or(f64::NAN);
    let segments = stats::segment_percentiles(&freshness_ms, NOISE_SEGMENTS, 50.0)
        .and_then(|p50s| Reps::of(&p50s));
    out.noise.push((
        "open_loop",
        format!(
            "shards={} scheduled_per_s={} achieved_per_s={:.3} gen_late_p50_us={:.1} \
             gen_late_max_us={:.1} segments={NOISE_SEGMENTS} segment_p50_ms_min={:.3} \
             median={:.3} max={:.3}",
            open_shards,
            SHARDS_PER_S,
            open_shards as f64 / open_elapsed_s,
            stats::median(&late_us).unwrap_or(f64::NAN),
            late_us.iter().copied().fold(0.0, f64::max),
            segments.map_or(f64::NAN, |r| r.min),
            segments.map_or(f64::NAN, |r| r.median),
            segments.map_or(f64::NAN, |r| r.max),
        ),
    ));
    out.noise.push((
        "drain",
        format!(
            "shards={drain_shards} docs={} {}",
            drain_shards * SHARD_DOCS,
            drain.noise()
        ),
    ));

    // Every committed shard exactly once, in stream order, and nothing
    // more on a further poll.
    let in_sequence = consumer.delivered.iter().copied().eq(0..total_shards);
    let extra = consumer.ingestor.poll().map_err(err)?.len();
    out.checks.push(Check::new(
        "every committed shard delivered once, in sequence",
        in_sequence && extra == 0,
        format!(
            "{} of {total_shards} delivered, {extra} re-delivered",
            consumer.delivered.len()
        ),
    ));
    let docs = total_shards * SHARD_DOCS;
    let mut docs_match = Check::probabilities(
        "documents in equal posteriors out",
        &consumer.posteriors,
        docs,
    );
    docs_match.ok &= consumer.docs_in == docs;
    out.checks.push(docs_match);
    let f1 = BinaryMetrics::at_threshold(&consumer.posteriors, &inputs.gold, 0.5 + 1e-9).f1();
    out.checks.push(Check::f1_floor(
        "streamed posteriors clear their F1 floor",
        f1,
        F1_FLOOR,
        run.size,
    ));
    out.checksums = vec![
        ("votes", checksum_votes(&consumer.votes)),
        ("posteriors", checksum_f64(&consumer.posteriors)),
    ];
    out.attempted = total_shards as u64;
    out.failed =
        (total_shards - consumer.delivered.len().min(total_shards)) as u64 + consumer.nlp_degraded;

    if tracer.enabled() {
        let exec_s = tracer.total_s("lf.execute_in_memory");
        let lookups = (consumer.cache_hits + consumer.cache_misses).max(1);
        let nonabstain = consumer.votes.iter().filter(|&&v| v != 0).count();
        let layer = &mut out.layer;
        layer.insert("datagen.generate_s", inputs.generate_s);
        layer.insert(
            "dataflow.stream_poll_us_p50",
            stats::median(&tracer.durations_us("dataflow.poll")).unwrap_or(0.0),
        );
        layer.insert("lf.exec_s", exec_s);
        layer.insert("lf.exec_examples_per_s", docs as f64 / exec_s);
        layer.insert("lf.votes_nonabstain", nonabstain as f64);
        layer.insert("nlp.calls", consumer.nlp_calls as f64);
        layer.insert("nlp.degraded", consumer.nlp_degraded as f64);
        layer.insert(
            "nlp.cache_hit_rate",
            100.0 * consumer.cache_hits as f64 / lookups as f64,
        );
        layer.insert(
            "core.fit_incremental_ms_per_shard",
            tracer.total_s("core.fit_incremental") * 1e3 / total_shards as f64,
        );
        layer.insert(
            "core.predict_rows_per_s",
            docs as f64 / tracer.total_s("core.predict_proba"),
        );
    }
    Ok(out)
}
