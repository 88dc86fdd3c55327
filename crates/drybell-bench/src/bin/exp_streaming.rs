//! Streaming weak supervision end to end: spool-directory ingestion,
//! incremental label-model training, and in-stream drift detection.
//!
//! The paper's real-time deployments cannot wait for a batch boundary:
//! shards arrive continuously, the label model must absorb them without
//! refitting from scratch, and §3.3's monitored-over-time LF statistics
//! have to flag a degrading upstream resource while the stream is still
//! flowing. This binary wires those three pieces together:
//!
//! * **Ingestion** — the topic task's unlabeled pool is cut into shards
//!   and trickled into a spool directory as atomically-committed `.rec`
//!   files; a `drybell-dataflow` [`StreamIngestor`] polls the spool and
//!   delivers each committed shard exactly once, in name order. A torn
//!   (footer-less) file is planted mid-stream to prove uncommitted data
//!   never reaches the pipeline, and a drained re-poll proves delivery
//!   is idempotent.
//! * **Incremental training** — each arriving shard folds into a
//!   [`GenerativeModel`] via `fit_incremental`, warm-starting from the
//!   carried parameters and optimizer moments with a Robbins–Monro
//!   learning-rate decay (`lr / (fold+1)`), instead of refitting. The
//!   whole consume loop is deterministic, so a second pass over the
//!   same spool reproduces parameters and posteriors byte-for-byte
//!   (checked with an FNV-1a checksum over the exact f64 bits).
//! * **Live monitoring** — per-shard `lf_execution` events and metric
//!   snapshots fold into rolling windows (`drybell-doctor`
//!   [`StreamMonitor`]); a seeded total NLP outage is injected
//!   mid-stream and must gate a window verdict (`nlp/degraded`,
//!   `lf/<name>/degraded`) within a bounded number of *events*.
//! * **In-stream shadow PSI** — every shard also sweeps a fixed probe
//!   pool through a [`WindowedShadow`] eval of a candidate model and
//!   folds the resulting `shadow` event (windowed score histograms)
//!   into the same monitor window. Mid-stream the candidate is swapped
//!   for one trained on shifted labels; the window verdict must flag
//!   the score-distribution PSI (`serving/score_dist_candidate`) within
//!   the same event budget, with zero PSI false positives while the
//!   candidate is faithful.
//!
//! Results land in `results/BENCH_streaming.json` for the CI
//! `streaming-bench` gate (`doctor bench` holds `detect_events`,
//! `score_shift_detect_events`, and `nll_gap` under ceilings; see
//! `doctor.toml [streaming]`). Pass `--live <addr>` to expose the
//! run's telemetry over HTTP while it streams.

use drybell_bench::args::ExpArgs;
use drybell_bench::bits_checksum;
use drybell_bench::harness::ContentTask;
use drybell_core::optim::Optimizer;
use drybell_core::{GenerativeModel, LabelMatrix, TrainConfig};
use drybell_dataflow::{FaultPlan, ShardReader, ShardWriter, StreamIngestor};
use drybell_datagen::topic::TopicDoc;
use drybell_doctor::{DoctorConfig, StreamMonitor, WindowFolder};
use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry, SparseVector};
use drybell_lf::executor::{execute_in_memory_observed, ExecOptions, ExecutionStats};
use drybell_ml::{FtrlConfig, LogisticRegression};
use drybell_obs::{Json, Telemetry};
use drybell_serving::{
    ExportedModel, ModelSpec, ScoreInput, ServingRegistry, ShadowEval, WindowedShadow,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Shards the unlabeled pool is cut into.
const SHARDS: usize = 12;

/// Journal events per monitor window. Each shard contributes two
/// events — `lf_execution`, then the probe pool's `shadow` report — so
/// a window still spans two shards, and the first two healthy shards
/// build the baseline (including its shadow score histograms; a PSI
/// verdict without a baseline distribution reads as `New`, not drift).
const WINDOW_EVENTS: usize = 4;

/// 0-based shard indices executed under a total NLP outage.
const OUTAGE_SHARDS: std::ops::Range<usize> = 6..8;

/// First 0-based shard whose shadow eval runs against the *shifted*
/// candidate model (v3) instead of the faithful clone (v2) — the seeded
/// candidate-model score shift the shadow-PSI window must catch. Starts
/// after the outage window has closed so each fault gates on its own
/// signal family.
const SHIFT_SHARD: usize = 8;

/// Fixed probe payloads swept through the shadow eval per shard. Every
/// sweep closes exactly one [`WindowedShadow`] window, so each shard's
/// `shadow` event carries the histogram of the full pool.
const PROBES: usize = 256;

/// Registry versions of model `"m"`: v1 serves, v2 is the faithful
/// candidate clone, v3 is the shifted candidate.
const STABLE_CANDIDATE: u32 = 2;
const SHIFTED_CANDIDATE: u32 = 3;

/// Feature-hash width (log2) for the shadow models.
const HASH_BITS: usize = 10;

/// Shard index that first appears as a torn (footer-less) file.
const TORN_SHARD: usize = 4;

/// Gradient steps folded per arriving shard (batch 256, matching the
/// batch refit's `label_model_config`).
const FOLD_STEPS: usize = 500;

/// Base Adam learning rate, decayed `BASE_LR / (fold + 1)` so the
/// incremental trajectory averages across shards instead of chasing the
/// most recent one.
const BASE_LR: f64 = 0.05;

fn shard_path(spool: &Path, index: usize) -> PathBuf {
    spool.join(format!("shard-{index:04}.rec"))
}

/// Commit shard `index` (doc ids `[lo, hi)`) into the spool: staged to
/// a `.tmp` sibling, CRC-footered, atomically renamed.
fn commit_shard(spool: &Path, index: usize, lo: usize, hi: usize) {
    let path = shard_path(spool, index);
    let mut w = ShardWriter::<u64>::create(&path).expect("create shard");
    for id in lo..hi {
        w.write(&(id as u64)).expect("write record");
    }
    w.finish().expect("commit shard");
}

/// The per-shard `lf_execution` event the monitor folds — the same
/// shape `ExecutionStats::emit_to` journals.
fn lf_event(stats: &ExecutionStats) -> Json {
    Json::obj(vec![
        ("kind", Json::from("lf_execution")),
        ("seconds", Json::from(stats.seconds)),
        ("examples", Json::from(stats.examples as u64)),
        ("nlp_calls", Json::from(stats.nlp_calls)),
        ("nlp_degraded", Json::from(stats.nlp_degraded)),
    ])
}

/// The serving registry and probe pool the in-stream shadow eval runs
/// against. Built once and shared by both passes so replay determinism
/// covers the shadow scores too.
struct ShadowFixture {
    registry: ServingRegistry,
    probes: Vec<SparseVector>,
}

/// Stage model `"m"` v1 (serving), v2 (byte-identical clone — the
/// faithful candidate), and v3 (trained on inverted labels — the
/// shifted candidate), plus a fixed probe pool. While the candidate is
/// v2 every window's score histograms match the baseline exactly (PSI
/// 0); v3 pushes probe scores across the decision boundary, a shift
/// PSI must flag.
fn build_shadow_fixture(seed: u64) -> ShadowFixture {
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed", 10))
        .expect("fresh space registry");
    let registry = ServingRegistry::new(spaces, 1_000);
    let h = FeatureHasher::new(1 << HASH_BITS);

    let mut rng = StdRng::seed_from_u64(seed);
    let vocab: Vec<String> = (0..400).map(|i| format!("tok{i}")).collect();
    let doc = |rng: &mut StdRng| -> Vec<&str> {
        (0..16)
            .map(|_| vocab[rng.gen_range(0..vocab.len())].as_str())
            .collect()
    };
    let data: Vec<(SparseVector, f64)> = (0..2_000)
        .map(|_| {
            let tokens = doc(&mut rng);
            let y = f64::from(u8::from(tokens.iter().any(|t| t.ends_with('7'))));
            (h.bag_of_words(&tokens), y)
        })
        .collect();
    let mut faithful = LogisticRegression::new(1 << HASH_BITS, FtrlConfig::default());
    faithful.fit(&data).expect("faithful logreg training");
    let inverted: Vec<(SparseVector, f64)> =
        data.iter().map(|(x, y)| (x.clone(), 1.0 - y)).collect();
    let mut shifted = LogisticRegression::new(1 << HASH_BITS, FtrlConfig::default());
    shifted.fit(&inverted).expect("shifted logreg training");

    for (version, model) in [(1, &faithful), (STABLE_CANDIDATE, &faithful)] {
        registry
            .stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(model.clone()),
            })
            .expect("stage faithful");
    }
    registry
        .stage(ModelSpec {
            name: "m".into(),
            version: SHIFTED_CANDIDATE,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(shifted),
        })
        .expect("stage shifted");
    registry.promote("m", 1).expect("promote v1");

    let probes: Vec<SparseVector> = (0..PROBES)
        .map(|_| h.bag_of_words(&doc(&mut rng)))
        .collect();
    ShadowFixture { registry, probes }
}

/// Sweep the probe pool through a windowed shadow eval of this shard's
/// candidate and return the closed window's `shadow` event — the score
/// histograms the monitor judges for PSI drift.
fn shadow_event(fixture: &ShadowFixture, shard_index: usize) -> Json {
    let candidate = if shard_index >= SHIFT_SHARD {
        SHIFTED_CANDIDATE
    } else {
        STABLE_CANDIDATE
    };
    let eval = ShadowEval::new(&fixture.registry, "m", candidate).expect("shadow eval");
    let mut shadow = WindowedShadow::new(eval, fixture.probes.len() as u64);
    let mut report = None;
    for probe in &fixture.probes {
        let (_score, closed) = shadow
            .observe(ScoreInput::Sparse(probe))
            .expect("probe scoring");
        report = closed.or(report);
    }
    report
        .expect("a full probe sweep closes exactly one window")
        .to_event()
        .to_json()
}

/// Everything one pass over the spool produces.
struct StreamRun {
    model: GenerativeModel,
    full_matrix: LabelMatrix,
    /// The stream minus the outage shards' rows — the quality-gate
    /// comparison runs on these, since the degraded rows are exactly
    /// the data the monitor flagged as untrustworthy.
    healthy_matrix: LabelMatrix,
    shards_delivered: u64,
    degraded_examples: u64,
    /// Events from the first outage event to the first gating window
    /// verdict, inclusive (None: the outage was never flagged).
    detect_events: Option<u64>,
    /// Gating signal names of the first flagged window.
    first_gating: Vec<String>,
    /// Gating windows seen before any outage event (must stay 0).
    false_positives: u64,
    /// Events from the first shifted-candidate shadow event to the
    /// first window gating on a score-distribution PSI signal,
    /// inclusive (None: the shift was never flagged).
    shift_detect_events: Option<u64>,
    /// Score-distribution signals of the first PSI-gating window.
    shift_gating: Vec<String>,
    /// Windows gating on score PSI while the candidate was still
    /// faithful (must stay 0).
    psi_false_positives: u64,
    windows_closed: u64,
    events_seen: u64,
    param_checksum: u64,
    posterior_checksum: u64,
}

/// Consume the whole spool: poll, execute, fold, monitor.
///
/// With `trickle` set, shards are committed just-in-time between polls
/// (the live run, including the torn-file chaos); without it the spool
/// is already fully populated and a single poll drains it in name order
/// (the replay run). Both paths process the identical shard sequence.
fn run_stream(
    task: &ContentTask<TopicDoc>,
    shadow: &ShadowFixture,
    spool: &Path,
    trickle: bool,
    seed: u64,
    workers: usize,
) -> StreamRun {
    let telemetry = Telemetry::new();
    let mut ingestor = StreamIngestor::new(spool).with_telemetry(telemetry.clone());

    let docs = task.unlabeled.len();
    let per_shard = docs.div_ceil(SHARDS);
    let fold_cfg = TrainConfig {
        steps: FOLD_STEPS,
        batch_size: 256,
        class_prior: 0.5,
        seed,
        ..TrainConfig::default()
    };
    let mut model = GenerativeModel::new(task.lf_set.len(), 0.7);
    let mut state = model
        .begin_incremental(&fold_cfg)
        .expect("begin incremental");
    let mut full_matrix = LabelMatrix::with_capacity(task.lf_set.len(), docs);
    let mut healthy_matrix = LabelMatrix::with_capacity(task.lf_set.len(), docs);

    let mut baseline_folder = Some(WindowFolder::new());
    let mut monitor: Option<StreamMonitor> = None;
    let mut folds = 0usize;
    let mut degraded_examples = 0u64;
    let mut outage_started_at: Option<u64> = None;
    let mut detect_events = None;
    let mut first_gating = Vec::new();
    let mut false_positives = 0u64;
    let mut shift_started_at: Option<u64> = None;
    let mut shift_detect_events = None;
    let mut shift_gating = Vec::new();
    let mut psi_false_positives = 0u64;

    let mut next_to_commit = 0usize;
    let mut processed = 0usize;
    while processed < SHARDS {
        if trickle && next_to_commit < SHARDS {
            let (lo, hi) = (
                next_to_commit * per_shard,
                (next_to_commit * per_shard + per_shard).min(docs),
            );
            if next_to_commit == TORN_SHARD {
                // Plant a torn file at the shard's final name: bytes but
                // no CRC footer. The ingestor must skip it this poll.
                std::fs::write(shard_path(spool, TORN_SHARD), b"torn mid-write")
                    .expect("plant torn shard");
                let arrivals = ingestor.poll().expect("poll over torn shard");
                assert!(
                    arrivals.is_empty(),
                    "a footer-less shard must never be delivered"
                );
                // The writer stages to `.tmp` and renames over the torn
                // file — exactly how a producer retry heals a tear.
            }
            commit_shard(spool, next_to_commit, lo, hi);
            next_to_commit += 1;
        }

        for arrived in ingestor.poll().expect("poll spool") {
            let shard_index = arrived.sequence as usize;
            let ids: Vec<u64> = ShardReader::<u64>::open(&arrived.path)
                .expect("open delivered shard")
                .map(|r| r.expect("read record"))
                .collect();
            let (lo, hi) = (
                ids[0] as usize,
                *ids.last().expect("non-empty shard") as usize + 1,
            );
            assert_eq!(hi - lo, ids.len(), "shard ids must be contiguous");
            let shard_docs = &task.unlabeled[lo..hi];

            let mut opts = ExecOptions::new().with_telemetry(telemetry.clone());
            if OUTAGE_SHARDS.contains(&shard_index) {
                opts = opts.with_nlp_faults(
                    FaultPlan::seeded(seed ^ 0x6f75_7461_6765).with_nlp_error_rate(1.0),
                );
            }
            let (matrix, stats) = execute_in_memory_observed(
                &task.lf_set,
                task.text.as_ref(),
                shard_docs,
                workers,
                &opts,
            )
            .expect("LF execution over shard");
            degraded_examples += stats.nlp_degraded;

            // Fold the shard into the warm-started model with the
            // Robbins–Monro decay, and into the full-stream matrix for
            // the end-of-run refit comparison.
            state.set_optimizer(Optimizer::adam(BASE_LR / (folds + 1) as f64));
            model
                .fit_incremental(&matrix, &fold_cfg, &mut state)
                .expect("incremental fold");
            folds += 1;
            for row in 0..matrix.num_examples() {
                full_matrix
                    .push_raw_row(matrix.row(row))
                    .expect("same arity");
                if stats.nlp_degraded == 0 {
                    healthy_matrix
                        .push_raw_row(matrix.row(row))
                        .expect("same arity");
                }
            }

            // Feed the monitor: metric deltas first, then the shard's
            // event pair — `lf_execution`, then the probe pool's
            // `shadow` histograms — so the window that closes on the
            // second event sees its own shard on both signal families.
            let events = [lf_event(&stats), shadow_event(shadow, shard_index)];
            let snapshot = telemetry.metrics().snapshot();
            if let Some(folder) = baseline_folder.as_mut() {
                folder.fold_metrics(&snapshot);
                for event in &events {
                    folder.fold_event(event);
                }
                if folder.events() >= WINDOW_EVENTS {
                    let mut folder = baseline_folder.take().expect("folder present");
                    let baseline = folder.take();
                    monitor = Some(
                        StreamMonitor::new(baseline, DoctorConfig::default(), WINDOW_EVENTS)
                            .with_telemetry(telemetry.clone())
                            .with_folder(folder),
                    );
                }
            } else {
                let m = monitor.as_mut().expect("monitor after baseline");
                m.observe_metrics(&snapshot);
                if stats.nlp_degraded > 0 && outage_started_at.is_none() {
                    outage_started_at = Some(m.events_seen() + 1);
                }
                if shard_index >= SHIFT_SHARD && shift_started_at.is_none() {
                    // The shifted histograms ride the second event of
                    // this shard's pair.
                    shift_started_at = Some(m.events_seen() + 2);
                }
                for event in &events {
                    let Some(verdict) = m.observe_event(event) else {
                        continue;
                    };
                    if !verdict.gates() {
                        continue;
                    }
                    let signals: Vec<String> =
                        verdict.report.gating().map(|v| v.signal.clone()).collect();
                    let on_psi = signals.iter().any(|s| s.contains("score_dist"));
                    let on_outage = signals.iter().any(|s| {
                        s == "nlp/degraded" || (s.starts_with("lf/") && s.ends_with("/degraded"))
                    });
                    if on_outage {
                        match outage_started_at {
                            Some(start) if detect_events.is_none() => {
                                detect_events = Some(m.events_seen() - start + 1);
                                first_gating = signals.clone();
                            }
                            Some(_) => {}
                            None => false_positives += 1,
                        }
                    }
                    if on_psi {
                        match shift_started_at {
                            Some(start) if shift_detect_events.is_none() => {
                                shift_detect_events = Some(m.events_seen() - start + 1);
                                shift_gating = signals
                                    .iter()
                                    .filter(|s| s.contains("score_dist"))
                                    .cloned()
                                    .collect();
                            }
                            Some(_) => {}
                            None => psi_false_positives += 1,
                        }
                    }
                    if !on_outage && !on_psi {
                        false_positives += 1;
                    }
                }
            }
            processed += 1;
        }
    }

    // The spool is drained: a re-poll must deliver nothing (committed
    // shards are remembered and never re-delivered).
    assert!(
        ingestor.poll().expect("drained poll").is_empty(),
        "re-polling a drained spool re-delivered a shard"
    );

    let posteriors = model.predict_proba_threads(&full_matrix, workers);
    let param_checksum = bits_checksum(
        model
            .alphas()
            .iter()
            .chain(model.betas().iter())
            .copied()
            .chain(std::iter::once(model.eta())),
    );
    StreamRun {
        shards_delivered: ingestor.shards_seen(),
        degraded_examples,
        detect_events,
        first_gating,
        false_positives,
        shift_detect_events,
        shift_gating,
        psi_false_positives,
        windows_closed: monitor.as_ref().map_or(0, |m| m.windows_closed()),
        events_seen: monitor.as_ref().map_or(0, |m| m.events_seen()),
        param_checksum,
        posterior_checksum: bits_checksum(posteriors.into_iter()),
        model,
        full_matrix,
        healthy_matrix,
    }
}

fn main() {
    let args = ExpArgs::parse();
    let quiet = args.json;
    let say = |s: String| {
        if !quiet {
            println!("{s}");
        }
    };
    let telemetry = args.telemetry_or_exit().unwrap_or_default();
    args.emit_header(&telemetry, "streaming");
    let _live_server = args.serve_live_or_exit(&telemetry);

    let seed = args.seed.unwrap_or(11);
    let task = ContentTask::topic(args.scale, Some(seed), args.workers);
    let shadow = build_shadow_fixture(seed ^ 0x7368_6164);
    let spool = tempfile::tempdir().expect("spool dir");
    say(format!(
        "== stream: {} docs over {SHARDS} shards, outage on shards {}..{}, candidate shift at shard {SHIFT_SHARD}, window {WINDOW_EVENTS} events ==\n",
        task.unlabeled.len(),
        OUTAGE_SHARDS.start,
        OUTAGE_SHARDS.end,
    ));

    // ---- Pass 1: live trickle with torn-shard chaos --------------------
    let live = run_stream(&task, &shadow, spool.path(), true, seed, args.workers);
    assert_eq!(live.shards_delivered, SHARDS as u64);
    assert_eq!(live.false_positives, 0, "healthy windows must stay quiet");
    let detect_events = live
        .detect_events
        .expect("the seeded outage was never flagged by a window verdict");
    assert!(
        live.first_gating.iter().any(|s| s == "nlp/degraded"),
        "outage window must gate on nlp/degraded, got {:?}",
        live.first_gating
    );
    assert!(
        live.first_gating
            .iter()
            .any(|s| s.starts_with("lf/") && s.ends_with("/degraded")),
        "outage window must name the degraded LF, got {:?}",
        live.first_gating
    );
    say(format!(
        "outage flagged {detect_events} event(s) after onset; gating signals: {}",
        live.first_gating.join(", ")
    ));

    // The seeded candidate-model score shift: flagged by the shadow-PSI
    // window within the same event budget as the outage, with zero PSI
    // false positives on the healthy (faithful-candidate) prefix.
    assert_eq!(
        live.psi_false_positives, 0,
        "no window may gate on score PSI while the candidate is faithful"
    );
    let shift_detect_events = live
        .shift_detect_events
        .expect("the seeded candidate score shift was never flagged by a window verdict");
    assert!(
        live.shift_gating
            .iter()
            .any(|s| s == "serving/score_dist_candidate"),
        "shift window must gate on the candidate score distribution, got {:?}",
        live.shift_gating
    );
    let detect_budget = DoctorConfig::default()
        .budget("streaming.detect_events")
        .expect("default detect_events budget");
    assert!(
        shift_detect_events as f64 <= detect_budget,
        "score shift flagged after {shift_detect_events} events, budget {detect_budget}"
    );
    say(format!(
        "candidate score shift flagged {shift_detect_events} event(s) after onset; PSI signals: {}",
        live.shift_gating.join(", ")
    ));

    // ---- Pass 2: replay the same spool, byte-identical -----------------
    let replay = run_stream(&task, &shadow, spool.path(), false, seed, args.workers);
    let replay_identical = replay.param_checksum == live.param_checksum
        && replay.posterior_checksum == live.posterior_checksum;
    assert!(
        replay_identical,
        "replaying the spool must reproduce parameters and posteriors byte-for-byte"
    );
    assert_eq!(replay.detect_events, live.detect_events);
    assert_eq!(replay.shift_detect_events, live.shift_detect_events);
    say(format!(
        "replay: params {:016x} posteriors {:016x} (identical: {replay_identical})",
        replay.param_checksum, replay.posterior_checksum
    ));

    // ---- Batch refit comparison ----------------------------------------
    // The reference is a from-scratch batch fit on the healthy rows,
    // and both models are scored on those rows. The incremental model
    // streamed *through* the outage — its decayed folds must wash the
    // transient out and land where a batch fit on trustworthy data
    // lands. Refitting or scoring on the outage rows would anchor the
    // gate on exactly the data the monitor flagged as untrustworthy
    // (and reward fitting the corruption).
    let refit = task.fit_label_model(&live.healthy_matrix);
    let nll_incremental = live
        .model
        .nll_threads(&live.healthy_matrix, args.workers)
        .expect("incremental NLL");
    let nll_refit = refit
        .nll_threads(&live.healthy_matrix, args.workers)
        .expect("refit NLL");
    let nll_gap = (nll_incremental - nll_refit).abs();
    let inc_posteriors = live
        .model
        .predict_proba_threads(&live.full_matrix, args.workers);
    let refit_posteriors = refit.predict_proba_threads(&live.full_matrix, args.workers);
    let (mut diff_sum, mut diff_max) = (0.0f64, 0.0f64);
    for (a, b) in inc_posteriors.iter().zip(&refit_posteriors) {
        let d = (a - b).abs();
        diff_sum += d;
        diff_max = diff_max.max(d);
    }
    let posterior_mean_abs_diff = diff_sum / inc_posteriors.len().max(1) as f64;
    say(format!(
        "\nincremental NLL {nll_incremental:.4} vs refit {nll_refit:.4} (gap {nll_gap:.4}); \
         posterior diff mean {posterior_mean_abs_diff:.4} max {diff_max:.4}"
    ));

    let doc = Json::obj(vec![
        ("bench", Json::from("streaming")),
        ("seed", Json::from(seed)),
        ("docs", Json::from(task.unlabeled.len())),
        (
            "healthy_examples",
            Json::from(live.healthy_matrix.num_examples()),
        ),
        ("shards", Json::from(SHARDS)),
        ("window_events", Json::from(WINDOW_EVENTS)),
        (
            "outage_shards",
            Json::from((OUTAGE_SHARDS.end - OUTAGE_SHARDS.start) as u64),
        ),
        ("detect_events", Json::from(detect_events)),
        ("score_shift_shard", Json::from(SHIFT_SHARD)),
        ("score_shift_detect_events", Json::from(shift_detect_events)),
        ("psi_false_positives", Json::from(live.psi_false_positives)),
        ("nll_gap", Json::from(nll_gap)),
        ("nll_incremental", Json::from(nll_incremental)),
        ("nll_refit", Json::from(nll_refit)),
        (
            "posterior_mean_abs_diff",
            Json::from(posterior_mean_abs_diff),
        ),
        ("posterior_max_abs_diff", Json::from(diff_max)),
        ("replay_identical", Json::from(replay_identical)),
        ("degraded_examples", Json::from(live.degraded_examples)),
        ("windows_closed", Json::from(live.windows_closed)),
        ("monitored_events", Json::from(live.events_seen)),
        (
            "first_gating",
            Json::Arr(
                live.first_gating
                    .iter()
                    .map(|s| Json::from(s.clone()))
                    .collect(),
            ),
        ),
        (
            "score_shift_gating",
            Json::Arr(
                live.shift_gating
                    .iter()
                    .map(|s| Json::from(s.clone()))
                    .collect(),
            ),
        ),
    ]);

    telemetry.emit(
        drybell_obs::Event::new("streaming_bench")
            .field("shards", SHARDS as u64)
            .field("detect_events", detect_events)
            .field("score_shift_detect_events", shift_detect_events)
            .field("nll_gap", nll_gap)
            .field("replay_identical", replay_identical)
            .field("degraded_examples", live.degraded_examples),
    );

    let out_dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let out_path = out_dir.join("BENCH_streaming.json");
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", doc.to_pretty())) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    say(format!("\nwrote {}", out_path.display()));

    args.finish_trace_or_exit(&telemetry);
    args.write_summary_or_exit(&telemetry);
    if args.json {
        println!("{}", doc.to_pretty());
    }
}
