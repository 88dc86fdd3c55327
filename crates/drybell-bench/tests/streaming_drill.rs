//! Streaming weak supervision end to end, as one drill: spool-directory
//! ingestion, incremental label-model training, and in-stream drift
//! detection (§3.3's "monitored over time" LF statistics, §6.4's live
//! stream).
//!
//! * **Ingestion** — the topic task's unlabeled pool is cut into shards
//!   trickled into a spool directory as atomically committed `.rec`
//!   files; a [`StreamIngestor`] delivers each committed shard exactly
//!   once, in name order. A torn (footer-less) file is planted
//!   mid-stream and must never be delivered, and a drained re-poll must
//!   deliver nothing.
//! * **Incremental training** — each shard folds into a
//!   [`GenerativeModel`] via `fit_incremental` with a Robbins–Monro
//!   learning-rate decay (`lr / (fold+1)`). A second pass over the same
//!   spool must reproduce parameters and posteriors byte for byte, and
//!   the streamed model must land within [`NLL_GAP_BUDGET`] of a batch
//!   refit on the stream's healthy rows.
//! * **Live monitoring** — per-shard `lf_execution` events and metric
//!   snapshots fold into [`StreamMonitor`] windows. A seeded total NLP
//!   outage must gate a window on `nlp/degraded` and `lf/<name>/degraded`
//!   within [`DETECT_EVENTS_BUDGET`] events.
//! * **In-stream shadow PSI** — every shard sweeps a fixed probe pool
//!   through a [`WindowedShadow`] eval of a candidate model. Mid-stream
//!   the candidate is swapped for one trained on inverted labels; a
//!   window must gate on `serving/score_dist_candidate` within the same
//!   event budget, with no PSI verdict while the candidate is faithful.

use drybell_bench::bits_checksum;
use drybell_bench::harness::{fit_label_model, label_model_config, ContentTask};
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

/// Dataset scale: 13 680 topic documents. Below ~0.005 the healthy
/// prefix is too small for a quiet baseline and false positives appear.
const SCALE: f64 = 0.02;

const SEED: u64 = 11;

const WORKERS: usize = 2;

/// Most journal events a seeded fault may take to gate a window.
const DETECT_EVENTS_BUDGET: u64 = 12;

/// Largest mean-NLL gap between the streamed model and a batch refit,
/// both scored on the stream's healthy rows.
const NLL_GAP_BUDGET: f64 = 0.05;

/// Shards the unlabeled pool is cut into.
const SHARDS: usize = 12;

/// Journal events per monitor window. Each shard contributes two
/// events — `lf_execution`, then the probe pool's `shadow` report — so
/// a window spans two shards, and the first two healthy shards build the
/// baseline (including its shadow score histograms; a PSI verdict
/// without a baseline distribution reads as `New`, not drift).
const WINDOW_EVENTS: usize = 4;

/// 0-based shard indices executed under a total NLP outage.
const OUTAGE_SHARDS: std::ops::Range<usize> = 6..8;

/// First shard whose shadow eval runs against the shifted candidate (v3)
/// instead of the faithful clone (v2). It starts after the outage has
/// closed so each fault gates on its own signal family.
const SHIFT_SHARD: usize = 8;

/// Probe payloads swept through the shadow eval per shard; each sweep
/// closes exactly one [`WindowedShadow`] window.
const PROBES: usize = 256;

/// Registry versions of model `"m"`: v1 serves, v2 is the faithful
/// candidate clone, v3 is the shifted candidate.
const STABLE_CANDIDATE: u32 = 2;
const SHIFTED_CANDIDATE: u32 = 3;

/// Feature-hash width (log2) for the shadow models.
const HASH_BITS: usize = 10;

/// Shard index that first appears as a torn (footer-less) file.
const TORN_SHARD: usize = 4;

/// Gradient steps folded per arriving shard.
const FOLD_STEPS: usize = 500;

/// Base Adam learning rate, decayed `BASE_LR / (fold + 1)`.
const BASE_LR: f64 = 0.05;

fn shard_path(spool: &Path, index: usize) -> PathBuf {
    spool.join(format!("shard-{index:04}.rec"))
}

/// Commit shard `index` (doc ids `[lo, hi)`) into the spool: staged to
/// a `.tmp` sibling, CRC-footered, atomically renamed.
fn commit_shard(spool: &Path, index: usize, lo: usize, hi: usize) {
    let mut w = ShardWriter::<u64>::create(&shard_path(spool, index)).unwrap();
    for id in lo..hi {
        w.write(&(id as u64)).unwrap();
    }
    w.finish().unwrap();
}

/// The per-shard `lf_execution` event the monitor folds — the shape
/// `ExecutionStats::emit_to` journals.
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
/// against, shared by both passes so replay determinism covers the
/// shadow scores too.
struct ShadowFixture {
    registry: ServingRegistry,
    probes: Vec<SparseVector>,
}

/// Stage model `"m"` v1 (serving), v2 (a byte-identical clone: PSI 0
/// against the baseline) and v3 (trained on inverted labels, which
/// pushes probe scores across the decision boundary), plus the probes.
fn build_shadow_fixture(seed: u64) -> ShadowFixture {
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed", 10))
        .unwrap();
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
    faithful.fit(&data).unwrap();
    let inverted: Vec<(SparseVector, f64)> =
        data.iter().map(|(x, y)| (x.clone(), 1.0 - y)).collect();
    let mut shifted = LogisticRegression::new(1 << HASH_BITS, FtrlConfig::default());
    shifted.fit(&inverted).unwrap();

    for (version, model) in [
        (1, faithful.clone()),
        (STABLE_CANDIDATE, faithful),
        (SHIFTED_CANDIDATE, shifted),
    ] {
        registry
            .stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(model),
            })
            .unwrap();
    }
    registry.promote("m", 1).unwrap();

    let probes = (0..PROBES)
        .map(|_| h.bag_of_words(&doc(&mut rng)))
        .collect();
    ShadowFixture { registry, probes }
}

/// Sweep the probe pool through a windowed shadow eval of this shard's
/// candidate and return the closed window's `shadow` event.
fn shadow_event(fixture: &ShadowFixture, shard_index: usize) -> Json {
    let candidate = if shard_index >= SHIFT_SHARD {
        SHIFTED_CANDIDATE
    } else {
        STABLE_CANDIDATE
    };
    let eval = ShadowEval::new(&fixture.registry, "m", candidate).unwrap();
    let mut shadow = WindowedShadow::new(eval, fixture.probes.len() as u64);
    let mut report = None;
    for probe in &fixture.probes {
        let (_score, closed) = shadow.observe(ScoreInput::Sparse(probe)).unwrap();
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
    /// The stream minus the outage shards' rows: the quality gate runs
    /// on these, since the degraded rows are exactly the data the
    /// monitor flagged as untrustworthy.
    healthy_matrix: LabelMatrix,
    shards_delivered: u64,
    degraded_examples: u64,
    /// Events from the first outage event to the first gating window,
    /// inclusive (None: the outage was never flagged).
    detect_events: Option<u64>,
    /// Gating signal names of the first outage-flagging window.
    first_gating: Vec<String>,
    /// Gating windows not explained by the outage.
    false_positives: u64,
    /// Events from the first shifted-candidate shadow event to the first
    /// window gating on score PSI, inclusive.
    shift_detect_events: Option<u64>,
    /// Score-distribution signals of the first PSI-gating window.
    shift_gating: Vec<String>,
    /// Windows gating on score PSI while the candidate was faithful.
    psi_false_positives: u64,
    windows_closed: u64,
    param_checksum: u64,
    posterior_checksum: u64,
}

/// Consume the whole spool: poll, execute, fold, monitor.
///
/// With `trickle` set, shards are committed just-in-time between polls
/// (the live run, torn file included); without it the spool is already
/// full and one poll drains it in name order (the replay). Both paths
/// process the identical shard sequence.
fn run_stream(
    task: &ContentTask<TopicDoc>,
    shadow: &ShadowFixture,
    spool: &Path,
    trickle: bool,
) -> StreamRun {
    let telemetry = Telemetry::new();
    let mut ingestor = StreamIngestor::new(spool).with_telemetry(telemetry.clone());

    let docs = task.unlabeled.len();
    let per_shard = docs.div_ceil(SHARDS);
    let fold_cfg = TrainConfig {
        steps: FOLD_STEPS,
        ..label_model_config(SEED)
    };
    let mut model = GenerativeModel::new(task.lf_set.len(), 0.7);
    let mut state = model.begin_incremental(&fold_cfg).unwrap();
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
            let lo = next_to_commit * per_shard;
            let hi = (lo + per_shard).min(docs);
            if next_to_commit == TORN_SHARD {
                // A torn file at the shard's final name: bytes but no
                // CRC footer. The ingestor must skip it this poll; the
                // commit below renames a whole shard over it, as a
                // producer retry heals a tear.
                std::fs::write(shard_path(spool, TORN_SHARD), b"torn mid-write").unwrap();
                assert!(
                    ingestor.poll().unwrap().is_empty(),
                    "a footer-less shard must never be delivered"
                );
            }
            commit_shard(spool, next_to_commit, lo, hi);
            next_to_commit += 1;
        }

        for arrived in ingestor.poll().unwrap() {
            let shard_index = arrived.sequence as usize;
            let ids: Vec<u64> = ShardReader::<u64>::open(&arrived.path)
                .unwrap()
                .map(Result::unwrap)
                .collect();
            let (lo, hi) = (ids[0] as usize, *ids.last().unwrap() as usize + 1);
            assert_eq!(hi - lo, ids.len(), "shard ids must be contiguous");

            let mut opts = ExecOptions::new().with_telemetry(telemetry.clone());
            if OUTAGE_SHARDS.contains(&shard_index) {
                opts = opts.with_nlp_faults(
                    FaultPlan::seeded(SEED ^ 0x6f75_7461_6765).with_nlp_error_rate(1.0),
                );
            }
            let (matrix, stats) = execute_in_memory_observed(
                &task.lf_set,
                task.text.as_ref(),
                &task.unlabeled[lo..hi],
                WORKERS,
                &opts,
            )
            .unwrap();
            degraded_examples += stats.nlp_degraded;

            state.set_optimizer(Optimizer::adam(BASE_LR / (folds + 1) as f64));
            model
                .fit_incremental(&matrix, &fold_cfg, &mut state)
                .unwrap();
            folds += 1;
            for row in 0..matrix.num_examples() {
                full_matrix.push_raw_row(matrix.row(row)).unwrap();
                if stats.nlp_degraded == 0 {
                    healthy_matrix.push_raw_row(matrix.row(row)).unwrap();
                }
            }

            // Metric deltas first, then the shard's event pair, so the
            // window that closes on the second event sees its own shard
            // on both signal families.
            let events = [lf_event(&stats), shadow_event(shadow, shard_index)];
            let snapshot = telemetry.metrics().snapshot();
            if let Some(folder) = baseline_folder.as_mut() {
                folder.fold_metrics(&snapshot);
                for event in &events {
                    folder.fold_event(event);
                }
                if folder.events() >= WINDOW_EVENTS {
                    let mut folder = baseline_folder.take().unwrap();
                    let baseline = folder.take();
                    monitor = Some(
                        StreamMonitor::new(baseline, DoctorConfig::default(), WINDOW_EVENTS)
                            .with_telemetry(telemetry.clone())
                            .with_folder(folder),
                    );
                }
            } else {
                let m = monitor.as_mut().unwrap();
                m.observe_metrics(&snapshot);
                if stats.nlp_degraded > 0 && outage_started_at.is_none() {
                    outage_started_at = Some(m.events_seen() + 1);
                }
                if shard_index >= SHIFT_SHARD && shift_started_at.is_none() {
                    // The shifted histograms ride the pair's second event.
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

    assert!(
        ingestor.poll().unwrap().is_empty(),
        "re-polling a drained spool re-delivered a shard"
    );

    let posteriors = model.predict_proba_threads(&full_matrix, WORKERS);
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
        param_checksum,
        posterior_checksum: bits_checksum(posteriors.into_iter()),
        model,
        healthy_matrix,
    }
}

#[test]
fn seeded_outage_and_score_shift_are_flagged_in_stream() {
    let task = ContentTask::topic(SCALE, Some(SEED), WORKERS);
    let shadow = build_shadow_fixture(SEED ^ 0x7368_6164);
    let spool = tempfile::tempdir().unwrap();

    // Pass 1: live trickle with the torn shard.
    let live = run_stream(&task, &shadow, spool.path(), true);
    assert_eq!(live.shards_delivered, SHARDS as u64);
    assert!(live.windows_closed >= 1);
    assert_eq!(live.false_positives, 0, "healthy windows must stay quiet");
    let detect_events = live
        .detect_events
        .expect("the seeded outage was never flagged by a window verdict");
    assert!(
        detect_events <= DETECT_EVENTS_BUDGET,
        "outage flagged after {detect_events} events, budget {DETECT_EVENTS_BUDGET}"
    );
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

    assert_eq!(
        live.psi_false_positives, 0,
        "no window may gate on score PSI while the candidate is faithful"
    );
    let shift_detect_events = live
        .shift_detect_events
        .expect("the seeded candidate score shift was never flagged by a window verdict");
    assert!(
        shift_detect_events <= DETECT_EVENTS_BUDGET,
        "score shift flagged after {shift_detect_events} events, budget {DETECT_EVENTS_BUDGET}"
    );
    assert!(
        live.shift_gating
            .iter()
            .any(|s| s == "serving/score_dist_candidate"),
        "shift window must gate on the candidate score distribution, got {:?}",
        live.shift_gating
    );

    assert!(live.degraded_examples > 0);
    assert_eq!(
        task.unlabeled.len() as u64,
        live.healthy_matrix.num_examples() as u64 + live.degraded_examples,
        "every document is either healthy or degraded"
    );

    // Pass 2: replay the same spool, byte-identical.
    let replay = run_stream(&task, &shadow, spool.path(), false);
    assert_eq!(replay.param_checksum, live.param_checksum);
    assert_eq!(replay.posterior_checksum, live.posterior_checksum);
    assert_eq!(replay.detect_events, live.detect_events);
    assert_eq!(replay.shift_detect_events, live.shift_detect_events);

    // The streamed model went *through* the outage; its decayed folds
    // must wash the transient out and land where a batch fit on the
    // trustworthy rows lands.
    let (refit, _) = fit_label_model(&live.healthy_matrix, &label_model_config(SEED), None);
    let nll_incremental = live
        .model
        .nll_threads(&live.healthy_matrix, WORKERS)
        .unwrap();
    let nll_refit = refit.nll_threads(&live.healthy_matrix, WORKERS).unwrap();
    let nll_gap = (nll_incremental - nll_refit).abs();
    assert!(
        nll_gap <= NLL_GAP_BUDGET,
        "incremental NLL {nll_incremental:.4} vs refit {nll_refit:.4}: gap {nll_gap:.4} over {NLL_GAP_BUDGET}"
    );
}
