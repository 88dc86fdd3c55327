//! `events_wide` — the real-time events task: a million events, 140 LFs.
//!
//! No text, so no NLP model server; no knowledge graph; no shard files.
//! The bare in-memory LF executor, the label model (140 columns instead of
//! 8) and the dense end model share the window between them, so a change
//! to the label model or the executor shows here — and a change to the NLP
//! layer must not.

use crate::common::{
    batch_end_to_end, checksum_f64, err, publish, record_sums, score_in_batches, timed_reps,
    timed_setup, Check, Outcome, OutputSums, Run, WORKERS,
};
use crate::product_batch::label_model_config;
use crate::stats;
use drybell_core::generative::{GenerativeModel, TrainReport};
use drybell_core::vote::Label;
use drybell_core::LabelMatrix;
use drybell_datagen::events::{self, EventDataset, EventTaskConfig, RealTimeEvent, SERVABLE_DIMS};
use drybell_lf::executor::execute_in_memory;
use drybell_lf::LfSet;
use drybell_ml::metrics::BinaryMetrics;
use drybell_ml::{Mlp, MlpConfig, MlpScratch};
use drybell_serving::{score_spec, ExportedModel, ModelSpec, ScoreInput};
use std::sync::Arc;

/// The §3.3 preset: a million-event stream.
pub const EVENTS: usize = 1_000_000;
/// Its dense test split.
const TEST_EVENTS: usize = 50_000;
/// Weak supervision sources (part of the application, never scaled).
const NUM_LFS: usize = 140;
/// End-model training steps (`exp_realtime`'s cap).
const MLP_ITERATIONS: usize = 20_000;
/// Lowest test F1 (threshold 0.5) a healthy run reaches at full size;
/// seeds 11 to 15 gave 0.64 to 0.67.
const F1_FLOOR: f64 = 0.5;

struct Inputs {
    ds: EventDataset,
    set: LfSet<RealTimeEvent>,
    test_gold: Vec<bool>,
}

struct WindowOut {
    matrix: LabelMatrix,
    nlp_calls: u64,
    fit: TrainReport,
    posteriors: Vec<f64>,
    spec: Arc<ModelSpec>,
    scores: Vec<f64>,
}

fn window(run: &Run<'_>, inputs: &Inputs, iterations: usize) -> Result<WindowOut, String> {
    let tracer = run.tracer;
    let events = &inputs.ds.unlabeled;
    let (matrix, exec) = tracer
        .timed("lf.execute_in_memory", || {
            execute_in_memory(&inputs.set, None, events, WORKERS)
        })
        .map_err(err)?;

    let mut label_model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    let fit = tracer
        .timed("core.fit", || {
            label_model.fit(&matrix, &label_model_config(run.seed))
        })
        .map_err(err)?;
    let posteriors = tracer.timed("core.predict_proba", || label_model.predict_proba(&matrix));

    let (net, data) = tracer.timed("ml.mlp_fit", || {
        let data: Vec<(Vec<f64>, f64)> = events
            .iter()
            .zip(&posteriors)
            .map(|(e, &p)| (e.servable.clone(), p))
            .collect();
        let mut net = Mlp::new(
            SERVABLE_DIMS,
            MlpConfig {
                hidden: vec![32, 16],
                iterations,
                seed: run.seed,
                ..MlpConfig::default()
            },
        );
        net.fit(&data);
        (net, data)
    });
    // Freed outside the span, as in product_batch.
    drop(data);

    let spec = tracer.timed("serving.stage_promote", || {
        publish("events", 1, ExportedModel::Mlp(net))
    })?;
    let scores = tracer.timed("serving.score_spec_batch", || {
        let batch: Vec<ScoreInput<'_>> = inputs
            .ds
            .test
            .iter()
            .map(|e| ScoreInput::Dense(&e.servable))
            .collect();
        score_in_batches(&spec, &batch)
    })?;

    Ok(WindowOut {
        matrix,
        nlp_calls: exec.nlp_calls,
        fit,
        posteriors,
        spec,
        scores,
    })
}

/// Run the workload.
pub fn run(run: &Run<'_>) -> Result<Outcome, String> {
    let n = run.size.count(EVENTS, 1000);
    let test_n = run.size.count(TEST_EVENTS, 200);
    let iterations = run.size.count(MLP_ITERATIONS, 100);
    let (inputs, setup_s) = timed_setup(|| {
        let cfg = EventTaskConfig {
            num_unlabeled: n,
            num_test: test_n,
            num_lfs: NUM_LFS,
            seed: run.seed,
            ..EventTaskConfig::paper()
        };
        let ds = events::generate(&cfg);
        Ok(Inputs {
            // The sources are the application, not its input: they stay
            // the preset's whatever the seed, so every seed runs the same
            // program over different events.
            set: events::lf_set(cfg.num_lfs, EventTaskConfig::paper().seed),
            test_gold: ds.test_gold.iter().map(|l| *l == Label::Positive).collect(),
            ds,
        })
    })?;

    let (last, sums, times) = timed_reps(
        run,
        |_| window(run, &inputs, iterations),
        |w| OutputSums::of(w.matrix.raw(), &w.posteriors, &w.scores),
    )?;

    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    batch_end_to_end(&mut out, n, &times);

    record_sums(&mut out, &sums);
    let scores_sum = sums[sums.len() - 1].scores;

    out.checks.push(Check::new(
        "one vote row per event",
        last.matrix.num_examples() == n && last.matrix.num_lfs() == NUM_LFS,
        format!("{} x {}", last.matrix.num_examples(), last.matrix.num_lfs()),
    ));
    out.checks.push(Check::new(
        "no NLP call on a task without text",
        last.nlp_calls == 0,
        format!("{} calls", last.nlp_calls),
    ));
    out.checks.push(Check::probabilities(
        "posteriors are probabilities",
        &last.posteriors,
        n,
    ));
    let mut scratch = MlpScratch::default();
    let mut singles = Vec::with_capacity(last.scores.len());
    for e in &inputs.ds.test {
        singles.push(
            score_spec(&last.spec, &ScoreInput::Dense(&e.servable), &mut scratch).map_err(err)?,
        );
    }
    out.checks.push(Check::new(
        "batch scores equal single scores bit for bit",
        checksum_f64(&singles) == scores_sum && singles.len() == test_n,
        format!("{} test events", singles.len()),
    ));
    let f1 = BinaryMetrics::at_threshold(&last.scores, &inputs.test_gold, 0.5).f1();
    out.checks.push(Check::f1_floor(
        "end model clears its F1 floor",
        f1,
        F1_FLOOR,
        run.size,
    ));

    out.attempted = (n * times.len()) as u64;
    out.failed = 0;

    if run.tracer.enabled() {
        let generate_s = stats::median(&out.setup_s).unwrap_or(0.0);
        out.layer.insert("datagen.generate_s", generate_s);
        let reps = times.len() as f64;
        let per_rep = |name: &str| run.tracer.total_s(name) / reps;
        let exec_s = per_rep("lf.execute_in_memory");
        let nonabstain = last.matrix.raw().iter().filter(|&&v| v != 0).count();
        let layer = &mut out.layer;
        layer.insert("lf.exec_s", exec_s);
        layer.insert("lf.exec_examples_per_s", n as f64 / exec_s);
        layer.insert("lf.votes_nonabstain", nonabstain as f64);
        layer.insert("nlp.calls", last.nlp_calls as f64);
        layer.insert("core.fit_s", per_rep("core.fit"));
        layer.insert(
            "core.fit_steps_per_s",
            last.fit.steps as f64 / per_rep("core.fit"),
        );
        layer.insert(
            "core.predict_rows_per_s",
            n as f64 / per_rep("core.predict_proba"),
        );
        layer.insert("core.final_nll", last.fit.final_nll);
        layer.insert("ml.mlp_fit_s", per_rep("ml.mlp_fit"));
        layer.insert("ml.end_model_f1", f1);
        layer.insert(
            "serving.batch_score_rows_per_s",
            test_n as f64 / per_rep("serving.score_spec_batch"),
        );
    }
    Ok(out)
}
