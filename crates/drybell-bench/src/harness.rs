//! Shared experiment pipeline.
//!
//! Implements the §6 methodology once, parameterized by task, as one
//! composition whose stages each run once: the labeling functions over
//! the unlabeled pool, the sampling-free generative model fitted on their
//! votes under a uniform class prior ([`label_model_config`]), the
//! features of the pool, dev and test splits, the baseline trained
//! directly on the hand-labeled development set, and the discriminative
//! logistic regression trained on the probabilistic labels with the
//! noise-aware loss ([`ContentTask::run_full`]). Every ablation trains
//! from that composition ([`ContentReport`]), and everything is reported
//! *relative to the dev-set baseline* — the paper's reporting convention.

use drybell_core::baselines::{equal_weight_labels, logical_or_labels};
use drybell_core::generative::{GenerativeModel, TrainConfig, TrainReport};
use drybell_core::vote::Label;
use drybell_core::LabelMatrix;
use drybell_dataflow::par_map_vec;
use drybell_datagen::{events, product, topic};
use drybell_features::{FeatureHasher, SparseVector};
use drybell_lf::executor::{
    execute_in_memory, execute_in_memory_observed, ExecOptions, ExecutionStats, TextExtractor,
};
use drybell_lf::LfSet;
use drybell_ml::metrics::{score_histogram, BinaryMetrics, RelativeMetrics};
use drybell_ml::{FtrlConfig, LogisticRegression, Mlp, MlpConfig};
use drybell_obs::Telemetry;
use std::sync::Arc;

/// Servable featurization callback shared across pipeline stages.
pub type Featurizer<X> = Arc<dyn Fn(&X, &FeatureHasher) -> SparseVector + Send + Sync>;

/// The label-model training config of every pipeline in the harness.
///
/// `P(Y)` is uniform, exactly as §5.2 states ("for simplicity, here we
/// assume that `P(Y_i)` is uniform"). With sub-1% positive rates a
/// *fixed* informative prior turns out to be actively harmful: the
/// marginal likelihood then prefers an inverted basin in which rare
/// positive-voting LFs are deemed inaccurate, because flipping a
/// handful of positives costs less than paying `logit(π)` per example.
/// The uniform prior lets agreement structure, not the prior, assign
/// the clusters.
pub fn label_model_config(seed: u64) -> TrainConfig {
    TrainConfig {
        steps: 6000,
        batch_size: 256,
        class_prior: 0.5,
        seed,
        ..TrainConfig::default()
    }
}

/// Fit the sampling-free generative model on a label matrix under `cfg`,
/// with per-epoch telemetry (`train_epoch` and `train` journal events, the
/// `obs/train/step_us` histogram) when supplied.
pub fn fit_label_model(
    matrix: &LabelMatrix,
    cfg: &TrainConfig,
    telemetry: Option<&Telemetry>,
) -> (GenerativeModel, TrainReport) {
    let mut model = GenerativeModel::new(matrix.num_lfs(), cfg.init_alpha);
    let report = model
        .fit_observed(matrix, cfg, telemetry)
        .expect("label model training");
    (model, report)
}

/// A content-classification task instance (topic or product), bundling
/// data, LFs, featurization, and training hyperparameters.
pub struct ContentTask<X: Sync + Send> {
    /// Task name for report headers.
    pub name: &'static str,
    /// Unlabeled pool.
    pub unlabeled: Vec<X>,
    /// Hidden gold for the pool (hand-label sweeps only).
    pub unlabeled_gold: Vec<Label>,
    /// Development split and labels.
    pub dev: Vec<X>,
    /// Development labels.
    pub dev_gold: Vec<Label>,
    /// Test split and labels.
    pub test: Vec<X>,
    /// Test labels.
    pub test_gold: Vec<Label>,
    /// The application's labeling functions.
    pub lf_set: LfSet<X>,
    /// Text extractor for NLP LFs.
    pub text: Option<TextExtractor<X>>,
    /// Servable featurization.
    pub featurizer: Featurizer<X>,
    /// Positive class rate the task was generated at. Its one reader is
    /// Table 4's equal-weights label for rows on which every LF abstains.
    pub pos_rate: f64,
    /// FTRL iterations for the discriminative model (paper: 10K topic,
    /// 100K product).
    pub lr_iterations: usize,
    /// Hashed feature dimensionality.
    pub hash_dims: u32,
    /// Worker threads.
    pub workers: usize,
    /// Seed for all trainers.
    pub seed: u64,
}

impl ContentTask<topic::TopicDoc> {
    /// Build the topic task at `scale` of the paper's unlabeled-pool size
    /// (dev/test stay at full Table 1 size — they are small and the
    /// baseline needs them).
    pub fn topic(scale: f64, seed: Option<u64>, workers: usize) -> ContentTask<topic::TopicDoc> {
        let mut cfg = topic::TopicTaskConfig::paper();
        cfg.num_unlabeled = ((cfg.num_unlabeled as f64 * scale).round() as usize).max(100);
        if let Some(s) = seed {
            cfg.seed = s;
        }
        let ds = topic::generate(&cfg);
        ContentTask {
            name: "Topic Classification",
            lf_set: topic::lf_set(ds.crawl_table.clone()),
            text: Some(topic::text_extractor()),
            featurizer: Arc::new(topic::featurize),
            unlabeled: ds.unlabeled,
            unlabeled_gold: ds.unlabeled_gold,
            dev: ds.dev,
            dev_gold: ds.dev_gold,
            test: ds.test,
            test_gold: ds.test_gold,
            pos_rate: cfg.pos_rate,
            lr_iterations: 10_000,
            hash_dims: 1 << 18,
            workers,
            seed: cfg.seed,
        }
    }
}

impl ContentTask<product::ProductDoc> {
    /// Build the product task at `scale` of the paper's unlabeled-pool
    /// size.
    pub fn product(
        scale: f64,
        seed: Option<u64>,
        workers: usize,
    ) -> ContentTask<product::ProductDoc> {
        let mut cfg = product::ProductTaskConfig::paper();
        cfg.num_unlabeled = ((cfg.num_unlabeled as f64 * scale).round() as usize).max(100);
        if let Some(s) = seed {
            cfg.seed = s;
        }
        let ds = product::generate(&cfg);
        ContentTask {
            name: "Product Classification",
            lf_set: product::lf_set(ds.kg.clone()),
            text: Some(product::text_extractor()),
            featurizer: Arc::new(product::featurize),
            unlabeled: ds.unlabeled,
            unlabeled_gold: ds.unlabeled_gold,
            dev: ds.dev,
            dev_gold: ds.dev_gold,
            test: ds.test,
            test_gold: ds.test_gold,
            pos_rate: cfg.pos_rate,
            lr_iterations: 100_000,
            hash_dims: 1 << 16,
            workers,
            seed: cfg.seed,
        }
    }
}

impl<X: Sync + Send> ContentTask<X> {
    /// Run every LF over `docs`. With telemetry, the run records per-LF
    /// vote counters and latency histograms and journals an
    /// `lf_execution` event.
    pub fn run_lfs(
        &self,
        docs: &[X],
        telemetry: Option<&Telemetry>,
    ) -> (LabelMatrix, ExecutionStats) {
        let mut opts = ExecOptions::new();
        if let Some(t) = telemetry {
            opts = opts.with_telemetry(t.clone());
        }
        execute_in_memory_observed(&self.lf_set, self.text.as_ref(), docs, self.workers, &opts)
            .expect("LF execution")
    }

    /// The full §6 pipeline over the unlabeled pool: run the LFs, then
    /// [`ContentTask::compose`]. With telemetry, LF execution and
    /// label-model training emit through the bundle and the report closes
    /// the journal's account as a `content_report` event.
    pub fn run_full(&self, telemetry: Option<&Telemetry>) -> ContentReport<'_, X> {
        let (matrix, lf_stats) = self.run_lfs(&self.unlabeled, telemetry);
        let report = self.compose(matrix, lf_stats, telemetry);
        if let Some(journal) = telemetry.and_then(Telemetry::journal) {
            report.emit_to(journal);
        }
        report
    }

    /// Every stage after LF execution, each computed once, given the label
    /// matrix over the pool: the label model and its posteriors, the
    /// generative-only evaluation on the test split's votes, the dev
    /// baseline, and the DryBell end model trained on the posteriors.
    /// Label-model training emits through `telemetry` when supplied.
    pub fn compose(
        &self,
        matrix: LabelMatrix,
        lf_stats: ExecutionStats,
        telemetry: Option<&Telemetry>,
    ) -> ContentReport<'_, X> {
        let (label_model, _) = fit_label_model(&matrix, &label_model_config(self.seed), telemetry);
        let posteriors = label_model.predict_proba(&matrix);

        let test = self.examples(&self.test, &self.test_gold);
        // Generative model only: posterior over the *test* LF votes.
        // All-abstain rows sit at exactly the uniform prior 0.5; the
        // paper's 0.5 threshold is interpreted as "strictly more likely
        // positive than negative", so ties go negative (the majority
        // class) rather than counting every uncovered example as a
        // predicted positive.
        let (test_matrix, _) = self.run_lfs(&self.test, None);
        let generative = metrics_at(&label_model.predict_proba(&test_matrix), &test, 0.5 + 1e-9);

        let dev = self.examples(&self.dev, &self.dev_gold);
        let baseline = evaluate(&self.train_lr(&dev, self.lr_iterations), &test);
        drop(dev);

        // The pool's gold stays hidden: its targets are the posteriors.
        let mut pool = self.examples(&self.unlabeled, &[]);
        let drybell_lr = self.train_lr(retarget(&mut pool, &posteriors), self.lr_iterations);
        let drybell = evaluate(&drybell_lr, &test);
        ContentReport {
            task: self,
            pool,
            test,
            baseline,
            generative,
            drybell,
            drybell_lr,
            lf_stats,
            label_model,
            matrix,
            posteriors,
        }
    }

    /// Featurize `docs` in parallel, each beside its `gold` label as a
    /// probability (the target 0 past the end of `gold`).
    fn examples(&self, docs: &[X], gold: &[Label]) -> Vec<(SparseVector, f64)> {
        let hasher = FeatureHasher::new(self.hash_dims);
        let f = self.featurizer.clone();
        let mut examples = par_map_vec(
            docs,
            self.workers,
            |_| Ok(()),
            move |_s: &mut (), d: &X| Ok((f(d, &hasher), 0.0)),
        )
        .expect("featurization");
        for (row, y) in examples.iter_mut().zip(gold) {
            row.1 = y.as_prob();
        }
        examples
    }

    /// Train a logistic regression on `(features, soft target)` pairs.
    fn train_lr(&self, examples: &[(SparseVector, f64)], iterations: usize) -> LogisticRegression {
        let cfg = FtrlConfig {
            alpha: 0.2,
            iterations,
            batch_size: 64,
            seed: self.seed,
            ..FtrlConfig::default()
        };
        let mut model = LogisticRegression::new(self.hash_dims as usize, cfg);
        model.fit(examples).expect("harness datasets are non-empty");
        model
    }
}

/// Metrics of `scores` against the gold targets of `test` at `threshold`.
fn metrics_at(scores: &[f64], test: &[(SparseVector, f64)], threshold: f64) -> BinaryMetrics {
    let gold: Vec<bool> = test.iter().map(|(_, y)| *y == 1.0).collect();
    BinaryMetrics::at_threshold(scores, &gold, threshold)
}

/// Evaluate a trained LR on the test split (threshold 0.5, as §6.1).
fn evaluate(model: &LogisticRegression, test: &[(SparseVector, f64)]) -> BinaryMetrics {
    let scores: Vec<f64> = test.iter().map(|(x, _)| model.predict_proba(x)).collect();
    metrics_at(&scores, test, 0.5)
}

/// One content task's composed pipeline: every shared stage's value, the
/// Table 2 metrics, and the buffers each ablation trains from.
///
/// An end-model variant writes its targets into the pool's one
/// `(features, target)` buffer in place and trains on it, so no variant
/// featurizes the pool or copies its vectors again.
pub struct ContentReport<'t, X: Sync + Send> {
    task: &'t ContentTask<X>,
    /// Pool features beside the targets of the last end model trained.
    pool: Vec<(SparseVector, f64)>,
    /// Test split features beside their gold labels.
    test: Vec<(SparseVector, f64)>,
    /// Baseline: LR trained directly on the dev split (the denominator of
    /// every relative number).
    pub baseline: BinaryMetrics,
    /// The generative model's own predictions on the test LF votes
    /// (Table 2 "Generative Model Only" — not servable in production).
    pub generative: BinaryMetrics,
    /// DryBell: LR trained on the probabilistic labels.
    pub drybell: BinaryMetrics,
    /// The DryBell end model itself, ready to stage for serving.
    pub drybell_lr: LogisticRegression,
    /// LF execution stats over the unlabeled pool.
    pub lf_stats: ExecutionStats,
    /// The fitted label model (for diagnostics reports).
    pub label_model: GenerativeModel,
    /// The label matrix over the unlabeled pool.
    pub matrix: LabelMatrix,
    /// Training labels produced by the generative model.
    pub posteriors: Vec<f64>,
}

impl<X: Sync + Send> ContentReport<'_, X> {
    /// Table 2 rows: (generative-only, drybell), both relative to the
    /// baseline.
    pub fn table2_rows(&self) -> (RelativeMetrics, RelativeMetrics) {
        (
            RelativeMetrics::versus(&self.generative, &self.baseline),
            RelativeMetrics::versus(&self.drybell, &self.baseline),
        )
    }

    /// Emit one `content_report` event with the headline metrics to a run
    /// journal.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        journal.emit(
            drybell_obs::Event::new("content_report")
                .field("task", self.task.name)
                .field("examples", self.matrix.num_examples() as u64)
                .field("baseline_f1", self.baseline.f1())
                .field("generative_f1", self.generative.f1())
                .field("drybell_f1", self.drybell.f1())
                .field("drybell_precision", self.drybell.precision())
                .field("drybell_recall", self.drybell.recall())
                .field("lf_seconds", self.lf_stats.seconds),
        );
    }

    /// The DryBell end model trained again on the posteriors, for
    /// `iterations` FTRL steps.
    pub fn drybell_lr_with(&mut self, iterations: usize) -> LogisticRegression {
        self.task
            .train_lr(retarget(&mut self.pool, &self.posteriors), iterations)
    }

    /// Table 3 ablation: keep only the servable LF columns, refit the
    /// label model, retrain the end model.
    pub fn servable_only(&mut self) -> BinaryMetrics {
        let mask = self.task.lf_set.servable_mask();
        let sub = self.matrix.select_columns(&mask).expect("mask length");
        let (model, _) = fit_label_model(&sub, &label_model_config(self.task.seed), None);
        self.end_model(&model.predict_proba(&sub))
    }

    /// Table 4 ablation: the unweighted average of LF votes as labels.
    pub fn equal_weights(&mut self) -> BinaryMetrics {
        let labels = equal_weight_labels(&self.matrix, self.task.pos_rate);
        self.end_model(&labels)
    }

    /// A supervised LR trained on the gold labels of the pool's first `n`
    /// examples — Figure 5's hand-label sweep points.
    pub fn first_n_gold(&mut self, n: usize) -> BinaryMetrics {
        let gold: Vec<f64> = self
            .task
            .unlabeled_gold
            .iter()
            .take(n)
            .map(|y| y.as_prob())
            .collect();
        self.end_model(&gold)
    }

    /// Test metrics of an end model trained on `targets` over the first
    /// `targets.len()` pool rows.
    fn end_model(&mut self, targets: &[f64]) -> BinaryMetrics {
        let lr = self
            .task
            .train_lr(retarget(&mut self.pool, targets), self.task.lr_iterations);
        evaluate(&lr, &self.test)
    }
}

/// Write `targets` over the first `targets.len()` rows of `pool`, and
/// return those rows.
fn retarget<'p>(pool: &'p mut [(SparseVector, f64)], targets: &[f64]) -> &'p [(SparseVector, f64)] {
    for (row, &t) in pool.iter_mut().zip(targets) {
        row.1 = t;
    }
    &pool[..targets.len()]
}

// ---------------------------------------------------------------------------
// Real-time events harness (§6.4, Figure 6)
// ---------------------------------------------------------------------------

/// Results of the events comparison.
pub struct EventsReport {
    /// DNN trained on DryBell's probabilistic labels: test metrics at 0.5.
    pub drybell: BinaryMetrics,
    /// DNN trained on Logical-OR labels.
    pub logical_or: BinaryMetrics,
    /// True events found in the top-k of each ranking (k = expected
    /// positives) — the "events of interest identified" comparison.
    pub drybell_tp_at_k: u64,
    /// Logical-OR's top-k true positives.
    pub or_tp_at_k: u64,
    /// Precision@k for DryBell (the "internal quality metric" analog).
    pub drybell_quality: f64,
    /// Precision@k for Logical-OR.
    pub or_quality: f64,
    /// Figure 6 histograms (20 bins over `[0, 1]`) of test scores.
    pub drybell_hist: Vec<u64>,
    /// Logical-OR's score histogram.
    pub or_hist: Vec<u64>,
    /// Threshold-free ranking quality (average precision) of each model.
    pub drybell_pr_auc: f64,
    /// Logical-OR's average precision.
    pub or_pr_auc: f64,
    /// Expected calibration error of each model (10 bins).
    pub drybell_ece: f64,
    /// Logical-OR's calibration error.
    pub or_ece: f64,
}

impl EventsReport {
    /// §6.4's headline: relative increase in events of interest found.
    pub fn more_events_frac(&self) -> f64 {
        self.drybell_tp_at_k as f64 / (self.or_tp_at_k.max(1)) as f64 - 1.0
    }

    /// §6.4's quality improvement.
    pub fn quality_improvement(&self) -> f64 {
        self.drybell_quality / self.or_quality.max(1e-12) - 1.0
    }
}

/// Run the full real-time events comparison.
pub fn run_events(
    cfg: &events::EventTaskConfig,
    workers: usize,
    dnn_iterations: usize,
) -> EventsReport {
    let ds = events::generate(cfg);
    let set = events::lf_set(cfg.num_lfs, cfg.seed);
    let (matrix, _) = execute_in_memory(&set, None, &ds.unlabeled, workers).expect("LF exec");

    // DryBell labels.
    let (label_model, _) = fit_label_model(&matrix, &label_model_config(cfg.seed), None);
    let drybell_labels = label_model.predict_proba(&matrix);
    // Logical-OR labels (§6.4 baseline).
    let or_labels = logical_or_labels(&matrix);

    let train_dnn = |targets: &[f64], seed: u64| -> Mlp {
        let data: Vec<(Vec<f64>, f64)> = ds
            .unlabeled
            .iter()
            .zip(targets)
            .map(|(e, &t)| (e.servable.clone(), t))
            .collect();
        let mut net = Mlp::new(
            events::SERVABLE_DIMS,
            MlpConfig {
                hidden: vec![32, 16],
                iterations: dnn_iterations,
                seed,
                ..MlpConfig::default()
            },
        );
        net.fit(&data);
        net
    };
    let drybell_net = train_dnn(&drybell_labels, cfg.seed);
    let or_net = train_dnn(&or_labels, cfg.seed);

    let gold: Vec<bool> = ds.test_gold.iter().map(|l| *l == Label::Positive).collect();
    let score = |net: &Mlp| -> Vec<f64> {
        ds.test
            .iter()
            .map(|e| net.predict_proba(&e.servable))
            .collect()
    };
    let drybell_scores = score(&drybell_net);
    let or_scores = score(&or_net);

    // Fixed review budget: k = expected number of true events.
    let k = ((ds.test.len() as f64) * cfg.pos_rate).round() as usize;
    let tp_at_k = |scores: &[f64]| -> u64 {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));
        idx.iter().take(k).filter(|&&i| gold[i]).count() as u64
    };
    let drybell_tp_at_k = tp_at_k(&drybell_scores);
    let or_tp_at_k = tp_at_k(&or_scores);

    EventsReport {
        drybell: BinaryMetrics::at_threshold(&drybell_scores, &gold, 0.5),
        logical_or: BinaryMetrics::at_threshold(&or_scores, &gold, 0.5),
        drybell_tp_at_k,
        or_tp_at_k,
        drybell_quality: drybell_tp_at_k as f64 / k.max(1) as f64,
        or_quality: or_tp_at_k as f64 / k.max(1) as f64,
        drybell_hist: score_histogram(&drybell_scores, 20),
        or_hist: score_histogram(&or_scores, 20),
        drybell_pr_auc: drybell_ml::ranking::average_precision(&drybell_scores, &gold),
        or_pr_auc: drybell_ml::ranking::average_precision(&or_scores, &gold),
        drybell_ece: drybell_ml::ranking::expected_calibration_error(&drybell_scores, &gold, 10),
        or_ece: drybell_ml::ranking::expected_calibration_error(&or_scores, &gold, 10),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run of the topic pipeline. This is the
    /// repo's smoke test for the whole §6.1 methodology — run with
    /// telemetry so it doubles as the harness telemetry check.
    #[test]
    fn topic_pipeline_end_to_end_smoke() {
        let mut task = ContentTask::topic(0.02, Some(11), 4); // ~13.7K docs
        task.lr_iterations = 2000;
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        let telemetry = Telemetry::with_journal(journal);
        let report = task.run_full(Some(&telemetry));
        // DryBell must beat the baseline on F1 (the paper's headline).
        assert!(
            report.drybell.f1() > report.baseline.f1(),
            "drybell {:.3} vs baseline {:.3}",
            report.drybell.f1(),
            report.baseline.f1()
        );
        // The posteriors must be informative about the hidden gold
        // (strict > 0.5 so the all-abstain rows' uniform 0.5 posterior is
        // not counted as a positive prediction).
        let correct = report
            .posteriors
            .iter()
            .zip(&task.unlabeled_gold)
            .filter(|(p, y)| (**p > 0.5) == (**y == Label::Positive))
            .count() as f64
            / task.unlabeled_gold.len() as f64;
        assert!(correct > 0.97, "posterior accuracy {correct:.3}");

        // The journal tells the run's whole story: LF execution, training
        // epochs, the training summary, and the closing report.
        let events = buffer.parsed_lines().unwrap();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| e.get("kind").and_then(|k| k.as_str()).unwrap())
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "lf_execution").count(), 1);
        assert!(kinds.contains(&"train_epoch"));
        assert!(kinds.contains(&"train"));
        assert_eq!(kinds.last(), Some(&"content_report"));
        let closing = events.last().unwrap();
        assert_eq!(
            closing.get("task").and_then(|v| v.as_str()),
            Some("Topic Classification")
        );
        assert!(
            (closing.get("drybell_f1").and_then(|v| v.as_f64()).unwrap() - report.drybell.f1())
                .abs()
                < 1e-12
        );
        // Metrics side: every LF has a vote counter and a latency
        // histogram; training recorded its step latencies.
        let snap = telemetry.metrics().snapshot();
        let mut total_votes = 0;
        for name in task.lf_set.names() {
            total_votes += snap.counter(&format!("votes/{name}"));
            let hist = snap.histogram(&format!("obs/lf/{name}/eval_us")).unwrap();
            assert_eq!(
                hist.count(),
                task.unlabeled.len() as u64,
                "obs/lf/{name}/eval_us"
            );
        }
        assert!(total_votes > 0);
        assert_eq!(
            snap.histogram("obs/train/step_us").map(|h| h.count()),
            Some(6000)
        );
    }

    #[test]
    fn events_pipeline_smoke() {
        let cfg = events::EventTaskConfig {
            num_unlabeled: 3000,
            num_test: 1500,
            pos_rate: 0.05,
            num_lfs: 140,
            seed: 5,
        };
        // Enough DNN steps for the OR-trained net to saturate its scores;
        // at a few hundred steps neither net reaches the top bin and the
        // histogram comparison below would be noise.
        let report = run_events(&cfg, 4, 1500);
        // DryBell must find at least as many true events in the review
        // budget and with better quality than the Logical-OR baseline.
        assert!(
            report.drybell_tp_at_k > report.or_tp_at_k,
            "drybell {} vs OR {}",
            report.drybell_tp_at_k,
            report.or_tp_at_k
        );
        // The OR-trained net piles mass at the top bins (Figure 6 left):
        // its top bin should hold far more than drybell's.
        let or_top = report.or_hist.last().copied().unwrap_or(0);
        let db_top = report.drybell_hist.last().copied().unwrap_or(0);
        assert!(
            or_top > db_top,
            "OR should saturate scores: top bin {or_top} vs {db_top}"
        );
    }
}
