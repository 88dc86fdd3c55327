//! Shared experiment pipeline.
//!
//! Implements the full §6 methodology once, parameterized by task:
//! run the labeling functions over the unlabeled pool, fit the
//! sampling-free generative model (with the class prior estimated from the
//! dev split, as a developer would), train the discriminative logistic
//! regression on the probabilistic labels with the noise-aware loss, and
//! evaluate everything *relative to the baseline of training directly on
//! the hand-labeled development set* — the paper's reporting convention.

use drybell_core::baselines::{equal_weight_labels, logical_or_labels};
use drybell_core::generative::{GenerativeModel, TrainConfig};
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
    /// Positive class rate (for the label-model prior; in practice the
    /// developer estimates this from the dev split).
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

/// Everything `run_full` measures for Table 2.
pub struct ContentReport {
    /// Baseline: LR trained directly on the dev split (the denominator of
    /// every relative number).
    pub baseline: BinaryMetrics,
    /// The generative model's own predictions on the test LF votes
    /// (Table 2 "Generative Model Only" — not servable in production).
    pub generative: BinaryMetrics,
    /// DryBell: LR trained on the probabilistic labels.
    pub drybell: BinaryMetrics,
    /// LF execution stats over the unlabeled pool.
    pub lf_stats: ExecutionStats,
    /// The fitted label model (for diagnostics reports).
    pub label_model: GenerativeModel,
    /// The label matrix over the unlabeled pool.
    pub matrix: LabelMatrix,
    /// Training labels produced by the generative model.
    pub posteriors: Vec<f64>,
}

impl ContentReport {
    /// Table 2 rows: (generative-only, drybell), both relative to the
    /// baseline.
    pub fn table2_rows(&self) -> (RelativeMetrics, RelativeMetrics) {
        (
            RelativeMetrics::versus(&self.generative, &self.baseline),
            RelativeMetrics::versus(&self.drybell, &self.baseline),
        )
    }

    /// Emit one `content_report` event with the headline metrics to a run
    /// journal, closing the journal's account of a `run_full` pipeline.
    pub fn emit_to(&self, task: &str, journal: &drybell_obs::RunJournal) {
        journal.emit(
            drybell_obs::Event::new("content_report")
                .field("task", task)
                .field("examples", self.matrix.num_examples() as u64)
                .field("baseline_f1", self.baseline.f1())
                .field("generative_f1", self.generative.f1())
                .field("drybell_f1", self.drybell.f1())
                .field("drybell_precision", self.drybell.precision())
                .field("drybell_recall", self.drybell.recall())
                .field("lf_seconds", self.lf_stats.seconds),
        );
    }
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
    /// The paper-default label-model training config for this task.
    ///
    /// `P(Y)` is uniform, exactly as §5.2 states ("for simplicity, here we
    /// assume that `P(Y_i)` is uniform"). With sub-1% positive rates a
    /// *fixed* informative prior turns out to be actively harmful: the
    /// marginal likelihood then prefers an inverted basin in which rare
    /// positive-voting LFs are deemed inaccurate, because flipping a
    /// handful of positives costs less than paying `logit(π)` per example.
    /// The uniform prior lets agreement structure, not the prior, assign
    /// the clusters.
    pub fn label_model_config(&self) -> TrainConfig {
        TrainConfig {
            steps: 6000,
            batch_size: 256,
            class_prior: 0.5,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }

    /// Run every LF over the unlabeled pool.
    pub fn run_lfs(&self) -> (LabelMatrix, ExecutionStats) {
        self.run_lfs_observed(None)
    }

    /// Run every LF over the unlabeled pool, instrumenting per-LF vote
    /// counters, latency histograms, and the `lf_execution` journal event
    /// when telemetry is supplied.
    pub fn run_lfs_observed(&self, telemetry: Option<&Telemetry>) -> (LabelMatrix, ExecutionStats) {
        let mut opts = ExecOptions::new();
        if let Some(t) = telemetry {
            opts = opts.with_telemetry(t.clone());
        }
        execute_in_memory_observed(
            &self.lf_set,
            self.text.as_ref(),
            &self.unlabeled,
            self.workers,
            &opts,
        )
        .expect("LF execution")
    }

    /// Run every LF over an arbitrary slice (e.g. the test split, for the
    /// generative-model-only evaluation).
    pub fn run_lfs_on(&self, docs: &[X]) -> LabelMatrix {
        execute_in_memory(&self.lf_set, self.text.as_ref(), docs, self.workers)
            .expect("LF execution")
            .0
    }

    /// Fit the sampling-free generative model on a label matrix.
    pub fn fit_label_model(&self, matrix: &LabelMatrix) -> GenerativeModel {
        self.fit_label_model_observed(matrix, None)
    }

    /// Fit the generative model with per-epoch telemetry (`train_epoch`
    /// journal events, `obs/train/step_us` histogram) when supplied.
    pub fn fit_label_model_observed(
        &self,
        matrix: &LabelMatrix,
        telemetry: Option<&Telemetry>,
    ) -> GenerativeModel {
        let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
        model
            .fit_observed(matrix, &self.label_model_config(), telemetry)
            .expect("label model training");
        model
    }

    /// Featurize a slice in parallel.
    pub fn featurize_all(&self, docs: &[X]) -> Vec<SparseVector> {
        let hasher = FeatureHasher::new(self.hash_dims);
        let f = self.featurizer.clone();
        par_map_vec(
            docs,
            self.workers,
            |_| Ok(()),
            move |_s: &mut (), d: &X| Ok(f(d, &hasher)),
        )
        .expect("featurization")
    }

    /// FTRL config with this task's iteration budget.
    pub fn lr_config(&self, iterations: usize) -> FtrlConfig {
        FtrlConfig {
            alpha: 0.2,
            iterations,
            batch_size: 64,
            seed: self.seed,
            ..FtrlConfig::default()
        }
    }

    /// Train a logistic regression on `(features, soft target)` pairs.
    pub fn train_lr(
        &self,
        examples: &[(SparseVector, f64)],
        iterations: usize,
    ) -> LogisticRegression {
        let mut model =
            LogisticRegression::new(self.hash_dims as usize, self.lr_config(iterations));
        model.fit(examples).expect("harness datasets are non-empty");
        model
    }

    /// Evaluate a trained LR on the test split (threshold 0.5, as §6.1).
    pub fn eval_on_test(&self, model: &LogisticRegression) -> BinaryMetrics {
        let feats = self.featurize_all(&self.test);
        let scores: Vec<f64> = feats.iter().map(|x| model.predict_proba(x)).collect();
        let gold: Vec<bool> = self
            .test_gold
            .iter()
            .map(|l| *l == Label::Positive)
            .collect();
        BinaryMetrics::at_threshold(&scores, &gold, 0.5)
    }

    /// The baseline: LR trained directly on the hand-labeled dev split.
    pub fn baseline(&self) -> BinaryMetrics {
        let feats = self.featurize_all(&self.dev);
        let examples: Vec<(SparseVector, f64)> = feats
            .into_iter()
            .zip(&self.dev_gold)
            .map(|(x, y)| (x, y.as_prob()))
            .collect();
        let model = self.train_lr(&examples, self.lr_iterations);
        self.eval_on_test(&model)
    }

    /// A supervised LR trained on the first `n` (features, gold) pairs of
    /// the unlabeled pool — Figure 5's hand-label sweep points.
    pub fn supervised_with_n_labels(&self, n: usize) -> BinaryMetrics {
        let n = n.min(self.unlabeled.len());
        let feats = self.featurize_all(&self.unlabeled[..n]);
        let examples: Vec<(SparseVector, f64)> = feats
            .into_iter()
            .zip(&self.unlabeled_gold[..n])
            .map(|(x, y)| (x, y.as_prob()))
            .collect();
        let model = self.train_lr(&examples, self.lr_iterations);
        self.eval_on_test(&model)
    }

    /// Train the DryBell discriminative model from probabilistic labels
    /// over the unlabeled pool.
    pub fn train_drybell_lr(&self, posteriors: &[f64]) -> LogisticRegression {
        let feats = self.featurize_all(&self.unlabeled);
        let examples: Vec<(SparseVector, f64)> =
            feats.into_iter().zip(posteriors.iter().copied()).collect();
        self.train_lr(&examples, self.lr_iterations)
    }

    /// The full Table 2 pipeline.
    pub fn run_full(&self) -> ContentReport {
        self.run_full_observed(None)
    }

    /// The full Table 2 pipeline with end-to-end telemetry: LF execution
    /// and label-model training emit through the bundle, and the final
    /// report lands in the journal as a `content_report` event.
    pub fn run_full_observed(&self, telemetry: Option<&Telemetry>) -> ContentReport {
        let (matrix, lf_stats) = self.run_lfs_observed(telemetry);
        let label_model = self.fit_label_model_observed(&matrix, telemetry);
        let posteriors = label_model.predict_proba(&matrix);
        let drybell_lr = self.train_drybell_lr(&posteriors);
        let drybell = self.eval_on_test(&drybell_lr);

        // Generative model only: posterior over the *test* LF votes.
        // All-abstain rows sit at exactly the uniform prior 0.5; the
        // paper's 0.5 threshold is interpreted as "strictly more likely
        // positive than negative", so ties go negative (the majority
        // class) rather than counting every uncovered example as a
        // predicted positive.
        let test_matrix = self.run_lfs_on(&self.test);
        let gen_scores = label_model.predict_proba(&test_matrix);
        let gold: Vec<bool> = self
            .test_gold
            .iter()
            .map(|l| *l == Label::Positive)
            .collect();
        let generative = BinaryMetrics::at_threshold(&gen_scores, &gold, 0.5 + 1e-9);

        let baseline = self.baseline();
        let report = ContentReport {
            baseline,
            generative,
            drybell,
            lf_stats,
            label_model,
            matrix,
            posteriors,
        };
        if let Some(journal) = telemetry.and_then(Telemetry::journal) {
            report.emit_to(self.name, journal);
        }
        report
    }

    /// Table 3 ablation: keep only the servable LF columns, refit, retrain.
    pub fn run_servable_only(&self) -> BinaryMetrics {
        let (matrix, _) = self.run_lfs();
        let mask = self.lf_set.servable_mask();
        let sub = matrix.select_columns(&mask).expect("mask length");
        let mut model = GenerativeModel::new(sub.num_lfs(), 0.7);
        model
            .fit(&sub, &self.label_model_config())
            .expect("training");
        let posteriors = model.predict_proba(&sub);
        let lr = self.train_drybell_lr(&posteriors);
        self.eval_on_test(&lr)
    }

    /// Table 4 ablation: unweighted average of LF votes as labels.
    pub fn run_equal_weights(&self) -> BinaryMetrics {
        let (matrix, _) = self.run_lfs();
        let labels = equal_weight_labels(&matrix, self.pos_rate);
        let lr = self.train_drybell_lr(&labels);
        self.eval_on_test(&lr)
    }
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
    /// Figure 6 histograms (20 bins over [0,1]) of test scores.
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
    let mut label_model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    label_model
        .fit(
            &matrix,
            &TrainConfig {
                steps: 6000,
                batch_size: 256,
                class_prior: 0.5,
                seed: cfg.seed,
                ..TrainConfig::default()
            },
        )
        .expect("label model");
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
    /// repo's smoke test for the whole §6.1 methodology — run through the
    /// observed path so it doubles as the harness telemetry check.
    #[test]
    fn topic_pipeline_end_to_end_smoke() {
        let mut task = ContentTask::topic(0.02, Some(11), 4); // ~13.7K docs
        task.lr_iterations = 2000;
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        let telemetry = Telemetry::with_journal(journal);
        let report = task.run_full_observed(Some(&telemetry));
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
