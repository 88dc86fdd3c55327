//! Gibbs-sampling trainer: the open-source Snorkel baseline (§5.2).
//!
//! The OSS Snorkel implementation estimates the gradient of the marginal
//! likelihood with a Gibbs sampler over the latent labels `Y`: for each
//! example in a mini-batch it runs a short chain re-sampling
//! `Y_i ~ P(Y_i | Λ_i, w)`, averages the sampled labels, and plugs the
//! average into the complete-data gradient. The paper's point is that this
//! is "relatively CPU intensive and complicated to distribute" compared to
//! the sampling-free analytic gradient of [`crate::generative`]; this module
//! exists so the §5.2 comparison (steps/s vs examples/s, reported by
//! `exp_speed` in `drybell-bench`) can be measured on equal footing.
//!
//! Both trainers share the same parameter family ([`GenerativeModel`]), so
//! their learned accuracies and posteriors are directly comparable.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::generative::{scatter_votes, GenerativeModel};
use crate::matrix::{dense_entries, LabelMatrix};
use crate::optim::{OptimState, Optimizer};
use crate::sigmoid;
use crate::train::{self, Params, Sampler, Watch};
use rand::Rng;

/// Hyperparameters for [`GibbsTrainer::fit`].
#[derive(Debug, Clone)]
pub struct GibbsConfig {
    /// Number of gradient steps (mini-batches).
    pub steps: usize,
    /// Mini-batch size (the paper benchmarks with 64).
    pub batch_size: usize,
    /// Burn-in chain transitions discarded per example before collecting.
    pub burn_in: usize,
    /// Chain samples of `Y_i` collected and averaged per example. OSS
    /// Snorkel defaults to a handful; more samples means lower-variance
    /// gradients at proportionally more CPU.
    pub samples: usize,
    /// Update rule applied to the sampled gradient.
    pub optimizer: Optimizer,
    /// L2 penalty toward 0 on `α` and `β`.
    pub l2: f64,
    /// Fixed class prior `P(Y=+1)`.
    pub class_prior: f64,
    /// Initial accuracy parameter.
    pub init_alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GibbsConfig {
    fn default() -> GibbsConfig {
        GibbsConfig {
            steps: 1000,
            batch_size: 64,
            burn_in: 5,
            samples: 10,
            optimizer: Optimizer::adam(0.05),
            l2: 1e-3,
            class_prior: 0.5,
            init_alpha: 0.7,
            seed: 0,
        }
    }
}

/// Outcome of a Gibbs training run, with the throughput numbers §5.2 quotes.
#[derive(Debug, Clone)]
pub struct GibbsReport {
    /// Gradient steps taken.
    pub steps: usize,
    /// Total examples processed: `steps × batch_size`, the batch capped at
    /// the row count as the sampler caps it.
    pub examples: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Examples per second — the unit the paper reports for the sampler.
    pub examples_per_sec: f64,
    /// Gradient steps per second, for apples-to-apples with the
    /// sampling-free trainer.
    pub steps_per_sec: f64,
    /// Mean per-example NLL on the full matrix after training.
    pub final_nll: f64,
}

/// Trains a [`GenerativeModel`] with Gibbs-sampled gradients.
#[derive(Debug)]
pub struct GibbsTrainer {
    model: GenerativeModel,
}

impl GibbsTrainer {
    /// Create a trainer for `num_lfs` labeling functions.
    pub fn new(num_lfs: usize) -> GibbsTrainer {
        GibbsTrainer {
            model: GenerativeModel::new(num_lfs, 0.7),
        }
    }

    /// The trained model (same family as the sampling-free trainer).
    pub fn model(&self) -> &GenerativeModel {
        &self.model
    }

    /// Fit by stochastic gradient descent with Gibbs-sampled label
    /// expectations.
    pub fn fit(&mut self, m: &LabelMatrix, cfg: &GibbsConfig) -> Result<GibbsReport, CoreError> {
        let (rows, n) = (m.num_examples(), m.num_lfs());
        train::validate(rows, n, self.model.num_lfs(), cfg.steps, cfg.batch_size)?;
        if cfg.samples == 0 {
            return Err(CoreError::BadConfig("samples must be >= 1".into()));
        }
        let eta = train::prior_log_odds(cfg.class_prior)?;
        self.model
            .set_params(vec![cfg.init_alpha; n], vec![0.0; n], eta);

        let mut opt = OptimState::new(cfg.optimizer, self.model.dim());
        // One RNG drives the epoch shuffles, the chain initialisation and
        // every chain transition, in that interleaved order.
        let mut sampler = Sampler::new(rows, cfg.batch_size, Some(cfg.seed));
        // Persistent chain state per example (contrastive-divergence style).
        let mut chain: Vec<i8> = (0..rows)
            .map(|_| if sampler.rng.gen_bool(0.5) { 1 } else { -1 })
            .collect();

        let report = train::run(
            &mut self.model,
            &mut opt,
            sampler,
            cfg.steps,
            Watch::default(),
            |model, sampler, grad| {
                grad.fill(0.0);
                for _ in 0..sampler.batch_len {
                    let i = sampler.next_index();
                    let row = m.row(i);
                    // Conditional P(Y_i = +1 | Λ_i, w): depends only on the
                    // active-vote margin and the prior (the Z terms cancel).
                    let mut margin = eta;
                    dense_entries(row)
                        .for_each(|(j, l)| margin += 2.0 * f64::from(l) * model.alphas()[j]);
                    let p = sigmoid(margin);
                    // Run the chain: burn-in, then collect.
                    let rng = &mut sampler.rng;
                    let mut y = chain[i];
                    for _ in 0..cfg.burn_in {
                        y = if rng.gen_bool(p) { 1 } else { -1 };
                    }
                    let mut y_sum = 0i64;
                    for _ in 0..cfg.samples {
                        y = if rng.gen_bool(p) { 1 } else { -1 };
                        y_sum += i64::from(y);
                    }
                    chain[i] = y;
                    // Complete-data gradient with the sampled E[Y]:
                    // ∂NLL/∂α_j = ∂Z/∂α − ȳ·λ_ij ; ∂NLL/∂β_j = ∂Z/∂β − 1[λ≠0].
                    let y_bar = y_sum as f64 / cfg.samples as f64;
                    scatter_votes(dense_entries(row), y_bar, n, grad);
                }
                model.finish_gradient(&model.cache(), sampler.batch_len, cfg.l2, grad);
            },
            |model| model.nll(m),
        )?;
        Ok(GibbsReport {
            steps: cfg.steps,
            examples: report.rows,
            seconds: report.seconds,
            examples_per_sec: report.rows_per_sec,
            steps_per_sec: report.steps_per_sec,
            final_nll: report.final_nll,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::Label;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted(m: usize, accs: &[f64], props: &[f64], seed: u64) -> (LabelMatrix, Vec<Label>) {
        let n = accs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mat = LabelMatrix::with_capacity(n, m);
        let mut gold = Vec::with_capacity(m);
        for _ in 0..m {
            let y = if rng.gen_bool(0.5) {
                Label::Positive
            } else {
                Label::Negative
            };
            let row: Vec<i8> = (0..n)
                .map(|j| {
                    if !rng.gen_bool(props[j]) {
                        0
                    } else if rng.gen_bool(accs[j]) {
                        y.as_i8()
                    } else {
                        -y.as_i8()
                    }
                })
                .collect();
            mat.push_raw_row(&row).unwrap();
            gold.push(y);
        }
        (mat, gold)
    }

    #[test]
    fn gibbs_recovers_planted_accuracies() {
        let accs = [0.9, 0.7, 0.8];
        let props = [0.8, 0.8, 0.8];
        let (mat, _) = planted(4000, &accs, &props, 17);
        let mut trainer = GibbsTrainer::new(3);
        let cfg = GibbsConfig {
            steps: 2500,
            samples: 10,
            ..GibbsConfig::default()
        };
        let report = trainer.fit(&mat, &cfg).unwrap();
        assert!(report.final_nll.is_finite());
        let learned = trainer.model().learned_accuracies();
        for (j, (&la, &ta)) in learned.iter().zip(&accs).enumerate() {
            assert!(
                (la - ta).abs() < 0.1,
                "LF {j}: learned {la:.3} vs planted {ta:.3}"
            );
        }
    }

    #[test]
    fn gibbs_and_sampling_free_agree() {
        use crate::generative::TrainConfig;
        let accs = [0.85, 0.65, 0.9, 0.75];
        let props = [0.7, 0.9, 0.5, 0.8];
        let (mat, _) = planted(5000, &accs, &props, 3);
        let mut gibbs = GibbsTrainer::new(4);
        gibbs
            .fit(
                &mat,
                &GibbsConfig {
                    steps: 3000,
                    ..GibbsConfig::default()
                },
            )
            .unwrap();
        let mut sf = GenerativeModel::new(4, 0.7);
        sf.fit(
            &mat,
            &TrainConfig {
                steps: 3000,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        for (j, (a, b)) in gibbs
            .model()
            .learned_accuracies()
            .iter()
            .zip(sf.learned_accuracies())
            .enumerate()
        {
            assert!((a - b).abs() < 0.08, "LF {j}: gibbs {a:.3} vs exact {b:.3}");
        }
    }

    #[test]
    fn gibbs_validates_inputs() {
        let mat = LabelMatrix::from_raw(2, vec![1, 0, 0, -1]).unwrap();
        let mut t = GibbsTrainer::new(3);
        assert!(matches!(
            t.fit(&mat, &GibbsConfig::default()),
            Err(CoreError::LengthMismatch { .. })
        ));
        let mut t = GibbsTrainer::new(2);
        let bad = GibbsConfig {
            samples: 0,
            ..GibbsConfig::default()
        };
        assert!(matches!(t.fit(&mat, &bad), Err(CoreError::BadConfig(_))));
        // Regression: a prior outside (0, 1) gave η = NaN and panicked
        // inside `gen_bool`; zero steps "trained" nothing and reported it.
        for bad in [
            GibbsConfig {
                class_prior: 1.5,
                ..GibbsConfig::default()
            },
            GibbsConfig {
                steps: 0,
                ..GibbsConfig::default()
            },
        ] {
            assert!(matches!(t.fit(&mat, &bad), Err(CoreError::BadConfig(_))));
        }
        let empty = LabelMatrix::new(2);
        assert!(matches!(
            t.fit(&empty, &GibbsConfig::default()),
            Err(CoreError::EmptyMatrix)
        ));
    }

    #[test]
    fn throughput_fields_are_consistent() {
        // Regression: a batch larger than the matrix was counted in full
        // (50 rows at batch 64 reported 640 examples over 10 steps).
        for (rows, steps, batch_size, examples) in [(500, 100, 32, 3200), (50, 10, 64, 500)] {
            let (mat, _) = planted(rows, &[0.8, 0.8], &[0.9, 0.9], 1);
            let mut t = GibbsTrainer::new(2);
            let cfg = GibbsConfig {
                steps,
                batch_size,
                ..GibbsConfig::default()
            };
            let r = t.fit(&mat, &cfg).unwrap();
            assert_eq!(r.examples, examples);
            let per_step = (examples / steps) as f64;
            assert!((r.examples_per_sec / r.steps_per_sec - per_step).abs() < 1e-6);
        }
    }
}
