//! Class-conditional label model (the MeTaL-style extension).
//!
//! §5.2 closes by noting that "it is also possible to directly plug-in
//! matrix factorization models of the kind recently used for denoising
//! labeling functions [Ratner et al., AAAI 2019] as TensorFlow model
//! functions". This module implements that richer family with the same
//! sampling-free analytic-gradient machinery: instead of one accuracy
//! parameter per LF, each LF gets a full class-conditional vote
//! distribution
//!
//! ```text
//! P(λ_j = v | Y = y) = softmax over v ∈ {+1, −1, abstain} of θ_{j,y,v}
//! ```
//!
//! (four free parameters per LF; the abstain logit is fixed at 0).
//!
//! Why it matters: the conditionally-independent model of
//! [`crate::generative`] ties an LF's behaviour on both classes to a
//! single accuracy, which makes *unipolar* LFs (voting only one class)
//! degenerate — a set of disjoint positive-only and negative-only LFs
//! admits an "everything is one class, the other LFs are always wrong"
//! maximum. The class-conditional model measures each LF's firing rate
//! *per class*, so a positive-only LF that fires on 60% of positives and
//! 0.4% of negatives carries its true likelihood ratio. The
//! `exp_class_conditional` binary and `tests` below demonstrate exactly
//! this failure/repair pair.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::matrix::LabelMatrix;
use crate::optim::{OptimState, Optimizer};
use crate::train::{self, Params, Sampler, Watch};
use crate::{logsumexp2, sigmoid};

/// Index helpers into the flat parameter vector:
/// `theta[j][y][v]` with `y ∈ {0:+1, 1:−1}`, `v ∈ {0:+1, 1:−1}`.
#[inline]
fn idx(j: usize, y: usize, v: usize) -> usize {
    j * 4 + y * 2 + v
}

/// Training hyperparameters for [`ClassConditionalModel::fit`].
#[derive(Debug, Clone)]
pub struct CcTrainConfig {
    /// Mini-batch gradient steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Update rule.
    pub optimizer: Optimizer,
    /// L2 penalty toward zero on all logits.
    pub l2: f64,
    /// Fixed class prior `P(Y = +1)`.
    pub class_prior: f64,
    /// Initial *accuracy tilt*: the matching-class vote logit starts at
    /// `+init_tilt` and the mismatching one at `−init_tilt`, breaking the
    /// label-permutation symmetry toward "LFs are accurate".
    pub init_tilt: f64,
    /// RNG seed for batch order.
    pub seed: u64,
}

impl Default for CcTrainConfig {
    fn default() -> CcTrainConfig {
        CcTrainConfig {
            steps: 6000,
            batch_size: 256,
            optimizer: Optimizer::adam(0.05),
            l2: 1e-3,
            class_prior: 0.5,
            init_tilt: 1.0,
            seed: 0,
        }
    }
}

/// The class-conditional generative label model.
#[derive(Debug, Clone)]
pub struct ClassConditionalModel {
    /// Flat `n × 2 × 2` logits; abstain logit fixed at 0.
    theta: Vec<f64>,
    num_lfs: usize,
    /// Class-prior log-odds (fixed during training).
    eta: f64,
}

impl ClassConditionalModel {
    /// Create a model for `num_lfs` labeling functions.
    pub fn new(num_lfs: usize) -> ClassConditionalModel {
        ClassConditionalModel {
            theta: vec![0.0; num_lfs * 4],
            num_lfs,
            eta: 0.0,
        }
    }

    /// Number of labeling functions.
    pub fn num_lfs(&self) -> usize {
        self.num_lfs
    }

    /// Raw logits (tests).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// The learned conditional vote table of LF `j`:
    /// `[ [P(+1|+1), P(−1|+1), P(0|+1)], [P(+1|−1), P(−1|−1), P(0|−1)] ]`.
    pub fn confusion(&self, j: usize) -> [[f64; 3]; 2] {
        let mut out = [[0.0; 3]; 2];
        for (y, row) in out.iter_mut().enumerate() {
            let tp = self.theta[idx(j, y, 0)];
            let tm = self.theta[idx(j, y, 1)];
            let z = logsumexp2(logsumexp2(tp, tm), 0.0);
            row[0] = (tp - z).exp();
            row[1] = (tm - z).exp();
            row[2] = (-z).exp();
        }
        out
    }

    /// `log P(λ_ij = l | Y = y)` for one LF.
    #[inline]
    fn log_cond(&self, j: usize, y: usize, l: i8) -> f64 {
        let tp = self.theta[idx(j, y, 0)];
        let tm = self.theta[idx(j, y, 1)];
        let z = logsumexp2(logsumexp2(tp, tm), 0.0);
        match l {
            1 => tp - z,
            -1 => tm - z,
            _ => -z,
        }
    }

    /// Joint log-scores `(log P(row, Y=+1), log P(row, Y=−1))`.
    fn joint_scores(&self, row: &[i8]) -> (f64, f64) {
        let mut sp = sigmoid(self.eta).ln();
        let mut sm = sigmoid(-self.eta).ln();
        for (j, &l) in row.iter().enumerate() {
            sp += self.log_cond(j, 0, l);
            sm += self.log_cond(j, 1, l);
        }
        (sp, sm)
    }

    /// Posterior `P(Y = +1 | row)`.
    pub fn posterior(&self, row: &[i8]) -> f64 {
        let (sp, sm) = self.joint_scores(row);
        sigmoid(sp - sm)
    }

    /// Posteriors for every row of the matrix.
    pub fn predict_proba(&self, m: &LabelMatrix) -> Vec<f64> {
        m.rows().map(|row| self.posterior(row)).collect()
    }

    /// Mean per-example negative marginal log-likelihood.
    pub fn nll(&self, m: &LabelMatrix) -> Result<f64, CoreError> {
        if m.is_empty() {
            return Err(CoreError::EmptyMatrix);
        }
        let total: f64 = m
            .rows()
            .map(|row| {
                let (sp, sm) = self.joint_scores(row);
                -logsumexp2(sp, sm)
            })
            .sum();
        Ok(total / m.num_examples() as f64)
    }

    /// Mean NLL gradient over `batch` rows plus L2. An empty batch leaves
    /// `grad` all-zero instead of dividing by zero.
    fn grad_batch(
        &self,
        m: &LabelMatrix,
        batch: impl Iterator<Item = usize>,
        l2: f64,
        grad: &mut [f64],
    ) {
        grad.fill(0.0);
        // Cache the per-(j, y) conditional vote probabilities.
        let mut probs = vec![[0.0f64; 2]; self.num_lfs * 2]; // [P(+1|y), P(-1|y)]
        for j in 0..self.num_lfs {
            for y in 0..2 {
                let tp = self.theta[idx(j, y, 0)];
                let tm = self.theta[idx(j, y, 1)];
                let z = logsumexp2(logsumexp2(tp, tm), 0.0);
                probs[j * 2 + y] = [(tp - z).exp(), (tm - z).exp()];
            }
        }
        let mut rows = 0usize;
        for i in batch {
            rows += 1;
            let row = m.row(i);
            let (sp, sm) = self.joint_scores(row);
            let p_pos = sigmoid(sp - sm);
            for (j, &l) in row.iter().enumerate() {
                for (y, &py) in [p_pos, 1.0 - p_pos].iter().enumerate() {
                    let pv = probs[j * 2 + y];
                    // ∂(−log P)/∂θ_{j,y,v} = −p(y)·(1[λ=v] − P(v|y))
                    let ind_p = f64::from(u8::from(l == 1));
                    let ind_m = f64::from(u8::from(l == -1));
                    grad[idx(j, y, 0)] -= py * (ind_p - pv[0]);
                    grad[idx(j, y, 1)] -= py * (ind_m - pv[1]);
                }
            }
        }
        if rows == 0 {
            return;
        }
        let bsz = rows as f64;
        for (g, &t) in grad.iter_mut().zip(&self.theta) {
            *g = *g / bsz + l2 * t;
        }
    }

    /// Full-data gradient (gradient checks); all-zero for an empty matrix.
    #[cfg(test)]
    fn full_gradient(&self, m: &LabelMatrix, l2: f64) -> Vec<f64> {
        let mut grad = vec![0.0; self.theta.len()];
        self.grad_batch(m, 0..m.num_examples(), l2, &mut grad);
        grad
    }

    /// Fit by mini-batch gradient descent on the marginal NLL.
    pub fn fit(&mut self, m: &LabelMatrix, cfg: &CcTrainConfig) -> Result<f64, CoreError> {
        let (rows, lfs) = (m.num_examples(), m.num_lfs());
        train::validate(rows, lfs, self.num_lfs, cfg.steps, cfg.batch_size)?;
        self.eta = train::prior_log_odds(cfg.class_prior)?;
        // Accuracy-tilted init: voting the true class starts favored.
        for j in 0..self.num_lfs {
            self.theta[idx(j, 0, 0)] = cfg.init_tilt; // P(+1|+1) up
            self.theta[idx(j, 0, 1)] = -cfg.init_tilt;
            self.theta[idx(j, 1, 0)] = -cfg.init_tilt;
            self.theta[idx(j, 1, 1)] = cfg.init_tilt; // P(−1|−1) up
        }
        let mut opt = OptimState::new(cfg.optimizer, self.dim());
        let report = train::run(
            self,
            &mut opt,
            Sampler::new(rows, cfg.batch_size, Some(cfg.seed)),
            cfg.steps,
            Watch::default(),
            |model, sampler, grad| model.grad_batch(m, sampler.batch(), cfg.l2, grad),
            |model| model.nll(m),
        )?;
        Ok(report.final_nll)
    }
}

impl Params for ClassConditionalModel {
    fn dim(&self) -> usize {
        self.theta.len()
    }

    fn pack(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.theta);
    }

    fn unpack(&mut self, params: &[f64]) {
        self.theta.copy_from_slice(params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generative::{GenerativeModel, TrainConfig};
    use crate::vote::Label;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force NLL straight from the probabilistic definition.
    fn brute_force_nll(m: &LabelMatrix, model: &ClassConditionalModel, prior: f64) -> f64 {
        let mut total = 0.0;
        for row in m.rows() {
            let mut marginal = 0.0;
            for (y, pi) in [(0usize, prior), (1usize, 1.0 - prior)] {
                let mut p = pi;
                for (j, &l) in row.iter().enumerate() {
                    let conf = model.confusion(j);
                    p *= match l {
                        1 => conf[y][0],
                        -1 => conf[y][1],
                        _ => conf[y][2],
                    };
                }
                marginal += p;
            }
            total -= marginal.ln();
        }
        total / m.num_examples() as f64
    }

    /// A model of `lfs` LFs with its logits and prior set directly.
    fn with_theta(lfs: usize, theta: Vec<f64>, eta: f64) -> ClassConditionalModel {
        let mut model = ClassConditionalModel::new(lfs);
        assert_eq!(theta.len(), lfs * 4);
        model.theta = theta;
        model.eta = eta;
        model
    }

    fn random_matrix(examples: usize, lfs: usize, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(examples * lfs);
        for _ in 0..examples * lfs {
            data.push([-1i8, 0, 0, 1][rng.gen_range(0..4)]);
        }
        LabelMatrix::from_raw(lfs, data).unwrap()
    }

    #[test]
    fn nll_matches_brute_force() {
        let m = random_matrix(30, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let theta: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.5)).collect();
        let model = with_theta(4, theta, 0.4);
        let fast = model.nll(&m).unwrap();
        let slow = brute_force_nll(&m, &model, sigmoid(0.4));
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = random_matrix(20, 3, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let theta: Vec<f64> = (0..12).map(|_| rng.gen_range(-0.8..0.8)).collect();
        let model = with_theta(3, theta.clone(), 0.0);
        let l2 = 0.01;
        let grad = model.full_gradient(&m, l2);
        let h = 1e-6;
        for k in 0..theta.len() {
            let mut up = theta.clone();
            up[k] += h;
            let mut down = theta.clone();
            down[k] -= h;
            let f = |t: Vec<f64>| {
                let l2_term: f64 = t.iter().map(|p| 0.5 * l2 * p * p).sum();
                with_theta(3, t, 0.0).nll(&m).unwrap() + l2_term
            };
            let fd = (f(up) - f(down)) / (2.0 * h);
            assert!(
                (grad[k] - fd).abs() < 1e-5,
                "theta[{k}]: {} vs {fd}",
                grad[k]
            );
        }
    }

    /// The headline: a FULLY UNIPOLAR LF set over a rare positive class.
    /// The conditionally-independent model collapses (its global optimum
    /// explains every positive LF as always-wrong); the class-conditional
    /// model recovers the truth.
    #[test]
    fn unipolar_lfs_work_where_ci_model_collapses() {
        let mut rng = StdRng::seed_from_u64(7);
        let pos_rate = 0.05;
        let mut matrix = LabelMatrix::with_capacity(4, 20_000);
        let mut gold = Vec::new();
        for _ in 0..20_000 {
            let y = rng.gen_bool(pos_rate);
            // Two positive-only LFs, two negative-only LFs; disjoint
            // polarities, no bipolar anchor.
            let row = [
                // fires on 70% of positives, 0.5% of negatives
                if y && rng.gen_bool(0.7) || !y && rng.gen_bool(0.005) {
                    1
                } else {
                    0
                },
                if y && rng.gen_bool(0.5) || !y && rng.gen_bool(0.003) {
                    1
                } else {
                    0
                },
                // fires on 60% of negatives, 2% of positives
                if !y && rng.gen_bool(0.6) || y && rng.gen_bool(0.02) {
                    -1
                } else {
                    0
                },
                if !y && rng.gen_bool(0.4) || y && rng.gen_bool(0.01) {
                    -1
                } else {
                    0
                },
            ];
            matrix.push_raw_row(&row).unwrap();
            gold.push(if y { Label::Positive } else { Label::Negative });
        }
        let accuracy = |post: &[f64]| {
            post.iter()
                .zip(&gold)
                .filter(|(p, y)| (**p > 0.5) == (**y == Label::Positive))
                .count() as f64
                / gold.len() as f64
        };
        let pos_recall = |post: &[f64]| {
            let hits = post
                .iter()
                .zip(&gold)
                .filter(|(p, y)| **y == Label::Positive && **p > 0.5)
                .count();
            hits as f64 / gold.iter().filter(|y| **y == Label::Positive).count() as f64
        };

        // MeTaL-style models take the class balance as known/estimated;
        // with a fixed 50/50 prior a 95/5 mixture would be distorted.
        let mut cc = ClassConditionalModel::new(4);
        cc.fit(
            &matrix,
            &CcTrainConfig {
                class_prior: pos_rate,
                ..CcTrainConfig::default()
            },
        )
        .unwrap();
        let cc_post = cc.predict_proba(&matrix);
        assert!(
            accuracy(&cc_post) > 0.95,
            "cc accuracy {}",
            accuracy(&cc_post)
        );
        assert!(
            pos_recall(&cc_post) > 0.5,
            "cc must find positives: recall {}",
            pos_recall(&cc_post)
        );

        let mut ci = GenerativeModel::new(4, 0.7);
        ci.fit(
            &matrix,
            &TrainConfig {
                steps: 6000,
                batch_size: 256,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let ci_post = ci.predict_proba(&matrix);
        // The CI model's degenerate optimum misses essentially all
        // positives on this structure.
        assert!(
            pos_recall(&ci_post) < pos_recall(&cc_post),
            "ci recall {} vs cc recall {}",
            pos_recall(&ci_post),
            pos_recall(&cc_post)
        );
    }

    #[test]
    fn recovers_planted_confusion_tables() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut matrix = LabelMatrix::with_capacity(3, 15_000);
        // Planted: LF0 bipolar accurate; LF1 positive-only; LF2 noisy.
        let plant = |y: bool, rng: &mut StdRng| -> [i8; 3] {
            [
                if rng.gen_bool(0.8) {
                    if y {
                        1
                    } else {
                        -1
                    }
                } else {
                    0
                },
                if y && rng.gen_bool(0.6) || !y && rng.gen_bool(0.01) {
                    1
                } else {
                    0
                },
                if rng.gen_bool(0.3) {
                    if rng.gen_bool(0.55) == y {
                        1
                    } else {
                        -1
                    }
                } else {
                    0
                },
            ]
        };
        for _ in 0..15_000 {
            let y = rng.gen_bool(0.5);
            matrix.push_raw_row(&plant(y, &mut rng)).unwrap();
        }
        let mut model = ClassConditionalModel::new(3);
        model.fit(&matrix, &CcTrainConfig::default()).unwrap();
        let c0 = model.confusion(0);
        assert!((c0[0][0] - 0.8).abs() < 0.08, "P(+1|+1) = {}", c0[0][0]);
        assert!((c0[1][1] - 0.8).abs() < 0.08, "P(-1|-1) = {}", c0[1][1]);
        let c1 = model.confusion(1);
        assert!((c1[0][0] - 0.6).abs() < 0.08, "P(+1|+1) = {}", c1[0][0]);
        assert!(c1[1][0] < 0.05, "P(+1|-1) = {}", c1[1][0]);
    }

    #[test]
    fn confusion_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = with_theta(2, (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect(), 0.3);
        for j in 0..2 {
            for row in model.confusion(j) {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12);
                assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn fit_validates_inputs() {
        let m = random_matrix(10, 3, 0);
        let mut model = ClassConditionalModel::new(4);
        assert!(matches!(
            model.fit(&m, &CcTrainConfig::default()),
            Err(CoreError::LengthMismatch { .. })
        ));
        let mut model = ClassConditionalModel::new(3);
        assert!(matches!(
            model.fit(
                &m,
                &CcTrainConfig {
                    class_prior: 0.0,
                    ..CcTrainConfig::default()
                }
            ),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            model.fit(
                &m,
                &CcTrainConfig {
                    steps: 0,
                    ..CcTrainConfig::default()
                }
            ),
            Err(CoreError::BadConfig(_))
        ));
        let empty = LabelMatrix::new(3);
        assert!(matches!(
            model.fit(&empty, &CcTrainConfig::default()),
            Err(CoreError::EmptyMatrix)
        ));
        // Regression: the mean over zero rows was 0/0 in every slot.
        assert_eq!(model.full_gradient(&empty, 1e-3), vec![0.0; 12]);
    }

    #[test]
    fn agrees_with_ci_model_on_bipolar_data() {
        // On well-behaved bipolar LFs the two families should produce
        // near-identical posteriors.
        let mut rng = StdRng::seed_from_u64(13);
        let mut matrix = LabelMatrix::with_capacity(4, 10_000);
        let mut gold = Vec::new();
        for _ in 0..10_000 {
            let y = rng.gen_bool(0.5);
            let row: Vec<i8> = (0..4)
                .map(|j| {
                    let acc = 0.65 + 0.08 * j as f64;
                    if !rng.gen_bool(0.7) {
                        0
                    } else if rng.gen_bool(acc) {
                        if y {
                            1
                        } else {
                            -1
                        }
                    } else if y {
                        -1
                    } else {
                        1
                    }
                })
                .collect();
            matrix.push_raw_row(&row).unwrap();
            gold.push(y);
        }
        let mut cc = ClassConditionalModel::new(4);
        cc.fit(&matrix, &CcTrainConfig::default()).unwrap();
        let mut ci = GenerativeModel::new(4, 0.7);
        ci.fit(
            &matrix,
            &TrainConfig {
                steps: 6000,
                batch_size: 256,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let cc_post = cc.predict_proba(&matrix);
        let ci_post = ci.predict_proba(&matrix);
        let disagreements = cc_post
            .iter()
            .zip(&ci_post)
            .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
            .count();
        assert!(
            (disagreements as f64) < 0.02 * gold.len() as f64,
            "families disagree on {disagreements} rows"
        );
    }
}
