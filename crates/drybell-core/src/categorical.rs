//! Categorical extension of the generative model.
//!
//! §2 notes that DryBell "can handle arbitrary categorical targets as well,
//! e.g. `Y_i ∈ {1, ..., k}`". This module generalizes the binary model of
//! [`crate::generative`]: each LF still has one accuracy parameter `α_j`
//! (probability of voting the *true* class given it voted) and one
//! propensity parameter `β_j`, with the `k−1` wrong classes sharing the
//! error mass symmetrically. The per-LF normalizer becomes
//! `Z_j = log(e^{α+β} + (k−1)·e^{−α+β} + 1)` and training is the same
//! sampling-free analytic-gradient scheme.

// drybell-lint: allow-file(no-panic-index) — dense numeric kernel: loop bounds are derived from the matrix shape once and invariant; .get() in the inner loops would hide real shape bugs and cost the hot path

use crate::error::CoreError;
use crate::logsumexp;
use crate::optim::{OptimState, Optimizer};
use crate::train::{self, Params, Sampler, Watch};
use crate::vote::CatVote;

/// A dense `m × n` matrix of categorical votes over `k` classes.
///
/// Entries are `0` (abstain) or a 1-based class id `1..=k`.
#[derive(Debug, Clone, PartialEq)]
pub struct CatLabelMatrix {
    data: Vec<u32>,
    num_lfs: usize,
    num_classes: u32,
}

impl CatLabelMatrix {
    /// Create an empty matrix for `num_lfs` LFs over `num_classes` classes.
    ///
    /// Returns an error unless `num_classes >= 2`.
    pub fn new(num_lfs: usize, num_classes: u32) -> Result<CatLabelMatrix, CoreError> {
        if num_classes < 2 {
            return Err(CoreError::BadConfig(
                "categorical model needs at least 2 classes".into(),
            ));
        }
        Ok(CatLabelMatrix {
            data: Vec::new(),
            num_lfs,
            num_classes,
        })
    }

    /// Append one example's votes.
    pub fn push_row(&mut self, votes: &[CatVote]) -> Result<(), CoreError> {
        if votes.len() != self.num_lfs {
            return Err(CoreError::RowArity {
                expected: self.num_lfs,
                got: votes.len(),
            });
        }
        for v in votes {
            if v.0 > self.num_classes {
                return Err(CoreError::InvalidVote {
                    value: i64::from(v.0),
                    expected: "0 (abstain) or 1..=k",
                });
            }
        }
        self.data.extend(votes.iter().map(|v| v.0));
        Ok(())
    }

    /// Number of examples.
    pub fn num_examples(&self) -> usize {
        self.data.len().checked_div(self.num_lfs).unwrap_or(0)
    }

    /// Number of labeling functions.
    pub fn num_lfs(&self) -> usize {
        self.num_lfs
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as raw class ids.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.num_lfs..(i + 1) * self.num_lfs]
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.data.chunks_exact(self.num_lfs)
    }
}

/// Training hyperparameters for the categorical model.
#[derive(Debug, Clone)]
pub struct CatTrainConfig {
    /// Number of mini-batch gradient steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Update rule.
    pub optimizer: Optimizer,
    /// L2 penalty on `α` and `β`.
    pub l2: f64,
    /// Initial accuracy parameter.
    pub init_alpha: f64,
    /// RNG seed for batch order.
    pub seed: u64,
}

impl Default for CatTrainConfig {
    fn default() -> CatTrainConfig {
        CatTrainConfig {
            steps: 1500,
            batch_size: 64,
            optimizer: Optimizer::adam(0.05),
            l2: 1e-3,
            init_alpha: 0.7,
            seed: 0,
        }
    }
}

/// The k-class conditionally-independent generative label model.
#[derive(Debug, Clone)]
pub struct CategoricalModel {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    num_classes: u32,
}

impl CategoricalModel {
    /// Create a model for `num_lfs` LFs over `num_classes >= 2` classes.
    pub fn new(
        num_lfs: usize,
        num_classes: u32,
        init_alpha: f64,
    ) -> Result<CategoricalModel, CoreError> {
        if num_classes < 2 {
            return Err(CoreError::BadConfig(
                "categorical model needs at least 2 classes".into(),
            ));
        }
        Ok(CategoricalModel {
            alpha: vec![init_alpha; num_lfs],
            beta: vec![0.0; num_lfs],
            num_classes,
        })
    }

    /// Directly set parameters (tests).
    pub fn set_params(&mut self, alpha: Vec<f64>, beta: Vec<f64>) {
        assert_eq!(alpha.len(), beta.len());
        self.alpha = alpha;
        self.beta = beta;
    }

    /// Learned accuracy `P(λ_j = Y | λ_j ≠ 0) = A / (A + (k−1)B)`.
    pub fn learned_accuracies(&self) -> Vec<f64> {
        let km1 = f64::from(self.num_classes - 1);
        self.alpha
            .iter()
            .zip(&self.beta)
            .map(|(&a, &b)| {
                let big_a = (a + b).exp();
                let big_b = (-a + b).exp();
                big_a / (big_a + km1 * big_b)
            })
            .collect()
    }

    /// `(Z_j, ∂Z/∂α_j, ∂Z/∂β_j)` for all LFs.
    fn z_terms(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
        let km1 = f64::from(self.num_classes - 1);
        let n = self.alpha.len();
        let (mut z, mut da, mut db) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        let mut sum_z = 0.0;
        for (&a, &b) in self.alpha.iter().zip(&self.beta) {
            let big_a = (a + b).exp();
            let big_b = (-a + b).exp();
            let d = big_a + km1 * big_b + 1.0;
            let zj = d.ln();
            sum_z += zj;
            z.push(zj);
            da.push((big_a - km1 * big_b) / d);
            db.push((big_a + km1 * big_b) / d);
        }
        (z, da, db, sum_z)
    }

    /// Posterior `P(Y_i = y | Λ_i)` for every class, for one row.
    pub fn posterior(&self, row: &[u32]) -> Vec<f64> {
        let k = self.num_classes as usize;
        // Scores relative to a base: s(y) = Σ_{j active} (±α_j) + const.
        // Only the α terms differ across y, so work with those.
        let mut scores = vec![0.0f64; k];
        for (j, &l) in row.iter().enumerate() {
            if l != 0 {
                for (y, s) in scores.iter_mut().enumerate() {
                    if (y + 1) as u32 == l {
                        *s += self.alpha[j];
                    } else {
                        *s -= self.alpha[j];
                    }
                }
            }
        }
        let lse = logsumexp(&scores);
        scores.iter().map(|s| (s - lse).exp()).collect()
    }

    /// Posteriors for every row: `m × k` row-major.
    pub fn predict_proba(&self, m: &CatLabelMatrix) -> Vec<Vec<f64>> {
        m.rows().map(|row| self.posterior(row)).collect()
    }

    /// Mean per-example negative marginal log-likelihood (uniform prior).
    pub fn nll(&self, m: &CatLabelMatrix) -> Result<f64, CoreError> {
        if m.is_empty() {
            return Err(CoreError::EmptyMatrix);
        }
        let k = self.num_classes as usize;
        let (_, _, _, sum_z) = self.z_terms();
        let log_prior = -(k as f64).ln();
        let mut total = 0.0;
        let mut scores = vec![0.0f64; k];
        for row in m.rows() {
            scores.iter_mut().for_each(|s| *s = log_prior - sum_z);
            let mut beta_sum = 0.0;
            for (j, &l) in row.iter().enumerate() {
                if l != 0 {
                    beta_sum += self.beta[j];
                    for (y, s) in scores.iter_mut().enumerate() {
                        if (y + 1) as u32 == l {
                            *s += self.alpha[j];
                        } else {
                            *s -= self.alpha[j];
                        }
                    }
                }
            }
            scores.iter_mut().for_each(|s| *s += beta_sum);
            total -= logsumexp(&scores);
        }
        Ok(total / m.num_examples() as f64)
    }

    /// Mean NLL gradient over the given row indices.
    /// Layout: `[∂α.., ∂β..]`. An empty batch leaves `grad` all-zero
    /// instead of dividing by zero.
    fn grad_batch(
        &self,
        m: &CatLabelMatrix,
        batch: impl Iterator<Item = usize>,
        l2: f64,
        grad: &mut [f64],
    ) {
        let n = self.alpha.len();
        grad.fill(0.0);
        let (_, dz_da, dz_db, _) = self.z_terms();
        let mut rows = 0usize;
        for i in batch {
            rows += 1;
            let row = m.row(i);
            let post = self.posterior(row);
            for (j, &l) in row.iter().enumerate() {
                if l != 0 {
                    let p_vote = post[(l - 1) as usize];
                    grad[j] -= 2.0 * p_vote - 1.0;
                    grad[n + j] -= 1.0;
                }
            }
        }
        if rows == 0 {
            return;
        }
        let bsz = rows as f64;
        for j in 0..n {
            grad[j] += bsz * dz_da[j];
            grad[n + j] += bsz * dz_db[j];
        }
        for g in grad.iter_mut() {
            *g /= bsz;
        }
        for j in 0..n {
            grad[j] += l2 * self.alpha[j];
            grad[n + j] += l2 * self.beta[j];
        }
    }

    /// Full-data mean gradient (for gradient checks); all-zero for an
    /// empty matrix.
    pub fn full_gradient(&self, m: &CatLabelMatrix, l2: f64) -> Vec<f64> {
        let mut grad = vec![0.0; self.dim()];
        self.grad_batch(m, 0..m.num_examples(), l2, &mut grad);
        grad
    }

    /// Fit by mini-batch gradient descent on the marginal NLL.
    pub fn fit(&mut self, m: &CatLabelMatrix, cfg: &CatTrainConfig) -> Result<f64, CoreError> {
        let (rows, lfs) = (m.num_examples(), m.num_lfs());
        train::validate(rows, lfs, self.alpha.len(), cfg.steps, cfg.batch_size)?;
        if m.num_classes() != self.num_classes {
            return Err(CoreError::LengthMismatch {
                left: m.num_classes() as usize,
                right: self.num_classes as usize,
            });
        }
        self.alpha.fill(cfg.init_alpha);
        self.beta.fill(0.0);
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

impl Params for CategoricalModel {
    /// `[α_0..α_n, β_0..β_n]`.
    fn dim(&self) -> usize {
        2 * self.alpha.len()
    }

    fn pack(&self, out: &mut [f64]) {
        let n = self.alpha.len();
        out[..n].copy_from_slice(&self.alpha);
        out[n..].copy_from_slice(&self.beta);
    }

    fn unpack(&mut self, params: &[f64]) {
        let n = self.alpha.len();
        self.alpha.copy_from_slice(&params[..n]);
        self.beta.copy_from_slice(&params[n..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force_nll(m: &CatLabelMatrix, alpha: &[f64], beta: &[f64]) -> f64 {
        let k = m.num_classes();
        let km1 = f64::from(k - 1);
        let mut total = 0.0;
        for row in m.rows() {
            let mut marginal = 0.0;
            for y in 1..=k {
                let mut p = 1.0 / f64::from(k);
                for (j, &l) in row.iter().enumerate() {
                    let big_a = (alpha[j] + beta[j]).exp();
                    let big_b = (-alpha[j] + beta[j]).exp();
                    let d = big_a + km1 * big_b + 1.0;
                    p *= if l == 0 {
                        1.0 / d
                    } else if l == y {
                        big_a / d
                    } else {
                        big_b / d
                    };
                }
                marginal += p;
            }
            total -= marginal.ln();
        }
        total / m.num_examples() as f64
    }

    fn random_cat(mexamples: usize, n: usize, k: u32, seed: u64) -> CatLabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = CatLabelMatrix::new(n, k).unwrap();
        for _ in 0..mexamples {
            let row: Vec<CatVote> = (0..n).map(|_| CatVote(rng.gen_range(0..=k))).collect();
            m.push_row(&row).unwrap();
        }
        m
    }

    #[test]
    fn nll_matches_brute_force() {
        let m = random_cat(30, 4, 3, 5);
        let mut model = CategoricalModel::new(4, 3, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let alpha: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.5)).collect();
        let beta: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        model.set_params(alpha.clone(), beta.clone());
        let fast = model.nll(&m).unwrap();
        let slow = brute_force_nll(&m, &alpha, &beta);
        assert!((fast - slow).abs() < 1e-10, "{fast} vs {slow}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = random_cat(20, 3, 4, 8);
        let mut model = CategoricalModel::new(3, 4, 0.0).unwrap();
        let alpha = vec![0.6, -0.3, 0.2];
        let beta = vec![0.1, 0.4, -0.5];
        model.set_params(alpha.clone(), beta.clone());
        let l2 = 0.02;
        let grad = model.full_gradient(&m, l2);
        let h = 1e-6;
        let f = |al: &[f64], be: &[f64]| {
            let l2_term: f64 = al.iter().chain(be).map(|p| 0.5 * l2 * p * p).sum();
            brute_force_nll(&m, al, be) + l2_term
        };
        for j in 0..3 {
            let mut ap = alpha.clone();
            ap[j] += h;
            let mut am = alpha.clone();
            am[j] -= h;
            let fd = (f(&ap, &beta) - f(&am, &beta)) / (2.0 * h);
            assert!(
                (grad[j] - fd).abs() < 1e-5,
                "alpha[{j}]: {} vs {fd}",
                grad[j]
            );
            let mut bp = beta.clone();
            bp[j] += h;
            let mut bm = beta.clone();
            bm[j] -= h;
            let fd = (f(&alpha, &bp) - f(&alpha, &bm)) / (2.0 * h);
            assert!(
                (grad[3 + j] - fd).abs() < 1e-5,
                "beta[{j}]: {} vs {fd}",
                grad[3 + j]
            );
        }
    }

    #[test]
    fn recovers_planted_accuracies_k4() {
        let k = 4u32;
        let accs = [0.85, 0.7, 0.9];
        let props = [0.8, 0.9, 0.6];
        let mut rng = StdRng::seed_from_u64(33);
        let mut m = CatLabelMatrix::new(3, k).unwrap();
        let mut gold = Vec::new();
        for _ in 0..8000 {
            let y = rng.gen_range(1..=k);
            let row: Vec<CatVote> = accs
                .iter()
                .zip(&props)
                .map(|(&a, &p)| {
                    if !rng.gen_bool(p) {
                        CatVote::ABSTAIN
                    } else if rng.gen_bool(a) {
                        CatVote(y)
                    } else {
                        // Uniform over wrong classes.
                        let mut w = rng.gen_range(1..=k - 1);
                        if w >= y {
                            w += 1;
                        }
                        CatVote(w)
                    }
                })
                .collect();
            m.push_row(&row).unwrap();
            gold.push(y);
        }
        let mut model = CategoricalModel::new(3, k, 0.7).unwrap();
        let cfg = CatTrainConfig {
            steps: 3000,
            ..CatTrainConfig::default()
        };
        model.fit(&m, &cfg).unwrap();
        for (j, (&la, &ta)) in model.learned_accuracies().iter().zip(&accs).enumerate() {
            assert!((la - ta).abs() < 0.08, "LF {j}: {la:.3} vs {ta:.3}");
        }
        // Posterior argmax should predict gold well.
        let correct = m
            .rows()
            .zip(&gold)
            .filter(|(row, &y)| {
                let post = model.posterior(row);
                let argmax = post
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0 as u32
                    + 1;
                argmax == y
            })
            .count() as f64
            / gold.len() as f64;
        assert!(correct > 0.85, "posterior accuracy {correct:.3}");
    }

    #[test]
    fn k2_posterior_agrees_with_binary_model() {
        use crate::generative::GenerativeModel;
        let alpha = vec![0.8, 0.3];
        let beta = vec![0.2, -0.1];
        let mut cat = CategoricalModel::new(2, 2, 0.0).unwrap();
        cat.set_params(alpha.clone(), beta.clone());
        let mut bin = GenerativeModel::new(2, 0.0);
        bin.set_params(alpha, beta, 0.0);
        // Class 1 ↔ +1, class 2 ↔ −1.
        let cases: [([u32; 2], [i8; 2]); 4] = [
            ([1, 2], [1, -1]),
            ([1, 0], [1, 0]),
            ([2, 2], [-1, -1]),
            ([0, 0], [0, 0]),
        ];
        for (crow, brow) in cases {
            let pc = cat.posterior(&crow)[0];
            let pb = bin.posterior(&brow);
            assert!((pc - pb).abs() < 1e-10, "{pc} vs {pb}");
        }
    }

    #[test]
    fn fit_validates_inputs() {
        let m = random_cat(10, 3, 4, 0);
        let cfg = CatTrainConfig::default();
        let mut wrong_lfs = CategoricalModel::new(2, 4, 0.7).unwrap();
        assert_eq!(
            wrong_lfs.fit(&m, &cfg),
            Err(CoreError::LengthMismatch { left: 3, right: 2 })
        );
        // Regression: a class-count mismatch reported the (equal) LF counts.
        let mut wrong_classes = CategoricalModel::new(3, 5, 0.7).unwrap();
        assert_eq!(
            wrong_classes.fit(&m, &cfg),
            Err(CoreError::LengthMismatch { left: 4, right: 5 })
        );
        let mut model = CategoricalModel::new(3, 4, 0.7).unwrap();
        for bad in [
            CatTrainConfig {
                steps: 0,
                ..cfg.clone()
            },
            CatTrainConfig {
                batch_size: 0,
                ..cfg.clone()
            },
        ] {
            assert!(matches!(model.fit(&m, &bad), Err(CoreError::BadConfig(_))));
        }
        let empty = CatLabelMatrix::new(3, 4).unwrap();
        assert_eq!(model.fit(&empty, &cfg), Err(CoreError::EmptyMatrix));
        // Regression: the mean over zero rows was 0/0 in every slot.
        assert_eq!(model.full_gradient(&empty, 1e-3), vec![0.0; 6]);
    }

    #[test]
    fn matrix_validation() {
        assert!(CatLabelMatrix::new(2, 1).is_err());
        let mut m = CatLabelMatrix::new(2, 3).unwrap();
        assert!(m.push_row(&[CatVote(1)]).is_err());
        assert!(m.push_row(&[CatVote(4), CatVote(0)]).is_err());
        assert!(m.push_row(&[CatVote(3), CatVote(0)]).is_ok());
        assert_eq!(m.num_examples(), 1);
    }
}
