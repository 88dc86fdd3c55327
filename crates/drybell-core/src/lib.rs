//! # drybell-core
//!
//! The core of the Snorkel DryBell weak-supervision pipeline: data types for
//! labeling-function (LF) votes, the observed label matrix `Λ`, and the
//! **sampling-free generative label model** of Bach et al. (SIGMOD 2019, §5.2)
//! that combines noisy LF votes into probabilistic training labels.
//!
//! The pipeline implemented here follows the three Snorkel stages:
//!
//! 1. labeling functions vote on unlabeled examples (see `drybell-lf` for the
//!    template library; this crate only defines the vote/matrix types),
//! 2. a generative model estimates per-LF accuracies from agreements and
//!    disagreements alone — no ground truth — by minimizing the negative
//!    marginal log-likelihood `-log P(Λ)` with analytic (sampling-free)
//!    gradients,
//! 3. the model's posteriors `P(Y_i | Λ_i)` become confidence-weighted
//!    training labels for a downstream discriminative model (`drybell-ml`).
//!
//! Two trainers are provided for the paper's §5.2 comparison:
//!
//! * [`generative::GenerativeModel`] — the DryBell approach: exact analytic
//!   gradients of the marginal likelihood (what the paper implements as a
//!   static TensorFlow graph), optimized with SGD or Adam.
//! * [`gibbs::GibbsTrainer`] — the open-source Snorkel baseline: a Gibbs
//!   sampler over the latent labels driving stochastic gradient steps.
//!
//! Both — and the [`class_conditional`] extension — run on one mini-batch
//! optimiser loop, the private `train` module (input validation, batch
//! sampling, update, divergence check, per-epoch accounting); a model
//! supplies only its parameter packing and its gradient, the way §5.2
//! plugs likelihoods into one optimiser.
//!
//! Baseline combiners the paper evaluates against (unweighted average,
//! logical OR, majority vote) live in [`baselines`].
//!
//! ## Example
//!
//! Denoise three noisy voters without any ground truth:
//!
//! ```
//! use drybell_core::{GenerativeModel, LabelMatrix, TrainConfig};
//!
//! // Rows are examples, columns are labeling functions (+1 / -1 / 0).
//! let mut matrix = LabelMatrix::new(3);
//! for _ in 0..200 {
//!     matrix.push_raw_row(&[1, 1, 0]).unwrap();   // positives: LFs agree
//!     matrix.push_raw_row(&[-1, -1, -1]).unwrap() // negatives
//! }
//! matrix.push_raw_row(&[1, -1, 0]).unwrap();      // a conflict
//!
//! let mut model = GenerativeModel::new(3, 0.7);
//! let cfg = TrainConfig { steps: 300, batch_size: 32, ..TrainConfig::default() };
//! model.fit(&matrix, &cfg).unwrap();
//!
//! // Accuracies are learned from agreement structure alone.
//! assert!(model.learned_accuracies().iter().all(|&a| a > 0.5));
//! // Posteriors become probabilistic training labels.
//! let labels = model.predict_proba(&matrix);
//! assert!(labels[0] > 0.9 && labels[1] < 0.1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod baselines;
pub mod class_conditional;
pub mod dependencies;
pub mod error;
pub mod generative;
pub mod gibbs;
pub mod matrix;
pub mod optim;
pub mod parallel;
mod train;
pub mod vote;

pub use analysis::{LfReport, LfSummary};
pub use class_conditional::{CcTrainConfig, ClassConditionalModel};
pub use dependencies::{DependencyReport, PairDependency};
pub use error::CoreError;
pub use generative::{EpochStat, GenerativeModel, IncrementalState, TrainConfig, TrainReport};
pub use matrix::{ActiveRows, LabelMatrix};
pub use vote::Vote;

/// Numerically stable `log(exp(a) + exp(b))`.
#[inline]
pub fn logsumexp2(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// The logistic sigmoid `1 / (1 + e^{-x})`, stable for large `|x|`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logsumexp2_matches_naive() {
        let a = 0.3_f64;
        let b = -1.2_f64;
        let naive = (a.exp() + b.exp()).ln();
        assert!((logsumexp2(a, b) - naive).abs() < 1e-12);
    }

    #[test]
    fn logsumexp2_handles_extremes() {
        assert_eq!(
            logsumexp2(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert!((logsumexp2(1000.0, 1000.0) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert!((logsumexp2(-1000.0, 0.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-3);
        for x in [-3.0, -0.7, 0.0, 0.2, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }
}
