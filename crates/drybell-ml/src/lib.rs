//! # drybell-ml
//!
//! Discriminative models and evaluation — the stand-in for TFX (§5.3).
//!
//! * [`logreg`] — sparse logistic regression trained with the
//!   **FTRL-Proximal** optimizer of McMahan et al. (KDD 2013), "a variant
//!   of stochastic gradient descent that tunes per-coordinate learning
//!   rates", which §6.1 names as the trainer for both content tasks
//!   (initial step 0.2, batch size 64).
//! * [`mlp`] — a small feed-forward network with ReLU hidden layers, used
//!   for the real-time events application (§6.4 trains "a deep neural
//!   network over the servable features").
//! * [`loss`] — the noise-aware loss: the expected loss under the
//!   probabilistic labels `Ỹ`, which for logistic loss is cross-entropy
//!   against soft targets.
//! * [`metrics`] — precision/recall/F1, score histograms (Figure 6), and
//!   the relative-to-baseline normalization the paper reports.
//!
//! The models `drybell-serving` exports ([`LogisticRegression`], [`Mlp`]
//! and their configs) each carry a `to_json`/`from_json` pair over
//! [`drybell_obs::Json`]. `from_json` reads outside input: it checks every
//! length against the declared shape and rejects non-finite numbers, so a
//! model that loads cannot index out of range when it scores.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod error;
mod export;
pub mod logreg;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod ranking;

pub use error::MlError;
pub use logreg::{BatchScorer, FtrlConfig, LogisticRegression, LrAlgorithm, WeightCache};
pub use metrics::{score_histogram, BinaryMetrics, RelativeMetrics};
pub use mlp::{Mlp, MlpConfig, MlpScratch};
pub use ranking::{average_precision, expected_calibration_error, precision_at_k, roc_auc};
