//! # drybell
//!
//! Umbrella crate for the Rust reproduction of **Snorkel DryBell**
//! (Bach et al., SIGMOD 2019): a weak-supervision management system that
//! turns diverse organizational resources into probabilistic training
//! labels and servable classifiers.
//!
//! This crate re-exports every subsystem under one namespace so examples
//! and downstream users need a single dependency:
//!
//! * [`core`] — vote types, label matrix, the sampling-free generative
//!   label model, the Gibbs baseline, and LF diagnostics.
//! * [`dataflow`] — the MapReduce-style execution substrate with sharded
//!   record files (the stand-in for Google's distributed environment).
//! * [`nlp`] — simulated organizational NLP services (NER, topic model,
//!   language ID) runnable as per-worker model servers.
//! * [`kg`] — the synthetic knowledge graph with multilingual aliases.
//! * [`features`] — sparse vectors, hashing featurizers, and the
//!   servable/non-servable feature-space registry.
//! * [`lf`] — the labeling-function template library and distributed
//!   executor.
//! * [`ml`] — discriminative models: logistic regression with
//!   FTRL-Proximal, an MLP, noise-aware losses, and evaluation metrics.
//! * [`serving`] — the TFX-analog model registry with servability
//!   enforcement.
//! * [`datagen`] — synthetic corpora and event streams matching the
//!   paper's three applications.
//! * [`obs`] — the telemetry layer: metrics (counters, gauges, latency
//!   histograms), hierarchical spans, and the structured JSONL run
//!   journal every stage reports into.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the complete pipeline: generate data,
//! run labeling functions, fit the generative model, train a noise-aware
//! discriminative classifier, and stage it for serving.

/// Convenience re-exports for the common pipeline: votes, label matrix,
/// label models, LF templates, executors, featurization, trainers,
/// metrics, and serving.
///
/// ```
/// use drybell::prelude::*;
///
/// let mut matrix = LabelMatrix::new(2);
/// for _ in 0..100 {
///     matrix.push_raw_row(&[1, 1]).unwrap();
///     matrix.push_raw_row(&[-1, -1]).unwrap();
/// }
/// let mut model = GenerativeModel::new(2, 0.7);
/// model
///     .fit(&matrix, &TrainConfig { steps: 200, batch_size: 16, ..TrainConfig::default() })
///     .unwrap();
/// assert!(model.predict_proba(&matrix)[0] > 0.9);
/// ```
pub mod prelude {
    pub use drybell_core::baselines::{equal_weight_labels, logical_or_labels, majority_vote};
    pub use drybell_core::generative::{GenerativeModel, TrainConfig};
    pub use drybell_core::vote::{Label, Vote};
    pub use drybell_core::{
        CcTrainConfig, ClassConditionalModel, DependencyReport, LabelMatrix, LfReport,
    };
    pub use drybell_dataflow::{JobConfig, ShardSpec};
    pub use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry, SparseVector};
    pub use drybell_lf::executor::{execute_in_memory, execute_sharded, TextExtractor};
    pub use drybell_lf::{Lf, LfCategory, LfSet};
    pub use drybell_ml::metrics::{BinaryMetrics, RelativeMetrics};
    pub use drybell_ml::{FtrlConfig, LogisticRegression, Mlp, MlpConfig};
    pub use drybell_nlp::{CachedNlpServer, NlpResult, NlpServer};
    pub use drybell_obs::{Event, RunJournal, Telemetry};
    pub use drybell_serving::{ExportedModel, ModelSpec, ScoreInput, ServingRegistry, ShadowEval};
}

pub use drybell_core as core;
pub use drybell_dataflow as dataflow;
pub use drybell_datagen as datagen;
pub use drybell_features as features;
pub use drybell_kg as kg;
pub use drybell_lf as lf;
pub use drybell_ml as ml;
pub use drybell_nlp as nlp;
pub use drybell_obs as obs;
pub use drybell_serving as serving;
