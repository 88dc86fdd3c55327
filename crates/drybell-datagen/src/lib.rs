//! # drybell-datagen
//!
//! Synthetic data and application definitions for the paper's three case
//! studies. Each application module bundles everything §3 describes for
//! its task: a seeded corpus/stream generator with latent ground truth, a
//! labeling-function set wired to the organizational resources
//! (`drybell-nlp` model servers, the `drybell-kg` commerce graph,
//! simulated legacy classifiers and crawl tables), and the servable
//! featurization its discriminative model uses.
//!
//! * [`topic`] — topic classification (§3.1): 684K unlabeled docs, 0.86%
//!   positive, 10 LFs (URL heuristics, NER-based, topic-model-based).
//! * [`product`] — product classification (§3.2): 6.5M unlabeled docs in
//!   ten languages, 1.48% positive, 8 LFs (keywords, Knowledge Graph
//!   translations, topic model, a depreciated legacy classifier).
//! * [`events`] — real-time event classification (§3.3): 140 weak
//!   supervision sources over non-servable aggregate/graph features,
//!   with a servable real-time feature vector for the DNN.
//!
//! Ground-truth labels exist only because the corpora are synthetic; the
//! weak-supervision pipeline never reads them. They feed the dev/test
//! splits (Table 1) and the hand-label trade-off experiments (Figure 5).
//!
//! Every generator is deterministic given its config's seed, and every
//! config has a `paper()` preset matching Table 1 plus a `scaled(f)`
//! variant for laptop-sized runs.

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

pub mod common;
pub mod events;
pub mod product;
pub mod topic;

pub use events::{EventTaskConfig, RealTimeEvent};
pub use product::{ProductDoc, ProductTaskConfig};
pub use topic::{TopicDoc, TopicTaskConfig};
