//! # drybell-nlp
//!
//! Simulated organizational NLP services, standing in for the
//! "general-purpose natural language processing models" that Snorkel
//! DryBell labeling functions call through per-node model servers (§5.1).
//!
//! The paper treats these models as black boxes maintained by other teams:
//! LFs only see their *signatures* (`text → entities`, `text → topics`).
//! This crate provides the same signatures with controllable quality:
//!
//! * [`tokenizer`] — word tokenizer with span tracking.
//! * [`ner`] — gazetteer- and heuristic-based named entity recognition
//!   (the "custom named entity recognition models maintained internally"
//!   used by the topic-classification LFs).
//! * [`topic_model`] — a multinomial naive-Bayes semantic categorizer:
//!   deliberately *coarse-grained*, like the paper's internal topic model
//!   that is "far too coarse-grained for the targeted task" yet useful as
//!   a negative labeling heuristic.
//! * [`langid`] — character-trigram language identification over the ten
//!   languages the product-classification task covers.
//! * [`sentiment`] — a small lexicon scorer (an extra organizational
//!   resource for tests and examples).
//! * [`server`] — an [`server::NlpServer`] whose `annotate` computes what
//!   labeling functions read (tokens, entities, the topic posterior); its
//!   [`NlpResult`] runs language ID and sentiment only when asked. The
//!   server implements the dataflow `Service` pattern and tracks simulated
//!   cost, making these models *non-servable* resources in the sense of §4.

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

pub mod cache;
pub mod langid;
mod lexicon;
pub mod ner;
pub mod sentiment;
pub mod server;
pub mod tokenizer;
pub mod topic_model;

pub use cache::{CacheStats, CachedNlpServer};
pub use ner::{Entity, EntityKind, NerTagger};
pub use server::{NlpError, NlpResult, NlpServer};
pub use tokenizer::{tokenize, Token, Tokens};
pub use topic_model::{SemanticCategorizer, Topic};

/// Texts the oracle tests run the models over.
#[cfg(test)]
pub(crate) mod test_corpus {
    use drybell_datagen::{product, topic};

    /// Strings that case-folding, multi-byte characters or their absence
    /// make awkward: a dotted capital I that lower-cases to two characters,
    /// the Kelvin sign that lower-cases to ASCII `k`, sharp s, a final
    /// sigma, and inputs too short for one trigram.
    pub const HOSTILE: &[&str] = &[
        "İstanbul",
        "İİİ İstanbul'da İyi bir kamera",
        "\u{212A}",
        "273 \u{212A}elvin camera \u{212A}",
        "ß",
        "Straße und Fußball-Spiel",
        "ΟΔΥΣΣΕΥΣ",
        "Σ",
        "",
        "12345 67890",
        "a",
        "ab",
        "é",
        "Dr. Chen's état-of-the-art DON'T",
        "-- '' -a- 'b' a--b",
    ];

    /// At least 5 000 generated product texts (ten languages) and 5 000
    /// topic texts.
    pub fn generated() -> (Vec<String>, Vec<String>) {
        let products = product::generate(&product::ProductTaskConfig {
            num_unlabeled: 5_000,
            num_dev: 50,
            num_test: 50,
            ..product::ProductTaskConfig::paper()
        });
        let topics = topic::generate(&topic::TopicTaskConfig {
            num_unlabeled: 5_000,
            num_dev: 50,
            num_test: 50,
            ..topic::TopicTaskConfig::paper()
        });
        (
            products.unlabeled.into_iter().map(|d| d.text).collect(),
            topics.unlabeled.iter().map(|d| d.full_text()).collect(),
        )
    }
}
