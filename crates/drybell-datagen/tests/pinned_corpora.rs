//! The generated corpora, pinned as literals.
//!
//! Every workload, experiment and golden file downstream starts from these
//! generators, so a change to how they build a document must not change a
//! byte of what they build. `generate` comparing with itself cannot see
//! that; a hash recorded once can. Each case hashes every field of the
//! first 2 000 documents of a split, and its gold label, at one seed (and
//! the topic task's crawl table, measured over those documents).
//!
//! Re-record only for a deliberate corpus change: run the test and copy the
//! `left:` values.

use drybell_core::vote::Label;
use drybell_datagen::events::{self, EventTaskConfig};
use drybell_datagen::product::{self, ProductTaskConfig};
use drybell_datagen::topic::{self, TopicTaskConfig};

const DOCS: usize = 2_000;
const SEED: u64 = 17;

/// FNV-1a, 64-bit, written out here so that the pin depends on nothing
/// else in the workspace.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length first, so that where one field ends is part of the hash.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn label(&mut self, label: Label) {
        self.bytes(&[u8::from(label == Label::Positive)]);
    }
}

#[test]
fn product_corpus_is_pinned() {
    let ds = product::generate(&ProductTaskConfig {
        num_unlabeled: DOCS,
        num_dev: 0,
        num_test: 0,
        seed: SEED,
        ..ProductTaskConfig::paper()
    });
    assert_eq!(ds.unlabeled.len(), DOCS);
    let mut h = Fnv::new();
    for (d, &gold) in ds.unlabeled.iter().zip(&ds.unlabeled_gold) {
        h.u64(d.id);
        h.str(&d.text);
        h.str(&d.lang);
        h.f64(d.legacy_score);
        h.label(gold);
    }
    assert_eq!(h.0, 9372034142163298026, "product corpus, seed {SEED}");
}

#[test]
fn topic_corpus_is_pinned() {
    let ds = topic::generate(&TopicTaskConfig {
        num_unlabeled: DOCS,
        num_dev: 0,
        num_test: 0,
        seed: SEED,
        ..TopicTaskConfig::paper()
    });
    assert_eq!(ds.unlabeled.len(), DOCS);
    let mut h = Fnv::new();
    for (d, &gold) in ds.unlabeled.iter().zip(&ds.unlabeled_gold) {
        h.u64(d.id);
        h.str(&d.title);
        h.str(&d.body);
        h.str(&d.url);
        h.f64(d.related_model_score);
        h.label(gold);
    }
    assert_eq!(h.0, 8648796704396007538, "topic corpus, seed {SEED}");
    // The crawl table the generator measures over those documents.
    let mut crawl: Vec<(&String, &f64)> = ds.crawl_table.iter().collect();
    crawl.sort_by(|a, b| a.0.cmp(b.0));
    let mut h = Fnv::new();
    for (domain, &frac) in crawl {
        h.str(domain);
        h.f64(frac);
    }
    assert_eq!(h.0, 2200745248482774919, "topic crawl table, seed {SEED}");
}

#[test]
fn events_corpus_is_pinned() {
    let ds = events::generate(&EventTaskConfig {
        num_unlabeled: DOCS,
        num_test: 0,
        seed: SEED,
        ..EventTaskConfig::paper()
    });
    assert_eq!(ds.unlabeled.len(), DOCS);
    let mut h = Fnv::new();
    for (e, &gold) in ds.unlabeled.iter().zip(&ds.unlabeled_gold) {
        h.u64(e.id);
        h.u64(e.servable.len() as u64);
        e.servable.iter().for_each(|&x| h.f64(x));
        h.u64(e.aggregates.len() as u64);
        e.aggregates.iter().for_each(|&x| h.f64(x));
        h.f64(e.graph_score);
        h.label(gold);
    }
    assert_eq!(h.0, 4410264922862994715, "events corpus, seed {SEED}");
}
