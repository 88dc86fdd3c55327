//! The product-classification application (§3.2).
//!
//! An existing classifier detected content referencing products in a
//! category of interest; a strategic decision *expanded* the category to
//! include "many types of accessories and parts", instantly depreciating
//! the old training labels. One developer writes eight labeling functions:
//! keyword rules, Knowledge-Graph translations of those keywords in ten
//! languages (for coverage across locales), the coarse topic model, and
//! the depreciated legacy classifier used only on the side it is still
//! right about.
//!
//! The generator emits documents in ten languages referencing products
//! from the `drybell-kg` commerce graph. Ground truth: the content
//! references the *photography* subtree (cameras, drones, and — after the
//! expansion — their accessories and parts).

use crate::common::{draw_label, gaussian, pick, scaled_counts, FILLER_WORDS};
use drybell_core::vote::{Label, Vote};
use drybell_dataflow::codec::{self, CodecError, Record};
use drybell_features::{FeatureHasher, SparseVector};
use drybell_kg::commerce::{CommerceGraph, LANGS, OTHER_TRANSLATIONS, PHOTO_TRANSLATIONS};
use drybell_kg::NodeKind;
use drybell_lf::executor::TextExtractor;
use drybell_lf::{Lf, LfCategory, LfSet, Words};
use drybell_nlp::langid::Lang;
use drybell_nlp::tokenizer::{lower_words, max_tokens};
use drybell_nlp::topic_model::Topic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// One piece of product-referencing (or not) content.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductDoc {
    /// Unique id.
    pub id: u64,
    /// Content text, possibly non-English (servable).
    pub text: String,
    /// Locale the content was served in (servable metadata).
    pub lang: String,
    /// Depreciated legacy classifier's score, attached offline
    /// (non-servable; §3.2's "existing classifier").
    pub legacy_score: f64,
}

impl Record for ProductDoc {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.id);
        codec::put_string(buf, &self.text);
        codec::put_string(buf, &self.lang);
        codec::put_f64(buf, self.legacy_score);
    }

    fn decode(buf: &mut &[u8]) -> Result<ProductDoc, CodecError> {
        Ok(ProductDoc {
            id: codec::get_varint(buf)?,
            text: codec::get_string(buf)?,
            lang: codec::get_string(buf)?,
            legacy_score: codec::get_f64(buf)?,
        })
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct ProductTaskConfig {
    /// Unlabeled pool size (paper: 6.5M).
    pub num_unlabeled: usize,
    /// Development set size (paper: 14K).
    pub num_dev: usize,
    /// Test set size (paper: 13K).
    pub num_test: usize,
    /// Positive rate (paper: 1.48%).
    pub pos_rate: f64,
    /// Fraction of documents in English; the rest spread uniformly over
    /// the other nine languages.
    pub english_rate: f64,
    /// Master seed.
    pub seed: u64,
}

impl ProductTaskConfig {
    /// Table 1 preset: 6.5M unlabeled, 14K dev, 13K test, 1.48% positive.
    pub fn paper() -> ProductTaskConfig {
        ProductTaskConfig {
            num_unlabeled: 6_500_000,
            num_dev: 14_000,
            num_test: 13_000,
            pos_rate: 0.0148,
            english_rate: 0.55,
            seed: 20190701,
        }
    }

    /// The paper preset with all split sizes scaled by `f`.
    pub fn scaled(f: f64) -> ProductTaskConfig {
        let base = ProductTaskConfig::paper();
        let (u, d, t) = scaled_counts(base.num_unlabeled, base.num_dev, base.num_test, f);
        ProductTaskConfig {
            num_unlabeled: u,
            num_dev: d,
            num_test: t,
            ..base
        }
    }
}

/// The generated product task.
#[derive(Debug, Clone)]
pub struct ProductDataset {
    /// Unlabeled pool.
    pub unlabeled: Vec<ProductDoc>,
    /// Hidden gold for the unlabeled pool (evaluation harnesses only).
    pub unlabeled_gold: Vec<Label>,
    /// Development split.
    pub dev: Vec<ProductDoc>,
    /// Development labels.
    pub dev_gold: Vec<Label>,
    /// Test split.
    pub test: Vec<ProductDoc>,
    /// Test labels.
    pub test_gold: Vec<Label>,
    /// The commerce knowledge graph the KG LFs query.
    pub kg: Arc<CommerceGraph>,
}

/// Alias of `word` in `lang` according to the translation tables (falls
/// back to the English word for untranslated vocabulary).
fn alias_for<'a>(word: &'a str, lang: &str) -> &'a str {
    let col = LANGS.iter().position(|l| *l == lang).unwrap_or(0);
    for (w, row) in PHOTO_TRANSLATIONS.iter().chain(OTHER_TRANSLATIONS) {
        if *w == word {
            return row[col];
        }
    }
    word
}

const PHOTO_CORE: &[&str] = &["camera", "drone"];
const PHOTO_ACCESSORIES: &[&str] = &[
    "lens", "tripod", "flash", "battery", "charger", "filter", "strap", "gimbal",
];
const OTHER_PRODUCTS: &[&str] = &[
    "phone", "tablet", "laptop", "monitor", "printer", "router", "console",
];
const OTHER_ACCESSORIES: &[&str] = &["headphones", "speaker", "keyboard"];

/// Photography-context vocabulary that is *not* in the knowledge graph:
/// no labeling function knows these words, but they co-occur with the
/// KG-visible product terms in positives — the "more subtle or synonymous
/// features" §2 says the discriminative classifier learns to exploit
/// beyond the labeling functions.
const PHOTO_CONTEXT: &[&str] = &[
    "zoom",
    "aperture",
    "shutter",
    "bokeh",
    "megapixel",
    "viewfinder",
    "exposure",
    "portrait",
    "timelapse",
    "autofocus",
];

/// The words of `lang`'s seed text, split once for every document.
fn lang_words(lang: Lang) -> &'static [&'static str] {
    static WORDS: OnceLock<[Vec<&'static str>; Lang::ALL.len()]> = OnceLock::new();
    let words = WORDS.get_or_init(|| Lang::ALL.map(|l| l.seed_text().split_whitespace().collect()));
    &words[lang as usize]
}

/// Build one document, using `words` as its word buffer.
fn generate_doc(
    rng: &mut StdRng,
    id: u64,
    label: Label,
    english_rate: f64,
    words: &mut Vec<&'static str>,
) -> ProductDoc {
    let lang = if rng.gen_bool(english_rate) {
        Lang::En
    } else {
        Lang::ALL[rng.gen_range(1..Lang::ALL.len())]
    };
    let lang_code = lang.code();
    let len = rng.gen_range(20..50);
    words.clear();

    // Product mentions.
    let mut product_free = false;
    match label {
        Label::Positive => {
            // 1–3 photography-subtree terms in the document's language.
            // Roughly 55% of positives are about accessories/parts — the
            // expanded part of the category. 8% of positives use only
            // photography jargon with no catalog term at all; labeling
            // functions are blind to them, the discriminative model is
            // not.
            let jargon_only = rng.gen_bool(0.08);
            if !jargon_only {
                let about_accessory = rng.gen_bool(0.55);
                let n_mentions = rng.gen_range(1..=3);
                for _ in 0..n_mentions {
                    let word = if about_accessory {
                        pick(rng, PHOTO_ACCESSORIES)
                    } else {
                        pick(rng, PHOTO_CORE)
                    };
                    words.push(alias_for(word, lang_code));
                }
                // Accessory docs usually also name the core product.
                if about_accessory && rng.gen_bool(0.5) {
                    words.push(alias_for(pick(rng, PHOTO_CORE), lang_code));
                }
            }
            // Photography jargon (KG-invisible, feature-visible).
            for _ in 0..rng.gen_range(1..=3) {
                words.push(pick(rng, PHOTO_CONTEXT));
            }
        }
        Label::Negative => {
            // Most negatives reference other products or accessories;
            // some are product-free chatter.
            let r: f64 = rng.gen();
            if r < 0.45 {
                for _ in 0..rng.gen_range(1..=3) {
                    words.push(alias_for(pick(rng, OTHER_PRODUCTS), lang_code));
                }
            } else if r < 0.75 {
                for _ in 0..rng.gen_range(1..=2) {
                    words.push(alias_for(pick(rng, OTHER_ACCESSORIES), lang_code));
                }
                // "phone charger", "laptop battery": shared accessory
                // vocabulary creates genuine ambiguity with photography
                // accessories. Kept rare — with a 1.48% positive rate,
                // even a 1% false-fire rate would swamp the positive
                // keyword LFs' precision.
                if rng.gen_bool(0.008) {
                    words.push(alias_for("charger", lang_code));
                }
            } else {
                // No product mention at all: off-topic chatter that
                // slipped through the keyword filter.
                product_free = true;
            }
        }
    }

    // Background vocabulary. Product content is commerce-flavored;
    // product-free chatter talks about something else entirely (which is
    // exactly what lets the coarse topic model flag it, §3.2). A slice of
    // the product-mentioning negatives is also off-topic ("my trip, plus
    // my phone died") — those docs are where the topic-model LF overlaps
    // the keyword LFs, tying all the negative evidence into one agreement
    // component.
    let offtopic_background = product_free || (label == Label::Negative && rng.gen_bool(0.15));
    let offtopic = *pick(
        rng,
        &[
            &Topic::Travel,
            &Topic::Sports,
            &Topic::Health,
            &Topic::Politics,
        ],
    );
    for _ in 0..len {
        let r: f64 = rng.gen();
        if offtopic_background {
            if r < 0.30 {
                words.push(pick(rng, offtopic.seed_keywords()));
            } else if r < 0.33 {
                words.push(pick(rng, Topic::Commerce.seed_keywords()));
            } else if lang == Lang::En {
                words.push(pick(rng, FILLER_WORDS));
            } else {
                words.push(pick(rng, lang_words(lang)));
            }
        } else if r < 0.18 {
            words.push(pick(rng, Topic::Commerce.seed_keywords()));
        } else if r < 0.22 {
            words.push(pick(rng, Topic::Technology.seed_keywords()));
        } else if r < 0.223 && label == Label::Negative {
            // A sprinkle of photography jargon in negatives ("phone with
            // great zoom") keeps the jargon features imperfect.
            words.push(pick(rng, PHOTO_CONTEXT));
        } else if lang == Lang::En {
            words.push(pick(rng, FILLER_WORDS));
        } else {
            words.push(pick(rng, lang_words(lang)));
        }
    }
    // Shuffle mentions into the text (Fisher–Yates).
    for i in (1..words.len()).rev() {
        let j = rng.gen_range(0..=i);
        words.swap(i, j);
    }

    // Legacy classifier: trained on the *old* category (cameras/drones
    // only, English market). Still precise on core-product positives,
    // blind to the accessory expansion, slightly noisy overall.
    let mentions_core = PHOTO_CORE
        .iter()
        .any(|c| words.contains(&alias_for(c, lang_code)));
    let high_side = if mentions_core && lang == Lang::En {
        rng.gen_bool(0.93)
    } else {
        rng.gen_bool(0.002)
    };
    let center = if high_side { 0.85 } else { 0.12 };
    let legacy_score = (center + 0.15 * gaussian(rng)).clamp(0.0, 1.0);

    ProductDoc {
        id,
        text: words.join(" "),
        lang: lang_code.to_owned(),
        legacy_score,
    }
}

/// Generate the full task.
pub fn generate(cfg: &ProductTaskConfig) -> ProductDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut words = Vec::new();
    let mut make_split = |n: usize, id_base: u64| {
        let mut docs = Vec::with_capacity(n);
        let mut gold = Vec::with_capacity(n);
        for i in 0..n {
            let label = draw_label(&mut rng, cfg.pos_rate);
            docs.push(generate_doc(
                &mut rng,
                id_base + i as u64,
                label,
                cfg.english_rate,
                &mut words,
            ));
            gold.push(label);
        }
        (docs, gold)
    };
    let (unlabeled, unlabeled_gold) = make_split(cfg.num_unlabeled, 0);
    let (dev, dev_gold) = make_split(cfg.num_dev, 1_000_000_000);
    let (test, test_gold) = make_split(cfg.num_test, 2_000_000_000);
    ProductDataset {
        unlabeled,
        unlabeled_gold,
        dev,
        dev_gold,
        test,
        test_gold,
        kg: Arc::new(drybell_kg::commerce::commerce_graph()),
    }
}

/// Text extractor for the NLP LFs.
pub fn text_extractor() -> TextExtractor<ProductDoc> {
    Arc::new(|d: &ProductDoc| d.text.clone())
}

/// `true` for an English keyword of the photography subtree.
fn photo_keyword(w: &str) -> bool {
    PHOTO_CORE.contains(&w) || PHOTO_ACCESSORIES.contains(&w)
}

/// Build the eight labeling functions of §3.2. Six read the document's
/// [`Words`]; every word of the four keyword lists resolves in the graph,
/// so the keyword rules skip the words that do not.
pub fn lf_set(cg: Arc<CommerceGraph>) -> LfSet<ProductDoc> {
    let kg_arc = Arc::new(cg.graph.clone());
    let cg_pos = cg.clone();
    let cg_neg = cg.clone();

    LfSet::new()
        .with_knowledge_graph(kg_arc)
        // --- Keyword-based, English, bipolar — §3.2: "Keywords in the
        // --- content indicated either products and accessories in the
        // --- category of interest, or other accessories not of
        // --- interest". Bipolar LFs are what make the label model
        // --- identifiable: an LF voting on both sides cannot be
        // --- explained away as "always wrong when it fires".
        .with(Lf::words(
            "kw_en",
            LfCategory::ContentHeuristic,
            true,
            |_: &ProductDoc, words: &Words<'_>| {
                // One embedded keyword-table rule (§3.2's keyword LF):
                // photography terms → positive; other products → negative;
                // *no* catalog term at all → negative (product content
                // always names a product). The table is exported from the
                // KG at build time, so the rule itself is servable.
                let (mut photo, mut other, mut any_alias) = (false, false, false);
                for w in words.named() {
                    any_alias = true;
                    photo |= photo_keyword(w.text);
                    other |=
                        OTHER_ACCESSORIES.contains(&w.text) || OTHER_PRODUCTS.contains(&w.text);
                }
                match (photo, other, any_alias) {
                    (true, _, _) => Vote::Positive,
                    (false, true, _) => Vote::Negative,
                    (false, false, false) => Vote::Negative,
                    (false, false, true) => Vote::Abstain,
                }
            },
        ))
        .with(Lf::words(
            "kw_photo_strict_en",
            LfCategory::ContentHeuristic,
            true,
            |_: &ProductDoc, words: &Words<'_>| {
                // Two distinct photography terms: high-precision English
                // positive rule.
                let mut terms = words.named().filter(|w| photo_keyword(w.text));
                let first = terms.next().map(|w| w.text);
                if terms.any(|w| Some(w.text) != first) {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        // --- Knowledge-Graph translations in ten languages (§3.2),
        // --- bipolar like the keyword rule it generalizes. The live
        // --- graph is an offline resource → non-servable.
        .with(Lf::graph(
            "kg_multilang",
            false,
            move |_: &ProductDoc, words: &Words<'_>| {
                let ids = || words.named().filter_map(|w| w.alias).map(|(_, id)| id);
                if ids().any(|id| cg_pos.in_photography(id)) {
                    Vote::Positive
                } else if ids().any(|id| cg_pos.is_foreign_accessory(id)) {
                    Vote::Negative
                } else {
                    Vote::Abstain
                }
            },
        ))
        .with(Lf::graph(
            "kg_foreign_product",
            false,
            move |_: &ProductDoc, words: &Words<'_>| {
                // Any-language mention of a *non-photography product*
                // (phones, laptops, ...) without photography terms.
                let (mut photo, mut foreign_product) = (false, false);
                for (_, id) in words.named().filter_map(|w| w.alias) {
                    let in_photo = cg_neg.in_photography(id);
                    photo |= in_photo;
                    foreign_product |=
                        !in_photo && cg_neg.graph.entity(id).kind == NodeKind::Product;
                }
                if foreign_product && !photo {
                    Vote::Negative
                } else {
                    Vote::Abstain
                }
            },
        ))
        // --- Topic-model-based negative heuristic ("content obviously
        // --- unrelated to the category of products of interest", §3.2).
        .with(Lf::nlp("topic_noncommerce", |_d: &ProductDoc, nlp| {
            let commerce = nlp.topic_probs[Topic::Commerce.index()]
                + nlp.topic_probs[Topic::Technology.index()];
            if commerce < 0.15 {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        }))
        // --- A second graph signal: a core product named alongside an
        // --- accessory term implies the photography sense of ambiguous
        // --- accessory words like "charger".
        .with(Lf::graph(
            "kg_core_plus_accessory",
            false,
            move |_: &ProductDoc, words: &Words<'_>| {
                let kg = words.graph();
                let (mut saw_core, mut saw_acc) = (false, false);
                for (_, id) in words.named().filter_map(|w| w.alias) {
                    if kg.in_category_subtree(id, cg.cameras) {
                        saw_core = true;
                    } else if kg.in_category_subtree(id, cg.camera_accessories) {
                        saw_acc = true;
                    }
                }
                if saw_core && saw_acc {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        // --- The depreciated legacy classifier (§3.2): only its positive
        // --- side survived the category expansion.
        .with(
            Lf::plain(
                "legacy_positive_side",
                LfCategory::ModelBased,
                false,
                |d: &ProductDoc| {
                    if d.legacy_score > 0.75 {
                        Vote::Positive
                    } else {
                        Vote::Abstain
                    }
                },
            )
            .with_feature_spaces(&["legacy-classifier"]),
        )
        // --- Product-free chatter is not product content. Servable: the
        // --- alias table is a static keyword list exported from the KG
        // --- once at build time and embedded in the serving binary — the
        // --- live graph is not queried.
        .with(Lf::words(
            "no_product_terms",
            LfCategory::ContentHeuristic,
            true,
            |_: &ProductDoc, words: &Words<'_>| {
                let kg = words.graph();
                let any_product = words.named().filter_map(|w| w.alias).any(|(_, id)| {
                    matches!(kg.entity(id).kind, NodeKind::Product | NodeKind::Accessory)
                });
                if any_product {
                    Vote::Abstain
                } else {
                    Vote::Negative
                }
            },
        ))
}

/// Servable featurization: hashed unigrams plus the locale.
pub fn featurize(doc: &ProductDoc, hasher: &FeatureHasher) -> SparseVector {
    // Room for every token and the locale.
    let mut counts = hasher.counts(max_tokens(&doc.text) + 1);
    counts.count("text", lower_words(&doc.text));
    counts.count("lang", [&doc.lang]);
    counts.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drybell_lf::executor::execute_in_memory;

    fn small() -> ProductDataset {
        generate(&ProductTaskConfig {
            num_unlabeled: 5000,
            num_dev: 500,
            num_test: 500,
            pos_rate: 0.05,
            english_rate: 0.55,
            seed: 3,
        })
    }

    #[test]
    fn paper_preset_matches_table_1() {
        let cfg = ProductTaskConfig::paper();
        assert_eq!(cfg.num_unlabeled, 6_500_000);
        assert_eq!(cfg.num_dev, 14_000);
        assert_eq!(cfg.num_test, 13_000);
        assert!((cfg.pos_rate - 0.0148).abs() < 1e-12);
    }

    #[test]
    fn lf_set_matches_table_1() {
        let ds = small();
        let set = lf_set(ds.kg.clone());
        assert_eq!(
            set.len(),
            8,
            "Table 1: eight LFs for product classification"
        );
        let mask = set.servable_mask();
        assert!(mask.iter().any(|&s| s));
        assert!(mask.iter().any(|&s| !s));
    }

    #[test]
    fn documents_span_ten_languages() {
        let ds = small();
        let langs: std::collections::HashSet<&str> =
            ds.unlabeled.iter().map(|d| d.lang.as_str()).collect();
        assert_eq!(langs.len(), 10, "got {langs:?}");
        let en = ds.unlabeled.iter().filter(|d| d.lang == "en").count();
        assert!((en as f64 / ds.unlabeled.len() as f64 - 0.55).abs() < 0.05);
    }

    #[test]
    fn record_roundtrip() {
        let ds = small();
        let buf = codec::encode_record(&ds.unlabeled[1]);
        let back: ProductDoc = codec::decode_record(&buf).unwrap();
        assert_eq!(back, ds.unlabeled[1]);
    }

    #[test]
    fn lfs_are_informative_on_generated_data() {
        let ds = small();
        let set = lf_set(ds.kg.clone());
        let ext = text_extractor();
        let (matrix, _) = execute_in_memory(&set, Some(&ext), &ds.unlabeled, 4).unwrap();
        for (j, name) in set.names().iter().enumerate() {
            let acc = matrix
                .empirical_accuracy(j, &ds.unlabeled_gold)
                .unwrap()
                .unwrap_or_else(|| panic!("LF {name} never voted"));
            let cov = matrix.coverage(j);
            assert!(
                acc > 0.55,
                "LF {name}: accuracy {acc:.3} (coverage {cov:.3})"
            );
            assert!(cov > 0.002, "LF {name}: coverage {cov:.4}");
        }
        assert!(matrix.label_density() > 0.7);
    }

    /// The KG LF must catch non-English positives the English keyword LF
    /// misses — the reason the paper queried translations at all.
    #[test]
    fn kg_lf_covers_non_english_positives() {
        let ds = small();
        let set = lf_set(ds.kg.clone());
        let ext = text_extractor();
        let (matrix, _) = execute_in_memory(&set, Some(&ext), &ds.unlabeled, 4).unwrap();
        let names = set.names();
        let kw = names.iter().position(|n| n == "kw_en").unwrap();
        let kg = names.iter().position(|n| n == "kg_multilang").unwrap();
        let mut kw_hits = 0u64;
        let mut kg_hits = 0u64;
        for ((doc, gold), row) in ds
            .unlabeled
            .iter()
            .zip(&ds.unlabeled_gold)
            .zip(matrix.rows())
        {
            if *gold == Label::Positive && doc.lang != "en" {
                if row[kw] == 1 {
                    kw_hits += 1;
                }
                if row[kg] == 1 {
                    kg_hits += 1;
                }
            }
        }
        assert!(
            kg_hits > kw_hits.max(1) * 2,
            "KG translations must dominate on non-English positives: kg={kg_hits} kw={kw_hits}"
        );
    }

    #[test]
    fn legacy_classifier_is_blind_to_accessories() {
        // Positives that mention only accessories (the expanded category)
        // should rarely get a high legacy score.
        let ds = small();
        let mut acc_high = 0u64;
        let mut acc_total = 0u64;
        for (doc, gold) in ds.unlabeled.iter().zip(&ds.unlabeled_gold) {
            if *gold == Label::Positive && doc.lang == "en" {
                let has_core = doc.text.split_whitespace().any(|w| PHOTO_CORE.contains(&w));
                if !has_core {
                    acc_total += 1;
                    if doc.legacy_score > 0.75 {
                        acc_high += 1;
                    }
                }
            }
        }
        assert!(acc_total > 0);
        assert!(
            (acc_high as f64) < 0.2 * acc_total as f64,
            "legacy model should miss accessory-only positives: {acc_high}/{acc_total}"
        );
    }

    #[test]
    fn featurize_equals_the_long_composition_bit_for_bit() {
        use crate::common::featurize_oracle::{assert_same, by_parts, hashers, hostile_texts};
        use drybell_nlp::tokenizer::lower_tokens as tokens;
        let mut docs = small().unlabeled;
        assert!(docs.len() >= 5000);
        for (i, text) in hostile_texts().into_iter().enumerate() {
            // A locale that is itself a token of the text, an empty one,
            // and one no tokenizer would emit.
            for lang in ["camera", "", "İ=x y"] {
                docs.push(ProductDoc {
                    id: i as u64,
                    text: text.clone(),
                    lang: lang.to_owned(),
                    legacy_score: 0.0,
                });
            }
        }
        for hasher in hashers() {
            for doc in &docs {
                let expected = by_parts(
                    &hasher,
                    &[
                        ("text", tokens(&doc.text)),
                        ("lang", vec![doc.lang.clone()]),
                    ],
                );
                assert_same(&featurize(doc, &hasher), &expected, &doc.text);
            }
        }
    }

    /// The six word-reading LF bodies as they were before the word view:
    /// each splits the text itself and resolves each word itself.
    fn replaced_bodies(d: &ProductDoc, cg: &CommerceGraph) -> [(&'static str, Vote); 6] {
        let kw_en = {
            let mut photo = false;
            let mut other = false;
            let mut any_alias = false;
            for w in d.text.split_whitespace() {
                photo |= PHOTO_CORE.contains(&w) || PHOTO_ACCESSORIES.contains(&w);
                other |= OTHER_ACCESSORIES.contains(&w) || OTHER_PRODUCTS.contains(&w);
                any_alias |= cg.graph.resolve_alias(w).is_some();
            }
            match (photo, other, any_alias) {
                (true, _, _) => Vote::Positive,
                (false, true, _) => Vote::Negative,
                (false, false, false) => Vote::Negative,
                (false, false, true) => Vote::Abstain,
            }
        };
        let kw_photo_strict_en = {
            let mut seen = std::collections::HashSet::new();
            for w in d.text.split_whitespace() {
                if PHOTO_CORE.contains(&w) || PHOTO_ACCESSORIES.contains(&w) {
                    seen.insert(w);
                }
            }
            if seen.len() >= 2 {
                Vote::Positive
            } else {
                Vote::Abstain
            }
        };
        let kg_multilang = {
            let mut photo = false;
            let mut foreign = false;
            for w in d.text.split_whitespace() {
                if let Some((_, id)) = cg.graph.resolve_alias(w) {
                    photo |= cg.in_photography(id);
                    foreign |= cg.is_foreign_accessory(id);
                }
            }
            match (photo, foreign) {
                (true, _) => Vote::Positive,
                (false, true) => Vote::Negative,
                (false, false) => Vote::Abstain,
            }
        };
        let kg_foreign_product = {
            let mut photo = false;
            let mut foreign_product = false;
            for w in d.text.split_whitespace() {
                if let Some((_, id)) = cg.graph.resolve_alias(w) {
                    let in_photo = cg.in_photography(id);
                    photo |= in_photo;
                    foreign_product |= !in_photo && cg.graph.entity(id).kind == NodeKind::Product;
                }
            }
            if foreign_product && !photo {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        };
        let kg_core_plus_accessory = {
            let kg = &cg.graph;
            let mut saw_core = false;
            let mut saw_acc = false;
            for w in d.text.split_whitespace() {
                if let Some((_, id)) = kg.resolve_alias(w) {
                    if kg.in_category_subtree(id, cg.cameras) {
                        saw_core = true;
                    } else if kg.in_category_subtree(id, cg.camera_accessories) {
                        saw_acc = true;
                    }
                }
            }
            if saw_core && saw_acc {
                Vote::Positive
            } else {
                Vote::Abstain
            }
        };
        let no_product_terms = {
            let any_product = d.text.split_whitespace().any(|w| {
                cg.graph
                    .resolve_alias(w)
                    .map(|(_, id)| {
                        matches!(
                            cg.graph.entity(id).kind,
                            NodeKind::Product | NodeKind::Accessory
                        )
                    })
                    .unwrap_or(false)
            });
            if any_product {
                Vote::Abstain
            } else {
                Vote::Negative
            }
        };
        [
            ("kw_en", kw_en),
            ("kw_photo_strict_en", kw_photo_strict_en),
            ("kg_multilang", kg_multilang),
            ("kg_foreign_product", kg_foreign_product),
            ("kg_core_plus_accessory", kg_core_plus_accessory),
            ("no_product_terms", no_product_terms),
        ]
    }

    /// Texts whose whitespace, capitals, repeats or emptiness a word view
    /// could get wrong, plus the featurizer oracle's hostile strings.
    fn hostile_texts() -> Vec<String> {
        let mut texts = crate::common::featurize_oracle::hostile_texts();
        texts.extend(
            [
                "camera\tlens",
                "camera\x0Blens",
                "camera\u{85}tripod",
                "camara\u{A0}objektiv",
                "kamera\u{3000}statyw",
                "   camera   ",
                " ",
                "\t\n\x0B\u{85}\u{A0}\u{3000}",
                "CAMERA Cámara camara Camera camera",
                "camera camera",
                "lens lens tripod",
                "charger phone",
                "headphones laptop",
                "appareil objectif trepied kopfhoerer",
            ]
            .map(str::to_owned),
        );
        let each_language = PHOTO_TRANSLATIONS
            .iter()
            .zip(0..)
            .map(|((_, row), i)| row[i % 10]);
        texts.push(each_language.collect::<Vec<_>>().join(" "));
        texts
    }

    #[test]
    fn every_keyword_resolves_in_the_commerce_graph() {
        let cg = drybell_kg::commerce::commerce_graph();
        for list in [
            PHOTO_CORE,
            PHOTO_ACCESSORIES,
            OTHER_PRODUCTS,
            OTHER_ACCESSORIES,
        ] {
            for word in list {
                assert!(cg.graph.resolve_alias(word).is_some(), "{word}");
            }
        }
    }

    #[test]
    fn word_lfs_vote_as_the_bodies_they_replaced() {
        let ds = small();
        let set = lf_set(ds.kg.clone());
        let mut docs = ds.unlabeled;
        assert!(docs.len() >= 5000);
        let doubled: Vec<ProductDoc> = docs
            .iter()
            .map(|d| ProductDoc {
                text: format!("{} {}", d.text, d.text),
                ..d.clone()
            })
            .collect();
        docs.extend(doubled);
        docs.extend(hostile_texts().into_iter().map(|text| ProductDoc {
            id: 0,
            text,
            lang: "en".to_owned(),
            legacy_score: 0.0,
        }));
        let names = set.names();
        let column = |name: &str| names.iter().position(|n| n == name).unwrap();
        let (matrix, _) = execute_in_memory(&set, Some(&text_extractor()), &docs, 2).unwrap();
        let server = drybell_nlp::NlpServer::new();
        let kg = set.knowledge_graph().map(|g| g.as_ref());
        let mut fired = [0usize; 6];
        for (d, row) in docs.iter().zip(matrix.rows()) {
            let annotation = server.annotate(&d.text);
            for (k, (name, want)) in replaced_bodies(d, &ds.kg).into_iter().enumerate() {
                let lf = &set.lfs()[column(name)];
                assert_eq!(row[column(name)], want.as_i8(), "{name} on {:?}", d.text);
                assert_eq!(lf.try_vote(d, Some(&annotation), kg), Ok(want), "{name}");
                fired[k] += usize::from(want != Vote::Abstain);
            }
        }
        assert!(fired.iter().all(|&n| n > 100), "{fired:?}");
    }

    #[test]
    fn alias_for_translates_and_falls_back() {
        assert_eq!(alias_for("camera", "es"), "camara");
        assert_eq!(alias_for("camera", "en"), "camera");
        assert_eq!(alias_for("headphones", "de"), "kopfhoerer");
        assert_eq!(alias_for("unknown-word", "fr"), "unknown-word");
    }
}
