//! The topic-classification application (§3.1).
//!
//! A Google product team needs a new classifier for a topic of interest in
//! content; the paper's running example (§5.1) is *celebrity-related
//! content*, which this module adopts. Documents arrive after a coarse
//! keyword-filtering step; 0.86% are positives (Table 1). One engineer
//! writes ten labeling functions pulling on URL heuristics, internal NER
//! models, the coarse semantic categorizer, a web-crawl reputation table,
//! and a related internal classifier.
//!
//! The generator plants ground truth and emits, per document: servable
//! text (title/body/URL) and the *non-servable* offline signals real
//! pipelines attach during data collection (the related-classifier score).
//! LF quality is therefore emergent from the corpus — the LFs read real
//! signals, they are not handed the label.

use crate::common::{
    capitalize, draw_label, gaussian, person_name, pick, scaled_counts, CELEB_DOMAINS,
    CELEB_PATTERNS, CELEB_WORDS, FILLER_WORDS, GENERAL_DOMAINS,
};
use drybell_core::vote::{Label, Vote};
use drybell_dataflow::codec::{self, CodecError, Record};
use drybell_features::{FeatureHasher, SparseVector};
use drybell_lf::executor::TextExtractor;
use drybell_lf::{Lf, LfCategory, LfSet};
use drybell_nlp::tokenizer::{lower_words, max_tokens};
use drybell_nlp::topic_model::Topic;
use drybell_nlp::EntityKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// One content document.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicDoc {
    /// Unique id.
    pub id: u64,
    /// Title text (servable).
    pub title: String,
    /// Body text (servable).
    pub body: String,
    /// Source URL (servable).
    pub url: String,
    /// Offline score of an internal classifier built for a *related*
    /// problem, attached during data collection — non-servable (§3.1
    /// "model-based" weak supervision).
    pub related_model_score: f64,
}

impl TopicDoc {
    /// The URL's domain part.
    pub fn domain(&self) -> &str {
        self.url.split('/').nth(2).unwrap_or(&self.url)
    }

    /// Title and body concatenated (the paper's `GetText` example).
    pub fn full_text(&self) -> String {
        format!("{} {}", self.title, self.body)
    }
}

impl Record for TopicDoc {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.id);
        codec::put_string(buf, &self.title);
        codec::put_string(buf, &self.body);
        codec::put_string(buf, &self.url);
        codec::put_f64(buf, self.related_model_score);
    }

    fn decode(buf: &mut &[u8]) -> Result<TopicDoc, CodecError> {
        Ok(TopicDoc {
            id: codec::get_varint(buf)?,
            title: codec::get_string(buf)?,
            body: codec::get_string(buf)?,
            url: codec::get_string(buf)?,
            related_model_score: codec::get_f64(buf)?,
        })
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TopicTaskConfig {
    /// Unlabeled pool size (paper: 684K).
    pub num_unlabeled: usize,
    /// Hand-labeled development set size (paper: 11K).
    pub num_dev: usize,
    /// Test set size (paper: 11K).
    pub num_test: usize,
    /// Positive rate (paper: 0.86%).
    pub pos_rate: f64,
    /// Master seed.
    pub seed: u64,
}

impl TopicTaskConfig {
    /// Table 1 preset: 684K unlabeled, 11K dev, 11K test, 0.86% positive.
    pub fn paper() -> TopicTaskConfig {
        TopicTaskConfig {
            num_unlabeled: 684_000,
            num_dev: 11_000,
            num_test: 11_000,
            pos_rate: 0.0086,
            seed: 20190630,
        }
    }

    /// The paper preset with all split sizes scaled by `f`.
    pub fn scaled(f: f64) -> TopicTaskConfig {
        let base = TopicTaskConfig::paper();
        let (u, d, t) = scaled_counts(base.num_unlabeled, base.num_dev, base.num_test, f);
        TopicTaskConfig {
            num_unlabeled: u,
            num_dev: d,
            num_test: t,
            ..base
        }
    }
}

/// The generated task: splits plus the organizational resources the LFs
/// query.
#[derive(Debug, Clone)]
pub struct TopicDataset {
    /// The unlabeled pool (what DryBell weakly supervises).
    pub unlabeled: Vec<TopicDoc>,
    /// Hidden gold for the unlabeled pool — used ONLY by evaluation
    /// harnesses (Figure 5's hand-label sweeps), never by the pipeline.
    pub unlabeled_gold: Vec<Label>,
    /// Development split (labeled; baseline training + LF development).
    pub dev: Vec<TopicDoc>,
    /// Development labels.
    pub dev_gold: Vec<Label>,
    /// Test split.
    pub test: Vec<TopicDoc>,
    /// Test labels.
    pub test_gold: Vec<Label>,
    /// Simulated web-crawl reputation table: domain → fraction of crawled
    /// pages that were celebrity content. Expensive to produce (a crawl),
    /// hence non-servable (§4).
    pub crawl_table: Arc<HashMap<String, f64>>,
}

/// Append `word` to `text`, after a space unless it is the first: a
/// `join(" ")` that needs no `Vec` of the words.
fn push_word(text: &mut String, word: &str) {
    if !text.is_empty() {
        text.push(' ');
    }
    text.push_str(word);
}

/// A body of `len` words, built in `buf` and copied out at its length.
fn sample_body(
    rng: &mut StdRng,
    label: Label,
    hard_negative: bool,
    len: usize,
    buf: &mut String,
) -> String {
    buf.clear();
    for _ in 0..len {
        let r: f64 = rng.gen();
        let name: String;
        let w: &str = match label {
            Label::Positive => {
                if r < 0.26 {
                    pick(rng, Topic::Entertainment.seed_keywords())
                } else if r < 0.34 {
                    pick(rng, CELEB_WORDS)
                } else if r < 0.41 {
                    pick(rng, CELEB_PATTERNS)
                } else if r < 0.49 {
                    name = person_name(rng);
                    &name
                } else {
                    pick(rng, FILLER_WORDS)
                }
            }
            Label::Negative => {
                let topic = if hard_negative {
                    Topic::Entertainment
                } else {
                    // Skew toward the topics the coarse categorizer can
                    // confidently rule out.
                    *pick(
                        rng,
                        &[
                            &Topic::Sports,
                            &Topic::Finance,
                            &Topic::Politics,
                            &Topic::Health,
                            &Topic::Travel,
                            &Topic::Technology,
                            &Topic::Commerce,
                        ],
                    )
                };
                if r < 0.33 {
                    pick(rng, topic.seed_keywords())
                } else if r < 0.3312 {
                    // Rare celebrity-word noise: keeps keyword LFs imperfect
                    // without drowning the 0.86% positive class.
                    pick(rng, CELEB_WORDS)
                } else if r < 0.34 && hard_negative {
                    name = person_name(rng);
                    &name
                } else {
                    pick(rng, FILLER_WORDS)
                }
            }
        };
        push_word(buf, w);
    }
    buf.as_str().to_owned()
}

fn sample_title(rng: &mut StdRng, label: Label, hard_negative: bool, buf: &mut String) -> String {
    match label {
        Label::Positive => {
            // e.g. "Alice Johnson spotted at premiere"
            let name = person_name(rng);
            let pattern = pick(rng, CELEB_PATTERNS);
            let keyword = pick(rng, Topic::Entertainment.seed_keywords());
            if rng.gen_bool(0.1) {
                // A fraction of positives have uninformative titles, so no
                // single title LF is perfect.
                let first = capitalize(pick(rng, FILLER_WORDS));
                [first.as_str(), pick(rng, FILLER_WORDS)].join(" ")
            } else {
                [name.as_str(), pattern, "at", keyword].join(" ")
            }
        }
        Label::Negative => {
            let topic = if hard_negative {
                Topic::Entertainment
            } else {
                Topic::Finance
            };
            let first = capitalize(pick(rng, topic.seed_keywords()));
            let filler = pick(rng, FILLER_WORDS);
            let second = pick(rng, topic.seed_keywords());
            // Hard negatives occasionally headline a person (industry news).
            let name = (hard_negative && rng.gen_bool(0.08)).then(|| person_name(rng));
            // Celebrity phrasing leaks into ordinary headlines ("minister
            // reveals budget"), keeping the title-pattern LF imperfect.
            let pattern = rng.gen_bool(0.004).then(|| pick(rng, CELEB_PATTERNS));
            buf.clear();
            for word in name
                .as_deref()
                .into_iter()
                .chain([first.as_str(), filler, second])
                .chain(pattern)
            {
                push_word(buf, word);
            }
            buf.as_str().to_owned()
        }
    }
}

fn sample_url(rng: &mut StdRng, label: Label) -> String {
    let celeb = match label {
        Label::Positive => rng.gen_bool(0.65),
        Label::Negative => rng.gen_bool(0.002),
    };
    let domain = if celeb {
        pick(rng, CELEB_DOMAINS)
    } else {
        pick(rng, GENERAL_DOMAINS)
    };
    format!("https://{domain}/articles/{}", rng.gen_range(0..10_000_000))
}

fn related_model_score(rng: &mut StdRng, label: Label) -> f64 {
    // A related internal classifier. Its errors are asymmetric, as any
    // usable signal for a sub-1% positive class must be: it misses 12% of
    // positives but almost never scores a negative high.
    let wrong = match label {
        Label::Positive => rng.gen_bool(0.12),
        Label::Negative => rng.gen_bool(0.01),
    };
    let high_side = (label == Label::Positive) != wrong;
    let center = if high_side { 0.85 } else { 0.15 };
    (center + 0.18 * gaussian(rng)).clamp(0.0, 1.0)
}

/// Build one document, using `buf` to assemble its texts.
fn generate_doc(rng: &mut StdRng, id: u64, label: Label, buf: &mut String) -> TopicDoc {
    let hard_negative = label == Label::Negative && rng.gen_bool(0.25);
    let len = rng.gen_range(30..70);
    TopicDoc {
        id,
        title: sample_title(rng, label, hard_negative, buf),
        body: sample_body(rng, label, hard_negative, len, buf),
        url: sample_url(rng, label),
        related_model_score: related_model_score(rng, label),
    }
}

/// Generate the full task from a config.
pub fn generate(cfg: &TopicTaskConfig) -> TopicDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut buf = String::new();
    let mut make_split = |n: usize, id_base: u64| {
        let mut docs = Vec::with_capacity(n);
        let mut gold = Vec::with_capacity(n);
        for i in 0..n {
            let label = draw_label(&mut rng, cfg.pos_rate);
            docs.push(generate_doc(&mut rng, id_base + i as u64, label, &mut buf));
            gold.push(label);
        }
        (docs, gold)
    };
    let (unlabeled, unlabeled_gold) = make_split(cfg.num_unlabeled, 0);
    let (dev, dev_gold) = make_split(cfg.num_dev, 1_000_000_000);
    let (test, test_gold) = make_split(cfg.num_test, 2_000_000_000);

    // The crawl table reflects what a crawler would measure: the true
    // per-domain celebrity-content fraction, with sampling noise.
    let mut crawl_table = HashMap::new();
    let mut counts: HashMap<&str, (u64, u64)> = HashMap::new();
    for (doc, gold) in unlabeled.iter().zip(&unlabeled_gold) {
        let entry = counts.entry(doc.domain()).or_insert((0, 0));
        entry.1 += 1;
        if *gold == Label::Positive {
            entry.0 += 1;
        }
    }
    // Deterministic order: HashMap iteration order varies per instance,
    // and each domain consumes RNG draws.
    let mut sorted: Vec<(&str, (u64, u64))> = counts.into_iter().collect();
    sorted.sort();
    for (domain, (pos, total)) in sorted {
        let noise = 1.0 + 0.1 * gaussian(&mut rng);
        let frac = (pos as f64 / total.max(1) as f64) * noise.max(0.0);
        crawl_table.insert(domain.to_owned(), frac);
    }

    TopicDataset {
        unlabeled,
        unlabeled_gold,
        dev,
        dev_gold,
        test,
        test_gold,
        crawl_table: Arc::new(crawl_table),
    }
}

/// The text extractor the NLP LFs use (title + body, as in §5.1's
/// `GetText`).
pub fn text_extractor() -> TextExtractor<TopicDoc> {
    Arc::new(|d: &TopicDoc| d.full_text())
}

/// Which of up to 64 ASCII lower-case keywords, of two bytes or more, occur
/// in a text's `to_lowercase()`: one scan of the text, comparing a keyword
/// only where the text's next two bytes may be its first two.
struct Keywords {
    words: Vec<&'static str>,
    /// Bit `k` of `pairs[pair(a, b)]` is set if keyword `k` begins `ab`.
    pairs: [u64; 1024],
}

/// The [`Keywords::pairs`] slot of two bytes: their low five bits, which
/// drop the ASCII case bit. Other bytes share slots with letters; the
/// compare that follows tells them apart.
fn pair(a: u8, b: u8) -> usize {
    usize::from(a & 31) << 5 | usize::from(b & 31)
}

impl Keywords {
    /// Add `list`, returning the mask of its keywords.
    fn add(&mut self, list: &[&'static str]) -> u64 {
        let from = self.words.len();
        for &word in list {
            let (k, bytes) = (self.words.len(), word.as_bytes());
            let lower = word.is_ascii() && !bytes.iter().any(u8::is_ascii_uppercase);
            assert!(
                k < 64 && bytes.len() >= 2 && lower,
                "not a keyword: {word:?}"
            );
            self.pairs[pair(bytes[0], bytes[1])] |= 1 << k;
            self.words.push(word);
        }
        (from..self.words.len()).fold(0, |mask, k| mask | 1 << k)
    }

    /// The keywords of `wanted` that occur in `text.to_lowercase()`, or the
    /// first `enough` of them found. ASCII text is scanned as it is, its
    /// case folded as it is compared; any other text is lower-cased first.
    fn find(&self, text: &str, wanted: u64, enough: u32) -> u64 {
        let lower = (!text.is_ascii()).then(|| text.to_lowercase());
        let text = lower.as_deref().unwrap_or(text).as_bytes();
        let mut found = 0u64;
        for (i, two) in text.windows(2).enumerate() {
            let mut candidates = self.pairs[pair(two[0], two[1])] & wanted & !found;
            while candidates != 0 {
                let k = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let word = self.words[k].as_bytes();
                let at = text.get(i..i + word.len());
                if at.is_some_and(|at| at.eq_ignore_ascii_case(word)) {
                    found |= 1 << k;
                    if found.count_ones() >= enough {
                        return found;
                    }
                }
            }
        }
        found
    }
}

/// Build the ten labeling functions of §3.1.
///
/// `crawl_table` is the dataset's crawl-reputation resource.
pub fn lf_set(crawl_table: Arc<HashMap<String, f64>>) -> LfSet<TopicDoc> {
    let mut keywords = Keywords {
        words: Vec::new(),
        pairs: [0; 1024],
    };
    let celeb_words = keywords.add(CELEB_WORDS);
    let patterns = keywords.add(CELEB_PATTERNS);
    let jargon = [Topic::Sports, Topic::Finance, Topic::Politics]
        .iter()
        .fold(0, |mask, t| mask | keywords.add(t.seed_keywords()));
    let keywords = Arc::new(keywords);
    let [celeb_kw, title_kw, jargon_kw, person_kw] = [(); 4].map(|()| Arc::clone(&keywords));

    LfSet::new()
        // --- Servable heuristics (pattern-based rules; what remains in
        // --- the Table 3 "Servable LFs" ablation).
        .with(Lf::plain(
            "url_domain_list",
            LfCategory::SourceHeuristic,
            true,
            |d: &TopicDoc| {
                // A static domain allow/block list: celebrity outlets are
                // positive; a small list of hard-news domains the team
                // vetted is negative. Bipolar on purpose — voting on both
                // sides is what keeps the servable-only label model
                // identifiable (Table 3's ablation).
                if CELEB_DOMAINS.contains(&d.domain()) {
                    Vote::Positive
                } else if matches!(d.domain(), "worldnews.example" | "thepaper.example") {
                    Vote::Negative
                } else {
                    Vote::Abstain
                }
            },
        ))
        .with(Lf::plain(
            "kw_celeb_words",
            LfCategory::ContentHeuristic,
            true,
            move |d: &TopicDoc| {
                // A whole token is a substring of its field, and no word
                // holds the space that joins title and body: a document
                // with fewer than two words as substrings has fewer than
                // two as tokens.
                let substrings = celeb_kw.find(&d.title, celeb_words, 2)
                    | celeb_kw.find(&d.body, celeb_words, 2);
                if substrings.count_ones() < 2 {
                    return Vote::Abstain;
                }
                // Whole-token matches: "star" must not fire on "startup".
                let mut seen = [false; CELEB_WORDS.len()];
                for tok in lower_words(&d.title).chain(lower_words(&d.body)) {
                    if let Some(i) = CELEB_WORDS.iter().position(|w| *w == tok) {
                        seen[i] = true;
                    }
                }
                if seen.iter().filter(|&&hit| hit).count() >= 2 {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        .with(Lf::plain(
            "kw_title_pattern",
            LfCategory::ContentHeuristic,
            true,
            move |d: &TopicDoc| {
                if title_kw.find(&d.title, patterns, 1) != 0 {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        .with(Lf::plain(
            "kw_offtopic_jargon",
            LfCategory::ContentHeuristic,
            true,
            move |d: &TopicDoc| {
                // Three distinct sports, finance or politics keywords.
                if jargon_kw.find(&d.body, jargon, 3).count_ones() >= 3 {
                    Vote::Negative
                } else {
                    Vote::Abstain
                }
            },
        ))
        // --- NER-based (non-servable: needs the NLP model server).
        .with(Lf::nlp("nlp_no_person", |_d: &TopicDoc, nlp| {
            // §5.1's example: content mentioning no person is not about
            // celebrities.
            if nlp.entities_of(EntityKind::Person).next().is_none() {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        }))
        .with(Lf::nlp(
            "nlp_person_pattern_title",
            move |d: &TopicDoc, nlp| {
                // A person mentioned in the title together with celebrity
                // phrasing.
                let title_end = d.title.len();
                let person_in_title = nlp
                    .entities_of(EntityKind::Person)
                    .any(|e| e.start < title_end);
                let has_pattern = person_kw.find(&d.title, patterns, 1) != 0;
                if person_in_title && has_pattern {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        // --- Topic-model-based (non-servable). The categorizer is too
        // --- coarse for the target topic but is an effective *negative*
        // --- heuristic (§3.1).
        .with(Lf::nlp("topic_not_entertainment", |_d: &TopicDoc, nlp| {
            if nlp.topic_probs[Topic::Entertainment.index()] < 0.2 {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        }))
        .with(Lf::nlp("topic_offtopic_strong", |_d: &TopicDoc, nlp| {
            let offtopic = [
                Topic::Sports,
                Topic::Finance,
                Topic::Politics,
                Topic::Health,
                Topic::Travel,
            ];
            if offtopic.iter().any(|t| nlp.topic_probs[t.index()] > 0.5) {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        }))
        // --- Crawl-based source heuristic (non-servable: crawls are
        // --- expensive and high-latency, §4).
        .with(
            Lf::plain(
                "crawl_domain_reputation",
                LfCategory::SourceHeuristic,
                false,
                move |d: &TopicDoc| match crawl_table.get(d.domain()) {
                    Some(&frac) if frac > 0.10 => Vote::Positive,
                    // Only near-zero crawl fractions are safe negative
                    // evidence: a general-interest domain still hosts the
                    // occasional celebrity piece.
                    Some(&frac) if frac < 0.0015 => Vote::Negative,
                    _ => Vote::Abstain,
                },
            )
            .with_feature_spaces(&["crawl-reputation"]),
        )
        // --- Related internal model (non-servable model output attached
        // --- offline during data collection).
        .with(
            Lf::plain(
                "related_model",
                LfCategory::ModelBased,
                false,
                |d: &TopicDoc| {
                    if d.related_model_score > 0.8 {
                        Vote::Positive
                    } else if d.related_model_score < 0.2 {
                        Vote::Negative
                    } else {
                        Vote::Abstain
                    }
                },
            )
            .with_feature_spaces(&["related-classifier"]),
        )
}

/// Servable featurization for the discriminative model: hashed title and
/// body unigrams plus the URL domain (all computable in production).
pub fn featurize(doc: &TopicDoc, hasher: &FeatureHasher) -> SparseVector {
    // Room for every token and the domain.
    let mut counts = hasher.counts(max_tokens(&doc.title) + max_tokens(&doc.body) + 1);
    counts.count("title", lower_words(&doc.title));
    counts.count("body", lower_words(&doc.body));
    counts.count("domain", [doc.domain()]);
    counts.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drybell_lf::executor::execute_in_memory;
    use drybell_nlp::{NlpResult, NlpServer};

    fn small() -> TopicDataset {
        generate(&TopicTaskConfig {
            num_unlabeled: 4000,
            num_dev: 500,
            num_test: 500,
            pos_rate: 0.05, // boosted so splits contain enough positives
            seed: 7,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TopicTaskConfig {
            num_unlabeled: 100,
            num_dev: 10,
            num_test: 10,
            pos_rate: 0.1,
            seed: 42,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.unlabeled, b.unlabeled);
        assert_eq!(a.test_gold, b.test_gold);
    }

    #[test]
    fn positive_rate_matches_config() {
        let ds = small();
        let pos = ds
            .unlabeled_gold
            .iter()
            .filter(|&&l| l == Label::Positive)
            .count();
        let rate = pos as f64 / ds.unlabeled_gold.len() as f64;
        assert!((rate - 0.05).abs() < 0.015, "rate {rate}");
    }

    #[test]
    fn doc_record_roundtrip() {
        let ds = small();
        let doc = &ds.unlabeled[0];
        let buf = codec::encode_record(doc);
        let back: TopicDoc = codec::decode_record(&buf).unwrap();
        assert_eq!(&back, doc);
    }

    #[test]
    fn lf_set_matches_table_1() {
        let ds = small();
        let set = lf_set(ds.crawl_table.clone());
        assert_eq!(set.len(), 10, "Table 1: ten LFs for topic classification");
        // Both servable and non-servable LFs exist (Table 3's ablation
        // needs both sides).
        let mask = set.servable_mask();
        assert!(mask.iter().any(|&s| s));
        assert!(mask.iter().any(|&s| !s));
        assert!(set.needs_nlp());
    }

    /// Every LF must be *informative*: when it votes, it should agree with
    /// the ground truth clearly more often than the base rate of its
    /// polarity would suggest, and it must vote on a non-trivial slice.
    #[test]
    fn lfs_are_informative_on_generated_data() {
        let ds = small();
        let set = lf_set(ds.crawl_table.clone());
        let ext = text_extractor();
        let (matrix, _) = execute_in_memory(&set, Some(&ext), &ds.unlabeled, 4).unwrap();
        for (j, name) in set.names().iter().enumerate() {
            let acc = matrix
                .empirical_accuracy(j, &ds.unlabeled_gold)
                .unwrap()
                .unwrap_or_else(|| panic!("LF {name} never voted"));
            let coverage = matrix.coverage(j);
            assert!(
                acc > 0.55,
                "LF {name}: accuracy {acc:.3} (coverage {coverage:.3}) is not informative"
            );
            assert!(
                coverage > 0.001,
                "LF {name}: coverage {coverage:.4} too small"
            );
        }
        // The label matrix must cover most examples with at least one vote.
        assert!(matrix.label_density() > 0.8);
    }

    #[test]
    fn featurization_is_servable_and_normalized() {
        let ds = small();
        let hasher = FeatureHasher::new(1 << 18);
        let v = featurize(&ds.unlabeled[0], &hasher);
        assert!(v.nnz() > 5);
        assert!((v.norm_sq() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn featurize_equals_the_long_composition_bit_for_bit() {
        use crate::common::featurize_oracle::{assert_same, by_parts, hashers, hostile_texts};
        use drybell_nlp::tokenizer::lower_tokens as tokens;
        let mut docs = generate(&TopicTaskConfig {
            num_unlabeled: 5000,
            num_dev: 1,
            num_test: 1,
            ..TopicTaskConfig::paper()
        })
        .unlabeled;
        let hostile = hostile_texts();
        for (i, title) in hostile.iter().enumerate() {
            // Every hostile text as a title and as a body, under a URL
            // with a domain and under one without.
            let body = &hostile[(i + 1) % hostile.len()];
            for url in ["https://starbuzz.example/a", "camera"] {
                docs.push(TopicDoc {
                    id: i as u64,
                    title: title.clone(),
                    body: body.clone(),
                    url: url.to_owned(),
                    related_model_score: 0.5,
                });
            }
        }
        for hasher in hashers() {
            for doc in &docs {
                let expected = by_parts(
                    &hasher,
                    &[
                        ("title", tokens(&doc.title)),
                        ("body", tokens(&doc.body)),
                        ("domain", vec![doc.domain().to_owned()]),
                    ],
                );
                assert_same(&featurize(doc, &hasher), &expected, &doc.title);
            }
        }
    }

    /// `kw_celeb_words` counts distinct keywords, whole tokens only, in
    /// any case, across title and body.
    #[test]
    fn celeb_keyword_lf_counts_distinct_whole_tokens() {
        let set = lf_set(Arc::new(HashMap::new()));
        let lf = set
            .lfs()
            .iter()
            .find(|lf| lf.metadata().name == "kw_celeb_words")
            .expect("the LF exists");
        let vote = |title: &str, body: &str| {
            let doc = TopicDoc {
                id: 0,
                title: title.to_owned(),
                body: body.to_owned(),
                url: String::new(),
                related_model_score: 0.5,
            };
            lf.try_vote(&doc, None, None).expect("a plain LF")
        };
        assert_eq!(vote("A Famous icon", "nothing"), Vote::Positive);
        assert_eq!(vote("FAMOUS", "an IDOL, they said"), Vote::Positive);
        assert_eq!(vote("famous famous famous", "famous"), Vote::Abstain);
        assert_eq!(vote("iconic idols", "superstars infamous"), Vote::Abstain);
        assert_eq!(vote("", ""), Vote::Abstain);
    }

    /// The bodies `Keywords` replaced, and `nlp_no_person` as it was: each
    /// lower-cases its fields and tests every keyword with `contains`.
    fn reference_vote(name: &str, d: &TopicDoc, nlp: &NlpResult) -> Option<Vote> {
        let contains_any = |text: &str, words: &[&str]| {
            let lower = text.to_lowercase();
            words.iter().any(|w| lower.contains(w))
        };
        let fires = match name {
            "kw_celeb_words" => {
                let mut seen = [false; CELEB_WORDS.len()];
                for tok in lower_words(&d.full_text()) {
                    if let Some(i) = CELEB_WORDS.iter().position(|w| *w == tok) {
                        seen[i] = true;
                    }
                }
                seen.iter().filter(|&&hit| hit).count() >= 2
            }
            "kw_title_pattern" => contains_any(&d.title, CELEB_PATTERNS),
            "kw_offtopic_jargon" => {
                let text = d.body.to_lowercase();
                let offtopic = [Topic::Sports, Topic::Finance, Topic::Politics];
                let hits: usize = offtopic
                    .iter()
                    .map(|t| {
                        t.seed_keywords()
                            .iter()
                            .filter(|w| text.contains(*w))
                            .count()
                    })
                    .sum();
                hits >= 3
            }
            "nlp_no_person" => nlp.people().is_empty(),
            "nlp_person_pattern_title" => {
                let title_end = d.title.len();
                let person_in_title = nlp
                    .entities_of(EntityKind::Person)
                    .any(|e| e.start < title_end);
                person_in_title && contains_any(&d.title, CELEB_PATTERNS)
            }
            _ => return None,
        };
        let vote = match name {
            "kw_offtopic_jargon" | "nlp_no_person" => Vote::Negative,
            _ => Vote::Positive,
        };
        Some(if fires { vote } else { Vote::Abstain })
    }

    /// Fields that case folding, multi-byte characters, field edges and
    /// the title–body join make awkward, each crossed with every other.
    const HOSTILE_FIELDS: &[&str] = &[
        "SPOTTED",
        "Red-Carpet",
        "brea\u{212A}up",
        "DATİNG İ",
        "ΣTUNS ΟΔΥΣΣΕΥΣ",
        "Alice Johnson reveals",
        "she was spotted",
        "fund stock leagu",
        "MARKET Stock BANK",
        "famous supe",
        "rstar iconic",
        "FAMOUS IDOL",
        "ICON",
        "a",
        "s",
        "",
    ];

    #[test]
    fn keyword_lfs_vote_as_their_contains_scans_did() {
        let generated = generate(&TopicTaskConfig {
            num_unlabeled: 5000,
            num_dev: 1,
            num_test: 1,
            ..TopicTaskConfig::paper()
        })
        .unlabeled;
        let doubled = generated.iter().map(|d| TopicDoc {
            title: format!("{0} {0}", d.title),
            body: format!("{0} {0}", d.body),
            ..d.clone()
        });
        let hostile = HOSTILE_FIELDS.iter().flat_map(|&title| {
            HOSTILE_FIELDS.iter().map(move |&body| TopicDoc {
                id: 0,
                title: title.to_owned(),
                body: body.to_owned(),
                url: String::new(),
                related_model_score: 0.5,
            })
        });
        let docs: Vec<TopicDoc> = generated.iter().cloned().chain(doubled).collect();
        let hostile: Vec<TopicDoc> = hostile.collect();
        let set = lf_set(Arc::new(HashMap::new()));
        let server = NlpServer::new();
        for docs in [&docs, &hostile] {
            let mut fired = HashMap::new();
            for doc in docs {
                let nlp = server.annotate(&doc.full_text());
                for lf in set.lfs() {
                    let name = lf.metadata().name.as_str();
                    let Some(expected) = reference_vote(name, doc, &nlp) else {
                        continue;
                    };
                    let vote = lf.try_vote(doc, Some(&nlp), None).expect("a vote");
                    assert_eq!(vote, expected, "{name} on {doc:?}");
                    *fired.entry(name).or_insert(0) += usize::from(vote != Vote::Abstain);
                }
            }
            assert_eq!(fired.len(), 5);
            for (name, n) in fired {
                assert!(n > 0, "{name} never voted");
            }
        }
    }

    #[test]
    fn paper_preset_matches_table_1() {
        let cfg = TopicTaskConfig::paper();
        assert_eq!(cfg.num_unlabeled, 684_000);
        assert_eq!(cfg.num_dev, 11_000);
        assert_eq!(cfg.num_test, 11_000);
        assert!((cfg.pos_rate - 0.0086).abs() < 1e-12);
        let scaled = TopicTaskConfig::scaled(0.01);
        assert_eq!(scaled.num_unlabeled, 6840);
    }
}
