//! Shared vocabulary and sampling helpers for the corpus generators.

use drybell_core::vote::Label;
use rand::rngs::StdRng;
use rand::Rng;

/// Topic-neutral filler words mixed into every document so that no single
/// token is a perfect class signal.
pub const FILLER_WORDS: &[&str] = &[
    "the", "a", "an", "of", "and", "to", "in", "for", "with", "on", "that", "this", "was", "are",
    "has", "have", "from", "they", "will", "would", "about", "after", "before", "people", "time",
    "year", "week", "today", "new", "more", "other", "some", "many", "first", "last", "also",
    "just", "into", "over", "under", "while", "where", "when", "which", "their", "them", "said",
    "says", "see", "seen", "made", "make", "still", "even", "back", "down", "well", "through",
    "around", "between", "because", "during", "against", "without", "within",
];

/// Domains whose content skews toward the celebrity topic of interest.
pub const CELEB_DOMAINS: &[&str] = &[
    "starbuzz.example",
    "gossipdaily.example",
    "redcarpet.example",
    "celebwire.example",
];

/// General-purpose domains.
pub const GENERAL_DOMAINS: &[&str] = &[
    "worldnews.example",
    "dailyupdate.example",
    "infohub.example",
    "thepaper.example",
    "netmagazine.example",
    "cityjournal.example",
];

/// Phrase fragments typical of celebrity coverage (used by title-pattern
/// LFs and the positive generator).
pub const CELEB_PATTERNS: &[&str] = &[
    "spotted",
    "dating",
    "red-carpet",
    "paparazzi",
    "breakup",
    "engaged",
    "stuns",
    "reveals",
    "flaunts",
    "sizzles",
];

/// Generic celebrity nouns (deliberately *low-precision* keywords — they
/// also appear in sports and other coverage, so the servable keyword LFs
/// that use them overpredict, as in Table 3).
/// (Disjoint from every topic seed list, so coarse-topic vocabulary does
/// not systematically trip these keywords.)
pub const CELEB_WORDS: &[&str] = &["superstar", "famous", "glamorous", "icon", "idol"];

/// Draw one item uniformly from a slice.
pub fn pick<'a, T: ?Sized>(rng: &mut StdRng, items: &'a [&'a T]) -> &'a T {
    items[rng.gen_range(0..items.len())]
}

/// Draw a Bernoulli label with `P(positive) = pos_rate`.
pub(crate) fn draw_label(rng: &mut StdRng, pos_rate: f64) -> Label {
    if rng.gen_bool(pos_rate) {
        Label::Positive
    } else {
        Label::Negative
    }
}

/// A standard-normal sample (Box–Muller; two uniforms per call).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A full name drawn from the NER gazetteer (capitalized), so the NER
/// model can recognize it.
pub(crate) fn person_name(rng: &mut StdRng) -> String {
    let first = pick(rng, drybell_nlp::ner::PERSON_FIRST_NAMES);
    let last = pick(rng, drybell_nlp::ner::PERSON_LAST_NAMES);
    let mut name = String::with_capacity(first.len() + 1 + last.len());
    push_capitalized(&mut name, first);
    name.push(' ');
    push_capitalized(&mut name, last);
    name
}

/// Uppercase the first ASCII letter.
pub(crate) fn capitalize(word: &str) -> String {
    let mut out = String::with_capacity(word.len());
    push_capitalized(&mut out, word);
    out
}

/// Append `word` to `out` with its first letter upper-cased.
fn push_capitalized(out: &mut String, word: &str) {
    let mut chars = word.chars();
    if let Some(c) = chars.next() {
        out.extend(c.to_uppercase());
        out.push_str(chars.as_str());
    }
}

/// Split a dataset size into (unlabeled, dev, test) counts scaled by `f`,
/// keeping every split at least 1.
pub(crate) fn scaled_counts(
    unlabeled: usize,
    dev: usize,
    test: usize,
    f: f64,
) -> (usize, usize, usize) {
    let s = |n: usize| ((n as f64 * f).round() as usize).max(1);
    (s(unlabeled), s(dev), s(test))
}

/// What the oracle tests of `product::featurize` and `topic::featurize`
/// share.
#[cfg(test)]
pub(crate) mod featurize_oracle {
    use drybell_features::{FeatureHasher, SparseVector};

    /// A featurizer composed the long way: build each
    /// `"{namespace}={token}"` string and hash it, make a vector per
    /// namespace, merge the vectors' entries into one, normalise a copy.
    pub fn by_parts(hasher: &FeatureHasher, parts: &[(&str, Vec<String>)]) -> SparseVector {
        let mut merged = Vec::new();
        for (namespace, tokens) in parts {
            let indexed = tokens
                .iter()
                .map(|t| (hasher.index(&format!("{namespace}={t}")), 1.0));
            merged.extend_from_slice(SparseVector::from_pairs(indexed.collect()).entries());
        }
        SparseVector::from_pairs(merged).l2_normalized()
    }

    /// Entry for entry, bit for bit.
    pub fn assert_same(found: &SparseVector, expected: &SparseVector, what: &str) {
        let bits = |v: &SparseVector| -> Vec<(u32, u64)> {
            v.entries().iter().map(|&(i, x)| (i, x.to_bits())).collect()
        };
        assert_eq!(bits(found), bits(expected), "{what}");
    }

    /// Hashers of the benchmark's width, of a width small enough that
    /// tokens share indices, and of width one, where everything does —
    /// the single-valued namespace included.
    pub fn hashers() -> [FeatureHasher; 3] {
        [1 << 16, 97, 1].map(FeatureHasher::new)
    }

    /// Texts that case-folding, multi-byte characters, their absence or
    /// repetition make awkward.
    pub fn hostile_texts() -> Vec<String> {
        let mut texts: Vec<String> = [
            "İstanbul",
            "İİİ İstanbul'da İyi bir kamera",
            "273 \u{212A}elvin camera \u{212A}",
            "ß",
            "Straße und Fußball-Spiel",
            "",
            "!!! ... --- ''",
            "Dr. Chen's état-of-the-art DON'T",
        ]
        .map(str::to_owned)
        .into();
        texts.push(["camera"; 100].join(" "));
        texts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn person_names_are_recognized_by_ner() {
        let mut rng = StdRng::seed_from_u64(2);
        let tagger = drybell_nlp::NerTagger::new();
        for _ in 0..20 {
            let name = person_name(&mut rng);
            let people = tagger.people(&format!("today {name} arrived"));
            assert!(!people.is_empty(), "NER must find {name}");
        }
    }

    #[test]
    fn capitalize_handles_edge_cases() {
        assert_eq!(capitalize(""), "");
        assert_eq!(capitalize("a"), "A");
        assert_eq!(capitalize("alice"), "Alice");
    }

    #[test]
    fn scaled_counts_floor_at_one() {
        assert_eq!(scaled_counts(1000, 100, 100, 0.5), (500, 50, 50));
        assert_eq!(scaled_counts(10, 10, 10, 0.001), (1, 1, 1));
    }

    #[test]
    fn draw_label_respects_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let pos = (0..n)
            .filter(|_| draw_label(&mut rng, 0.1) == Label::Positive)
            .count();
        let rate = pos as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }
}
