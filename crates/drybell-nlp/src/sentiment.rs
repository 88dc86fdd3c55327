//! Lexicon-based sentiment scoring.
//!
//! A small valence lexicon with negation handling — the kind of
//! "previously developed heuristic classifier" (§3.3) that becomes one
//! more weak supervision source. Scores are in `[-1, 1]`.

use crate::lexicon::NEGATOR;
use crate::tokenizer::words;

pub(crate) const POSITIVE: &[&str] = &[
    "great",
    "excellent",
    "amazing",
    "love",
    "best",
    "wonderful",
    "fantastic",
    "happy",
    "perfect",
    "good",
    "awesome",
    "superb",
    "delightful",
    "brilliant",
    "enjoy",
];

pub(crate) const NEGATIVE: &[&str] = &[
    "terrible",
    "awful",
    "hate",
    "worst",
    "bad",
    "horrible",
    "poor",
    "disappointing",
    "broken",
    "useless",
    "sad",
    "angry",
    "defective",
    "refund",
    "scam",
];

pub(crate) const NEGATORS: &[&str] = &["not", "no", "never", "hardly", "don't", "doesn't", "isn't"];

/// Lexicon sentiment scorer.
#[derive(Debug, Clone, Default)]
pub struct SentimentScorer;

impl SentimentScorer {
    /// Create the scorer.
    pub fn new() -> SentimentScorer {
        SentimentScorer
    }

    /// Score `text` in `[-1, 1]`: the mean valence of matched words, with
    /// a preceding negator flipping a word's sign. Returns `0.0` when no
    /// lexicon word matches. A word's valence and negator bit are in its
    /// lexicon entry.
    pub fn score(&self, text: &str) -> f64 {
        let mut total = 0.0;
        let mut hits = 0usize;
        let mut negated = false;
        for word in words(text) {
            if let Some(valence) = word.entry.and_then(|e| e.valence) {
                total += if negated { -valence } else { valence };
                hits += 1;
            }
            negated = word.is(NEGATOR);
        }
        if hits == 0 {
            0.0
        } else {
            total / hits as f64
        }
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The scorer as it was before the lexicon: a valence map probed with
    //! each token's `to_lowercase`, and a scan of the negator list.

    use super::*;
    use crate::tokenizer::lower_tokens;
    use drybell_obs::FnvHashMap;
    use std::sync::OnceLock;

    /// The valence of a lexicon word: `1.0` for [`POSITIVE`], `-1.0` for
    /// [`NEGATIVE`].
    pub(crate) fn valence(word: &str) -> Option<f64> {
        static LEXICON: OnceLock<FnvHashMap<&'static str, f64>> = OnceLock::new();
        let lexicon = LEXICON.get_or_init(|| {
            // `POSITIVE` goes in last and so wins a word found in both lists.
            let negative = NEGATIVE.iter().map(|&w| (w, -1.0));
            negative.chain(POSITIVE.iter().map(|&w| (w, 1.0))).collect()
        });
        lexicon.get(word).copied()
    }

    /// The sentiment of `text`, scored without the lexicon.
    pub(crate) fn score(text: &str) -> f64 {
        let lower = lower_tokens(text);
        let mut total = 0.0;
        let mut hits = 0usize;
        for (i, word) in lower.iter().enumerate() {
            let Some(valence) = valence(word) else {
                continue;
            };
            let negated = i > 0 && NEGATORS.contains(&lower[i - 1].as_str());
            total += if negated { -valence } else { valence };
            hits += 1;
        }
        if hits == 0 {
            0.0
        } else {
            total / hits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::valence;
    use super::*;

    #[test]
    fn positive_and_negative_words() {
        let s = SentimentScorer::new();
        assert!(s.score("what a great and wonderful day") > 0.9);
        assert!(s.score("terrible awful broken thing") < -0.9);
    }

    #[test]
    fn negation_flips() {
        let s = SentimentScorer::new();
        assert!(s.score("not great") < 0.0);
        assert!(s.score("never bad") > 0.0);
    }

    #[test]
    fn mixed_text_averages() {
        let s = SentimentScorer::new();
        let v = s.score("great product but terrible shipping");
        assert!((v - 0.0).abs() < 1e-12);
    }

    #[test]
    fn no_lexicon_words_is_neutral() {
        let s = SentimentScorer::new();
        assert_eq!(s.score("the quick brown fox"), 0.0);
        assert_eq!(s.score(""), 0.0);
    }

    /// `valence` as a scan of the two lists, `POSITIVE` first.
    fn scanned_valence(word: &str) -> Option<f64> {
        if POSITIVE.contains(&word) {
            Some(1.0)
        } else if NEGATIVE.contains(&word) {
            Some(-1.0)
        } else {
            None
        }
    }

    #[test]
    fn the_table_answers_as_the_list_scans_do() {
        let lexicon = POSITIVE.iter().chain(NEGATIVE).chain(NEGATORS).copied();
        let others = (0..1000).map(|i| format!("w{i}"));
        let cased = ["Great", "BAD", "", " good", "good ", "goo", "goody"];
        let mut hits = 0;
        for word in lexicon
            .map(str::to_owned)
            .chain(others)
            .chain(cased.map(str::to_owned))
        {
            assert_eq!(valence(&word), scanned_valence(&word), "{word:?}");
            hits += usize::from(valence(&word).is_some());
        }
        assert_eq!(hits, POSITIVE.len() + NEGATIVE.len());
    }

    /// `valence` lets `POSITIVE` win a word in both lists, as scanning it
    /// first does; today no word is in both, so nothing rests on it.
    #[test]
    fn the_two_lists_are_disjoint() {
        for word in POSITIVE {
            assert!(!NEGATIVE.contains(word), "{word:?} is in both lists");
        }
    }

    #[test]
    fn score_is_bounded() {
        let s = SentimentScorer::new();
        for text in [
            "great great great",
            "bad bad not good awful",
            "not not good",
        ] {
            let v = s.score(text);
            assert!((-1.0..=1.0).contains(&v), "{text}: {v}");
        }
    }
}
