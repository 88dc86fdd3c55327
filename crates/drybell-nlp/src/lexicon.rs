//! Every word the built-in models know, in one table: NER's gazetteers and
//! cue words, sentiment's valences and negators and the seed categorizer's
//! `ln P(word | topic)` rows, built once. The tokenizer probes it once a
//! word, and every model reads the [`Entry`] it finds.

use crate::ner::{
    LOCATIONS, ORGANIZATIONS, ORG_SUFFIXES, PERSON_FIRST_NAMES, PERSON_LAST_NAMES, PRODUCT_WORDS,
    TITLES,
};
use crate::sentiment::{NEGATIVE, NEGATORS, POSITIVE};
use crate::topic_model::{SemanticCategorizer, Topic};
use drybell_obs::FnvHashMap;
use std::sync::OnceLock;

/// [`Entry::flags`] bits: the gazetteers, NER's cue words (an honorific
/// before a name, a corporate suffix after one) and sentiment's negators.
pub(crate) const FIRST_NAME: u16 = 1;
pub(crate) const LAST_NAME: u16 = 1 << 1;
pub(crate) const ORG: u16 = 1 << 2;
pub(crate) const LOCATION: u16 = 1 << 3;
pub(crate) const PRODUCT: u16 = 1 << 4;
pub(crate) const TITLE: u16 = 1 << 5;
pub(crate) const ORG_SUFFIX: u16 = 1 << 6;
pub(crate) const NEGATOR: u16 = 1 << 7;

/// The fold buffer's size: the longest entry, so that an ASCII word longer
/// than every entry is not looked up. The build refuses a longer entry.
const FOLD: usize = 13;

/// What the models know of one lower-case word.
#[derive(Debug, Default)]
pub(crate) struct Entry {
    /// NER and negator bits.
    pub flags: u16,
    /// `1.0` for a positive sentiment word, `-1.0` for a negative one.
    pub valence: Option<f64>,
    /// The seed categorizer's `ln P(word | topic)` over [`Topic::ALL`].
    pub topic: Option<[f64; 8]>,
}

type Lexicon = FnvHashMap<&'static str, Entry>;

/// The entry of `word`, made if it is new.
fn entry<'a>(lexicon: &'a mut Lexicon, word: &'static str) -> &'a mut Entry {
    let lower = word.is_ascii() && !word.bytes().any(|b| b.is_ascii_uppercase());
    assert!(
        lower && word.len() <= FOLD,
        "{word:?} is not ASCII lower case of ≤{FOLD} bytes"
    );
    lexicon.entry(word).or_default()
}

fn shared() -> &'static Lexicon {
    static LEXICON: OnceLock<Lexicon> = OnceLock::new();
    LEXICON.get_or_init(|| {
        let mut lexicon = Lexicon::default();
        let flagged = [
            (PERSON_FIRST_NAMES, FIRST_NAME),
            (PERSON_LAST_NAMES, LAST_NAME),
            (ORGANIZATIONS, ORG),
            (LOCATIONS, LOCATION),
            (PRODUCT_WORDS, PRODUCT),
            (TITLES, TITLE),
            (ORG_SUFFIXES, ORG_SUFFIX),
            (NEGATORS, NEGATOR),
        ];
        for (list, flag) in flagged {
            for &word in list {
                entry(&mut lexicon, word).flags |= flag;
            }
        }
        // `POSITIVE` goes in last and so wins a word found in both lists.
        for (list, valence) in [(NEGATIVE, -1.0), (POSITIVE, 1.0)] {
            for &word in list {
                entry(&mut lexicon, word).valence = Some(valence);
            }
        }
        let seeds = SemanticCategorizer::from_seeds();
        let rows = seeds.log_probs();
        for topic in Topic::ALL {
            for &word in topic.seed_keywords() {
                entry(&mut lexicon, word).topic = rows.get(word).copied();
            }
        }
        lexicon
    })
}

/// The entry of `word` in any case: `word.to_lowercase()` looked up once.
/// An ASCII word longer than every entry is not looked up, and one with a
/// capital is folded in a stack buffer; a non-ASCII word is lower-cased by
/// `to_lowercase`, so the Kelvin sign still finds `k` and `İ` finds nothing.
pub(crate) fn lookup(word: &str) -> Option<&'static Entry> {
    if !word.is_ascii() {
        return shared().get(word.to_lowercase().as_str());
    }
    let mut buf = [0u8; FOLD];
    let folded = buf.get_mut(..word.len())?;
    if !word.bytes().any(|b| b.is_ascii_uppercase()) {
        return shared().get(word);
    }
    folded.copy_from_slice(word.as_bytes());
    folded.make_ascii_lowercase();
    shared().get(std::str::from_utf8(folded).ok()?)
}

#[cfg(test)]
/// The entry of a word already in lower case, as the table holds it.
pub(crate) fn exact(lower: &str) -> Option<&'static Entry> {
    shared().get(lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicon_words_are_ascii_lower_case_and_fit_the_fold_buffer() {
        let lexicon = shared();
        assert!(lexicon.len() > 200);
        let mut keys: Vec<&str> = lexicon.keys().copied().collect();
        keys.sort_unstable();
        for &word in &keys {
            assert!(!word.is_empty() && word.len() <= FOLD, "{word:?}");
            assert!(
                word.bytes()
                    .all(|b| b.is_ascii() && !b.is_ascii_uppercase()),
                "{word:?}"
            );
        }
        // The buffer is as long as the longest entry: a longer word is not
        // looked up.
        assert_eq!(keys.iter().map(|w| w.len()).max(), Some(FOLD));
    }

    #[test]
    fn lexicon_entries_carry_every_list_they_come_from() {
        let flagged = [
            (PERSON_FIRST_NAMES, FIRST_NAME),
            (PERSON_LAST_NAMES, LAST_NAME),
            (ORGANIZATIONS, ORG),
            (LOCATIONS, LOCATION),
            (PRODUCT_WORDS, PRODUCT),
            (TITLES, TITLE),
            (ORG_SUFFIXES, ORG_SUFFIX),
            (NEGATORS, NEGATOR),
        ];
        for (list, flag) in flagged {
            for word in list {
                assert!(exact(word).is_some_and(|e| e.flags & flag != 0), "{word:?}");
            }
        }
        for word in POSITIVE {
            assert_eq!(exact(word).and_then(|e| e.valence), Some(1.0), "{word:?}");
        }
        for word in NEGATIVE.iter().filter(|w| !POSITIVE.contains(w)) {
            assert_eq!(exact(word).and_then(|e| e.valence), Some(-1.0), "{word:?}");
        }
        for topic in Topic::ALL {
            for word in topic.seed_keywords() {
                assert!(exact(word).is_some_and(|e| e.topic.is_some()), "{word:?}");
            }
        }
        assert!(exact("the").is_none() && exact("").is_none());
    }

    #[test]
    fn lexicon_lookup_folds_case_as_to_lowercase_does() {
        let same = |a: Option<&Entry>, b: Option<&Entry>| match (a, b) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        };
        for word in [
            "alice",
            "Alice",
            "ALICE",
            "DON'T",
            "Kim",
            "\u{212A}im",
            "\u{212A}IM",
            "İnc",
            "Σ",
            "ß",
            "disappointing",
            "Disappointingly",
            "DISAPPOINTINGDISAPPOINTING",
            "",
            "x",
        ] {
            assert!(same(lookup(word), exact(&word.to_lowercase())), "{word:?}");
        }
        assert!(lookup("\u{212A}im").is_some_and(|e| e.flags & LAST_NAME != 0));
        assert!(lookup("İnc").is_none());
    }
}
