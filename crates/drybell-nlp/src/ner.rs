//! Named entity recognition.
//!
//! A gazetteer- and heuristic-based tagger playing the role of the "custom
//! named entity recognition (NER) models maintained internally at Google"
//! that the topic-classification labeling functions query (§3.1). The
//! built-in gazetteers are shared with `drybell-datagen`, which mentions
//! the same entities when synthesizing corpora — so the tagger has real
//! signal to find, with heuristics (capitalization, titles, corporate
//! suffixes) providing recall beyond the gazetteer and a controlled amount
//! of noise.

use crate::lexicon::{FIRST_NAME, LAST_NAME, LOCATION, ORG, ORG_SUFFIX, PRODUCT, TITLE};
use crate::tokenizer::{words, Word};

/// The kind of a recognized entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A person's proper name.
    Person,
    /// A company or institution.
    Organization,
    /// A geographic location.
    Location,
    /// A commercial product.
    Product,
}

/// One recognized entity mention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Surface text of the mention.
    pub text: String,
    /// What kind of entity.
    pub kind: EntityKind,
    /// Byte span start in the source text.
    pub start: usize,
    /// Byte span end in the source text.
    pub end: usize,
}

/// First names known to the person gazetteer (shared with datagen).
pub const PERSON_FIRST_NAMES: &[&str] = &[
    "alice", "robert", "maria", "james", "elena", "david", "sofia", "michael", "laura", "carlos",
    "nina", "peter", "amara", "kenji", "fatima", "oliver", "priya", "lucas", "ingrid", "tomas",
];

/// Last names known to the person gazetteer (shared with datagen).
pub const PERSON_LAST_NAMES: &[&str] = &[
    "johnson",
    "garcia",
    "smith",
    "tanaka",
    "mueller",
    "rossi",
    "kim",
    "patel",
    "novak",
    "silva",
    "brown",
    "ivanov",
    "dubois",
    "larsen",
    "costa",
    "okafor",
    "haddad",
    "lindqvist",
    "moreau",
    "fischer",
];

/// Organization names known to the gazetteer (shared with datagen).
pub const ORGANIZATIONS: &[&str] = &[
    "acme",
    "globex",
    "initech",
    "umbrella",
    "vandelay",
    "wonka",
    "stark",
    "wayne",
    "tyrell",
    "cyberdyne",
    "aperture",
    "hooli",
    "dunder",
    "sterling",
    "oscorp",
];

/// Location names known to the gazetteer (shared with datagen).
pub const LOCATIONS: &[&str] = &[
    "springfield",
    "rivertown",
    "lakeside",
    "hillview",
    "northport",
    "eastfield",
    "westbrook",
    "southgate",
    "maplewood",
    "cedarville",
    "stonebridge",
    "fairhaven",
];

/// Product words known to the gazetteer (shared with datagen and the
/// knowledge graph).
pub const PRODUCT_WORDS: &[&str] = &[
    "camera",
    "lens",
    "tripod",
    "flash",
    "battery",
    "charger",
    "drone",
    "gimbal",
    "filter",
    "strap",
    "phone",
    "laptop",
    "tablet",
    "headphones",
    "speaker",
    "monitor",
    "keyboard",
    "printer",
    "router",
    "console",
];

/// Honorific titles that signal a following person name.
pub(crate) const TITLES: &[&str] = &["mr", "mrs", "ms", "dr", "prof", "sir"];

/// Corporate suffixes that signal a preceding organization name.
pub(crate) const ORG_SUFFIXES: &[&str] = &["inc", "corp", "ltd", "llc", "gmbh", "co"];

/// The gazetteer-plus-heuristics NER tagger. Its gazetteers are the
/// process-wide lexicon's flags, read from each word's entry.
#[derive(Debug, Clone, Default)]
pub struct NerTagger;

impl NerTagger {
    /// Build the tagger with the built-in gazetteers.
    pub fn new() -> NerTagger {
        NerTagger
    }

    /// Tag all entity mentions in `text`.
    pub fn tag(&self, text: &str) -> Vec<Entity> {
        self.tag_words(&words(text))
    }

    /// [`NerTagger::tag`] over a text already tokenized and lower-cased.
    pub(crate) fn tag_words(&self, words: &[Word<'_>]) -> Vec<Entity> {
        let mut entities = Vec::new();
        let mut i = 0;
        while i < words.len() {
            if let Some((entity, consumed)) = self.match_at(words, i) {
                entities.push(entity);
                i += consumed;
            } else {
                i += 1;
            }
        }
        entities
    }

    /// People mentioned in `text` (the signature the celebrity-LF example
    /// in §5.1 consumes: `nlp.entities.people`).
    pub fn people(&self, text: &str) -> Vec<Entity> {
        self.tag(text)
            .into_iter()
            .filter(|e| e.kind == EntityKind::Person)
            .collect()
    }

    fn match_at(&self, words: &[Word<'_>], i: usize) -> Option<(Entity, usize)> {
        let tok = &words[i];
        let capitalized = tok.is_capitalized();
        let next = words.get(i + 1);
        let pair = |next: &Word<'_>, kind| {
            let entity = Entity {
                text: [tok.text, " ", next.text].concat(),
                kind,
                start: tok.start,
                end: next.end(),
            };
            Some((entity, 2))
        };
        let single = |kind| {
            let entity = Entity {
                text: tok.text.to_owned(),
                kind,
                start: tok.start,
                end: tok.end(),
            };
            Some((entity, 1))
        };

        // Title + capitalized word → person ("Dr. Chen").
        if tok.is(TITLE) {
            if let Some(next) = next.filter(|n| n.is_capitalized()) {
                return pair(next, EntityKind::Person);
            }
        }

        // Gazetteer first name (capitalized), optionally followed by a
        // capitalized last name.
        if capitalized && tok.is(FIRST_NAME) {
            let last = next.filter(|n| n.is_capitalized() && n.is(LAST_NAME));
            return match last {
                Some(next) => pair(next, EntityKind::Person),
                None => single(EntityKind::Person),
            };
        }

        // Capitalized gazetteer last name alone → person.
        if capitalized && tok.is(LAST_NAME) {
            return single(EntityKind::Person);
        }

        // Organization gazetteer, or any capitalized word followed by a
        // corporate suffix ("Figment Inc").
        if capitalized && tok.is(ORG) {
            return single(EntityKind::Organization);
        }
        if capitalized {
            if let Some(next) = next.filter(|n| n.is(ORG_SUFFIX)) {
                return pair(next, EntityKind::Organization);
            }
        }

        // Location gazetteer (capitalized).
        if capitalized && tok.is(LOCATION) {
            return single(EntityKind::Location);
        }

        // Product gazetteer (any case — product words appear in running
        // text).
        if tok.is(PRODUCT) {
            return single(EntityKind::Product);
        }

        None
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The tagger as it was before the lexicon: gazetteer sets probed with
    //! each token's `to_lowercase`, and scans of the cue lists.

    use super::*;
    use crate::tokenizer::{tokenize, Token};
    use drybell_obs::FnvHashSet;

    struct Gazetteers {
        persons_first: FnvHashSet<&'static str>,
        persons_last: FnvHashSet<&'static str>,
        orgs: FnvHashSet<&'static str>,
        locations: FnvHashSet<&'static str>,
        products: FnvHashSet<&'static str>,
    }

    /// The entities of `text`, found without the lexicon.
    pub(crate) fn tag(text: &str) -> Vec<Entity> {
        let sets = Gazetteers {
            persons_first: PERSON_FIRST_NAMES.iter().copied().collect(),
            persons_last: PERSON_LAST_NAMES.iter().copied().collect(),
            orgs: ORGANIZATIONS.iter().copied().collect(),
            locations: LOCATIONS.iter().copied().collect(),
            products: PRODUCT_WORDS.iter().copied().collect(),
        };
        let tokens = tokenize(text);
        let lower: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mut entities = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            if let Some((entity, consumed)) = match_at(&sets, &tokens, &lower, i) {
                entities.push(entity);
                i += consumed;
            } else {
                i += 1;
            }
        }
        entities
    }

    fn match_at(
        sets: &Gazetteers,
        tokens: &[Token],
        lower: &[String],
        i: usize,
    ) -> Option<(Entity, usize)> {
        let tok = &tokens[i];
        let low = lower[i].as_str();
        let capitalized = tok.is_capitalized();
        let next = tokens.get(i + 1);
        let next_low = lower.get(i + 1).map(String::as_str);
        let pair = |next: &Token, kind| {
            let entity = Entity {
                text: format!("{} {}", tok.text, next.text),
                kind,
                start: tok.start,
                end: next.end,
            };
            Some((entity, 2))
        };
        let single = |kind| {
            let entity = Entity {
                text: tok.text.clone(),
                kind,
                start: tok.start,
                end: tok.end,
            };
            Some((entity, 1))
        };
        if TITLES.contains(&low) {
            if let Some(next) = next.filter(|n| n.is_capitalized()) {
                return pair(next, EntityKind::Person);
            }
        }
        if capitalized && sets.persons_first.contains(low) {
            let last = next.filter(|n| {
                n.is_capitalized() && next_low.is_some_and(|l| sets.persons_last.contains(l))
            });
            return match last {
                Some(next) => pair(next, EntityKind::Person),
                None => single(EntityKind::Person),
            };
        }
        if capitalized && sets.persons_last.contains(low) {
            return single(EntityKind::Person);
        }
        if capitalized && sets.orgs.contains(low) {
            return single(EntityKind::Organization);
        }
        if capitalized {
            if let Some(next) = next.filter(|_| next_low.is_some_and(|l| ORG_SUFFIXES.contains(&l)))
            {
                return pair(next, EntityKind::Organization);
            }
        }
        if capitalized && sets.locations.contains(low) {
            return single(EntityKind::Location);
        }
        if sets.products.contains(low) {
            return single(EntityKind::Product);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(String, EntityKind)> {
        NerTagger::new()
            .tag(text)
            .into_iter()
            .map(|e| (e.text, e.kind))
            .collect()
    }

    #[test]
    fn finds_gazetteer_persons() {
        let found = kinds("Alice Johnson met Robert in Springfield.");
        assert!(found.contains(&("Alice Johnson".into(), EntityKind::Person)));
        assert!(found.contains(&("Robert".into(), EntityKind::Person)));
        assert!(found.contains(&("Springfield".into(), EntityKind::Location)));
    }

    #[test]
    fn title_heuristic_tags_unknown_names() {
        let found = kinds("Dr Chen presented the findings.");
        assert!(found.contains(&("Dr Chen".into(), EntityKind::Person)));
    }

    #[test]
    fn org_suffix_heuristic() {
        let found = kinds("Figment Inc shipped a new camera.");
        assert!(found.contains(&("Figment Inc".into(), EntityKind::Organization)));
        assert!(found.contains(&("camera".into(), EntityKind::Product)));
    }

    #[test]
    fn lowercase_names_are_not_persons() {
        // Gazetteer words in lowercase running text must not fire the
        // person rule ("alice blue is a color").
        let found = kinds("the alice pattern and the robert protocol");
        assert!(found.iter().all(|(_, k)| *k != EntityKind::Person));
    }

    #[test]
    fn products_fire_in_any_case() {
        let found = kinds("I bought a Tripod and a charger");
        assert_eq!(
            found,
            vec![
                ("Tripod".into(), EntityKind::Product),
                ("charger".into(), EntityKind::Product)
            ]
        );
    }

    #[test]
    fn people_helper_filters() {
        let tagger = NerTagger::new();
        let people = tagger.people("Maria Garcia visited Acme to buy a lens.");
        assert_eq!(people.len(), 1);
        assert_eq!(people[0].text, "Maria Garcia");
        assert!(tagger.people("a lens and a tripod").is_empty());
    }

    #[test]
    fn spans_are_correct() {
        let text = "Say hi to Alice Johnson today";
        let tagger = NerTagger::new();
        let ents = tagger.tag(text);
        assert_eq!(&text[ents[0].start..ents[0].end], "Alice Johnson");
    }

    #[test]
    fn empty_text_no_entities() {
        assert!(NerTagger::new().tag("").is_empty());
    }
}
