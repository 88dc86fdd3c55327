//! Character-trigram language identification.
//!
//! The product-classification application queries the Knowledge Graph "for
//! translations of keywords in ten languages" (§3.2); content arrives in
//! any of them. This detector scores character trigrams against per-language
//! profiles built from small seed texts, mirroring how lightweight
//! production language-ID models work.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The ten languages the product task covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    /// English
    En,
    /// Spanish
    Es,
    /// French
    Fr,
    /// German
    De,
    /// Italian
    It,
    /// Portuguese
    Pt,
    /// Dutch
    Nl,
    /// Swedish
    Sv,
    /// Polish
    Pl,
    /// Turkish
    Tr,
}

impl Lang {
    /// Every supported language, in a stable order.
    pub const ALL: [Lang; 10] = [
        Lang::En,
        Lang::Es,
        Lang::Fr,
        Lang::De,
        Lang::It,
        Lang::Pt,
        Lang::Nl,
        Lang::Sv,
        Lang::Pl,
        Lang::Tr,
    ];

    /// ISO-639-1 style code.
    pub fn code(self) -> &'static str {
        match self {
            Lang::En => "en",
            Lang::Es => "es",
            Lang::Fr => "fr",
            Lang::De => "de",
            Lang::It => "it",
            Lang::Pt => "pt",
            Lang::Nl => "nl",
            Lang::Sv => "sv",
            Lang::Pl => "pl",
            Lang::Tr => "tr",
        }
    }

    /// Seed text used to build this language's trigram profile. Also used
    /// by `drybell-datagen` as filler text for non-English documents, so
    /// detection on synthetic corpora is realistic.
    pub fn seed_text(self) -> &'static str {
        match self {
            Lang::En => {
                "the quick brown fox jumps over the lazy dog and the people of the town watch \
                 with great interest while they share their thoughts about the weather this is \
                 what everyone wants to know about the thing that they have seen"
            }
            Lang::Es => {
                "el rapido zorro marron salta sobre el perro perezoso y la gente del pueblo \
                 mira con gran interes mientras comparten sus pensamientos sobre el tiempo esto \
                 es lo que todos quieren saber sobre la cosa que han visto"
            }
            Lang::Fr => {
                "le rapide renard brun saute par dessus le chien paresseux et les gens de la \
                 ville regardent avec beaucoup d'interet pendant qu'ils partagent leurs pensees \
                 sur le temps c'est ce que tout le monde veut savoir sur la chose qu'ils ont vue"
            }
            Lang::De => {
                "der schnelle braune fuchs springt ueber den faulen hund und die leute der \
                 stadt schauen mit grossem interesse zu waehrend sie ihre gedanken ueber das \
                 wetter teilen das ist was alle ueber die sache wissen wollen die sie gesehen haben"
            }
            Lang::It => {
                "la rapida volpe marrone salta sopra il cane pigro e la gente della citta \
                 guarda con grande interesse mentre condividono i loro pensieri sul tempo questo \
                 e cio che tutti vogliono sapere sulla cosa che hanno visto"
            }
            Lang::Pt => {
                "a rapida raposa marrom pula sobre o cachorro preguicoso e as pessoas da cidade \
                 observam com grande interesse enquanto compartilham seus pensamentos sobre o \
                 tempo isso e o que todos querem saber sobre a coisa que viram"
            }
            Lang::Nl => {
                "de snelle bruine vos springt over de luie hond en de mensen van de stad kijken \
                 met grote belangstelling toe terwijl ze hun gedachten over het weer delen dit \
                 is wat iedereen wil weten over het ding dat ze hebben gezien"
            }
            Lang::Sv => {
                "den snabba bruna raven hoppar over den lata hunden och folket i staden tittar \
                 med stort intresse medan de delar sina tankar om vadret detta ar vad alla vill \
                 veta om saken som de har sett"
            }
            Lang::Pl => {
                "szybki brazowy lis przeskakuje nad leniwym psem a ludzie z miasta patrza z \
                 wielkim zainteresowaniem podczas gdy dziela sie swoimi myslami o pogodzie to \
                 jest to co wszyscy chca wiedziec o rzeczy ktora widzieli"
            }
            Lang::Tr => {
                "hizli kahverengi tilki tembel kopegin uzerinden atlar ve kasabanin insanlari \
                 hava hakkinda dusuncelerini paylasirken buyuk bir ilgiyle izler bu herkesin \
                 gordukleri sey hakkinda bilmek istedigi seydir"
            }
        }
    }
}

/// Symbols a normalized byte can be: a space, then `a`..=`z`.
const SYMBOLS: usize = 27;
/// Distinct trigram codes (`a·27² + b·27 + c`).
const CODES: usize = SYMBOLS * SYMBOLS * SYMBOLS;

/// Feed `sink` the trigram codes of `text` in text order: the text is
/// lower-cased, every byte that is not an ASCII letter becomes a space, and
/// each three-byte window that is not all spaces yields its code. Nothing
/// is allocated; a non-ASCII character contributes what the bytes of its
/// lower-case form would (spaces, or a letter for the likes of Kelvin `K`).
fn for_each_trigram(text: &str, mut sink: impl FnMut(usize)) {
    let mut code = 0;
    let mut seen = 0usize;
    let mut push = |symbol: usize| {
        code = (code % (SYMBOLS * SYMBOLS)) * SYMBOLS + symbol;
        seen += 1;
        if seen >= 3 && code != 0 {
            sink(code);
        }
    };
    let symbol = |c: char| match c.to_ascii_lowercase() {
        l @ 'a'..='z' => l as usize - 'a' as usize + 1,
        _ => 0,
    };
    for c in text.chars() {
        if c.is_ascii() {
            push(symbol(c));
        } else {
            for l in c.to_lowercase() {
                for _ in 0..l.len_utf8() {
                    push(symbol(l));
                }
            }
        }
    }
}

/// Every language's trigram profile in one dense table: trigram code →
/// row → the ten relative frequencies, in [`Lang::ALL`] order.
#[derive(Debug)]
struct ProfileTable {
    /// Row of each trigram code. A trigram in no profile has row 0, which
    /// is all zeros, so the walk adds a row per trigram without a branch.
    row_of: Box<[u16]>,
    rows: Vec<[f64; 10]>,
}

impl ProfileTable {
    fn build() -> ProfileTable {
        let mut profiles: BTreeMap<usize, [f64; 10]> = BTreeMap::new();
        for (l, lang) in Lang::ALL.iter().enumerate() {
            let mut total = 0.0;
            for_each_trigram(lang.seed_text(), |code| {
                profiles.entry(code).or_insert([0.0; 10])[l] += 1.0;
                total += 1.0;
            });
            for weights in profiles.values_mut() {
                weights[l] /= total;
            }
        }
        let mut row_of = vec![0; CODES].into_boxed_slice();
        let mut rows = vec![[0.0; 10]];
        for (row, (code, weights)) in (1u16..).zip(profiles) {
            row_of[code] = row;
            rows.push(weights);
        }
        ProfileTable { row_of, rows }
    }

    /// The process-wide table: the seed texts are constants, so every
    /// detector reads the same one.
    fn shared() -> &'static ProfileTable {
        static TABLE: OnceLock<ProfileTable> = OnceLock::new();
        TABLE.get_or_init(ProfileTable::build)
    }
}

/// Trigram-profile language detector.
#[derive(Debug, Clone)]
pub struct LangDetector {
    table: &'static ProfileTable,
}

impl Default for LangDetector {
    fn default() -> LangDetector {
        LangDetector::new()
    }
}

impl LangDetector {
    /// Build the detector from the built-in seed texts.
    pub fn new() -> LangDetector {
        LangDetector {
            table: ProfileTable::shared(),
        }
    }

    /// Similarity of `text` to each language, in [`Lang::ALL`] order: the
    /// dot product of its trigram frequencies with the profile's, summed
    /// in text order so that equal texts give bit-equal scores.
    fn similarity(&self, text: &str) -> [f64; 10] {
        let mut dots = [0.0; 10];
        let mut total = 0.0;
        for_each_trigram(text, |code| {
            total += 1.0;
            let row = self.table.row_of[code];
            for (dot, w) in dots.iter_mut().zip(&self.table.rows[row as usize]) {
                *dot += w;
            }
        });
        if total > 0.0 {
            for dot in &mut dots {
                *dot /= total;
            }
        }
        dots
    }

    /// Cosine-style similarity score of `text` against each language.
    pub fn scores(&self, text: &str) -> Vec<(Lang, f64)> {
        Lang::ALL.into_iter().zip(self.similarity(text)).collect()
    }

    /// The most likely language, or `None` if no trigram matched at all
    /// (e.g. empty or non-alphabetic text).
    pub fn detect(&self, text: &str) -> Option<Lang> {
        let (lang, best) = Lang::ALL
            .into_iter()
            .zip(self.similarity(text))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        (best > 0.0).then_some(lang)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The detector this module had before the dense table, kept as the
    /// oracle: a map of trigram frequencies per call, walked against ten
    /// profile maps.
    fn reference_trigrams(text: &str) -> HashMap<[u8; 3], f64> {
        let normalized: Vec<u8> = text
            .to_lowercase()
            .bytes()
            .map(|b| if b.is_ascii_alphabetic() { b } else { b' ' })
            .collect();
        let mut counts: HashMap<[u8; 3], f64> = HashMap::new();
        let mut total = 0.0;
        for w in normalized.windows(3) {
            let tri = [w[0], w[1], w[2]];
            if tri.iter().all(|&b| b == b' ') {
                continue;
            }
            *counts.entry(tri).or_insert(0.0) += 1.0;
            total += 1.0;
        }
        if total > 0.0 {
            for v in counts.values_mut() {
                *v /= total;
            }
        }
        counts
    }

    struct Reference {
        profiles: Vec<(Lang, HashMap<[u8; 3], f64>)>,
    }

    impl Reference {
        fn new() -> Reference {
            Reference {
                profiles: Lang::ALL
                    .iter()
                    .map(|&l| (l, reference_trigrams(l.seed_text())))
                    .collect(),
            }
        }

        /// Scores in [`Lang::ALL`] order. The sum runs in the map's order,
        /// so the low bits vary from one call to the next.
        fn scores(&self, text: &str) -> Vec<(Lang, f64)> {
            let target = reference_trigrams(text);
            self.profiles
                .iter()
                .map(|(lang, profile)| {
                    let dot = target
                        .iter()
                        .filter_map(|(tri, w)| Some(w * profile.get(tri)?))
                        .sum();
                    (*lang, dot)
                })
                .collect()
        }
    }

    /// `detect(text)` must be the reference's answer, unless the reference
    /// scores the language it names within 1e-12 (relative) of its best.
    fn assert_agrees(det: &LangDetector, reference: &Reference, text: &str) {
        let scores = reference.scores(text);
        for ((lang, new), (_, old)) in det.scores(text).iter().zip(&scores) {
            assert!(
                (new - old).abs() <= 1e-12 * old.abs(),
                "{lang:?} scores {new} vs reference {old} on {text:?}"
            );
        }
        let (best, top) = scores
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ten scores");
        let expected = (top > 0.0).then_some(best);
        let got = det.detect(text);
        if got != expected {
            let near_tie = scores
                .iter()
                .any(|&(lang, score)| Some(lang) == got && top - score <= 1e-12 * top);
            assert!(
                near_tie,
                "detect {got:?}, reference {expected:?} on {text:?}"
            );
        }
    }

    #[test]
    fn detect_agrees_with_the_reference_on_generated_documents() {
        let det = LangDetector::new();
        let reference = Reference::new();
        let (product, topic) = crate::test_corpus::generated();
        assert!(product.len() >= 5_000 && topic.len() >= 5_000);
        let mut languages = std::collections::HashSet::new();
        for text in product.iter().chain(&topic) {
            assert_agrees(&det, &reference, text);
            languages.extend(det.detect(text));
        }
        assert_eq!(languages.len(), 10, "the corpus covers every language");
    }

    #[test]
    fn detect_agrees_with_the_reference_on_hostile_strings() {
        let det = LangDetector::new();
        let reference = Reference::new();
        for text in crate::test_corpus::HOSTILE {
            assert_agrees(&det, &reference, text);
            // The streamed normalization is the reference's, window for
            // window: same trigrams, same counts.
            let mut counts: HashMap<[u8; 3], f64> = HashMap::new();
            for_each_trigram(text, |code| {
                let letter = |symbol: usize| match symbol {
                    0 => b' ',
                    s => b'a' + s as u8 - 1,
                };
                let tri = [
                    letter(code / (SYMBOLS * SYMBOLS)),
                    letter(code / SYMBOLS % SYMBOLS),
                    letter(code % SYMBOLS),
                ];
                *counts.entry(tri).or_insert(0.0) += 1.0;
            });
            let total: f64 = counts.values().sum();
            for v in counts.values_mut() {
                *v /= total;
            }
            assert_eq!(counts, reference_trigrams(text), "trigrams of {text:?}");
        }
    }

    #[test]
    fn separately_built_detectors_score_bit_identically() {
        let shared = LangDetector::new();
        let rebuilt = LangDetector {
            table: Box::leak(Box::new(ProfileTable::build())),
        };
        let (product, topic) = crate::test_corpus::generated();
        let texts = product.iter().chain(&topic).map(String::as_str);
        for text in texts.chain(crate::test_corpus::HOSTILE.iter().copied()) {
            let bits = |det: &LangDetector| -> Vec<u64> {
                det.scores(text).iter().map(|(_, s)| s.to_bits()).collect()
            };
            assert_eq!(bits(&shared), bits(&rebuilt), "scores of {text:?}");
            assert_eq!(bits(&shared), bits(&LangDetector::new()));
        }
    }

    #[test]
    fn detects_each_seed_language() {
        let det = LangDetector::new();
        for lang in Lang::ALL {
            let detected = det.detect(lang.seed_text());
            assert_eq!(detected, Some(lang), "seed text for {:?}", lang);
        }
    }

    #[test]
    fn detects_short_phrases() {
        let det = LangDetector::new();
        assert_eq!(
            det.detect("the people want to know what they have seen"),
            Some(Lang::En)
        );
        assert_eq!(
            det.detect("la gente del pueblo quiere saber sobre el perro"),
            Some(Lang::Es)
        );
    }

    #[test]
    fn empty_or_nonalpha_is_none() {
        let det = LangDetector::new();
        assert_eq!(det.detect(""), None);
        assert_eq!(det.detect("12345 !!! ???"), None);
    }

    #[test]
    fn scores_cover_all_languages() {
        let det = LangDetector::new();
        let scores = det.scores("hello world");
        assert_eq!(scores.len(), 10);
    }
}
