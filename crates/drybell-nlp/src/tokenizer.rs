//! Word tokenization with source spans.
//!
//! Splits on whitespace and punctuation while keeping byte spans so that
//! downstream annotators (NER, sentiment) can refer back to the original
//! text. Intentionally simple — the paper's pipelines treat tokenization
//! as a solved component of the NLP service.

use crate::lexicon::{self, Entry};
use std::borrow::Cow;

/// One token with its span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text as it appeared.
    pub text: String,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    fn new(text: &str, start: usize) -> Token {
        Token {
            text: text.to_owned(),
            start,
            end: start + text.len(),
        }
    }

    /// Lowercased token text.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// `true` if the first character is uppercase (read by the NER oracle).
    #[cfg(test)]
    pub(crate) fn is_capitalized(&self) -> bool {
        is_capitalized(&self.text)
    }
}

fn is_capitalized(word: &str) -> bool {
    word.chars().next().is_some_and(|c| c.is_uppercase())
}

/// The character starting at byte `i` and its UTF-8 length, decoding only
/// when the byte is not ASCII.
fn char_at(text: &str, i: usize) -> Option<(char, usize)> {
    let b = *text.as_bytes().get(i)?;
    if b.is_ascii() {
        return Some((b as char, 1));
    }
    let c = text[i..].chars().next()?;
    Some((c, c.len_utf8()))
}

/// The tokens of a text as `(start, slice)`, in order: the one scanner
/// behind [`tokenize`], [`lower_words`] and the model server.
struct Spans<'a> {
    text: &'a str,
    pos: usize,
}

fn spans(text: &str) -> Spans<'_> {
    Spans { text, pos: 0 }
}

impl<'a> Iterator for Spans<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        loop {
            let (c, len) = char_at(self.text, self.pos)?;
            if c.is_alphanumeric() {
                break;
            }
            self.pos += len;
        }
        let start = self.pos;
        while let Some((c, len)) = char_at(self.text, self.pos) {
            let keep = c.is_alphanumeric()
                || ((c == '-' || c == '\'')
                    && char_at(self.text, self.pos + 1).is_some_and(|(n, _)| n.is_alphanumeric()));
            if !keep {
                break;
            }
            self.pos += len;
        }
        Some((start, &self.text[start..self.pos]))
    }
}

/// One token as the models read it: the source slice, where it starts, and
/// its entry in the lexicon, looked up once for every model to read.
pub(crate) struct Word<'a> {
    pub text: &'a str,
    pub start: usize,
    pub entry: Option<&'static Entry>,
}

impl Word<'_> {
    pub fn end(&self) -> usize {
        self.start + self.text.len()
    }

    pub(crate) fn is_capitalized(&self) -> bool {
        is_capitalized(self.text)
    }

    /// `true` if the word's lexicon entry carries `flag`.
    pub fn is(&self, flag: u16) -> bool {
        self.entry.is_some_and(|e| e.flags & flag != 0)
    }
}

/// The most tokens `text` can hold: a token and the separator after it
/// take two bytes at least. A list given this capacity up front is
/// allocated once and never grows.
pub fn max_tokens(text: &str) -> usize {
    text.len() / 2 + 1
}

/// Tokenize `text` and look each word up once, for every model to share.
pub(crate) fn words(text: &str) -> Vec<Word<'_>> {
    let mut words = Vec::with_capacity(max_tokens(text));
    words.extend(spans(text).map(|(start, text)| Word {
        text,
        start,
        entry: lexicon::lookup(text),
    }));
    words
}

/// The tokenization [`crate::NlpServer::annotate`] returns: one copy of
/// the text and the tokens' byte spans in it, where a `Vec<Token>` holds
/// a `String` per token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokens {
    text: Box<str>,
    /// `(start, end)` byte offsets into `text`, in order.
    spans: Vec<(usize, usize)>,
}

impl Tokens {
    pub(crate) fn new(text: &str, words: &[Word<'_>]) -> Tokens {
        Tokens {
            text: text.into(),
            spans: words.iter().map(|w| (w.start, w.end())).collect(),
        }
    }

    /// The text that was tokenized.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if the text held no token.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The tokens as `(start, slice)`: where each begins in the text, and
    /// its characters as they appeared.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.spans
            .iter()
            .map(|&(start, end)| (start, &self.text[start..end]))
    }

    /// The tokens as owned [`Token`]s: what [`tokenize`] returns for the
    /// text.
    pub fn to_vec(&self) -> Vec<Token> {
        self.iter()
            .map(|(start, word)| Token::new(word, start))
            .collect()
    }
}

/// Tokenize `text` into alphanumeric runs (plus internal hyphens and
/// apostrophes, so "state-of-the-art" and "don't" stay single tokens).
pub fn tokenize(text: &str) -> Vec<Token> {
    spans(text)
        .map(|(start, word)| Token::new(word, start))
        .collect()
}

/// The lower-cased tokens of `text`, one at a time: each borrows from the
/// text unless it holds a capital or a non-ASCII character.
pub fn lower_words(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    spans(text).map(|(_, word)| {
        if !word.is_ascii() {
            Cow::Owned(word.to_lowercase())
        } else if word.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(word.to_ascii_lowercase())
        } else {
            Cow::Borrowed(word)
        }
    })
}

/// Lowercased token strings (a common convenience for featurizers).
pub fn lower_tokens(text: &str) -> Vec<String> {
    lower_words(text).map(Cow::into_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn splits_on_whitespace_and_punct() {
        let toks = tokenize("Hello, world! 42 times.");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["Hello", "world", "42", "times"]);
    }

    #[test]
    fn keeps_internal_hyphens_and_apostrophes() {
        let texts: Vec<String> = tokenize("state-of-the-art don't -start end-")
            .into_iter()
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["state-of-the-art", "don't", "start", "end"]);
    }

    #[test]
    fn spans_slice_back_to_source() {
        let text = "Ärger über große Häuser";
        for t in tokenize(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn classification_helpers() {
        let toks = tokenize("NASA Alice runs 500 miles");
        assert!(toks[0].is_capitalized());
        assert!(toks[1].is_capitalized());
        assert!(!toks[4].is_capitalized());
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ---").is_empty());
    }

    /// The scanner this module had before [`Spans`]: collect every
    /// `(offset, char)`, then walk the vector.
    fn reference_spans(text: &str) -> Vec<(usize, usize)> {
        let chars = text.char_indices().collect::<Vec<_>>();
        let offset = |k: usize| chars.get(k).map_or(text.len(), |&(at, _)| at);
        let mut found = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if !chars[i].1.is_alphanumeric() {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < chars.len()
                && (chars[j].1.is_alphanumeric()
                    || ((chars[j].1 == '-' || chars[j].1 == '\'')
                        && chars.get(j + 1).is_some_and(|c| c.1.is_alphanumeric())))
            {
                j += 1;
            }
            found.push((offset(i), offset(j)));
            i = j;
        }
        found
    }

    fn assert_matches_reference(text: &str) {
        let expected = reference_spans(text);
        let found: Vec<_> = spans(text).map(|(at, w)| (at, at + w.len())).collect();
        assert_eq!(found, expected, "{text:?}");
        let lowered: Vec<String> = expected
            .iter()
            .map(|&(start, end)| text[start..end].to_lowercase())
            .collect();
        assert_eq!(lower_tokens(text), lowered, "{text:?}");
        assert!(lower_words(text).eq(lowered.iter().map(String::as_str)));
        let words = words(text);
        assert_eq!(words.len(), expected.len());
        assert!(words.len() <= max_tokens(text));
        for ((word, &(start, end)), low) in words.iter().zip(&expected).zip(&lowered) {
            assert_eq!(
                (word.start, word.end(), word.text),
                (start, end, &text[start..end])
            );
            let (found, expected) = (word.entry, lexicon::exact(low));
            assert!(
                found.map(std::ptr::from_ref) == expected.map(std::ptr::from_ref),
                "the entry of {low:?}"
            );
        }
    }

    #[test]
    fn scanner_matches_the_reference_on_documents_and_hostile_strings() {
        let (product, topic) = crate::test_corpus::generated();
        let generated = product.iter().chain(&topic).map(String::as_str);
        for text in generated.chain(crate::test_corpus::HOSTILE.iter().copied()) {
            assert_matches_reference(text);
        }
    }

    /// A string of at most `max` characters drawn the way a `.` pattern
    /// is: mostly printable ASCII, with control and multi-byte characters
    /// mixed in.
    fn any_text(rng: &mut StdRng, max: usize) -> String {
        const WIDE: [char; 8] = ['é', 'ß', 'Ω', '雪', 'д', '☃', '😀', char::MAX];
        let len = rng.gen_range(0..=max);
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 | 2 => WIDE[rng.gen_range(0..WIDE.len())],
                _ => char::from(rng.gen_range(0x20..0x7Fu8)),
            })
            .collect()
    }

    #[test]
    fn prop_scanner_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_matches_reference(&any_text(&mut rng, 200));
        }
    }

    #[test]
    fn prop_scanner_matches_the_reference_on_wordy_text() {
        // Word characters, the apostrophe and hyphen a word may hold, and
        // letters whose case mapping changes their length or is not 1:1
        // (`İ`, `ß`, final sigma, the Kelvin sign): each class as likely
        // as the others.
        const CLASSES: [&str; 12] = [
            "abcdefghijklmnopqrstuvwxyz",
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
            "0123456789",
            "İ",
            "ß",
            "Σ",
            "σ",
            "\u{212A}",
            "é",
            "'",
            " ",
            "-",
        ];
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let text: String = (0..rng.gen_range(0..=60))
                .map(|_| {
                    let class: Vec<char> =
                        CLASSES[rng.gen_range(0..CLASSES.len())].chars().collect();
                    class[rng.gen_range(0..class.len())]
                })
                .collect();
            assert_matches_reference(&text);
        }
    }

    #[test]
    fn prop_spans_always_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let text = any_text(&mut rng, 200);
            for t in tokenize(&text) {
                assert!(t.start < t.end);
                assert!(t.end <= text.len());
                assert_eq!(&text[t.start..t.end], t.text.as_str());
                assert!(!t.text.is_empty());
            }
        }
    }

    #[test]
    fn prop_tokens_are_ordered_and_disjoint() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..64 {
            let text = any_text(&mut rng, 200);
            for pair in tokenize(&text).windows(2) {
                assert!(pair[0].end <= pair[1].start);
            }
        }
    }
}
