//! The coarse-grained semantic categorizer ("topic model").
//!
//! §3.1 describes an internal topic model whose "semantic categorizations
//! [are] far too coarse-grained for the targeted task at hand, but which
//! nonetheless could be used as effective negative labeling heuristics" —
//! e.g. content categorized as *Sports* is surely not about the commerce
//! topic of interest. This module is that resource: a multinomial naive
//! Bayes classifier over eight coarse topics, trained from seed keyword
//! counts (and re-trainable on any corpus).

use drybell_obs::FnvHashMap;
use std::sync::OnceLock;

/// The coarse semantic categories the organizational topic model knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topic {
    /// Shopping, products, deals.
    Commerce,
    /// Gadgets, software, engineering.
    Technology,
    /// Games, teams, athletics.
    Sports,
    /// Film, music, celebrities.
    Entertainment,
    /// Medicine, fitness, wellbeing.
    Health,
    /// Markets, banking, money.
    Finance,
    /// Destinations, transport, tourism.
    Travel,
    /// Government, elections, policy.
    Politics,
}

impl Topic {
    /// Every topic, in a stable order.
    pub const ALL: [Topic; 8] = [
        Topic::Commerce,
        Topic::Technology,
        Topic::Sports,
        Topic::Entertainment,
        Topic::Health,
        Topic::Finance,
        Topic::Travel,
        Topic::Politics,
    ];

    /// Stable index of this topic in [`Topic::ALL`].
    pub fn index(self) -> usize {
        // `ALL` lists the variants in declaration order, so the
        // discriminant IS the index.
        self as usize
    }

    /// Seed keywords characteristic of this topic. Shared with
    /// `drybell-datagen`, which draws topic-conditional vocabulary from
    /// the same lists.
    pub fn seed_keywords(self) -> &'static [&'static str] {
        match self {
            Topic::Commerce => &[
                "buy", "sale", "price", "discount", "shop", "deal", "order", "shipping", "cart",
                "store", "bargain", "checkout", "retail", "coupon", "purchase",
            ],
            Topic::Technology => &[
                "software",
                "device",
                "chip",
                "startup",
                "code",
                "robot",
                "cloud",
                "server",
                "gadget",
                "compute",
                "network",
                "digital",
                "algorithm",
                "platform",
                "hardware",
            ],
            Topic::Sports => &[
                "game",
                "team",
                "score",
                "league",
                "coach",
                "match",
                "player",
                "season",
                "tournament",
                "goal",
                "championship",
                "stadium",
                "athlete",
                "win",
                "defense",
            ],
            Topic::Entertainment => &[
                "movie",
                "album",
                "celebrity",
                "concert",
                "film",
                "actor",
                "music",
                "show",
                "festival",
                "premiere",
                "singer",
                "drama",
                "comedy",
                "streaming",
                "award",
            ],
            Topic::Health => &[
                "doctor",
                "fitness",
                "diet",
                "clinic",
                "wellness",
                "vaccine",
                "therapy",
                "exercise",
                "nutrition",
                "hospital",
                "symptom",
                "medicine",
                "sleep",
                "recovery",
                "mental",
            ],
            Topic::Finance => &[
                "market",
                "stock",
                "bank",
                "invest",
                "fund",
                "loan",
                "interest",
                "trading",
                "currency",
                "budget",
                "profit",
                "dividend",
                "credit",
                "portfolio",
                "economy",
            ],
            Topic::Travel => &[
                "flight",
                "hotel",
                "tour",
                "beach",
                "passport",
                "luggage",
                "airline",
                "destination",
                "resort",
                "booking",
                "itinerary",
                "cruise",
                "vacation",
                "airport",
                "visa",
            ],
            Topic::Politics => &[
                "election",
                "policy",
                "senate",
                "vote",
                "campaign",
                "governor",
                "parliament",
                "legislation",
                "minister",
                "debate",
                "ballot",
                "congress",
                "reform",
                "treaty",
                "diplomat",
            ],
        }
    }
}

/// Multinomial naive Bayes over [`Topic`]s with Laplace smoothing.
#[derive(Debug, Clone)]
pub struct SemanticCategorizer {
    /// `word → per-topic counts`.
    counts: FnvHashMap<String, [f64; 8]>,
    /// Total token mass per topic.
    totals: [f64; 8],
    /// Laplace smoothing constant.
    smoothing: f64,
    /// `word → ln P(word | topic)` for the counts as they stand: filled by
    /// the first `classify` after an `observe`, which empties it.
    log_probs: OnceLock<FnvHashMap<String, [f64; 8]>>,
}

impl Default for SemanticCategorizer {
    fn default() -> SemanticCategorizer {
        SemanticCategorizer::from_seeds()
    }
}

impl SemanticCategorizer {
    /// An empty, untrained categorizer.
    pub fn new() -> SemanticCategorizer {
        SemanticCategorizer {
            counts: FnvHashMap::default(),
            totals: [0.0; 8],
            smoothing: 0.5,
            log_probs: OnceLock::new(),
        }
    }

    /// The organizational model: trained from the built-in seed keywords
    /// (each seed word counted heavily for its topic).
    pub fn from_seeds() -> SemanticCategorizer {
        let mut model = SemanticCategorizer::new();
        for topic in Topic::ALL {
            for &word in topic.seed_keywords() {
                model.observe(word, topic, 20.0);
            }
        }
        model
    }

    /// Record `weight` occurrences of `word` under `topic`.
    pub fn observe(&mut self, word: &str, topic: Topic, weight: f64) {
        let entry = self.counts.entry(word.to_owned()).or_insert([0.0; 8]);
        entry[topic.index()] += weight;
        self.totals[topic.index()] += weight;
        self.log_probs = OnceLock::new();
    }

    /// Train on a corpus of `(lowercased tokens, topic)` documents,
    /// *adding* to any existing counts.
    pub fn train<S: AsRef<str>>(&mut self, corpus: &[(Vec<S>, Topic)]) {
        for (tokens, topic) in corpus {
            for tok in tokens {
                self.observe(tok.as_ref(), *topic, 1.0);
            }
        }
    }

    /// The smoothed log-likelihood of every vocabulary word under every
    /// topic: eight logarithms a word that depend on the counts alone, so
    /// they are taken once per model and not once per token classified.
    pub(crate) fn log_probs(&self) -> &FnvHashMap<String, [f64; 8]> {
        self.log_probs.get_or_init(|| {
            let vocab = self.counts.len().max(1) as f64;
            let rows = self.counts.iter().map(|(word, counts)| {
                let mut row = [0.0f64; 8];
                for (t, log_p) in row.iter_mut().enumerate() {
                    let p =
                        (counts[t] + self.smoothing) / (self.totals[t] + self.smoothing * vocab);
                    *log_p = p.ln();
                }
                (word.clone(), row)
            });
            rows.collect()
        })
    }

    /// Posterior `P(topic | tokens)` for all topics (uniform prior).
    pub fn classify<S: AsRef<str>>(&self, tokens: &[S]) -> [f64; 8] {
        let log_probs = self.log_probs();
        // Out-of-vocabulary tokens contribute the same smoothed mass to
        // every topic (up to per-topic totals); skipping them keeps the
        // model robust to the long tail, as real coarse categorizers do.
        Self::posterior(tokens.iter().filter_map(|tok| log_probs.get(tok.as_ref())))
    }

    /// The posterior under a uniform prior of a text whose in-vocabulary
    /// tokens have these `ln P(word | topic)` rows, summed in token order.
    pub(crate) fn posterior<'a>(rows: impl Iterator<Item = &'a [f64; 8]>) -> [f64; 8] {
        let mut log_scores = [0.0f64; 8];
        for row in rows {
            for (score, log_p) in log_scores.iter_mut().zip(row) {
                *score += log_p;
            }
        }
        let max = log_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probs = [0.0f64; 8];
        let mut sum = 0.0;
        for (p, &s) in probs.iter_mut().zip(&log_scores) {
            *p = (s - max).exp();
            sum += *p;
        }
        for p in &mut probs {
            *p /= sum;
        }
        probs
    }

    /// The most likely topic and its posterior probability.
    pub fn top_topic<S: AsRef<str>>(&self, tokens: &[S]) -> (Topic, f64) {
        Self::top_of(&self.classify(tokens))
    }

    /// The most likely topic of a posterior [`SemanticCategorizer::classify`]
    /// returned, and its probability.
    pub(crate) fn top_of(probs: &[f64; 8]) -> (Topic, f64) {
        let mut idx = 0;
        for (i, &q) in probs.iter().enumerate().skip(1) {
            if q > probs[idx] {
                idx = i;
            }
        }
        (Topic::ALL[idx], probs[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_model_classifies_seed_vocabulary() {
        let model = SemanticCategorizer::from_seeds();
        let (topic, p) = model.top_topic(&["stock", "market", "invest", "fund"]);
        assert_eq!(topic, Topic::Finance);
        assert!(p > 0.9, "posterior {p}");
        let (topic, _) = model.top_topic(&["movie", "actor", "premiere"]);
        assert_eq!(topic, Topic::Entertainment);
    }

    #[test]
    fn posterior_is_a_distribution() {
        let model = SemanticCategorizer::from_seeds();
        for tokens in [
            vec!["buy", "flight"],
            vec!["unknown", "words", "only"],
            vec![],
        ] {
            let probs = model.classify(&tokens);
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn oov_only_text_is_uniform() {
        let model = SemanticCategorizer::from_seeds();
        let probs = model.classify(&["zzzz", "qqqq"]);
        for &p in &probs {
            assert!((p - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn training_shifts_the_model() {
        let mut model = SemanticCategorizer::new();
        let corpus: Vec<(Vec<&str>, Topic)> = vec![
            (vec!["gizmo", "widget"], Topic::Technology),
            (vec!["gizmo", "cloud"], Topic::Technology),
            (vec!["ballot", "widget"], Topic::Politics),
        ];
        model.train(&corpus);
        assert_eq!(model.counts.len(), 4);
        let (topic, _) = model.top_topic(&["gizmo"]);
        assert_eq!(topic, Topic::Technology);
        let (topic, _) = model.top_topic(&["ballot"]);
        assert_eq!(topic, Topic::Politics);
    }

    /// `classify` with the logarithms taken per token, as the formula is
    /// written: the reference the cached table is held to.
    fn classify_taking_logs_per_token<S: AsRef<str>>(
        model: &SemanticCategorizer,
        tokens: &[S],
    ) -> [f64; 8] {
        let vocab = model.counts.len().max(1) as f64;
        let mut log_scores = [0.0f64; 8];
        for tok in tokens {
            if let Some(counts) = model.counts.get(tok.as_ref()) {
                for (t, score) in log_scores.iter_mut().enumerate() {
                    let p =
                        (counts[t] + model.smoothing) / (model.totals[t] + model.smoothing * vocab);
                    *score += p.ln();
                }
            }
        }
        let max = log_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probs = [0.0f64; 8];
        let mut sum = 0.0;
        for (p, &s) in probs.iter_mut().zip(&log_scores) {
            *p = (s - max).exp();
            sum += *p;
        }
        probs.map(|p| p / sum)
    }

    #[test]
    fn the_cached_log_table_classifies_as_the_formula_does() {
        let (product, topic) = crate::test_corpus::generated();
        let docs: Vec<Vec<String>> = product
            .iter()
            .chain(&topic)
            .map(|text| crate::tokenizer::lower_tokens(text))
            .collect();
        let agree = |model: &SemanticCategorizer| {
            let mut informative = 0;
            for doc in &docs {
                let probs = model.classify(doc);
                assert_eq!(
                    probs.map(f64::to_bits),
                    classify_taking_logs_per_token(model, doc).map(f64::to_bits),
                    "{doc:?}"
                );
                informative += usize::from(probs[0] != probs[1]);
            }
            assert!(informative > docs.len() / 2, "the corpus has signal");
        };
        let mut model = SemanticCategorizer::from_seeds();
        agree(&model);
        // An `observe` after a `classify` must reach the next `classify`:
        // a new word changes every row (the vocabulary grew), a known one
        // its topic's total.
        let before = model.classify(&docs[0]);
        model.observe("zoom", Topic::Technology, 40.0);
        model.observe("price", Topic::Finance, 3.0);
        assert_ne!(model.classify(&docs[0]), before);
        agree(&model);
        agree(&model.clone());
    }

    #[test]
    fn topic_index_roundtrips() {
        for (i, t) in Topic::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn mixed_evidence_prefers_majority() {
        let model = SemanticCategorizer::from_seeds();
        let (topic, _) = model.top_topic(&["game", "team", "score", "price"]);
        assert_eq!(topic, Topic::Sports);
    }
}
