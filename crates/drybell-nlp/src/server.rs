//! The per-worker NLP model server.
//!
//! §5.1: "these NLP models are too computationally expensive to run for all
//! content submitted to Google. Snorkel DryBell therefore ... uses Google's
//! MapReduce framework to launch a model server on each compute node."
//!
//! [`NlpServer`] runs the models labeling functions read (tokens, entities,
//! the topic posterior) behind one `annotate` call and, given a registry,
//! counts its calls there. The server itself declares nothing about
//! servability: an application registers its output as a
//! `FeatureSpace::non_servable` space, and `ServingRegistry::validate` in
//! `drybell-serving` refuses to stage any model that reads such a space,
//! which forces the cross-feature transfer the paper describes (§4).
//!
//! Language ID and sentiment are [`NlpResult`] methods that run when
//! called, so a caller that never asks for them never pays for them.

use crate::langid::{Lang, LangDetector};
use crate::ner::{Entity, EntityKind, NerTagger};
use crate::sentiment::SentimentScorer;
use crate::tokenizer::{words, Tokens};
use crate::topic_model::{SemanticCategorizer, Topic};
use drybell_dataflow::FaultPlan;
use drybell_obs::{Counter, Histogram, MetricsRegistry};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A failed annotation call: the model server was unreachable, overloaded,
/// or mid-crash when the RPC arrived.
///
/// In DryBell's deployment the NLP service is a remote dependency that can
/// (and does) fail independently of the pipeline; callers are expected to
/// degrade — labeling functions abstain on the affected example — rather
/// than abort the job (§5.4's pipelines keep running through dependency
/// outages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NlpError {
    /// Human-readable reason the call failed.
    pub reason: String,
}

impl NlpError {
    pub(crate) fn unavailable(reason: impl Into<String>) -> NlpError {
        NlpError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for NlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nlp service unavailable: {}", self.reason)
    }
}

impl std::error::Error for NlpError {}

/// Everything the NLP service knows about one piece of text — the
/// `NLPResult` of the paper's `NLPLabelingFunction` example.
///
/// `annotate` fills the fields; [`NlpResult::language`] and
/// [`NlpResult::sentiment`] run their models over the text on each call.
#[derive(Debug, Clone)]
pub struct NlpResult {
    /// Tokenization with spans.
    pub tokens: Tokens,
    /// All entity mentions.
    pub entities: Vec<Entity>,
    /// Coarse topic posterior over [`Topic::ALL`].
    pub topic_probs: [f64; 8],
    /// Most likely coarse topic.
    pub top_topic: Topic,
}

impl NlpResult {
    /// Entity mentions of a given kind (e.g. `people` in the §5.1 code
    /// sample).
    pub fn entities_of(&self, kind: EntityKind) -> impl Iterator<Item = &Entity> {
        self.entities.iter().filter(move |e| e.kind == kind)
    }

    /// Convenience: the person mentions.
    pub fn people(&self) -> Vec<&Entity> {
        self.entities_of(EntityKind::Person).collect()
    }

    /// Detected language, if any: [`LangDetector::detect`] over the text,
    /// run on each call.
    pub fn language(&self) -> Option<Lang> {
        LangDetector::new().detect(self.tokens.text())
    }

    /// Lexicon sentiment in `[-1, 1]`: [`SentimentScorer::score`] over the
    /// text, run on each call.
    pub fn sentiment(&self) -> f64 {
        SentimentScorer::new().score(self.tokens.text())
    }
}

/// Live telemetry hooks for one server (see [`NlpServer::with_metrics`]).
#[derive(Debug, Clone)]
struct ServerTelemetry {
    /// `nlp_calls` counter — every `annotate` call.
    calls: Arc<Counter>,
    /// `obs/nlp/annotate_us` — real wall-clock latency of each call.
    annotate_us: Arc<Histogram>,
}

/// The bundled NLP model server.
#[derive(Debug, Clone)]
pub struct NlpServer {
    ner: NerTagger,
    telemetry: Option<ServerTelemetry>,
    faults: Option<FaultPlan>,
}

impl Default for NlpServer {
    fn default() -> NlpServer {
        NlpServer::new()
    }
}

impl NlpServer {
    /// Build a server with all default models.
    pub fn new() -> NlpServer {
        NlpServer {
            ner: NerTagger::new(),
            telemetry: None,
            faults: None,
        }
    }

    /// Attach live metrics: every `annotate` call bumps the `nlp_calls`
    /// counter and records its real wall-clock latency into the
    /// `obs/nlp/annotate_us` histogram of `metrics`. Clones share the
    /// same instruments, so one registry sees the whole worker fleet.
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> NlpServer {
        self.telemetry = Some(ServerTelemetry {
            calls: metrics.counter("nlp_calls"),
            annotate_us: metrics.histogram("obs/nlp/annotate_us"),
        });
        self
    }

    /// Attach a deterministic fault-injection plan: [`NlpServer::try_annotate`]
    /// fails according to the plan's NLP schedule. Chaos tests
    /// only; the infallible [`NlpServer::annotate`] ignores the plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> NlpServer {
        self.faults = Some(plan);
        self
    }

    /// Tokenize, tag entities and classify the topic of `text`: one
    /// tokenization and one lexicon probe a word, shared by NER and the seed
    /// topic model. Language ID and sentiment wait for their
    /// [`NlpResult`] methods.
    pub fn annotate(&self, text: &str) -> NlpResult {
        let started = self.telemetry.as_ref().map(|_| Instant::now());
        let words = words(text);
        // The seed categorizer's `classify`, its rows read from the lexicon.
        let rows = words.iter().filter_map(|w| w.entry?.topic.as_ref());
        let topic_probs = SemanticCategorizer::posterior(rows);
        let result = NlpResult {
            tokens: Tokens::new(text, &words),
            entities: self.ner.tag_words(&words),
            topic_probs,
            top_topic: SemanticCategorizer::top_of(&topic_probs).0,
        };
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.calls.inc();
            t.annotate_us.record_duration(started.elapsed());
        }
        result
    }

    /// [`NlpServer::annotate`] `text`, surfacing service failures.
    ///
    /// This is the call sites should prefer when they can degrade: an
    /// `Err` means the service (as simulated by the attached
    /// [`FaultPlan`]) dropped the request, and no annotation work happens.
    /// Without a fault plan this never fails.
    pub fn try_annotate(&self, text: &str) -> Result<NlpResult, NlpError> {
        if let Some(plan) = &self.faults {
            if plan.nlp_should_fail(text) {
                return Err(NlpError::unavailable(
                    "injected fault: annotate RPC dropped",
                ));
            }
        }
        Ok(self.annotate(text))
    }
}

impl drybell_dataflow::Service for NlpServer {
    fn name(&self) -> &str {
        "nlp-model-server"
    }

    fn warm_up(&mut self) -> Result<(), drybell_dataflow::DataflowError> {
        // Exercise every model `annotate` runs once so first-call latency
        // is paid at worker startup, as a real model server would load
        // weights here.
        let _ = self.annotate("warm up Alice Johnson buys a camera");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ner::oracle as ner_oracle;
    use crate::sentiment::oracle as sentiment_oracle;
    use crate::tokenizer::{lower_tokens, tokenize};
    use drybell_dataflow::Service;

    #[test]
    fn annotate_runs_every_model() {
        let server = NlpServer::new();
        let r = server.annotate(
            "Alice Johnson loves her great new camera and wants to show the people of the town what she has seen",
        );
        assert!(!r.tokens.is_empty());
        assert!(!r.people().is_empty());
        assert!(r
            .entities_of(EntityKind::Product)
            .any(|e| e.text == "camera"));
        assert_eq!(r.language(), Some(Lang::En));
        assert!(r.sentiment() > 0.0);
        let sum: f64 = r.topic_probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// `annotate` shares one tokenization and one lexicon probe a word
    /// between the models; the standalone public models each do their own.
    /// Same answers, entity for entity and bit for bit, and the same as the
    /// gazetteer sets and valence map the lexicon replaced.
    #[test]
    fn annotate_equals_the_standalone_models_composed() {
        let server = NlpServer::new();
        let ner = NerTagger::new();
        let topics = SemanticCategorizer::from_seeds();
        let langid = LangDetector::new();
        let sentiment = SentimentScorer::new();
        let (product, topic) = crate::test_corpus::generated();
        let generated = product.iter().chain(&topic).map(String::as_str);
        let written = [
            "Mr Smith of Figment Inc met Alice Johnson, Robert and Kim in Springfield",
            "not great, NEVER bad: a Terrible Tripod and I don't love the charger",
            "stock market fund vs. movie premiere and a cheap flight",
            "Figment inc, Hooli CO and ACME, dr Chen, MR. LEE, MARIA garcia met kim KIM",
        ];
        let hostile = crate::test_corpus::HOSTILE.iter().copied();
        let (mut entities, mut sentiments) = (0, 0);
        for text in generated.chain(written).chain(hostile) {
            let r = server.annotate(text);
            assert_eq!(r.tokens.text(), text);
            assert_eq!(r.tokens.to_vec(), tokenize(text), "tokens of {text:?}");
            assert_eq!(r.tokens.len(), r.tokens.iter().count());
            assert_eq!(r.entities, ner.tag(text), "entities of {text:?}");
            assert_eq!(r.entities, ner_oracle::tag(text), "entities of {text:?}");
            let lower = lower_tokens(text);
            let (top, _) = topics.top_topic(&lower);
            assert_eq!(
                r.topic_probs.map(f64::to_bits),
                topics.classify(&lower).map(f64::to_bits),
                "topic posterior of {text:?}"
            );
            assert_eq!(r.top_topic, top, "top topic of {text:?}");
            assert_eq!(r.language(), langid.detect(text), "language of {text:?}");
            assert_eq!(
                r.sentiment().to_bits(),
                sentiment.score(text).to_bits(),
                "sentiment of {text:?}"
            );
            assert_eq!(
                r.sentiment().to_bits(),
                sentiment_oracle::score(text).to_bits(),
                "sentiment of {text:?}"
            );
            entities += r.entities.len();
            sentiments += usize::from(r.sentiment() != 0.0);
        }
        assert!(entities > 1_000 && sentiments > 0, "the corpus has signal");
    }

    #[test]
    fn warm_up_succeeds_and_names_the_service() {
        let mut server = NlpServer::new();
        server.warm_up().unwrap();
        assert_eq!(server.name(), "nlp-model-server");
    }

    #[test]
    fn clones_share_stats() {
        let metrics = MetricsRegistry::new();
        let server = NlpServer::new().with_metrics(&metrics);
        let clone = server.clone();
        clone.annotate("text");
        assert_eq!(metrics.snapshot().counter("nlp_calls"), 1);
    }

    #[test]
    fn with_metrics_records_calls_and_latency() {
        let metrics = MetricsRegistry::new();
        let server = NlpServer::new().with_metrics(&metrics);
        server.annotate("Alice Johnson buys a camera");
        server.clone().annotate("a clone shares the instruments");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("nlp_calls"), 2);
        let hist = snap.histogram("obs/nlp/annotate_us").expect("histogram");
        assert_eq!(hist.count(), 2);
        assert!(hist.max() >= hist.min());
    }

    #[test]
    fn try_annotate_without_plan_never_fails() {
        let server = NlpServer::new();
        let r = server.try_annotate("Alice Johnson buys a camera").unwrap();
        assert!(!r.tokens.is_empty());
    }

    #[test]
    fn try_annotate_honors_fault_plan_deterministically() {
        let plan = FaultPlan::seeded(17).fail_nlp_text("poisoned text");
        let server = NlpServer::new().with_fault_plan(plan);
        assert!(server.try_annotate("poisoned text").is_err());
        assert!(server.try_annotate("poisoned text").is_err());
        assert!(server.try_annotate("healthy text").is_ok());
    }

    #[test]
    fn try_annotate_rate_faults_hash_the_text() {
        let plan = FaultPlan::seeded(23).with_nlp_error_rate(0.5);
        let server = NlpServer::new().with_fault_plan(plan);
        let verdicts: Vec<bool> = (0..20)
            .map(|i| server.try_annotate(&format!("text {i}")).is_ok())
            .collect();
        let again: Vec<bool> = (0..20)
            .map(|i| server.try_annotate(&format!("text {i}")).is_ok())
            .collect();
        assert_eq!(verdicts, again, "per-text verdicts must be stable");
        assert!(verdicts.iter().any(|v| *v));
        assert!(verdicts.iter().any(|v| !*v));
    }

    #[test]
    fn without_metrics_no_instruments_exist() {
        let metrics = MetricsRegistry::new();
        let server = NlpServer::new();
        server.annotate("text");
        assert!(metrics.snapshot().counters.is_empty());
    }
}
