//! # drybell-lf
//!
//! The labeling-function template library and executor — the Rust analog
//! of Snorkel DryBell's templated C++ classes (§5.1).
//!
//! In the paper, engineers "write only simple main files that define the
//! function(s) that computes the labeling function's vote for an
//! individual example"; the template handles distributed I/O, MapReduce
//! plumbing, and model-server lifecycles. Here the same division of labor
//! holds:
//!
//! * [`Lf`] wraps an engineer-written vote function with metadata (name,
//!   Figure 2 category, servability, feature spaces read);
//! * the three constructors mirror the paper's pipelines —
//!   [`Lf::plain`] (the default `LabelingFunction` pipeline),
//!   [`Lf::nlp`] (the `NLPLabelingFunction` pipeline, whose executor
//!   launches an NLP model server per worker and hands each vote function
//!   the `NlpResult`, exactly like the paper's `GetText`/`GetValue`
//!   template slots), and [`Lf::graph`] (knowledge-graph queries);
//! * [`executor`] runs a whole [`LfSet`] over a corpus — in memory with
//!   worker threads, or shard-to-shard over `drybell-dataflow` — and
//!   produces the label matrix `Λ` for `drybell-core`.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod executor;

use drybell_core::Vote;
use drybell_kg::KnowledgeGraph;
use drybell_nlp::NlpResult;
use std::fmt;
use std::sync::Arc;

/// The coarse buckets of organizational knowledge in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfCategory {
    /// Heuristics about the source of the content/event (URLs, origins,
    /// aggregate source statistics).
    SourceHeuristic,
    /// Heuristics about the content/event itself (keywords, patterns).
    ContentHeuristic,
    /// Predictions of internal models built for related problems (NER,
    /// topic models, smaller classifiers).
    ModelBased,
    /// Knowledge- or entity-graph derived signals.
    GraphBased,
}

impl LfCategory {
    /// All categories in Figure 2's order.
    pub const ALL: [LfCategory; 4] = [
        LfCategory::SourceHeuristic,
        LfCategory::ContentHeuristic,
        LfCategory::ModelBased,
        LfCategory::GraphBased,
    ];
}

impl fmt::Display for LfCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LfCategory::SourceHeuristic => "source heuristic",
            LfCategory::ContentHeuristic => "content heuristic",
            LfCategory::ModelBased => "model-based",
            LfCategory::GraphBased => "graph-based",
        };
        f.write_str(s)
    }
}

/// Metadata attached to every labeling function.
#[derive(Debug, Clone)]
pub struct LfMetadata {
    /// Unique display name.
    pub name: String,
    /// Figure 2 category.
    pub category: LfCategory,
    /// Whether the signals this LF reads are servable in production
    /// (drives the Table 3 ablation). Model-server and crawl-derived LFs
    /// are typically non-servable.
    pub servable: bool,
    /// Names of the feature spaces this LF reads (documentation and
    /// serving diagnostics).
    pub feature_spaces: Vec<String>,
}

/// The engineer-written vote function, in one of the three template
/// flavors of §5.1.
#[expect(
    clippy::type_complexity,
    reason = "boxed callbacks are the template slots"
)]
enum LfKind<X> {
    /// Default pipeline: a pure function of the example.
    Plain(Box<dyn Fn(&X) -> Vote + Send + Sync>),
    /// NLP pipeline: also receives the per-example NLP model-server
    /// output (the paper's `GetValue(x, nlp)`).
    Nlp(Box<dyn Fn(&X, &NlpResult) -> Vote + Send + Sync>),
    /// Graph pipeline: also receives the knowledge graph.
    Graph(Box<dyn Fn(&X, &KnowledgeGraph) -> Vote + Send + Sync>),
}

impl<X> fmt::Debug for LfKind<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LfKind::Plain(_) => "Plain",
            LfKind::Nlp(_) => "Nlp",
            LfKind::Graph(_) => "Graph",
        };
        f.write_str(s)
    }
}

/// One labeling function over examples of type `X`.
#[derive(Debug)]
pub struct Lf<X> {
    meta: LfMetadata,
    kind: LfKind<X>,
}

impl<X> Lf<X> {
    /// A plain labeling function (the default `LabelingFunction` pipeline).
    pub fn plain(
        name: &str,
        category: LfCategory,
        servable: bool,
        f: impl Fn(&X) -> Vote + Send + Sync + 'static,
    ) -> Lf<X> {
        Lf {
            meta: LfMetadata {
                name: name.to_owned(),
                category,
                servable,
                feature_spaces: Vec::new(),
            },
            kind: LfKind::Plain(Box::new(f)),
        }
    }

    /// An NLP labeling function: the executor annotates each example with
    /// the per-worker NLP model server and passes the result to `f`.
    /// Always non-servable — the whole point of §4 is that these models
    /// cannot run in production.
    pub fn nlp(name: &str, f: impl Fn(&X, &NlpResult) -> Vote + Send + Sync + 'static) -> Lf<X> {
        Lf {
            meta: LfMetadata {
                name: name.to_owned(),
                category: LfCategory::ModelBased,
                servable: false,
                feature_spaces: vec!["nlp-model-server".to_owned()],
            },
            kind: LfKind::Nlp(Box::new(f)),
        }
    }

    /// A knowledge-graph labeling function. Graph lookups are an offline
    /// resource, hence non-servable by default; pass `servable = true`
    /// for graphs small enough to ship with the model (e.g. a keyword
    /// translation table baked into the server).
    pub fn graph(
        name: &str,
        servable: bool,
        f: impl Fn(&X, &KnowledgeGraph) -> Vote + Send + Sync + 'static,
    ) -> Lf<X> {
        Lf {
            meta: LfMetadata {
                name: name.to_owned(),
                category: LfCategory::GraphBased,
                servable,
                feature_spaces: vec!["knowledge-graph".to_owned()],
            },
            kind: LfKind::Graph(Box::new(f)),
        }
    }

    /// Attach the feature-space names this LF reads.
    pub fn with_feature_spaces(mut self, spaces: &[&str]) -> Lf<X> {
        self.meta.feature_spaces = spaces.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// This LF's metadata.
    pub fn metadata(&self) -> &LfMetadata {
        &self.meta
    }

    /// `true` if this LF needs the NLP model server.
    pub fn needs_nlp(&self) -> bool {
        matches!(self.kind, LfKind::Nlp(_))
    }

    /// `true` if this LF needs the knowledge graph.
    pub fn needs_graph(&self) -> bool {
        matches!(self.kind, LfKind::Graph(_))
    }

    /// Compute this LF's vote, or report which feature space is missing.
    /// `nlp` must be `Some` for NLP LFs and `kg` must be `Some` for
    /// graph LFs; the executors establish this before calling.
    pub fn try_vote(
        &self,
        x: &X,
        nlp: Option<&NlpResult>,
        kg: Option<&KnowledgeGraph>,
    ) -> Result<Vote, LfError> {
        match &self.kind {
            LfKind::Plain(f) => Ok(f(x)),
            LfKind::Nlp(f) => match nlp {
                Some(nlp) => Ok(f(x, nlp)),
                None => Err(LfError::MissingNlp(self.meta.name.clone())),
            },
            LfKind::Graph(f) => match kg {
                Some(kg) => Ok(f(x, kg)),
                None => Err(LfError::MissingGraph(self.meta.name.clone())),
            },
        }
    }

    /// Compute this LF's vote. Convenience wrapper over [`Lf::try_vote`]
    /// for direct callers who have already matched feature spaces to LF
    /// kinds; panics with the LF's name if they have not.
    #[expect(
        clippy::panic,
        reason = "documented contract of this convenience API; executors use try_vote"
    )]
    pub fn vote(&self, x: &X, nlp: Option<&NlpResult>, kg: Option<&KnowledgeGraph>) -> Vote {
        self.try_vote(x, nlp, kg).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A labeling function was invoked without a feature space its kind
/// requires (§5.1: the template, not the vote function, wires feature
/// spaces to LFs — this error means the wiring was wrong).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfError {
    /// An NLP LF ran without an NLP annotation for the example.
    MissingNlp(String),
    /// A graph LF ran without a knowledge graph.
    MissingGraph(String),
}

impl std::fmt::Display for LfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LfError::MissingNlp(name) => write!(f, "LF {name:?} needs an NLP annotation"),
            LfError::MissingGraph(name) => write!(f, "LF {name:?} needs a knowledge graph"),
        }
    }
}

impl std::error::Error for LfError {}

/// An ordered collection of labeling functions for one application.
#[derive(Debug)]
pub struct LfSet<X> {
    lfs: Vec<Lf<X>>,
    kg: Option<Arc<KnowledgeGraph>>,
}

impl<X> Default for LfSet<X> {
    fn default() -> LfSet<X> {
        LfSet::new()
    }
}

impl<X> LfSet<X> {
    /// An empty set.
    pub fn new() -> LfSet<X> {
        LfSet {
            lfs: Vec::new(),
            kg: None,
        }
    }

    /// Attach the knowledge graph that graph LFs will query.
    pub fn with_knowledge_graph(mut self, kg: Arc<KnowledgeGraph>) -> LfSet<X> {
        self.kg = Some(kg);
        self
    }

    /// Add a labeling function. Panics on duplicate names — LF names key
    /// the diagnostics reports.
    pub fn push(&mut self, lf: Lf<X>) {
        assert!(
            self.lfs.iter().all(|l| l.meta.name != lf.meta.name),
            "duplicate LF name {:?}",
            lf.meta.name
        );
        self.lfs.push(lf);
    }

    /// Builder-style [`LfSet::push`].
    pub fn with(mut self, lf: Lf<X>) -> LfSet<X> {
        self.push(lf);
        self
    }

    /// Number of labeling functions.
    pub fn len(&self) -> usize {
        self.lfs.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lfs.is_empty()
    }

    /// The LFs in order.
    pub fn lfs(&self) -> &[Lf<X>] {
        &self.lfs
    }

    /// The attached knowledge graph, if any.
    pub fn knowledge_graph(&self) -> Option<&Arc<KnowledgeGraph>> {
        self.kg.as_ref()
    }

    /// LF names in column order.
    pub fn names(&self) -> Vec<String> {
        self.lfs.iter().map(|l| l.meta.name.clone()).collect()
    }

    /// Servability mask in column order (for the Table 3 ablation's
    /// `select_columns`).
    pub fn servable_mask(&self) -> Vec<bool> {
        self.lfs.iter().map(|l| l.meta.servable).collect()
    }

    /// `true` if any LF needs the per-worker NLP server.
    pub fn needs_nlp(&self) -> bool {
        self.lfs.iter().any(Lf::needs_nlp)
    }

    /// Figure 2: the distribution of LF categories, counted by number of
    /// labeling functions.
    pub fn category_distribution(&self) -> Vec<(LfCategory, usize)> {
        LfCategory::ALL
            .iter()
            .map(|&c| (c, self.lfs.iter().filter(|l| l.meta.category == c).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doc {
        text: String,
    }

    fn sample_set() -> LfSet<Doc> {
        let kg = {
            let mut g = KnowledgeGraph::new();
            let cat = g
                .add_entity("things", drybell_kg::NodeKind::Category)
                .unwrap();
            let id = g
                .add_entity("widget", drybell_kg::NodeKind::Product)
                .unwrap();
            g.add_edge(id, drybell_kg::EdgeKind::InCategory, cat);
            Arc::new(g)
        };
        LfSet::new()
            .with_knowledge_graph(kg)
            .with(Lf::plain(
                "kw_positive",
                LfCategory::ContentHeuristic,
                true,
                |d: &Doc| {
                    if d.text.contains("good") {
                        Vote::Positive
                    } else {
                        Vote::Abstain
                    }
                },
            ))
            .with(Lf::nlp("no_people_negative", |_d: &Doc, nlp| {
                if nlp.people().is_empty() {
                    Vote::Negative
                } else {
                    Vote::Abstain
                }
            }))
            .with(Lf::graph("kg_widget", false, |d: &Doc, kg| {
                if d.text.split_whitespace().any(|w| kg.lookup(w).is_some()) {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            }))
    }

    #[test]
    fn metadata_and_masks() {
        let set = sample_set();
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.names(),
            vec!["kw_positive", "no_people_negative", "kg_widget"]
        );
        assert_eq!(set.servable_mask(), vec![true, false, false]);
        assert!(set.needs_nlp());
        let dist = set.category_distribution();
        assert_eq!(
            dist,
            vec![
                (LfCategory::SourceHeuristic, 0),
                (LfCategory::ContentHeuristic, 1),
                (LfCategory::ModelBased, 1),
                (LfCategory::GraphBased, 1),
            ]
        );
    }

    #[test]
    fn votes_dispatch_by_kind() {
        let set = sample_set();
        let doc = Doc {
            text: "a good widget".into(),
        };
        let server = drybell_nlp::NlpServer::new();
        let nlp = server.annotate(&doc.text);
        let kg = set.knowledge_graph().unwrap().clone();
        let votes: Vec<Vote> = set
            .lfs()
            .iter()
            .map(|lf| lf.vote(&doc, Some(&nlp), Some(&kg)))
            .collect();
        assert_eq!(votes[0], Vote::Positive); // contains "good"
        assert_eq!(votes[1], Vote::Negative); // no people
        assert_eq!(votes[2], Vote::Positive); // "widget" in KG
    }

    #[test]
    #[should_panic(expected = "duplicate LF name")]
    fn duplicate_names_panic() {
        let mut set: LfSet<Doc> = LfSet::new();
        set.push(Lf::plain(
            "same",
            LfCategory::ContentHeuristic,
            true,
            |_| Vote::Abstain,
        ));
        set.push(Lf::plain(
            "same",
            LfCategory::ContentHeuristic,
            true,
            |_| Vote::Abstain,
        ));
    }

    #[test]
    #[should_panic(expected = "needs an NLP annotation")]
    fn nlp_lf_without_annotation_panics() {
        let lf: Lf<Doc> = Lf::nlp("needs_nlp", |_d, _n| Vote::Abstain);
        let doc = Doc {
            text: String::new(),
        };
        let _ = lf.vote(&doc, None, None);
    }

    #[test]
    fn feature_space_annotation() {
        let lf: Lf<Doc> = Lf::plain("kw", LfCategory::ContentHeuristic, true, |_| Vote::Abstain)
            .with_feature_spaces(&["hashed-unigrams"]);
        assert_eq!(lf.metadata().feature_spaces, vec!["hashed-unigrams"]);
        assert!(!lf.needs_nlp());
        assert!(!lf.needs_graph());
    }
}
