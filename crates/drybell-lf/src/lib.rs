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
//! * the three template slots mirror the paper's pipelines —
//!   [`Lf::plain`] (the default `LabelingFunction` pipeline),
//!   [`Lf::nlp`] (the `NLPLabelingFunction` pipeline, whose executor
//!   launches an NLP model server per worker and hands each vote function
//!   the `NlpResult`, exactly like the paper's `GetText`/`GetValue`
//!   template slots), and [`Lf::graph`] / [`Lf::words`] (the document's
//!   [`Words`], split and resolved against the knowledge graph once for
//!   every such LF);
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
use drybell_kg::{EntityId, KnowledgeGraph};
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
    /// Word pipeline: also receives the document's words, each resolved
    /// against the knowledge graph.
    Words(Box<dyn Fn(&X, &Words<'_>) -> Vote + Send + Sync>),
}

impl<X> fmt::Debug for LfKind<X> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LfKind::Plain(_) => "Plain",
            LfKind::Nlp(_) => "Nlp",
            LfKind::Words(_) => "Words",
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

    /// A knowledge-graph labeling function over the document's [`Words`].
    /// Graph lookups are an offline resource, hence non-servable by
    /// default; pass `servable = true` for graphs small enough to ship with
    /// the model (e.g. a keyword translation table baked into the server).
    pub fn graph(
        name: &str,
        servable: bool,
        f: impl Fn(&X, &Words<'_>) -> Vote + Send + Sync + 'static,
    ) -> Lf<X> {
        Lf::words(name, LfCategory::GraphBased, servable, f)
            .with_feature_spaces(&["knowledge-graph"])
    }

    /// A labeling function over the document's [`Words`] in any category
    /// (a keyword rule, say): the executor splits the text once and
    /// resolves each word against the set's graph once for all of them.
    pub fn words(
        name: &str,
        category: LfCategory,
        servable: bool,
        f: impl Fn(&X, &Words<'_>) -> Vote + Send + Sync + 'static,
    ) -> Lf<X> {
        Lf {
            meta: LfMetadata {
                name: name.to_owned(),
                category,
                servable,
                feature_spaces: Vec::new(),
            },
            kind: LfKind::Words(Box::new(f)),
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

    /// `true` if this LF reads the document's [`Words`], which need the
    /// knowledge graph ([`Lf::graph`] and [`Lf::words`]).
    pub fn needs_graph(&self) -> bool {
        matches!(self.kind, LfKind::Words(_))
    }

    /// Compute this LF's vote, or report which feature space is missing:
    /// an NLP LF needs `nlp`, a word LF `nlp` and `kg` — it reads the
    /// annotated text (`nlp.tokens.text()`), resolving each word against
    /// `kg` as it goes.
    pub fn try_vote(
        &self,
        x: &X,
        nlp: Option<&NlpResult>,
        kg: Option<&KnowledgeGraph>,
    ) -> Result<Vote, LfError> {
        let words = nlp.zip(kg).map(|(n, kg)| Words::new(n.tokens.text(), kg));
        self.vote_in(x, nlp, words.as_ref())
    }

    /// The executors' vote: an NLP LF reads `nlp`, a word LF the view the
    /// executor built for the document.
    pub(crate) fn vote_in(
        &self,
        x: &X,
        nlp: Option<&NlpResult>,
        words: Option<&Words<'_>>,
    ) -> Result<Vote, LfError> {
        let missing = |e: fn(String) -> LfError| e(self.meta.name.clone());
        match &self.kind {
            LfKind::Plain(f) => Ok(f(x)),
            LfKind::Nlp(f) => nlp
                .map(|n| f(x, n))
                .ok_or_else(|| missing(LfError::MissingNlp)),
            LfKind::Words(f) => words
                .map(|w| f(x, w))
                .ok_or_else(|| missing(LfError::MissingWords)),
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
    /// A word LF ran without its words: no text, or no knowledge graph.
    MissingWords(String),
}

impl std::fmt::Display for LfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LfError::MissingNlp(name) => write!(f, "LF {name:?} needs an NLP annotation"),
            LfError::MissingWords(name) => write!(f, "LF {name:?} needs a text and a graph"),
        }
    }
}

impl std::error::Error for LfError {}

/// One word of a [`Words`] view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word<'a> {
    /// The word, as `split_whitespace` yields it.
    pub text: &'a str,
    /// Its [`KnowledgeGraph::resolve_alias`]: language and entity.
    pub alias: Option<(&'a str, EntityId)>,
}

/// A document's words (`split_whitespace`), each with its alias in the
/// set's graph, and the graph. The executor splits and resolves each
/// document once, into a buffer its worker keeps, for every word LF of
/// the set; the view [`Lf::try_vote`] builds resolves each word as it is
/// read.
#[derive(Debug, Clone, Copy)]
pub struct Words<'a> {
    text: &'a str,
    kg: &'a KnowledgeGraph,
    resolved: Option<&'a [Resolved<'a>]>,
}

/// A word the executor resolved: its byte span in the text, its alias.
type Resolved<'k> = (usize, usize, Option<(&'k str, EntityId)>);

impl<'a> Words<'a> {
    /// The words of `text`, each resolved against `kg` when it is read.
    fn new(text: &'a str, kg: &'a KnowledgeGraph) -> Words<'a> {
        let resolved = None;
        Words { text, kg, resolved }
    }

    /// Split and resolve `text` once, into `buf`: emptied, and grown only
    /// when a document could hold more words than any before it.
    fn resolve<'k: 'a>(
        text: &'a str,
        kg: &'k KnowledgeGraph,
        buf: &'a mut Vec<Resolved<'k>>,
    ) -> Words<'a> {
        buf.clear();
        buf.reserve(text.len() / 2 + 1);
        buf.extend(text.split_whitespace().map(|w| {
            let start = w.as_ptr().addr() - text.as_ptr().addr();
            (start, start + w.len(), kg.resolve_alias(w))
        }));
        let resolved = Some(&buf[..]);
        Words { text, kg, resolved }
    }

    /// The graph the words resolve against.
    pub fn graph(&self) -> &'a KnowledgeGraph {
        self.kg
    }

    /// The words in text order.
    pub fn iter(&self) -> impl Iterator<Item = Word<'a>> + 'a {
        self.words(false)
    }

    /// The words that name an entity, in text order; the executor's view
    /// skips the others without slicing them out of the text.
    pub fn named(&self) -> impl Iterator<Item = Word<'a>> + 'a {
        self.words(true)
    }

    fn words(&self, named: bool) -> impl Iterator<Item = Word<'a>> + 'a {
        let Words { text, kg, resolved } = *self;
        let mut spans = resolved.map(<[_]>::iter);
        let mut lazy = text.split_whitespace();
        std::iter::from_fn(move || match &mut spans {
            Some(spans) => spans
                .find(|r| !named || r.2.is_some())
                .map(|&(start, end, alias)| {
                    let text = text.get(start..end).unwrap_or_default();
                    Word { text, alias }
                }),
            None => lazy
                .by_ref()
                .map(|text| Word {
                    text,
                    alias: kg.resolve_alias(text),
                })
                .find(|w| !named || w.alias.is_some()),
        })
    }
}

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
    use drybell_kg::commerce::{commerce_graph, LANGS, OTHER_TRANSLATIONS, PHOTO_TRANSLATIONS};

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
            .with(Lf::graph("kg_widget", false, |_d: &Doc, words| {
                if words.iter().any(|w| words.graph().lookup(w.text).is_some()) {
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
    fn a_word_lf_reads_the_annotated_text_and_says_what_it_lacks() {
        let set = sample_set();
        let kg = set.knowledge_graph().unwrap().clone();
        let kw_widget = Lf::words(
            "kw_widget",
            LfCategory::ContentHeuristic,
            true,
            |_, words| match words.iter().filter(|w| w.alias.is_some()).count() {
                0 => Vote::Abstain,
                _ => Vote::Positive,
            },
        );
        let meta = kw_widget.metadata();
        assert_eq!(meta.category, LfCategory::ContentHeuristic);
        assert!(meta.feature_spaces.is_empty() && meta.servable);
        assert!(kw_widget.needs_graph() && !kw_widget.needs_nlp());
        // The words come from the annotation, not from the example.
        let doc = Doc {
            text: "no products here".into(),
        };
        let nlp = drybell_nlp::NlpServer::new().annotate("a WIDGET");
        assert_eq!(
            kw_widget.try_vote(&doc, Some(&nlp), Some(&kg)),
            Ok(Vote::Positive)
        );
        let missing = Err(LfError::MissingWords("kw_widget".into()));
        assert_eq!(kw_widget.try_vote(&doc, None, Some(&kg)), missing);
        assert_eq!(kw_widget.try_vote(&doc, Some(&nlp), None), missing);
    }

    /// Texts whose whitespace, capitals or emptiness a faster splitter
    /// could get wrong, and one alias in each of the ten languages.
    fn hostile_texts() -> Vec<String> {
        let mut texts: Vec<String> = [
            "camera\tlens\ttripod",
            "camera\nlens\r\nflash",
            "camera\x0Blens\x0Cstrap",
            "camera\u{85}lens",
            "camara\u{A0}objektiv",
            "kamera\u{3000}statyw\u{2003}drone",
            "   camera   lens   ",
            "\t\n camera",
            "camera \u{A0}",
            "",
            " ",
            " \t\n\x0B\u{85}\u{A0}\u{3000} ",
            "CAMERA Cámara Camara camara KAMERA",
            "İstanbul'da bir kamera \u{212A}amera",
            "camera\u{200B}lens zero-width is not whitespace",
        ]
        .map(str::to_owned)
        .into();
        let rows = PHOTO_TRANSLATIONS.iter().chain(OTHER_TRANSLATIONS);
        let each_language = rows
            .zip(0..)
            .map(|((_, row), i)| row[i % LANGS.len()])
            .collect::<Vec<_>>();
        texts.push(each_language.join(" "));
        texts
    }

    /// `text.split_whitespace()` zipped with `resolve_alias`: the oracle
    /// both kinds of view are held to.
    fn expected<'a>(text: &'a str, kg: &'a KnowledgeGraph) -> Vec<Word<'a>> {
        text.split_whitespace()
            .map(|w| Word {
                text: w,
                alias: kg.resolve_alias(w),
            })
            .collect()
    }

    #[test]
    fn words_equal_split_whitespace_zipped_with_resolve_alias() {
        let kg = commerce_graph().graph;
        let mut buf = Vec::new();
        let texts = hostile_texts();
        let mut resolved = 0;
        for text in &texts {
            let want = expected(text, &kg);
            let lazy: Vec<Word<'_>> = Words::new(text, &kg).iter().collect();
            assert_eq!(lazy, want, "{text:?}");
            let named: Vec<Word<'_>> = want.iter().copied().filter(|w| w.alias.is_some()).collect();
            assert_eq!(Words::new(text, &kg).named().collect::<Vec<_>>(), named);
            let built = Words::resolve(text, &kg, &mut buf);
            assert_eq!(built.iter().collect::<Vec<_>>(), want, "{text:?}");
            assert_eq!(built.named().collect::<Vec<_>>(), named, "{text:?}");
            assert!(std::ptr::eq(built.graph(), &kg));
            resolved += want.iter().filter(|w| w.alias.is_some()).count();
        }
        // Every language's alias resolves, and so do the capitals.
        let last = texts.last().map(|t| expected(t, &kg)).unwrap();
        let langs: Vec<&str> = last.iter().map(|w| w.alias.unwrap().0).collect();
        assert!(LANGS.iter().all(|l| langs.contains(l)), "{langs:?}");
        assert!(resolved > 25, "{resolved} words resolved");
    }

    #[test]
    fn words_reuse_one_buffer_across_documents() {
        let kg = commerce_graph().graph;
        let mut buf = Vec::new();
        let long = ["camera"; 40].join(" ");
        assert_eq!(Words::resolve(&long, &kg, &mut buf).iter().count(), 40);
        let capacity = buf.capacity();
        let short = Words::resolve("lens  tripod", &kg, &mut buf);
        let texts: Vec<&str> = short.iter().map(|w| w.text).collect();
        assert_eq!(texts, ["lens", "tripod"]);
        assert_eq!(buf.capacity(), capacity);
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
