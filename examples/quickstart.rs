//! Quickstart: the whole Snorkel DryBell pipeline in one file.
//!
//! 1. Define labeling functions over your own example type, wrapping
//!    whatever organizational resources you have (here: a keyword rule,
//!    the NLP model server's NER output, and a tiny knowledge graph).
//! 2. Execute them over unlabeled data to get the label matrix `Λ`.
//! 3. Fit the sampling-free generative model — no ground truth involved.
//! 4. Use the posteriors as probabilistic labels to train a servable
//!    logistic regression with the noise-aware loss.
//! 5. Stage the model behind the servability-checking registry.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use drybell::core::{GenerativeModel, LfReport, TrainConfig, Vote};
use drybell::features::{FeatureHasher, FeatureSpace, SpaceRegistry};
use drybell::kg::{EdgeKind, KnowledgeGraph, NodeKind};
use drybell::lf::executor::{execute_in_memory, TextExtractor};
use drybell::lf::{Lf, LfCategory, LfSet};
use drybell::ml::{FtrlConfig, LogisticRegression, MlpScratch};
use drybell::serving::{score_spec, ExportedModel, ModelSpec, ScoreInput, ServingRegistry};
use std::sync::Arc;

/// Your data type — anything `Sync` works.
struct Post {
    text: String,
}

fn main() {
    // -- Some unlabeled posts. A real deployment streams millions from
    // -- shard files; for a readable demo we repeat eight archetypes so
    // -- the label model has enough rows to estimate accuracies from.
    let archetypes = [
        "Alice Johnson spotted with a new camera at the premiere",
        "the quarterly market report shows stock gains",
        "Maria Garcia reveals her favorite lens and tripod",
        "parliament passed the budget legislation today",
        "great deals on tripod and flash bundles this week",
        "the team won the championship game last night",
        "Dr Chen presented new vaccine results at the clinic",
        "Robert Smith stuns fans with surprise concert film",
    ];
    let corpus: Vec<Post> = (0..25)
        .flat_map(|_| archetypes.iter())
        .map(|t| Post {
            text: (*t).to_owned(),
        })
        .collect();

    // -- A miniature organizational knowledge graph. --------------------
    let mut kg = KnowledgeGraph::new();
    let gear = kg.add_entity("camera-gear", NodeKind::Category).unwrap();
    for product in ["camera", "lens", "tripod", "flash"] {
        let id = kg.add_entity(product, NodeKind::Product).unwrap();
        kg.add_edge(id, EdgeKind::InCategory, gear);
    }
    let kg = Arc::new(kg);

    // -- Three labeling functions for "is this post about celebrities?" --
    let lfs: LfSet<Post> = LfSet::new()
        .with_knowledge_graph(kg)
        .with(Lf::plain(
            "kw_gossip",
            LfCategory::ContentHeuristic,
            true,
            |p: &Post| {
                if ["spotted", "stuns", "reveals"]
                    .iter()
                    .any(|w| p.text.contains(w))
                {
                    Vote::Positive
                } else {
                    Vote::Abstain
                }
            },
        ))
        .with(Lf::nlp("nlp_no_person", |_p: &Post, nlp| {
            // §5.1's example: no person entities → not celebrity content.
            if nlp.people().is_empty() {
                Vote::Negative
            } else {
                Vote::Abstain
            }
        }))
        .with(Lf::graph("kg_gear_context", false, |_p: &Post, words| {
            // Bipolar graph heuristic: camera gear next to a proper name
            // is celebrity-with-gear coverage; gear with no names is a
            // product review. (Bipolar LFs anchor the label model — an
            // LF that votes both ways cannot be explained away as
            // always-wrong.) The executor splits each post once and
            // resolves every word against the graph for all such LFs.
            let gear_terms = words.iter().filter(|w| w.alias.is_some()).count();
            let has_name = words
                .iter()
                .any(|w| w.text.chars().next().is_some_and(char::is_uppercase));
            match (gear_terms, has_name) {
                (0, _) => Vote::Abstain,
                (_, true) => Vote::Positive,
                (g, false) if g >= 2 => Vote::Negative,
                _ => Vote::Abstain,
            }
        }));

    // -- Execute LFs with a per-worker NLP model server. -----------------
    let text: TextExtractor<Post> = Arc::new(|p: &Post| p.text.clone());
    let (matrix, stats) = execute_in_memory(&lfs, Some(&text), &corpus, 2).expect("LF execution");
    println!(
        "executed {} LFs over {} posts ({} NLP calls)\n",
        lfs.len(),
        stats.examples,
        stats.nlp_calls
    );

    // -- Fit the sampling-free generative model. -------------------------
    let mut label_model = GenerativeModel::new(lfs.len(), 0.7);
    label_model
        .fit(
            &matrix,
            &TrainConfig {
                steps: 1500,
                batch_size: 32,
                ..TrainConfig::default()
            },
        )
        .expect("label model training");
    let report = LfReport::build(&matrix, &label_model, &lfs.names(), None).expect("report");
    println!("{}", report.to_table());

    // -- Probabilistic training labels. ----------------------------------
    let posteriors = label_model.predict_proba(&matrix);
    for (post, p) in corpus.iter().zip(&posteriors).take(archetypes.len()) {
        println!("  P(celebrity) = {p:.2}  {}", post.text);
    }

    // -- Train a servable model with the noise-aware loss. ---------------
    let hasher = FeatureHasher::new(1 << 14);
    let examples: Vec<_> = corpus
        .iter()
        .zip(&posteriors)
        .map(|(post, &p)| {
            let toks = drybell::nlp::tokenizer::lower_tokens(&post.text);
            (hasher.bag_of_words(&toks), p)
        })
        .collect();
    let mut clf = LogisticRegression::new(
        1 << 14,
        FtrlConfig {
            iterations: 300,
            batch_size: 32,
            ..FtrlConfig::default()
        },
    );
    clf.fit(&examples)
        .expect("quickstart training set is non-empty");

    // -- Stage it for serving (cross-feature transfer: the NLP model and
    // -- knowledge graph never leave the offline world). -----------------
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed-unigrams", 40))
        .unwrap();
    let registry = ServingRegistry::new(spaces, 10_000);
    registry
        .stage(ModelSpec {
            name: "celebrity-topic".into(),
            version: 1,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(clf),
        })
        .expect("servable");
    registry.promote("celebrity-topic", 1).expect("promote");

    let probe = "Nina Patel spotted filming with a drone crew";
    let toks = drybell::nlp::tokenizer::lower_tokens(probe);
    // The serving path: the published spec, scored by the serving kernel.
    let cell = registry.epoch_cell("celebrity-topic").expect("serving");
    let score = score_spec(
        cell.pin().spec(),
        &ScoreInput::Sparse(&hasher.bag_of_words(&toks)),
        &mut MlpScratch::default(),
    )
    .expect("score");
    println!("\nserving model v1 scored {probe:?}: {score:.2}");
}
