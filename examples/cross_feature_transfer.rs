//! Cross-feature model serving (§4): transfer knowledge from
//! non-servable resources into a servable model, with the serving layer
//! *enforcing* the boundary.
//!
//! The example tries to stage two models for the topic task:
//!
//! * a "cheating" model whose spec declares it reads the NLP model server
//!   and the crawl table directly — rejected by the registry;
//! * the DryBell model, trained on labels *derived from* those resources
//!   but reading only hashed text features — accepted, promoted, served.
//!
//! ```bash
//! cargo run --release --example cross_feature_transfer
//! ```

use drybell::features::{FeatureHasher, FeatureSpace, SpaceRegistry};
use drybell::serving::{ExportedModel, ModelSpec, ScoreInput, ServingRegistry};
use drybell_bench::harness::ContentTask;
use drybell_datagen::topic;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let task = ContentTask::topic(0.01, None, workers);

    // Declare the application's feature spaces with their real costs.
    let mut spaces = SpaceRegistry::new();
    let hashed = spaces
        .register(FeatureSpace::servable("hashed-text", 40))
        .unwrap();
    let nlp = spaces
        .register(FeatureSpace::non_servable(
            "nlp-model-server",
            drybell::nlp::NlpServer::DEFAULT_COST_US,
        ))
        .unwrap();
    let crawl = spaces
        .register(FeatureSpace::private("crawl-reputation", 5))
        .unwrap();
    // Production budget: 10ms per example.
    let registry = ServingRegistry::new(spaces, 10_000);

    println!("training DryBell model (labels derived from NLP + crawl resources)...");
    let model = task.run_full(None).drybell_lr;

    // Attempt 1: a spec that wants the non-servable resources at serving
    // time. The registry refuses — this is §4's constraint made physical.
    let cheating = ModelSpec {
        name: "topic".into(),
        version: 1,
        feature_spaces: vec![hashed, nlp, crawl],
        model: ExportedModel::LogReg(model.clone()),
    };
    match registry.stage(cheating) {
        Err(e) => println!("\nstaging the non-servable spec failed as it must:\n  {e}"),
        Ok(()) => unreachable!("the registry must reject non-servable specs"),
    }

    // Attempt 2: the same trained weights, served over servable features
    // only. The knowledge of the NLP models and crawl table now lives in
    // the weights — that is the cross-feature transfer.
    registry
        .stage(ModelSpec {
            name: "topic".into(),
            version: 2,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(model),
        })
        .expect("servable spec stages fine");
    registry.promote("topic", 2).expect("promote");
    println!("\nstaged + promoted v2 over servable features only");

    // Score a few test docs through the serving path.
    let hasher = FeatureHasher::new(task.hash_dims);
    println!("\nserving-path scores on test documents:");
    for doc in task.test.iter().take(5) {
        let x = topic::featurize(doc, &hasher);
        let p = registry
            .score("topic", ScoreInput::Sparse(&x))
            .expect("score");
        println!("  {p:.3}  {}", doc.title);
    }
    println!(
        "\nserving latency budget: {}us; hashed-text cost: 40us per example",
        registry.budget_us()
    );
}
