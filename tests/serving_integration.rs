//! Integration tests: training → export → reload → serving parity, and
//! the §4 servability guarantees on a real trained pipeline.

use drybell::features::{FeatureHasher, FeatureSpace, SpaceRegistry};
use drybell::ml::{Mlp, MlpConfig, MlpScratch};
use drybell::serving::{
    score_spec, ExportedModel, ModelSpec, ScoreInput, ServingError, ServingRegistry,
};
use drybell_bench::harness::ContentTask;
use drybell_datagen::topic;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn spaces() -> SpaceRegistry {
    let mut r = SpaceRegistry::new();
    r.register(FeatureSpace::servable("hashed-text", 40))
        .unwrap();
    r.register(FeatureSpace::non_servable("nlp-model-server", 50_000))
        .unwrap();
    r.register(FeatureSpace::private("crawl-reputation", 5))
        .unwrap();
    r
}

#[test]
fn trained_pipeline_exports_and_serves_identically() {
    let mut task = ContentTask::topic(0.005, Some(9), workers());
    task.lr_iterations = 500;
    let report = task.run_full(None);
    let model = report.drybell_lr;

    let spaces = spaces();
    let hashed = spaces.lookup("hashed-text").unwrap();
    let registry = ServingRegistry::new(spaces.clone(), 10_000);
    registry
        .stage(ModelSpec {
            name: "topic".into(),
            version: 1,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(model),
        })
        .unwrap();
    registry.promote("topic", 1).unwrap();

    // The other model family, trained on the same posteriors over two
    // dense features of each document.
    let dense = |doc: &topic::TopicDoc| {
        let x = topic::featurize(doc, &FeatureHasher::new(task.hash_dims));
        vec![x.entries().len() as f64 / 100.0, x.norm_sq().sqrt()]
    };
    let mlp_data: Vec<(Vec<f64>, f64)> = task
        .unlabeled
        .iter()
        .zip(&report.posteriors)
        .take(200)
        .map(|(doc, &p)| (dense(doc), p))
        .collect();
    let mut mlp = Mlp::new(
        2,
        MlpConfig {
            iterations: 100,
            ..MlpConfig::default()
        },
    );
    mlp.fit(&mlp_data);
    registry
        .stage(ModelSpec {
            name: "topic-dense".into(),
            version: 1,
            feature_spaces: vec![hashed],
            model: ExportedModel::Mlp(mlp),
        })
        .unwrap();
    registry.promote("topic-dense", 1).unwrap();

    let dir = tempfile::tempdir().unwrap();
    registry.export_to_dir(dir.path()).unwrap();
    let reloaded = ServingRegistry::load_from_dir(spaces, 10_000, dir.path()).unwrap();
    assert_eq!(reloaded.serving_version("topic"), Some(1));
    assert_eq!(reloaded.serving_version("topic-dense"), Some(1));

    // Score the serving versions as programs do: each registry's
    // published spec through the kernel.
    let serving =
        |reg: &ServingRegistry, name: &str| reg.epoch_cell(name).unwrap().pin().spec().clone();
    let (sparse_a, sparse_b) = (serving(&registry, "topic"), serving(&reloaded, "topic"));
    let (dense_a, dense_b) = (
        serving(&registry, "topic-dense"),
        serving(&reloaded, "topic-dense"),
    );
    let mut scratch = MlpScratch::default();
    let hasher = FeatureHasher::new(task.hash_dims);
    for doc in task.test.iter().take(50) {
        let x = topic::featurize(doc, &hasher);
        let x = ScoreInput::Sparse(&x);
        let a = score_spec(&sparse_a, &x, &mut scratch).unwrap();
        let b = score_spec(&sparse_b, &x, &mut scratch).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "export/reload changed a score");
        let d = dense(doc);
        let a = score_spec(&dense_a, &ScoreInput::Dense(&d), &mut scratch);
        let b = score_spec(&dense_b, &ScoreInput::Dense(&d), &mut scratch);
        assert_eq!(a.unwrap().to_bits(), b.unwrap().to_bits());
    }
}

#[test]
fn non_servable_resources_cannot_reach_production() {
    let mut task = ContentTask::topic(0.003, Some(10), workers());
    task.lr_iterations = 200;
    let model = task.run_full(None).drybell_lr;

    let spaces = spaces();
    let hashed = spaces.lookup("hashed-text").unwrap();
    let nlp = spaces.lookup("nlp-model-server").unwrap();
    let crawl = spaces.lookup("crawl-reputation").unwrap();
    let registry = ServingRegistry::new(spaces, 10_000);

    // Declaring the NLP model server as a serving dependency fails.
    let err = registry
        .stage(ModelSpec {
            name: "cheat".into(),
            version: 1,
            feature_spaces: vec![hashed, nlp],
            model: ExportedModel::LogReg(model.clone()),
        })
        .unwrap_err();
    assert!(matches!(err, ServingError::NotServable { .. }));

    // Private aggregate data is blocked regardless of cost.
    let err = registry
        .stage(ModelSpec {
            name: "cheat".into(),
            version: 1,
            feature_spaces: vec![hashed, crawl],
            model: ExportedModel::LogReg(model.clone()),
        })
        .unwrap_err();
    assert!(matches!(err, ServingError::NotServable { .. }));

    // The cross-feature transfer path works.
    assert!(registry
        .stage(ModelSpec {
            name: "topic".into(),
            version: 1,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(model),
        })
        .is_ok());
}
