//! The export directory as a format and as outside input.
//!
//! `golden_export` pins the bytes `ServingRegistry::export_to_dir` writes.
//! Its constants were recorded at commit 636b1d4, when export went through
//! a derive-based serializer; export now renders through
//! `drybell_obs::json`, and the hashes hold it to the same bytes, so a
//! directory written on either side loads on the other. Only a deliberate
//! format change re-records them (run the test, copy the `left:` values).
//!
//! The rest hold `load_from_dir` to rejecting what it cannot admit with a
//! typed error. None of them catches a panic: a panic fails the test.

use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry};
use drybell_ml::{FtrlConfig, LogisticRegression, LrAlgorithm, Mlp, MlpConfig, MlpScratch};
use drybell_obs::{fnv1a64, parse_json, Json};
use drybell_serving::{
    score_spec, ExportedModel, ModelSpec, ScoreInput, ServingError, ServingRegistry,
};
use std::path::Path;

type TestResult = Result<(), Box<dyn std::error::Error>>;

/// Score one example with the serving version of `name`: the published
/// spec through the kernel.
fn score(reg: &ServingRegistry, name: &str, input: ScoreInput<'_>) -> Result<f64, ServingError> {
    score_spec(
        reg.epoch_cell(name)?.pin().spec(),
        &input,
        &mut MlpScratch::default(),
    )
}

const MANIFEST: &str = "manifest.json";
const FILES: [&str; 4] = [MANIFEST, "topic-v1.json", "topic-v2.json", "events-v1.json"];

const DIMS: u32 = 64;

fn logreg(cfg: FtrlConfig) -> Result<LogisticRegression, Box<dyn std::error::Error>> {
    let h = FeatureHasher::new(DIMS);
    let data = vec![
        (h.bag_of_words(&["yes", "please"]), 1.0),
        (h.bag_of_words(&["no", "thanks"]), 0.0),
        (h.bag_of_words(&["yes", "thanks"]), 0.8),
    ];
    let mut m = LogisticRegression::new(DIMS as usize, cfg);
    m.fit(&data)?;
    Ok(m)
}

fn mlp() -> Mlp {
    let data: Vec<(Vec<f64>, f64)> = (0..20)
        .map(|i| {
            let x = f64::from(i) / 20.0;
            (vec![x, 1.0 - x, x * x], f64::from(u8::from(x > 0.5)))
        })
        .collect();
    let mut net = Mlp::new(
        3,
        MlpConfig {
            hidden: vec![4, 2],
            iterations: 30,
            lr: 0.05,
            seed: 2,
            ..MlpConfig::default()
        },
    );
    net.fit(&data);
    net
}

/// Two families, two versions of one name, both stages, one seed above
/// `i64::MAX` and both `LrAlgorithm` variants.
fn golden_registry() -> Result<(ServingRegistry, SpaceRegistry), Box<dyn std::error::Error>> {
    let mut spaces = SpaceRegistry::new();
    let text = spaces
        .register(FeatureSpace::servable("hashed-text", 40))
        .ok_or("space taken")?;
    let events = spaces
        .register(FeatureSpace::servable("event-signals", 10))
        .ok_or("space taken")?;
    let reg = ServingRegistry::new(spaces.clone(), 10_000);
    let ftrl = FtrlConfig {
        iterations: 50,
        seed: 7,
        ..FtrlConfig::default()
    };
    let sgd = FtrlConfig {
        iterations: 20,
        seed: u64::MAX,
        algorithm: LrAlgorithm::Sgd,
        ..FtrlConfig::default()
    };
    for (version, cfg) in [(1, ftrl), (2, sgd)] {
        reg.stage(ModelSpec {
            name: "topic".into(),
            version,
            feature_spaces: vec![text],
            model: ExportedModel::LogReg(logreg(cfg)?),
        })?;
    }
    reg.stage(ModelSpec {
        name: "events".into(),
        version: 1,
        feature_spaces: vec![events, text],
        model: ExportedModel::Mlp(mlp()),
    })?;
    reg.promote("topic", 2)?;
    Ok((reg, spaces))
}

#[test]
fn golden_export() -> TestResult {
    let (reg, spaces) = golden_registry()?;
    let dir = tempfile::tempdir()?;
    reg.export_to_dir(dir.path())?;
    let golden: [u64; 4] = [
        0x2a62_f112_a5ee_69b8,
        0x6a86_c7fc_2ff7_63f3,
        0xfc2a_2921_e967_3405,
        0x22a9_bf4f_1916_ff61,
    ];
    for (file, want) in FILES.into_iter().zip(golden) {
        let bytes = std::fs::read(dir.path().join(file))?;
        assert_eq!(fnv1a64(&bytes), want, "{file}");
    }

    // What was written loads back to the same scores, bit for bit.
    let loaded = ServingRegistry::load_from_dir(spaces, 10_000, dir.path())?;
    assert_eq!(loaded.serving_version("topic"), Some(2));
    assert_eq!(loaded.serving_version("events"), None);
    loaded.promote("events", 1)?;
    reg.promote("events", 1)?;
    let h = FeatureHasher::new(DIMS);
    // Both topic versions: the serving v2, then v1 promoted over it.
    for version in [2, 1] {
        reg.promote("topic", version)?;
        loaded.promote("topic", version)?;
        for words in [&["yes"][..], &["no", "thanks"], &["unseen"]] {
            let x = h.bag_of_words(words);
            let a = score(&reg, "topic", ScoreInput::Sparse(&x))?;
            let b = score(&loaded, "topic", ScoreInput::Sparse(&x))?;
            assert_eq!(a.to_bits(), b.to_bits(), "topic v{version}");
        }
    }
    for x in [[0.1, 0.9, 0.01], [0.7, 0.3, 0.49]] {
        let a = score(&reg, "events", ScoreInput::Dense(&x))?;
        let b = score(&loaded, "events", ScoreInput::Dense(&x))?;
        assert_eq!(a.to_bits(), b.to_bits());
    }
    Ok(())
}

/// Export the golden registry into a fresh directory.
fn exported() -> Result<(tempfile::TempDir, SpaceRegistry), Box<dyn std::error::Error>> {
    let (reg, spaces) = golden_registry()?;
    let dir = tempfile::tempdir()?;
    reg.export_to_dir(dir.path())?;
    Ok((dir, spaces))
}

fn load(spaces: &SpaceRegistry, dir: &Path) -> Result<ServingRegistry, ServingError> {
    ServingRegistry::load_from_dir(spaces.clone(), 10_000, dir)
}

/// The value at the dotted `path` inside `v`: object keys, or indices
/// into arrays; the empty path is `v` itself.
fn at<'a>(v: &'a mut Json, path: &str) -> &'a mut Json {
    let keys = path.split('.').filter(|key| !key.is_empty());
    keys.fold(v, |v, key| match v {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
        Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("no {key} in {other}"),
    })
}

/// Parse `file`, replace what is at `path` with `edit`'s result, write it back.
fn rewrite(dir: &Path, file: &str, path: &str, edit: impl FnOnce(&Json) -> Json) -> TestResult {
    let mut doc = parse_json(&std::fs::read_to_string(dir.join(file))?)?;
    let slot = at(&mut doc, path);
    *slot = edit(slot);
    std::fs::write(dir.join(file), doc.to_line())?;
    Ok(())
}

fn shorter(v: &Json) -> Json {
    Json::Arr(v.items().split_last().unwrap().1.to_vec())
}

/// `FtrlConfig::seed`, `MlpConfig::seed` and `Mlp::adam_t` are `u64`; above
/// `i64::MAX` they must stay integers, digit for digit, through a reload.
#[test]
fn u64_fields_above_i64_max_round_trip_exactly() -> TestResult {
    let (first, spaces) = exported()?;
    let big = |_: &Json| Json::from(u64::MAX - 1);
    rewrite(first.path(), "events-v1.json", "model.Mlp.adam_t", big)?;
    rewrite(first.path(), "events-v1.json", "model.Mlp.cfg.seed", big)?;
    let second = tempfile::tempdir()?;
    load(&spaces, first.path())?.export_to_dir(second.path())?;
    for (file, field) in [
        ("events-v1.json", "\"adam_t\":18446744073709551614"),
        ("events-v1.json", "\"seed\":18446744073709551614"),
        ("topic-v2.json", "\"seed\":18446744073709551615"),
    ] {
        let body = std::fs::read_to_string(second.path().join(file))?;
        assert!(body.contains(field), "{file} lost {field}");
        assert_eq!(body, std::fs::read_to_string(first.path().join(file))?);
    }
    Ok(())
}

#[test]
fn load_rejects_models_whose_shapes_disagree() -> TestResult {
    type Edit = fn(&Json) -> Json;
    let (lr, mlp) = ("topic-v1.json", "events-v1.json");
    let cases: [(&str, &str, Edit); 10] = [
        (lr, "model.LogReg.z", shorter),
        (lr, "model.LogReg.n", shorter),
        (lr, "model.LogReg.dims", |_| Json::Int(65)),
        // How a NaN weight is rendered.
        (lr, "model.LogReg.z.3", |_| Json::Null),
        (mlp, "model.Mlp.layers.0.w", shorter),
        (mlp, "model.Mlp.layers.1.b", shorter),
        (mlp, "model.Mlp.layers.2.vw", shorter),
        // Each layer is well-formed but they no longer chain.
        (mlp, "model.Mlp.input_dim", |_| Json::Int(4)),
        (mlp, "model.Mlp.cfg.hidden", shorter),
        (mlp, "model.Mlp.layers", shorter),
    ];
    for (file, path, edit) in cases {
        let (dir, spaces) = exported()?;
        rewrite(dir.path(), file, path, edit)?;
        match load(&spaces, dir.path()) {
            Err(ServingError::BadExport { file: named, .. }) => assert_eq!(named, file),
            other => panic!("{file} {path}: expected BadExport, got {:?}", other.err()),
        }
    }
    Ok(())
}

#[test]
fn load_validates_like_stage() -> TestResult {
    let (dir, spaces) = exported()?;
    // The same files against a registry where the text space cannot be served.
    let mut offline = SpaceRegistry::new();
    offline.register(FeatureSpace::non_servable("hashed-text", 40));
    offline.register(FeatureSpace::servable("event-signals", 10));
    assert!(matches!(
        load(&offline, dir.path()),
        Err(ServingError::NotServable { .. })
    ));
    assert!(matches!(
        ServingRegistry::load_from_dir(spaces.clone(), 45, dir.path()),
        Err(ServingError::OverBudget { cost_us: 50, .. })
    ));
    // An id the registry never issued is an error, not an index panic.
    rewrite(dir.path(), "topic-v2.json", "feature_spaces.0", |_| {
        Json::Int(9)
    })?;
    assert!(matches!(
        load(&spaces, dir.path()),
        Err(ServingError::NotServable { blocking, .. }) if blocking == ["unregistered space #9"]
    ));
    Ok(())
}

#[test]
fn load_rejects_duplicate_and_doubly_serving_rows() -> TestResult {
    let (dir, spaces) = exported()?;
    // Rows are sorted: events v1, topic v1 (staged), topic v2 (serving).
    rewrite(dir.path(), MANIFEST, "1.stage", |_| Json::from("Serving"))?;
    assert!(matches!(
        load(&spaces, dir.path()),
        Err(ServingError::BadExport { file, .. }) if file == MANIFEST
    ));

    let (dir, spaces) = exported()?;
    rewrite(dir.path(), MANIFEST, "", |rows| {
        let mut rows = rows.items().to_vec();
        rows.push(rows[1].clone());
        Json::Arr(rows)
    })?;
    assert!(matches!(
        load(&spaces, dir.path()),
        Err(ServingError::DuplicateVersion { version: 1, .. })
    ));

    // A row that names one model and points at another's file.
    let (dir, spaces) = exported()?;
    rewrite(dir.path(), MANIFEST, "1.file", |_| {
        Json::from("topic-v2.json")
    })?;
    assert!(matches!(
        load(&spaces, dir.path()),
        Err(ServingError::BadExport { file, .. }) if file == "topic-v2.json"
    ));
    Ok(())
}

#[test]
fn load_stays_inside_the_export_directory() -> TestResult {
    let (dir, spaces) = exported()?;
    // A manifest one level down whose rows reach back up to real model files.
    let inner = dir.path().join("inner");
    std::fs::create_dir(&inner)?;
    let absolute = dir.path().join("topic-v1.json");
    for escape in ["../topic-v1.json", absolute.to_str().ok_or("utf-8")?, "."] {
        std::fs::copy(dir.path().join(MANIFEST), inner.join(MANIFEST))?;
        rewrite(&inner, MANIFEST, "1.file", |_| Json::from(escape))?;
        rewrite(&inner, MANIFEST, "", |rows| {
            Json::Arr(vec![rows.items()[1].clone()])
        })?;
        assert!(
            matches!(
                load(&spaces, &inner),
                Err(ServingError::BadExport { ref file, .. }) if file == MANIFEST
            ),
            "{escape}"
        );
    }
    Ok(())
}

/// Every copy of `v` with exactly one object member removed, at any depth.
fn without_one_field(v: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    match v {
        Json::Obj(fields) => {
            for i in 0..fields.len() {
                let mut fewer = fields.clone();
                fewer.remove(i);
                out.push(Json::Obj(fewer));
                for inner in without_one_field(&fields[i].1) {
                    let mut same = fields.clone();
                    same[i].1 = inner;
                    out.push(Json::Obj(same));
                }
            }
        }
        Json::Arr(items) => {
            for i in 0..items.len() {
                for inner in without_one_field(&items[i]) {
                    let mut same = items.clone();
                    same[i] = inner;
                    out.push(Json::Arr(same));
                }
            }
        }
        _ => {}
    }
    out
}

/// Seeded damage to every file of an export (ROADMAP "make the gates
/// real" (d)). A truncated file and a file missing a field never load. A
/// flipped byte can land inside a digit and leave a valid file with another
/// weight, so there the requirement is the one that matters in a worker
/// thread: whatever does load also scores without panicking.
#[test]
fn damaged_exports_are_errors_never_panics() -> TestResult {
    let (dir, spaces) = exported()?;
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let h = FeatureHasher::new(DIMS);
    let score_everything = |reg: &ServingRegistry| {
        for (name, version) in [("topic", 1), ("topic", 2), ("events", 1)] {
            if reg.promote(name, version).is_ok() {
                let x = h.bag_of_words(&["yes", "thanks"]);
                let _ = score(reg, name, ScoreInput::Sparse(&x));
                let _ = score(reg, name, ScoreInput::Dense(&[0.2, 0.8, 0.04]));
            }
        }
    };
    for file in FILES {
        let path = dir.path().join(file);
        let original = std::fs::read(&path)?;
        for cut in (0..original.len()).step_by(97) {
            std::fs::write(&path, &original[..cut])?;
            assert!(load(&spaces, dir.path()).is_err(), "{file} cut at {cut}");
        }
        for _ in 0..300 {
            let mut flipped = original.clone();
            let i = next() % flipped.len();
            flipped[i] ^= 1 << (next() % 8);
            std::fs::write(&path, &flipped)?;
            if let Ok(reg) = load(&spaces, dir.path()) {
                score_everything(&reg);
            }
        }
        let doc = parse_json(std::str::from_utf8(&original)?)?;
        let fewer = without_one_field(&doc);
        assert!(fewer.len() >= 5);
        for (i, damaged) in fewer.iter().enumerate() {
            std::fs::write(&path, damaged.to_line())?;
            assert!(load(&spaces, dir.path()).is_err(), "{file} deletion {i}");
        }
        std::fs::write(&path, &original)?;
    }
    assert!(load(&spaces, dir.path()).is_ok());
    Ok(())
}
