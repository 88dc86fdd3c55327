//! Integration test: a pipeline run writes a structured JSONL run
//! journal to disk, and the file is valid — every line parses, sequence
//! numbers are dense, and the per-phase accounting of the sharded LF
//! job and the label-model fit is all present, and its span set holds
//! the run, map-phase, shard-attempt, LF-pass and fit timings.

use drybell::core::generative::{GenerativeModel, TrainConfig};
use drybell::dataflow::{write_all, JobConfig, ShardSpec};
use drybell::lf::executor::{execute_sharded_observed, ExecOptions};
use drybell::obs::{naming, parse_json, Json, RunJournal, Telemetry};
use drybell_datagen::topic::{self, TopicTaskConfig};

#[test]
fn pipeline_run_writes_a_valid_jsonl_journal() {
    let cfg = TopicTaskConfig {
        num_unlabeled: 800,
        num_dev: 10,
        num_test: 10,
        pos_rate: 0.05,
        seed: 17,
    };
    let ds = topic::generate(&cfg);
    let set = topic::lf_set(ds.crawl_table.clone());
    let ext = topic::text_extractor();

    let dir = tempfile::tempdir().unwrap();
    let journal_path = dir.path().join("run.jsonl");
    let telemetry = Telemetry::with_journal(RunJournal::to_path(&journal_path).unwrap());

    // Stage 0: the run header — schema version, run id, and config
    // fingerprint — so cross-run tooling can pair comparable journals.
    let fingerprint = drybell::obs::config_fingerprint(["topic", "seed=17", "scale=test"]);
    telemetry
        .journal()
        .unwrap()
        .emit_header("journal-test", &fingerprint);

    // The whole run's span: both stages happen inside it.
    let run = telemetry.span("run");

    // Stage 1: sharded LF execution, instrumented.
    let input = ShardSpec::new(dir.path(), "docs", 4);
    write_all(&input, &ds.unlabeled).unwrap();
    let output = input.derive("votes");
    let job = JobConfig::new("topic-lfs").with_workers(2);
    let opts = ExecOptions::new().with_telemetry(telemetry.clone());
    let (matrix, stats) =
        execute_sharded_observed(&set, Some(&ext), &input, &output, &job, |d| d.id, &opts).unwrap();
    assert_eq!(stats.records_in, 800);

    // Stage 2: label-model training, instrumented.
    let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    model
        .fit_observed(
            &matrix,
            &TrainConfig {
                steps: 300,
                batch_size: 64,
                seed: cfg.seed,
                ..TrainConfig::default()
            },
            Some(&telemetry),
        )
        .unwrap();
    drop(run);

    telemetry.journal().unwrap().flush().unwrap();

    // The journal is on disk as JSONL: every non-empty line parses on its
    // own with the crate's own parser.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let events: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).unwrap())
        .collect();
    assert!(
        events.len() >= 5,
        "expected a full journal, got {}",
        events.len()
    );

    // Dense monotonic sequence numbers and non-negative timestamps: the
    // lines order even when emitted from many threads.
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.get("seq").and_then(|v| v.as_i64()), Some(i as i64));
        assert!(e.get("t").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        assert!(e.get("kind").and_then(|v| v.as_str()).is_some());
    }

    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("kind").and_then(|k| k.as_str()).unwrap())
        .collect();

    // The header is the first event and carries the run's identity.
    let header = &events[0];
    assert_eq!(
        header.get("kind").and_then(|k| k.as_str()),
        Some("run_header")
    );
    assert_eq!(
        header.get("schema_version").and_then(|v| v.as_i64()),
        Some(i64::from(drybell::obs::SCHEMA_VERSION))
    );
    assert_eq!(
        header.get("run_id").and_then(|v| v.as_str()),
        Some("journal-test")
    );
    assert_eq!(
        header.get("config_fingerprint").and_then(|v| v.as_str()),
        Some(fingerprint.as_str())
    );

    // The sharded job reports each MapReduce phase, then its summary.
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("phase"))
        .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert!(phases.contains(&"map"), "phases: {phases:?}");
    let job_event = events
        .iter()
        .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("job"))
        .expect("job event");
    assert_eq!(
        job_event.get("name").and_then(|v| v.as_str()),
        Some("topic-lfs")
    );
    assert_eq!(
        job_event.get("records_in").and_then(|v| v.as_i64()),
        Some(800)
    );
    assert_eq!(job_event.get("workers").and_then(|v| v.as_i64()), Some(2));
    assert_eq!(
        job_event.get("worker_busy").map(|v| v.items().len()),
        Some(2),
        "per-worker busy seconds"
    );
    assert_eq!(
        job_event.get("counters/nlp_calls").and_then(|v| v.as_i64()),
        Some(800)
    );

    // Training closes the journal: per-epoch lines then the summary.
    assert!(kinds.contains(&"train_epoch"), "kinds: {kinds:?}");
    let train = events.last().unwrap();
    assert_eq!(train.get("kind").and_then(|k| k.as_str()), Some("train"));
    assert_eq!(train.get("steps").and_then(|v| v.as_i64()), Some(300));

    // The metrics side of the same bundle saw the run too.
    let snap = telemetry.metrics().snapshot();
    assert!(snap.histogram("obs/train/step_us").map(|h| h.count()) == Some(300));
    for name in set.names() {
        assert_eq!(
            snap.histogram(&format!("obs/lf/{name}/eval_us"))
                .map(|h| h.count()),
            Some(800)
        );
    }
    let spans = telemetry.spans().snapshot();
    for path in [
        "run",
        "job/map",
        "job/shard_attempt",
        "lf_exec/sharded",
        "train/fit",
    ] {
        assert!(
            spans.get(path).is_some_and(|s| s.count > 0),
            "no {path} span in {:?}",
            spans.entries()
        );
    }

    // Every name the run emitted — metrics, span paths, event kinds — is
    // declared in `naming::REGISTRY`.
    let unregistered = naming::unregistered(&snap, &spans, kinds.iter().copied());
    assert!(unregistered.is_empty(), "unregistered: {unregistered:?}");
}
