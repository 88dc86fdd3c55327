//! Integration tests: the faithful sharded pipeline — documents written
//! to shard files, LFs executed shard-to-shard through the dataflow
//! engine with per-worker NLP model servers, and the label matrix
//! assembled from the output dataset. Verifies it agrees exactly with the
//! in-memory path.

use drybell::core::LabelMatrix;
use drybell::dataflow::{read_all, write_all, FaultPlan, JobConfig, ShardSpec};
use drybell::lf::executor::{
    execute_in_memory, execute_in_memory_observed, execute_sharded, execute_sharded_observed,
    ExecOptions, ExecutionStats, VoteRow,
};
use drybell::obs::{RunJournal, Telemetry};
use drybell_datagen::product::{self, ProductTaskConfig};
use drybell_datagen::topic::{self, TopicTaskConfig};

#[test]
fn sharded_execution_matches_in_memory() {
    let cfg = TopicTaskConfig {
        num_unlabeled: 2_000,
        num_dev: 10,
        num_test: 10,
        pos_rate: 0.05,
        seed: 31,
    };
    let ds = topic::generate(&cfg);
    let set = topic::lf_set(ds.crawl_table.clone());
    let ext = topic::text_extractor();

    let (mem_matrix, _) = execute_in_memory(&set, Some(&ext), &ds.unlabeled, 4).unwrap();

    let dir = tempfile::tempdir().unwrap();
    let input = ShardSpec::new(dir.path(), "docs", 6);
    write_all(&input, &ds.unlabeled).unwrap();
    let output = input.derive("votes");
    let job = JobConfig::new("topic-lfs").with_workers(3);
    let (shard_matrix, stats) =
        execute_sharded(&set, Some(&ext), &input, &output, &job, |d| d.id).unwrap();

    assert_eq!(shard_matrix, mem_matrix, "sharded and in-memory must agree");
    assert_eq!(stats.records_in, 2_000);
    assert_eq!(stats.counters.get("nlp_calls"), 2_000);

    // The vote shards are a durable artifact downstream stages can read.
    let rows: Vec<VoteRow> = read_all(&output).unwrap();
    assert_eq!(rows.len(), 2_000);
}

#[test]
fn sharded_corpus_roundtrips() {
    let cfg = TopicTaskConfig {
        num_unlabeled: 500,
        num_dev: 10,
        num_test: 10,
        pos_rate: 0.1,
        seed: 5,
    };
    let ds = topic::generate(&cfg);
    let dir = tempfile::tempdir().unwrap();
    let spec = ShardSpec::new(dir.path(), "docs", 4);
    write_all(&spec, &ds.unlabeled).unwrap();
    let mut back: Vec<topic::TopicDoc> = read_all(&spec).unwrap();
    back.sort_by_key(|d| d.id);
    assert_eq!(back, ds.unlabeled);
}

#[test]
fn worker_count_does_not_change_sharded_results() {
    let cfg = TopicTaskConfig {
        num_unlabeled: 600,
        num_dev: 10,
        num_test: 10,
        pos_rate: 0.05,
        seed: 8,
    };
    let ds = topic::generate(&cfg);
    let set = topic::lf_set(ds.crawl_table.clone());
    let ext = topic::text_extractor();
    let mut matrices = Vec::new();
    for workers in [1usize, 2, 6] {
        let dir = tempfile::tempdir().unwrap();
        let input = ShardSpec::new(dir.path(), "docs", 4);
        write_all(&input, &ds.unlabeled).unwrap();
        let output = input.derive("votes");
        let job = JobConfig::new("wc").with_workers(workers);
        let (m, _) = execute_sharded(&set, Some(&ext), &input, &output, &job, |d| d.id).unwrap();
        matrices.push(m);
    }
    assert_eq!(matrices[0], matrices[1]);
    assert_eq!(matrices[1], matrices[2]);
}

/// An NLP outage on every call degrades the one NLP LF and nothing else:
/// the word LFs read the text the executor extracted, not the annotation,
/// so their columns equal the healthy run's on both executors. Both
/// executors report the run in one `ExecutionStats`, and the sharded one
/// journals it as the one `lf_execution` event the in-memory one writes.
#[test]
fn word_lfs_vote_through_an_nlp_outage() {
    let ds = product::generate(&ProductTaskConfig {
        num_unlabeled: 1_000,
        num_dev: 0,
        num_test: 0,
        seed: 23,
        ..ProductTaskConfig::paper()
    });
    let set = product::lf_set(ds.kg.clone());
    let ext = product::text_extractor();
    let docs = &ds.unlabeled;
    let (healthy, _) = execute_in_memory(&set, Some(&ext), docs, 2).unwrap();
    let outage = ExecOptions::new().with_nlp_faults(FaultPlan::seeded(1).with_nlp_error_rate(1.0));
    let (in_memory, stats) =
        execute_in_memory_observed(&set, Some(&ext), docs, 2, &outage).unwrap();
    assert_eq!((stats.nlp_calls, stats.nlp_degraded), (1_000, 1_000));

    let dir = tempfile::tempdir().unwrap();
    let input = ShardSpec::new(dir.path(), "docs", 4);
    write_all(&input, docs).unwrap();
    let job = JobConfig::new("outage").with_workers(2);
    let output = input.derive("votes");
    let (journal, buffer) = RunJournal::in_memory();
    let journaled = outage
        .clone()
        .with_telemetry(Telemetry::with_journal(journal));
    let (sharded, job_stats, sharded_stats) = execute_sharded_observed(
        &set,
        Some(&ext),
        &input,
        &output,
        &job,
        |d| d.id,
        &journaled,
    )
    .unwrap();
    // The sharded run reports the in-memory run's figures, returned and
    // journaled once.
    let figures =
        |s: &ExecutionStats| (s.examples as i64, s.nlp_calls as i64, s.nlp_degraded as i64);
    assert_eq!(figures(&sharded_stats), figures(&stats));
    let events = buffer.parsed_lines().unwrap();
    let lf_execution: Vec<_> = events
        .iter()
        .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("lf_execution"))
        .collect();
    assert_eq!(lf_execution.len(), 1, "one lf_execution event a run");
    let field = |name: &str| lf_execution[0].get(name).and_then(|v| v.as_i64()).unwrap();
    let event = (field("examples"), field("nlp_calls"), field("nlp_degraded"));
    assert_eq!(event, figures(&stats));
    assert_eq!(event, (1_000, 1_000, 1_000));

    let column = |m: &LabelMatrix, j: usize| m.rows().map(|row| row[j]).collect::<Vec<i8>>();
    let mut degraded = Vec::new();
    for (j, lf) in set.lfs().iter().enumerate() {
        let name = &lf.metadata().name;
        let counted = job_stats.counters.get(&format!("lf/{name}/degraded"));
        if lf.needs_nlp() {
            assert!(column(&healthy, j).iter().any(|&v| v != 0), "{name}");
            for outage in [&in_memory, &sharded] {
                assert!(column(outage, j).iter().all(|&v| v == 0), "{name}");
            }
            assert_eq!(counted, 1_000, "{name}");
            degraded.push(name.as_str());
        } else {
            assert_eq!(column(&in_memory, j), column(&healthy, j), "{name}");
            assert_eq!(column(&sharded, j), column(&healthy, j), "{name}");
            assert_eq!(counted, 0, "{name}");
        }
    }
    assert_eq!(degraded, ["topic_noncommerce"]);
}
