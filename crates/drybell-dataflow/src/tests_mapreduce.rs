//! Tests for the MapReduce engine (kept in a separate module to keep
//! `mapreduce.rs` focused on the engine itself).

use crate::counters::CounterHandle;
use crate::error::DataflowError;
use crate::fault::{FaultPlan, FaultSite};
use crate::mapreduce::{par_map_shards, par_map_vec, JobConfig};
use crate::shard::{read_all, write_all, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type WordRec = (u64, String);

fn write_input(dir: &std::path::Path, shards: usize, records: &[WordRec]) -> ShardSpec {
    let spec = ShardSpec::new(dir, "input", shards);
    write_all(&spec, records).unwrap();
    spec
}

#[test]
fn par_map_transforms_every_record() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..500).map(|i| (i, format!("doc {i}"))).collect();
    let input = write_input(dir.path(), 8, &records);
    let output = input.derive("mapped");
    let cfg = JobConfig::new("double").with_workers(4);
    let stats = par_map_shards(
        &input,
        &output,
        &cfg,
        |_ctx| Ok(()),
        |_s: &mut (), (k, v): WordRec, emit, counters: &mut CounterHandle| {
            counters.inc("seen");
            emit.emit(&(k * 2, v))
        },
    )
    .unwrap();
    assert_eq!(stats.records_in, 500);
    assert_eq!(stats.records_out, 500);
    assert_eq!(stats.counters.get("seen"), 500);
    assert!(stats.throughput() > 0.0);
    let mut back: Vec<WordRec> = read_all(&output).unwrap();
    back.sort();
    let mut want: Vec<WordRec> = records.iter().map(|(k, v)| (k * 2, v.clone())).collect();
    want.sort();
    assert_eq!(back, want);
}

#[test]
fn par_map_filters_via_emit() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..100).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("evens");
    let stats = par_map_shards(
        &input,
        &output,
        &JobConfig::new("filter").with_workers(2),
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| {
            if rec.0.is_multiple_of(2) {
                emit.emit(&rec)?;
            }
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(stats.records_in, 100);
    assert_eq!(stats.records_out, 50);
}

#[test]
fn par_map_worker_state_is_per_worker() {
    // Each worker's init gets a distinct id; all ids must be < workers.
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..64).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 8, &records);
    let output = input.derive("ids");
    par_map_shards(
        &input,
        &output,
        &JobConfig::new("ids").with_workers(3),
        |ctx| {
            assert!(ctx.worker_id < 3);
            Ok(ctx.worker_id as u64)
        },
        |wid: &mut u64, (k, _): WordRec, emit, _c: &mut CounterHandle| {
            emit.emit(&(k, format!("worker-{wid}")))
        },
    )
    .unwrap();
    let back: Vec<WordRec> = read_all(&output).unwrap();
    assert_eq!(back.len(), 64);
    for (_, v) in back {
        assert!(v.starts_with("worker-"));
    }
}

#[test]
fn par_map_user_error_aborts_job() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..50).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("err");
    let result = par_map_shards(
        &input,
        &output,
        &JobConfig::new("fail").with_workers(2),
        |_ctx| Ok(()),
        |_s: &mut (), (k, _): WordRec, _emit: &mut crate::mapreduce::Emit<'_, WordRec>, _c| {
            if k == 13 {
                Err(DataflowError::user("unlucky record"))
            } else {
                Ok(())
            }
        },
    );
    assert!(matches!(result, Err(DataflowError::User(_))));
}

#[test]
fn par_map_worker_panic_is_reported() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..50).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("panic");
    let result = par_map_shards(
        &input,
        &output,
        &JobConfig::new("panic").with_workers(2),
        |_ctx| Ok(()),
        |_s: &mut (), (k, _): WordRec, emit: &mut crate::mapreduce::Emit<'_, WordRec>, _c| {
            if k == 7 {
                panic!("boom at {k}");
            }
            emit.emit(&(k, String::new()))
        },
    );
    match result {
        Err(DataflowError::WorkerPanicked { message, .. }) => {
            assert!(message.contains("boom"), "got: {message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn par_map_shard_count_mismatch_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let input = write_input(dir.path(), 4, &[]);
    let output = ShardSpec::new(dir.path(), "out", 2);
    let result = par_map_shards(
        &input,
        &output,
        &JobConfig::new("bad"),
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| emit.emit(&rec),
    );
    assert!(matches!(result, Err(DataflowError::BadJob(_))));
}

#[test]
fn par_map_vec_preserves_order() {
    let items: Vec<u64> = (0..1000).collect();
    let out = par_map_vec(&items, 7, |_wid| Ok(()), |_s: &mut (), &x| Ok(x * x)).unwrap();
    assert_eq!(out.len(), 1000);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i * i) as u64);
    }
}

#[test]
fn par_map_vec_propagates_errors_and_panics() {
    let items: Vec<u64> = (0..100).collect();
    let err = par_map_vec(
        &items,
        4,
        |_wid| Ok(()),
        |_s: &mut (), &x| {
            if x == 42 {
                Err(DataflowError::user("bad"))
            } else {
                Ok(x)
            }
        },
    );
    assert!(matches!(err, Err(DataflowError::User(_))));
    let err = par_map_vec(
        &items,
        4,
        |_wid| Ok(()),
        |_s: &mut (), &x: &u64| -> Result<u64, DataflowError> {
            if x == 55 {
                panic!("dead worker");
            }
            Ok(x)
        },
    );
    assert!(matches!(err, Err(DataflowError::WorkerPanicked { .. })));
}

#[test]
fn par_map_vec_empty_input() {
    let items: Vec<u64> = Vec::new();
    let out = par_map_vec(&items, 4, |_| Ok(()), |_s: &mut (), &x| Ok(x)).unwrap();
    assert!(out.is_empty());
}

#[test]
fn par_map_reports_phase_and_worker_telemetry() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..200).map(|i| (i, format!("doc {i}"))).collect();
    let input = write_input(dir.path(), 8, &records);
    let output = input.derive("mapped");
    let stats = par_map_shards(
        &input,
        &output,
        &JobConfig::new("telemetry").with_workers(3),
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| emit.emit(&rec),
    )
    .unwrap();
    // One map phase covering the whole job.
    assert_eq!(stats.phases.len(), 1);
    assert_eq!(stats.phases[0].name, "map");
    assert_eq!(stats.phases[0].records_in, 200);
    assert_eq!(stats.phases[0].records_out, 200);
    assert!(stats.phases[0].seconds <= stats.seconds);
    // One busy entry per worker, none longer than the job.
    assert_eq!(stats.worker_busy.len(), 3);
    assert!(stats.worker_busy.iter().all(|&b| b <= stats.seconds + 0.01));
    assert!(stats.straggler_ratio() >= 1.0 - 1e-9);
}

#[test]
fn job_stats_emit_to_journal() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..40).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("out");
    let stats = par_map_shards(
        &input,
        &output,
        &JobConfig::new("journaled").with_workers(2),
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, c: &mut CounterHandle| {
            c.inc("touched");
            emit.emit(&rec)
        },
    )
    .unwrap();
    let (journal, buffer) = drybell_obs::RunJournal::in_memory();
    stats.emit_to(&journal);
    let lines = buffer.parsed_lines().unwrap();
    assert_eq!(lines.len(), 2); // one phase + one job
    assert_eq!(lines[0].get("kind").unwrap().as_str(), Some("phase"));
    assert_eq!(lines[0].get("job").unwrap().as_str(), Some("journaled"));
    let job = &lines[1];
    assert_eq!(job.get("kind").unwrap().as_str(), Some("job"));
    assert_eq!(job.get("records_in").unwrap().as_i64(), Some(40));
    assert_eq!(job.get("counters/touched").unwrap().as_i64(), Some(40));
    assert_eq!(job.get("worker_busy").unwrap().items().len(), 2);
    assert!(job.get("straggler_ratio").unwrap().as_f64().unwrap() >= 1.0);
}

#[test]
fn prop_par_map_vec_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..24 {
        let items: Vec<i64> = (0..rng.gen_range(0..300)).map(|_| rng.gen()).collect();
        let workers = rng.gen_range(1..9);
        let out = par_map_vec(
            &items,
            workers,
            |_| Ok(()),
            |_s: &mut (), &x| Ok(x.wrapping_mul(3).wrapping_add(1)),
        )
        .unwrap();
        let want: Vec<i64> = items
            .iter()
            .map(|&x| x.wrapping_mul(3).wrapping_add(1))
            .collect();
        assert_eq!(out, want);
    }
}

#[test]
fn busy_clock_excludes_queue_wait() {
    // One slow shard, two workers: the worker that never receives a task
    // spends the whole job blocked on the queue, and that wait must not
    // be charged as busy time.
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..10).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 1, &records);
    let output = input.derive("out");
    let cfg = JobConfig::new("lopsided")
        .with_workers(2)
        .with_fault_plan(FaultPlan::seeded(1).delay_task(FaultSite::Map, 0, 0, 25));
    let stats = par_map_shards(
        &input,
        &output,
        &cfg,
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| emit.emit(&rec),
    )
    .unwrap();
    assert_eq!(stats.worker_busy.len(), 2);
    let zeroes = stats.worker_busy.iter().filter(|&&b| b == 0.0).count();
    assert_eq!(
        zeroes, 1,
        "idle worker must read exactly zero: {:?}",
        stats.worker_busy
    );
    let max = stats.worker_busy.iter().cloned().fold(0.0, f64::max);
    assert!(
        max >= 0.025,
        "busy worker absorbed the delay: {:?}",
        stats.worker_busy
    );
}

#[test]
fn retry_recovers_from_transient_shard_fault() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..80).map(|i| (i, format!("doc {i}"))).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("out");
    let cfg = JobConfig::new("flaky")
        .with_workers(2)
        .with_max_attempts(2)
        .with_fault_plan(FaultPlan::seeded(7).fail_task(FaultSite::Map, 2, 0));
    let stats = par_map_shards(
        &input,
        &output,
        &cfg,
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| emit.emit(&rec),
    )
    .unwrap();
    assert_eq!(stats.records_in, 80, "retried shard must count once");
    assert_eq!(stats.records_out, 80);
    assert_eq!(stats.counters.get("dataflow/retries"), 1);
    let mut back: Vec<WordRec> = read_all(&output).unwrap();
    back.sort();
    assert_eq!(back, records);
}

#[test]
fn exhausted_retries_fail_the_job() {
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..40).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("out");
    let plan = FaultPlan::seeded(7)
        .fail_task(FaultSite::Map, 1, 0)
        .fail_task(FaultSite::Map, 1, 1)
        .fail_task(FaultSite::Map, 1, 2);
    let cfg = JobConfig::new("doomed")
        .with_workers(2)
        .with_max_attempts(3)
        .with_fault_plan(plan);
    let result = par_map_shards(
        &input,
        &output,
        &cfg,
        |_ctx| Ok(()),
        |_s: &mut (), rec: WordRec, emit, _c: &mut CounterHandle| emit.emit(&rec),
    );
    assert!(
        matches!(result, Err(DataflowError::User(_))),
        "got {result:?}"
    );
}

#[test]
fn zero_skip_budget_is_fail_stop() {
    // With the default `skip_bad_record_budget = 0`, a bad record fails
    // the job exactly like the pre-retry engine did.
    let dir = tempfile::tempdir().unwrap();
    let records: Vec<WordRec> = (0..30).map(|i| (i, String::new())).collect();
    let input = write_input(dir.path(), 3, &records);
    let output = input.derive("out");
    let run = |budget: u64| {
        let cfg = JobConfig::new("budget")
            .with_workers(2)
            .with_skip_bad_record_budget(budget);
        par_map_shards(
            &input,
            &output,
            &cfg,
            |_ctx| Ok(()),
            |_s: &mut (), (k, v): WordRec, emit, _c: &mut CounterHandle| {
                if k == 17 {
                    return Err(DataflowError::user("bad record 17"));
                }
                emit.emit(&(k, v))
            },
        )
    };
    assert!(matches!(run(0), Err(DataflowError::User(_))));
    let stats = run(1).unwrap();
    assert_eq!(stats.records_out, 29);
    assert_eq!(stats.counters.get("dataflow/skipped_records"), 1);
}

#[test]
fn zero_max_attempts_is_clamped_to_one() {
    let cfg = JobConfig::new("clamped").with_max_attempts(0);
    assert_eq!(cfg.max_attempts, 1);
}
