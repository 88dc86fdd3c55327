//! Chaos suite: seeded, deterministic fault injection against the
//! dataflow engine.
//!
//! Every test here drives `par_map_shards` through a
//! [`FaultPlan`] that injects worker panics, shard errors, and record
//! errors, and asserts the engine's two fault-tolerance invariants:
//!
//! 1. a job that completes produces output *byte-identical* to a
//!    fault-free run (atomic shard commits + idempotent retries), and
//! 2. a job that dies never exposes a partial shard at its final path.
//!
//! All plans are seeded, so failures reproduce exactly; nothing in this
//! file is timing-dependent.

use drybell_dataflow::{
    par_map_shards, write_all, CounterHandle, DataflowError, FaultPlan, FaultSite, JobConfig,
    ShardReader, ShardSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};

type Rec = (u64, String);

fn write_input(dir: &std::path::Path, shards: usize, records: &[Rec]) -> ShardSpec {
    let spec = ShardSpec::new(dir, "input", shards);
    write_all(&spec, records).unwrap();
    spec
}

fn docs(n: u64) -> Vec<Rec> {
    (0..n)
        .map(|i| (i, format!("w{} w{} doc", i % 7, i % 3)))
        .collect()
}

/// Byte-level contents of every shard file in a spec, in shard order.
fn shard_bytes(spec: &ShardSpec) -> Vec<Vec<u8>> {
    (0..spec.num_shards())
        .map(|s| std::fs::read(spec.shard_path(s)).unwrap())
        .collect()
}

fn identity_map(
    _s: &mut (),
    rec: Rec,
    emit: &mut drybell_dataflow::Emit<'_, Rec>,
    _c: &mut CounterHandle,
) -> Result<(), DataflowError> {
    emit.emit(&rec)
}

/// ≥10% injected error + panic rates across 12 shards: the job must
/// still complete, with output byte-identical to a fault-free run.
#[test]
fn par_map_survives_chaos_with_byte_identical_output() {
    let records = docs(600);

    let clean_dir = tempfile::tempdir().unwrap();
    let clean_in = write_input(clean_dir.path(), 12, &records);
    let clean_out = clean_in.derive("out");
    par_map_shards(
        &clean_in,
        &clean_out,
        &JobConfig::new("clean").with_workers(4),
        |_ctx| Ok(()),
        identity_map,
    )
    .unwrap();

    let chaos_dir = tempfile::tempdir().unwrap();
    let chaos_in = write_input(chaos_dir.path(), 12, &records);
    let chaos_out = chaos_in.derive("out");
    let plan = FaultPlan::seeded(0xC0FFEE)
        .with_map_error_rate(0.15)
        .with_map_panic_rate(0.10)
        .fail_task(FaultSite::Map, 3, 0)
        .panic_task(FaultSite::Map, 8, 0);
    let cfg = JobConfig::new("chaos")
        .with_workers(4)
        .with_max_attempts(4)
        .with_fault_plan(plan);
    let stats = par_map_shards(&chaos_in, &chaos_out, &cfg, |_ctx| Ok(()), identity_map).unwrap();

    assert!(
        stats.counters.get("dataflow/retries") >= 2,
        "chaos run must actually have retried: {:?}",
        stats.counters
    );
    assert_eq!(
        stats.records_in, 600,
        "retries must not double-count records"
    );
    assert_eq!(stats.records_out, 600);
    assert_eq!(
        shard_bytes(&clean_out),
        shard_bytes(&chaos_out),
        "chaos output must be byte-identical to the fault-free run"
    );
}

/// Kill-mid-job: a fail-stop job that dies partway through must never
/// expose a torn shard at its final path — every output shard either
/// does not exist or is fully committed and readable.
#[test]
fn killed_job_never_exposes_partial_shards() {
    let records = docs(500);
    let dir = tempfile::tempdir().unwrap();
    let input = write_input(dir.path(), 10, &records);
    let output = input.derive("out");
    // Panic one mid-pack shard with no retries: some shards commit,
    // some never run, shard 5's attempt dies mid-write.
    let plan = FaultPlan::seeded(9).panic_task(FaultSite::Map, 5, 0);
    let cfg = JobConfig::new("killed")
        .with_workers(3)
        .with_fault_plan(plan);
    let result = par_map_shards(&input, &output, &cfg, |_ctx| Ok(()), identity_map);
    assert!(
        matches!(result, Err(DataflowError::WorkerPanicked { .. })),
        "got {result:?}"
    );

    assert!(
        !output.is_complete(),
        "a killed job must not look committed"
    );
    for s in 0..output.num_shards() {
        let path = output.shard_path(s);
        if !path.exists() {
            continue;
        }
        // Anything at the final path must be a complete, committed shard.
        let reader = ShardReader::<Rec>::open(&path)
            .unwrap_or_else(|e| panic!("shard {s} present but torn: {e}"));
        for rec in reader {
            rec.unwrap_or_else(|e| panic!("shard {s} present but unreadable: {e}"));
        }
    }
    // No stage files may linger at tmp siblings either once the spec is
    // removed (the cleanup path used by retries and re-runs).
    output.remove().unwrap();
    let stray = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .count();
    assert_eq!(stray, 0, "remove() must clear .tmp stage files");
}

/// The retry budget is exact: a task that fails its first three attempts
/// fails a `max_attempts = 3` job and completes a `max_attempts = 4` one.
#[test]
fn retry_budget_boundary_is_exact() {
    let records = docs(60);
    let plan = FaultPlan::seeded(3)
        .fail_task(FaultSite::Map, 2, 0)
        .panic_task(FaultSite::Map, 2, 1)
        .fail_task(FaultSite::Map, 2, 2);
    let run = |attempts: u32| {
        let dir = tempfile::tempdir().unwrap();
        let input = write_input(dir.path(), 6, &records);
        let output = input.derive("out");
        let cfg = JobConfig::new("boundary")
            .with_workers(2)
            .with_max_attempts(attempts)
            .with_fault_plan(plan.clone());
        par_map_shards(&input, &output, &cfg, |_ctx| Ok(()), identity_map)
            .map(|stats| stats.counters.get("dataflow/retries"))
    };
    assert!(run(3).is_err(), "three faults must exhaust three attempts");
    assert_eq!(
        run(4).unwrap(),
        3,
        "fourth attempt must succeed after 3 retries"
    );
}

/// Record-level faults consume exactly the skip budget the plan implies,
/// and the surviving records are exactly the non-faulted ones.
#[test]
fn skip_budget_counts_are_exact() {
    let records = docs(300);
    let dir = tempfile::tempdir().unwrap();
    let shards = 5;
    let input = write_input(dir.path(), shards, &records);
    let output = input.derive("out");
    let plan = FaultPlan::seeded(11).with_record_error_rate(0.10);

    // The plan is pure: compute the expected skip count from the input
    // layout itself.
    let mut expected_skips = 0u64;
    for s in 0..shards {
        let in_shard = ShardReader::<Rec>::open(&input.shard_path(s))
            .unwrap()
            .count() as u64;
        for idx in 0..in_shard {
            if plan.record_fault(s, idx) {
                expected_skips += 1;
            }
        }
    }
    assert!(
        expected_skips > 0,
        "seed must inject at least one record fault"
    );

    let cfg = JobConfig::new("skips")
        .with_workers(3)
        .with_skip_bad_record_budget(expected_skips)
        .with_fault_plan(plan);
    let stats = par_map_shards(&input, &output, &cfg, |_ctx| Ok(()), identity_map).unwrap();
    assert_eq!(
        stats.counters.get("dataflow/skipped_records"),
        expected_skips
    );
    assert_eq!(stats.records_in, 300);
    assert_eq!(stats.records_out, 300 - expected_skips);

    // One fewer unit of budget and the same plan must fail the job.
    let strict = JobConfig::new("strict")
        .with_workers(3)
        .with_skip_bad_record_budget(expected_skips - 1)
        .with_fault_plan(FaultPlan::seeded(11).with_record_error_rate(0.10));
    let out2 = input.derive("out2");
    assert!(par_map_shards(&input, &out2, &strict, |_ctx| Ok(()), identity_map).is_err());
}

/// A job counter counts a shard once: what the map function counted
/// during an attempt that then errors or panics goes with the attempt,
/// and only the attempt that commits the shard is tallied.
#[test]
fn job_counters_count_a_retried_shard_once() {
    for panics in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let input = write_input(dir.path(), 1, &docs(100));
        let output = input.derive("out");
        let cfg = JobConfig::new("once").with_workers(2).with_max_attempts(2);
        let failed_once = AtomicBool::new(false);
        let stats = par_map_shards(
            &input,
            &output,
            &cfg,
            |_ctx| Ok(()),
            |_s: &mut (), rec: Rec, emit, c: &mut CounterHandle| {
                c.inc("seen");
                if rec.0 == 60 && !failed_once.swap(true, Ordering::SeqCst) {
                    assert!(!panics, "transient panic at record 60");
                    return Err(DataflowError::user("transient error at record 60"));
                }
                emit.emit(&rec)
            },
        )
        .unwrap();
        assert_eq!(stats.counters.get("dataflow/retries"), 1);
        assert_eq!(stats.records_in, 100);
        assert_eq!(stats.counters.get("seen"), 100, "panics = {panics}");
    }
}

/// The engine's own skip counter is the budget consumed: a failed attempt
/// is not refunded the records it skipped, so its skips stay counted
/// while everything the map function counted in it is dropped.
#[test]
fn skips_of_a_failed_attempt_stay_counted() {
    let dir = tempfile::tempdir().unwrap();
    let input = write_input(dir.path(), 1, &docs(100));
    let output = input.derive("out");
    let cfg = JobConfig::new("skips-kept")
        .with_workers(1)
        .with_max_attempts(2)
        .with_skip_bad_record_budget(2);
    let panicked_once = AtomicBool::new(false);
    let stats = par_map_shards(
        &input,
        &output,
        &cfg,
        |_ctx| Ok(()),
        |_s: &mut (), rec: Rec, emit, c: &mut CounterHandle| {
            c.inc("seen");
            if rec.0 == 10 {
                return Err(DataflowError::user("record 10 is always bad"));
            }
            assert!(
                rec.0 != 60 || panicked_once.swap(true, Ordering::SeqCst),
                "transient panic at record 60"
            );
            emit.emit(&rec)
        },
    )
    .unwrap();
    // Record 10 was skipped by both attempts: the whole budget is spent.
    assert_eq!(stats.counters.get("dataflow/skipped_records"), 2);
    assert_eq!(stats.counters.get("dataflow/retries"), 1);
    assert_eq!(stats.counters.get("seen"), 100);
    assert_eq!((stats.records_in, stats.records_out), (100, 99));
}

/// Every attempt — success, retry, and terminal failure — lands in the
/// telemetry sink as a `job/shard_attempt` span and a `shard_attempt`
/// journal event.
#[test]
fn shard_attempts_are_journaled() {
    let records = docs(80);
    let dir = tempfile::tempdir().unwrap();
    let input = write_input(dir.path(), 4, &records);
    let output = input.derive("out");
    let (journal, buffer) = drybell_obs::RunJournal::in_memory();
    let telemetry = drybell_obs::Telemetry::with_journal(journal);
    let cfg = JobConfig::new("observed")
        .with_workers(2)
        .with_max_attempts(2)
        .with_fault_plan(FaultPlan::seeded(5).fail_task(FaultSite::Map, 1, 0))
        .with_telemetry(telemetry.clone());
    par_map_shards(&input, &output, &cfg, |_ctx| Ok(()), identity_map).unwrap();

    // 4 shards + 1 retry = 5 attempts.
    let stat = telemetry
        .spans()
        .snapshot()
        .get("job/shard_attempt")
        .expect("span must be recorded");
    assert_eq!(stat.count, 5);

    let lines = buffer.parsed_lines().unwrap();
    let attempts: Vec<_> = lines
        .iter()
        .filter(|l| l.get("kind").and_then(|k| k.as_str()) == Some("shard_attempt"))
        .collect();
    assert_eq!(attempts.len(), 5);
    let retried: Vec<_> = attempts
        .iter()
        .filter(|l| l.get("outcome").and_then(|o| o.as_str()) == Some("retry"))
        .collect();
    assert_eq!(retried.len(), 1);
    let retry = retried[0];
    assert_eq!(retry.get("phase").and_then(|p| p.as_str()), Some("map"));
    assert_eq!(retry.get("task").and_then(|t| t.as_i64()), Some(1));
    assert_eq!(retry.get("attempt").and_then(|a| a.as_i64()), Some(0));
    assert!(retry
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap()
        .contains("injected fault"));
    assert_eq!(
        attempts
            .iter()
            .filter(|l| l.get("outcome").and_then(|o| o.as_str()) == Some("ok"))
            .count(),
        4
    );
}
