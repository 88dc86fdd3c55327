//! End-to-end tests for the `doctor` CLI over golden-journal fixtures.
//!
//! `fixtures/golden_run.jsonl` is a healthy seeded run;
//! `fixtures/drifted_run.jsonl` is its twin after a simulated NLP
//! outage — the `nlp_person` LF degrades to abstain on ~35% of
//! examples, dragging coverage from 0.65 to 0.30, halving the cache
//! hit rate, and shifting the serving score distribution toward the
//! bottom buckets. `doctor check` must pass the clean rerun (exit 0)
//! and fail the degraded one (exit 1) citing the LF coverage and
//! degradation signals by name.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn doctor(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_doctor"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn doctor")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn summarize_renders_the_golden_run() {
    let dir = tempfile::tempdir().unwrap();
    let out = doctor(
        dir.path(),
        &[
            "summarize",
            "--journal",
            fixture("golden_run.jsonl").to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("run golden"), "{text}");
    assert!(text.contains("nlp_person"), "{text}");
    assert!(
        text.contains("0.648") || text.contains("0.647"),
        "coverage row: {text}"
    );
}

#[test]
fn summarize_json_is_a_loadable_summary() {
    let dir = tempfile::tempdir().unwrap();
    let out = doctor(
        dir.path(),
        &[
            "summarize",
            "--journal",
            fixture("golden_run.jsonl").to_str().unwrap(),
            "--json",
        ],
    );
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let doc = drybell_obs::parse_json(&stdout(&out)).unwrap();
    let summary = drybell_doctor::RunSummary::from_json(&doc).unwrap();
    assert_eq!(summary.run_id, "golden");
    assert_eq!(summary.schema_version, 1);
    assert_eq!(summary.examples, 800);
}

#[test]
fn baseline_then_clean_rerun_passes() {
    let dir = tempfile::tempdir().unwrap();
    let golden = fixture("golden_run.jsonl");
    let out = doctor(
        dir.path(),
        &["baseline", "--journal", golden.to_str().unwrap()],
    );
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        dir.path().join("results/BASELINE_run.json").exists(),
        "baseline default path"
    );
    // Re-checking the identical journal must be clean.
    let out = doctor(
        dir.path(),
        &[
            "check",
            "--baseline",
            "results/BASELINE_run.json",
            "--journal",
            golden.to_str().unwrap(),
        ],
    );
    assert_eq!(
        code(&out),
        0,
        "check output: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("all signals within budget"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn drifted_run_fails_citing_lf_coverage_and_degradation() {
    let dir = tempfile::tempdir().unwrap();
    let out = doctor(
        dir.path(),
        &[
            "baseline",
            "--journal",
            fixture("golden_run.jsonl").to_str().unwrap(),
        ],
    );
    assert_eq!(code(&out), 0);
    let out = doctor(
        dir.path(),
        &[
            "check",
            "--baseline",
            "results/BASELINE_run.json",
            "--journal",
            fixture("drifted_run.jsonl").to_str().unwrap(),
        ],
    );
    assert_eq!(
        code(&out),
        1,
        "expected drift exit: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
    let table = stdout(&out);
    // The acceptance signals, by name, on gating (DRIFT) rows.
    for signal in [
        "lf/nlp_person/coverage",
        "lf/nlp_person/degraded",
        "nlp/degraded",
        "serving/score_dist",
    ] {
        let row = table
            .lines()
            .find(|l| l.contains(signal))
            .unwrap_or_else(|| panic!("no row for {signal} in:\n{table}"));
        assert!(row.contains("DRIFT"), "{signal} row not gating: {row}");
    }
    assert!(table.contains("out of budget"), "{table}");
}

#[test]
fn check_json_output_reports_gating_verdicts() {
    let dir = tempfile::tempdir().unwrap();
    doctor(
        dir.path(),
        &[
            "baseline",
            "--journal",
            fixture("golden_run.jsonl").to_str().unwrap(),
        ],
    );
    let out = doctor(
        dir.path(),
        &[
            "check",
            "--baseline",
            "results/BASELINE_run.json",
            "--journal",
            fixture("drifted_run.jsonl").to_str().unwrap(),
            "--json",
        ],
    );
    assert_eq!(code(&out), 1);
    let doc = drybell_obs::parse_json(&stdout(&out)).unwrap();
    assert_eq!(doc.get("has_drift").and_then(|v| v.as_bool()), Some(true));
    let verdicts = doc.get("verdicts").unwrap().items();
    let gating: Vec<&str> = verdicts
        .iter()
        .filter(|v| v.get("gates").and_then(|g| g.as_bool()) == Some(true))
        .filter_map(|v| v.get("signal").and_then(|s| s.as_str()))
        .collect();
    assert!(gating.contains(&"lf/nlp_person/coverage"), "{gating:?}");
    assert!(gating.contains(&"lf/nlp_person/degraded"), "{gating:?}");
}

#[test]
fn headerless_journal_reads_as_schema_zero() {
    let dir = tempfile::tempdir().unwrap();
    let golden = std::fs::read_to_string(fixture("golden_run.jsonl")).unwrap();
    let headerless: String = golden.lines().skip(1).collect::<Vec<_>>().join("\n");
    let path = dir.path().join("headerless.jsonl");
    std::fs::write(&path, headerless).unwrap();
    let out = doctor(
        dir.path(),
        &["summarize", "--journal", "headerless.jsonl", "--json"],
    );
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let doc = drybell_obs::parse_json(&stdout(&out)).unwrap();
    let summary = drybell_doctor::RunSummary::from_json(&doc).unwrap();
    assert_eq!(summary.schema_version, 0);
    assert_eq!(summary.run_id, "unknown");
    assert_eq!(summary.examples, 800, "events still fold");
}

#[test]
fn doctor_toml_in_cwd_is_picked_up() {
    let dir = tempfile::tempdir().unwrap();
    doctor(
        dir.path(),
        &[
            "baseline",
            "--journal",
            fixture("golden_run.jsonl").to_str().unwrap(),
        ],
    );
    // Disable every default budget: even the drifted run passes.
    let relaxed = "\
[scalar]\nretries_abs = -1\nskipped_records_abs = -1\nnlp_degraded_abs = -1\n\
nlp_cache_hit_rate_abs = -1\nfinal_nll_rel = -1\ndrybell_f1_abs = -1\n\
[lf]\ncoverage_abs = -1\noverlap_abs = -1\nconflict_abs = -1\n\
learned_accuracy_abs = -1\ndegraded_abs = -1\n\
[psi]\nscore_dist = -1\n";
    std::fs::write(dir.path().join("doctor.toml"), relaxed).unwrap();
    let out = doctor(
        dir.path(),
        &[
            "check",
            "--baseline",
            "results/BASELINE_run.json",
            "--journal",
            fixture("drifted_run.jsonl").to_str().unwrap(),
        ],
    );
    assert_eq!(
        code(&out),
        0,
        "relaxed budgets should pass: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
}

#[test]
fn live_folds_a_running_endpoint_and_fails_on_a_dead_one() {
    let dir = tempfile::tempdir().unwrap();
    let telemetry = drybell_obs::Telemetry::new();
    telemetry.metrics().counter("nlp_calls").add(42);
    let server = drybell_obs::LiveServer::bind("127.0.0.1:0", &telemetry).unwrap();
    let addr = server.local_addr().to_string();
    let out = doctor(dir.path(), &["live", &addr, "--json"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let doc = drybell_obs::parse_json(&stdout(&out)).unwrap();
    assert_eq!(doc.get("nlp_calls").and_then(|v| v.as_i64()), Some(42));

    // A port that was just free: nothing listens there.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let out = doctor(dir.path(), &["live", &dead, "--json"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains(&dead), "{}", stderr(&out));
}

#[test]
fn usage_errors_exit_two() {
    let dir = tempfile::tempdir().unwrap();
    // No subcommand.
    assert_eq!(code(&doctor(dir.path(), &[])), 2);
    // check without --baseline.
    assert_eq!(
        code(&doctor(
            dir.path(),
            &[
                "check",
                "--journal",
                fixture("golden_run.jsonl").to_str().unwrap()
            ],
        )),
        2
    );
    // Both inputs at once.
    assert_eq!(
        code(&doctor(
            dir.path(),
            &["summarize", "--journal", "a", "--summary", "b"],
        )),
        2
    );
    // Missing file.
    let out = doctor(dir.path(), &["summarize", "--journal", "no_such.jsonl"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("no_such.jsonl"), "{}", stderr(&out));
    // Malformed journal cites the line number.
    std::fs::write(
        dir.path().join("bad.jsonl"),
        "{\"kind\":\"job\"}\nnot json\n",
    )
    .unwrap();
    let out = doctor(dir.path(), &["summarize", "--journal", "bad.jsonl"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    // --help is not an error.
    let out = doctor(dir.path(), &["--help"]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("USAGE"));
}
