//! The doctor's drift gate end to end, over the real `quickstart_pipeline`
//! binary: a golden run is the baseline, a clean rerun must check clean,
//! and a rerun with a seeded NLP-service outage must be flagged, by
//! name, on the paper's §3.3 monitored signals (LF coverage and
//! degrade-to-abstain counts). Everything is seeded, so the verdicts are
//! deterministic; only timing signals vary, and the repository's
//! `doctor.toml` keeps them informational.

use drybell_doctor::{DoctorConfig, DriftReport, RunSummary, Status};
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

/// Run the quickstart at the gate's scale, seed and worker count, inside
/// `dir`, and read back the summary it wrote there.
fn quickstart(dir: &Path, run_id: &str, extra: &[&str]) -> RunSummary {
    let path = dir.join(format!("SUMMARY_{run_id}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_quickstart_pipeline"))
        .args(["--scale", "0.02", "--seed", "7", "--workers", "2"])
        .args(["--run-id", run_id, "--summary"])
        .arg(&path)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("quickstart_pipeline starts");
    assert!(
        out.status.success(),
        "{run_id}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("summary written");
    let doc = drybell_obs::parse_json(&text).expect("summary is JSON");
    RunSummary::from_json(&doc).expect("summary parses")
}

/// Whether some `lf/<lf>/<signal>` verdict drifted.
fn drifts_on(report: &DriftReport, signal: &str) -> bool {
    report.verdicts.iter().any(|v| {
        v.status == Status::Drift && v.signal.starts_with("lf/") && v.signal.ends_with(signal)
    })
}

#[test]
fn outage_gates_and_a_clean_rerun_does_not() {
    let dir = tempfile::tempdir().expect("tempdir");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = DoctorConfig::from_path(&manifest.join("../../doctor.toml")).expect("doctor.toml");

    let golden = quickstart(dir.path(), "golden", &[]);
    let rerun = quickstart(dir.path(), "rerun", &[]);
    let clean = DriftReport::diff(&golden, &rerun, &cfg);
    assert!(
        !clean.has_drift(),
        "clean rerun gated:\n{}",
        clean.to_table()
    );

    let outage = quickstart(dir.path(), "outage", &["--nlp-outage", "0.35"]);
    let flagged = DriftReport::diff(&golden, &outage, &cfg);
    let table = flagged.to_table();
    assert!(flagged.has_drift(), "outage not gated:\n{table}");
    assert!(drifts_on(&flagged, "/coverage"), "{table}");
    assert!(drifts_on(&flagged, "/degraded"), "{table}");

    // Each NLP LF degraded on exactly the documents whose annotation
    // failed, and no other LF degraded at all.
    assert!(outage.nlp_degraded > 0);
    let set = drybell_datagen::topic::lf_set(Arc::new(HashMap::new()));
    for lf in set.lfs() {
        let name = &lf.metadata().name;
        let degraded = outage.lfs.get(name).map_or(0, |s| s.degraded);
        let want = if lf.needs_nlp() {
            outage.nlp_degraded
        } else {
            0
        };
        assert_eq!(degraded, want, "lf/{name}/degraded");
    }
}
