//! Property suite for the drift math: PSI identities and the
//! self-diff invariant (`diff(a, a)` never drifts, for any summary).

use drybell_doctor::summary::{LfSignals, TrainSummary};
use drybell_doctor::{psi, DoctorConfig, DriftReport, RunSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases each property runs.
const CASES: usize = 64;

/// A histogram of `len` buckets, each drawn from `counts`.
fn histogram(rng: &mut StdRng, len: usize, counts: std::ops::Range<u64>) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(counts.clone())).collect()
}

#[test]
fn prop_psi_of_identical_histograms_is_zero() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let len = rng.gen_range(0..16);
        let buckets = histogram(&mut rng, len, 0..10_000);
        let score = psi(&buckets, &buckets);
        assert!(score.abs() < 1e-9, "psi(h, h) = {score} for {buckets:?}");
    }
}

#[test]
fn prop_psi_is_nonnegative() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let (len_a, len_b) = (rng.gen_range(0..12), rng.gen_range(0..12));
        let a = histogram(&mut rng, len_a, 0..10_000);
        let b = histogram(&mut rng, len_b, 0..10_000);
        let score = psi(&a, &b);
        assert!(
            score >= 0.0 || score.is_infinite(),
            "psi({a:?}, {b:?}) = {score}"
        );
    }
}

#[test]
fn prop_psi_is_scale_invariant() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let len = rng.gen_range(1..10);
        let buckets = histogram(&mut rng, len, 1..1_000);
        let scale = rng.gen_range(2..50);
        let scaled: Vec<u64> = buckets.iter().map(|&n| n * scale).collect();
        let score = psi(&buckets, &scaled);
        assert!(score.abs() < 1e-9, "scaled psi = {score}");
    }
}

#[test]
fn prop_self_diff_never_drifts() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let examples = rng.gen_range(1..100_000);
        let degraded = rng.gen_range(0..1_000);
        let nll = rng.gen_range(0.01..5.0);
        let coverage = rng.gen_range(0.0..1.0);
        let mut s = RunSummary {
            schema_version: 1,
            run_id: "prop".into(),
            config_fingerprint: "fp".into(),
            wall_seconds: rng.gen_range(0.0..10_000.0),
            retries: rng.gen_range(0..100),
            nlp_degraded: degraded,
            nlp_cache_hits: rng.gen_range(0..100_000),
            nlp_cache_misses: rng.gen_range(0..100_000),
            examples,
            drybell_f1: Some(rng.gen_range(0.0..1.0)),
            train: Some(TrainSummary {
                steps: 100,
                epochs: 2,
                final_nll: nll,
                loss_curve: vec![nll * 2.0, nll],
            }),
            score_dist_serving: Some(histogram(&mut rng, 10, 0..5_000)),
            ..RunSummary::default()
        };
        s.lfs.insert(
            "some_lf".into(),
            LfSignals {
                coverage: Some(coverage),
                overlap: Some(coverage / 2.0),
                conflict: Some(coverage / 4.0),
                learned_accuracy: Some(rng.gen_range(0.0..1.0)),
                votes: Some((coverage * examples as f64) as u64),
                degraded,
            },
        );
        // Identity holds under every budget configuration: the default
        // set and a maximally strict zero-budget overlay.
        let report = DriftReport::diff(&s, &s, &DoctorConfig::default());
        assert!(
            !report.has_drift(),
            "self-diff drifted: {:?}",
            report.gating().collect::<Vec<_>>()
        );
        let mut strict = DoctorConfig::default();
        for key in [
            "timing.wall_rel",
            "timing.straggler_rel",
            "scalar.nlp_calls_rel",
            "psi.latency",
        ] {
            strict.set(key, 0.0);
        }
        let report = DriftReport::diff(&s, &s, &strict);
        assert!(
            !report.has_drift(),
            "strict self-diff drifted: {:?}",
            report.gating().collect::<Vec<_>>()
        );
        assert!(!report.fingerprint_changed);
    }
}

#[test]
fn prop_summary_json_round_trip_preserves_diffability() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let mut s = RunSummary {
            schema_version: 1,
            run_id: "rt".into(),
            examples: rng.gen_range(1..100_000),
            score_dist_serving: Some(histogram(&mut rng, 10, 0..5_000)),
            ..RunSummary::default()
        };
        s.lfs.insert(
            "lf".into(),
            LfSignals {
                coverage: Some(rng.gen_range(0.0..1.0)),
                ..LfSignals::default()
            },
        );
        let text = s.to_json().to_pretty();
        let back = RunSummary::from_json(&drybell_obs::parse_json(&text).unwrap()).unwrap();
        // Round-tripping through JSON must not introduce drift.
        let report = DriftReport::diff(&s, &back, &DoctorConfig::default());
        assert!(
            !report.has_drift(),
            "round-trip drifted: {:?}",
            report.gating().collect::<Vec<_>>()
        );
    }
}
