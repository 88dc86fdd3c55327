//! The telemetry layer's own cost, held to fixed ceilings.
//!
//! The topic task's LF execution (`ContentTask::run_lfs`) and label-model
//! fit (`fit_label_model`) run plain (no telemetry) and observed against
//! one telemetry bundle carrying
//! metrics, spans, a JSONL run journal and a live snapshot endpoint
//! (`LiveServer` on `127.0.0.1:0`), so the ceilings hold with everything
//! a `--journal --live` run attaches.
//!
//! * **Equality** — observing must not change what is computed: the
//!   observed label matrix equals the plain one, and the observed fit's
//!   parameters are bit-equal to the plain fit's.
//! * **Journal fold** — the doctor folds the journal into a summary whose
//!   `examples` is the corpus size.
//! * **Ceilings** (optimised builds only; a debug build's timings say
//!   nothing about the release code) — observed LF execution costs at
//!   most [`LF_CEILING_PCT`] more than plain, the observed fit at most
//!   [`TRAIN_CEILING_PCT`] more. Each is the median of [`PAIRS`]
//!   alternated plain/observed runs against the median of the other
//!   side, so a host that slows down mid-test slows both.
//!
//! Run the ceilings with `cargo test --release -p drybell-bench --test
//! obs_overhead -- --nocapture` (the percentages are printed).

use drybell_bench::harness::{fit_label_model, label_model_config, ContentTask};
use drybell_core::GenerativeModel;
use drybell_obs::{LiveServer, RunJournal, Telemetry};
use std::io::{Read, Write};
use std::time::Instant;

/// Most that observed LF execution may cost over plain, in percent.
const LF_CEILING_PCT: f64 = 5.0;

/// Most that an observed label-model fit may cost over plain, in percent.
const TRAIN_CEILING_PCT: f64 = 10.0;

/// Alternated plain/observed runs per phase. Many short runs rather than
/// a few long ones: a burst of load on the host then spoils a few samples
/// the median ignores, not the whole estimate.
const PAIRS: usize = 41;

/// Corpus scale: 13 680 topic documents (~0.15 s of LF execution and
/// ~0.08 s of training a run on one core) in the timed build, 684 in the
/// debug build, which checks only equality and the journal fold.
const SCALE: f64 = if cfg!(debug_assertions) { 0.001 } else { 0.02 };

/// One worker: the overhead is a cost per example, and a second worker
/// on a small host times the neighbours as much as the code.
const WORKERS: usize = 1;

/// Every learned parameter of `model` as bit patterns.
fn param_bits(model: &GenerativeModel) -> Vec<u64> {
    let params = model.alphas().iter().chain(model.betas());
    params
        .chain(std::iter::once(&model.eta()))
        .map(|x| x.to_bits())
        .collect()
}

/// Wall seconds of `f`.
fn seconds<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// What `observed` costs over `plain`, in percent: the median of
/// [`PAIRS`] alternated runs of each.
fn overhead_pct<A, B>(mut plain: impl FnMut() -> A, mut observed: impl FnMut() -> B) -> f64 {
    let (mut plain_s, mut observed_s) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        plain_s.push(seconds(&mut plain));
        observed_s.push(seconds(&mut observed));
    }
    100.0 * (median(observed_s) / median(plain_s) - 1.0)
}

#[test]
fn telemetry_overhead_stays_under_its_ceilings_with_a_live_endpoint() {
    let task = ContentTask::topic(SCALE, None, WORKERS);
    let dir = tempfile::tempdir().unwrap();
    let journal_path = dir.path().join("run.jsonl");
    let telemetry = Telemetry::with_journal(RunJournal::to_path(&journal_path).unwrap());
    let live = LiveServer::bind("127.0.0.1:0", &telemetry).unwrap();

    let run_lfs = |telemetry| task.run_lfs(&task.unlabeled, telemetry);
    let (plain, _) = run_lfs(None);
    let (observed, _) = run_lfs(Some(&telemetry));
    assert_eq!(observed, plain, "observing changed the label matrix");
    let cfg = label_model_config(task.seed);
    let fit = |telemetry| fit_label_model(&plain, &cfg, telemetry).0;
    assert_eq!(
        param_bits(&fit(Some(&telemetry))),
        param_bits(&fit(None)),
        "observing changed the fitted parameters"
    );

    if !cfg!(debug_assertions) {
        let lf_pct = overhead_pct(|| run_lfs(None), || run_lfs(Some(&telemetry)));
        let train_pct = overhead_pct(|| fit(None), || fit(Some(&telemetry)));
        println!("telemetry overhead: lf {lf_pct:+.2}%  train {train_pct:+.2}%");
        assert!(
            lf_pct <= LF_CEILING_PCT,
            "observed LF execution costs {lf_pct:.2}% over plain (ceiling {LF_CEILING_PCT}%)"
        );
        assert!(
            train_pct <= TRAIN_CEILING_PCT,
            "observed training costs {train_pct:.2}% over plain (ceiling {TRAIN_CEILING_PCT}%)"
        );
    }

    // The endpoint served the whole time: it still answers a scrape.
    let mut sock = std::net::TcpStream::connect(live.local_addr()).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    sock.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200"), "{body}");

    telemetry.journal().unwrap().flush().unwrap();
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let summary = drybell_doctor::RunSummary::from_journal_str(&text).unwrap();
    assert_eq!(summary.examples as usize, task.unlabeled.len());
}
