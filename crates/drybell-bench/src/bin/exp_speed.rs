//! §5.2 timing: sampling-free optimization vs the Gibbs sampler, plus a
//! thread-scaling sweep over the parallel label-model hot path.
//!
//! "With ten labeling functions and a batch size of 64, the optimizer
//! takes an average > 100 steps per second ... a Gibbs sampler averages
//! < 50 examples per second, so Snorkel DryBell provides a 2× speedup."
//! (Both numbers on a single compute node / single thread.)
//!
//! Part 1 measures both trainers on the same label matrix (product-task
//! LFs at the paper's 10-LF benchmark setting, batch 64) and reports
//! steps/s, examples/s, and the speedup at equal example throughput.
//!
//! Part 2 sweeps `TrainConfig::num_threads` over {1, 2, 4, 8} on a
//! seeded `1M × 8`-scaled matrix (100k rows at the default `--scale
//! 0.1`), timing full-batch training and posterior inference at each
//! width and checksumming the learned parameters and posteriors to
//! prove the deterministic tree reduction: every thread count must
//! produce byte-identical results. The sweep is written to
//! `results/BENCH_label_model.json` (and to stdout with `--json`) for
//! the `bench-smoke` CI gate and the EXPERIMENTS.md speed table.
//!
//! Part 3 measures the cost of the telemetry layer itself: the same LF
//! execution + label-model fit with telemetry off vs on (metrics,
//! spans, and a JSONL journal), plus the doctor's journal-fold time.
//! Written to `results/BENCH_obs_overhead.json` so the observability
//! stack's overhead is itself a tracked number. With `--live <addr>`
//! the measured telemetry also serves `/metrics` over HTTP while the
//! overhead runs — the `[obs]` gate must hold with the live endpoint
//! attached.

use drybell_bench::args::ExpArgs;
use drybell_bench::bits_checksum;
use drybell_core::generative::{GenerativeModel, TrainConfig};
use drybell_core::gibbs::{GibbsConfig, GibbsTrainer};
use drybell_core::LabelMatrix;
use drybell_obs::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Thread widths the scaling sweep measures.
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Synthesize a planted label matrix with the benchmark shape.
fn planted_matrix(examples: usize, lfs: usize, seed: u64) -> LabelMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let accs: Vec<f64> = (0..lfs).map(|_| rng.gen_range(0.6..0.95)).collect();
    let props: Vec<f64> = (0..lfs).map(|_| rng.gen_range(0.3..0.9)).collect();
    let mut m = LabelMatrix::with_capacity(lfs, examples);
    for _ in 0..examples {
        let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
        let row: Vec<i8> = (0..lfs)
            .map(|j| {
                if !rng.gen_bool(props[j]) {
                    0
                } else if rng.gen_bool(accs[j]) {
                    y
                } else {
                    -y
                }
            })
            .collect();
        m.push_raw_row(&row).expect("row arity");
    }
    m
}

/// One measured point of the thread-scaling sweep.
struct SweepPoint {
    threads: usize,
    fit_rows_per_sec: f64,
    predict_rows_per_sec: f64,
    final_nll: f64,
    params_checksum: u64,
    posterior_checksum: u64,
}

/// Train + infer at one thread width and checksum everything learned.
fn sweep_point(matrix: &LabelMatrix, threads: usize) -> SweepPoint {
    let mut model = GenerativeModel::new(matrix.num_lfs(), 0.7);
    let cfg = TrainConfig {
        steps: 40,
        batch_size: 8_192,
        num_threads: threads,
        seed: 0,
        ..TrainConfig::default()
    };
    let report = model.fit(matrix, &cfg).expect("sweep training");

    let start = Instant::now();
    let posteriors = model.predict_proba_threads(matrix, threads);
    let predict_s = start.elapsed().as_secs_f64();

    let params = model
        .alphas()
        .iter()
        .chain(model.betas())
        .copied()
        .chain(std::iter::once(model.eta()));
    SweepPoint {
        threads,
        fit_rows_per_sec: report.rows_per_sec,
        predict_rows_per_sec: posteriors.len() as f64 / predict_s.max(1e-12),
        final_nll: report.final_nll,
        params_checksum: bits_checksum(params),
        posterior_checksum: bits_checksum(posteriors.into_iter()),
    }
}

fn main() {
    let args = ExpArgs::parse();
    let quiet = args.json;
    let say = |s: String| {
        if !quiet {
            println!("{s}");
        }
    };

    // ---- Part 1: §5.2 sampling-free vs Gibbs (unchanged setting) ------
    let examples = ((100_000.0 * args.scale) as usize).max(5_000);
    let lfs = 10; // the paper's benchmark setting
    let steps = 2_000;
    let matrix = planted_matrix(examples, lfs, args.seed.unwrap_or(1));
    say(format!(
        "== §5.2: sampling-free vs Gibbs ({examples} examples, {lfs} LFs, batch 64, {steps} steps) ==\n"
    ));

    let mut sf = GenerativeModel::new(lfs, 0.7);
    let report = sf
        .fit(
            &matrix,
            &TrainConfig {
                steps,
                batch_size: 64,
                seed: 0,
                ..TrainConfig::default()
            },
        )
        .expect("sampling-free training");
    say(format!(
        "sampling-free: {:>10.0} steps/s  {:>12.0} examples/s  (final NLL {:.4})",
        report.steps_per_sec,
        report.steps_per_sec * 64.0,
        report.final_nll
    ));

    let mut gibbs = GibbsTrainer::new(lfs);
    let greport = gibbs
        .fit(
            &matrix,
            // Chain lengths comparable to the OSS Snorkel sampler's
            // effective per-example sampling work (burn-in plus a few
            // dozen kept samples per gradient estimate).
            &GibbsConfig {
                steps,
                batch_size: 64,
                burn_in: 10,
                samples: 25,
                seed: 0,
                ..GibbsConfig::default()
            },
        )
        .expect("gibbs training");
    say(format!(
        "gibbs sampler: {:>10.0} steps/s  {:>12.0} examples/s  (final NLL {:.4})",
        greport.steps_per_sec, greport.examples_per_sec, greport.final_nll
    ));

    let speedup = report.steps_per_sec / greport.steps_per_sec;
    say(format!("\nsampling-free speedup over Gibbs: {speedup:.1}x"));
    say("(paper: >100 steps/s vs <50 examples/s on Google hardware; the".into());
    say(" absolute rates here are far higher, the *ratio* is the claim)".into());

    // The two trainers should also agree on what they learned.
    let max_gap = sf
        .learned_accuracies()
        .iter()
        .zip(gibbs.model().learned_accuracies())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    say(format!(
        "max learned-accuracy gap between trainers: {max_gap:.4}"
    ));

    // ---- Part 2: thread-scaling sweep over the parallel hot path ------
    let sweep_examples = ((1_000_000.0 * args.scale) as usize).max(5_000);
    let sweep_lfs = 8;
    let sweep_matrix = planted_matrix(sweep_examples, sweep_lfs, args.seed.unwrap_or(1));
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    say(format!(
        "\n== thread scaling: {sweep_examples} examples, {sweep_lfs} LFs, batch 8192 (host parallelism {host_parallelism}) ==\n"
    ));
    say(format!(
        "{:>8} {:>16} {:>16} {:>12} {:>6}",
        "threads", "fit rows/s", "predict rows/s", "speedup", "bytes"
    ));

    let points: Vec<SweepPoint> = SWEEP_THREADS
        .iter()
        .map(|&t| sweep_point(&sweep_matrix, t))
        .collect();
    let base = &points[0];
    let byte_identical = points.iter().all(|p| {
        p.params_checksum == base.params_checksum && p.posterior_checksum == base.posterior_checksum
    });
    for p in &points {
        say(format!(
            "{:>8} {:>16.0} {:>16.0} {:>11.2}x {:>6}",
            p.threads,
            p.fit_rows_per_sec,
            p.predict_rows_per_sec,
            p.fit_rows_per_sec / base.fit_rows_per_sec,
            if p.params_checksum == base.params_checksum
                && p.posterior_checksum == base.posterior_checksum
            {
                "same"
            } else {
                "DIFF"
            }
        ));
    }
    say(format!(
        "\nall thread counts byte-identical: {byte_identical}"
    ));
    assert!(
        byte_identical,
        "parallel training diverged from the single-thread result"
    );

    let doc = Json::obj(vec![
        ("bench", Json::from("label_model")),
        ("examples", Json::from(sweep_examples)),
        ("lfs", Json::from(sweep_lfs)),
        ("batch_size", Json::from(8_192_usize)),
        ("host_parallelism", Json::from(host_parallelism)),
        ("byte_identical", Json::from(byte_identical)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("threads", Json::from(p.threads)),
                            ("rows_per_sec", Json::from(p.fit_rows_per_sec)),
                            ("predict_rows_per_sec", Json::from(p.predict_rows_per_sec)),
                            (
                                "speedup_vs_1",
                                Json::from(p.fit_rows_per_sec / base.fit_rows_per_sec),
                            ),
                            ("final_nll", Json::from(p.final_nll)),
                            (
                                "params_checksum",
                                Json::from(format!("{:016x}", p.params_checksum)),
                            ),
                            (
                                "posterior_checksum",
                                Json::from(format!("{:016x}", p.posterior_checksum)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gibbs_comparison",
            Json::obj(vec![
                (
                    "sampling_free_steps_per_sec",
                    Json::from(report.steps_per_sec),
                ),
                ("gibbs_steps_per_sec", Json::from(greport.steps_per_sec)),
                ("speedup", Json::from(speedup)),
            ]),
        ),
    ]);

    let out_dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let out_path = out_dir.join("BENCH_label_model.json");
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", doc.to_pretty())) {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    say(format!("wrote {}", out_path.display()));

    // ---- Part 3: telemetry overhead (off vs on, plus doctor fold) -----
    let overhead = measure_obs_overhead(&args);
    say(format!(
        "\n== telemetry overhead ({} examples, best of {} runs) ==\n",
        overhead.examples, OVERHEAD_REPS
    ));
    say(format!(
        "lf execution: {:.3}s off, {:.3}s on  ({:+.1}%)",
        overhead.lf_off_s,
        overhead.lf_on_s,
        overhead.lf_overhead_pct()
    ));
    say(format!(
        "label model:  {:.3}s off, {:.3}s on  ({:+.1}%)",
        overhead.train_off_s,
        overhead.train_on_s,
        overhead.train_overhead_pct()
    ));
    say(format!(
        "doctor fold:  {:.4}s over {} journal lines",
        overhead.summarize_s, overhead.journal_lines
    ));
    let overhead_doc = overhead.to_json();
    let overhead_path = out_dir.join("BENCH_obs_overhead.json");
    if let Err(e) = std::fs::write(&overhead_path, format!("{}\n", overhead_doc.to_pretty())) {
        eprintln!("cannot write {}: {e}", overhead_path.display());
        std::process::exit(1);
    }
    say(format!("wrote {}", overhead_path.display()));

    if args.json {
        println!("{}", doc.to_pretty());
        println!("{}", overhead_doc.to_pretty());
    }
}

/// Repetitions for each overhead measurement (best-of to damp noise).
const OVERHEAD_REPS: usize = 3;

/// Measured telemetry overhead: the identical workload with the
/// observability layer disabled and enabled.
struct ObsOverhead {
    examples: usize,
    lf_off_s: f64,
    lf_on_s: f64,
    train_off_s: f64,
    train_on_s: f64,
    summarize_s: f64,
    journal_lines: usize,
}

impl ObsOverhead {
    fn lf_overhead_pct(&self) -> f64 {
        (self.lf_on_s / self.lf_off_s.max(1e-12) - 1.0) * 100.0
    }
    fn train_overhead_pct(&self) -> f64 {
        (self.train_on_s / self.train_off_s.max(1e-12) - 1.0) * 100.0
    }
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::from("obs_overhead")),
            ("examples", Json::from(self.examples)),
            ("reps", Json::from(OVERHEAD_REPS)),
            ("lf_off_s", Json::from(self.lf_off_s)),
            ("lf_on_s", Json::from(self.lf_on_s)),
            ("lf_overhead_pct", Json::from(self.lf_overhead_pct())),
            ("train_off_s", Json::from(self.train_off_s)),
            ("train_on_s", Json::from(self.train_on_s)),
            ("train_overhead_pct", Json::from(self.train_overhead_pct())),
            ("summarize_s", Json::from(self.summarize_s)),
            ("journal_lines", Json::from(self.journal_lines)),
        ])
    }
}

/// Best-of-N wall time of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut out = f();
    best = best.min(start.elapsed().as_secs_f64());
    for _ in 1..reps {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

/// Run the topic LF execution and label-model fit with telemetry off
/// and on, journaling the "on" run, then fold that journal with the
/// doctor's summarizer.
fn measure_obs_overhead(args: &ExpArgs) -> ObsOverhead {
    use drybell_bench::harness::ContentTask;

    let task = ContentTask::topic(args.scale.min(0.05), args.seed, args.workers);
    let dir = tempfile::tempdir().expect("tempdir");
    let journal_path = dir.path().join("overhead.jsonl");
    let telemetry = drybell_obs::Telemetry::with_journal(
        drybell_obs::RunJournal::to_path(&journal_path).expect("journal"),
    );
    // With `--live` the overhead measurement itself serves /metrics:
    // the [obs] budget must hold with the live endpoint attached.
    let _live = args.serve_live_or_exit(&telemetry);

    let (lf_off_s, (matrix, _)) = best_of(OVERHEAD_REPS, || task.run_lfs());
    let (lf_on_s, _) = best_of(OVERHEAD_REPS, || task.run_lfs_observed(Some(&telemetry)));
    let (train_off_s, _) = best_of(OVERHEAD_REPS, || task.fit_label_model(&matrix));
    let (train_on_s, _) = best_of(OVERHEAD_REPS, || {
        task.fit_label_model_observed(&matrix, Some(&telemetry))
    });

    telemetry
        .journal()
        .expect("journal attached")
        .flush()
        .expect("flush");
    let text = std::fs::read_to_string(&journal_path).expect("read journal");
    let (summarize_s, summary) = best_of(OVERHEAD_REPS, || {
        drybell_doctor::RunSummary::from_journal_str(&text).expect("fold journal")
    });
    assert_eq!(summary.examples as usize, task.unlabeled.len());

    ObsOverhead {
        examples: task.unlabeled.len(),
        lf_off_s,
        lf_on_s,
        train_off_s,
        train_on_s,
        summarize_s,
        journal_lines: text.lines().count(),
    }
}
