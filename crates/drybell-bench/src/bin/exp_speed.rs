//! §5.2 timing: sampling-free optimization vs the Gibbs sampler.
//!
//! "With ten labeling functions and a batch size of 64, the optimizer
//! takes an average > 100 steps per second ... a Gibbs sampler averages
//! < 50 examples per second, so Snorkel DryBell provides a 2× speedup."
//! (Both numbers on a single compute node / single thread.)
//!
//! Both trainers run on the same label matrix (product-task LFs at the
//! paper's 10-LF benchmark setting, batch 64); the binary reports
//! steps/s, examples/s, and the speedup at equal example throughput.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::fit_label_model;
use drybell_core::generative::TrainConfig;
use drybell_core::gibbs::{GibbsConfig, GibbsTrainer};
use drybell_core::LabelMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn main() {
    let args = ExpArgs::parse();
    let examples = ((100_000.0 * args.scale) as usize).max(5_000);
    let lfs = 10; // the paper's benchmark setting
    let steps = 2_000;
    let matrix = planted_matrix(examples, lfs, args.seed.unwrap_or(1));
    println!(
        "== §5.2: sampling-free vs Gibbs ({examples} examples, {lfs} LFs, batch 64, {steps} steps) ==\n"
    );

    let (sf, report) = fit_label_model(
        &matrix,
        &TrainConfig {
            steps,
            batch_size: 64,
            seed: 0,
            ..TrainConfig::default()
        },
        None,
    );
    println!(
        "sampling-free: {:>10.0} steps/s  {:>12.0} examples/s  (final NLL {:.4})",
        report.steps_per_sec,
        report.steps_per_sec * 64.0,
        report.final_nll
    );

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
    println!(
        "gibbs sampler: {:>10.0} steps/s  {:>12.0} examples/s  (final NLL {:.4})",
        greport.steps_per_sec, greport.examples_per_sec, greport.final_nll
    );

    let speedup = report.steps_per_sec / greport.steps_per_sec;
    println!("\nsampling-free speedup over Gibbs: {speedup:.1}x");
    println!("(paper: >100 steps/s vs <50 examples/s on Google hardware; the");
    println!(" absolute rates here are far higher, the *ratio* is the claim)");

    // The two trainers should also agree on what they learned.
    let max_gap = sf
        .learned_accuracies()
        .iter()
        .zip(gibbs.model().learned_accuracies())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max learned-accuracy gap between trainers: {max_gap:.4}");
}
