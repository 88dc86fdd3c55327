//! Figure 5: trade-off between weak supervision and hand-labeled data.
//!
//! Trains the discriminative classifier on increasingly large hand-labeled
//! training sets and reports relative F1 vs the number of labels, together
//! with the (constant) DryBell line. The paper finds crossovers at roughly
//! 80K labels (topic) and 12K labels (product).
//!
//! Sweep points scale with `--scale`; at `--scale 1.0` they match the
//! paper's axis ranges (25K–145K topic, 7K–17K product).

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::ContentTask;

fn sweep<X: Sync + Send>(task: &ContentTask<X>, points: &[usize]) {
    let mut report = task.run_full(None);
    let baseline = report.baseline.f1().max(1e-12);
    let db_rel = report.drybell.f1() / baseline;
    println!("{}", task.name);
    println!(
        "  Snorkel DryBell ({} unlabeled): relative F1 = {:.1}%",
        task.unlabeled.len(),
        db_rel * 100.0
    );
    println!("  {:>12} {:>12} {:>10}", "hand labels", "relative F1", "");
    let mut crossover: Option<usize> = None;
    for &n in points {
        if n > task.unlabeled.len() {
            continue;
        }
        let rel = report.first_n_gold(n).f1() / baseline;
        let marker = if rel >= db_rel { "<= crossover" } else { "" };
        if rel >= db_rel && crossover.is_none() {
            crossover = Some(n);
        }
        println!("  {:>12} {:>11.1}% {:>10}", n, rel * 100.0, marker);
    }
    match crossover {
        Some(n) => println!("  fully-supervised matches DryBell at ~{n} hand labels\n"),
        None => println!("  fully-supervised never reaches DryBell within the sweep\n"),
    }
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "== Figure 5: hand-label trade-off (scale {}) ==\n",
        args.scale
    );
    let s = args.scale;
    // Sweep points as fractions of the unlabeled pool, so the crossover is
    // findable at any --scale. At --scale 1.0 the absolute counts cover
    // the paper's axes (25K–145K topic, 7K–17K product).
    let fractions = [
        0.002, 0.01, 0.03, 0.06, 0.1, 0.15, 0.21, 0.3, 0.5, 0.75, 1.0,
    ];
    let points = |pool: usize| -> Vec<usize> {
        fractions
            .iter()
            .map(|f| ((pool as f64 * f).round() as usize).max(10))
            .collect()
    };
    let topic = ContentTask::topic(s, args.seed, args.workers);
    let pts = points(topic.unlabeled.len());
    sweep(&topic, &pts);
    let product = ContentTask::product(s, args.seed, args.workers);
    let pts = points(product.unlabeled.len());
    sweep(&product, &pts);
    println!("Paper: crossover ~80K labels (topic), ~12K labels (product).");
}
