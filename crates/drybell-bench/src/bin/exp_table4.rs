//! Table 4: ablation — equal LF weights vs the generative model.
//!
//! "We also measured the importance of using the generative model to
//! estimate the weights of the labeling function votes by training an
//! identical logistic regression classifier giving equal weight to all
//! the labeling functions ... using the generative model ... leads to a
//! 4.8% average performance improvement."

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::ContentTask;
use drybell_ml::metrics::RelativeMetrics;

fn print_task<X: Sync + Send>(task: &ContentTask<X>) -> f64 {
    let mut report = task.run_full(None);
    let equal = report.equal_weights();
    let lift = report.drybell.f1() / equal.f1().max(1e-12) - 1.0;
    let equal_rel = RelativeMetrics::versus(&equal, &report.baseline);
    let full_rel = RelativeMetrics::versus(&report.drybell, &report.baseline);
    println!("{}", task.name);
    println!(
        "  {:<24} {:>8} {:>8} {:>8} {:>8}",
        "relative:", "P", "R", "F1", "Lift"
    );
    println!("  {:<24} {}", "Equal Weights", equal_rel.row());
    println!(
        "  {:<24} {} {:>+7.1}%",
        "+ Generative Model",
        full_rel.row(),
        lift * 100.0
    );
    println!();
    lift
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "== Table 4: equal weights vs generative model (scale {}) ==\n",
        args.scale
    );
    let topic = ContentTask::topic(args.scale, args.seed, args.workers);
    let l1 = print_task(&topic);
    let product = ContentTask::product(args.scale, args.seed, args.workers);
    let l2 = print_task(&product);
    println!(
        "Average lift from generative weighting: {:+.1}%",
        50.0 * (l1 + l2)
    );
    println!();
    println!("Paper: Topic equal 54.1/163.7/109.0 -> gen 100.6/132.1/117.5 (+7.7%)");
    println!("       Product equal 94.3/110.9/103.2 -> gen 99.2/110.1/105.2 (+1.9%)");
    println!("       Average +4.8%");
}
