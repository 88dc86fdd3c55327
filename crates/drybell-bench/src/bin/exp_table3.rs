//! Table 3: ablation — servable LFs only vs all LFs (adding the
//! non-servable organizational resources).
//!
//! "We measured the importance of including non-servable organizational
//! supervision resources by removing all labeling functions that depend
//! on them ... incorporating non-servable Google resources in labeling
//! functions leads to a 52% average performance improvement for the end
//! discriminative classifier."

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::ContentTask;
use drybell_ml::metrics::RelativeMetrics;

fn print_task<X: Sync + Send>(task: &ContentTask<X>) -> f64 {
    let mut report = task.run_full(None);
    let servable = report.servable_only();
    let lift = report.drybell.f1() / servable.f1().max(1e-12) - 1.0;
    let servable_rel = RelativeMetrics::versus(&servable, &report.baseline);
    let full_rel = RelativeMetrics::versus(&report.drybell, &report.baseline);
    println!("{}", task.name);
    println!(
        "  {:<24} {:>8} {:>8} {:>8} {:>8}",
        "relative:", "P", "R", "F1", "Lift"
    );
    println!("  {:<24} {}", "Servable LFs", servable_rel.row());
    println!(
        "  {:<24} {} {:>+7.1}%",
        "+ Non-Servable LFs",
        full_rel.row(),
        lift * 100.0
    );
    println!();
    lift
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "== Table 3: servable-only vs +non-servable LFs (scale {}) ==\n",
        args.scale
    );
    let topic = ContentTask::topic(args.scale, args.seed, args.workers);
    let l1 = print_task(&topic);
    let product = ContentTask::product(args.scale, args.seed, args.workers);
    let l2 = print_task(&product);
    println!(
        "Average lift from non-servable resources: {:+.1}%",
        50.0 * (l1 + l2)
    );
    println!();
    println!("Paper: Topic servable 50.9/159.2/86.1 -> full 100.6/132.1/117.5 (+36.4%)");
    println!("       Product servable 38.0/119.2/62.5 -> full 99.2/110.1/105.2 (+68.2%)");
    println!("       Average +52%");
}
