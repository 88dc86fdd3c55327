//! Table 2: evaluation of Snorkel DryBell on the content classification
//! tasks, optimizing for F1.
//!
//! Reports precision/recall/F1 *relative to the baseline of training the
//! discriminative classifier directly on the hand-labeled development
//! set*, for (a) the generative model used directly as a classifier and
//! (b) the full DryBell pipeline (LR trained on probabilistic labels) —
//! the paper's exact presentation.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::{ContentReport, ContentTask};

fn print_task<X: Sync + Send>(name: &str, report: &ContentReport<X>) {
    let (gen_rel, db_rel) = report.table2_rows();
    println!("{name}");
    println!(
        "  absolute baseline: P={:.3} R={:.3} F1={:.3}",
        report.baseline.precision(),
        report.baseline.recall(),
        report.baseline.f1()
    );
    println!(
        "  {:<28} {:>8} {:>8} {:>8} {:>8}",
        "relative:", "P", "R", "F1", "Lift"
    );
    println!(
        "  {:<28} {} {:>+7.1}%",
        "Generative Model Only",
        gen_rel.row(),
        gen_rel.lift() * 100.0
    );
    println!(
        "  {:<28} {} {:>+7.1}%",
        "Snorkel DryBell",
        db_rel.row(),
        db_rel.lift() * 100.0
    );
    // Timing goes to stderr, so stdout is the same on every run.
    eprintln!(
        "  LF execution: {} examples in {:.1}s ({:.0}/s)",
        report.lf_stats.examples,
        report.lf_stats.seconds,
        report.lf_stats.throughput()
    );
    println!();
}

fn main() {
    let args = ExpArgs::parse();
    // `--journal <path>`: both tasks append to one JSONL journal
    // (`lf_execution`, `train_epoch`, `train`, `content_report` events).
    let telemetry = args.telemetry_or_exit();
    let _live = telemetry.as_ref().and_then(|t| args.serve_live_or_exit(t));
    println!(
        "== Table 2: relative P/R/F1 vs dev-set baseline (scale {}) ==\n",
        args.scale
    );
    let topic = ContentTask::topic(args.scale, args.seed, args.workers);
    print_task(topic.name, &topic.run_full(telemetry.as_ref()));
    let product = ContentTask::product(args.scale, args.seed, args.workers);
    print_task(product.name, &product.run_full(telemetry.as_ref()));
    if let Some(journal) = telemetry.as_ref().and_then(|t| t.journal()) {
        journal.flush().expect("flush journal");
    }
    println!("Paper: Topic  gen-only 84.4/101.7/93.9 (-6.1%), DryBell 100.6/132.1/117.5 (+17.5%)");
    println!("       Product gen-only 103.8/102.0/102.7 (+2.7%), DryBell 99.2/110.1/105.2 (+5.2%)");
}
