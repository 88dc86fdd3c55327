//! The topic-classification case study (§3.1) end to end, at a small
//! scale: generate the corpus, run the ten LFs (URL heuristics, NER,
//! topic model, crawl table, related classifier), denoise, train, and
//! compare against the dev-set baseline.
//!
//! ```bash
//! cargo run --release --example topic_classification
//! ```

use drybell::core::LfReport;
use drybell_bench::harness::ContentTask;

fn main() {
    let scale = 0.02; // ~13.7K unlabeled docs; try 1.0 for the paper's 684K
    println!("building topic task at scale {scale}...");
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let task = ContentTask::topic(scale, None, workers);

    let report = task.run_full(None);
    println!(
        "\nLF execution: {} docs in {:.1}s ({} NLP model-server calls)",
        report.lf_stats.examples, report.lf_stats.seconds, report.lf_stats.nlp_calls
    );

    let diag = LfReport::build(
        &report.matrix,
        &report.label_model,
        &task.lf_set.names(),
        None,
    )
    .expect("diagnostics");
    println!("\nLF diagnostics (learned from agreements alone — no labels):");
    print!("{}", diag.to_table());

    let (gen_rel, db_rel) = report.table2_rows();
    println!("\nrelative to the dev-set-trained baseline (P / R / F1):");
    println!("  generative model only : {}", gen_rel.row());
    println!("  Snorkel DryBell       : {}", db_rel.row());
    println!(
        "\nDryBell lift over hand-labeled baseline: {:+.1}% F1",
        db_rel.lift() * 100.0
    );
}
