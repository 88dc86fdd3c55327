//! LF diagnostics report (§3.3's workflow).
//!
//! Prints, for each application's labeling functions: coverage, overlap,
//! conflict, the generative model's learned accuracy and propensity, and
//! the empirical accuracy on the dev split — the report the paper
//! describes as "independently useful for identifying previously unknown
//! low-quality sources (which were then either fixed or removed)".
//!
//! `--json` renders the same diagnostics as one machine-readable JSON
//! document instead of text tables.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::{fit_label_model, label_model_config, ContentTask};
use drybell_core::analysis::{LfReport, LfSummary};
use drybell_datagen::events;
use drybell_lf::executor::execute_in_memory;
use drybell_obs::Json;

fn main() {
    let args = ExpArgs::parse();
    let telemetry = args.telemetry_or_exit();
    let _live = telemetry.as_ref().and_then(|t| args.serve_live_or_exit(t));
    if let Some(t) = &telemetry {
        args.emit_header(t, "lf_diagnostics");
    }

    // Topic classification diagnostics, against the dev split.
    let t = ContentTask::topic(args.scale, args.seed, args.workers);
    let (matrix, _) = t.run_lfs(&t.unlabeled, telemetry.as_ref());
    let (model, _) = fit_label_model(&matrix, &label_model_config(t.seed), telemetry.as_ref());
    let (dev_matrix, _) = t.run_lfs(&t.dev, None);
    let topic_report = LfReport::build(
        &matrix,
        &model,
        &t.lf_set.names(),
        Some((&dev_matrix, &t.dev_gold)),
    )
    .expect("report");
    // The doctor-facing surfaces: the lf_report journal event and the
    // registry-named `lf/<name>/*_ppm` gauges.
    if let Some(tel) = &telemetry {
        if let Some(journal) = tel.journal() {
            topic_report.emit_to(journal);
        }
        topic_report.export_to(tel.metrics());
    }
    let topic_low = topic_report.low_quality(0.6);

    // Real-time events diagnostics (no dev split; 140 synthetic LFs),
    // from the label model the events pipeline trains on.
    let cfg = events::EventTaskConfig::scaled(args.scale.min(0.02));
    let ds = events::generate(&cfg);
    let set = events::lf_set(cfg.num_lfs, cfg.seed);
    let (ev_matrix, _) = execute_in_memory(&set, None, &ds.unlabeled, args.workers).expect("exec");
    let (ev_model, _) = fit_label_model(&ev_matrix, &label_model_config(cfg.seed), None);
    let events_report = LfReport::build(&ev_matrix, &ev_model, &set.names(), None).expect("report");
    let events_low = events_report.low_quality(0.55);

    // Dependency screening (Bach et al. 2017-style): nested graph rules
    // should surface as the top excess-agreement pairs.
    let deps = drybell_core::DependencyReport::build(&ev_matrix, 100).expect("deps");
    let names = set.names();

    if args.json {
        let flagged = |low: &[&LfSummary]| {
            Json::Arr(low.iter().map(|s| Json::from(s.name.as_str())).collect())
        };
        let doc = Json::obj(vec![
            (
                "topic",
                Json::obj(vec![
                    ("report", topic_report.to_json()),
                    ("low_quality", flagged(&topic_low)),
                ]),
            ),
            (
                "events",
                Json::obj(vec![
                    ("report", events_report.to_json()),
                    ("low_quality", flagged(&events_low)),
                ]),
            ),
            (
                "dependencies",
                Json::Arr(
                    deps.pairs
                        .iter()
                        .take(5)
                        .map(|p| {
                            Json::obj(vec![
                                ("a", Json::from(names[p.j].as_str())),
                                ("b", Json::from(names[p.k].as_str())),
                                ("observed_agreement", Json::from(p.observed_agreement)),
                                ("expected_agreement", Json::from(p.expected_agreement)),
                                ("excess", Json::from(p.excess())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.to_pretty());
        finalize(&args, telemetry.as_ref());
        return;
    }

    println!("== LF diagnostics: topic classification ==");
    print!("{}", topic_report.to_table());
    if topic_low.is_empty() {
        println!("no low-quality sources flagged (threshold 0.6)\n");
    } else {
        println!(
            "low-quality sources flagged (threshold 0.6): {}\n",
            topic_low
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    println!("== LF diagnostics: real-time events (first 20 of 140 LFs) ==");
    for line in events_report.to_table().lines().take(21) {
        println!("{line}");
    }
    println!(
        "\n{} of {} sources flagged below accuracy 0.55 — §3.3's 'previously",
        events_low.len(),
        set.len()
    );
    println!("unknown low-quality sources' workflow (fix or remove them).");

    println!("\ntop 5 dependency candidates (excess agreement over CI expectation):");
    for p in deps.pairs.iter().take(5) {
        println!(
            "  {:<18} ~ {:<18} observed {:.3} expected {:.3} excess {:+.3}",
            names[p.j],
            names[p.k],
            p.observed_agreement,
            p.expected_agreement,
            p.excess()
        );
    }
    finalize(&args, telemetry.as_ref());
}

/// Flush the journal and honor `--summary`, when telemetry is attached.
fn finalize(args: &ExpArgs, telemetry: Option<&drybell_obs::Telemetry>) {
    if let Some(t) = telemetry {
        if let Some(journal) = t.journal() {
            journal.flush().expect("flush journal");
        }
        args.write_summary_or_exit(t);
    }
}
