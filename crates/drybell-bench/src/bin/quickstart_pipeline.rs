//! End-to-end quickstart: the smallest run that exercises every
//! telemetry surface the doctor reads.
//!
//! Generates the topic task, executes the LFs through the *sharded*
//! dataflow path (so job/phase events and per-LF vote + degradation
//! counters are journaled), composes the rest of the pipeline on those
//! votes (generative label model, end model), journals the LF
//! diagnostics report, stages the discriminative model
//! it behind a shadowed candidate (journaling both score
//! distributions), and writes the `--summary` RunSummary for
//! `doctor baseline` / `doctor check`.
//!
//! ```text
//! quickstart_pipeline --scale 0.02 --seed 7 --summary results/run.json
//! quickstart_pipeline --scale 0.02 --seed 7 --nlp-outage 0.35 --summary results/outage.json
//! ```
//!
//! `--nlp-outage <rate>` injects a seeded, deterministic NLP-service
//! outage (`FaultPlan::with_nlp_error_rate`): the NLP LFs degrade to
//! abstain on the affected examples, which is exactly the §3.3 failure
//! mode the doctor exists to flag.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::ContentTask;
use drybell_core::analysis::LfReport;
use drybell_dataflow::{write_all, FaultPlan, JobConfig, ShardSpec};
use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry};
use drybell_lf::executor::{execute_sharded_observed, ExecOptions};
use drybell_serving::{ExportedModel, ModelSpec, ScoreInput, ServingRegistry, ShadowEval};

const TASK: &str = "quickstart";

fn main() {
    let args = ExpArgs::parse();
    let telemetry = args.telemetry_or_exit();
    let _live = telemetry.as_ref().and_then(|t| args.serve_live_or_exit(t));
    if let Some(t) = &telemetry {
        args.emit_header(t, TASK);
    }

    // The whole run's span, around the stage spans below
    // (lf_exec/sharded, job/*, train/fit).
    let run_span = telemetry.as_ref().map(|t| t.span("run"));

    let task = ContentTask::topic(args.scale, args.seed, args.workers);
    let lf_names: Vec<String> = task
        .lf_set
        .lfs()
        .iter()
        .map(|lf| lf.metadata().name.clone())
        .collect();

    // Stage 1: sharded LF execution (journal: phase/job events and the
    // lf_execution event; job counters: votes, degradations, cache
    // traffic).
    let dir = tempfile::tempdir().expect("tempdir");
    let input = ShardSpec::new(dir.path(), "docs", 4);
    write_all(&input, &task.unlabeled).expect("write input shards");
    let output = input.derive("votes");
    let job = JobConfig::new("quickstart-lfs").with_workers(args.workers);
    let mut opts = ExecOptions::new().with_nlp_cache(4096);
    if let Some(t) = &telemetry {
        opts = opts.with_telemetry(t.clone());
    }
    if let Some(rate) = args.nlp_outage {
        opts = opts.with_nlp_faults(FaultPlan::seeded(task.seed).with_nlp_error_rate(rate));
    }
    let (matrix, stats, lf_stats) = execute_sharded_observed(
        &task.lf_set,
        task.text.as_ref(),
        &input,
        &output,
        &job,
        |d| d.id,
        &opts,
    )
    .expect("sharded LF execution");
    eprintln!(
        "lf execution: {} examples in {:.2}s over {} workers",
        stats.records_in, stats.seconds, stats.workers
    );

    // Stage 2: the rest of the pipeline on those votes: the generative
    // label model (journal: train_epoch/train) and the end models.
    let mut run = task.compose(matrix, lf_stats, telemetry.as_ref());

    // Stage 3: LF diagnostics — §3.3's monitored statistics, journaled
    // as an lf_report event and exported as registry-named gauges.
    let report =
        LfReport::build(&run.matrix, &run.label_model, &lf_names, None).expect("lf report");
    if let Some(t) = &telemetry {
        if let Some(journal) = t.journal() {
            report.emit_to(journal);
        }
        report.export_to(t.metrics());
    }

    // Stage 4: discriminative model + shadowed candidate. The serving
    // incumbent is the composition's DryBell model, trained on the full
    // iteration budget; the candidate on half — a deterministic stand-in
    // for "the next model version".
    let candidate_lr = run.drybell_lr_with(task.lr_iterations / 2);

    let mut spaces = SpaceRegistry::new();
    spaces
        .register(FeatureSpace::servable("hashed-text", 40))
        .expect("feature space");
    let hashed = spaces.lookup("hashed-text").expect("registered above");
    let mut registry = ServingRegistry::new(spaces, 10_000);
    if let Some(t) = &telemetry {
        registry = registry.with_telemetry(t);
    }
    registry
        .stage(ModelSpec {
            name: TASK.into(),
            version: 1,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(run.drybell_lr.clone()),
        })
        .expect("stage v1");
    registry
        .stage(ModelSpec {
            name: TASK.into(),
            version: 2,
            feature_spaces: vec![hashed],
            model: ExportedModel::LogReg(candidate_lr),
        })
        .expect("stage v2");
    registry.promote(TASK, 1).expect("promote v1");

    let mut shadow = ShadowEval::new(&registry, TASK, 2).expect("shadow v2");
    let hasher = FeatureHasher::new(task.hash_dims);
    for doc in &task.test {
        let x = (task.featurizer)(doc, &hasher);
        shadow
            .observe(ScoreInput::Sparse(&x))
            .expect("shadow scoring");
    }
    // Dropping the evaluator drains its thread-locally batched scoring
    // latencies into the registry before anything snapshots metrics.
    let shadow_report = shadow.report().clone();
    drop(shadow);
    if let Some(t) = &telemetry {
        if let Some(journal) = t.journal() {
            shadow_report.emit_to(journal);
            // The end-model quality signal the doctor gates on.
            run.emit_to(journal);
        }
    }

    // Close the run span before the metrics report is rendered, so the
    // report and the summary carry it.
    drop(run_span);

    if args.json {
        if let Some(t) = &telemetry {
            println!("{}", t.report_json().to_pretty());
        }
    } else {
        println!(
            "quickstart: {} examples, drybell f1 {:.4}, shadow flip rate {:.4}",
            run.matrix.num_examples(),
            run.drybell.f1(),
            shadow_report.flip_rate()
        );
        println!("{}", report.to_table());
    }

    if let Some(t) = &telemetry {
        if let Some(journal) = t.journal() {
            journal.flush().expect("flush journal");
        }
        args.write_summary_or_exit(t);
    }
}
