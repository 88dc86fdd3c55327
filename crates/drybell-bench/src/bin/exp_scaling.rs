//! §1 scaling claim: "implementing weak supervision over 6M+ data points
//! with sub-30min execution time."
//!
//! Runs the faithful sharded pipeline end-to-end on the product task:
//! write the corpus to sharded record files, execute all eight LFs
//! shard-to-shard with per-worker NLP model servers, fit the sampling-free
//! generative model, and write probabilistic labels back out. Reports
//! per-stage wall-clock and the extrapolated time for the paper's 6.5M
//! examples.
//!
//! `--journal <path>` writes the run as a JSONL journal (per-phase
//! `phase` events, the `lf_execution` job summary, `train_epoch` lines,
//! and a closing `scaling` event); `--json` renders the report and the
//! telemetry snapshot as one JSON document instead of text.

use drybell_bench::args::ExpArgs;
use drybell_bench::harness::{fit_label_model, label_model_config};
use drybell_dataflow::{write_all, JobConfig, ShardSpec};
use drybell_datagen::product;
use drybell_lf::executor::{execute_sharded_observed, ExecOptions};
use drybell_obs::Json;
use std::time::Instant;

fn main() {
    let args = ExpArgs::parse();
    let telemetry = args.telemetry_or_exit();
    let _live = telemetry.as_ref().and_then(|t| args.serve_live_or_exit(t));
    let say = |line: String| {
        if !args.json {
            println!("{line}");
        }
    };
    let mut cfg = product::ProductTaskConfig::scaled(args.scale);
    if let Some(s) = args.seed {
        cfg.seed = s;
    }
    say(format!(
        "== §1 scaling: sharded pipeline over {} product examples ==\n",
        cfg.num_unlabeled
    ));

    let t0 = Instant::now();
    let ds = product::generate(&cfg);
    let gen_s = t0.elapsed().as_secs_f64();
    say(format!("generate corpus:        {gen_s:>8.1}s"));

    let dir = tempfile::tempdir().expect("tempdir");
    let shards = (args.workers * 4).max(8);
    let input = ShardSpec::new(dir.path(), "docs", shards);
    let t1 = Instant::now();
    write_all(&input, &ds.unlabeled).expect("write shards");
    let write_s = t1.elapsed().as_secs_f64();
    say(format!(
        "write sharded dataset:  {write_s:>8.1}s  ({shards} shards)"
    ));

    let set = product::lf_set(ds.kg.clone());
    let ext = product::text_extractor();
    let output = input.derive("votes");
    let job = JobConfig::new("product-lfs").with_workers(args.workers);
    let mut opts = ExecOptions::new();
    if let Some(t) = &telemetry {
        opts = opts.with_telemetry(t.clone());
    }
    let t2 = Instant::now();
    let (matrix, stats, _) =
        execute_sharded_observed(&set, Some(&ext), &input, &output, &job, |d| d.id, &opts)
            .expect("LF execution");
    let lf_s = t2.elapsed().as_secs_f64();
    say(format!(
        "execute 8 LFs:          {lf_s:>8.1}s  ({:.0} examples/s, {} workers, {} NLP calls)",
        stats.throughput(),
        stats.workers,
        stats.counters.get("nlp_calls")
    ));

    let t3 = Instant::now();
    let (model, report) =
        fit_label_model(&matrix, &label_model_config(cfg.seed), telemetry.as_ref());
    let fit_s = t3.elapsed().as_secs_f64();
    say(format!(
        "fit generative model:   {fit_s:>8.1}s  ({:.0} steps/s)",
        report.steps_per_sec
    ));

    let t4 = Instant::now();
    let posteriors = model.predict_proba(&matrix);
    let labels_spec = input.derive("labels");
    let label_records: Vec<(u64, f64)> = posteriors
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u64, p))
        .collect();
    write_all(&labels_spec, &label_records).expect("write labels");
    let post_s = t4.elapsed().as_secs_f64();
    say(format!("write training labels:  {post_s:>8.1}s"));

    let total = gen_s + write_s + lf_s + fit_s + post_s;
    let pipeline = write_s + lf_s + fit_s + post_s; // excludes synthetic datagen
    let rate = cfg.num_unlabeled as f64 / pipeline;
    let full_est = 6_500_000.0 / rate / 60.0;

    if let Some(t) = &telemetry {
        t.emit(
            drybell_obs::Event::new("scaling")
                .field("examples", cfg.num_unlabeled as u64)
                .field("generate_s", gen_s)
                .field("write_s", write_s)
                .field("lf_s", lf_s)
                .field("fit_s", fit_s)
                .field("labels_s", post_s)
                .field("pipeline_s", pipeline)
                .field("throughput", rate)
                .field("est_minutes_6_5m", full_est),
        );
        if let Some(journal) = t.journal() {
            journal.flush().expect("flush journal");
        }
    }

    if args.json {
        let mut doc = vec![
            ("examples", Json::from(cfg.num_unlabeled)),
            (
                "stages",
                Json::obj(vec![
                    ("generate_s", Json::from(gen_s)),
                    ("write_s", Json::from(write_s)),
                    ("lf_s", Json::from(lf_s)),
                    ("fit_s", Json::from(fit_s)),
                    ("labels_s", Json::from(post_s)),
                ]),
            ),
            ("total_s", Json::from(total)),
            ("pipeline_s", Json::from(pipeline)),
            ("throughput", Json::from(rate)),
            ("est_minutes_6_5m", Json::from(full_est)),
        ];
        if let Some(t) = &telemetry {
            doc.push(("telemetry", t.report_json()));
        }
        println!("{}", Json::obj(doc).to_pretty());
        return;
    }

    say(format!(
        "\ntotal:                  {total:>8.1}s  (pipeline only: {pipeline:.1}s)"
    ));
    say(format!(
        "pipeline throughput:    {rate:>8.0} examples/s -> est. {full_est:.1} min for 6.5M"
    ));
    say("\nPaper: 6M+ data points weakly supervised with sub-30min execution".to_string());
    say("time on Google's distributed environment.".to_string());
}
