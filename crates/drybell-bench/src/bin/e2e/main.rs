//! The repository's one benchmark: the whole path, four workloads.
//!
//! ```text
//! e2e --workload <product_batch|events_wide|topic_stream|serve_hotswap>
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One run is one workload. With `--trace 0` it measures the end-to-end
//! metrics with no tracing; with `--trace 1` it is the separate traced run
//! that records spans around every call into a layer, runs the per-layer
//! probes, writes a Chrome trace file, and reports the per-layer metrics.
//! Either way it checks the workload's outputs and exits non-zero when a
//! check fails. The last line of standard output is the result object
//! BENCHMARK.json's contract describes; the lines before it are for people.
//!
//! See `README.md` beside this file for what each metric means on each
//! workload, which layer metric should move which end-to-end metric, and
//! the public functions this benchmark depends on. It calls only the layer
//! crates' public functions and times them from outside.

mod common;
mod events_wide;
mod host;
mod metrics;
mod probes;
mod product_batch;
mod serve_hotswap;
mod stats;
mod topic_stream;
mod trace;

use common::{Outcome, Run, Size};
use host::WorkDir;
use metrics::{Metric, END_TO_END};
use stats::Reps;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: &[&str] = &[
    "product_batch",
    "events_wide",
    "topic_stream",
    "serve_hotswap",
];

/// `--seconds` when not given: BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload at `size` and return its outcome; on the traced run
/// also run the probes, fold in the tracer's own cost, and write the span
/// file to `trace_path`.
fn run_workload(
    args: &Args,
    size: Size,
    work: &WorkDir,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        size,
        tracer: &tracer,
        work,
    };
    let mut out = match args.workload.as_str() {
        "product_batch" => product_batch::run(&run),
        "events_wide" => events_wide::run(&run),
        "topic_stream" => topic_stream::run(&run),
        "serve_hotswap" => serve_hotswap::run(&run),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if args.trace {
        let spans = tracer.spans();
        let window_us: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_us - s.start_us)
            .sum();
        out.layer.insert("trace.spans", spans.len() as f64);
        out.layer.insert(
            "trace.overhead_pct",
            100.0 * spans.len() as f64 * probes::span_cost_us() / window_us.max(1.0),
        );
        println!("ledger (self time by layer over the traced window):");
        for (layer, self_s) in trace::ledger(&spans) {
            println!(
                "  {layer:<10} {self_s:>10.4} s  {:>5.1}%",
                100.0 * self_s * 1e6 / window_us.max(1.0)
            );
        }
        std::fs::write(trace_path, trace::chrome_trace_json(&spans))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        println!("span file: {}", trace_path.display());
        probes::run(&run, &mut out.layer)?;
    }
    Ok(out)
}

/// The end-to-end metrics of `out`, in table order.
fn end_to_end_values(out: &Outcome) -> Result<Vec<(Metric, f64)>, String> {
    let setup = Reps::of(&out.setup_s).ok_or("the workload reported no set-up time")?;
    let peak_rss_mb = host::peak_rss_mb()?;
    END_TO_END
        .iter()
        .map(|(metric, _)| {
            let value = match metric.name {
                "setup_s" => setup.median,
                "examples_per_s" => out.examples_per_s,
                "cpu_us_per_example" => out.cpu_us_per_example,
                "result_p50_ms" => out.result_p50_ms,
                "result_tail_ms" => out.result_tail_ms,
                "peak_rss_mb" => peak_rss_mb,
                other => return Err(format!("no value for end-to-end metric {other}")),
            };
            Ok((*metric, value))
        })
        .collect()
}

/// Print the human-readable report and the result line; `Ok(true)` when
/// the run is correct.
fn report(args: &Args, out: &Outcome) -> Result<bool, String> {
    println!(
        "workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    if let Some(setup) = Reps::of(&out.setup_s) {
        println!(
            "noise setup_s: reps={} min={:.4} median={:.4} max={:.4}",
            setup.count, setup.min, setup.median, setup.max
        );
    }
    for (key, value) in &out.noise {
        println!("noise {key}: {value}");
    }
    for (name, sum) in &out.checksums {
        println!("checksum {name} = {sum:016x}");
    }
    for check in &out.checks {
        let verdict = if check.ok { "ok  " } else { "FAIL" };
        println!("check {verdict} {} ({})", check.name, check.detail);
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("failed_share = {failed_share} ratio");

    let values = if args.trace {
        metrics::per_layer_values(&out.layer)?
    } else {
        end_to_end_values(out)?
    };
    for (metric, value) in &values {
        let better = metric.better.word();
        println!(
            "{} = {} {} ({better} is better)",
            metric.name, value, metric.unit
        );
    }
    let finite = values.iter().all(|(_, v)| v.is_finite());
    if !finite {
        println!("check FAIL every metric is a finite number");
    }
    let correct = finite && out.attempted > 0 && out.checks.iter().all(|c| c.ok);
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &values)
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let label = format!("e2e-{}-{}", args.workload, args.seed);
    let work = WorkDir::create(&label)?;
    let trace_path =
        std::path::Path::new(host::WORK_ROOT).join(format!("trace-{}.json", args.workload));
    let out = run_workload(&args, Size::Full, &work, &trace_path)?;
    report(&args, &out)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: an output check failed");
            ExitCode::from(2)
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drybell_obs::json::{self, Json};
    use metrics::PER_LAYER;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: DEFAULT_SECONDS,
            trace,
        }
    }

    /// Run `workload` at 1/50 size, untraced and traced, and hold both
    /// result sets to the contract: every metric of the table present,
    /// finite and unit-tagged, every output check passing.
    fn smoke(workload: &str) {
        for trace in [false, true] {
            let args = args(workload, trace);
            let work = WorkDir::create(&format!("smoke-{workload}-{}", u8::from(trace))).unwrap();
            let trace_path = work.path().join("trace.json");
            let out = run_workload(&args, Size::Smoke, &work, &trace_path).unwrap();
            for check in &out.checks {
                assert!(check.ok, "{workload}: {} ({})", check.name, check.detail);
            }
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            let values = if trace {
                metrics::per_layer_values(&out.layer).unwrap()
            } else {
                end_to_end_values(&out).unwrap()
            };
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(values.len(), expected);
            for (metric, value) in &values {
                assert!(value.is_finite(), "{workload}: {} = {value}", metric.name);
                assert!(!metric.unit.is_empty(), "{workload}: {}", metric.name);
                // End-to-end metrics are never 0: bounds are shares of them.
                assert!(
                    trace || *value > 0.0,
                    "{workload}: {} = {value}",
                    metric.name
                );
            }
            if trace {
                // Probe metrics are measured whatever the workload.
                for name in ["nlp.annotate_us_per_doc", "serving.kernel_batch_rows_per_s"] {
                    assert!(out.layer[name] > 0.0, "{workload}: {name}");
                }
                let spans = json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
                assert!(!spans.get("traceEvents").unwrap().items().is_empty());
            }
            let line = metrics::result_line(true, out.attempted, out.failed, &values);
            let parsed = json::parse(&line).unwrap();
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            for (metric, _) in &values {
                let entry = parsed.get("metrics").unwrap().get(metric.name).unwrap();
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            }
        }
    }

    #[test]
    fn product_batch_smoke() {
        smoke("product_batch");
    }

    #[test]
    fn events_wide_smoke() {
        smoke("events_wide");
    }

    #[test]
    fn topic_stream_smoke() {
        smoke("topic_stream");
    }

    #[test]
    fn serve_hotswap_smoke() {
        smoke("serve_hotswap");
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_owned));
        assert_eq!(
            parse("--workload events_wide --seed 9 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "events_wide".to_owned(),
                seed: 9,
                seconds: 10.0,
                trace: true
            })
        );
        assert_eq!(
            parse("--workload topic_stream"),
            Ok(args("topic_stream", false)).map(|a| Args { seed: 1, ..a })
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload events_wide --trace yes").is_err());
        assert!(parse("--workload events_wide --seconds 0").is_err());
        assert!(parse("--workload events_wide --scale 2").is_err());
    }

    /// The checkout's root, found from whichever manifest built this test
    /// (`drybell-bench`'s or this directory's own).
    fn repo_root() -> std::path::PathBuf {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        }
        dir
    }

    /// The lines of `manifest`'s `[header]` table, comments and blanks
    /// dropped.
    fn table(manifest: &str, header: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(str::to_owned)
            .collect()
    }

    /// This directory is built two ways: as `drybell-bench`'s `e2e` binary
    /// (how the workspace's tests run it) and as the package BENCHMARK.json
    /// builds. This holds the second manifest to the first, so the two
    /// cannot drift apart unnoticed: the same dependencies at the same
    /// paths, the same release profile, and BENCHMARK.json naming it.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let root = repo_root();
        let read = |path: &str| std::fs::read_to_string(root.join(path)).unwrap();
        let own = read("crates/drybell-bench/src/bin/e2e/Cargo.toml");
        let bench = read("crates/drybell-bench/Cargo.toml");
        let workspace = read("Cargo.toml");

        let bench_deps = table(&bench, "[dependencies]");
        let workspace_deps = table(&workspace, "[workspace.dependencies]");
        let own_deps = table(&own, "[dependencies]");
        assert!(!own_deps.is_empty());
        for dep in &own_deps {
            let name = dep.split_whitespace().next().unwrap();
            assert!(
                bench_deps.contains(&format!("{name}.workspace = true")),
                "{name} is not a dependency of drybell-bench"
            );
            assert!(
                workspace_deps.contains(&format!("{name} = {{ path = \"crates/{name}\" }}")),
                "{name} is not at crates/{name} in the workspace"
            );
            assert_eq!(
                *dep,
                format!("{name} = {{ path = \"../../../../{name}\" }}")
            );
        }
        assert_eq!(
            table(&own, "[profile.release]"),
            table(&workspace, "[profile.release]")
        );

        let doc = json::parse(&read("BENCHMARK.json")).unwrap();
        let command: Vec<&str> = doc
            .get("command")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert!(command.contains(&"crates/drybell-bench/src/bin/e2e/Cargo.toml"));
        assert!(command.contains(&"--release"));
    }

    /// The README's run sets are kept value by value in `run_sets.json`;
    /// this holds that file to the workloads and metrics there are.
    #[test]
    fn run_sets_cover_every_workload_and_metric() {
        let path = repo_root().join("crates/drybell-bench/src/bin/e2e/run_sets.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for set in ["A", "B"] {
            let set = doc.get("sets").unwrap().get(set).unwrap();
            let runs = set.get("seeds").unwrap().items().len();
            assert_eq!(runs, 10);
            for workload in WORKLOADS {
                let columns = set.get("workloads").unwrap().get(workload).unwrap();
                for (metric, _) in END_TO_END {
                    let values = columns.get(metric.name).unwrap().items();
                    assert_eq!(values.len(), runs, "{workload} {}", metric.name);
                    assert!(values.iter().all(|v| v.as_f64().is_some_and(|v| v > 0.0)));
                }
            }
        }
    }

    /// BENCHMARK.json is written by hand; this holds it to the tables the
    /// program prints from.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc = json::parse(&text).unwrap();
        let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let end_to_end: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let table: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(m, bound)| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.word().to_owned(),
                    *bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, table);

        let per_layer: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .items()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let table: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.word().to_owned(),
                )
            })
            .collect();
        assert_eq!(per_layer, table);
    }
}
