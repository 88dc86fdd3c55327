//! `doctor` — cross-run drift detection over drybell telemetry.
//!
//! ```text
//! doctor summarize --journal run.jsonl [--metrics m.json] [--lf-report r.json] [--json]
//! doctor baseline  --journal run.jsonl [--out results/BASELINE_run.json]
//! doctor check     --baseline results/BASELINE_run.json --journal run.jsonl [--json]
//! doctor live      127.0.0.1:9800 [--baseline results/BASELINE_run.json]
//! ```
//!
//! Exit codes: `0` clean, `1` drift detected (`check`, `live`), `2` usage
//! or I/O error. Budgets come from `--config <doctor.toml>`, else
//! `./doctor.toml` when present, else the built-in defaults.

// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

use drybell_doctor::{DoctorConfig, DriftReport, RunSummary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
doctor — cross-run drift detection over drybell telemetry journals

USAGE:
    doctor summarize (--journal <p> | --summary <p>) [options]
    doctor baseline  (--journal <p> | --summary <p>) [--out <p>] [options]
    doctor check     --baseline <p> (--journal <p> | --summary <p>) [options]
    doctor live      <addr> [--baseline <p>] [--config <p>] [--json]

INPUT (exactly one of; `live` instead takes an address):
    --journal <path>     drybell-obs JSONL journal to summarize
    --summary <path>     a previously written RunSummary JSON document
    <addr>               a --live snapshot endpoint, e.g. 127.0.0.1:9800

OPTIONS:
    --metrics <path>     merge a metrics snapshot (report_json output)
    --lf-report <path>   merge an LfReport JSON document
    --config <path>      doctor.toml budgets (default: ./doctor.toml if present)
    --out <path>         write the summary JSON here
                         (baseline default: results/BASELINE_run.json)
    --json               print machine-readable output
    --help               this text

EXIT CODES:
    0  clean    1  drift (check, live)    2  usage / I/O error
";

struct Cli {
    command: String,
    journal: Option<PathBuf>,
    summary: Option<PathBuf>,
    metrics: Option<PathBuf>,
    lf_report: Option<PathBuf>,
    baseline: Option<PathBuf>,
    config: Option<PathBuf>,
    out: Option<PathBuf>,
    addr: Option<String>,
    json: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let command = match it.next() {
        Some(c) if c == "--help" || c == "-h" => return Err(String::new()),
        Some(c) => c.clone(),
        None => return Err("missing subcommand".to_string()),
    };
    if !matches!(
        command.as_str(),
        "summarize" | "baseline" | "check" | "live"
    ) {
        return Err(format!("unknown subcommand {command:?}"));
    }
    let mut cli = Cli {
        command,
        journal: None,
        summary: None,
        metrics: None,
        lf_report: None,
        baseline: None,
        config: None,
        out: None,
        addr: None,
        json: false,
    };
    while let Some(flag) = it.next() {
        let mut path_arg = |slot: &mut Option<PathBuf>| -> Result<(), String> {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if slot.is_some() {
                return Err(format!("{flag} given twice"));
            }
            *slot = Some(PathBuf::from(value));
            Ok(())
        };
        match flag.as_str() {
            "--journal" => path_arg(&mut cli.journal)?,
            "--summary" => path_arg(&mut cli.summary)?,
            "--metrics" => path_arg(&mut cli.metrics)?,
            "--lf-report" => path_arg(&mut cli.lf_report)?,
            "--baseline" => path_arg(&mut cli.baseline)?,
            "--config" => path_arg(&mut cli.config)?,
            "--out" => path_arg(&mut cli.out)?,
            "--json" => cli.json = true,
            "--help" | "-h" => return Err(String::new()),
            other if cli.command == "live" && !other.starts_with('-') => {
                if cli.addr.is_some() {
                    return Err("live takes one <addr>".to_string());
                }
                cli.addr = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cli.command == "live" {
        if cli.addr.is_none() {
            return Err("live needs an <addr> like 127.0.0.1:9800".to_string());
        }
        if cli.journal.is_some() || cli.summary.is_some() {
            return Err("live takes an <addr>, not --journal/--summary".to_string());
        }
        return Ok(cli);
    }
    match (&cli.journal, &cli.summary) {
        (None, None) => return Err("need --journal or --summary".to_string()),
        (Some(_), Some(_)) => {
            return Err("--journal and --summary are mutually exclusive".to_string())
        }
        _ => {}
    }
    if cli.command == "check" && cli.baseline.is_none() {
        return Err("check needs --baseline <path>".to_string());
    }
    Ok(cli)
}

fn load_json(path: &Path) -> Result<drybell_obs::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    drybell_obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_summary(cli: &Cli) -> Result<RunSummary, String> {
    let mut summary = if let Some(journal) = &cli.journal {
        let text =
            std::fs::read_to_string(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        RunSummary::from_journal_str(&text).map_err(|e| format!("{}: {e}", journal.display()))?
    } else {
        let path = cli.summary.as_ref().ok_or("need --journal or --summary")?;
        RunSummary::from_json(&load_json(path)?).map_err(|e| format!("{}: {e}", path.display()))?
    };
    if let Some(path) = &cli.metrics {
        summary.merge_metrics_json(&load_json(path)?);
    }
    if let Some(path) = &cli.lf_report {
        summary.merge_lf_report_json(&load_json(path)?);
    }
    Ok(summary)
}

fn load_config(cli: &Cli) -> Result<DoctorConfig, String> {
    if let Some(path) = &cli.config {
        return DoctorConfig::from_path(path).map_err(|e| format!("{}: {e}", path.display()));
    }
    let implicit = Path::new("doctor.toml");
    if implicit.exists() {
        return DoctorConfig::from_path(implicit)
            .map_err(|e| format!("{}: {e}", implicit.display()));
    }
    Ok(DoctorConfig::default())
}

fn write_summary(summary: &RunSummary, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    let mut text = summary.to_json().to_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Pull `/snapshot` from a `--live` endpoint over plain HTTP/1.0.
fn fetch_snapshot(addr: &str) -> Result<drybell_obs::Json, String> {
    use std::io::{Read, Write};
    let timeout = std::time::Duration::from_secs(5);
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("{addr}: bad address: {e}"))?;
    let mut stream =
        std::net::TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("{addr}: {e}"))?;
    stream
        .write_all(format!("GET /snapshot HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: {status}"));
    }
    drybell_obs::parse_json(body).map_err(|e| format!("{addr}: /snapshot: {e}"))
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    if cli.command == "live" {
        let addr = cli
            .addr
            .as_ref()
            .ok_or_else(|| "live: missing <addr> (validated in parse_args)".to_string())?;
        let snapshot = fetch_snapshot(addr)?;
        let mut summary = RunSummary::default();
        summary.merge_metrics_json(&snapshot);
        let Some(baseline_path) = &cli.baseline else {
            // No baseline: render the live process's state as-is.
            if cli.json {
                println!("{}", summary.to_json().to_pretty());
            } else {
                print!("{}", summary.to_text());
            }
            return Ok(ExitCode::SUCCESS);
        };
        let baseline = RunSummary::from_json(&load_json(baseline_path)?)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        let report = DriftReport::diff(&baseline, &summary, &load_config(cli)?);
        if cli.json {
            println!("{}", report.to_json().to_pretty());
        } else {
            print!("{}", report.to_table());
        }
        return Ok(if report.has_drift() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    let summary = load_summary(cli)?;
    match cli.command.as_str() {
        "summarize" => {
            if let Some(out) = &cli.out {
                write_summary(&summary, out)?;
                eprintln!("wrote {}", out.display());
            }
            if cli.json {
                println!("{}", summary.to_json().to_pretty());
            } else {
                print!("{}", summary.to_text());
            }
            Ok(ExitCode::SUCCESS)
        }
        "baseline" => {
            let out = cli
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from("results/BASELINE_run.json"));
            write_summary(&summary, &out)?;
            println!("baseline written to {}", out.display());
            if cli.json {
                println!("{}", summary.to_json().to_pretty());
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => {
            let baseline_path = cli
                .baseline
                .as_ref()
                .ok_or("check needs --baseline <path>")?;
            let baseline = RunSummary::from_json(&load_json(baseline_path)?)
                .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
            let cfg = load_config(cli)?;
            let report = DriftReport::diff(&baseline, &summary, &cfg);
            if let Some(out) = &cli.out {
                write_summary(&summary, out)?;
            }
            if cli.json {
                println!("{}", report.to_json().to_pretty());
            } else {
                print!("{}", report.to_table());
            }
            if report.has_drift() {
                Ok(ExitCode::from(1))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cli) => match run(&cli) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("doctor: {msg}");
                ExitCode::from(2)
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("doctor: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        }
    }
}
