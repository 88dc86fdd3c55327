//! # drybell-doctor
//!
//! Cross-run observability: turn one run's telemetry (the `drybell-obs`
//! JSONL journal plus optional metrics / LF-report JSON snapshots) into
//! a typed [`RunSummary`], and diff two summaries into a [`DriftReport`]
//! with per-signal verdicts.
//!
//! §3.3 of the DryBell paper is explicit that labeling-function
//! statistics and learned accuracies are *monitored over time*: the
//! organizational resources LFs lean on (NLP servers, topic models,
//! knowledge graphs) evolve underneath them, and a silently degrading
//! source shows up first as a coverage or accuracy shift — not as a test
//! failure. This crate is that feedback loop for the reproduction:
//!
//! * [`summary::RunSummary`] — the diffable digest of one run:
//!   per-phase wall/busy time, straggler ratio, retries, NLP cache hit
//!   rate and degradations, per-LF coverage/overlap/conflict/learned
//!   accuracy, the training loss curve, and the serving score
//!   distribution.
//! * [`drift::DriftReport`] — per-signal verdicts from diffing two
//!   summaries: absolute/relative thresholds for scalars, a
//!   population-stability index ([`psi::psi`]) over histogram buckets
//!   for score and latency distributions, and per-LF deltas, all with
//!   budgets from a checked-in `doctor.toml` ([`config::DoctorConfig`]).
//! * [`monitor::StreamMonitor`] — the in-stream variant: folds live
//!   journal events into rolling windows ([`monitor::WindowFolder`])
//!   and runs the same drift verdicts on each window the moment it
//!   closes, so a degrading upstream resource is flagged within a
//!   bounded number of *events* instead of at the next batch boundary.
//! * `doctor` (the CLI in `src/bin/doctor.rs`) — `doctor baseline`
//!   captures a golden run to `results/BASELINE_run.json`; `doctor
//!   check --baseline …` exits nonzero on budget violations.
//!
//! Journals without a `run_header` event (written before
//! `drybell_obs::journal::SCHEMA_VERSION` existed) are read as schema
//! `0` — old artifacts stay diffable.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod config;
pub mod drift;
pub mod monitor;
pub mod psi;
pub mod summary;

pub use config::DoctorConfig;
pub use drift::{BudgetKind, DriftReport, Status, Verdict};
pub use monitor::{StreamMonitor, WindowFolder, WindowVerdict};
pub use psi::psi;
pub use summary::{LfSignals, PhaseSummary, RunSummary, TrainSummary, SUMMARY_SCHEMA};

/// Everything that can go wrong ingesting telemetry artifacts.
#[derive(Debug)]
pub enum DoctorError {
    /// Reading an artifact from disk failed.
    Io(std::io::Error),
    /// A journal line (1-based) failed to parse as JSON.
    BadJournalLine {
        /// 1-based line number within the journal.
        line: usize,
        /// The parser's diagnosis.
        source: drybell_obs::JsonError,
    },
    /// A JSON document failed to parse.
    BadJson(drybell_obs::JsonError),
    /// A summary document parsed but does not look like a [`RunSummary`].
    BadSummary(String),
    /// A `doctor.toml` budget file is malformed.
    BadConfig(String),
}

impl std::fmt::Display for DoctorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoctorError::Io(e) => write!(f, "io error: {e}"),
            DoctorError::BadJournalLine { line, source } => {
                write!(f, "journal line {line}: {source}")
            }
            DoctorError::BadJson(e) => write!(f, "bad json: {e}"),
            DoctorError::BadSummary(msg) => write!(f, "bad summary: {msg}"),
            DoctorError::BadConfig(msg) => write!(f, "bad doctor.toml: {msg}"),
        }
    }
}

impl std::error::Error for DoctorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DoctorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DoctorError {
    fn from(e: std::io::Error) -> DoctorError {
        DoctorError::Io(e)
    }
}
