//! [`RunSummary`]: the diffable digest of one pipeline run.
//!
//! A summary is reconstructed from a `drybell-obs` JSONL journal
//! ([`RunSummary::from_journal_str`]) and optionally enriched with a
//! metrics snapshot (`Telemetry::report_json` / `metrics_to_json`
//! output, [`RunSummary::merge_metrics_json`]) and an `LfReport` JSON
//! document ([`RunSummary::merge_lf_report_json`]). The merged summary
//! serializes to one JSON document ([`RunSummary::to_json`] /
//! [`RunSummary::from_json`]) — the artifact `doctor baseline` checks
//! in and `doctor check` diffs against.

use crate::DoctorError;
use drybell_obs::Json;
use std::collections::BTreeMap;

/// Version stamp of the summary JSON layout itself (independent of the
/// journal's `drybell_obs::journal::SCHEMA_VERSION`).
pub const SUMMARY_SCHEMA: u32 = 1;

/// One MapReduce phase, as journaled by `JobStats::emit_to`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// Owning job name.
    pub job: String,
    /// Phase name (`map`, `reduce`, …).
    pub name: String,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Records entering the phase.
    pub records_in: u64,
    /// Records leaving the phase.
    pub records_out: u64,
}

/// Per-labeling-function signals, merged from journal events, job
/// counters, metrics gauges, and LF reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LfSignals {
    /// Fraction of examples voted on.
    pub coverage: Option<f64>,
    /// Fraction voted alongside another LF.
    pub overlap: Option<f64>,
    /// Fraction disagreeing with another voting LF.
    pub conflict: Option<f64>,
    /// The generative model's learned accuracy.
    pub learned_accuracy: Option<f64>,
    /// Non-abstain votes (job counters / metrics).
    pub votes: Option<u64>,
    /// Examples where the LF degraded to abstain (service outage).
    pub degraded: u64,
}

/// Generative-model training digest.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSummary {
    /// Optimizer steps taken.
    pub steps: u64,
    /// Epochs journaled.
    pub epochs: u64,
    /// Final negative log-likelihood.
    pub final_nll: f64,
    /// Per-epoch NLL curve (epochs that reported one).
    pub loss_curve: Vec<f64>,
}

/// The diffable digest of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Journal schema from the `run_header` event; `0` for journals
    /// written before the header existed.
    pub schema_version: u32,
    /// Caller-chosen run id (`"unknown"` for headerless journals).
    pub run_id: String,
    /// Config fingerprint from the header (empty if headerless).
    pub config_fingerprint: String,
    /// MapReduce phases, in journal order.
    pub phases: Vec<PhaseSummary>,
    /// Summed wall seconds of LF executions (in memory or sharded) and
    /// training.
    pub wall_seconds: f64,
    /// Summed per-worker busy seconds across jobs.
    pub busy_seconds: f64,
    /// Worst straggler ratio across jobs.
    pub straggler_ratio: Option<f64>,
    /// Shard/partition attempts that failed and were requeued.
    pub retries: u64,
    /// Records dropped under the skip budget.
    pub skipped_records: u64,
    /// Annotate requests reaching the NLP server.
    pub nlp_calls: u64,
    /// Examples where NLP degraded to abstain.
    pub nlp_degraded: u64,
    /// NLP memo-table hits.
    pub nlp_cache_hits: u64,
    /// NLP memo-table misses.
    pub nlp_cache_misses: u64,
    /// Examples the LF executor labeled.
    pub examples: u64,
    /// Per-LF signals, keyed by LF name.
    pub lfs: BTreeMap<String, LfSignals>,
    /// Training digest, if the run trained a label model.
    pub train: Option<TrainSummary>,
    /// Serving-model score distribution from the shadow path.
    pub score_dist_serving: Option<Vec<u64>>,
    /// Candidate-model score distribution from the shadow path.
    pub score_dist_candidate: Option<Vec<u64>>,
    /// NaN scores the serving model emitted during shadowing.
    pub score_invalid_serving: u64,
    /// NaN scores the candidate model emitted during shadowing.
    pub score_invalid_candidate: u64,
    /// End-model F1 from the `content_report` event.
    pub drybell_f1: Option<f64>,
    /// Latency histograms as sparse `(log bucket, count)` pairs, keyed
    /// by histogram name (merged from a metrics snapshot).
    pub latency: BTreeMap<String, Vec<(usize, u64)>>,
    /// Journal-integrity gaps seen while folding: `"<kind>.<field>"` →
    /// number of events of that kind whose required field was absent or
    /// carried a non-numeric value. Such fields used to fold in as
    /// `unwrap_or(0)` zeros — real-looking values manufactured from a
    /// corrupt journal — which read as a fake ok (or a spurious DRIFT
    /// against zero) downstream. Any gap gates `doctor check` as
    /// MISSING (see `DriftReport::diff`).
    pub journal_gaps: BTreeMap<String, u64>,
    /// Cumulative counters observed moving backwards while folding
    /// metric snapshots (a restarted producer; see
    /// `WindowFolder::fold_metrics`). Clamped rather than underflowed;
    /// flags the window `info` at diff time, never gates.
    pub counter_resets: u64,
}

impl RunSummary {
    /// NLP cache hit rate, when the run saw any cache traffic.
    pub(crate) fn nlp_cache_hit_rate(&self) -> Option<f64> {
        let total = self.nlp_cache_hits + self.nlp_cache_misses;
        (total > 0).then(|| self.nlp_cache_hits as f64 / total as f64)
    }

    /// Coverage for one LF: the LF-report value when present, else
    /// derived from vote counters over the example count.
    pub(crate) fn coverage_of(&self, name: &str) -> Option<f64> {
        let lf = self.lfs.get(name)?;
        lf.coverage.or_else(|| {
            let votes = lf.votes?;
            (self.examples > 0).then(|| votes as f64 / self.examples as f64)
        })
    }

    /// Fold a JSONL journal into a summary.
    ///
    /// Unknown event kinds are skipped (forward compatibility); a line
    /// that fails to parse is an error. A journal without a
    /// `run_header` first event reads as schema `0`, run id
    /// `"unknown"` — artifacts from before the header stay ingestible.
    pub fn from_journal_str(text: &str) -> Result<RunSummary, DoctorError> {
        let mut s = RunSummary {
            run_id: "unknown".to_string(),
            ..RunSummary::default()
        };
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event =
                drybell_obs::parse_json(line).map_err(|source| DoctorError::BadJournalLine {
                    line: idx + 1,
                    source,
                })?;
            s.fold_event(&event);
        }
        if s.nlp_degraded == 0 {
            // Sharded runs account degradations per-LF (job counters)
            // rather than per-example; the worst LF is the floor.
            s.nlp_degraded = s.lfs.values().map(|lf| lf.degraded).max().unwrap_or(0);
        }
        Ok(s)
    }

    pub(crate) fn fold_event(&mut self, e: &Json) {
        let kind = e.get("kind").and_then(Json::as_str).unwrap_or("");
        let f64_of = |key: &str| e.get(key).and_then(Json::as_f64);
        let u64_of = |key: &str| e.get(key).and_then(Json::as_i64).map(|v| v.max(0) as u64);
        // Required-field reads. A field an emitter always writes that is
        // absent — or present with a non-numeric value — is recorded as
        // a journal gap rather than silently folding in as zero. The
        // fold still uses the conservative fallback so partial journals
        // stay readable, but the gap makes the fabrication visible (and
        // gating) downstream instead of masquerading as a real value.
        let mut gaps: Vec<&'static str> = Vec::new();
        let req_f64 = |gaps: &mut Vec<&'static str>, key: &'static str| match e
            .get(key)
            .and_then(Json::as_f64)
        {
            Some(v) => v,
            None => {
                gaps.push(key);
                0.0
            }
        };
        let req_u64 = |gaps: &mut Vec<&'static str>, key: &'static str| match e
            .get(key)
            .and_then(Json::as_i64)
        {
            Some(v) => v.max(0) as u64,
            None => {
                gaps.push(key);
                0
            }
        };
        // Optional field: absence is legitimate (older journal shapes,
        // sampling knobs), but a present value that fails to parse as a
        // number is still a gap.
        let opt_f64 = |gaps: &mut Vec<&'static str>, key: &'static str| match e.get(key) {
            None => None,
            Some(v) => match v.as_f64() {
                Some(x) => Some(x),
                None => {
                    gaps.push(key);
                    None
                }
            },
        };
        let opt_u64 = |gaps: &mut Vec<&'static str>, key: &'static str| match e.get(key) {
            None => None,
            Some(v) => match v.as_i64() {
                Some(x) => Some(x.max(0) as u64),
                None => {
                    gaps.push(key);
                    None
                }
            },
        };
        match kind {
            "run_header" => {
                self.schema_version = u64_of("schema_version").unwrap_or(0) as u32;
                if let Some(id) = e.get("run_id").and_then(Json::as_str) {
                    self.run_id = id.to_string();
                }
                if let Some(fp) = e.get("config_fingerprint").and_then(Json::as_str) {
                    self.config_fingerprint = fp.to_string();
                }
            }
            "phase" => self.phases.push(PhaseSummary {
                job: e
                    .get("job")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                seconds: req_f64(&mut gaps, "seconds"),
                records_in: req_u64(&mut gaps, "records_in"),
                records_out: req_u64(&mut gaps, "records_out"),
            }),
            // A sharded LF execution journals its dataflow job and then its
            // `lf_execution` event. The job's seconds, `nlp_calls` and cache
            // counters are that event's figures, so they are read there,
            // once: the job adds only what the dataflow engine alone knows.
            "job" => {
                req_f64(&mut gaps, "seconds");
                if let Some(busy) = e.get("worker_busy") {
                    self.busy_seconds += busy.items().iter().filter_map(Json::as_f64).sum::<f64>();
                }
                if let Some(ratio) = opt_f64(&mut gaps, "straggler_ratio") {
                    let worst = self.straggler_ratio.unwrap_or(0.0).max(ratio);
                    self.straggler_ratio = Some(worst);
                }
                self.retries += u64_of("counters/dataflow/retries").unwrap_or(0);
                self.skipped_records += u64_of("counters/dataflow/skipped_records").unwrap_or(0);
                self.examples = self.examples.max(req_u64(&mut gaps, "records_in"));
                if let Json::Obj(fields) = e {
                    for (key, value) in fields {
                        let Some(count) = value.as_i64().map(|v| v.max(0) as u64) else {
                            continue;
                        };
                        if let Some(lf) = key.strip_prefix("counters/votes/") {
                            let entry = self.lfs.entry(lf.to_string()).or_default();
                            entry.votes = Some(entry.votes.unwrap_or(0) + count);
                        } else if let Some(rest) = key.strip_prefix("counters/lf/") {
                            if let Some(lf) = rest.strip_suffix("/degraded") {
                                self.lfs.entry(lf.to_string()).or_default().degraded += count;
                            }
                        }
                    }
                }
            }
            "lf_execution" => {
                self.wall_seconds += req_f64(&mut gaps, "seconds");
                self.nlp_calls += req_u64(&mut gaps, "nlp_calls");
                self.nlp_degraded += req_u64(&mut gaps, "nlp_degraded");
                self.nlp_cache_hits += u64_of("nlp_cache/hits").unwrap_or(0);
                self.nlp_cache_misses += u64_of("nlp_cache/misses").unwrap_or(0);
                self.examples = self.examples.max(req_u64(&mut gaps, "examples"));
            }
            "train_epoch" => {
                if let Some(nll) = opt_f64(&mut gaps, "nll") {
                    let curve = &mut self
                        .train
                        .get_or_insert_with(|| TrainSummary {
                            steps: 0,
                            epochs: 0,
                            final_nll: f64::NAN,
                            loss_curve: Vec::new(),
                        })
                        .loss_curve;
                    curve.push(nll);
                }
            }
            "train" => {
                self.wall_seconds += req_f64(&mut gaps, "seconds");
                let curve = self.train.take().map(|t| t.loss_curve).unwrap_or_default();
                let final_nll = match f64_of("final_nll") {
                    Some(v) => v,
                    None => {
                        // NaN (not 0.0): a fabricated zero NLL would
                        // read as a perfect fit.
                        gaps.push("final_nll");
                        f64::NAN
                    }
                };
                self.train = Some(TrainSummary {
                    steps: req_u64(&mut gaps, "steps"),
                    epochs: req_u64(&mut gaps, "epochs"),
                    final_nll,
                    loss_curve: curve,
                });
            }
            "lf_report" => {
                if let Some(lfs) = e.get("lfs") {
                    for item in lfs.items() {
                        let Some(name) = item.get("name").and_then(Json::as_str) else {
                            continue;
                        };
                        let entry = self.lfs.entry(name.to_string()).or_default();
                        entry.coverage = item.get("coverage").and_then(Json::as_f64);
                        entry.overlap = item.get("overlap").and_then(Json::as_f64);
                        entry.conflict = item.get("conflict").and_then(Json::as_f64);
                        entry.learned_accuracy =
                            item.get("learned_accuracy").and_then(Json::as_f64);
                    }
                }
            }
            "shadow" => {
                let dist = |key: &str| -> Option<Vec<u64>> {
                    let arr = e.get(key)?;
                    matches!(arr, Json::Arr(_)).then(|| {
                        arr.items()
                            .iter()
                            .filter_map(Json::as_i64)
                            .map(|v| v.max(0) as u64)
                            .collect()
                    })
                };
                for key in ["score_dist/serving", "score_dist/candidate"] {
                    if matches!(e.get(key), Some(v) if !matches!(v, Json::Arr(_))) {
                        gaps.push(key);
                    }
                }
                if let Some(d) = dist("score_dist/serving") {
                    self.score_dist_serving = Some(d);
                }
                if let Some(d) = dist("score_dist/candidate") {
                    self.score_dist_candidate = Some(d);
                }
                // Older journals predate the invalid counters; absence
                // is an old shape, not corruption.
                self.score_invalid_serving += opt_u64(&mut gaps, "invalid/serving").unwrap_or(0);
                self.score_invalid_candidate +=
                    opt_u64(&mut gaps, "invalid/candidate").unwrap_or(0);
            }
            "content_report" => {
                if let Some(f1) = opt_f64(&mut gaps, "drybell_f1") {
                    self.drybell_f1 = Some(f1);
                }
            }
            _ => {}
        }
        for field in gaps {
            *self
                .journal_gaps
                .entry(format!("{kind}.{field}"))
                .or_insert(0) += 1;
        }
    }

    /// Merge a metrics snapshot (either `metrics_to_json` output or a
    /// full `Telemetry::report_json` document with a `metrics` section):
    /// vote counters, per-LF degraded counters, cache gauges, the ppm
    /// LF-signal gauges, and latency histogram buckets.
    pub fn merge_metrics_json(&mut self, doc: &Json) {
        let metrics = doc.get("metrics").unwrap_or(doc);
        if let Some(Json::Obj(counters)) = metrics.get("counters") {
            for (key, value) in counters {
                let Some(count) = value.as_i64().map(|v| v.max(0) as u64) else {
                    continue;
                };
                if let Some(lf) = key.strip_prefix("votes/") {
                    let entry = self.lfs.entry(lf.to_string()).or_default();
                    entry.votes = Some(entry.votes.unwrap_or(0).max(count));
                } else if let Some(rest) = key.strip_prefix("lf/") {
                    if let Some(lf) = rest.strip_suffix("/degraded") {
                        let entry = self.lfs.entry(lf.to_string()).or_default();
                        entry.degraded = entry.degraded.max(count);
                    }
                } else if key == "nlp_calls" {
                    self.nlp_calls = self.nlp_calls.max(count);
                }
            }
        }
        if let Some(Json::Obj(gauges)) = metrics.get("gauges") {
            for (key, value) in gauges {
                let Some(v) = value.as_i64() else { continue };
                match key.as_str() {
                    "nlp_cache/hits" => {
                        self.nlp_cache_hits = self.nlp_cache_hits.max(v.max(0) as u64)
                    }
                    "nlp_cache/misses" => {
                        self.nlp_cache_misses = self.nlp_cache_misses.max(v.max(0) as u64)
                    }
                    _ => {
                        let Some(rest) = key.strip_prefix("lf/") else {
                            continue;
                        };
                        let ppm = v as f64 / 1e6;
                        if let Some(lf) = rest.strip_suffix("/coverage_ppm") {
                            self.lfs.entry(lf.to_string()).or_default().coverage = Some(ppm);
                        } else if let Some(lf) = rest.strip_suffix("/overlap_ppm") {
                            self.lfs.entry(lf.to_string()).or_default().overlap = Some(ppm);
                        } else if let Some(lf) = rest.strip_suffix("/conflict_ppm") {
                            self.lfs.entry(lf.to_string()).or_default().conflict = Some(ppm);
                        } else if let Some(lf) = rest.strip_suffix("/learned_accuracy_ppm") {
                            self.lfs.entry(lf.to_string()).or_default().learned_accuracy =
                                Some(ppm);
                        }
                    }
                }
            }
        }
        if let Some(Json::Obj(histograms)) = metrics.get("histograms") {
            for (key, value) in histograms {
                let Some(Json::Arr(buckets)) = value.get("buckets") else {
                    continue;
                };
                let sparse: Vec<(usize, u64)> = buckets
                    .iter()
                    .filter_map(|pair| {
                        let i = pair.at(0)?.as_i64()?;
                        let n = pair.at(1)?.as_i64()?;
                        (i >= 0 && n > 0).then_some((i as usize, n as u64))
                    })
                    .collect();
                if !sparse.is_empty() {
                    self.latency.insert(key.clone(), sparse);
                }
            }
        }
    }

    /// Merge an `LfReport::to_json` document (the `lf_diagnostics`
    /// `--json` payload): per-LF coverage/overlap/conflict/accuracy.
    pub fn merge_lf_report_json(&mut self, doc: &Json) {
        // Accept both the bare report and an event-shaped wrapper.
        let report = if doc.get("lfs").is_some() {
            doc
        } else if let Some(inner) = doc.get("report") {
            inner
        } else {
            doc
        };
        self.fold_lf_report(report);
    }

    fn fold_lf_report(&mut self, report: &Json) {
        let Some(lfs) = report.get("lfs") else { return };
        for item in lfs.items() {
            let Some(name) = item.get("name").and_then(Json::as_str) else {
                continue;
            };
            let entry = self.lfs.entry(name.to_string()).or_default();
            entry.coverage = item
                .get("coverage")
                .and_then(Json::as_f64)
                .or(entry.coverage);
            entry.overlap = item.get("overlap").and_then(Json::as_f64).or(entry.overlap);
            entry.conflict = item
                .get("conflict")
                .and_then(Json::as_f64)
                .or(entry.conflict);
            entry.learned_accuracy = item
                .get("learned_accuracy")
                .and_then(Json::as_f64)
                .or(entry.learned_accuracy);
        }
    }

    /// Serialize to the `BASELINE_run.json` document shape.
    pub fn to_json(&self) -> Json {
        let opt_f64 = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let opt_dist = |d: &Option<Vec<u64>>| {
            d.as_ref()
                .map(|d| Json::Arr(d.iter().map(|&n| Json::from(n)).collect()))
                .unwrap_or(Json::Null)
        };
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("job", Json::from(p.job.as_str())),
                        ("name", Json::from(p.name.as_str())),
                        ("seconds", Json::Num(p.seconds)),
                        ("records_in", Json::from(p.records_in)),
                        ("records_out", Json::from(p.records_out)),
                    ])
                })
                .collect(),
        );
        let lfs = Json::Obj(
            self.lfs
                .iter()
                .map(|(name, lf)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("coverage", opt_f64(lf.coverage)),
                            ("overlap", opt_f64(lf.overlap)),
                            ("conflict", opt_f64(lf.conflict)),
                            ("learned_accuracy", opt_f64(lf.learned_accuracy)),
                            ("votes", lf.votes.map(Json::from).unwrap_or(Json::Null)),
                            ("degraded", Json::from(lf.degraded)),
                        ]),
                    )
                })
                .collect(),
        );
        let train = self
            .train
            .as_ref()
            .map(|t| {
                Json::obj(vec![
                    ("steps", Json::from(t.steps)),
                    ("epochs", Json::from(t.epochs)),
                    ("final_nll", Json::Num(t.final_nll)),
                    (
                        "loss_curve",
                        Json::Arr(t.loss_curve.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                ])
            })
            .unwrap_or(Json::Null);
        let latency = Json::Obj(
            self.latency
                .iter()
                .map(|(name, sparse)| {
                    (
                        name.clone(),
                        Json::Arr(
                            sparse
                                .iter()
                                .map(|&(i, n)| Json::Arr(vec![Json::from(i), Json::from(n)]))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("summary_schema", Json::from(SUMMARY_SCHEMA)),
            ("schema_version", Json::from(self.schema_version)),
            ("run_id", Json::from(self.run_id.as_str())),
            (
                "config_fingerprint",
                Json::from(self.config_fingerprint.as_str()),
            ),
            ("wall_seconds", Json::Num(self.wall_seconds)),
            ("busy_seconds", Json::Num(self.busy_seconds)),
            ("straggler_ratio", opt_f64(self.straggler_ratio)),
            ("retries", Json::from(self.retries)),
            ("skipped_records", Json::from(self.skipped_records)),
            ("nlp_calls", Json::from(self.nlp_calls)),
            ("nlp_degraded", Json::from(self.nlp_degraded)),
            ("nlp_cache_hits", Json::from(self.nlp_cache_hits)),
            ("nlp_cache_misses", Json::from(self.nlp_cache_misses)),
            ("examples", Json::from(self.examples)),
            ("phases", phases),
            ("lfs", lfs),
            ("train", train),
            ("score_dist_serving", opt_dist(&self.score_dist_serving)),
            ("score_dist_candidate", opt_dist(&self.score_dist_candidate)),
            (
                "score_invalid_serving",
                Json::from(self.score_invalid_serving),
            ),
            (
                "score_invalid_candidate",
                Json::from(self.score_invalid_candidate),
            ),
            ("drybell_f1", opt_f64(self.drybell_f1)),
            ("latency", latency),
            (
                "journal_gaps",
                Json::Obj(
                    self.journal_gaps
                        .iter()
                        .map(|(key, &n)| (key.clone(), Json::from(n)))
                        .collect(),
                ),
            ),
            ("counter_resets", Json::from(self.counter_resets)),
        ])
    }

    /// Parse a summary document back. Missing fields default (so older
    /// summaries load under newer doctors); a document without the
    /// `summary_schema` stamp is rejected as not-a-summary.
    pub fn from_json(doc: &Json) -> Result<RunSummary, DoctorError> {
        let schema = doc
            .get("summary_schema")
            .and_then(Json::as_i64)
            .ok_or_else(|| {
                DoctorError::BadSummary("missing summary_schema (not a RunSummary document)".into())
            })?;
        if schema < 1 || schema > i64::from(SUMMARY_SCHEMA) {
            return Err(DoctorError::BadSummary(format!(
                "summary_schema {schema} unsupported (this doctor reads ≤ {SUMMARY_SCHEMA})"
            )));
        }
        let str_of = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let u64_of = |key: &str| {
            doc.get(key)
                .and_then(Json::as_i64)
                .map(|v| v.max(0) as u64)
                .unwrap_or(0)
        };
        let f64_of = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let opt_f64 = |key: &str| doc.get(key).and_then(Json::as_f64);
        let dist_of = |key: &str| -> Option<Vec<u64>> {
            match doc.get(key) {
                Some(Json::Arr(items)) => Some(
                    items
                        .iter()
                        .filter_map(Json::as_i64)
                        .map(|v| v.max(0) as u64)
                        .collect(),
                ),
                _ => None,
            }
        };
        let mut s = RunSummary {
            schema_version: u64_of("schema_version") as u32,
            run_id: str_of("run_id"),
            config_fingerprint: str_of("config_fingerprint"),
            wall_seconds: f64_of("wall_seconds"),
            busy_seconds: f64_of("busy_seconds"),
            straggler_ratio: opt_f64("straggler_ratio"),
            retries: u64_of("retries"),
            skipped_records: u64_of("skipped_records"),
            nlp_calls: u64_of("nlp_calls"),
            nlp_degraded: u64_of("nlp_degraded"),
            nlp_cache_hits: u64_of("nlp_cache_hits"),
            nlp_cache_misses: u64_of("nlp_cache_misses"),
            examples: u64_of("examples"),
            score_dist_serving: dist_of("score_dist_serving"),
            score_dist_candidate: dist_of("score_dist_candidate"),
            score_invalid_serving: u64_of("score_invalid_serving"),
            score_invalid_candidate: u64_of("score_invalid_candidate"),
            drybell_f1: opt_f64("drybell_f1"),
            counter_resets: u64_of("counter_resets"),
            ..RunSummary::default()
        };
        if s.run_id.is_empty() {
            s.run_id = "unknown".to_string();
        }
        if let Some(phases) = doc.get("phases") {
            for p in phases.items() {
                s.phases.push(PhaseSummary {
                    job: p
                        .get("job")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    name: p
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    seconds: p.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
                    records_in: p
                        .get("records_in")
                        .and_then(Json::as_i64)
                        .map(|v| v.max(0) as u64)
                        .unwrap_or(0),
                    records_out: p
                        .get("records_out")
                        .and_then(Json::as_i64)
                        .map(|v| v.max(0) as u64)
                        .unwrap_or(0),
                });
            }
        }
        if let Some(Json::Obj(lfs)) = doc.get("lfs") {
            for (name, lf) in lfs {
                s.lfs.insert(
                    name.clone(),
                    LfSignals {
                        coverage: lf.get("coverage").and_then(Json::as_f64),
                        overlap: lf.get("overlap").and_then(Json::as_f64),
                        conflict: lf.get("conflict").and_then(Json::as_f64),
                        learned_accuracy: lf.get("learned_accuracy").and_then(Json::as_f64),
                        votes: lf
                            .get("votes")
                            .and_then(Json::as_i64)
                            .map(|v| v.max(0) as u64),
                        degraded: lf
                            .get("degraded")
                            .and_then(Json::as_i64)
                            .map(|v| v.max(0) as u64)
                            .unwrap_or(0),
                    },
                );
            }
        }
        if let Some(train) = doc.get("train") {
            if !train.is_null() {
                s.train = Some(TrainSummary {
                    steps: train
                        .get("steps")
                        .and_then(Json::as_i64)
                        .map(|v| v.max(0) as u64)
                        .unwrap_or(0),
                    epochs: train
                        .get("epochs")
                        .and_then(Json::as_i64)
                        .map(|v| v.max(0) as u64)
                        .unwrap_or(0),
                    final_nll: train
                        .get("final_nll")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    loss_curve: train
                        .get("loss_curve")
                        .map(|c| c.items().iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default(),
                });
            }
        }
        if let Some(Json::Obj(latency)) = doc.get("latency") {
            for (name, sparse) in latency {
                let buckets: Vec<(usize, u64)> = sparse
                    .items()
                    .iter()
                    .filter_map(|pair| {
                        let i = pair.at(0)?.as_i64()?;
                        let n = pair.at(1)?.as_i64()?;
                        (i >= 0 && n >= 0).then_some((i as usize, n as u64))
                    })
                    .collect();
                s.latency.insert(name.clone(), buckets);
            }
        }
        if let Some(Json::Obj(gaps)) = doc.get("journal_gaps") {
            for (key, value) in gaps {
                if let Some(n) = value.as_i64() {
                    s.journal_gaps.insert(key.clone(), n.max(0) as u64);
                }
            }
        }
        Ok(s)
    }

    /// A terse human-readable rendering (the `doctor summarize` output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run {} (journal schema {}, fingerprint {})\n",
            self.run_id,
            self.schema_version,
            if self.config_fingerprint.is_empty() {
                "-"
            } else {
                &self.config_fingerprint
            }
        ));
        out.push_str(&format!(
            "examples {}  wall {:.3}s  busy {:.3}s  straggler {}\n",
            self.examples,
            self.wall_seconds,
            self.busy_seconds,
            self.straggler_ratio
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".to_string()),
        ));
        out.push_str(&format!(
            "retries {}  skipped {}  nlp calls {}  degraded {}  cache hit rate {}\n",
            self.retries,
            self.skipped_records,
            self.nlp_calls,
            self.nlp_degraded,
            self.nlp_cache_hit_rate()
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "-".to_string()),
        ));
        if let Some(t) = &self.train {
            out.push_str(&format!(
                "train: {} steps, {} epochs, final nll {:.4}\n",
                t.steps, t.epochs, t.final_nll
            ));
        }
        if let Some(f1) = self.drybell_f1 {
            out.push_str(&format!("drybell f1: {f1:.4}\n"));
        }
        if !self.lfs.is_empty() {
            out.push_str(&format!(
                "{:<24} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}\n",
                "LF", "cover", "overlap", "conflict", "acc(gen)", "votes", "degraded"
            ));
            let fr = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
            for (name, lf) in &self.lfs {
                out.push_str(&format!(
                    "{:<24} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}\n",
                    name,
                    fr(self.coverage_of(name)),
                    fr(lf.overlap),
                    fr(lf.conflict),
                    fr(lf.learned_accuracy),
                    lf.votes
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into()),
                    lf.degraded,
                ));
            }
        }
        if let Some(d) = &self.score_dist_serving {
            out.push_str(&format!("score dist (serving): {d:?}\n"));
        }
        if self.score_invalid_serving + self.score_invalid_candidate > 0 {
            out.push_str(&format!(
                "INVALID (NaN) scores: serving {}, candidate {}\n",
                self.score_invalid_serving, self.score_invalid_candidate
            ));
        }
        if !self.journal_gaps.is_empty() {
            let total: u64 = self.journal_gaps.values().sum();
            out.push_str(&format!(
                "JOURNAL GAPS ({total} absent/malformed required fields):\n"
            ));
            for (key, n) in &self.journal_gaps {
                out.push_str(&format!("  {key} x{n}\n"));
            }
        }
        if self.counter_resets > 0 {
            out.push_str(&format!(
                "counter resets (producer restarts): {}\n",
                self.counter_resets
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_journal() -> String {
        [
            r#"{"seq":0,"t":0.0,"kind":"run_header","schema_version":1,"run_id":"golden","config_fingerprint":"abcd"}"#,
            r#"{"seq":1,"t":0.1,"kind":"phase","job":"lfs","name":"map","seconds":0.4,"records_in":800,"records_out":800}"#,
            r#"{"seq":2,"t":0.5,"kind":"job","name":"lfs","records_in":800,"records_out":800,"seconds":0.5,"workers":2,"straggler_ratio":1.1,"spill_bytes":0,"worker_busy":[0.2,0.25],"counters/nlp_calls":800,"counters/votes/kw":230,"counters/votes/nlp_person":520,"counters/lf/nlp_person/degraded":3,"counters/nlp_cache/hits":600,"counters/nlp_cache/misses":200,"counters/dataflow/retries":1}"#,
            r#"{"seq":3,"t":0.55,"kind":"lf_execution","examples":800,"seconds":0.5,"throughput":1600.0,"nlp_calls":800,"nlp_degraded":3,"nlp_cache/hits":600,"nlp_cache/misses":200,"nlp_cache/evictions":0,"nlp_cache/hit_rate":0.75}"#,
            r#"{"seq":4,"t":0.6,"kind":"train_epoch","epoch":0,"steps":100,"nll":0.693,"seconds":0.05}"#,
            r#"{"seq":5,"t":0.7,"kind":"train_epoch","epoch":1,"steps":100,"nll":0.51,"seconds":0.05}"#,
            r#"{"seq":6,"t":0.8,"kind":"train","steps":200,"epochs":2,"final_nll":0.43,"seconds":0.1,"steps_per_sec":2000.0,"rows":1600,"rows_per_sec":16000.0}"#,
            r#"{"seq":7,"t":0.9,"kind":"lf_report","label_density":0.8,"lfs":[{"index":0,"name":"kw","coverage":0.29,"overlap":0.2,"conflict":0.05,"learned_accuracy":0.9,"learned_propensity":0.3,"empirical_accuracy":null},{"index":1,"name":"nlp_person","coverage":0.65,"overlap":0.2,"conflict":0.04,"learned_accuracy":0.88,"learned_propensity":0.6,"empirical_accuracy":null}]}"#,
            r#"{"seq":8,"t":1.0,"kind":"shadow","examples":400,"decision_flips":4,"flip_rate":0.01,"new_positives":2,"new_negatives":2,"mean_abs_gap":0.02,"max_abs_gap":0.4,"score_dist/serving":[40,60,80,60,40,30,30,25,20,15],"score_dist/candidate":[42,58,80,61,39,30,30,25,20,15],"invalid/serving":0,"invalid/candidate":2}"#,
            r#"{"seq":9,"t":1.1,"kind":"content_report","task":"Topic","examples":800,"baseline_f1":0.5,"generative_f1":0.6,"drybell_f1":0.7,"drybell_precision":0.8,"drybell_recall":0.62,"lf_seconds":0.5}"#,
        ]
        .join("\n")
    }

    #[test]
    fn journal_folds_into_a_summary() {
        let s = RunSummary::from_journal_str(&golden_journal()).unwrap();
        assert_eq!(s.schema_version, 1);
        assert_eq!(s.run_id, "golden");
        assert_eq!(s.config_fingerprint, "abcd");
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].name, "map");
        assert_eq!(s.examples, 800);
        assert_eq!(s.retries, 1);
        assert_eq!(s.nlp_calls, 800);
        assert_eq!(s.nlp_cache_hits, 600);
        assert!((s.nlp_cache_hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert!((s.busy_seconds - 0.45).abs() < 1e-12);
        assert_eq!(s.straggler_ratio, Some(1.1));
        // Per-LF merge: counters + lf_report.
        let nlp = &s.lfs["nlp_person"];
        assert_eq!(nlp.votes, Some(520));
        assert_eq!(nlp.degraded, 3);
        assert_eq!(nlp.coverage, Some(0.65));
        // The lf_execution event's run-level degradations.
        assert_eq!(s.nlp_degraded, 3);
        let t = s.train.as_ref().unwrap();
        assert_eq!(t.steps, 200);
        assert_eq!(t.loss_curve, vec![0.693, 0.51]);
        assert!((t.final_nll - 0.43).abs() < 1e-12);
        assert_eq!(s.score_dist_serving.as_ref().unwrap().len(), 10);
        assert_eq!(s.score_invalid_serving, 0);
        assert_eq!(s.score_invalid_candidate, 2);
        assert_eq!(s.drybell_f1, Some(0.7));
        // wall = LF execution + train seconds.
        assert!((s.wall_seconds - 0.6).abs() < 1e-12);
    }

    #[test]
    fn headerless_journals_read_as_schema_zero() {
        let text: String = golden_journal()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let s = RunSummary::from_journal_str(&text).unwrap();
        assert_eq!(s.schema_version, 0);
        assert_eq!(s.run_id, "unknown");
        assert_eq!(s.config_fingerprint, "");
        assert_eq!(s.examples, 800);
    }

    #[test]
    fn unparseable_lines_are_rejected_with_the_line_number() {
        let text = format!("{}\nnot json\n", golden_journal());
        match RunSummary::from_journal_str(&text) {
            Err(crate::DoctorError::BadJournalLine { line, .. }) => assert_eq!(line, 11),
            other => panic!("expected BadJournalLine, got {other:?}"),
        }
    }

    #[test]
    fn unknown_event_kinds_are_skipped() {
        let text = r#"{"seq":0,"t":0.0,"kind":"future_thing","x":1}"#;
        let s = RunSummary::from_journal_str(text).unwrap();
        assert_eq!(s.examples, 0);
    }

    #[test]
    fn summary_json_round_trips() {
        let s = RunSummary::from_journal_str(&golden_journal()).unwrap();
        let doc = s.to_json();
        let reparsed = drybell_obs::parse_json(&doc.to_pretty()).unwrap();
        let back = RunSummary::from_json(&reparsed).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn corrupt_journal_fields_fold_as_gaps_not_fake_zeros() {
        // A phase missing `seconds`, a job whose `seconds` is a string,
        // and an lf_execution missing `examples`: each used to fold in
        // as a real-looking zero via unwrap_or. The conservative
        // fallback values still apply, but every fabrication is now
        // recorded in journal_gaps so `doctor check` gates MISSING
        // instead of reporting a fake ok (or a spurious DRIFT vs zero).
        let text = [
            r#"{"seq":0,"t":0.0,"kind":"phase","job":"lfs","name":"map","records_in":800,"records_out":800}"#,
            r#"{"seq":1,"t":0.1,"kind":"job","name":"lfs","records_in":800,"records_out":800,"seconds":"oops","straggler_ratio":1.0,"worker_busy":[0.1]}"#,
            r#"{"seq":2,"t":0.2,"kind":"lf_execution","seconds":0.2,"nlp_calls":10,"nlp_degraded":0}"#,
        ]
        .join("\n");
        let s = RunSummary::from_journal_str(&text).unwrap();
        assert_eq!(s.journal_gaps.get("phase.seconds"), Some(&1));
        assert_eq!(s.journal_gaps.get("job.seconds"), Some(&1));
        assert_eq!(s.journal_gaps.get("lf_execution.examples"), Some(&1));
        // Fields that were actually present record no gap.
        assert!(!s.journal_gaps.contains_key("phase.records_in"));
        assert!(!s.journal_gaps.contains_key("job.straggler_ratio"));
        // Gaps survive the baseline round trip.
        let reparsed = drybell_obs::parse_json(&s.to_json().to_pretty()).unwrap();
        assert_eq!(RunSummary::from_json(&reparsed).unwrap(), s);
        // And surface in the human rendering.
        assert!(s.to_text().contains("JOURNAL GAPS"));
        // A clean journal records none.
        let clean = RunSummary::from_journal_str(&golden_journal()).unwrap();
        assert!(clean.journal_gaps.is_empty());
    }

    #[test]
    fn from_json_rejects_non_summaries() {
        let doc = drybell_obs::parse_json(r#"{"hello": 1}"#).unwrap();
        assert!(matches!(
            RunSummary::from_json(&doc),
            Err(crate::DoctorError::BadSummary(_))
        ));
    }

    #[test]
    fn metrics_snapshot_merges_votes_gauges_and_buckets() {
        let mut s = RunSummary::default();
        let doc = drybell_obs::parse_json(
            r#"{
              "counters": {"votes/kw": 230, "lf/nlp_person/degraded": 5, "nlp_calls": 800},
              "gauges": {"nlp_cache/hits": 600, "nlp_cache/misses": 200,
                         "lf/kw/coverage_ppm": 290000, "lf/kw/learned_accuracy_ppm": 910000},
              "histograms": {"obs/serving/score_us": {"count": 3, "buckets": [[4, 2], [7, 1]]}}
            }"#,
        )
        .unwrap();
        s.merge_metrics_json(&doc);
        assert_eq!(s.lfs["kw"].votes, Some(230));
        assert_eq!(s.lfs["kw"].coverage, Some(0.29));
        assert_eq!(s.lfs["kw"].learned_accuracy, Some(0.91));
        assert_eq!(s.lfs["nlp_person"].degraded, 5);
        assert_eq!(s.nlp_calls, 800);
        assert_eq!(s.nlp_cache_hits, 600);
        assert_eq!(s.latency["obs/serving/score_us"], vec![(4, 2), (7, 1)]);
        // Also accepts the report_json wrapper shape.
        let wrapped =
            drybell_obs::parse_json(r#"{"metrics": {"counters": {"votes/kg": 10}}}"#).unwrap();
        s.merge_metrics_json(&wrapped);
        assert_eq!(s.lfs["kg"].votes, Some(10));
    }

    #[test]
    fn coverage_falls_back_to_votes_over_examples() {
        let mut s = RunSummary {
            examples: 800,
            ..RunSummary::default()
        };
        s.lfs.insert(
            "kw".into(),
            LfSignals {
                votes: Some(200),
                ..LfSignals::default()
            },
        );
        assert!((s.coverage_of("kw").unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(s.coverage_of("missing"), None);
    }

    #[test]
    fn lf_report_document_merges() {
        let mut s = RunSummary::default();
        let doc = drybell_obs::parse_json(
            r#"{"label_density":0.8,"lfs":[{"name":"kw","coverage":0.3,"overlap":0.1,"conflict":0.02,"learned_accuracy":0.92}]}"#,
        )
        .unwrap();
        s.merge_lf_report_json(&doc);
        assert_eq!(s.lfs["kw"].coverage, Some(0.3));
        assert_eq!(s.lfs["kw"].learned_accuracy, Some(0.92));
    }
}
