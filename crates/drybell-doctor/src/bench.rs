//! Absolute budget gates over bench result documents.
//!
//! [`DriftReport`](crate::DriftReport) diffs two *runs*; some numbers
//! are instead budgeted against a fixed ceiling — most importantly the
//! observability stack's own overhead, which `exp_speed` measures into
//! `results/BENCH_obs_overhead.json`. `doctor bench --file <p>` loads
//! such a document, looks up the ceilings configured for its `bench`
//! tag, and fails the run when a gated value exceeds its budget.
//!
//! Budget keys live in the `[obs]` section of `doctor.toml` (e.g.
//! `train_overhead_pct = 10`), with built-in defaults so the gate works
//! out of the box. A negative budget disables the gate for that field,
//! exactly as elsewhere in the config.

use crate::drift::Status;
use crate::{DoctorConfig, DoctorError};
use drybell_obs::Json;

/// Which fields gate, per bench document: `(bench tag, JSON field,
/// budget key)`. Every budget is an absolute ceiling, not a delta.
const GATED_FIELDS: &[(&str, &str, &str)] = &[
    (
        "obs_overhead",
        "train_overhead_pct",
        "obs.train_overhead_pct",
    ),
    ("obs_overhead", "lf_overhead_pct", "obs.lf_overhead_pct"),
];

/// One gated (or informational) value from a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchVerdict {
    /// The JSON field the value came from.
    pub field: String,
    /// The measured value.
    pub value: f64,
    /// The ceiling judged against, if one is configured.
    pub budget: Option<f64>,
    /// `Ok`, `Drift` (out of budget), or `Info` (no budget).
    pub status: Status,
    /// The `doctor.toml` key the budget comes from.
    pub budget_key: String,
}

/// The outcome of gating one bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The document's `bench` tag.
    pub bench: String,
    /// Per-field verdicts, in gate-table order.
    pub verdicts: Vec<BenchVerdict>,
}

impl BenchReport {
    /// Judge `doc` (a `results/BENCH_*.json` document) against the
    /// ceilings in `cfg`. Errors when the document has no `bench` tag,
    /// no gates are defined for that tag, or a gated field is missing
    /// or non-numeric — a bench that silently stops reporting a gated
    /// number must not read as "within budget".
    pub fn gate(doc: &Json, cfg: &DoctorConfig) -> Result<BenchReport, DoctorError> {
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| DoctorError::BadSummary("bench document has no \"bench\" tag".into()))?
            .to_string();
        let gates: Vec<_> = GATED_FIELDS
            .iter()
            .filter(|(tag, _, _)| *tag == bench)
            .collect();
        if gates.is_empty() {
            return Err(DoctorError::BadSummary(format!(
                "no budget gates defined for bench {bench:?}"
            )));
        }
        let mut verdicts = Vec::with_capacity(gates.len());
        for &&(_, field, key) in &gates {
            let value = doc.get(field).and_then(Json::as_f64).ok_or_else(|| {
                DoctorError::BadSummary(format!("bench {bench:?} is missing field {field:?}"))
            })?;
            let budget = cfg.budget(key);
            let status = match budget {
                Some(b) if value <= b => Status::Ok,
                Some(_) => Status::Drift,
                None => Status::Info,
            };
            verdicts.push(BenchVerdict {
                field: field.to_string(),
                value,
                budget,
                status,
                budget_key: key.to_string(),
            });
        }
        Ok(BenchReport { bench, verdicts })
    }

    /// True when any gated value exceeded its ceiling.
    pub fn has_violation(&self) -> bool {
        self.verdicts.iter().any(|v| v.status == Status::Drift)
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = format!("bench gate: {}\n", self.bench);
        out.push_str(&format!(
            "{:<24} {:>12} {:>12}  {}\n",
            "field", "value", "budget", "status"
        ));
        for v in &self.verdicts {
            let budget = match v.budget {
                Some(b) => format!("<= {b:.2}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<24} {:>12.3} {:>12}  {}\n",
                v.field,
                v.value,
                budget,
                match v.status {
                    Status::Ok => "ok",
                    Status::Drift => "OUT OF BUDGET",
                    _ => "info",
                }
            ));
        }
        out
    }

    /// Render as a machine-readable JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::from(self.bench.clone())),
            ("violation", Json::from(self.has_violation())),
            (
                "verdicts",
                Json::Arr(
                    self.verdicts
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("field", Json::from(v.field.clone())),
                                ("value", Json::from(v.value)),
                                ("budget", v.budget.map(Json::from).unwrap_or(Json::Null)),
                                ("budget_key", Json::from(v.budget_key.clone())),
                                (
                                    "status",
                                    Json::from(match v.status {
                                        Status::Ok => "ok",
                                        Status::Drift => "drift",
                                        _ => "info",
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overhead_doc(train_pct: f64, lf_pct: f64) -> Json {
        Json::obj(vec![
            ("bench", Json::from("obs_overhead")),
            ("train_overhead_pct", Json::from(train_pct)),
            ("lf_overhead_pct", Json::from(lf_pct)),
            ("examples", Json::from(342_usize)),
        ])
    }

    #[test]
    fn within_budget_is_clean() {
        let report = BenchReport::gate(&overhead_doc(4.2, 1.1), &DoctorConfig::default()).unwrap();
        assert!(!report.has_violation());
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.verdicts.iter().all(|v| v.status == Status::Ok));
        assert!(report.to_table().contains("ok"));
    }

    #[test]
    fn over_budget_gates() {
        let cfg = DoctorConfig::default();
        let report = BenchReport::gate(&overhead_doc(66.7, 1.1), &cfg).unwrap();
        assert!(report.has_violation());
        let train = &report.verdicts[0];
        assert_eq!(train.field, "train_overhead_pct");
        assert_eq!(train.status, Status::Drift);
        assert_eq!(train.budget, Some(10.0));
        assert!(report.to_table().contains("OUT OF BUDGET"));
        assert_eq!(
            report.to_json().get("violation").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn toml_overrides_and_disables() {
        let cfg = DoctorConfig::from_toml_str("[obs]\ntrain_overhead_pct = 2\n").unwrap();
        assert!(BenchReport::gate(&overhead_doc(4.2, 1.1), &cfg)
            .unwrap()
            .has_violation());
        let off = DoctorConfig::from_toml_str("[obs]\ntrain_overhead_pct = -1\n").unwrap();
        let report = BenchReport::gate(&overhead_doc(66.7, 1.1), &off).unwrap();
        assert!(!report.has_violation(), "negative budget disables");
        assert_eq!(report.verdicts[0].status, Status::Info);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let cfg = DoctorConfig::default();
        let no_tag = Json::obj(vec![("train_overhead_pct", Json::from(1.0))]);
        assert!(BenchReport::gate(&no_tag, &cfg).is_err());
        let unknown = Json::obj(vec![("bench", Json::from("mystery"))]);
        assert!(BenchReport::gate(&unknown, &cfg).is_err());
        let missing = Json::obj(vec![("bench", Json::from("obs_overhead"))]);
        assert!(
            BenchReport::gate(&missing, &cfg).is_err(),
            "a gated field vanishing must not pass"
        );
    }
}
