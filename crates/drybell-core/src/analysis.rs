//! Labeling-function diagnostics.
//!
//! §3.3 of the paper highlights that the generative model's estimated
//! accuracies "were found to be independently useful for identifying
//! previously unknown low-quality sources (which were then either fixed or
//! removed)". This module assembles that report: per-LF coverage, overlap,
//! conflict (Snorkel's classic statistics), the model's learned accuracy,
//! and — when a hand-labeled development set is available — the empirical
//! accuracy for comparison.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::generative::GenerativeModel;
use crate::matrix::LabelMatrix;
use crate::vote::Label;

/// Diagnostics for one labeling function.
#[derive(Debug, Clone, PartialEq)]
pub struct LfSummary {
    /// Index of the LF (column in the label matrix).
    pub index: usize,
    /// Display name, if the caller provided one.
    pub name: String,
    /// Fraction of examples the LF voted on.
    pub coverage: f64,
    /// Fraction of examples where it voted alongside another LF.
    pub overlap: f64,
    /// Fraction of examples where it disagreed with another voting LF.
    pub conflict: f64,
    /// The generative model's learned accuracy `σ(2α_j)`.
    pub learned_accuracy: f64,
    /// The generative model's learned non-abstain propensity.
    pub learned_propensity: f64,
    /// Accuracy measured against dev-set gold labels, if provided and the
    /// LF voted at least once on the dev set.
    pub empirical_accuracy: Option<f64>,
}

/// A full diagnostic report over all LFs.
#[derive(Debug, Clone)]
pub struct LfReport {
    /// One summary per labeling function.
    pub summaries: Vec<LfSummary>,
    /// Fraction of examples with at least one vote.
    pub label_density: f64,
}

impl LfReport {
    /// Build a report from a label matrix and a fitted generative model.
    ///
    /// `names` may be empty (indices are used) or must match the LF count.
    /// `dev` optionally supplies `(dev matrix, gold labels)` for empirical
    /// accuracies; the dev matrix must have the same LF columns.
    pub fn build(
        m: &LabelMatrix,
        model: &GenerativeModel,
        names: &[String],
        dev: Option<(&LabelMatrix, &[Label])>,
    ) -> Result<LfReport, CoreError> {
        let n = m.num_lfs();
        if model.num_lfs() != n {
            return Err(CoreError::LengthMismatch {
                left: model.num_lfs(),
                right: n,
            });
        }
        if !names.is_empty() && names.len() != n {
            return Err(CoreError::LengthMismatch {
                left: names.len(),
                right: n,
            });
        }
        let accs = model.learned_accuracies();
        let props = model.learned_propensities();
        let mut summaries = Vec::with_capacity(n);
        for j in 0..n {
            let empirical = match dev {
                Some((dm, gold)) => dm.empirical_accuracy(j, gold)?,
                None => None,
            };
            summaries.push(LfSummary {
                index: j,
                name: names.get(j).cloned().unwrap_or_else(|| format!("lf_{j}")),
                coverage: m.coverage(j),
                overlap: m.overlap(j),
                conflict: m.conflict(j),
                learned_accuracy: accs[j],
                learned_propensity: props[j],
                empirical_accuracy: empirical,
            });
        }
        Ok(LfReport {
            summaries,
            label_density: m.label_density(),
        })
    }

    /// LFs whose learned accuracy falls below `threshold` — the "previously
    /// unknown low-quality sources" workflow from §3.3.
    pub fn low_quality(&self, threshold: f64) -> Vec<&LfSummary> {
        self.summaries
            .iter()
            .filter(|s| s.learned_accuracy < threshold)
            .collect()
    }

    /// Render the report as a JSON object (the `--json` mode of the
    /// diagnostics binaries). Absent empirical accuracies render as
    /// `null`.
    pub fn to_json(&self) -> drybell_obs::Json {
        use drybell_obs::Json;
        let lfs = self
            .summaries
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("index", Json::from(s.index)),
                    ("name", Json::from(s.name.as_str())),
                    ("coverage", Json::from(s.coverage)),
                    ("overlap", Json::from(s.overlap)),
                    ("conflict", Json::from(s.conflict)),
                    ("learned_accuracy", Json::from(s.learned_accuracy)),
                    ("learned_propensity", Json::from(s.learned_propensity)),
                    (
                        "empirical_accuracy",
                        s.empirical_accuracy.map(Json::from).unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("label_density", Json::from(self.label_density)),
            ("lfs", Json::Arr(lfs)),
        ])
    }

    /// Emit one `lf_report` journal event carrying the same content as
    /// [`LfReport::to_json`] — the over-time monitoring record §3.3
    /// describes ("estimated accuracies … monitored over time"), which
    /// `drybell-doctor` diffs across runs.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        let json = self.to_json();
        let mut event = drybell_obs::Event::new("lf_report");
        if let drybell_obs::Json::Obj(fields) = json {
            for (key, value) in fields {
                event = event.field(&key, value);
            }
        }
        journal.emit(event);
    }

    /// Export the per-LF signals as registry-named gauges. Gauges are
    /// integers, so each fraction is scaled to parts-per-million
    /// (`lf/<name>/coverage_ppm` = ⌊coverage × 10⁶⌉), the fixed-point
    /// convention declared in `drybell_obs::naming::REGISTRY`.
    pub fn export_to(&self, metrics: &drybell_obs::MetricsRegistry) {
        let ppm = |x: f64| (x * 1e6).round() as i64;
        for s in &self.summaries {
            metrics
                .gauge(&format!("lf/{}/coverage_ppm", s.name))
                .set(ppm(s.coverage));
            metrics
                .gauge(&format!("lf/{}/overlap_ppm", s.name))
                .set(ppm(s.overlap));
            metrics
                .gauge(&format!("lf/{}/conflict_ppm", s.name))
                .set(ppm(s.conflict));
            metrics
                .gauge(&format!("lf/{}/learned_accuracy_ppm", s.name))
                .set(ppm(s.learned_accuracy));
        }
    }

    /// Render the report as an aligned text table (used by examples and the
    /// bench binaries).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9}\n",
            "LF", "cover", "overlap", "conflict", "acc(gen)", "prop(gen)", "acc(dev)"
        ));
        for s in &self.summaries {
            let dev = s
                .empirical_accuracy
                .map(|a| format!("{a:>9.3}"))
                .unwrap_or_else(|| format!("{:>9}", "-"));
            out.push_str(&format!(
                "{:<24} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>10.3} {}\n",
                s.name,
                s.coverage,
                s.overlap,
                s.conflict,
                s.learned_accuracy,
                s.learned_propensity,
                dev
            ));
        }
        out.push_str(&format!("label density: {:.3}\n", self.label_density));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generative::TrainConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(m: usize, accs: &[f64], seed: u64) -> (LabelMatrix, Vec<Label>) {
        let n = accs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mat = LabelMatrix::with_capacity(n, m);
        let mut gold = Vec::with_capacity(m);
        for _ in 0..m {
            let y = if rng.gen_bool(0.5) {
                Label::Positive
            } else {
                Label::Negative
            };
            let row: Vec<i8> = accs
                .iter()
                .map(|&a| {
                    if !rng.gen_bool(0.8) {
                        0
                    } else if rng.gen_bool(a) {
                        y.as_i8()
                    } else {
                        -y.as_i8()
                    }
                })
                .collect();
            mat.push_raw_row(&row).unwrap();
            gold.push(y);
        }
        (mat, gold)
    }

    #[test]
    fn report_flags_the_planted_bad_lf() {
        let accs = [0.9, 0.85, 0.45]; // LF 2 is worse than chance-ish
        let (mat, gold) = planted(5000, &accs, 21);
        let mut model = GenerativeModel::new(3, 0.7);
        model
            .fit(
                &mat,
                &TrainConfig {
                    steps: 2500,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let names = vec!["good_a".into(), "good_b".into(), "broken".into()];
        let report = LfReport::build(&mat, &model, &names, Some((&mat, &gold))).unwrap();
        let low = report.low_quality(0.6);
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].name, "broken");
        // Learned accuracy should track empirical accuracy for all LFs.
        for s in &report.summaries {
            let emp = s.empirical_accuracy.unwrap();
            assert!(
                (s.learned_accuracy - emp).abs() < 0.1,
                "{}: learned {:.3} vs empirical {:.3}",
                s.name,
                s.learned_accuracy,
                emp
            );
        }
        let table = report.to_table();
        assert!(table.contains("broken"));
        assert!(table.contains("label density"));
    }

    #[test]
    fn to_json_round_trips_through_the_obs_parser() {
        let (mat, _) = planted(200, &[0.8, 0.8], 3);
        let mut model = GenerativeModel::new(2, 0.7);
        model
            .fit(
                &mat,
                &TrainConfig {
                    steps: 50,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let names = vec!["a".into(), "b".into()];
        let report = LfReport::build(&mat, &model, &names, None).unwrap();
        let parsed = drybell_obs::parse_json(&report.to_json().to_line()).unwrap();
        let lfs = parsed.get("lfs").unwrap().items();
        assert_eq!(lfs.len(), 2);
        assert_eq!(lfs[0].get("name").and_then(|v| v.as_str()), Some("a"));
        assert!(lfs[0].get("empirical_accuracy").unwrap().is_null());
        let density = parsed
            .get("label_density")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((density - report.label_density).abs() < 1e-9);
    }

    #[test]
    fn report_exports_registry_named_signals() {
        let (mat, _) = planted(200, &[0.8, 0.8], 3);
        let mut model = GenerativeModel::new(2, 0.7);
        model
            .fit(
                &mat,
                &TrainConfig {
                    steps: 50,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        let names = vec!["kw_a".into(), "kw_b".into()];
        let report = LfReport::build(&mat, &model, &names, None).unwrap();

        // Gauges land under the ppm fixed-point names from the registry.
        let metrics = drybell_obs::MetricsRegistry::new();
        report.export_to(&metrics);
        let snap = metrics.snapshot();
        for s in &report.summaries {
            let g = snap.gauge(&format!("lf/{}/coverage_ppm", s.name));
            assert_eq!(g, (s.coverage * 1e6).round() as i64, "{}", s.name);
            assert_eq!(
                snap.gauge(&format!("lf/{}/learned_accuracy_ppm", s.name)),
                (s.learned_accuracy * 1e6).round() as i64
            );
        }
        for (name, _) in &snap.gauges {
            assert!(
                drybell_obs::naming::is_registered(drybell_obs::naming::Family::Gauge, name),
                "unregistered gauge {name}"
            );
        }

        // The journal event mirrors to_json under kind lf_report.
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        report.emit_to(&journal);
        let events = buffer.parsed_lines().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").and_then(|k| k.as_str()),
            Some("lf_report")
        );
        let lfs = events[0].get("lfs").unwrap().items();
        assert_eq!(lfs.len(), 2);
        assert_eq!(lfs[0].get("name").and_then(|v| v.as_str()), Some("kw_a"));
        assert!(
            (events[0]
                .get("label_density")
                .and_then(|v| v.as_f64())
                .unwrap()
                - report.label_density)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn build_validates_shapes() {
        let (mat, _) = planted(50, &[0.8, 0.8], 1);
        let model = GenerativeModel::new(3, 0.7);
        assert!(LfReport::build(&mat, &model, &[], None).is_err());
        let model = GenerativeModel::new(2, 0.7);
        let bad_names = vec!["only_one".to_string()];
        assert!(LfReport::build(&mat, &model, &bad_names, None).is_err());
        assert!(LfReport::build(&mat, &model, &[], None).is_ok());
    }
}
