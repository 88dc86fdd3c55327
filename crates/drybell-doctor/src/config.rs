//! Drift budgets: which signals gate, and by how much.
//!
//! Budgets live in a checked-in `doctor.toml` (flat `[section]` /
//! `key = value` pairs — parsed by a deliberately tiny TOML subset so
//! the crate stays dependency-free). A missing budget means the signal
//! is *informational*: the doctor reports its delta but never fails the
//! run on it. Setting a budget to a negative number disables a built-in
//! default the same way.
//!
//! Key naming: `<section>.<signal>_<kind>` where kind is `abs`
//! (|Δ| ≤ budget), `rel` (|Δ| / max(|baseline|, ε) ≤ budget), or a PSI
//! cut-off under `[psi]`.

use crate::DoctorError;
use std::collections::BTreeMap;

/// Budget lookup: flat `section.key → f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorConfig {
    values: BTreeMap<String, f64>,
}

/// The built-in budgets `DoctorConfig::default()` starts from, and the
/// list of every key the doctor reads: a `doctor.toml` key outside it is
/// an error. These gate only signals that are deterministic for a
/// seeded pipeline — wall-clock and latency ship disabled (−1) unless a
/// `doctor.toml` opts them in, so timing noise cannot fail a CI gate.
const DEFAULT_BUDGETS: &[(&str, f64)] = &[
    // Dataflow health: a golden run retries and skips nothing.
    ("scalar.retries_abs", 0.0),
    ("scalar.skipped_records_abs", 0.0),
    // NLP service health: degradations are drift by definition.
    ("scalar.nlp_calls_rel", -1.0),
    ("scalar.nlp_degraded_abs", 0.0),
    ("scalar.nlp_cache_hit_rate_abs", 0.15),
    // Label-model convergence.
    ("scalar.final_nll_rel", 0.05),
    // End-model quality (seeded pipelines reproduce F1 exactly).
    ("scalar.drybell_f1_abs", 0.05),
    // Machine-dependent timings.
    ("timing.wall_rel", -1.0),
    ("timing.straggler_rel", -1.0),
    // Per-LF statistics (§3.3's monitored-over-time signals).
    ("lf.coverage_abs", 0.10),
    ("lf.overlap_abs", 0.20),
    ("lf.conflict_abs", 0.15),
    ("lf.learned_accuracy_abs", 0.12),
    ("lf.degraded_abs", 0.0),
    // Serving score distribution: the conventional "drifted" PSI cut.
    // Latency distributions stay informational.
    ("psi.score_dist", 0.25),
    ("psi.latency", -1.0),
    // Any NaN score out of a shadowed model is drift by definition.
    ("serving.invalid_scores_abs", 0.0),
];

impl Default for DoctorConfig {
    fn default() -> DoctorConfig {
        DoctorConfig {
            values: DEFAULT_BUDGETS
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

impl DoctorConfig {
    /// The budget for `key` (e.g. `"lf.coverage_abs"`), if one is set
    /// and non-negative. Negative values read as "disabled".
    pub fn budget(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied().filter(|v| *v >= 0.0)
    }

    /// Override or add one budget.
    pub fn set(&mut self, key: &str, value: f64) {
        self.values.insert(key.to_string(), value);
    }

    /// Parse a `doctor.toml` on top of the built-in defaults.
    ///
    /// Accepted subset: `#` comments, blank lines, `[section]` headers,
    /// and `key = <number|true|false>` pairs (booleans read as 1/0, so
    /// `foo_abs = false` is an explicit "never budget this"... use a
    /// negative number for clarity). Anything else is an error — a typo
    /// in a gating file must not silently relax a budget, so a key the
    /// doctor does not read and a NaN or infinite value are errors too.
    pub(crate) fn from_toml_str(text: &str) -> Result<DoctorConfig, DoctorError> {
        let mut cfg = DoctorConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let bad =
                |what: &str| DoctorError::BadConfig(format!("line {}: {what}: {raw:?}", idx + 1));
            if let Some(head) = line.strip_prefix('[') {
                let name = head
                    .strip_suffix(']')
                    .ok_or_else(|| bad("unclosed section"))?;
                let name = name.trim();
                if name.is_empty() || !name.chars().all(is_key_char) {
                    return Err(bad("bad section name"));
                }
                section = name.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad("expected key = value"))?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(is_key_char) {
                return Err(bad("bad key"));
            }
            let value = value.trim();
            let value = match value {
                "true" => 1.0,
                "false" => 0.0,
                v => v
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| bad("bad numeric value"))?,
            };
            let full = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            let slot = cfg
                .values
                .get_mut(&full)
                .ok_or_else(|| bad("unknown budget key"))?;
            *slot = value;
        }
        Ok(cfg)
    }

    /// Load a `doctor.toml` from disk on top of the defaults.
    pub fn from_path(path: &std::path::Path) -> Result<DoctorConfig, DoctorError> {
        DoctorConfig::from_toml_str(&std::fs::read_to_string(path)?)
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'
}

/// Drop a trailing `#` comment (our values are numbers/booleans, so `#`
/// can never occur inside a value).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_gate_the_deterministic_signals() {
        let cfg = DoctorConfig::default();
        assert_eq!(cfg.budget("scalar.retries_abs"), Some(0.0));
        assert_eq!(cfg.budget("lf.coverage_abs"), Some(0.10));
        assert_eq!(cfg.budget("psi.score_dist"), Some(0.25));
        // Timing stays informational unless opted in.
        assert_eq!(cfg.budget("timing.wall_rel"), None);
        assert_eq!(cfg.budget("psi.latency"), None);
    }

    #[test]
    fn toml_subset_parses_sections_comments_and_overrides() {
        let cfg = DoctorConfig::from_toml_str(
            "# budgets\n\
             [lf]\n\
             coverage_abs = 0.02   # tighter than default\n\
             degraded_abs = -1     # disabled\n\
             \n\
             [timing]\n\
             wall_rel = 0.5\n\
             [psi]\n\
             latency = 0.4\n",
        )
        .unwrap();
        assert_eq!(cfg.budget("lf.coverage_abs"), Some(0.02));
        assert_eq!(cfg.budget("lf.degraded_abs"), None, "negative disables");
        assert_eq!(cfg.budget("timing.wall_rel"), Some(0.5));
        assert_eq!(cfg.budget("psi.latency"), Some(0.4));
        // Untouched defaults survive the overlay.
        assert_eq!(cfg.budget("scalar.final_nll_rel"), Some(0.05));
    }

    #[test]
    fn malformed_budget_files_are_rejected_loudly() {
        for bad in [
            "[unclosed\nx = 1",
            "novalue\n",
            "key = \"string\"\n",
            "[bad section]\nx = 1",
            "spaced key = 1\n",
            // NaN reads as no budget and infinity as one nothing
            // exceeds: either turns a gate off without saying so.
            "[scalar]\nfinal_nll_rel = nan\n",
            "[scalar]\nfinal_nll_rel = inf\n",
            // A misspelt key must not be dropped in silence.
            "[scalar]\nfinal_nll_re = 2\n",
        ] {
            assert!(
                DoctorConfig::from_toml_str(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }
}
