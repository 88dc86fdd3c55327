//! Shadow evaluation: comparing a staged model against the serving one.
//!
//! §7 closes with the observation that teams will manage "large networks
//! of classifiers" whose training data shifts under them. Before
//! promoting a retrained DryBell model, production practice is to run it
//! in *shadow*: score live traffic with both the serving version and the
//! staged candidate, record how often and how much they disagree, and
//! only promote when the disagreement profile looks like an intentional
//! improvement rather than a regression. This module implements that
//! accounting on top of [`crate::ServingRegistry`].

use crate::{score_spec, ModelSpec, ScoreInput, ServingError, ServingRegistry};
use drybell_ml::MlpScratch;
use std::sync::Arc;

/// Number of uniform buckets in a [`ScoreHistogram`].
pub const SCORE_BUCKETS: usize = 10;

/// A fixed-bucket histogram of classifier scores: [`SCORE_BUCKETS`]
/// uniform buckets over `[0, 1]` (scores outside are clamped).
///
/// Unlike `drybell_obs::Histogram` — log-bucketed microseconds — this
/// tracks a bounded probability, so uniform buckets are the right shape
/// for distribution comparisons (a population-stability index across
/// runs, Figure 6-style score-mass plots).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreHistogram {
    buckets: [u64; SCORE_BUCKETS],
    /// Non-finite scores (NaN) seen. These are counted *outside* the
    /// buckets: silently binning NaN into bucket 0 used to poison the
    /// `score_dist/*` distributions drybell-doctor runs PSI over,
    /// making a broken model read as a score-mass shift toward 0.
    invalid: u64,
}

impl ScoreHistogram {
    /// Record one score. NaN is counted as invalid, not binned.
    pub fn record(&mut self, score: f64) {
        if score.is_nan() {
            self.invalid += 1;
            return;
        }
        let clamped = score.clamp(0.0, 1.0);
        let i = ((clamped * SCORE_BUCKETS as f64) as usize).min(SCORE_BUCKETS - 1);
        if let Some(b) = self.buckets.get_mut(i) {
            *b += 1;
        }
    }

    /// Per-bucket counts, lowest score bucket first.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Total *valid* scores recorded (excludes [`ScoreHistogram::invalid`]).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// NaN scores seen — a model emitting these is broken and must be
    /// flagged by the doctor, not absorbed into the distribution.
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// The counts as a JSON array.
    pub fn to_json(&self) -> drybell_obs::Json {
        drybell_obs::Json::Arr(
            self.buckets
                .iter()
                .map(|&n| drybell_obs::Json::from(n))
                .collect(),
        )
    }
}

/// Accumulated comparison between the serving model and a staged
/// candidate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShadowReport {
    /// Examples scored by both versions.
    pub examples: u64,
    /// Examples where the thresholded (0.5) decisions differ.
    pub decision_flips: u64,
    /// Examples the candidate newly marks positive.
    pub new_positives: u64,
    /// Examples the candidate newly marks negative.
    pub new_negatives: u64,
    /// Sum of |candidate − serving| score gaps.
    sum_abs_gap: f64,
    /// Largest single score gap seen.
    pub max_abs_gap: f64,
    /// Distribution of the serving model's scores.
    pub serving_dist: ScoreHistogram,
    /// Distribution of the candidate's scores.
    pub candidate_dist: ScoreHistogram,
}

impl ShadowReport {
    /// Fraction of examples whose decision flips.
    pub fn flip_rate(&self) -> f64 {
        if self.examples == 0 {
            0.0
        } else {
            self.decision_flips as f64 / self.examples as f64
        }
    }

    /// Mean absolute score gap.
    pub fn mean_abs_gap(&self) -> f64 {
        if self.examples == 0 {
            0.0
        } else {
            self.sum_abs_gap / self.examples as f64
        }
    }

    /// Fold one (serving, candidate) score pair into the report. Plain
    /// memory writes on owned buckets — safe inside the shadow hot loop.
    pub(crate) fn record_pair(&mut self, serving: f64, candidate: f64) {
        self.examples += 1;
        self.serving_dist.record(serving);
        self.candidate_dist.record(candidate);
        // A NaN on either side is counted by the histograms' invalid
        // counters; folding it into the gap sums would turn the whole
        // report's mean_abs_gap into NaN.
        let gap = (candidate - serving).abs();
        if !gap.is_nan() {
            self.sum_abs_gap += gap;
            self.max_abs_gap = self.max_abs_gap.max(gap);
        }
        let s_pos = serving >= 0.5;
        let c_pos = candidate >= 0.5;
        if s_pos != c_pos {
            self.decision_flips += 1;
            if c_pos {
                self.new_positives += 1;
            } else {
                self.new_negatives += 1;
            }
        }
    }

    /// Render the report as a JSON object (the `--json` mode of the
    /// shadow tooling).
    pub fn to_json(&self) -> drybell_obs::Json {
        use drybell_obs::Json;
        Json::obj(vec![
            ("examples", Json::from(self.examples)),
            ("decision_flips", Json::from(self.decision_flips)),
            ("flip_rate", Json::from(self.flip_rate())),
            ("new_positives", Json::from(self.new_positives)),
            ("new_negatives", Json::from(self.new_negatives)),
            ("mean_abs_gap", Json::from(self.mean_abs_gap())),
            ("max_abs_gap", Json::from(self.max_abs_gap)),
            ("score_dist/serving", self.serving_dist.to_json()),
            ("score_dist/candidate", self.candidate_dist.to_json()),
            ("invalid/serving", Json::from(self.serving_dist.invalid())),
            (
                "invalid/candidate",
                Json::from(self.candidate_dist.invalid()),
            ),
        ])
    }

    /// The report as a `shadow` journal event. This is the per-window
    /// record `drybell_doctor::StreamMonitor` folds score PSI from.
    pub fn to_event(&self) -> drybell_obs::Event {
        drybell_obs::Event::new("shadow")
            .field("examples", self.examples)
            .field("decision_flips", self.decision_flips)
            .field("flip_rate", self.flip_rate())
            .field("new_positives", self.new_positives)
            .field("new_negatives", self.new_negatives)
            .field("mean_abs_gap", self.mean_abs_gap())
            .field("max_abs_gap", self.max_abs_gap)
            .field("score_dist/serving", self.serving_dist.to_json())
            .field("score_dist/candidate", self.candidate_dist.to_json())
            .field("invalid/serving", self.serving_dist.invalid())
            .field("invalid/candidate", self.candidate_dist.invalid())
    }

    /// Emit one `shadow` event carrying the full report to a run journal.
    pub fn emit_to(&self, journal: &drybell_obs::RunJournal) {
        journal.emit(self.to_event());
    }
}

/// Runs a staged candidate in shadow against the serving version.
///
/// Both specs are resolved into `Arc` snapshots at construction, so the
/// shadow loop itself never touches the registry lock: a promotion or
/// staging on the registry after `new` is not observed by this evaluator
/// (take a fresh one to pick it up). Per-example latency samples buffer
/// in a local histogram (plain memory writes, no shared atomics inside
/// the shadow loop) and drain into the registry's
/// `obs/serving/shadow_score_us` histogram when the evaluator drops.
pub struct ShadowEval {
    serving: Arc<ModelSpec>,
    candidate: Arc<ModelSpec>,
    scratch: MlpScratch,
    report: ShadowReport,
    latency: drybell_obs::LocalHistogram,
    latency_sink: Option<std::sync::Arc<drybell_obs::Histogram>>,
}

impl ShadowEval {
    /// Start shadowing `candidate_version` of `model`. The model must
    /// have a serving version (the incumbent) and the candidate must be
    /// registered.
    pub fn new(
        registry: &ServingRegistry,
        model: &str,
        candidate_version: u32,
    ) -> Result<ShadowEval, ServingError> {
        let serving = registry.resolve_serving(model).map_err(|_| {
            ServingError::UnknownModel(format!("{model} (no serving incumbent to shadow against)"))
        })?;
        let candidate = registry.resolve_version(model, candidate_version)?;
        Ok(ShadowEval {
            serving,
            candidate,
            scratch: MlpScratch::default(),
            report: ShadowReport::default(),
            latency: drybell_obs::LocalHistogram::new(),
            latency_sink: registry.shadow_latency_sink(),
        })
    }

    /// Score one example with both versions, returning the *serving*
    /// model's score (shadow mode must not change production behaviour)
    /// while recording the comparison.
    pub fn observe(&mut self, input: ScoreInput<'_>) -> Result<f64, ServingError> {
        let started = self
            .latency_sink
            .as_ref()
            .map(|_| std::time::Instant::now());
        let serving = score_spec(&self.serving, &input, &mut self.scratch)?;
        let candidate = score_spec(&self.candidate, &input, &mut self.scratch)?;
        if let Some(s) = started {
            self.latency.observe_duration(s.elapsed());
        }
        self.report.record_pair(serving, candidate);
        Ok(serving)
    }

    /// The accumulated report.
    pub fn report(&self) -> &ShadowReport {
        &self.report
    }

    /// Drain the accumulated report, resetting the accumulator. Used by
    /// [`WindowedShadow`] to close score-histogram windows.
    pub(crate) fn take_report(&mut self) -> ShadowReport {
        std::mem::take(&mut self.report)
    }
}

impl Drop for ShadowEval {
    fn drop(&mut self) {
        if let Some(sink) = &self.latency_sink {
            self.latency.drain_into(sink);
        }
    }
}

/// A [`ShadowEval`] that closes a fresh [`ShadowReport`] every `window`
/// examples instead of accumulating one run-long report.
///
/// Windowed reports are what make shadow evaluation *streaming*: each
/// closed window carries its own score histograms, so an in-stream
/// monitor can run a per-window PSI verdict and catch a candidate whose
/// score mass shifts mid-stream — invisible in a cumulative histogram
/// that averages the shift away. The caller decides where closed windows
/// go (journal via [`ShadowReport::emit_to`], monitor via
/// [`ShadowReport::to_event`]); this type only does the accounting.
pub struct WindowedShadow {
    eval: ShadowEval,
    window: u64,
    windows_closed: u64,
}

impl WindowedShadow {
    /// Wrap `eval`, closing a window every `window` examples (min 1).
    pub fn new(eval: ShadowEval, window: u64) -> WindowedShadow {
        WindowedShadow {
            eval,
            window: window.max(1),
            windows_closed: 0,
        }
    }

    /// Score one example with both versions. Returns the serving score
    /// and, when this example completes a window, the closed report.
    pub fn observe(
        &mut self,
        input: ScoreInput<'_>,
    ) -> Result<(f64, Option<ShadowReport>), ServingError> {
        let score = self.eval.observe(input)?;
        let closed = if self.eval.report().examples >= self.window {
            self.windows_closed += 1;
            Some(self.eval.take_report())
        } else {
            None
        };
        Ok((score, closed))
    }

    /// Close the current partial window, if it has any examples.
    pub fn flush(&mut self) -> Option<ShadowReport> {
        if self.eval.report().examples == 0 {
            return None;
        }
        self.windows_closed += 1;
        Some(self.eval.take_report())
    }

    /// Windows closed so far (including a final [`WindowedShadow::flush`]).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// The in-progress (not yet closed) window's report.
    pub fn current(&self) -> &ShadowReport {
        self.eval.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExportedModel, ModelSpec, ServingRegistry};
    use drybell_features::{FeatureHasher, FeatureSpace, SpaceRegistry};
    use drybell_ml::{FtrlConfig, LogisticRegression};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn registry_with_two_versions(
    ) -> Result<(ServingRegistry, FeatureHasher), Box<dyn std::error::Error>> {
        let mut spaces = SpaceRegistry::new();
        let hashed = spaces
            .register(FeatureSpace::servable("hashed", 10))
            .ok_or("space taken")?;
        let registry = ServingRegistry::new(spaces, 1_000);
        let h = FeatureHasher::new(1 << 10);
        let train = |pos_token: &str| -> Result<LogisticRegression, drybell_ml::MlError> {
            // Two negatives to one positive: the learned bias is clearly
            // negative, so tokens a model never saw score below 0.5
            // regardless of the RNG-driven example order during training.
            let data = vec![
                (h.bag_of_words(&[pos_token]), 1.0),
                (h.bag_of_words(&["nothing"]), 0.0),
                (h.bag_of_words(&["filler"]), 0.0),
            ];
            let mut m = LogisticRegression::new(
                1 << 10,
                FtrlConfig {
                    iterations: 150,
                    ..FtrlConfig::default()
                },
            );
            m.fit(&data)?;
            Ok(m)
        };
        for (version, token) in [(1, "yes"), (2, "maybe")] {
            registry.stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(train(token)?),
            })?;
        }
        registry.promote("m", 1)?;
        Ok((registry, h))
    }

    #[test]
    fn shadow_returns_serving_scores_and_counts_flips() -> TestResult {
        let (registry, h) = registry_with_two_versions()?;
        let mut shadow = ShadowEval::new(&registry, "m", 2)?;
        // "yes": v1 positive, v2 (trained on "maybe") negative → flip.
        let x = h.bag_of_words(&["yes"]);
        let served = shadow.observe(ScoreInput::Sparse(&x))?;
        assert!(served > 0.8, "shadow must return the incumbent's score");
        // "maybe": v1 negative, v2 positive → flip the other way.
        let x = h.bag_of_words(&["maybe"]);
        shadow.observe(ScoreInput::Sparse(&x))?;
        // "nothing": both negative → no flip.
        let x = h.bag_of_words(&["nothing"]);
        shadow.observe(ScoreInput::Sparse(&x))?;
        let r = shadow.report();
        assert_eq!(r.examples, 3);
        assert_eq!(r.decision_flips, 2);
        assert_eq!(r.new_positives, 1);
        assert_eq!(r.new_negatives, 1);
        assert!(r.mean_abs_gap() > 0.0);
        assert!(r.max_abs_gap <= 1.0);
        Ok(())
    }

    #[test]
    fn shadow_ignores_registry_changes_after_resolution() -> TestResult {
        let (registry, h) = registry_with_two_versions()?;
        let mut shadow = ShadowEval::new(&registry, "m", 2)?;
        let x = h.bag_of_words(&["yes"]);
        let before = shadow.observe(ScoreInput::Sparse(&x))?;
        // Promote the candidate mid-shadow: the evaluator's snapshot
        // still scores with the incumbent it resolved at construction.
        registry.promote("m", 2)?;
        let after = shadow.observe(ScoreInput::Sparse(&x))?;
        assert_eq!(before, after);
        Ok(())
    }

    #[test]
    fn shadow_latency_batches_and_drains_on_drop() -> TestResult {
        let mut spaces = SpaceRegistry::new();
        let hashed = spaces
            .register(FeatureSpace::servable("hashed", 10))
            .ok_or("space taken")?;
        let telemetry = drybell_obs::Telemetry::new();
        let registry = ServingRegistry::new(spaces, 1_000).with_telemetry(&telemetry);
        let h = FeatureHasher::new(1 << 10);
        let data = vec![
            (h.bag_of_words(&["yes"]), 1.0),
            (h.bag_of_words(&["nothing"]), 0.0),
        ];
        let mut m = LogisticRegression::new(1 << 10, FtrlConfig::default());
        m.fit(&data)?;
        for version in [1, 2] {
            registry.stage(ModelSpec {
                name: "m".into(),
                version,
                feature_spaces: vec![hashed],
                model: ExportedModel::LogReg(m.clone()),
            })?;
        }
        registry.promote("m", 1)?;
        {
            let mut shadow = ShadowEval::new(&registry, "m", 2)?;
            for _ in 0..4 {
                let x = h.bag_of_words(&["yes"]);
                shadow.observe(ScoreInput::Sparse(&x))?;
            }
            // Samples are buffered locally until the evaluator drops.
            let snap = telemetry.metrics().snapshot();
            assert_eq!(
                snap.histogram("obs/serving/shadow_score_us")
                    .ok_or("missing histogram")?
                    .count(),
                0
            );
        }
        let snap = telemetry.metrics().snapshot();
        assert_eq!(
            snap.histogram("obs/serving/shadow_score_us")
                .ok_or("missing histogram")?
                .count(),
            4
        );
        Ok(())
    }

    #[test]
    fn report_renders_json_and_journal_event() -> TestResult {
        let (registry, h) = registry_with_two_versions()?;
        let mut shadow = ShadowEval::new(&registry, "m", 2)?;
        for token in ["yes", "maybe", "nothing"] {
            let x = h.bag_of_words(&[token]);
            shadow.observe(ScoreInput::Sparse(&x))?;
        }
        let report = shadow.report();
        let json = report.to_json();
        assert_eq!(json.get("examples").and_then(|v| v.as_i64()), Some(3));
        assert_eq!(json.get("decision_flips").and_then(|v| v.as_i64()), Some(2));
        let parsed = drybell_obs::parse_json(&json.to_line())?;
        let flip_rate = parsed
            .get("flip_rate")
            .and_then(|v| v.as_f64())
            .ok_or("missing flip_rate")?;
        assert!((flip_rate - report.flip_rate()).abs() < 1e-12);
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        report.emit_to(&journal);
        let events = buffer.parsed_lines()?;
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").and_then(|k| k.as_str()),
            Some("shadow")
        );
        assert_eq!(events[0].get("examples").and_then(|v| v.as_i64()), Some(3));
        Ok(())
    }

    #[test]
    fn score_histogram_buckets_clamp_and_count() -> TestResult {
        let mut h = ScoreHistogram::default();
        h.record(0.0); // bucket 0
        h.record(0.05); // bucket 0
        h.record(0.51); // bucket 5
        h.record(1.0); // clamped into the top bucket
        h.record(2.5); // clamped into the top bucket
        h.record(-0.1); // clamped into bucket 0
        h.record(f64::NAN); // counted as invalid, not binned
        assert_eq!(h.total(), 6, "NaN must not inflate the valid total");
        assert_eq!(h.counts()[0], 3, "NaN must not leak into bucket 0");
        assert_eq!(h.invalid(), 1);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[SCORE_BUCKETS - 1], 2);
        let json = h.to_json();
        assert_eq!(json.items().len(), SCORE_BUCKETS);
        assert_eq!(json.at(0).ok_or("missing bucket 0")?.as_i64(), Some(3));
        Ok(())
    }

    #[test]
    fn nan_scores_surface_in_report_json_and_journal() -> TestResult {
        let mut r = ShadowReport::default();
        r.record_pair(0.7, f64::NAN); // candidate model is broken
        r.record_pair(0.2, 0.3);
        assert_eq!(r.serving_dist.invalid(), 0);
        assert_eq!(r.candidate_dist.invalid(), 1);
        // The candidate's *valid* mass is smaller than the example count:
        // the doctor must see the invalid counter, not a phantom 0-score.
        assert_eq!(r.candidate_dist.total(), 1);
        assert!(r.mean_abs_gap().is_finite(), "NaN must not poison the gap");
        assert!(r.max_abs_gap.is_finite());
        let json = r.to_json();
        assert_eq!(
            json.get("invalid/candidate").and_then(|v| v.as_i64()),
            Some(1)
        );
        assert_eq!(
            json.get("invalid/serving").and_then(|v| v.as_i64()),
            Some(0)
        );
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        r.emit_to(&journal);
        let events = buffer.parsed_lines()?;
        assert_eq!(
            events[0].get("invalid/candidate").and_then(|v| v.as_i64()),
            Some(1)
        );
        Ok(())
    }

    #[test]
    fn shadow_records_both_score_distributions() -> TestResult {
        let (registry, h) = registry_with_two_versions()?;
        let mut shadow = ShadowEval::new(&registry, "m", 2)?;
        // No "maybe" in the stream: the incumbent scores "yes" high while
        // the candidate (positive token "maybe") scores everything low, so
        // the two histograms must differ. (With both tokens present the
        // symmetric training would yield identical bucket multisets.)
        for token in ["yes", "nothing", "filler", "filler"] {
            let x = h.bag_of_words(&[token]);
            shadow.observe(ScoreInput::Sparse(&x))?;
        }
        let r = shadow.report();
        assert_eq!(r.serving_dist.total(), r.examples);
        assert_eq!(r.candidate_dist.total(), r.examples);
        assert_ne!(r.serving_dist, r.candidate_dist);
        let json = r.to_json();
        let serving = json
            .get("score_dist/serving")
            .ok_or("missing serving dist")?;
        assert_eq!(serving.items().len(), SCORE_BUCKETS);
        let total: i64 = serving.items().iter().filter_map(|v| v.as_i64()).sum();
        assert_eq!(total, r.examples as i64);
        // The journal event carries the same arrays.
        let (journal, buffer) = drybell_obs::RunJournal::in_memory();
        r.emit_to(&journal);
        let events = buffer.parsed_lines()?;
        assert_eq!(
            events[0]
                .get("score_dist/candidate")
                .map(|v| v.items().len()),
            Some(SCORE_BUCKETS)
        );
        Ok(())
    }

    #[test]
    fn windowed_shadow_closes_per_window_reports() -> TestResult {
        let (registry, h) = registry_with_two_versions()?;
        let shadow = ShadowEval::new(&registry, "m", 2)?;
        let mut windowed = WindowedShadow::new(shadow, 3);
        let mut closed = Vec::new();
        // First window is all "yes" traffic, second all "nothing": the
        // windows must carry *their own* distributions, not cumulative
        // ones, or a mid-stream shift would be averaged away.
        for token in ["yes", "yes", "yes", "nothing", "nothing", "nothing"] {
            let x = h.bag_of_words(&[token]);
            let (score, window) = windowed.observe(ScoreInput::Sparse(&x))?;
            assert!(score.is_finite());
            closed.extend(window);
        }
        assert_eq!(closed.len(), 2);
        assert_eq!(windowed.windows_closed(), 2);
        for w in &closed {
            assert_eq!(w.examples, 3, "each window is exactly window-sized");
        }
        assert_ne!(
            closed[0].serving_dist, closed[1].serving_dist,
            "windows must not share score mass"
        );
        assert_eq!(windowed.current().examples, 0);
        // A partial window drains through flush, once.
        let x = h.bag_of_words(&["yes"]);
        windowed.observe(ScoreInput::Sparse(&x))?;
        let partial = windowed.flush().ok_or("partial window lost")?;
        assert_eq!(partial.examples, 1);
        assert!(windowed.flush().is_none(), "flush is idempotent when empty");
        // Closed windows round-trip into monitor-ready `shadow` events.
        let event = closed[0].to_event().to_json();
        assert_eq!(event.get("kind").and_then(|k| k.as_str()), Some("shadow"));
        assert_eq!(
            event.get("score_dist/serving").map(|d| d.items().len()),
            Some(SCORE_BUCKETS)
        );
        Ok(())
    }

    #[test]
    fn shadow_requires_incumbent_and_candidate() -> TestResult {
        let (registry, _) = registry_with_two_versions()?;
        assert!(matches!(
            ShadowEval::new(&registry, "m", 9),
            Err(ServingError::UnknownModel(_))
        ));
        assert!(matches!(
            ShadowEval::new(&registry, "ghost", 1),
            Err(ServingError::UnknownModel(_))
        ));
        Ok(())
    }
}
