//! Evaluation metrics.
//!
//! The paper optimizes and reports F1 (§6.1, Table 2) and, "due to the
//! sensitive nature of these applications", reports every content-task
//! number *relative to a baseline* — precision, recall, and F1 normalized
//! by the dev-set-trained classifier's scores, with "lift" the relative F1
//! difference. [`RelativeMetrics`] reproduces that exact presentation, and
//! [`score_histogram`] backs Figure 6's score-distribution comparison.

/// Confusion-matrix-based binary metrics at a fixed threshold.
///
/// ```
/// use drybell_ml::metrics::BinaryMetrics;
/// let m = BinaryMetrics::at_threshold(&[0.9, 0.2, 0.7], &[true, false, false], 0.5);
/// assert_eq!(m.recall(), 1.0);
/// assert_eq!(m.precision(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl BinaryMetrics {
    /// Compute from scores and boolean gold labels at `threshold`
    /// (prediction positive iff `score >= threshold`; the paper uses 0.5).
    ///
    /// Panics if the slices differ in length.
    pub fn at_threshold(scores: &[f64], gold: &[bool], threshold: f64) -> BinaryMetrics {
        assert_eq!(scores.len(), gold.len(), "scores vs gold length mismatch");
        let mut m = BinaryMetrics {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        for (&s, &y) in scores.iter().zip(gold) {
            match (s >= threshold, y) {
                (true, true) => m.tp += 1,
                (true, false) => m.fp += 1,
                (false, false) => m.tn += 1,
                (false, true) => m.fn_ += 1,
            }
        }
        m
    }

    /// Precision `tp / (tp + fp)`; 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when there are no positives.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// F1, the harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy over all examples.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Count of predicted positives (the §6.4 "events identified" count).
    pub fn predicted_positives(&self) -> u64 {
        self.tp + self.fp
    }
}

/// Metrics normalized to a baseline, as every content-classification table
/// in the paper reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeMetrics {
    /// Precision relative to the baseline's precision (1.0 = parity).
    pub precision: f64,
    /// Recall relative to the baseline's recall.
    pub recall: f64,
    /// F1 relative to the baseline's F1.
    pub f1: f64,
}

impl RelativeMetrics {
    /// Normalize `ours` by `baseline`.
    pub fn versus(ours: &BinaryMetrics, baseline: &BinaryMetrics) -> RelativeMetrics {
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        RelativeMetrics {
            precision: ratio(ours.precision(), baseline.precision()),
            recall: ratio(ours.recall(), baseline.recall()),
            f1: ratio(ours.f1(), baseline.f1()),
        }
    }

    /// "Lift" as the paper reports it: relative F1 minus 100%.
    pub fn lift(&self) -> f64 {
        self.f1 - 1.0
    }

    /// Render as the paper's percentage row, e.g. `100.6% 132.1% 117.5%`.
    pub fn row(&self) -> String {
        format!(
            "{:>7.1}% {:>7.1}% {:>7.1}%",
            self.precision * 100.0,
            self.recall * 100.0,
            self.f1 * 100.0
        )
    }
}

/// Histogram of scores over `[0, 1]` with `bins` equal-width buckets
/// (scores of exactly 1.0 fall in the last bucket) — the data behind
/// Figure 6.
pub fn score_histogram(scores: &[f64], bins: usize) -> Vec<u64> {
    assert!(bins > 0, "need at least one bin");
    let mut hist = vec![0u64; bins];
    for &s in scores {
        let b = ((s * bins as f64) as usize).min(bins - 1);
        hist[b] += 1;
    }
    hist
}

/// Render a histogram as a fixed-width ASCII bar chart (for the bench
/// binaries' Figure 6 output).
pub fn render_histogram(hist: &[u64], width: usize) -> String {
    let max = hist.iter().copied().max().unwrap_or(0).max(1);
    let bins = hist.len();
    let mut out = String::new();
    for (i, &count) in hist.iter().enumerate() {
        let lo = i as f64 / bins as f64;
        let hi = (i + 1) as f64 / bins as f64;
        let bar_len = ((count as f64 / max as f64) * width as f64).round() as usize;
        out.push_str(&format!(
            "[{lo:.2},{hi:.2}) {:>8} {}\n",
            count,
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Shannon entropy (nats) of a histogram's normalized distribution —
/// a scalar summary of Figure 6's "smoother distribution" claim (higher
/// entropy = less mass piled at the extremes).
pub fn histogram_entropy(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    hist.iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn perfect_classifier() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let gold = [true, true, false, false];
        let m = BinaryMetrics::at_threshold(&scores, &gold, 0.5);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.predicted_positives(), 2);
    }

    #[test]
    fn known_confusion_matrix() {
        // 3 TP, 1 FP, 4 TN, 2 FN.
        let scores = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1];
        let gold = [
            true, true, true, false, true, true, false, false, false, false,
        ];
        let m = BinaryMetrics::at_threshold(&scores, &gold, 0.5);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (3, 1, 4, 2));
        assert!((m.precision() - 0.75).abs() < 1e-12);
        assert!((m.recall() - 0.6).abs() < 1e-12);
        let f1 = 2.0 * 0.75 * 0.6 / 1.35;
        assert!((m.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let m = BinaryMetrics::at_threshold(&[0.1, 0.2], &[false, false], 0.5);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        let m = BinaryMetrics::at_threshold(&[], &[], 0.5);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn relative_metrics_reproduce_paper_presentation() {
        let baseline = BinaryMetrics {
            tp: 50,
            fp: 50,
            tn: 100,
            fn_: 50,
        };
        let ours = BinaryMetrics {
            tp: 60,
            fp: 40,
            tn: 110,
            fn_: 40,
        };
        let rel = RelativeMetrics::versus(&ours, &baseline);
        assert!((rel.precision - ours.precision() / baseline.precision()).abs() < 1e-12);
        assert!((rel.lift() - (rel.f1 - 1.0)).abs() < 1e-12);
        let row = rel.row();
        assert!(row.contains('%'));
    }

    #[test]
    fn histogram_bins_and_edges() {
        let scores = [0.0, 0.05, 0.5, 0.99, 1.0];
        let hist = score_histogram(&scores, 10);
        assert_eq!(hist.iter().sum::<u64>(), 5);
        assert_eq!(hist[0], 2); // 0.0 and 0.05
        assert_eq!(hist[5], 1); // 0.5
        assert_eq!(hist[9], 2); // 0.99 and the edge case 1.0
    }

    #[test]
    fn entropy_orders_peaked_vs_smooth() {
        let peaked = [1000u64, 0, 0, 0, 0, 0, 0, 0, 0, 1000];
        let smooth = [200u64; 10];
        assert!(histogram_entropy(&smooth) > histogram_entropy(&peaked));
        assert_eq!(histogram_entropy(&[0; 4]), 0.0);
    }

    #[test]
    fn render_has_one_line_per_bin() {
        let hist = [3u64, 0, 7];
        let s = render_histogram(&hist, 20);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("#"));
    }

    /// A score in `[0, 1]` that lands on either end one time in 32.
    pub(crate) fn unit_score(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..32) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen(),
        }
    }

    /// Up to `max_len` (score in `[0, 1)`, label) pairs, at least `min_len`.
    fn scored(rng: &mut StdRng, min_len: usize, max_len: usize) -> (Vec<f64>, Vec<bool>) {
        (0..rng.gen_range(min_len..max_len))
            .map(|_| (rng.gen::<f64>(), rng.gen::<bool>()))
            .unzip()
    }

    #[test]
    fn prop_metrics_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let (scores, gold) = scored(&mut rng, 0, 200);
            let m = BinaryMetrics::at_threshold(&scores, &gold, rng.gen());
            for v in [m.precision(), m.recall(), m.f1(), m.accuracy()] {
                assert!((0.0..=1.0).contains(&v));
            }
            assert_eq!(m.tp + m.fp + m.tn + m.fn_, scores.len() as u64);
        }
    }

    #[test]
    fn prop_histogram_preserves_mass() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let scores: Vec<f64> = (0..rng.gen_range(0..300))
                .map(|_| unit_score(&mut rng))
                .collect();
            let bins = rng.gen_range(1..30);
            let hist = score_histogram(&scores, bins);
            assert_eq!(hist.len(), bins);
            assert_eq!(hist.iter().sum::<u64>(), scores.len() as u64);
        }
    }

    #[test]
    fn prop_f1_between_precision_and_recall() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let (scores, gold) = scored(&mut rng, 1, 200);
            let m = BinaryMetrics::at_threshold(&scores, &gold, 0.5);
            let (p, r, f1) = (m.precision(), m.recall(), m.f1());
            if p > 0.0 && r > 0.0 {
                assert!(f1 <= p.max(r) + 1e-12);
                assert!(f1 >= p.min(r) - 1e-12);
            }
        }
    }
}
