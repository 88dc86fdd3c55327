//! Threshold-free ranking and calibration metrics.
//!
//! The paper's Table 2 reports threshold-0.5 P/R/F1; its §6.4 discussion
//! of score *distributions* (Figure 6) and review budgets implicitly
//! relies on ranking quality and calibration. These metrics quantify
//! both: average precision (PR-AUC) and expected calibration error.

/// Indices `0..n` sorted by descending score (ties keep input order).
fn ranked_indices(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx
}

/// Average precision (area under the precision-recall curve, computed as
/// the mean of precision@rank over positive ranks). Returns 0 when there
/// are no positives.
pub fn average_precision(scores: &[f64], gold: &[bool]) -> f64 {
    assert_eq!(scores.len(), gold.len(), "length mismatch");
    let total_pos = gold.iter().filter(|&&g| g).count();
    if total_pos == 0 {
        return 0.0;
    }
    let mut hits = 0u64;
    let mut sum = 0.0;
    for (rank, &i) in ranked_indices(scores).iter().enumerate() {
        if gold[i] {
            hits += 1;
            sum += hits as f64 / (rank + 1) as f64;
        }
    }
    sum / total_pos as f64
}

/// Expected calibration error over `bins` equal-width probability bins:
/// the positive-frequency-weighted mean `|mean score − empirical rate|`.
pub fn expected_calibration_error(scores: &[f64], gold: &[bool], bins: usize) -> f64 {
    assert_eq!(scores.len(), gold.len(), "length mismatch");
    assert!(bins > 0, "need at least one bin");
    if scores.is_empty() {
        return 0.0;
    }
    let mut count = vec![0u64; bins];
    let mut sum_score = vec![0.0f64; bins];
    let mut sum_pos = vec![0u64; bins];
    for (&s, &g) in scores.iter().zip(gold) {
        let b = ((s * bins as f64) as usize).min(bins - 1);
        count[b] += 1;
        sum_score[b] += s;
        sum_pos[b] += u64::from(g);
    }
    let n = scores.len() as f64;
    (0..bins)
        .filter(|&b| count[b] > 0)
        .map(|b| {
            let conf = sum_score[b] / count[b] as f64;
            let acc = sum_pos[b] as f64 / count[b] as f64;
            (count[b] as f64 / n) * (conf - acc).abs()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::unit_score;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn perfect_ranking() {
        let scores = [0.9, 0.8, 0.3, 0.1];
        let gold = [true, true, false, false];
        assert!((average_precision(&scores, &gold) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_average_precision() {
        // Ranked gold pattern: [+, -, +] → AP = (1/1 + 2/3) / 2.
        let scores = [0.9, 0.5, 0.2];
        let gold = [true, false, true];
        let want = (1.0 + 2.0 / 3.0) / 2.0;
        assert!((average_precision(&scores, &gold) - want).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(average_precision(&[0.5], &[false]), 0.0);
        assert_eq!(expected_calibration_error(&[], &[], 10), 0.0);
    }

    #[test]
    fn calibration_of_perfect_and_awful_scores() {
        // Perfectly calibrated: scores equal empirical rates per bin.
        let scores: Vec<f64> = (0..1000).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let gold: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        assert!(expected_calibration_error(&scores, &gold, 10) < 1e-9);
        // Confidently wrong: ECE near 1.
        let gold_flipped: Vec<bool> = gold.iter().map(|g| !g).collect();
        assert!(expected_calibration_error(&scores, &gold_flipped, 10) > 0.99);
    }

    /// Between `min_len` and `max_len - 1` (score, label) pairs, each
    /// score in `[0, 1]` and on either end one time in 32.
    fn ranked(rng: &mut StdRng, min_len: usize, max_len: usize) -> (Vec<f64>, Vec<bool>) {
        (0..rng.gen_range(min_len..max_len))
            .map(|_| (unit_score(rng), rng.gen::<bool>()))
            .unzip()
    }

    #[test]
    fn prop_metrics_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let (scores, gold) = ranked(&mut rng, 1, 200);
            for v in [
                average_precision(&scores, &gold),
                expected_calibration_error(&scores, &gold, 10),
            ] {
                assert!((0.0..=1.0).contains(&v), "{v}");
            }
        }
    }
}
