//! Population Stability Index over bucketed distributions.
//!
//! PSI is the standard drift score for monitored model populations:
//! `Σ (qᵢ − pᵢ) · ln(qᵢ / pᵢ)` over bucket proportions `p` (expected /
//! baseline) and `q` (actual / current). Every term is non-negative
//! (the sign of `qᵢ − pᵢ` matches the sign of the log), so PSI is `0`
//! exactly when the distributions agree bucket-wise and grows with
//! divergence. The usual industry reading: `< 0.1` stable, `0.1–0.25`
//! shifting, `> 0.25` drifted — `doctor.toml` makes the cut-off a
//! per-signal budget.

/// Proportion floor for empty buckets: without smoothing a bucket that
/// is occupied on one side and empty on the other would make the score
/// infinite, which is noise-hostile for sparse histograms.
const EPSILON: f64 = 1e-4;

/// The population-stability index between two bucketed counts.
///
/// The slices are aligned by index and may differ in length (the
/// shorter is zero-padded). Each side is normalized by its own total;
/// zero-proportion buckets are floored at `1e-4` before the log, so the
/// score is always finite when both sides have samples. Edge cases:
/// both empty ⇒ `0.0` (nothing drifted); exactly one side empty ⇒
/// `f64::INFINITY` (maximal drift — a distribution disappeared).
pub fn psi(expected: &[u64], actual: &[u64]) -> f64 {
    let e_total: u64 = expected.iter().sum();
    let a_total: u64 = actual.iter().sum();
    match (e_total, a_total) {
        (0, 0) => return 0.0,
        (0, _) | (_, 0) => return f64::INFINITY,
        _ => {}
    }
    let n = expected.len().max(actual.len());
    let mut total = 0.0;
    for i in 0..n {
        let e = expected.get(i).copied().unwrap_or(0);
        let a = actual.get(i).copied().unwrap_or(0);
        let p = (e as f64 / e_total as f64).max(EPSILON);
        let q = (a as f64 / a_total as f64).max(EPSILON);
        total += (q - p) * (q / p).ln();
    }
    total
}

/// PSI over sparse `(bucket index, count)` pairs — the shape journal
/// and metrics snapshots serialize log-bucket histograms in.
pub(crate) fn psi_sparse(expected: &[(usize, u64)], actual: &[(usize, u64)]) -> f64 {
    let width = expected
        .iter()
        .chain(actual)
        .map(|&(i, _)| i + 1)
        .max()
        .unwrap_or(0);
    let mut e = vec![0u64; width];
    let mut a = vec![0u64; width];
    for &(i, n) in expected {
        if let Some(slot) = e.get_mut(i) {
            *slot += n;
        }
    }
    for &(i, n) in actual {
        if let Some(slot) = a.get_mut(i) {
            *slot += n;
        }
    }
    psi(&e, &a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_score_zero() {
        let h = [10, 20, 30, 25, 15];
        assert_eq!(psi(&h, &h), 0.0);
        // Scale invariance: same proportions, different totals.
        let doubled: Vec<u64> = h.iter().map(|&n| n * 2).collect();
        assert!(psi(&h, &doubled).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distributions_score_large() {
        // All mass in bucket 0 vs all mass in bucket 1.
        let score = psi(&[100, 0], &[0, 100]);
        assert!(score > 5.0, "disjoint PSI {score}");
        assert!(score.is_finite());
        // Symmetric in magnitude for the mirrored comparison.
        let back = psi(&[0, 100], &[100, 0]);
        assert!((score - back).abs() < 1e-12);
    }

    #[test]
    fn moderate_shift_lands_between_the_conventional_cutoffs() {
        // 10% of mass moved one bucket over: a "shifting" population.
        let score = psi(&[50, 50], &[40, 60]);
        assert!(score > 0.01 && score < 0.25, "moderate PSI {score}");
    }

    #[test]
    fn empty_edge_cases() {
        assert_eq!(psi(&[], &[]), 0.0);
        assert_eq!(psi(&[0, 0], &[0, 0]), 0.0);
        assert_eq!(psi(&[5, 5], &[]), f64::INFINITY);
        assert_eq!(psi(&[], &[5, 5]), f64::INFINITY);
        assert_eq!(psi(&[0], &[7]), f64::INFINITY);
    }

    #[test]
    fn single_bucket_distributions_agree_trivially() {
        // Both sides put 100% of mass in the only bucket: identical
        // proportions regardless of counts.
        assert_eq!(psi(&[5], &[9]), 0.0);
        assert_eq!(psi(&[1], &[1_000_000]), 0.0);
    }

    #[test]
    fn length_mismatch_zero_pads() {
        assert!(psi(&[10, 10], &[10, 10, 0, 0]).abs() < 1e-12);
        let score = psi(&[10, 10], &[10, 10, 20]);
        assert!(score > 0.1, "padded PSI {score}");
    }

    #[test]
    fn psi_is_nonnegative_and_termwise_monotone() {
        // Every term (q-p)ln(q/p) ≥ 0, so any perturbation scores > 0.
        let base = [25, 25, 25, 25];
        for shifted in [[35, 15, 25, 25], [25, 25, 10, 40], [1, 1, 1, 97]] {
            let score = psi(&base, &shifted);
            assert!(score > 0.0, "{shifted:?} scored {score}");
        }
    }

    #[test]
    fn sparse_form_matches_dense() {
        let dense = psi(&[3, 0, 7, 0, 2], &[1, 0, 9, 0, 2]);
        let sparse = psi_sparse(&[(0, 3), (2, 7), (4, 2)], &[(0, 1), (2, 9), (4, 2)]);
        assert!((dense - sparse).abs() < 1e-12);
        assert_eq!(psi_sparse(&[], &[]), 0.0);
    }
}
