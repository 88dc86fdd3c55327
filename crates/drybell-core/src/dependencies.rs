//! Labeling-function dependency diagnostics.
//!
//! The Snorkel line of work (Bach et al., ICML 2017 — reference \[3\] of
//! the paper) learns the *structure* of the generative model: which LFs
//! are correlated beyond what the latent class explains. DryBell's
//! deployed model assumes conditional independence (§5.2), so knowing
//! when that assumption is badly violated is an operational necessity —
//! two copies of the same heuristic silently count as two independent
//! votes.
//!
//! The screening statistic is the classical *triplet method* (the
//! method-of-moments identity behind Snorkel MeTaL). Let
//! `q_jk = 2·P(λ_j = λ_k | both vote) − 1` be the pair's agreement
//! correlation. Under conditional independence, `q_jk ≈ c_j·c_k` where
//! `c_j = 2·accuracy_j − 1`, and for any third LF `l`
//!
//! ```text
//! c_j² ≈ q_jk · q_jl / q_kl
//! ```
//!
//! so each `c_j` is identified from triplets that *exclude the pair under
//! test*. The excess `q_jk − c_j·c_k` is then immune to the pair gaming
//! its own marginals: duplicated heuristics show a large positive excess,
//! genuinely independent LFs sit near zero.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::matrix::LabelMatrix;

/// Excess-agreement statistics for one LF pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDependency {
    /// First LF (column index).
    pub j: usize,
    /// Second LF.
    pub k: usize,
    /// Examples where both voted.
    pub co_votes: u64,
    /// Observed `P(votes agree | both voted)`.
    pub observed_agreement: f64,
    /// Agreement rate implied by conditional independence and the
    /// triplet-estimated per-LF correlations: `(1 + c_j·c_k) / 2`.
    pub expected_agreement: f64,
}

impl PairDependency {
    /// Observed minus expected agreement — the screening score.
    pub fn excess(&self) -> f64 {
        self.observed_agreement - self.expected_agreement
    }
}

/// Dependency screening over all LF pairs.
#[derive(Debug, Clone)]
pub struct DependencyReport {
    /// One entry per pair with at least `min_co_votes` usable examples,
    /// sorted by descending excess agreement.
    pub pairs: Vec<PairDependency>,
}

impl DependencyReport {
    /// Screen every LF pair of `matrix`.
    ///
    /// Pairs with fewer than `min_co_votes` co-voting examples are
    /// omitted (their agreement estimate is noise).
    pub fn build(matrix: &LabelMatrix, min_co_votes: u64) -> Result<DependencyReport, CoreError> {
        let n = matrix.num_lfs();
        if matrix.is_empty() {
            return Err(CoreError::EmptyMatrix);
        }
        let pair_idx = |j: usize, k: usize| j * n + k;
        let mut co = vec![0u64; n * n];
        let mut agree_jk = vec![0u64; n * n];
        for row in matrix.rows() {
            let active: Vec<usize> = (0..n).filter(|&j| row[j] != 0).collect();
            for (a, &j) in active.iter().enumerate() {
                for &k in &active[a + 1..] {
                    let id = pair_idx(j, k);
                    co[id] += 1;
                    if row[j] == row[k] {
                        agree_jk[id] += 1;
                    }
                }
            }
        }
        // Agreement correlations q_jk = 2·P(agree | both vote) − 1.
        let min_co = min_co_votes.max(1);
        let q = |j: usize, k: usize| -> Option<f64> {
            let id = if j < k {
                pair_idx(j, k)
            } else {
                pair_idx(k, j)
            };
            (co[id] >= min_co).then(|| 2.0 * agree_jk[id] as f64 / co[id] as f64 - 1.0)
        };
        // Triplet estimates of c_j² = q_jk·q_jl / q_kl, median over all
        // usable (k, l) with the denominator bounded away from zero.
        let mut c = vec![0.0f64; n];
        #[expect(
            clippy::needless_range_loop,
            reason = "j also drives the k/l skip logic"
        )]
        for j in 0..n {
            let mut estimates = Vec::new();
            for k in 0..n {
                if k == j {
                    continue;
                }
                for l in k + 1..n {
                    if l == j {
                        continue;
                    }
                    if let (Some(qjk), Some(qjl), Some(qkl)) = (q(j, k), q(j, l), q(k, l)) {
                        if qkl.abs() > 0.05 {
                            estimates.push((qjk * qjl / qkl).clamp(0.0, 1.0));
                        }
                    }
                }
            }
            if estimates.is_empty() {
                continue;
            }
            estimates.sort_by(f64::total_cmp);
            c[j] = estimates[estimates.len() / 2].sqrt();
        }
        let mut pairs = Vec::new();
        for j in 0..n {
            for k in j + 1..n {
                let id = pair_idx(j, k);
                if co[id] >= min_co {
                    let observed = agree_jk[id] as f64 / co[id] as f64;
                    pairs.push(PairDependency {
                        j,
                        k,
                        co_votes: co[id],
                        observed_agreement: observed,
                        expected_agreement: (1.0 + c[j] * c[k]) / 2.0,
                    });
                }
            }
        }
        pairs.sort_by(|a, b| {
            b.excess()
                .partial_cmp(&a.excess())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(DependencyReport { pairs })
    }

    /// Pairs whose excess agreement exceeds `threshold` — dependency
    /// candidates for review (fix, merge, or model explicitly).
    pub fn candidates(&self, threshold: f64) -> Vec<&PairDependency> {
        self.pairs
            .iter()
            .filter(|p| p.excess() > threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Five independent LFs plus one near-duplicate of LF 0 (six total,
    /// so the leave-pair-out consensus always has enough voters).
    fn planted_with_duplicate(examples: usize, seed: u64) -> LabelMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = LabelMatrix::with_capacity(6, examples);
        for _ in 0..examples {
            let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
            fn vote(rng: &mut StdRng, y: i8, acc: f64, prop: f64) -> i8 {
                if !rng.gen_bool(prop) {
                    0
                } else if rng.gen_bool(acc) {
                    y
                } else {
                    -y
                }
            }
            let v0 = vote(&mut rng, y, 0.8, 0.7);
            let v1 = vote(&mut rng, y, 0.75, 0.7);
            let v2 = vote(&mut rng, y, 0.85, 0.7);
            let v3 = vote(&mut rng, y, 0.7, 0.7);
            let v4 = vote(&mut rng, y, 0.8, 0.7);
            // LF 5 copies LF 0's vote 95% of the time LF 0 voted.
            let v5 = if v0 != 0 && rng.gen_bool(0.95) {
                v0
            } else {
                vote(&mut rng, y, 0.8, 0.3)
            };
            m.push_raw_row(&[v0, v1, v2, v3, v4, v5]).unwrap();
        }
        m
    }

    #[test]
    fn duplicate_lf_is_the_top_candidate() {
        let m = planted_with_duplicate(10_000, 1);
        let report = DependencyReport::build(&m, 50).unwrap();
        let top = &report.pairs[0];
        assert_eq!((top.j, top.k), (0, 5), "the planted duplicate pair");
        assert!(top.excess() > 0.15, "excess {}", top.excess());
        // Independent pairs have much lower excess.
        for p in &report.pairs[1..] {
            assert!(
                p.excess() < top.excess() - 0.1,
                "pair ({}, {}) excess {} too close to duplicate's {}",
                p.j,
                p.k,
                p.excess(),
                top.excess()
            );
        }
        let cands = report.candidates(0.15);
        assert_eq!(cands.len(), 1);
        assert_eq!((cands[0].j, cands[0].k), (0, 5));
    }

    #[test]
    fn independent_lfs_have_small_excess() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = LabelMatrix::with_capacity(5, 10_000);
        for _ in 0..10_000 {
            let y: i8 = if rng.gen_bool(0.5) { 1 } else { -1 };
            let row: Vec<i8> = [0.8, 0.7, 0.85, 0.75, 0.8]
                .iter()
                .map(|&acc| {
                    if !rng.gen_bool(0.6) {
                        0
                    } else if rng.gen_bool(acc) {
                        y
                    } else {
                        -y
                    }
                })
                .collect();
            m.push_raw_row(&row).unwrap();
        }
        let report = DependencyReport::build(&m, 50).unwrap();
        for p in &report.pairs {
            assert!(
                p.excess().abs() < 0.06,
                "pair ({}, {}) excess {}",
                p.j,
                p.k,
                p.excess()
            );
        }
        assert!(report.candidates(0.1).is_empty());
    }

    #[test]
    fn min_co_votes_filters_sparse_pairs() {
        let m = planted_with_duplicate(300, 3);
        let all = DependencyReport::build(&m, 1).unwrap();
        let filtered = DependencyReport::build(&m, 1_000_000).unwrap();
        assert!(!all.pairs.is_empty());
        assert!(filtered.pairs.is_empty());
    }

    #[test]
    fn empty_matrix_rejected() {
        let empty = LabelMatrix::new(4);
        assert!(matches!(
            DependencyReport::build(&empty, 1),
            Err(CoreError::EmptyMatrix)
        ));
    }

    #[test]
    fn nested_threshold_rules_are_flagged() {
        // Two rules thresholding the same hidden score at nearby cut
        // points (the events-app failure mode): strongly dependent.
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = LabelMatrix::with_capacity(6, 10_000);
        for _ in 0..10_000 {
            let y = rng.gen_bool(0.5);
            // A shared noisy score: the class shifts it, but the noise is
            // common to both threshold rules — correlation beyond Y.
            let score: f64 = if y { 0.45 } else { 0.25 } + 0.3 * rng.gen::<f64>();
            let mut vote = |acc: f64| -> i8 {
                if !rng.gen_bool(0.7) {
                    0
                } else if rng.gen_bool(acc) {
                    if y {
                        1
                    } else {
                        -1
                    }
                } else if y {
                    -1
                } else {
                    1
                }
            };
            let row = [
                i8::from(score > 0.5),
                i8::from(score > 0.55),
                vote(0.8),
                vote(0.75),
                vote(0.85),
                vote(0.8),
            ];
            m.push_raw_row(&row).unwrap();
        }
        let report = DependencyReport::build(&m, 50).unwrap();
        let top = &report.pairs[0];
        assert_eq!((top.j, top.k), (0, 1), "nested thresholds must rank first");
        assert!(top.excess() > 0.1, "excess {}", top.excess());
    }
}
