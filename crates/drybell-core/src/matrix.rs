//! The observed label matrix `Λ`.
//!
//! `Λ[i][j] = λ_j(X_i)` holds the vote of labeling function `j` on example
//! `i`. The matrix is the *only* input to the generative model: per §2 of the
//! paper, accuracies are learned purely from the agreements and disagreements
//! recorded here, with the true labels marginalized out.
//!
//! Storage is dense row-major `i8` (`+1`/`-1`/`0`), which at the paper's
//! largest scale (6.5M examples × 8 LFs) is ~52 MB — comfortably in memory
//! and friendly to the sequential scans the trainer performs.

#![expect(
    clippy::indexing_slicing,
    reason = "dense numeric kernel: loop bounds come from the matrix shape once; .get() in the inner loops would hide shape bugs and cost the hot path"
)]

use crate::error::CoreError;
use crate::vote::Label;

/// A dense `m × n` matrix of binary LF votes (`m` examples, `n` LFs).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMatrix {
    data: Vec<i8>,
    num_lfs: usize,
}

impl LabelMatrix {
    /// Create an empty matrix for `num_lfs` labeling functions.
    pub fn new(num_lfs: usize) -> LabelMatrix {
        LabelMatrix {
            data: Vec::new(),
            num_lfs,
        }
    }

    /// Create an empty matrix with capacity reserved for `rows` examples.
    pub fn with_capacity(num_lfs: usize, rows: usize) -> LabelMatrix {
        LabelMatrix {
            data: Vec::with_capacity(num_lfs * rows),
            num_lfs,
        }
    }

    /// Build a matrix from raw `i8` votes in row-major order.
    ///
    /// Returns [`CoreError::ZeroLabelingFunctions`] for `num_lfs == 0`
    /// (previously misreported as a row-arity error with a meaningless
    /// `got` computed modulo 1), and an error if the data length is not a
    /// multiple of `num_lfs` or any value is outside `{-1, 0, +1}`.
    pub fn from_raw(num_lfs: usize, data: Vec<i8>) -> Result<LabelMatrix, CoreError> {
        if num_lfs == 0 {
            return Err(CoreError::ZeroLabelingFunctions);
        }
        if !data.len().is_multiple_of(num_lfs) {
            return Err(CoreError::RowArity {
                expected: num_lfs,
                got: data.len() % num_lfs,
            });
        }
        check_votes(&data)?;
        Ok(LabelMatrix { data, num_lfs })
    }

    /// Append one example's votes already encoded as `i8`.
    pub fn push_raw_row(&mut self, votes: &[i8]) -> Result<(), CoreError> {
        if votes.len() != self.num_lfs {
            return Err(CoreError::RowArity {
                expected: self.num_lfs,
                got: votes.len(),
            });
        }
        check_votes(votes)?;
        self.data.extend_from_slice(votes);
        Ok(())
    }

    /// Number of examples (rows).
    #[inline]
    pub fn num_examples(&self) -> usize {
        self.data.len().checked_div(self.num_lfs).unwrap_or(0)
    }

    /// Number of labeling functions (columns).
    #[inline]
    pub fn num_lfs(&self) -> usize {
        self.num_lfs
    }

    /// `true` if the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The votes of row `i` as raw `i8` values.
    #[inline]
    pub fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.num_lfs..(i + 1) * self.num_lfs]
    }

    /// Vote of LF `j` on example `i`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i8 {
        self.data[i * self.num_lfs + j]
    }

    /// Iterate over rows as `&[i8]` slices: [`LabelMatrix::num_examples`]
    /// of them, none for a matrix of no columns (whose data is empty).
    pub fn rows(&self) -> impl Iterator<Item = &[i8]> + '_ {
        self.data.chunks_exact(self.num_lfs.max(1))
    }

    /// A view of the underlying row-major data.
    pub fn raw(&self) -> &[i8] {
        &self.data
    }

    /// Project the matrix onto a subset of LF columns (for ablations such as
    /// Table 3's "servable LFs only"). `keep[j]` selects column `j`; keeping
    /// none is [`CoreError::ZeroLabelingFunctions`], as in
    /// [`LabelMatrix::from_raw`]: a matrix of no columns has no rows.
    pub fn select_columns(&self, keep: &[bool]) -> Result<LabelMatrix, CoreError> {
        if keep.len() != self.num_lfs {
            return Err(CoreError::LengthMismatch {
                left: keep.len(),
                right: self.num_lfs,
            });
        }
        if !keep.contains(&true) {
            return Err(CoreError::ZeroLabelingFunctions);
        }
        let kept: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter_map(|(j, &k)| k.then_some(j))
            .collect();
        let mut out = LabelMatrix::with_capacity(kept.len(), self.num_examples());
        for row in self.rows() {
            for &j in &kept {
                out.data.push(row[j]);
            }
        }
        Ok(out)
    }

    /// Fraction of examples on which LF `j` does not abstain.
    pub fn coverage(&self, j: usize) -> f64 {
        if self.num_examples() == 0 {
            return 0.0;
        }
        let active = self.rows().filter(|r| r[j] != 0).count();
        active as f64 / self.num_examples() as f64
    }

    /// Fraction of examples where LF `j` votes and at least one other LF also
    /// votes (Snorkel's "overlap" statistic).
    pub fn overlap(&self, j: usize) -> f64 {
        if self.num_examples() == 0 {
            return 0.0;
        }
        let n = self
            .rows()
            .filter(|r| r[j] != 0 && r.iter().enumerate().any(|(k, &v)| k != j && v != 0))
            .count();
        n as f64 / self.num_examples() as f64
    }

    /// Fraction of examples where LF `j` votes and at least one other LF
    /// votes *differently* (Snorkel's "conflict" statistic).
    pub fn conflict(&self, j: usize) -> f64 {
        if self.num_examples() == 0 {
            return 0.0;
        }
        let n = self
            .rows()
            .filter(|r| {
                r[j] != 0
                    && r.iter()
                        .enumerate()
                        .any(|(k, &v)| k != j && v != 0 && v != r[j])
            })
            .count();
        n as f64 / self.num_examples() as f64
    }

    /// Fraction of examples with at least one non-abstain vote.
    pub fn label_density(&self) -> f64 {
        if self.num_examples() == 0 {
            return 0.0;
        }
        let n = self.rows().filter(|r| r.iter().any(|&v| v != 0)).count();
        n as f64 / self.num_examples() as f64
    }

    /// Empirical accuracy of LF `j` against gold labels, over the examples
    /// where it does not abstain. Returns `None` if it always abstained.
    pub fn empirical_accuracy(&self, j: usize, gold: &[Label]) -> Result<Option<f64>, CoreError> {
        if gold.len() != self.num_examples() {
            return Err(CoreError::LengthMismatch {
                left: gold.len(),
                right: self.num_examples(),
            });
        }
        let mut active = 0usize;
        let mut correct = 0usize;
        for (row, y) in self.rows().zip(gold) {
            if row[j] != 0 {
                active += 1;
                if row[j] == y.as_i8() {
                    correct += 1;
                }
            }
        }
        Ok((active > 0).then(|| correct as f64 / active as f64))
    }

    /// Fraction of matrix cells holding a non-abstain vote (`nnz / m·n`).
    ///
    /// Distinct from [`LabelMatrix::label_density`], which is the fraction
    /// of *rows* with at least one vote. Cell density is half of how the
    /// trainer decides whether the active-index gradient path pays off.
    pub fn vote_density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|&&v| v != 0).count();
        nnz as f64 / self.data.len() as f64
    }

    /// Build the compressed active (non-abstain) index of this matrix.
    pub(crate) fn active_index(&self) -> ActiveRows {
        let mut offsets = Vec::with_capacity(self.num_examples() + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for row in self.rows() {
            for (j, &l) in row.iter().enumerate() {
                if l != 0 {
                    // Columns fit in u32: a row with 2^32 i8 votes would
                    // already exceed 4 GB of matrix storage.
                    entries.push((j as u32, l));
                }
            }
            offsets.push(entries.len());
        }
        ActiveRows { offsets, entries }
    }
}

/// Every vote is `-1`, `0` or `+1`, or the first that is not is the error.
/// The label-model kernels look terms up by a vote's low bits, so nothing
/// else may get into a matrix.
fn check_votes(votes: &[i8]) -> Result<(), CoreError> {
    let valid = |v: &i8| (-1..=1).contains(v);
    // No early exit on the common path: this loop vectorises, a `find`
    // does not, and the executor hands over a hundred million votes.
    if votes.iter().fold(true, |ok, v| ok & valid(v)) {
        return Ok(());
    }
    match votes.iter().find(|&v| !valid(v)) {
        Some(&bad) => Err(CoreError::InvalidVote {
            value: i64::from(bad),
            expected: "-1, 0, or +1",
        }),
        None => Ok(()),
    }
}

/// A compressed (CSR-style) index of the non-abstain entries of a
/// [`LabelMatrix`]: for each row, the `(column, vote)` pairs with a
/// non-zero vote, in column order.
///
/// The generative trainer builds this once per `fit` whose schedule comes
/// back to each row often enough to repay it, and iterates it in the
/// gradient inner loops, so high-abstention matrices skip their zero
/// cells entirely. Because the per-row entries preserve column order,
/// accumulating over them adds the same non-abstain terms in the same
/// order as the dense kernel, whose abstain cells add `+0.0` — the two
/// paths are bit-identical, which a property test asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveRows {
    /// `offsets[i]..offsets[i+1]` bounds row `i`'s slice of `entries`.
    offsets: Vec<usize>,
    /// `(column, vote)` pairs of every non-abstain cell, row-major.
    entries: Vec<(u32, i8)>,
}

impl ActiveRows {
    /// Non-abstain `(column, vote)` pairs of row `i`, in column order.
    #[inline]
    pub fn row(&self, i: usize) -> &[(u32, i8)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Row `i`'s entries as the entry-iterator kernels take them.
    #[inline]
    pub(crate) fn entries(&self, i: usize) -> impl Iterator<Item = (usize, i8)> + '_ {
        self.row(i).iter().map(|&(j, l)| (j as usize, l))
    }

    /// Number of indexed rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total non-abstain entries across all rows.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

/// The non-abstain `(column, vote)` entries of one dense row, in column
/// order — what [`ActiveRows::entries`] yields for the same row.
#[inline]
pub(crate) fn dense_entries(row: &[i8]) -> impl Iterator<Item = (usize, i8)> + '_ {
    row.iter()
        .enumerate()
        .filter_map(|(j, &l)| (l != 0).then_some((j, l)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabelMatrix {
        // 4 examples, 3 LFs.
        LabelMatrix::from_raw(3, vec![1, -1, 0, 1, 1, 1, 0, 0, -1, -1, 0, -1]).unwrap()
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.num_examples(), 4);
        assert_eq!(m.num_lfs(), 3);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(2, 2), -1);
        assert_eq!(m.row(1), &[1, 1, 1]);
    }

    #[test]
    fn push_row_checks_arity() {
        let mut m = LabelMatrix::new(2);
        assert!(m.push_raw_row(&[1, 0]).is_ok());
        let err = m.push_raw_row(&[1]).unwrap_err();
        assert_eq!(
            err,
            CoreError::RowArity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn from_raw_rejects_bad_votes() {
        assert!(matches!(
            LabelMatrix::from_raw(2, vec![1, 2]),
            Err(CoreError::InvalidVote { value: 2, .. })
        ));
        assert!(matches!(
            LabelMatrix::from_raw(2, vec![1, 0, 1]),
            Err(CoreError::RowArity { .. })
        ));
    }

    #[test]
    fn from_raw_zero_lfs_is_a_dedicated_error() {
        // Regression: this used to surface as `RowArity { expected: 0,
        // got: data.len() % 1 }` — an arity "mismatch" of 0 vs 0.
        assert_eq!(
            LabelMatrix::from_raw(0, vec![]),
            Err(CoreError::ZeroLabelingFunctions)
        );
        assert_eq!(
            LabelMatrix::from_raw(0, vec![1, 0, -1]),
            Err(CoreError::ZeroLabelingFunctions)
        );
    }

    #[test]
    fn active_index_matches_dense_scan() {
        let m = sample();
        let ix = m.active_index();
        assert_eq!(ix.num_rows(), m.num_examples());
        let mut nnz = 0;
        for (i, row) in m.rows().enumerate() {
            let dense: Vec<(u32, i8)> = row
                .iter()
                .enumerate()
                .filter(|(_, &l)| l != 0)
                .map(|(j, &l)| (j as u32, l))
                .collect();
            assert_eq!(ix.row(i), dense.as_slice(), "row {i}");
            nnz += dense.len();
        }
        assert_eq!(ix.nnz(), nnz);
        // 4×3 sample has 8 non-abstain cells.
        assert!((m.vote_density() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(LabelMatrix::new(3).vote_density(), 0.0);
    }

    #[test]
    fn coverage_overlap_conflict() {
        let m = sample();
        // LF 0 votes on rows 0,1,3 → coverage 3/4.
        assert!((m.coverage(0) - 0.75).abs() < 1e-12);
        // LF 2 votes on rows 1,2,3 → coverage 3/4.
        assert!((m.coverage(2) - 0.75).abs() < 1e-12);
        // LF 0 overlap: rows 0 (LF1 votes), 1 (both), 3 (LF2 votes) → 3/4.
        assert!((m.overlap(0) - 0.75).abs() < 1e-12);
        // LF 0 conflict: row 0 (LF1 = -1 vs +1) only → 1/4.
        assert!((m.conflict(0) - 0.25).abs() < 1e-12);
        // Density: every row has a vote.
        assert!((m.label_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_accuracy_against_gold() {
        let m = sample();
        let gold = vec![
            Label::Positive,
            Label::Positive,
            Label::Negative,
            Label::Negative,
        ];
        // LF0: votes +1,+1,-1 on rows 0,1,3 — all correct.
        assert_eq!(m.empirical_accuracy(0, &gold).unwrap(), Some(1.0));
        // LF1: votes -1 (row 0, wrong), +1 (row 1, right) → 0.5.
        assert_eq!(m.empirical_accuracy(1, &gold).unwrap(), Some(0.5));
        // Gold length mismatch is rejected.
        assert!(m.empirical_accuracy(0, &gold[..2]).is_err());
    }

    #[test]
    fn empirical_accuracy_all_abstain_is_none() {
        let m = LabelMatrix::from_raw(2, vec![0, 1, 0, -1]).unwrap();
        let gold = vec![Label::Positive, Label::Negative];
        assert_eq!(m.empirical_accuracy(0, &gold).unwrap(), None);
    }

    #[test]
    fn select_columns_projects() {
        let m = sample();
        let sub = m.select_columns(&[true, false, true]).unwrap();
        assert_eq!(sub.num_lfs(), 2);
        assert_eq!(sub.row(0), &[1, 0]);
        assert_eq!(sub.row(3), &[-1, -1]);
        assert!(m.select_columns(&[true]).is_err());
        assert_eq!(
            m.select_columns(&[false; 3]),
            Err(CoreError::ZeroLabelingFunctions)
        );
    }
}
