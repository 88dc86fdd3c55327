//! Sorted sparse feature vectors.
//!
//! The representation backing the logistic-regression models: a sorted list
//! of `(index, value)` pairs with duplicate indices merged at construction.
//! Sortedness makes dot products and merges linear-time and keeps equality
//! canonical.

/// An immutable sparse vector of `f64` features over `u32` indices.
///
/// ```
/// use drybell_features::SparseVector;
/// let a = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 0.5)]);
/// assert_eq!(a.entries(), &[(1, 2.0), (3, 1.5)]); // sorted, merged
/// let b = SparseVector::from_pairs(vec![(1, 4.0)]);
/// assert_eq!(a.dot(&b), 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    /// Sorted by index; no duplicate indices; no explicit zeros unless the
    /// caller inserted them.
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// The empty vector.
    pub fn empty() -> SparseVector {
        SparseVector::default()
    }

    /// Build from arbitrary `(index, value)` pairs: duplicates are summed,
    /// the result is sorted.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> SparseVector {
        pairs.sort_by_key(|&(i, _)| i);
        // Sum each run of equal indices into its first entry, in order.
        pairs.dedup_by(|next, kept| {
            let same = kept.0 == next.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        SparseVector { entries: pairs }
    }

    /// The unit vector of a document's feature counts: `keys` holds the
    /// index of each feature occurrence, and is sorted where it lies, then
    /// counted run by run into entries allocated at their exact size — a
    /// corpus keeps one of these per document, so spare capacity is
    /// resident memory.
    pub(crate) fn from_unit_counts(mut keys: Vec<u32>) -> SparseVector {
        keys.sort_unstable();
        let runs = keys.chunk_by(|a, b| a == b);
        let mut entries = Vec::with_capacity(runs.clone().count());
        entries.extend(runs.map(|run| (run[0], run.len() as f64)));
        let mut vector = SparseVector { entries };
        vector.l2_normalize();
        vector
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored `(index, value)` pairs, sorted by index.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Value at `index` (zero if absent). Binary search, `O(log nnz)`.
    pub fn get(&self, index: u32) -> f64 {
        self.entries
            .binary_search_by_key(&index, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Dot product with another sparse vector (linear merge).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut a, mut b) = (0usize, 0usize);
        let mut sum = 0.0;
        while a < self.entries.len() && b < other.entries.len() {
            let (ia, va) = self.entries[a];
            let (ib, vb) = other.entries[b];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    sum += va * vb;
                    a += 1;
                    b += 1;
                }
            }
        }
        sum
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }

    /// A copy scaled so the L2 norm is 1 (no-op for the zero vector).
    pub fn l2_normalized(&self) -> SparseVector {
        let mut copy = self.clone();
        copy.l2_normalize();
        copy
    }

    fn l2_normalize(&mut self) {
        let norm = self.norm_sq().sqrt();
        if norm != 0.0 {
            for (_, v) in &mut self.entries {
                *v /= norm;
            }
        }
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> SparseVector {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (0, 1.0)]);
        assert_eq!(v.entries(), &[(0, 1.0), (2, 2.0), (5, 4.0)]);
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(1), 0.0);
    }

    #[test]
    fn dot_products() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = SparseVector::from_pairs(vec![(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(b.dot(&a), a.dot(&b));
        assert_eq!(a.dot(&SparseVector::empty()), 0.0);
    }

    #[test]
    fn normalization() {
        let a = SparseVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        let n = a.l2_normalized();
        assert!((n.norm_sq() - 1.0).abs() < 1e-12);
        assert!((n.get(0) - 0.6).abs() < 1e-12);
        let z = SparseVector::empty().l2_normalized();
        assert!(z.is_empty());
    }

    #[test]
    fn unit_counts_are_merged_normalized_and_exactly_sized() {
        for n in [0usize, 1, 2, 19, 20, 21, 64, 65, 1000] {
            // Capacity well above the length, indices repeating and
            // descending: everything `from_unit_counts` has to undo.
            let mut keys = Vec::with_capacity(4 * n + 7);
            keys.extend((0..n).rev().map(|i| (i % 37) as u32));
            let built = SparseVector::from_unit_counts(keys.clone());
            let pairs: Vec<(u32, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
            let reference = SparseVector::from_pairs(pairs).l2_normalized();
            // Bit for bit: a count is a whole number however it is summed.
            let bits = |v: &SparseVector| -> Vec<(u32, u64)> {
                v.entries().iter().map(|&(i, x)| (i, x.to_bits())).collect()
            };
            assert_eq!(bits(&built), bits(&reference), "n = {n}");
            assert_eq!(built.entries.capacity(), built.entries.len(), "n = {n}");
            assert_eq!(built.nnz(), n.min(37));
        }
        // The largest and smallest indices, each alone and in a run.
        let built = SparseVector::from_unit_counts(vec![u32::MAX, 0, u32::MAX, 5, 0, u32::MAX]);
        let norm = (9.0f64 + 4.0 + 1.0).sqrt();
        assert_eq!(
            built.entries(),
            &[(0, 2.0 / norm), (5, 1.0 / norm), (u32::MAX, 3.0 / norm)]
        );
    }

    /// Up to `max_len` pairs with indices below `dims` and values in
    /// `-bound..bound`.
    fn pairs(rng: &mut StdRng, max_len: usize, dims: u32, bound: f64) -> Vec<(u32, f64)> {
        (0..rng.gen_range(0..max_len))
            .map(|_| (rng.gen_range(0..dims), rng.gen_range(-bound..bound)))
            .collect()
    }

    #[test]
    fn prop_from_pairs_is_canonical() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let pairs = pairs(&mut rng, 60, 100, 10.0);
            let v = SparseVector::from_pairs(pairs.clone());
            // Sorted, unique indices.
            for w in v.entries().windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            // Values equal the sum per index.
            for &(i, val) in v.entries() {
                let want: f64 = pairs
                    .iter()
                    .filter(|&&(j, _)| j == i)
                    .map(|&(_, x)| x)
                    .sum();
                assert!((val - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prop_dot_commutes_and_matches_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..64 {
            let va = SparseVector::from_pairs(pairs(&mut rng, 30, 50, 5.0));
            let vb = SparseVector::from_pairs(pairs(&mut rng, 30, 50, 5.0));
            assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
            // The dense reference: `vb` spread over a buffer, `va` read
            // against it.
            let mut dense = [0.0; 50];
            for &(i, v) in vb.entries() {
                dense[i as usize] = v;
            }
            let reference: f64 = va
                .entries()
                .iter()
                .map(|&(i, v)| v * dense[i as usize])
                .sum();
            assert!((va.dot(&vb) - reference).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_norm_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let v = SparseVector::from_pairs(pairs(&mut rng, 30, 50, 5.0));
            assert!(v.norm_sq() >= 0.0);
            let n = v.l2_normalized();
            if v.norm_sq() > 1e-12 {
                assert!((n.norm_sq() - 1.0).abs() < 1e-9);
            }
        }
    }
}
