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
        merge_runs(&mut pairs);
        SparseVector { entries: pairs }
    }

    /// The unit vector of a document's feature counts: `pairs` holds one
    /// `(index, 1.0)` per feature occurrence, and is sorted, merged and
    /// scaled where it lies, then cut to its exact size — a corpus keeps
    /// one of these per document, so spare capacity is resident memory.
    pub(crate) fn from_unit_counts(mut pairs: Vec<(u32, f64)>) -> SparseVector {
        // Whole-number values sum exactly in any order, so the sort need
        // not be stable (the stable one allocates a merge buffer).
        pairs.sort_unstable_by_key(|&(i, _)| i);
        merge_runs(&mut pairs);
        let mut vector = SparseVector { entries: pairs };
        vector.l2_normalize();
        // `shrink_to_fit` may keep spare capacity; a boxed slice cannot.
        vector.entries = vector.entries.into_boxed_slice().into_vec();
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

    /// Dot product against a dense weight slice; indices past the end of
    /// `weights` contribute zero.
    pub fn dot_dense(&self, weights: &[f64]) -> f64 {
        self.entries
            .iter()
            .filter_map(|&(i, v)| weights.get(i as usize).map(|w| w * v))
            .sum()
    }

    /// Accumulate `scale * self` into a dense buffer (grows `buf` as
    /// needed).
    pub fn add_scaled_into(&self, scale: f64, buf: &mut Vec<f64>) {
        if let Some(&(max_i, _)) = self.entries.last() {
            if buf.len() <= max_i as usize {
                buf.resize(max_i as usize + 1, 0.0);
            }
        }
        for &(i, v) in &self.entries {
            buf[i as usize] += scale * v;
        }
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

    /// Largest stored index plus one (0 for the empty vector).
    pub fn dim_bound(&self) -> usize {
        self.entries
            .last()
            .map(|&(i, _)| i as usize + 1)
            .unwrap_or(0)
    }
}

/// Sum each run of equal indices in an index-sorted list into the run's
/// first entry, in list order.
fn merge_runs(pairs: &mut Vec<(u32, f64)>) {
    pairs.dedup_by(|next, kept| {
        let same = kept.0 == next.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> SparseVector {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVector::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0), (0, 1.0)]);
        assert_eq!(v.entries(), &[(0, 1.0), (2, 2.0), (5, 4.0)]);
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.dim_bound(), 6);
    }

    #[test]
    fn dot_products() {
        let a = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = SparseVector::from_pairs(vec![(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(b.dot(&a), a.dot(&b));
        assert_eq!(a.dot(&SparseVector::empty()), 0.0);
        let w = vec![1.0, 0.0, 0.5, 0.0, 2.0];
        assert_eq!(a.dot_dense(&w), 1.0 + 1.0 + 6.0);
        // Weights shorter than the max index: missing dims contribute 0.
        assert_eq!(a.dot_dense(&[1.0]), 1.0);
    }

    #[test]
    fn add_scaled_grows_buffer() {
        let a = SparseVector::from_pairs(vec![(1, 2.0), (3, -1.0)]);
        let mut buf = vec![0.0; 2];
        a.add_scaled_into(0.5, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 0.0, -0.5]);
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
            let mut pairs = Vec::with_capacity(4 * n + 7);
            pairs.extend((0..n).rev().map(|i| ((i % 37) as u32, 1.0)));
            let built = SparseVector::from_unit_counts(pairs.clone());
            assert_eq!(built, SparseVector::from_pairs(pairs).l2_normalized());
            assert_eq!(built.entries.capacity(), built.entries.len(), "n = {n}");
            assert_eq!(built.nnz(), n.min(37));
        }
    }

    proptest! {
        #[test]
        fn prop_from_pairs_is_canonical(pairs in proptest::collection::vec((0u32..100, -10.0..10.0f64), 0..60)) {
            let v = SparseVector::from_pairs(pairs.clone());
            // Sorted, unique indices.
            for w in v.entries().windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            // Values equal the sum per index.
            for &(i, val) in v.entries() {
                let want: f64 = pairs.iter().filter(|&&(j, _)| j == i).map(|&(_, x)| x).sum();
                prop_assert!((val - want).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_dot_commutes_and_matches_dense(
            a in proptest::collection::vec((0u32..50, -5.0..5.0f64), 0..30),
            b in proptest::collection::vec((0u32..50, -5.0..5.0f64), 0..30),
        ) {
            let va = SparseVector::from_pairs(a);
            let vb = SparseVector::from_pairs(b);
            prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
            let mut dense = Vec::new();
            vb.add_scaled_into(1.0, &mut dense);
            prop_assert!((va.dot(&vb) - va.dot_dense(&dense)).abs() < 1e-9);
        }

        #[test]
        fn prop_norm_nonnegative(pairs in proptest::collection::vec((0u32..50, -5.0..5.0f64), 0..30)) {
            let v = SparseVector::from_pairs(pairs);
            prop_assert!(v.norm_sq() >= 0.0);
            let n = v.l2_normalized();
            if v.norm_sq() > 1e-12 {
                prop_assert!((n.norm_sq() - 1.0).abs() < 1e-9);
            }
        }
    }
}
