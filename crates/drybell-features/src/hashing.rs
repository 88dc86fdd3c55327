//! Feature hashing.
//!
//! Production click-through models at the scale the paper targets use the
//! hashing trick (McMahan et al., KDD 2013): a feature string like
//! `"token=camera"` is mapped to `fnv1a64(s) % dims`. This keeps the
//! servable feature transform stateless and cheap — exactly what makes
//! these features servable while the NLP-model features are not.

use crate::sparse::SparseVector;

pub use drybell_obs::fnv1a64;

/// Maps named features into a fixed-dimension hashed space.
///
/// ```
/// use drybell_features::FeatureHasher;
/// let hasher = FeatureHasher::new(1 << 16);
/// let v = hasher.bag_of_words(&["camera", "lens", "camera"]);
/// assert_eq!(v.get(hasher.index("camera")), 2.0);
/// assert_eq!(v.get(hasher.index("lens")), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureHasher {
    dims: u32,
}

impl FeatureHasher {
    /// Create a hasher with `dims` output dimensions (must be ≥ 1).
    pub fn new(dims: u32) -> FeatureHasher {
        assert!(dims >= 1, "need at least one dimension");
        FeatureHasher { dims }
    }

    /// Output dimensionality.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Index of a named feature.
    #[inline]
    pub fn index(&self, name: &str) -> u32 {
        (fnv1a64(name.as_bytes()) % u64::from(self.dims)) as u32
    }

    /// Hash a bag of tokens into counts: each token contributes `1.0` at
    /// its hashed index (collisions sum, as in the classic hashing trick).
    pub fn bag_of_words<S: AsRef<str>>(&self, tokens: &[S]) -> SparseVector {
        SparseVector::from_pairs(
            tokens
                .iter()
                .map(|t| (self.index(t.as_ref()), 1.0))
                .collect(),
        )
    }

    /// Hash named `(feature, value)` pairs.
    pub fn weighted<S: AsRef<str>>(&self, feats: &[(S, f64)]) -> SparseVector {
        SparseVector::from_pairs(
            feats
                .iter()
                .map(|(n, v)| (self.index(n.as_ref()), *v))
                .collect(),
        )
    }

    /// Hash a bag of tokens with a namespace prefix (`"title"` and
    /// `"body"` tokens shouldn't collide by construction — the prefix
    /// separates their hash streams).
    pub fn namespaced_bag<S: AsRef<str>>(&self, namespace: &str, tokens: &[S]) -> SparseVector {
        SparseVector::from_pairs(
            tokens
                .iter()
                .map(|t| {
                    let name = format!("{namespace}={}", t.as_ref());
                    (self.index(&name), 1.0)
                })
                .collect(),
        )
    }
}

/// Merge several sparse vectors into one (entries summed).
pub fn concat(vectors: &[SparseVector]) -> SparseVector {
    let mut pairs = Vec::with_capacity(vectors.iter().map(|v| v.nnz()).sum());
    for v in vectors {
        pairs.extend_from_slice(v.entries());
    }
    SparseVector::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hashing_is_deterministic_and_bounded() {
        let h = FeatureHasher::new(1000);
        let i1 = h.index("token=camera");
        let i2 = h.index("token=camera");
        assert_eq!(i1, i2);
        assert!(i1 < 1000);
    }

    #[test]
    fn bag_of_words_counts_repeats() {
        let h = FeatureHasher::new(1 << 16);
        let v = h.bag_of_words(&["a", "b", "a"]);
        assert_eq!(v.get(h.index("a")), 2.0);
        assert_eq!(v.get(h.index("b")), 1.0);
    }

    #[test]
    fn namespaces_separate_streams() {
        let h = FeatureHasher::new(1 << 20);
        let title = h.namespaced_bag("title", &["camera"]);
        let body = h.namespaced_bag("body", &["camera"]);
        // With 2^20 dims these must land on different indices.
        assert_ne!(title.entries()[0].0, body.entries()[0].0);
    }

    #[test]
    fn weighted_features() {
        let h = FeatureHasher::new(1 << 10);
        let v = h.weighted(&[("clicks", 3.5), ("dwell", 0.25)]);
        assert_eq!(v.get(h.index("clicks")), 3.5);
    }

    #[test]
    fn concat_sums_overlaps() {
        let h = FeatureHasher::new(1 << 10);
        let a = h.bag_of_words(&["x"]);
        let b = h.bag_of_words(&["x", "y"]);
        let c = concat(&[a, b]);
        assert_eq!(c.get(h.index("x")), 2.0);
        assert_eq!(c.get(h.index("y")), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_panics() {
        let _ = FeatureHasher::new(0);
    }

    proptest! {
        #[test]
        fn prop_indices_in_range(name in ".{0,40}", dims in 1u32..100_000) {
            let h = FeatureHasher::new(dims);
            prop_assert!(h.index(&name) < dims);
        }

        #[test]
        fn prop_bag_nnz_bounded_by_tokens(tokens in proptest::collection::vec("[a-z]{1,6}", 0..50)) {
            let h = FeatureHasher::new(1 << 18);
            let v = h.bag_of_words(&tokens);
            prop_assert!(v.nnz() <= tokens.len());
            let total: f64 = v.entries().iter().map(|&(_, c)| c).sum();
            prop_assert!((total - tokens.len() as f64).abs() < 1e-9);
        }
    }
}
