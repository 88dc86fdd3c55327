//! Feature hashing.
//!
//! Production click-through models at the scale the paper targets use the
//! hashing trick (McMahan et al., KDD 2013): a feature string like
//! `"token=camera"` is mapped to `fnv1a64(s) % dims`. This keeps the
//! servable feature transform stateless and cheap — exactly what makes
//! these features servable while the NLP-model features are not.

use crate::sparse::SparseVector;

pub use drybell_obs::fnv1a64;
use drybell_obs::Fnv1a64;

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

    /// Index of a named feature.
    #[inline]
    pub fn index(&self, name: &str) -> u32 {
        self.bucket(fnv1a64(name.as_bytes()))
    }

    /// The index a feature whose name hashes to `hash` lands on.
    #[inline]
    fn bucket(&self, hash: u64) -> u32 {
        (hash % u64::from(self.dims)) as u32
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

    /// Start one document's feature counts, with room for `capacity`
    /// feature occurrences before the list has to grow.
    pub fn counts(&self, capacity: usize) -> HashedCounts {
        HashedCounts {
            hasher: *self,
            keys: Vec::with_capacity(capacity),
        }
    }
}

/// One document's hashed feature counts, gathered namespace by namespace
/// into a single list of bucket indices and turned into the document's
/// unit vector by [`HashedCounts::finish`]: the whole of a featurizer, in
/// two allocator calls however many words the document has (the list of
/// indices, and the vector's entries at their exact size), given a
/// `capacity` that covers them.
///
/// ```
/// use drybell_features::FeatureHasher;
/// let hasher = FeatureHasher::new(1 << 16);
/// let mut counts = hasher.counts(4);
/// counts.count("title", ["camera", "sale", "camera"]);
/// counts.count("lang", ["en"]);
/// let v = counts.finish();
/// assert_eq!(v.get(hasher.index("title=camera")), 2.0 / 6f64.sqrt());
/// assert_eq!(v.get(hasher.index("lang=en")), 1.0 / 6f64.sqrt());
/// ```
#[derive(Debug, Clone)]
pub struct HashedCounts {
    hasher: FeatureHasher,
    keys: Vec<u32>,
}

impl HashedCounts {
    /// Count the feature `"{namespace}={name}"` once for each of `names`,
    /// at the index [`FeatureHasher::index`] gives that string. The string
    /// is never built: the hash runs over its pieces, and the namespace's
    /// part of it is computed once. (`"title"` and `"body"` tokens
    /// shouldn't collide by construction — the prefix separates their hash
    /// streams.)
    pub fn count<S: AsRef<str>>(&mut self, namespace: &str, names: impl IntoIterator<Item = S>) {
        let mut prefix = Fnv1a64::new();
        prefix.write(namespace.as_bytes());
        prefix.write(b"=");
        for name in names {
            let mut hash = prefix;
            hash.write(name.as_ref().as_bytes());
            self.keys.push(self.hasher.bucket(hash.finish()));
        }
    }

    /// The counts as a sparse vector scaled to unit L2 norm, holding
    /// exactly the memory its entries need.
    pub fn finish(self) -> SparseVector {
        SparseVector::from_unit_counts(self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let mut title = h.counts(1);
        title.count("title", ["camera"]);
        let mut body = h.counts(1);
        body.count("body", ["camera"]);
        // With 2^20 dims these must land on different indices.
        assert_ne!(title.finish().entries()[0].0, body.finish().entries()[0].0);
    }

    #[test]
    fn counts_land_where_index_puts_the_built_string() {
        let h = FeatureHasher::new(1 << 10);
        let mut counts = h.counts(0);
        counts.count("text", ["x", "y", "x", ""]);
        counts.count("", ["x"]);
        let v = counts.finish();
        let norm = (4.0f64 + 1.0 + 1.0 + 1.0).sqrt();
        assert_eq!(v.get(h.index("text=x")), 2.0 / norm);
        assert_eq!(v.get(h.index("text=y")), 1.0 / norm);
        assert_eq!(v.get(h.index("text=")), 1.0 / norm);
        assert_eq!(v.get(h.index("=x")), 1.0 / norm);
        assert!(h.counts(8).finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_panics() {
        let _ = FeatureHasher::new(0);
    }

    /// A string of at most `max` characters drawn the way a `.` pattern
    /// is: mostly printable ASCII, with control and multi-byte characters
    /// mixed in.
    fn any_text(rng: &mut StdRng, max: usize) -> String {
        const WIDE: [char; 8] = ['é', 'ß', 'Ω', '雪', 'д', '☃', '😀', char::MAX];
        let len = rng.gen_range(0..=max);
        (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => char::from(rng.gen_range(0..0x20u8)),
                1 | 2 => WIDE[rng.gen_range(0..WIDE.len())],
                _ => char::from(rng.gen_range(0x20..0x7Fu8)),
            })
            .collect()
    }

    #[test]
    fn prop_indices_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let name = any_text(&mut rng, 40);
            let dims = rng.gen_range(1..100_000);
            assert!(FeatureHasher::new(dims).index(&name) < dims);
        }
    }

    #[test]
    fn prop_bag_nnz_bounded_by_tokens() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = FeatureHasher::new(1 << 18);
        for _ in 0..64 {
            let tokens: Vec<String> = (0..rng.gen_range(0..50))
                .map(|_| {
                    (0..rng.gen_range(1..=6))
                        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                        .collect()
                })
                .collect();
            let v = h.bag_of_words(&tokens);
            assert!(v.nnz() <= tokens.len());
            let total: f64 = v.entries().iter().map(|&(_, c)| c).sum();
            assert!((total - tokens.len() as f64).abs() < 1e-9);
        }
    }
}
