//! The workspace's one FNV-1a (64-bit) hash.
//!
//! Every non-cryptographic content hash in the tree — feature hashing,
//! the NLP cache key, per-text fault decisions, span stripes, the
//! journal's config fingerprint and the benches' float checksums — is
//! this function. It lives here because `drybell-obs` is the bottom of
//! the dependency graph; `drybell_features::hashing::fnv1a64` re-exports
//! it.
//!
//! It is also the workspace's one fast table hash: [`Fnv1a64`] is a
//! [`std::hash::Hasher`], and [`FnvHashMap`] / [`FnvHashSet`] are the std
//! tables over it. FNV has no key and collisions can be constructed, so
//! these are for tables whose keys the program builds itself (alias
//! tables, gazetteers, lexicons, a trained vocabulary). A table keyed by
//! input from outside keeps the default `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a state, for callers that hash a sequence of pieces
/// without concatenating them first. Feeding the pieces one by one
/// yields the same value as [`fnv1a64`] over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Fnv1a64 {
        Fnv1a64::new()
    }
}

impl Fnv1a64 {
    /// The empty-input state.
    #[inline]
    pub const fn new() -> Fnv1a64 {
        Fnv1a64(OFFSET)
    }

    /// Fold `data` into the state.
    #[inline]
    pub fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::hash::Hasher for Fnv1a64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a64::write(self, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`Fnv1a64`] (see the module docs for when).
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a64>>;

/// A `HashSet` hashed by [`Fnv1a64`] (see the module docs for when).
pub type FnvHashSet<K> = HashSet<K, BuildHasherDefault<Fnv1a64>>;

/// FNV-1a 64-bit hash of a byte slice.
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let mut h = Fnv1a64::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    /// As a table hash it is the same function: std hashes a `str` as its
    /// bytes and a `0xff` terminator.
    #[test]
    fn the_hasher_impl_is_the_same_function() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<Fnv1a64>::default();
        assert_eq!(build.hash_one("foobar"), fnv1a64(b"foobar\xff"));
        let mut set = FnvHashSet::default();
        assert!(set.insert("camera") && !set.insert("camera"));
        let map: FnvHashMap<&str, u32> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!((map.get("a"), map.get("c")), (Some(&1), None));
    }
}
