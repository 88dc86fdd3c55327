//! The workspace's one FNV-1a (64-bit) hash.
//!
//! Every non-cryptographic content hash in the tree — feature hashing,
//! the NLP cache key, per-text fault decisions, span stripes, the
//! journal's config fingerprint and the benches' float checksums — is
//! this function. It lives here because `drybell-obs` is the bottom of
//! the dependency graph; `drybell_features::hashing::fnv1a64` re-exports
//! it.

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
}
