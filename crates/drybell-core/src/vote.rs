//! Labeling-function votes.
//!
//! A labeling function maps an example to a [`Vote`]: a class label or an
//! explicit abstention. All three of the paper's applications are binary
//! (`Y ∈ {-1, +1}`, Table 1), with abstain encoded as `0`.

/// A binary labeling-function vote: positive, negative, or abstain.
///
/// Encoded on the wire and in [`crate::LabelMatrix`] as an `i8` in
/// `{+1, -1, 0}`, matching the paper's `λ_j : X → {-1, 0, 1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// The LF believes the example is in the positive class (`+1`).
    Positive,
    /// The LF believes the example is in the negative class (`-1`).
    Negative,
    /// The LF offers no opinion on this example (`0`).
    Abstain,
}

impl Vote {
    /// The paper's integer encoding: `+1`, `-1`, or `0`.
    #[inline]
    pub fn as_i8(self) -> i8 {
        match self {
            Vote::Positive => 1,
            Vote::Negative => -1,
            Vote::Abstain => 0,
        }
    }

    /// Decode from the integer encoding. Any value other than `+1`/`-1`/`0`
    /// is rejected.
    #[inline]
    pub fn from_i8(v: i8) -> Option<Vote> {
        match v {
            1 => Some(Vote::Positive),
            -1 => Some(Vote::Negative),
            0 => Some(Vote::Abstain),
            _ => None,
        }
    }

    /// Flip positive to negative and vice versa; abstain is unchanged.
    #[inline]
    pub fn flipped(self) -> Vote {
        match self {
            Vote::Positive => Vote::Negative,
            Vote::Negative => Vote::Positive,
            Vote::Abstain => Vote::Abstain,
        }
    }
}

impl From<bool> for Vote {
    /// `true` → positive, `false` → negative (never abstains).
    fn from(b: bool) -> Vote {
        if b {
            Vote::Positive
        } else {
            Vote::Negative
        }
    }
}

/// A ground-truth binary label, used only for evaluation and for the
/// hand-label trade-off experiments (Figure 5) — never by the generative
/// model, which learns from `Λ` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The positive class (`+1`).
    Positive,
    /// The negative class (`-1`).
    Negative,
}

impl Label {
    /// `+1.0` or `-1.0`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => -1.0,
        }
    }

    /// `+1` or `-1`.
    #[inline]
    pub fn as_i8(self) -> i8 {
        match self {
            Label::Positive => 1,
            Label::Negative => -1,
        }
    }

    /// Probability-style encoding: positive → `1.0`, negative → `0.0`.
    #[inline]
    pub fn as_prob(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_roundtrips_through_i8() {
        for v in [Vote::Positive, Vote::Negative, Vote::Abstain] {
            assert_eq!(Vote::from_i8(v.as_i8()), Some(v));
        }
        assert_eq!(Vote::from_i8(3), None);
        assert_eq!(Vote::from_i8(-2), None);
    }

    #[test]
    fn flip_is_involution() {
        for v in [Vote::Positive, Vote::Negative, Vote::Abstain] {
            assert_eq!(v.flipped().flipped(), v);
        }
        assert_eq!(Vote::Positive.flipped(), Vote::Negative);
        assert_eq!(Vote::Abstain.flipped(), Vote::Abstain);
    }

    #[test]
    fn label_encodings_agree() {
        assert_eq!(Label::Positive.as_f64(), 1.0);
        assert_eq!(Label::Negative.as_f64(), -1.0);
    }
}
