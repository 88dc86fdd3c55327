//! Error types for the core label-modeling pipeline.

use std::fmt;

/// Errors raised while building label matrices or fitting label models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A row with the wrong number of LF votes was appended to a matrix.
    RowArity {
        /// Number of labeling functions the matrix was created with.
        expected: usize,
        /// Number of votes in the offending row.
        got: usize,
    },
    /// An operation needed a non-empty matrix but got zero rows or zero LFs.
    EmptyMatrix,
    /// A matrix was requested with zero labeling functions (no columns).
    ZeroLabelingFunctions,
    /// Vote value outside `{-1, 0, +1}`.
    InvalidVote {
        /// The raw encoded vote value.
        value: i64,
        /// Human-readable description of the accepted range.
        expected: &'static str,
    },
    /// Training diverged (non-finite loss or parameters).
    Diverged {
        /// The optimization step at which divergence was detected.
        step: usize,
    },
    /// Mismatched lengths between parallel arrays (e.g. posteriors vs gold).
    LengthMismatch {
        /// Length of the first array.
        left: usize,
        /// Length of the second array.
        right: usize,
    },
    /// A configuration value was out of range.
    BadConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RowArity { expected, got } => {
                write!(f, "label row has {got} votes, matrix expects {expected}")
            }
            CoreError::EmptyMatrix => write!(f, "operation requires a non-empty label matrix"),
            CoreError::ZeroLabelingFunctions => {
                write!(f, "label matrix needs at least one labeling function")
            }
            CoreError::InvalidVote { value, expected } => {
                write!(f, "invalid vote value {value}, expected {expected}")
            }
            CoreError::Diverged { step } => {
                write!(f, "label model training diverged at step {step}")
            }
            CoreError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::RowArity {
            expected: 3,
            got: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        let e = CoreError::Diverged { step: 42 };
        assert!(e.to_string().contains("42"));
    }
}
