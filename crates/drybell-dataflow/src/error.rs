//! Error types for the dataflow substrate.

use crate::codec::CodecError;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors surfaced by shard I/O and job execution.
#[derive(Debug)]
pub enum DataflowError {
    /// Filesystem error touching a shard file.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A shard file failed checksum or decode validation.
    Corrupt {
        /// File containing the bad frame.
        path: PathBuf,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A worker thread panicked; the job was aborted.
    WorkerPanicked {
        /// Index of the worker that died.
        worker: usize,
        /// Panic payload rendered as text, when available.
        message: String,
    },
    /// A user map or init function returned an error.
    User(String),
    /// The job was misconfigured (e.g. mismatched shard counts).
    BadJob(String),
    /// An engine-internal invariant failed (a broken work queue, a
    /// shard index out of range). These indicate bugs in the
    /// dataflow substrate itself, not in user code or input data.
    Internal(String),
}

impl DataflowError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> DataflowError {
        DataflowError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn corrupt(path: &Path, source: CodecError) -> DataflowError {
        DataflowError::Corrupt {
            path: path.to_path_buf(),
            source,
        }
    }

    /// Wrap an application-level failure from inside a user function.
    pub fn user(msg: impl Into<String>) -> DataflowError {
        DataflowError::User(msg.into())
    }

    /// Wrap a broken engine invariant.
    pub(crate) fn internal(msg: impl Into<String>) -> DataflowError {
        DataflowError::Internal(msg.into())
    }
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            DataflowError::Corrupt { path, source } => {
                write!(f, "corrupt shard {}: {source}", path.display())
            }
            DataflowError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            DataflowError::User(msg) => write!(f, "user function failed: {msg}"),
            DataflowError::BadJob(msg) => write!(f, "bad job configuration: {msg}"),
            DataflowError::Internal(msg) => write!(f, "internal dataflow error: {msg}"),
        }
    }
}

impl std::error::Error for DataflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataflowError::Io { source, .. } => Some(source),
            DataflowError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_path() {
        let e = DataflowError::io(
            Path::new("/data/x.rec"),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/data/x.rec"));
        let e = DataflowError::WorkerPanicked {
            worker: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("worker 3"));
    }
}
