//! # drybell-dataflow
//!
//! The distributed-execution substrate for the Snorkel DryBell
//! reproduction: a local, multi-threaded stand-in for Google's MapReduce
//! framework and distributed filesystem (§5.1, §5.4 of the paper).
//!
//! Components:
//!
//! * [`codec`] — checksummed binary record framing (varints, CRC-32,
//!   field helpers) and the [`Record`] trait.
//! * [`shard`] — sharded record files (`name-00007-of-00032.rec`), the
//!   interchange format between pipeline stages, mirroring how the paper's
//!   labeling-function binaries "use a distributed filesystem to share
//!   data".
//! * [`mapreduce`] — the job engine: a shard-parallel map with per-worker
//!   state (the hook DryBell uses to launch an NLP model server per
//!   compute node), job counters, and per-shard retry with atomic shard
//!   commits.
//! * [`counters`] — named job counters in the MapReduce tradition.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) used by the
//!   chaos test suite to exercise the retry and skip paths.
//! * [`stream`] — streaming ingestion: a [`stream::StreamIngestor`] that
//!   watches a spool directory for atomically-committed shards and
//!   delivers each exactly once, in a deterministic order (the paper's
//!   *real-time events* workload).
//!
//! The engine is deliberately synchronous and thread-based: the paper's
//! scalability claims are about *architecture* (decoupled LF execution,
//! shard-at-a-time streaming, per-node services), all of which are
//! exercised identically by threads over local files.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::todo))]
#![cfg_attr(not(test), warn(clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod codec;
pub mod counters;
pub mod error;
pub mod fault;
pub mod mapreduce;
pub mod shard;
pub mod stream;

#[cfg(test)]
mod tests_mapreduce;

pub use codec::{CodecError, Record};
pub use counters::{CounterHandle, CounterSnapshot, Counters};
pub use error::DataflowError;
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use mapreduce::{
    par_map_shards, par_map_vec, Emit, JobConfig, JobStats, PhaseStats, Service, WorkerContext,
};
pub use shard::{read_all, write_all, ShardReader, ShardSpec, ShardWriter, ShardWriterSet};
pub use stream::{ArrivedShard, StreamIngestor};
