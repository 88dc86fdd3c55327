//! # drybell-features
//!
//! Feature representations shared by the discriminative models and the
//! serving layer:
//!
//! * [`sparse`] — immutable sorted sparse vectors with the algebra the
//!   linear models need (dot products, scaled accumulation).
//! * [`hashing`] — FNV-1a feature hashing, turning token streams into
//!   fixed-dimension sparse vectors (the "servable features similar to
//!   those used in production" of §6.1 — cheap to compute at serving time).
//! * [`space`] — the feature-space registry that makes *servability* a
//!   first-class, machine-checkable property. §4's cross-feature serving
//!   story hinges on this: labeling functions may read expensive
//!   non-servable spaces (aggregate statistics, NLP model outputs), but a
//!   model staged for production may only read spaces whose declared cost
//!   fits the latency budget.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Non-test code only; DESIGN.md "Guards" says what each lint stands for.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::iter_over_hash_type))]
#![cfg_attr(not(test), warn(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), warn(clippy::unused_result_ok))]
#![cfg_attr(not(test), warn(clippy::allow_attributes))]
#![cfg_attr(not(test), warn(clippy::allow_attributes_without_reason))]

pub mod hashing;
pub mod space;
pub mod sparse;

pub use hashing::{fnv1a64, FeatureHasher, HashedCounts};
pub use space::{FeatureSpace, FeatureSpaceId, SpaceRegistry};
pub use sparse::SparseVector;
