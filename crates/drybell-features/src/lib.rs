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

pub mod hashing;
pub mod space;
pub mod sparse;

pub use hashing::{fnv1a64, FeatureHasher, HashedCounts};
pub use space::{FeatureSpace, FeatureSpaceId, SpaceRegistry};
pub use sparse::SparseVector;
