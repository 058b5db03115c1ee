//! Sketch construction and compact bit-vector sketches.
//!
//! Sketches are "tiny data structures that can be used to estimate
//! properties of the original data" (paper §1). The construction here turns
//! each high-dimensional feature vector into an `N`-bit vector whose pairwise
//! Hamming distances approximate (a thresholded transform of) the weighted
//! ℓ₁ distances between the original vectors, typically shrinking metadata by
//! an order of magnitude.

pub mod bitvec;
pub mod builder;
pub mod onepass;
pub mod params;

pub use bitvec::BitVec;
pub use builder::{SketchBuilder, SketchedObject};
pub use onepass::OnePassPlan;
pub use params::SketchParams;
