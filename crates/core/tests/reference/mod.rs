//! Reference solvers for the oracle tests: projected subgradient descent
//! and the exact Euclidean projections it needs. Nothing outside the
//! tests calls them, so they live beside the test that uses them rather
//! than in `grefar-convex`.

pub mod projection;
pub mod subgradient;
