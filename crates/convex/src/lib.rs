//! Convex-optimization toolkit for the GreFar scheduler.
//!
//! The paper notes (§IV-B) that the per-slot drift-plus-penalty problem (14)
//! with fairness (`β > 0`) "is a convex optimization problem, to which
//! efficient numerical algorithms … exist". This crate provides the
//! first-order method the workspace uses:
//!
//! * [`frank_wolfe`] — the Frank–Wolfe (conditional-gradient) method.
//!   All it needs from the feasible region is a *linear minimization oracle*
//!   ([`Lmo`]): given a gradient, return a feasible minimizer of the linear
//!   model. For GreFar's per-slot polytope the LMO is the exact greedy
//!   dispatch (the `β = 0` solver), so FW composes beautifully with it.
//!
//! The projected-subgradient cross-check and its projections live with the
//! oracle test that uses them (`crates/core/tests/reference`).
//!
//! # Example
//!
//! Minimize `‖x − (2, 2)‖²` over the simplex-like region
//! `{x ≥ 0, x_1 + x_2 ≤ 1}`:
//!
//! ```
//! use grefar_convex::{frank_wolfe, FwOptions, Lmo, Objective};
//!
//! struct Dist;
//! impl Objective for Dist {
//!     fn value(&self, x: &[f64]) -> f64 {
//!         (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2)
//!     }
//!     fn gradient(&self, x: &[f64], g: &mut [f64]) {
//!         g[0] = 2.0 * (x[0] - 2.0);
//!         g[1] = 2.0 * (x[1] - 2.0);
//!     }
//! }
//!
//! struct Simplex;
//! impl Lmo for Simplex {
//!     fn minimize(&self, g: &[f64], out: &mut [f64]) {
//!         out.fill(0.0);
//!         // Vertices are (0,0), (1,0), (0,1): pick the best.
//!         if g[0] <= g[1] && g[0] < 0.0 { out[0] = 1.0; }
//!         else if g[1] < 0.0 { out[1] = 1.0; }
//!     }
//! }
//!
//! let result = frank_wolfe(&Dist, &Simplex, vec![0.0, 0.0], FwOptions::default());
//! // Optimum is (0.5, 0.5) with value 4.5.
//! assert!((Dist.value(&result.x) - 4.5).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frank_wolfe;
mod objective;

pub use frank_wolfe::{frank_wolfe, frank_wolfe_observed, FwOptions, FwResult, LineSearch};
pub use objective::{LineModel, Lmo, Objective, Quadratic, Segment};
