//! Dense two-phase primal simplex linear-programming solver.
//!
//! This crate is the linear-programming substrate of the `grefar` workspace.
//! The GreFar paper (§IV-B) observes that the per-slot drift-plus-penalty
//! problem (14) "becomes a standard linear programming problem" when fairness
//! is not considered (`β = 0`), and the offline `T`-step lookahead policy
//! (§V-A, eqs. (15)–(18)) is a frame-sized LP. Rather than assuming an
//! external solver exists, the workspace ships this self-contained one.
//!
//! # Features
//!
//! * [`LpProblem`] — a model builder with `≤ / = / ≥` constraints,
//!   non-negative variables and optional upper bounds, solved by a dense
//!   two-phase primal simplex with a Dantzig pivot rule and automatic
//!   fallback to Bland's rule for anti-cycling (tunable via
//!   [`SimplexOptions`]),
//! * [`linalg`] — the dot product the solver and its property tests
//!   share. The brute-force vertex enumeration that cross-checks the
//!   solver keeps its own Gaussian elimination in
//!   `tests/proptest_simplex.rs`.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2` (so minimize the
//! negation):
//!
//! ```
//! use grefar_lp::{LpProblem, Relation};
//!
//! # fn main() -> Result<(), grefar_lp::SolveError> {
//! let mut p = LpProblem::minimize(2);
//! p.set_objective(0, -3.0);
//! p.set_objective(1, -2.0);
//! p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! p.set_upper_bound(0, 2.0);
//! let sol = p.solve()?;
//! assert!((sol.objective() - (-10.0)).abs() < 1e-9); // x=2, y=2
//! assert!((sol.x()[0] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linalg;
mod problem;
mod simplex;
mod solution;

pub use problem::{LpProblem, Relation};
pub use simplex::SimplexOptions;
pub use solution::{Solution, SolveError, SolveStats};
