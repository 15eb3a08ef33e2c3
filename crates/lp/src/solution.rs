//! Solver results and errors.

use core::fmt;

/// Per-solve instrumentation: how hard the simplex had to work.
///
/// Cheap to collect (a handful of integer bumps plus one clock read), so
/// it is always populated — telemetry layers read it off the returned
/// [`Solution`] without the solver needing an observer dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Basis-changing pivots during phase 1 (artificial elimination
    /// included).
    pub pivots_phase1: usize,
    /// Basis-changing pivots during phase 2.
    pub pivots_phase2: usize,
    /// Pivots whose ratio-test step was ~0 (degenerate; the Bland
    /// fallback exists because of these).
    pub degenerate_pivots: usize,
    /// Nonbasic bound flips (upper-bounded simplex moves that change no
    /// basis entry). These count toward the pivot limit.
    pub bound_flips: usize,
    /// Wall-clock time of the whole solve, in microseconds.
    pub wall_us: u64,
}

impl SolveStats {
    /// Total pivots and bound flips across both phases — the quantity
    /// capped by [`SimplexOptions::max_pivots`](crate::SimplexOptions).
    pub fn total_iterations(&self) -> usize {
        self.pivots_phase1 + self.pivots_phase2 + self.bound_flips
    }
}

/// An optimal solution to a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    objective: f64,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(x: Vec<f64>, objective: f64, stats: SolveStats) -> Self {
        Self {
            x,
            objective,
            stats,
        }
    }

    /// The optimal variable assignment, indexed as in the
    /// [`LpProblem`](crate::LpProblem).
    #[inline]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// The optimal objective value (of the *minimization*; callers that
    /// modeled a maximization by negating costs should negate back).
    #[inline]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of simplex pivots and bound flips performed across both
    /// phases. See [`stats`](Solution::stats) for the breakdown.
    #[inline]
    pub fn iterations(&self) -> usize {
        self.stats.total_iterations()
    }

    /// The per-solve instrumentation counters.
    #[inline]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// Why a linear program could not be solved to optimality.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The pivot-count safety limit was exceeded (numerical trouble or an
    /// adversarially degenerate instance).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The model itself is malformed (e.g. a variable index out of range).
    BadModel(String),
    /// An internal consistency check failed (duplicate basis column,
    /// basic value outside its bounds, bound flip on an unbounded
    /// column). Only produced with the `strict-invariants` feature; always
    /// indicates a solver bug, never a property of the model.
    InvariantViolation(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "linear program is infeasible"),
            Self::Unbounded => write!(f, "linear program is unbounded"),
            Self::IterationLimit { limit } => {
                write!(f, "simplex exceeded the pivot limit of {limit}")
            }
            Self::BadModel(why) => write!(f, "malformed linear program: {why}"),
            Self::InvariantViolation(why) => {
                write!(f, "simplex internal invariant violated: {why}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_accessors() {
        let stats = SolveStats {
            pivots_phase1: 3,
            pivots_phase2: 2,
            degenerate_pivots: 1,
            bound_flips: 2,
            wall_us: 15,
        };
        let s = Solution::new(vec![1.0, 2.0], 3.5, stats);
        assert_eq!(s.x(), &[1.0, 2.0]);
        assert_eq!(s.objective(), 3.5);
        assert_eq!(s.iterations(), 7);
        assert_eq!(s.stats(), stats);
    }

    #[test]
    fn errors_display() {
        assert!(!SolveError::Infeasible.to_string().is_empty());
        assert!(!SolveError::Unbounded.to_string().is_empty());
        assert!(SolveError::IterationLimit { limit: 9 }
            .to_string()
            .contains('9'));
        assert!(SolveError::BadModel("x".into()).to_string().contains('x'));
        assert!(SolveError::InvariantViolation("basis".into())
            .to_string()
            .contains("basis"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<SolveError>();
    }
}
