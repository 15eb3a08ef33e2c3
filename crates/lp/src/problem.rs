//! The linear-program model builder.

use crate::simplex::{simplex, SimplexOptions};
use crate::solution::{Solution, SolveError};

/// Direction of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ a_j x_j ≤ b`
    Le,
    /// `Σ a_j x_j = b`
    Eq,
    /// `Σ a_j x_j ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    /// Sparse coefficients as (variable, coefficient) pairs.
    pub coeffs: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program over non-negative variables:
///
/// ```text
/// minimize    c · x
/// subject to  Σ_j a_{ij} x_j  {≤,=,≥}  b_i      for each constraint i
///             0 ≤ x_j ≤ u_j                      (u_j optional)
/// ```
///
/// Build the model incrementally, then call [`solve`](Self::solve).
///
/// # Example
/// ```
/// use grefar_lp::{LpProblem, Relation};
///
/// # fn main() -> Result<(), grefar_lp::SolveError> {
/// // min  x0 + 2 x1   s.t.  x0 + x1 >= 3
/// let mut p = LpProblem::minimize(2);
/// p.set_objective(0, 1.0);
/// p.set_objective(1, 2.0);
/// p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
/// let sol = p.solve()?;
/// assert!((sol.objective() - 3.0).abs() < 1e-9); // x0 = 3, x1 = 0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
    upper_bounds: Vec<Option<f64>>,
    options: SimplexOptions,
}

impl LpProblem {
    /// Creates an empty minimization over `num_vars` non-negative variables
    /// with an all-zero objective.
    pub fn minimize(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            // verify: allow(hot-path-alloc): empty builder — the row count is unknown until callers add constraints, once per problem
            rows: Vec::new(),
            upper_bounds: vec![None; num_vars],
            options: SimplexOptions::default(),
        }
    }

    /// Number of constraint rows added so far (excluding upper bounds).
    #[inline]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient of variable `var` to `coeff`.
    ///
    /// # Panics
    /// Panics if `var` is out of range or `coeff` is non-finite.
    pub fn set_objective(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(coeff.is_finite(), "objective coefficient must be finite");
        self.objective[var] = coeff;
        self
    }

    /// Adds the constraint `Σ coeffs · x  relation  rhs`.
    ///
    /// Repeated variable indices in `coeffs` are summed.
    ///
    /// # Panics
    /// Panics if any variable index is out of range or any value non-finite.
    pub fn add_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(var, c) in coeffs {
            assert!(var < self.num_vars, "variable {var} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        // verify: allow(hot-path-alloc): growing the constraint set is the builder's job; rows reallocate O(log rows) times per problem
        self.rows.push(Row {
            // verify: allow(hot-path-alloc): the Row must own its sparse coefficients; one exact-size copy per constraint build
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
        self
    }

    /// Sets the upper bound `x_var ≤ upper` (lower bounds are always 0).
    ///
    /// # Panics
    /// Panics if `var` is out of range or `upper` is negative/non-finite.
    pub fn set_upper_bound(&mut self, var: usize, upper: f64) -> &mut Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(
            upper.is_finite() && upper >= 0.0,
            "upper bound must be non-negative and finite, got {upper}"
        );
        self.upper_bounds[var] = Some(upper);
        self
    }

    /// Overrides the solver options (pivot limits, tolerances).
    pub fn set_options(&mut self, options: SimplexOptions) -> &mut Self {
        self.options = options;
        self
    }

    /// Solves the program with the two-phase primal simplex method.
    ///
    /// # Errors
    /// [`SolveError::Infeasible`] if no point satisfies all constraints,
    /// [`SolveError::Unbounded`] if the objective diverges to `−∞`, and
    /// [`SolveError::IterationLimit`] if the pivot safety limit is hit.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        simplex(
            self.num_vars,
            &self.objective,
            &self.rows,
            &self.upper_bounds,
            self.options,
        )
    }

    /// Checks whether `x` satisfies every constraint and bound within
    /// tolerance `tol`.
    ///
    /// # Panics
    /// Panics if `x.len() != num_vars`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        assert_eq!(x.len(), self.num_vars, "point has wrong dimension");
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        for (var, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(u) = ub {
                if x[var] > u + tol {
                    return false;
                }
            }
        }
        for row in &self.rows {
            let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * x[v]).sum();
            let ok = match row.relation {
                Relation::Le => lhs <= row.rhs + tol,
                Relation::Eq => (lhs - row.rhs).abs() <= tol,
                Relation::Ge => lhs >= row.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier–Lieberman)
        // optimum: x = 2, y = 6, objective 36.
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, -3.0);
        p.set_objective(1, -5.0);
        p.set_upper_bound(0, 4.0);
        p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() + 36.0).abs() < 1e-9);
        assert!((sol.x()[0] - 2.0).abs() < 1e-9);
        assert!((sol.x()[1] - 6.0).abs() < 1e-9);
        assert!(p.is_feasible(sol.x(), 1e-9));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1  →  x = 2, y = 1.
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.x()[0] - 2.0).abs() < 1e-9);
        assert!((sol.x()[1] - 1.0).abs() < 1e-9);
        assert!((sol.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = LpProblem::minimize(1);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        p.set_upper_bound(0, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = LpProblem::minimize(1);
        p.set_objective(0, -1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // x - y <= -2 with min x  →  y >= x + 2, so x = 0 (y = 2 via slack-free row).
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, -2.0);
        p.set_upper_bound(1, 10.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 0.0).abs() < 1e-9);
        assert!(p.is_feasible(sol.x(), 1e-9));
    }

    #[test]
    fn ge_with_positive_rhs() {
        // min 2x + 3y s.t. x + y >= 10, x <= 4  →  x = 4, y = 6, cost 26.
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 10.0);
        p.set_upper_bound(0, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_indices_are_summed() {
        // (x + x) <= 4 → x <= 2; max x.
        let mut p = LpProblem::minimize(1);
        p.set_objective(0, -1.0);
        p.add_constraint(&[(0, 1.0), (0, 1.0)], Relation::Le, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.x()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate LP (Beale's example structure) — must not cycle.
        let mut p = LpProblem::minimize(4);
        p.set_objective(0, -0.75);
        p.set_objective(1, 150.0);
        p.set_objective(2, -0.02);
        p.set_objective(3, 6.0);
        p.add_constraint(
            &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() + 0.05).abs() < 1e-9);
    }

    #[test]
    fn zero_constraint_problem() {
        // Pure bounds: min -x with x <= 3.
        let mut p = LpProblem::minimize(1);
        p.set_objective(0, -1.0);
        p.set_upper_bound(0, 3.0);
        let sol = p.solve().unwrap();
        assert!((sol.x()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility_helpers() {
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 2.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 2.0);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[3.0, 0.0], 1e-9));
        assert!(!p.is_feasible(&[-0.1, 0.0], 1e-9));
        assert_eq!(p.num_constraints(), 1);
    }
}
