//! Property-based verification of the simplex solver against brute-force
//! vertex enumeration.
//!
//! Any bounded, non-empty polyhedron `{0 ≤ x ≤ u, Ax {≤,=,≥} b}` attains the
//! LP optimum at a vertex, and every vertex solves `n` of the constraints as
//! equalities. Enumerating all `n`-subsets therefore yields ground truth for
//! small random programs.

use grefar_lp::{linalg, LpProblem, Relation, SolveError};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
    upper: f64,
}

impl RandomLp {
    fn to_problem(&self) -> LpProblem {
        let mut p = LpProblem::minimize(self.num_vars);
        for (j, &c) in self.objective.iter().enumerate() {
            p.set_objective(j, c);
        }
        for (coeffs, rel, rhs) in &self.rows {
            let sparse: Vec<(usize, f64)> =
                coeffs.iter().enumerate().map(|(j, &c)| (j, c)).collect();
            p.add_constraint(&sparse, *rel, *rhs);
        }
        for j in 0..self.num_vars {
            p.set_upper_bound(j, self.upper);
        }
        p
    }

    fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.iter().any(|&v| !(-tol..=self.upper + tol).contains(&v)) {
            return false;
        }
        self.rows.iter().all(|(coeffs, rel, rhs)| {
            let lhs = linalg::dot(coeffs, x);
            match rel {
                Relation::Le => lhs <= rhs + tol,
                Relation::Eq => (lhs - rhs).abs() <= tol,
                Relation::Ge => lhs >= rhs - tol,
            }
        })
    }

    /// Brute-force optimum via vertex enumeration: every subset of size
    /// `num_vars` drawn from {constraint rows, x_j = 0, x_j = upper}.
    fn brute_force(&self) -> Option<f64> {
        let n = self.num_vars;
        // Hyperplane set: (normal, offset).
        let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
        for (coeffs, _, rhs) in &self.rows {
            planes.push((coeffs.clone(), *rhs));
        }
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            planes.push((e.clone(), 0.0));
            planes.push((e, self.upper));
        }
        let mut best: Option<f64> = None;
        let idx: Vec<usize> = (0..planes.len()).collect();
        for combo in combinations(&idx, n) {
            let mut a = Vec::with_capacity(n * n);
            let mut b = Vec::with_capacity(n);
            for &i in &combo {
                a.extend_from_slice(&planes[i].0);
                b.push(planes[i].1);
            }
            if let Some(x) = solve_dense(n, &a, &b) {
                if self.is_feasible(&x, 1e-7) {
                    let obj = linalg::dot(&self.objective, &x);
                    best = Some(match best {
                        None => obj,
                        Some(cur) => cur.min(obj),
                    });
                }
            }
        }
        best
    }
}

/// Solves the square system `A x = b` by Gaussian elimination with partial
/// pivoting, where `a` is row-major `n × n`; `None` if the matrix is
/// (numerically) singular.
fn solve_dense(n: usize, a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.len(), n * n, "matrix must be n x n");
    assert_eq!(b.len(), n, "rhs must have length n");
    let (mut m, mut rhs) = (a.to_vec(), b.to_vec());

    for col in 0..n {
        // Partial pivoting: largest absolute entry in the column.
        let mut pivot_row = col;
        let mut pivot_val = m[col * n + col].abs();
        for row in (col + 1)..n {
            let v = m[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for j in 0..n {
                m.swap(col * n + j, pivot_row * n + j);
            }
            rhs.swap(col, pivot_row);
        }
        let pivot = m[col * n + col];
        for row in (col + 1)..n {
            let factor = m[row * n + col] / pivot;
            // verify: allow(float-eq): exact-zero skip — elimination with a zero factor is a no-op
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                m[row * n + j] -= factor * m[col * n + j];
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for j in (row + 1)..n {
            acc -= m[row * n + j] * x[j];
        }
        x[row] = acc / m[row * n + row];
    }
    Some(x)
}

fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    if items.len() < k {
        return vec![];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        for mut rest in combinations(&items[i + 1..], k - 1) {
            rest.insert(0, first);
            out.push(rest);
        }
    }
    out
}

fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop_oneof![Just(Relation::Le), Just(Relation::Eq), Just(Relation::Ge)]
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..=3).prop_flat_map(|n| {
        let objective = proptest::collection::vec(-3.0f64..3.0, n);
        let row = (
            proptest::collection::vec(-2.0f64..2.0, n),
            relation_strategy(),
            -3.0f64..5.0,
        );
        let rows = proptest::collection::vec(row, 1..=4);
        (objective, rows).prop_map(move |(objective, rows)| RandomLp {
            num_vars: n,
            objective,
            rows,
            upper: 4.0,
        })
    })
}

/// LPs whose every row is tight at one random corner of the box `[0, 4]ⁿ`:
/// always feasible, and phase 1 often becomes feasible through a bound
/// flip that leaves an artificial basic at level 0.
fn corner_tight_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..=3).prop_flat_map(|n| {
        let objective = proptest::collection::vec(-3.0f64..3.0, n);
        let corner = proptest::collection::vec(any::<bool>(), n);
        let row = (
            proptest::collection::vec(-2.0f64..2.0, n),
            relation_strategy(),
        );
        let rows = proptest::collection::vec(row, 1..=4);
        (objective, corner, rows).prop_map(move |(objective, corner, rows)| {
            let upper = 4.0;
            let at: Vec<f64> = corner
                .iter()
                .map(|&hi| if hi { upper } else { 0.0 })
                .collect();
            let rows = rows
                .into_iter()
                .map(|(coeffs, rel)| {
                    let rhs = linalg::dot(&coeffs, &at);
                    (coeffs, rel, rhs)
                })
                .collect();
            RandomLp {
                num_vars: n,
                objective,
                rows,
                upper,
            }
        })
    })
}

/// The simplex optimum matches brute-force vertex enumeration, and
/// infeasibility verdicts agree.
fn matches_vertex_enumeration(lp: &RandomLp) -> Result<(), TestCaseError> {
    let problem = lp.to_problem();
    let brute = lp.brute_force();
    match problem.solve() {
        Ok(sol) => {
            prop_assert!(
                problem.is_feasible(sol.x(), 1e-6),
                "simplex returned infeasible point {:?}",
                sol.x()
            );
            let brute = brute.expect("simplex found a solution but brute force found none");
            prop_assert!(
                (sol.objective() - brute).abs() <= 1e-5 * (1.0 + brute.abs()),
                "objective mismatch: simplex {} vs brute {}",
                sol.objective(),
                brute
            );
        }
        Err(SolveError::Infeasible) => {
            prop_assert!(
                brute.is_none(),
                "simplex says infeasible but brute force found optimum {:?}",
                brute
            );
        }
        Err(SolveError::Unbounded) => {
            // Impossible: all variables are boxed in [0, upper].
            prop_assert!(false, "bounded LP reported unbounded");
        }
        Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn simplex_matches_vertex_enumeration(lp in random_lp()) {
        matches_vertex_enumeration(&lp)?;
    }

    /// Corner-tight LPs are feasible by construction, so every solve must
    /// return a feasible optimal point.
    #[test]
    fn corner_tight_lps_solve_to_a_feasible_optimum(lp in corner_tight_lp()) {
        matches_vertex_enumeration(&lp)?;
    }

    /// Solving is deterministic: two runs of the same model agree exactly.
    #[test]
    fn simplex_is_deterministic(lp in random_lp()) {
        let a = lp.to_problem().solve();
        let b = lp.to_problem().solve();
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.x(), y.x());
                prop_assert_eq!(x.objective(), y.objective());
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (a, b) => prop_assert!(false, "non-deterministic outcome: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn solve_dense_solves_identity_and_pivots() {
    assert_eq!(
        solve_dense(2, &[1.0, 0.0, 0.0, 1.0], &[3.0, 4.0]),
        Some(vec![3.0, 4.0])
    );
    // The first pivot is zero, so the rows must be exchanged.
    assert_eq!(
        solve_dense(2, &[0.0, 1.0, 1.0, 0.0], &[5.0, 7.0]),
        Some(vec![7.0, 5.0])
    );
    assert!(solve_dense(2, &[1.0, 2.0, 2.0, 4.0], &[1.0, 2.0]).is_none());
    let x = solve_dense(2, &[2.0, 1.0, 1.0, 3.0], &[3.0, 5.0]).unwrap();
    assert!(
        (x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12,
        "{x:?}"
    );
    // The 1-D Poisson system, whose solution is [1, 1, 1].
    let poisson = [2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0];
    let x = solve_dense(3, &poisson, &[1.0, 0.0, 1.0]).unwrap();
    assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12), "{x:?}");
}

#[test]
fn solve_dense_residual_is_small_on_random_system() {
    let n = 8;
    let mut seed = 42u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
    let b: Vec<f64> = (0..n).map(|_| next()).collect();
    let x = solve_dense(n, &a, &b).expect("a random system is regular");
    for i in 0..n {
        let residual = linalg::dot(&a[i * n..(i + 1) * n], &x) - b[i];
        assert!(residual.abs() < 1e-8, "row {i} residual {residual}");
    }
}
