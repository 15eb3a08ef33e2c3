//! Edge-case integration tests for the LP solver: solver options, scale
//! extremes, and structured scheduling-like programs.

use grefar_lp::{LpProblem, Relation, SimplexOptions, SolveError};

#[test]
fn iteration_limit_is_reported() {
    // A healthy LP with an absurdly small pivot budget.
    let mut p = LpProblem::minimize(4);
    for j in 0..4 {
        p.set_objective(j, -1.0);
        p.set_upper_bound(j, 1.0);
    }
    p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], Relation::Le, 2.0);
    p.set_options(SimplexOptions {
        max_pivots: 1,
        ..SimplexOptions::default()
    });
    assert!(matches!(
        p.solve(),
        Err(SolveError::IterationLimit { limit: 1 })
    ));
}

#[test]
fn zero_variable_bounds_pin_variables() {
    // ub = 0 is how schedulers encode ineligible (i, j) pairs.
    let mut p = LpProblem::minimize(3);
    p.set_objective(0, -5.0);
    p.set_objective(1, -1.0);
    p.set_objective(2, -1.0);
    p.set_upper_bound(0, 0.0);
    p.set_upper_bound(1, 2.0);
    p.set_upper_bound(2, 2.0);
    p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 3.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.x()[0], 0.0, "pinned variable must stay zero");
    assert!((sol.objective() + 3.0).abs() < 1e-9);
}

#[test]
fn widely_scaled_coefficients() {
    // min 1e-6·x + 1e6·y  s.t.  x + y >= 1e3, x <= 1e4.
    let mut p = LpProblem::minimize(2);
    p.set_objective(0, 1e-6);
    p.set_objective(1, 1e6);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1e3);
    p.set_upper_bound(0, 1e4);
    let sol = p.solve().unwrap();
    assert!((sol.x()[0] - 1e3).abs() < 1e-6, "{:?}", sol.x());
    assert!(sol.x()[1].abs() < 1e-9);
}

#[test]
fn assignment_polytope_has_integral_optimum() {
    // 3x3 assignment problem: total unimodularity means the LP optimum is
    // integral — a nice stress of the bounded simplex's vertex handling.
    let cost = [4.0, 1.0, 3.0, 2.0, 0.0, 5.0, 3.0, 2.0, 2.0];
    let var = |i: usize, j: usize| i * 3 + j;
    let mut p = LpProblem::minimize(9);
    for (idx, &c) in cost.iter().enumerate() {
        p.set_objective(idx, c);
        p.set_upper_bound(idx, 1.0);
    }
    for i in 0..3 {
        let row: Vec<(usize, f64)> = (0..3).map(|j| (var(i, j), 1.0)).collect();
        p.add_constraint(&row, Relation::Eq, 1.0);
        let col: Vec<(usize, f64)> = (0..3).map(|j| (var(j, i), 1.0)).collect();
        p.add_constraint(&col, Relation::Eq, 1.0);
    }
    let sol = p.solve().unwrap();
    // Optimal assignment: (0,1), (1,0)... enumerate: best total is 5
    // via x01+x10+x22 = 1+2+2 = 5.
    assert!((sol.objective() - 5.0).abs() < 1e-9, "{}", sol.objective());
    for v in sol.x() {
        assert!(v.abs() < 1e-7 || (v - 1.0).abs() < 1e-7, "fractional: {v}");
    }
}

#[test]
fn slot_dispatch_shape_lp() {
    // The per-slot GreFar LP shape: maximize queue-weighted service minus
    // energy, coupling h to b through capacity. Two jobs, two classes.
    let (h0, h1, b0, b1) = (0usize, 1usize, 2usize, 3usize);
    let mut p = LpProblem::minimize(4);
    p.set_objective(h0, -6.0); // q = 6
    p.set_objective(h1, -2.0); // q = 2
    p.set_objective(b0, 0.8); // V·φ·p
    p.set_objective(b1, 1.4);
    p.set_upper_bound(h0, 4.0);
    p.set_upper_bound(h1, 4.0);
    p.set_upper_bound(b0, 3.0);
    p.set_upper_bound(b1, 3.0);
    // d = (1, 2); s = (1, 1.5): h0 + 2 h1 ≤ b0 + 1.5 b1.
    p.add_constraint(
        &[(h0, 1.0), (h1, 2.0), (b0, -1.0), (b1, -1.5)],
        Relation::Le,
        0.0,
    );
    let sol = p.solve().unwrap();
    assert!(p.is_feasible(sol.x(), 1e-9));
    // Values per unit work: job 0 → 6.0, job 1 → 1.0. Supply costs per unit
    // work: class 0 → 0.8, class 1 → 1.4/1.5 ≈ 0.933. Both jobs are
    // profitable, so all capacity (3 + 4.5 = 7.5 work) is used: h0 = 4
    // (4 work), h1 = (7.5 − 4)/2 = 1.75.
    assert!((sol.x()[h0] - 4.0).abs() < 1e-9, "{:?}", sol.x());
    assert!((sol.x()[h1] - 1.75).abs() < 1e-9, "{:?}", sol.x());
    assert!((sol.x()[b0] - 3.0).abs() < 1e-9);
    assert!((sol.x()[b1] - 3.0).abs() < 1e-9);
    let expected = -6.0 * 4.0 - 2.0 * 1.75 + 0.8 * 3.0 + 1.4 * 3.0;
    assert!((sol.objective() - expected).abs() < 1e-9);
}

// Phase 1 can end feasible through a bound flip, which leaves an
// artificial basic at level 0. Driving it out pivots in a column that may
// rest at its upper bound; the column must enter at that bound, not at
// the artificial's ~0.

#[test]
fn drive_out_keeps_a_flipped_column_at_its_upper_bound() {
    // min 0 s.t. x0 = 1, x0 ≤ 1.
    let mut p = LpProblem::minimize(1);
    p.set_upper_bound(0, 1.0);
    p.add_constraint(&[(0, 1.0)], Relation::Eq, 1.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.x(), &[1.0]);
}

#[test]
fn drive_out_keeps_the_objective_of_a_tight_lower_bound() {
    // min x0 + 2x1 s.t. x0 ≥ 3, x0 ≤ 3: the optimum is x = (3, 0), cost 3.
    let mut p = LpProblem::minimize(2);
    p.set_objective(0, 1.0);
    p.set_objective(1, 2.0);
    p.set_upper_bound(0, 3.0);
    p.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.x(), &[3.0, 0.0]);
    assert_eq!(sol.objective(), 3.0);
}

#[test]
fn drive_out_returns_the_only_feasible_point() {
    // x0 + 2x1 = 4, x0 ≤ 2, x1 ≤ 1: the feasible set is the point (2, 1).
    let mut p = LpProblem::minimize(2);
    p.set_upper_bound(0, 2.0);
    p.set_upper_bound(1, 1.0);
    p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, 4.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.x(), &[2.0, 1.0]);
}
