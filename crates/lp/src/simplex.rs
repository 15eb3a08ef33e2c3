//! Two-phase *upper-bounded* primal simplex on a dense tableau.
//!
//! Variable bounds `0 ≤ x_j ≤ u_j` are handled natively (nonbasic
//! variables rest at either bound and may "flip" without a pivot), so the
//! bound-heavy programs this workspace produces — per-slot dispatch,
//! lookahead frames, MPC horizons, where almost every variable is boxed —
//! stay at their natural row count instead of doubling.
//!
//! Structure:
//!
//! 1. Normalize every row to non-negative right-hand side, then append a
//!    slack (`≤`), surplus + artificial (`≥`) or artificial (`=`) column.
//! 2. **Phase 1** minimizes the sum of artificials; a positive optimum
//!    means infeasible. Artificials still basic at level ~0 are pivoted
//!    out (or their redundant rows dropped).
//! 3. **Phase 2** minimizes the true objective over non-artificial columns.
//!
//! Pivoting uses Dantzig's rule with a fallback to Bland's rule, which
//! guarantees termination on degenerate instances.
//!
//! Entering: one factor per column, `sense`, is −1 for a nonbasic column
//! at 0, +1 for one at its upper bound and NaN for a basic one. The score
//! `sense[j] · reduced[j]` is then `|reduced[j]|` exactly when moving the
//! column off its bound improves the objective, at most `tol` otherwise,
//! and NaN for a basic column, which no comparison picks. Dantzig's rule
//! takes the first column with the largest score above `tol`, scanning
//! blocks of [`BLOCK`] columns and walking only the blocks with a score
//! above the best so far; Bland's rule takes the first score above `tol`.
//!
//! Pricing: each phase starts by pricing every column in one row-major
//! pass over the tableau. After a basis change only the columns where the
//! pivot row was nonzero before scaling are priced again, each summed over
//! the same rows in the same ascending order as the full pass. Off that
//! pattern the pivot row is ±0, so elimination leaves the column's tableau
//! entries unchanged and the pivot row's new basic cost multiplies ±0:
//! the skipped reduced costs equal the full pass's up to the sign of a
//! zero, which the entering rule's `>` and the ratio test's `±tol` cannot
//! see. A bound flip changes neither the basis nor the tableau, so it
//! reuses the reduced costs.
//!
//! Pivoting: the entering column is gathered once per pivot, and the ratio
//! test, the `xb` update and the elimination factors read the copy. The
//! elimination, like the re-price, runs over the listed columns only:
//! elsewhere the dense update `v − f·(±0)` returns `v` except that it can
//! turn a −0 into +0. A pivot row nonzero in more than a quarter of the
//! priced columns keeps the dense elimination and the full pricing pass:
//! their contiguous loops vectorise, where the listed ones gather and
//! scatter, so on dense rows they are the faster pair. The drive-out of
//! artificials after phase 1 eliminates densely too. Phase 2 neither
//! prices nor eliminates the artificial columns: no later step reads them.
//!
//! Correctness is enforced by the brute-force vertex-enumeration property
//! tests in `tests/proptest_simplex.rs`, and bit-identity of the pivot
//! sequence by `tests/kernel_golden.rs`. Under `strict-invariants` every
//! entering pick is compared with a branchy reference scan, every listed
//! elimination with a dense one and every re-price with a full pass.

use crate::problem::{Relation, Row};
use crate::solution::{Solution, SolveError, SolveStats};

/// Columns per block of the Dantzig entering scan.
const BLOCK: usize = 16;

/// Tunable solver options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Hard cap on total pivots (and bound flips) across both phases.
    pub max_pivots: usize,
    /// Numerical tolerance (non-negative) for reduced costs, ratios and
    /// feasibility.
    pub tolerance: f64,
    /// Number of Dantzig pivots before switching to Bland's rule.
    pub bland_after: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_pivots: 50_000,
            tolerance: 1e-9,
            bland_after: 2_000,
        }
    }
}

/// Dense bounded-simplex working state.
struct Tableau {
    /// m × width, row-major: the current `B⁻¹A`.
    data: Vec<f64>,
    /// Values of the basic variables (the current basic solution).
    xb: Vec<f64>,
    m: usize,
    width: usize,
    basis: Vec<usize>,
    /// Per column: −1 when nonbasic at 0, +1 when nonbasic at its upper
    /// bound, NaN when basic (see the module docs). `pivot` and
    /// `drop_row` keep it in step with `basis`.
    sense: Vec<f64>,
    /// Upper bound per column (`f64::INFINITY` if unbounded).
    upper: Vec<f64>,
    /// The entering column, copied by [`Tableau::gather`] before each
    /// pivot. Always `m` long.
    column: Vec<f64>,
    /// The scaled pivot row: the listed entries in list order, or the
    /// priced columns. Always `width` long.
    scratch: Vec<f64>,
    /// Reduced costs of the current basis, written by [`Tableau::price`]
    /// and [`Tableau::reprice`]. Always `width` long.
    reduced: Vec<f64>,
    /// The columns [`Tableau::pivot`] eliminates and [`Tableau::reprice`]
    /// prices, ascending, in its first entries (see
    /// [`Tableau::changed_columns`]). Always `width` long.
    changed: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.width + c]
    }

    fn is_basic(&self, col: usize) -> bool {
        self.sense[col].is_nan()
    }

    /// Is nonbasic column `col` resting at its upper bound?
    fn at_upper(&self, col: usize) -> bool {
        self.sense[col] > 0.0
    }

    /// Copies column `col` of the tableau into `column`.
    fn gather(&mut self, col: usize) {
        let rows = self.data.chunks_exact(self.width);
        for (d, row) in self.column.iter_mut().zip(rows) {
            *d = row[col];
        }
    }

    /// Pivot on (`row`, `col`) over the priced columns `0..columns`, with
    /// `column` holding the gathered column `col`: scale the pivot row and
    /// eliminate `col` from every other row. `Some(n)` from
    /// [`Tableau::changed_columns`] restricts both to the `n` listed
    /// columns. The leaving column rests at its upper bound if
    /// `leaves_at_upper`, else at 0. `xb` is NOT touched here — callers
    /// update it first.
    fn pivot(
        &mut self,
        row: usize,
        col: usize,
        columns: usize,
        listed: Option<usize>,
        leaves_at_upper: bool,
    ) {
        let (data, w) = (&mut self.data, self.width);
        match listed {
            Some(n) => eliminate_listed(
                data,
                w,
                &self.changed[..n],
                row,
                &self.column,
                &mut self.scratch,
            ),
            None => eliminate(data, w, columns, row, &self.column, &mut self.scratch),
        }
        self.sense[self.basis[row]] = if leaves_at_upper { 1.0 } else { -1.0 };
        self.sense[col] = f64::NAN;
        self.basis[row] = col;
    }

    /// Remove constraint row `row` (redundant after phase 1).
    fn drop_row(&mut self, row: usize) {
        let w = self.width;
        self.data.drain(row * w..(row + 1) * w);
        self.xb.remove(row);
        self.sense[self.basis.remove(row)] = -1.0;
        self.column.pop();
        self.m -= 1;
    }

    /// Writes the reduced costs `cost_j − Σ_i c_B(i)·a_ij` of columns
    /// `0..columns` into `reduced`, in one pass over the tableau's rows in
    /// ascending order. Rows whose basic cost is zero contribute nothing
    /// and are skipped, so each `reduced[j]` is the same floating-point sum
    /// as a column-by-column evaluation.
    fn price(&mut self, cost: &[f64], columns: usize) {
        let reduced = &mut self.reduced[..columns];
        reduced.copy_from_slice(&cost[..columns]);
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = cost[b];
            // verify: allow(float-eq): exact-zero skip — zero basic cost contributes nothing
            if cb != 0.0 {
                let row = &self.data[i * self.width..i * self.width + columns];
                for (rc, &a) in reduced.iter_mut().zip(row) {
                    *rc -= cb * a;
                }
            }
        }
    }

    /// Lists the priced columns (`0..columns`) where row `row` is nonzero
    /// at the front of `changed` and returns how many there are, or `None`
    /// when there are more than a quarter of `columns`: the dense
    /// elimination and a full [`Tableau::price`] pass are then faster.
    /// Called on the pivot row before [`Tableau::pivot`] scales it.
    fn changed_columns(&mut self, row: usize, columns: usize) -> Option<usize> {
        let row = &self.data[row * self.width..row * self.width + columns];
        let n = list_nonzeros(row, &mut self.changed);
        (4 * n <= columns).then_some(n)
    }

    /// Re-prices the `n` columns [`Tableau::changed_columns`] listed
    /// before the last pivot. Each is the same floating-point sum, over the
    /// same rows in the same order, as in [`Tableau::price`]; every other
    /// reduced cost already equals the full pass's up to the sign of a
    /// zero (see the module docs).
    fn reprice(&mut self, cost: &[f64], n: usize) {
        let changed = &self.changed[..n];
        for &j in changed {
            self.reduced[j] = cost[j];
        }
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = cost[b];
            // verify: allow(float-eq): exact-zero skip — zero basic cost contributes nothing
            if cb != 0.0 {
                let row = &self.data[i * self.width..(i + 1) * self.width];
                for &j in changed {
                    self.reduced[j] -= cb * row[j];
                }
            }
        }
    }

    /// `strict-invariants`: the reduced costs of columns `0..columns` must
    /// equal a full [`Tableau::price`] pass up to the sign of a zero.
    #[cfg(feature = "strict-invariants")]
    fn check_priced(&mut self, cost: &[f64], columns: usize) -> Result<(), SolveError> {
        let kept = self.reduced.clone();
        self.price(cost, columns);
        let full = std::mem::replace(&mut self.reduced, kept);
        for (j, (&kept, &full)) in self.reduced.iter().zip(&full).take(columns).enumerate() {
            // verify: allow(float-eq): the re-price must reproduce the full pass exactly, up to the sign of a zero
            if kept != full {
                return Err(SolveError::InvariantViolation(format!(
                    "reduced cost of column {j} is {kept:e} after the re-price but {full:e} in a full pass"
                )));
            }
        }
        Ok(())
    }

    /// `strict-invariants`: a copy of the tableau before a listed
    /// elimination (`listed` is `Some`), for [`Tableau::check_eliminated`].
    #[cfg(feature = "strict-invariants")]
    fn copy_before(&self, listed: Option<usize>) -> Option<Vec<f64>> {
        listed.map(|_| self.data.clone())
    }

    /// `strict-invariants`: after a listed elimination on pivot row `row`,
    /// the priced columns `0..columns` of the tableau must equal a dense
    /// [`eliminate`] of `before`, the tableau before the pivot, up to the
    /// sign of a zero.
    #[cfg(feature = "strict-invariants")]
    fn check_eliminated(
        &self,
        before: Option<Vec<f64>>,
        row: usize,
        columns: usize,
    ) -> Result<(), SolveError> {
        let Some(mut before) = before else {
            return Ok(());
        };
        let w = self.width;
        let mut scratch = vec![0.0; w];
        eliminate(&mut before, w, columns, row, &self.column, &mut scratch);
        let rows = self.data.chunks_exact(w).zip(before.chunks_exact(w));
        for (r, (listed, dense)) in rows.enumerate() {
            for (j, (&a, &b)) in listed.iter().zip(dense).take(columns).enumerate() {
                // verify: allow(float-eq): the listed elimination must reproduce the dense one exactly, up to the sign of a zero
                if a != b && !(a.is_nan() && b.is_nan()) {
                    return Err(SolveError::InvariantViolation(format!(
                        "tableau entry ({r}, {j}) is {a:e} after the listed elimination but {b:e} after a dense one"
                    )));
                }
            }
        }
        Ok(())
    }

    /// `strict-invariants` sanity sweep over the basis and bound-flip
    /// bookkeeping: every basis column distinct and in range, `sense` NaN
    /// exactly at the basis columns and ±1 elsewhere, every basic value
    /// within `[0, upper]` (up to `tol`), and no nonbasic column resting
    /// at a non-finite upper bound.
    #[cfg(feature = "strict-invariants")]
    fn check_invariants(&self, tol: f64) -> Result<(), SolveError> {
        let mut seen = vec![false; self.width];
        for (i, &b) in self.basis.iter().enumerate() {
            if b >= self.width {
                return Err(SolveError::InvariantViolation(format!(
                    "basis[{i}] = {b} out of range (width {})",
                    self.width
                )));
            }
            if seen[b] {
                return Err(SolveError::InvariantViolation(format!(
                    "column {b} appears twice in the basis"
                )));
            }
            seen[b] = true;
            let v = self.xb[i];
            if !v.is_finite() || v < -tol || v > self.upper[b] + tol {
                return Err(SolveError::InvariantViolation(format!(
                    "basic variable {b} = {v} outside [0, {}]",
                    self.upper[b]
                )));
            }
        }
        for (j, (&basic, &sense)) in seen.iter().zip(&self.sense).enumerate() {
            // verify: allow(float-eq): a nonbasic column's sense is exactly −1 or +1
            if basic != sense.is_nan() || (!basic && sense.abs() != 1.0) {
                return Err(SolveError::InvariantViolation(format!(
                    "sense[{j}] = {sense} disagrees with the basis"
                )));
            }
            if sense > 0.0 && !self.upper[j].is_finite() {
                return Err(SolveError::InvariantViolation(format!(
                    "nonbasic column {j} rests at a non-finite upper bound"
                )));
            }
        }
        Ok(())
    }
}

/// Dantzig's rule: the first column with the largest score
/// `sense[j] · reduced[j]` above `tol` (see the module docs). The scan
/// walks a block of [`BLOCK`] columns only when one of its scores beats
/// the best so far. That test is exact, since a NaN compares false, and
/// it vectorises.
fn dantzig_entering(reduced: &[f64], sense: &[f64], tol: f64) -> Option<usize> {
    /// Takes each score of the block at `base` that beats `best`.
    fn walk(
        best: &mut f64,
        entering: &mut Option<usize>,
        base: usize,
        reduced: &[f64],
        sense: &[f64],
    ) {
        for (k, (&rc, &s)) in reduced.iter().zip(sense).enumerate() {
            let score = s * rc;
            if score > *best {
                *best = score;
                *entering = Some(base + k);
            }
        }
    }
    debug_assert_eq!(reduced.len(), sense.len());
    let (reduced_blocks, reduced_tail) = reduced.as_chunks::<BLOCK>();
    let (sense_blocks, sense_tail) = sense.as_chunks::<BLOCK>();
    let mut best = tol;
    let mut entering = None;
    for (b, (rb, sb)) in reduced_blocks.iter().zip(sense_blocks).enumerate() {
        let beats = rb
            .iter()
            .zip(sb)
            .fold(false, |any, (&rc, &s)| any | (s * rc > best));
        if beats {
            walk(&mut best, &mut entering, b * BLOCK, rb, sb);
        }
    }
    let base = reduced_blocks.len() * BLOCK;
    walk(&mut best, &mut entering, base, reduced_tail, sense_tail);
    entering
}

/// Bland's rule: the first column whose score `sense[j] · reduced[j]`
/// exceeds `tol`.
fn bland_entering(reduced: &[f64], sense: &[f64], tol: f64) -> Option<usize> {
    reduced.iter().zip(sense).position(|(&rc, &s)| s * rc > tol)
}

/// The entering rule as a branchy scan over each column's basis
/// membership and resting bound: the oracle of [`dantzig_entering`] and
/// [`bland_entering`].
#[cfg(any(test, feature = "strict-invariants"))]
fn reference_entering(reduced: &[f64], sense: &[f64], tol: f64, bland: bool) -> Option<usize> {
    let mut entering = None;
    let mut best = tol;
    for (j, (&rc, &s)) in reduced.iter().zip(sense).enumerate() {
        if s.is_nan() {
            continue; // basic
        }
        // From the lower bound, increasing x_j helps iff rc < 0;
        // from the upper bound, decreasing x_j helps iff rc > 0.
        let improves = if s > 0.0 { rc > tol } else { rc < -tol };
        if improves {
            if bland {
                return Some(j);
            } else if rc.abs() > best {
                best = rc.abs();
                entering = Some(j);
            }
        }
    }
    entering
}

/// `strict-invariants`: the entering scan must pick the reference scan's
/// column.
#[cfg(feature = "strict-invariants")]
fn check_entering(
    entering: Option<usize>,
    reduced: &[f64],
    sense: &[f64],
    tol: f64,
    bland: bool,
) -> Result<(), SolveError> {
    let reference = reference_entering(reduced, sense, tol, bland);
    if entering == reference {
        Ok(())
    } else {
        Err(SolveError::InvariantViolation(format!(
            "the entering scan picked column {entering:?} but the reference scan {reference:?}"
        )))
    }
}

/// Writes the indices of `row`'s nonzero entries, ascending, to the front
/// of `out` and returns how many there are.
fn list_nonzeros(row: &[f64], out: &mut [usize]) -> usize {
    // Branch-free compaction: every index is stored, and the cursor moves
    // past the nonzero ones.
    let mut n = 0;
    for (j, &a) in row.iter().enumerate() {
        out[n] = j;
        // verify: allow(float-eq): exact-zero test — a column whose pivot-row entry is ±0 is neither eliminated nor re-priced
        n += usize::from(a != 0.0);
    }
    n
}

/// Scales row `row` of the `width`-wide tableau `data` by `1 / column[row]`
/// over the columns `0..columns`, then subtracts `column[r]` times it from
/// every other row `r` there, skipping rows whose factor is zero.
/// `column` holds the entering column as it was before the pivot, and
/// `scratch` receives the scaled row.
fn eliminate(
    data: &mut [f64],
    width: usize,
    columns: usize,
    row: usize,
    column: &[f64],
    scratch: &mut [f64],
) {
    let inv = 1.0 / column[row];
    let pivot_row = &mut data[row * width..row * width + columns];
    for v in pivot_row.iter_mut() {
        *v *= inv;
    }
    let scratch = &mut scratch[..columns];
    scratch.copy_from_slice(pivot_row);
    for (r, (tableau_row, &factor)) in data.chunks_exact_mut(width).zip(column).enumerate() {
        // verify: allow(float-eq): exact-zero skip — elimination with a zero factor is a no-op
        if r == row || factor == 0.0 {
            continue;
        }
        for (v, &pv) in tableau_row[..columns].iter_mut().zip(&*scratch) {
            *v -= factor * pv;
        }
    }
}

/// [`eliminate`] over only the columns in `listed`, those where the pivot
/// row is nonzero before scaling. Elsewhere the scaled pivot row is ±0,
/// where the dense update `v − f·(±0)` returns `v` except that it can turn
/// a −0 into +0. `scratch` receives the scaled entries in list order.
fn eliminate_listed(
    data: &mut [f64],
    width: usize,
    listed: &[usize],
    row: usize,
    column: &[f64],
    scratch: &mut [f64],
) {
    let inv = 1.0 / column[row];
    let pivot_row = &mut data[row * width..(row + 1) * width];
    let scratch = &mut scratch[..listed.len()];
    for (pv, &j) in scratch.iter_mut().zip(listed) {
        pivot_row[j] *= inv;
        *pv = pivot_row[j];
    }
    for (r, (tableau_row, &factor)) in data.chunks_exact_mut(width).zip(column).enumerate() {
        // verify: allow(float-eq): exact-zero skip — elimination with a zero factor is a no-op
        if r == row || factor == 0.0 {
            continue;
        }
        for (&j, &pv) in listed.iter().zip(&*scratch) {
            tableau_row[j] -= factor * pv;
        }
    }
}

/// Running pivot counters shared across both phases; the Dantzig→Bland
/// switch and the `max_pivots` cap are driven by the combined total.
#[derive(Debug, Clone, Copy, Default)]
struct PivotCounters {
    /// Basis-changing pivots (both phases, incl. artificial drive-out).
    pivots: usize,
    /// Pivots whose ratio-test step was ~0.
    degenerate: usize,
    /// Nonbasic bound flips (no basis change).
    flips: usize,
}

impl PivotCounters {
    fn total(&self) -> usize {
        self.pivots + self.flips
    }
}

/// One phase of the bounded simplex: minimize `cost` over the current
/// tableau, entering only columns `0..columns`.
fn run_phase(
    t: &mut Tableau,
    cost: &[f64],
    columns: usize,
    opts: SimplexOptions,
    counters: &mut PivotCounters,
) -> Result<(), SolveError> {
    let tol = opts.tolerance;
    // Re-priced after every pivot; a bound flip changes neither the basis
    // nor the tableau, so the reduced costs carry over.
    t.price(cost, columns);
    loop {
        if counters.total() >= opts.max_pivots {
            return Err(SolveError::IterationLimit {
                limit: opts.max_pivots,
            });
        }
        let use_bland = counters.total() >= opts.bland_after;

        // Entering column: the best (Dantzig) or first (Bland) improving
        // score.
        let (reduced, sense) = (&t.reduced[..columns], &t.sense[..columns]);
        let entering = if use_bland {
            bland_entering(reduced, sense, tol)
        } else {
            dantzig_entering(reduced, sense, tol)
        };
        #[cfg(feature = "strict-invariants")]
        check_entering(entering, reduced, sense, tol, use_bland)?;
        let Some(col) = entering else {
            #[cfg(feature = "strict-invariants")]
            t.check_invariants(opts.tolerance.max(1e-6))?;
            return Ok(()); // phase optimal
        };
        // The direction of x_col: up from 0, down from its upper bound.
        let s = -t.sense[col];
        t.gather(col);

        // Ratio test: largest step `t*` keeping every basic variable within
        // its bounds, capped by the entering variable's own bound span.
        // x_B(t*) = xb − s·t*·d with d the tableau column.
        let mut limit = t.upper[col]; // a bound flip consumes the full span
        let mut blocking: Option<(usize, bool)> = None; // (row, leaves_at_upper)
        for (i, &d) in t.column.iter().enumerate() {
            let sd = s * d;
            if sd > tol {
                // Basic variable decreases toward 0.
                let step = t.xb[i] / sd;
                if step < limit - tol || (step < limit + tol && better_tie(t, &blocking, i)) {
                    if step < limit - tol {
                        limit = step;
                        blocking = Some((i, false));
                    } else if blocking.is_some() {
                        blocking = Some((i, false));
                    }
                }
            } else if sd < -tol {
                // Basic variable increases toward its upper bound.
                let ub = t.upper[t.basis[i]];
                if ub.is_finite() {
                    let step = (ub - t.xb[i]) / (-sd);
                    if step < limit - tol || (step < limit + tol && better_tie(t, &blocking, i)) {
                        if step < limit - tol {
                            limit = step;
                            blocking = Some((i, true));
                        } else if blocking.is_some() {
                            blocking = Some((i, true));
                        }
                    }
                }
            }
        }
        if limit.is_infinite() {
            return Err(SolveError::Unbounded);
        }
        let step = limit.max(0.0);

        // Apply the move to the basic solution.
        for (xb, &d) in t.xb.iter_mut().zip(&t.column) {
            *xb -= s * step * d;
            // Numerical hygiene: clamp tiny negatives.
            if *xb < 0.0 && *xb > -1e-9 {
                *xb = 0.0;
            }
        }

        match blocking {
            None => {
                // Bound flip: the entering variable traverses its whole
                // span and rests at the opposite bound. No basis change.
                t.sense[col] = -t.sense[col];
                counters.flips += 1;
            }
            Some((row, leaves_at_upper)) => {
                // The entering variable becomes basic with value:
                let entering_value = if t.at_upper(col) {
                    t.upper[col] - step
                } else {
                    step
                };
                let changed = t.changed_columns(row, columns);
                #[cfg(feature = "strict-invariants")]
                let before = t.copy_before(changed);
                t.pivot(row, col, columns, changed, leaves_at_upper);
                #[cfg(feature = "strict-invariants")]
                t.check_eliminated(before, row, columns)?;
                t.xb[row] = entering_value;
                match changed {
                    Some(n) => t.reprice(cost, n),
                    None => t.price(cost, columns),
                }
                #[cfg(feature = "strict-invariants")]
                t.check_priced(cost, columns)?;
                counters.pivots += 1;
                if step <= tol {
                    counters.degenerate += 1;
                }
            }
        }
    }
}

/// Bland-compatible tie-break: prefer the smaller basis index.
fn better_tie(t: &Tableau, current: &Option<(usize, bool)>, candidate: usize) -> bool {
    match current {
        None => true,
        Some((row, _)) => t.basis[candidate] < t.basis[*row],
    }
}

/// Solves `min objective · x` s.t. the rows, `0 ≤ x ≤ upper` with the
/// two-phase upper-bounded primal simplex. Low-level entry point; prefer
/// [`LpProblem`](crate::LpProblem).
pub(crate) fn simplex(
    num_vars: usize,
    objective: &[f64],
    rows: &[Row],
    upper_bounds: &[Option<f64>],
    opts: SimplexOptions,
) -> Result<Solution, SolveError> {
    debug_assert_eq!(upper_bounds.len(), num_vars);
    // The entering score equals the `|reduced|` comparison only then.
    debug_assert!(opts.tolerance >= 0.0, "tolerance must be non-negative");
    // verify: allow(determinism): wall-clock feeds SolveStats telemetry only, never a pivot choice
    let started = std::time::Instant::now();
    let m = rows.len();

    // Column layout: [structural | slack/surplus | artificial].
    let mut num_slack = 0;
    let mut num_art = 0;
    for row in rows {
        match effective_relation(row) {
            Relation::Le => num_slack += 1,
            Relation::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Relation::Eq => num_art += 1,
        }
    }
    let width = num_vars + num_slack + num_art;
    let mut data = vec![0.0; m * width];
    let mut xb = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    let mut sense = vec![-1.0; width];
    let mut upper = vec![f64::INFINITY; width];
    for (j, ub) in upper_bounds.iter().enumerate() {
        if let Some(u) = ub {
            upper[j] = *u;
        }
    }

    let mut slack_idx = num_vars;
    let mut art_idx = num_vars + num_slack;
    let art_start = art_idx;
    for (i, row) in rows.iter().enumerate() {
        let flip = row.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for &(var, c) in &row.coeffs {
            data[i * width + var] += sign * c;
        }
        xb[i] = sign * row.rhs;
        match effective_relation(row) {
            Relation::Le => {
                data[i * width + slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                data[i * width + slack_idx] = -1.0;
                slack_idx += 1;
                data[i * width + art_idx] = 1.0;
                basis[i] = art_idx;
                art_idx += 1;
            }
            Relation::Eq => {
                data[i * width + art_idx] = 1.0;
                basis[i] = art_idx;
                art_idx += 1;
            }
        }
    }
    let art_range = art_start..width;
    for &b in &basis {
        sense[b] = f64::NAN;
    }

    let mut t = Tableau {
        data,
        xb,
        m,
        width,
        basis,
        sense,
        upper,
        column: vec![0.0; m],
        scratch: vec![0.0; width],
        reduced: vec![0.0; width],
        changed: vec![0; width],
    };
    let mut counters = PivotCounters::default();

    // Phase 1.
    if num_art > 0 {
        let mut phase1 = vec![0.0; width];
        phase1[art_start..width].fill(1.0);
        run_phase(&mut t, &phase1, width, opts, &mut counters)?;
        let infeas: f64 = (0..t.m)
            .filter(|&i| art_range.contains(&t.basis[i]))
            .map(|i| t.xb[i])
            .sum();
        if infeas > opts.tolerance.max(1e-7) {
            return Err(SolveError::Infeasible);
        }
        // Drive zero-level artificials out of the basis.
        let mut i = 0;
        while i < t.m {
            if art_range.contains(&t.basis[i]) {
                let mut pivoted = false;
                for j in 0..art_start {
                    if t.at(i, j).abs() > opts.tolerance.max(1e-8) && !t.is_basic(j) {
                        // The artificial leaves at level ~0, so the step is
                        // ~0 and column `j` enters where it rests: at its
                        // upper bound, or at the artificial's ~0 level.
                        let value = if t.at_upper(j) { t.upper[j] } else { t.xb[i] };
                        t.gather(j);
                        t.pivot(i, j, width, None, false);
                        t.xb[i] = value;
                        counters.pivots += 1;
                        counters.degenerate += 1;
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    t.drop_row(i);
                    continue;
                }
            }
            i += 1;
        }
        #[cfg(feature = "strict-invariants")]
        t.check_invariants(opts.tolerance.max(1e-6))?;
    }

    let phase1_pivots = counters.pivots;

    // Phase 2: artificial columns are frozen out.
    let mut phase2 = vec![0.0; width];
    phase2[..num_vars].copy_from_slice(objective);
    run_phase(&mut t, &phase2, art_start, opts, &mut counters)?;

    // Extract the solution: basic value, or resting bound.
    let mut x = vec![0.0; num_vars];
    for (j, xj) in x.iter_mut().enumerate() {
        if t.at_upper(j) {
            *xj = t.upper[j];
        }
    }
    for i in 0..t.m {
        let b = t.basis[i];
        if b < num_vars {
            x[b] = t.xb[i].max(0.0);
        }
    }
    let objective_value = crate::linalg::dot(objective, &x);
    let stats = SolveStats {
        pivots_phase1: phase1_pivots,
        pivots_phase2: counters.pivots - phase1_pivots,
        degenerate_pivots: counters.degenerate,
        bound_flips: counters.flips,
        wall_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    };
    Ok(Solution::new(x, objective_value, stats))
}

/// Relation after normalizing the row to a non-negative rhs.
fn effective_relation(row: &Row) -> Relation {
    if row.rhs < 0.0 {
        match row.relation {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    } else {
        row.relation
    }
}

#[cfg(test)]
mod tests {
    use super::{
        bland_entering, dantzig_entering, eliminate, eliminate_listed, list_nonzeros,
        reference_entering, BLOCK,
    };
    use crate::{LpProblem, Relation, SimplexOptions, SolveError};
    use proptest::prelude::*;

    /// A reduced cost drawn to be rich in ties: signed zeros, the default
    /// tolerance itself, repeated magnitudes of either sign, infinities
    /// and NaN, besides arbitrary values.
    fn reduced_cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1e-9),
            Just(-1e-9),
            Just(1.0),
            Just(-1.0),
            Just(2.5),
            Just(-2.5),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            -4.0..4.0f64,
        ]
    }

    /// A tableau entry: zero (of either sign) two times in three.
    fn entry() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(0.0),
            Just(-0.0),
            Just(-0.0),
            Just(1.0),
            -3.0..3.0f64,
        ]
    }

    proptest! {
        #[test]
        fn blocked_scan_picks_the_reference_column(
            reduced in collection::vec(reduced_cost(), 0..100),
            sense in collection::vec(prop_oneof![Just(-1.0), Just(1.0), Just(f64::NAN)], 100),
            basic_blocks in collection::vec(0..4u8, 7),
            tol in prop_oneof![Just(0.0), Just(1e-9), Just(1.0)],
        ) {
            // About one block in four is all basic.
            let mut sense = sense[..reduced.len()].to_vec();
            for (block, &draw) in sense.chunks_mut(BLOCK).zip(&basic_blocks) {
                if draw == 0 {
                    block.fill(f64::NAN);
                }
            }
            prop_assert_eq!(
                dantzig_entering(&reduced, &sense, tol),
                reference_entering(&reduced, &sense, tol, false)
            );
            prop_assert_eq!(
                bland_entering(&reduced, &sense, tol),
                reference_entering(&reduced, &sense, tol, true)
            );
        }

        #[test]
        fn listed_elimination_matches_the_dense_one(
            (m, width) in (1..8usize, 1..48usize),
            entries in collection::vec(entry(), 8 * 48),
            (row, col, columns) in (any::<usize>(), any::<usize>(), any::<usize>()),
            pivot in prop_oneof![Just(1.0), Just(-0.5), 0.25..4.0f64],
        ) {
            let mut data = entries[..m * width].to_vec();
            let columns = 1 + columns % width;
            let (row, col) = (row % m, col % columns);
            data[row * width + col] = pivot;
            let column: Vec<f64> = data.chunks_exact(width).map(|r| r[col]).collect();
            let mut listed = vec![0; width];
            let n = list_nonzeros(&data[row * width..row * width + columns], &mut listed);
            let mut scratch = vec![0.0; width];
            let mut dense = data.clone();
            eliminate(&mut dense, width, columns, row, &column, &mut scratch);
            let mut sparse = data.clone();
            eliminate_listed(&mut sparse, width, &listed[..n], row, &column, &mut scratch);
            for (k, ((&s, &d), &before)) in sparse.iter().zip(&dense).zip(&data).enumerate() {
                let (r, j) = (k / width, k % width);
                if j < columns {
                    // Equal up to the sign of a zero.
                    prop_assert!(s == d, "({}, {}): listed {:e}, dense {:e}", r, j, s, d);
                } else {
                    prop_assert_eq!(s.to_bits(), before.to_bits(), "({}, {}) is not priced", r, j);
                }
            }
        }
    }

    #[test]
    fn bound_flip_path() {
        // max x0 + x1 s.t. x0 + x1 <= 1.5, x <= 1 each: optimum 1.5 with one
        // variable at its upper bound (exercises the flip logic).
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, -1.0);
        p.set_objective(1, -1.0);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 1.5);
        let sol = p.solve().unwrap();
        assert!((sol.objective() + 1.5).abs() < 1e-9, "{}", sol.objective());
        assert!(p.is_feasible(sol.x(), 1e-9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tolerance must be non-negative")]
    fn negative_tolerance_is_rejected() {
        let mut p = LpProblem::minimize(1);
        p.set_objective(0, -1.0);
        p.set_upper_bound(0, 1.0);
        p.set_options(SimplexOptions {
            tolerance: -1e-9,
            ..SimplexOptions::default()
        });
        let _ = p.solve();
    }

    #[test]
    fn all_variables_at_upper() {
        // min −Σx with x ≤ u and no rows: pure bound flips.
        let mut p = LpProblem::minimize(3);
        for j in 0..3 {
            p.set_objective(j, -1.0);
            p.set_upper_bound(j, (j + 1) as f64);
        }
        let sol = p.solve().unwrap();
        assert_eq!(sol.x(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(&[(0, 2.0), (1, 2.0)], Relation::Eq, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective() - 0.0).abs() < 1e-9);
        assert!(p.is_feasible(sol.x(), 1e-9));
    }

    #[test]
    fn transportation_problem() {
        let cost = [8.0, 6.0, 10.0, 9.0, 12.0, 13.0];
        let mut p = LpProblem::minimize(6);
        for (i, &c) in cost.iter().enumerate() {
            p.set_objective(i, c);
        }
        p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 20.0);
        p.add_constraint(&[(3, 1.0), (4, 1.0), (5, 1.0)], Relation::Le, 30.0);
        p.add_constraint(&[(0, 1.0), (3, 1.0)], Relation::Eq, 10.0);
        p.add_constraint(&[(1, 1.0), (4, 1.0)], Relation::Eq, 25.0);
        p.add_constraint(&[(2, 1.0), (5, 1.0)], Relation::Eq, 15.0);
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(sol.x(), 1e-8));
        assert!(
            (sol.objective() - 465.0).abs() < 1e-7,
            "{}",
            sol.objective()
        );
    }

    #[test]
    fn infeasible_equality_system() {
        let mut p = LpProblem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn infeasible_because_of_bounds() {
        let mut p = LpProblem::minimize(1);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        p.set_upper_bound(0, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn large_random_diet_style_problem_is_feasible_and_optimal_vs_bounds() {
        let n = 30;
        let m = 12;
        let mut seed = 7u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        let mut p = LpProblem::minimize(n);
        let costs: Vec<f64> = (0..n).map(|_| 0.5 + next()).collect();
        for (j, &c) in costs.iter().enumerate() {
            p.set_objective(j, c);
        }
        for _ in 0..m {
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, 0.1 + next())).collect();
            p.add_constraint(&coeffs, Relation::Ge, 5.0 + 5.0 * next());
        }
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(sol.x(), 1e-7));
        let naive = vec![100.0 / n as f64; n];
        assert!(sol.objective() <= crate::linalg::dot(&costs, &naive) + 1e-7);
    }

    #[test]
    fn boxed_equality_combination() {
        // min x0 + 3x1 s.t. x0 + x1 = 4, x0 ≤ 2.5 → x0 = 2.5, x1 = 1.5.
        let mut p = LpProblem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 3.0);
        p.set_upper_bound(0, 2.5);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.x()[0] - 2.5).abs() < 1e-9, "{:?}", sol.x());
        assert!((sol.x()[1] - 1.5).abs() < 1e-9);
    }
}
