//! Bit-identity oracle for the simplex kernel.
//!
//! Each line of `fixtures/kernel_golden.txt` digests one seeded LP: its
//! family and seed, then either the error or `ok` with the solve's
//! `SolveStats` counters, the bits of the objective, an FNV-1a hash of the
//! bits of `x`, and whether `x` passes `LpProblem::is_feasible(x, 1e-7)`.
//! The families reach every path of the kernel:
//!
//! * `mixed` — `≤`/`=`/`≥` rows with negative right-hand sides, half of
//!   them tight at a box corner, over boxed and unbounded columns: bound
//!   flips, infeasible and unbounded verdicts, and artificials driven out
//!   of the basis after phase 1;
//! * `covering` — dense covering LPs shaped like the `lp` bench's,
//!   degenerate and bound-heavy;
//! * `assignment` — `n × n` assignment polytopes, whose row and column
//!   sums make one equality redundant, so a row is dropped after phase 1;
//! * `transport` — transportation LPs with capacitated arcs;
//! * `backlog` — the MPC horizon LP's shape: boxed service `x` and busy
//!   servers `b`, and a chain of backlog equalities over the horizon.
//!
//! Their LPs take at most a few hundred pivots, far below the default
//! `bland_after`, so two more families re-solve them under Bland's rule:
//! `<family>/bland0` every LP from its first pivot, and
//! `<family>/bland10` every LP but the `mixed` ones (few of which take
//! more than 10 pivots and flips) with a switch after the tenth. These
//! lines were appended later, recorded from the kernel whose entering
//! scan still tested `in_basis` and `at_upper` column by column.
//!
//! The fixture was recorded from the kernel that priced one column at a
//! time, before the row-major pricing pass replaced it, and a kernel
//! change must reproduce it line for line. The only lines allowed to
//! differ are the ones in [`DRIVE_OUT_FIX`], where the artificial
//! drive-out once stored ~0 for a column resting at its upper bound.
//! Either the recorded `x` was infeasible and the solve now returns a
//! feasible one, or phase 2 had repaired the point and the solve now
//! returns the same `x` and objective in fewer pivots.
//!
//! Every run writes the digest it computed to
//! `$CARGO_TARGET_TMPDIR/kernel_golden.txt`, so re-recording (a declared
//! change to the kernel's arithmetic) is a copy of that file.

use grefar_lp::{LpProblem, Relation, SimplexOptions, SolveError};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/kernel_golden.txt");

/// `family seed` of every line the drive-out fix changed.
const DRIVE_OUT_FIX: &[&str] = &[
    "mixed 21",
    "mixed 22",
    "mixed 45",
    "mixed 80",
    "mixed 122",
    "mixed 154",
    "mixed 176",
    "mixed 178",
    "mixed 233",
    "mixed 247",
    "mixed 257",
    "mixed 258",
    "mixed 281",
];

/// splitmix64, seeded per family and LP so that adding a family or
/// changing a count leaves the other lines alone.
struct Rng(u64);

impl Rng {
    fn new(family: &str, seed: u64) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for b in family.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(state ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.range(0.0, 1.0) < p
    }
}

fn mixed(rng: &mut Rng) -> LpProblem {
    let n = 2 + rng.below(7);
    let m = 1 + rng.below(6);
    let mut p = LpProblem::minimize(n);
    let mut corner = vec![0.0; n];
    for (j, at) in corner.iter_mut().enumerate() {
        p.set_objective(j, rng.range(-3.0, 3.0));
        if rng.chance(0.8) {
            let upper = rng.range(0.5, 4.0);
            p.set_upper_bound(j, upper);
            if rng.chance(0.5) {
                *at = upper;
            }
        }
    }
    for _ in 0..m {
        let mut coeffs = Vec::new();
        for j in 0..n {
            if rng.chance(0.7) {
                coeffs.push((j, rng.range(-2.0, 2.0)));
            }
        }
        let relation = [Relation::Le, Relation::Eq, Relation::Ge][rng.below(3)];
        let rhs = if rng.chance(0.5) {
            rng.range(-3.0, 5.0)
        } else {
            coeffs.iter().map(|&(j, c)| c * corner[j]).sum()
        };
        p.add_constraint(&coeffs, relation, rhs);
    }
    p
}

/// The `lp` bench's covering LP: min c·x s.t. A x ≥ b, 0 ≤ x ≤ 10.
fn covering(rng: &mut Rng, vars: usize, rows: usize) -> LpProblem {
    let mut p = LpProblem::minimize(vars);
    for j in 0..vars {
        p.set_objective(j, 0.5 + rng.range(0.0, 1.0));
        p.set_upper_bound(j, 10.0);
    }
    for _ in 0..rows {
        let coeffs: Vec<(usize, f64)> =
            (0..vars).map(|j| (j, 0.05 + rng.range(0.0, 1.0))).collect();
        p.add_constraint(&coeffs, Relation::Ge, rng.range(1.0, 8.0));
    }
    p
}

fn assignment(rng: &mut Rng) -> LpProblem {
    let n = 3 + rng.below(5);
    let var = |i: usize, j: usize| i * n + j;
    let mut p = LpProblem::minimize(n * n);
    for v in 0..n * n {
        // Quarter-unit costs tie often, so the optimum is degenerate.
        p.set_objective(v, (4.0 * rng.range(0.0, 10.0)).round() / 4.0);
        p.set_upper_bound(v, 1.0);
    }
    for i in 0..n {
        let row: Vec<(usize, f64)> = (0..n).map(|j| (var(i, j), 1.0)).collect();
        p.add_constraint(&row, Relation::Eq, 1.0);
        let col: Vec<(usize, f64)> = (0..n).map(|j| (var(j, i), 1.0)).collect();
        p.add_constraint(&col, Relation::Eq, 1.0);
    }
    p
}

fn transport(rng: &mut Rng) -> LpProblem {
    let sources = 2 + rng.below(3);
    let sinks = 2 + rng.below(4);
    let supply: Vec<f64> = (0..sources).map(|_| rng.range(5.0, 20.0)).collect();
    let total: f64 = supply.iter().sum();
    let weights: Vec<f64> = (0..sinks).map(|_| rng.range(1.0, 3.0)).collect();
    let scale = 0.9 * total / weights.iter().sum::<f64>();
    let var = |s: usize, d: usize| s * sinks + d;
    let mut p = LpProblem::minimize(sources * sinks);
    for v in 0..sources * sinks {
        p.set_objective(v, rng.range(1.0, 10.0));
        if rng.chance(0.5) {
            p.set_upper_bound(v, rng.range(1.0, 8.0));
        }
    }
    for (s, &cap) in supply.iter().enumerate() {
        let row: Vec<(usize, f64)> = (0..sinks).map(|d| (var(s, d), 1.0)).collect();
        p.add_constraint(&row, Relation::Le, cap);
    }
    for (d, &w) in weights.iter().enumerate() {
        let col: Vec<(usize, f64)> = (0..sources).map(|s| (var(s, d), 1.0)).collect();
        p.add_constraint(&col, Relation::Eq, w * scale);
    }
    p
}

/// The MPC horizon LP's shape (see `grefar_sim::MpcScheduler`): service
/// `x[τ][i][j] ≤ h`, busy servers `b[τ][i][k] ≤ n`, backlog `B[τ][j]`
/// chained by equalities, energy plus holding cost plus a terminal value.
fn backlog(rng: &mut Rng) -> LpProblem {
    let horizon = 2 + rng.below(5);
    let dcs = 2 + rng.below(2);
    let jobs = 1 + rng.below(3);
    let classes = 1 + rng.below(2);
    let work: Vec<f64> = (0..jobs).map(|_| rng.range(0.5, 2.0)).collect();
    let speed: Vec<f64> = (0..classes).map(|_| rng.range(0.5, 1.5)).collect();
    let power: Vec<f64> = (0..classes).map(|_| rng.range(0.5, 1.5)).collect();
    let x_var = |tau: usize, i: usize, j: usize| (tau * dcs + i) * jobs + j;
    let b_base = horizon * dcs * jobs;
    let b_var = |tau: usize, i: usize, k: usize| b_base + (tau * dcs + i) * classes + k;
    let q_base = b_base + horizon * dcs * classes;
    let q_var = |tau: usize, j: usize| q_base + tau * jobs + j;
    let mut p = LpProblem::minimize(q_base + horizon * jobs);
    for tau in 0..horizon {
        for i in 0..dcs {
            let price = rng.range(0.2, 1.0);
            for (k, &pw) in power.iter().enumerate() {
                p.set_objective(b_var(tau, i, k), price * pw);
                p.set_upper_bound(b_var(tau, i, k), rng.range(0.0, 20.0));
            }
            let mut coeffs = Vec::new();
            for (j, &d) in work.iter().enumerate() {
                let eligible = rng.chance(0.8);
                p.set_upper_bound(x_var(tau, i, j), if eligible { 8.0 } else { 0.0 });
                coeffs.push((x_var(tau, i, j), d));
            }
            for (k, &s) in speed.iter().enumerate() {
                coeffs.push((b_var(tau, i, k), -s));
            }
            p.add_constraint(&coeffs, Relation::Le, 0.0);
        }
        for (j, &d) in work.iter().enumerate() {
            let terminal = if tau == horizon - 1 { 0.6 * d } else { 0.0 };
            p.set_objective(q_var(tau, j), 0.02 * d + terminal);
            let mut coeffs = vec![(q_var(tau, j), 1.0)];
            for i in 0..dcs {
                coeffs.push((x_var(tau, i, j), 1.0));
            }
            let rhs = if tau == 0 {
                rng.range(0.0, 30.0)
            } else {
                coeffs.push((q_var(tau - 1, j), -1.0));
                rng.range(0.0, 10.0)
            };
            p.add_constraint(&coeffs, Relation::Eq, rhs);
        }
    }
    p
}

fn fnv1a(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest_line(out: &mut String, family: &str, seed: u64, p: &LpProblem) {
    let result = match p.solve() {
        Ok(sol) => {
            let s = sol.stats();
            format!(
                "ok p1={} p2={} deg={} flips={} obj={:016x} x={:016x} feasible={}",
                s.pivots_phase1,
                s.pivots_phase2,
                s.degenerate_pivots,
                s.bound_flips,
                sol.objective().to_bits(),
                fnv1a(sol.x()),
                u8::from(p.is_feasible(sol.x(), 1e-7)),
            )
        }
        Err(SolveError::Infeasible) => "infeasible".into(),
        Err(SolveError::Unbounded) => "unbounded".into(),
        Err(e) => format!("error {e}"),
    };
    writeln!(out, "{family} {seed} {result}").expect("writing to a String");
}

/// Every seeded LP of the families above, in fixture order.
fn problems() -> Vec<(&'static str, u64, LpProblem)> {
    let mut all = Vec::new();
    for seed in 0..300 {
        all.push(("mixed", seed, mixed(&mut Rng::new("mixed", seed))));
    }
    for (seed, (vars, rows)) in [(20, 10), (60, 30), (150, 60)]
        .repeat(3)
        .into_iter()
        .enumerate()
    {
        let seed = seed as u64;
        let p = covering(&mut Rng::new("covering", seed), vars, rows);
        all.push(("covering", seed, p));
    }
    for seed in 0..40 {
        all.push((
            "assignment",
            seed,
            assignment(&mut Rng::new("assignment", seed)),
        ));
    }
    for seed in 0..40 {
        all.push((
            "transport",
            seed,
            transport(&mut Rng::new("transport", seed)),
        ));
    }
    for seed in 0..60 {
        all.push(("backlog", seed, backlog(&mut Rng::new("backlog", seed))));
    }
    all
}

fn digest() -> String {
    let mut out = String::new();
    let problems = problems();
    for (family, seed, p) in &problems {
        digest_line(&mut out, family, *seed, p);
    }
    for bland_after in [0, 10] {
        for (family, seed, p) in &problems {
            if bland_after > 0 && *family == "mixed" {
                continue;
            }
            let mut p = p.clone();
            p.set_options(SimplexOptions {
                bland_after,
                ..SimplexOptions::default()
            });
            digest_line(&mut out, &format!("{family}/bland{bland_after}"), *seed, &p);
        }
    }
    out
}

/// `family seed` of a digest line.
fn key(line: &str) -> &str {
    let second_space = line
        .match_indices(' ')
        .nth(1)
        .map_or(line.len(), |(at, _)| at);
    &line[..second_space]
}

/// The value of a `name=value` field of a digest line.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    line.split(' ').find_map(|f| f.strip_prefix(name))
}

#[test]
fn kernel_reproduces_the_recorded_digest() {
    let actual = digest();
    let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("kernel_golden.txt");
    std::fs::write(&written, &actual).expect("writing the computed digest");
    assert_eq!(
        actual.lines().count(),
        FIXTURE.lines().count(),
        "digest length changed; computed digest in {}",
        written.display()
    );
    let mut changed = Vec::new();
    for (now, recorded) in actual.lines().zip(FIXTURE.lines()) {
        if now == recorded {
            continue;
        }
        let which = key(recorded);
        assert!(
            DRIVE_OUT_FIX.contains(&which) && which == key(now),
            "{which} differs from the recording:\n  recorded: {recorded}\n  now:      {now}\n\
             computed digest in {}",
            written.display()
        );
        let repaired =
            field(recorded, "feasible=") == Some("0") && field(now, "feasible=") == Some("1");
        let same_answer = ["obj=", "x="]
            .iter()
            .all(|f| field(recorded, f) == field(now, f));
        assert!(
            repaired || same_answer,
            "{which}: the drive-out fix may only turn an infeasible x feasible or \
             reach the same x in other pivots:\n  recorded: {recorded}\n  now:      {now}"
        );
        changed.push(which);
    }
    assert_eq!(
        changed, DRIVE_OUT_FIX,
        "a declared drive-out line no longer differs"
    );
}

#[test]
fn recording_reaches_every_kernel_outcome() {
    let has = |needle: &str| FIXTURE.lines().any(|l| l.contains(needle));
    for needle in ["infeasible", "unbounded", "feasible=1", " ok p1=0 "] {
        assert!(has(needle), "no recorded line contains {needle:?}");
    }
    for name in ["p1=", "p2=", "deg=", "flips="] {
        assert!(
            FIXTURE
                .lines()
                .any(|l| field(l, name).is_some_and(|v| v != "0")),
            "no recorded solve has a positive {name}"
        );
    }
}
