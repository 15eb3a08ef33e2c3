//! Bit-identity oracle for the Frank–Wolfe slot solve (`β > 0`).
//!
//! Each line of `fixtures/fw_golden.txt` digests one
//! `SlotInstance::solve_with_fairness`: its family and seed, then the
//! iterations performed, the bits of the final duality gap and of the
//! objective (14), and an FNV-1a hash of the bits of the decision
//! (`routed`, `processed`, `busy`). The families:
//!
//! * `paper` — every 50th decision of a seed-5 `PaperScenario` GreFar run
//!   at `V = 7.5`, `β = 100` over 2 000 slots, re-solved with the
//!   scheduler's own options (the states the `paper-fw` benchmark
//!   replays); some of them run into the 200-iteration cap;
//! * `flat` and `tiered` — seeded synthetic systems under flat or tiered
//!   (convex piecewise-linear) tariffs with quadratic-deviation fairness
//!   (3), with exact-zero queues and partial eligibility, so many job
//!   entries stay at zero for the whole solve;
//! * `alpha` — the same systems under α-fair fairness (these lines also
//!   pin the rounding of the platform's `powf` and `ln`; the fixture was
//!   recorded on x86-64 Linux);
//! * `zero_capacity` — no server available anywhere, so `R(t) = 0`;
//! * `idle_dc` — one data center with no available servers.
//!
//! The fixture was recorded before the line search learned to evaluate
//! only a segment's support, and a solver change must reproduce it line
//! for line. Every run writes the digest it computed to
//! `$CARGO_TARGET_TMPDIR/fw_golden.txt`, so re-recording (a declared
//! change to the solver's arithmetic) is a copy of that file.

use grefar::convex::{FwOptions, LineSearch};
use grefar::core::{
    AlphaFair, FairnessFunction, QuadraticDeviation, SlotInstance, SlotSolution, SolverChoice,
};
use grefar::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const FIXTURE: &str = include_str!("fixtures/fw_golden.txt");

/// The paper run: GreFar's operating point in the `paper-fw` benchmark.
const PAPER_SEED: u64 = 5;
const PAPER_SLOTS: usize = 2_000;
const PAPER_EVERY: u64 = 50;
const V: f64 = 7.5;
const BETA: f64 = 100.0;
/// The options `GreFarParams::new` gives the scheduler.
const PAPER_OPTIONS: FwOptions = FwOptions {
    max_iters: 200,
    gap_tolerance: 1e-6,
    line_search: LineSearch::GoldenSection { iters: 40 },
};

/// splitmix64, seeded per family and instance so that adding a family or
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

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.range(0.0, 1.0) < p
    }
}

/// Wraps GreFar and keeps a copy of every `every`-th decision's inputs.
struct Capture {
    inner: GreFar,
    every: u64,
    calls: u64,
    states: Arc<Mutex<Vec<(u64, SystemState, QueueState)>>>,
}

impl Scheduler for Capture {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState, queues: &QueueState) -> Decision {
        if self.calls.is_multiple_of(self.every) {
            self.states.lock().expect("capture lock").push((
                self.calls,
                state.clone(),
                queues.clone(),
            ));
        }
        self.calls += 1;
        self.inner.decide(state, queues)
    }
}

/// `(call, state, queues)` of every 50th decision of the paper run.
fn paper_states() -> (SystemConfig, Vec<(u64, SystemState, QueueState)>) {
    let scenario = PaperScenario::default().with_seed(PAPER_SEED);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(PAPER_SLOTS);
    let states = Arc::new(Mutex::new(Vec::new()));
    let capture = Capture {
        inner: GreFar::new(&config, GreFarParams::new(V, BETA)).expect("valid params"),
        every: PAPER_EVERY,
        calls: 0,
        states: Arc::clone(&states),
    };
    Simulation::new(config.clone(), inputs, Box::new(capture)).run();
    let states = std::mem::take(&mut *states.lock().expect("capture lock"));
    (config, states)
}

/// What a synthetic family varies.
#[derive(Clone, Copy, PartialEq)]
enum Family {
    Flat,
    Tiered,
    Alpha,
    ZeroCapacity,
    IdleDc,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Flat => "flat",
            Family::Tiered => "tiered",
            Family::Alpha => "alpha",
            Family::ZeroCapacity => "zero_capacity",
            Family::IdleDc => "idle_dc",
        }
    }
}

/// A seeded synthetic slot: a small system, a state and queues with many
/// exact zeros, a fairness function, `V`, `β` and FW options.
struct Synthetic {
    config: SystemConfig,
    state: SystemState,
    queues: QueueState,
    fairness: Box<dyn FairnessFunction>,
    v: f64,
    beta: f64,
    options: FwOptions,
}

fn tariff(rng: &mut Rng, tiered: bool) -> Tariff {
    let base = rng.range(0.05, 0.8);
    if !tiered {
        return Tariff::flat(base);
    }
    let mut rate = base;
    let mut segments = Vec::new();
    for _ in 0..rng.between(1, 2) {
        segments.push((rng.range(2.0, 30.0), rate));
        rate += rng.range(0.0, 0.6);
    }
    segments.push((f64::INFINITY, rate));
    Tariff::convex(segments).expect("non-decreasing rates")
}

fn synthetic(family: Family, seed: u64) -> Synthetic {
    let mut rng = Rng::new(family.name(), seed);
    let n = rng.between(1, 4);
    let j_count = rng.between(1, 6);
    let k_count = rng.between(1, 3);
    let m_count = rng.between(1, 3).min(j_count);
    let idle = if family == Family::IdleDc {
        Some(rng.between(0, n - 1))
    } else {
        None
    };

    let mut builder = SystemConfig::builder();
    for _ in 0..k_count {
        builder = builder.server_class(ServerClass::new(rng.range(0.5, 2.0), rng.range(0.5, 2.0)));
    }
    let fleets: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..k_count).map(|_| rng.range(5.0, 40.0).round()).collect())
        .collect();
    for (i, fleet) in fleets.iter().enumerate() {
        builder = builder.data_center(format!("dc{i}"), fleet.clone());
    }
    let weights: Vec<f64> = (0..m_count).map(|_| rng.range(0.5, 2.0)).collect();
    let total: f64 = weights.iter().sum();
    for (m, w) in weights.iter().enumerate() {
        builder = builder.account(format!("acct{m}"), w / total);
    }
    for j in 0..j_count {
        let mut eligible: Vec<DataCenterId> = (0..n)
            .filter(|_| rng.chance(0.7))
            .map(DataCenterId::new)
            .collect();
        if eligible.is_empty() {
            eligible.push(DataCenterId::new(rng.between(0, n - 1)));
        }
        let account = if j < m_count {
            j
        } else {
            rng.between(0, m_count - 1)
        };
        builder = builder.job_class(
            JobClass::new(rng.range(0.5, 3.0), eligible, account)
                .with_max_arrivals(20.0)
                .with_max_route(20.0)
                .with_max_process(rng.range(2.0, 15.0)),
        );
    }
    let config = builder.build().expect("valid synthetic config");

    let tiered = match family {
        Family::Tiered => true,
        Family::Alpha | Family::IdleDc => rng.chance(0.5),
        Family::Flat | Family::ZeroCapacity => false,
    };
    let state = SystemState::new(
        seed,
        fleets
            .iter()
            .enumerate()
            .map(|(i, fleet)| {
                let available = fleet
                    .iter()
                    .map(|&size| {
                        if family == Family::ZeroCapacity || idle == Some(i) {
                            0.0
                        } else {
                            (size * rng.range(0.3, 1.0)).round()
                        }
                    })
                    .collect();
                DataCenterState::new(available, tariff(&mut rng, tiered))
            })
            .collect(),
    );

    // Local queues: routed from a zero start, so each `q_{i,j}` is exactly
    // what is routed to it; about half of them stay exactly zero.
    let mut queues = QueueState::new(&config);
    let mut z = config.decision_zeros();
    for (j, job) in config.job_classes().iter().enumerate() {
        for dc in job.eligible() {
            if rng.chance(0.5) {
                z.routed[(dc.index(), j)] = rng.range(0.0, 20.0).round();
            }
        }
    }
    let arrivals: Vec<f64> = (0..j_count).map(|_| rng.range(0.0, 10.0).round()).collect();
    queues.apply(&z, &arrivals);

    let fairness: Box<dyn FairnessFunction> = if family == Family::Alpha {
        let alpha = [0.5, 1.0, 2.0][rng.between(0, 2)];
        Box::new(AlphaFair::new(alpha, 1e-3))
    } else {
        Box::new(QuadraticDeviation)
    };
    let options = FwOptions {
        max_iters: if rng.chance(0.3) { 30 } else { 200 },
        gap_tolerance: 1e-6,
        line_search: LineSearch::GoldenSection { iters: 40 },
    };
    Synthetic {
        config,
        state,
        queues,
        fairness,
        v: rng.range(1.0, 15.0),
        beta: [1.0, 20.0, 100.0][rng.between(0, 2)],
        options,
    }
}

fn fnv1a(h: &mut u64, x: &[f64]) {
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest_line(out: &mut String, family: &str, seed: u64, solution: &SlotSolution) {
    let SolverChoice::FrankWolfe {
        iterations, gap, ..
    } = solution.solver
    else {
        panic!("{family} {seed}: solve_with_fairness did not run Frank–Wolfe");
    };
    let mut z = 0xcbf2_9ce4_8422_2325u64;
    let d = &solution.decision;
    for grid in [&d.routed, &d.processed, &d.busy] {
        fnv1a(&mut z, grid.as_slice());
    }
    writeln!(
        out,
        "{family} {seed} it={iterations} gap={:016x} obj={:016x} z={z:016x}",
        gap.to_bits(),
        solution.objective.to_bits(),
    )
    .expect("writing to a String");
}

fn digest() -> String {
    let mut out = String::new();
    let (config, states) = paper_states();
    for (call, state, queues) in &states {
        let solution = SlotInstance::new(&config, state, queues, V).solve_with_fairness(
            BETA,
            &QuadraticDeviation,
            PAPER_OPTIONS,
        );
        digest_line(&mut out, "paper", *call, &solution);
    }
    for (family, count) in [
        (Family::Flat, 60),
        (Family::Tiered, 60),
        (Family::Alpha, 60),
        (Family::ZeroCapacity, 10),
        (Family::IdleDc, 30),
    ] {
        for seed in 0..count {
            let s = synthetic(family, seed);
            let solution = SlotInstance::new(&s.config, &s.state, &s.queues, s.v)
                .solve_with_fairness(s.beta, s.fairness.as_ref(), s.options);
            digest_line(&mut out, family.name(), seed, &solution);
        }
    }
    out
}

/// The value of a `name=value` field of a digest line.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    line.split(' ').find_map(|f| f.strip_prefix(name))
}

#[test]
fn frank_wolfe_reproduces_the_recorded_digest() {
    let actual = digest();
    let written = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fw_golden.txt");
    std::fs::write(&written, &actual).expect("writing the computed digest");
    for (now, recorded) in actual.lines().zip(FIXTURE.lines()) {
        assert_eq!(
            now,
            recorded,
            "the solve differs from the recording; computed digest in {}",
            written.display()
        );
    }
    assert_eq!(
        actual.lines().count(),
        FIXTURE.lines().count(),
        "digest length changed; computed digest in {}",
        written.display()
    );
}

#[test]
fn recording_reaches_every_regime() {
    let iterations = |family: &str| -> Vec<usize> {
        FIXTURE
            .lines()
            .filter(|l| l.starts_with(&format!("{family} ")))
            .map(|l| field(l, "it=").and_then(|v| v.parse().ok()).expect("it="))
            .collect()
    };
    let paper = iterations("paper");
    assert!(paper.len() >= 40, "{} paper states", paper.len());
    assert!(paper.contains(&200), "no paper state runs into the cap");
    assert!(
        paper.iter().any(|&n| (2..=5).contains(&n)),
        "no paper state converges in 2–5 iterations"
    );
    for family in ["flat", "tiered", "alpha", "zero_capacity", "idle_dc"] {
        let its = iterations(family);
        assert!(!its.is_empty(), "no {family} line");
        if family != "zero_capacity" {
            assert!(
                its.iter().any(|&n| n > 1),
                "every {family} solve stops at the first iteration"
            );
        }
    }
}

/// The most objective evaluations the line searches may make over the
/// paper states. Recorded: 15 067 over 855 searches, 17.6 each, where a
/// golden-section search that evaluates every probe makes 45 (38 475).
const PAPER_EVALUATION_CEILING: usize = 16_000;

#[test]
fn line_searches_on_the_paper_states_stay_under_the_recorded_ceiling() {
    let (config, states) = paper_states();
    let (mut total, mut searches) = (0, 0);
    for (_, state, queues) in &states {
        let solution = SlotInstance::new(&config, state, queues, V).solve_with_fairness(
            BETA,
            &QuadraticDeviation,
            PAPER_OPTIONS,
        );
        let SolverChoice::FrankWolfe {
            iterations,
            gap,
            evaluations,
        } = solution.solver
        else {
            panic!("solve_with_fairness did not run Frank–Wolfe");
        };
        total += evaluations;
        // The last iteration of a converged solve stops before its search.
        searches += iterations - usize::from(gap <= PAPER_OPTIONS.gap_tolerance);
    }
    assert!(
        total <= PAPER_EVALUATION_CEILING,
        "{total} evaluations over {searches} line searches exceed the recorded ceiling {PAPER_EVALUATION_CEILING}"
    );
}
