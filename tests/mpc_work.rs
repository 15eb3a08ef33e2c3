//! A layout-free work gate on the real MPC horizon LPs: the simplex work
//! counters summed over the first slots of the seed-5 paper week, solved
//! exactly as the `mpc-lp` benchmark workload solves them (H = 6,
//! w = 0.02). Timing moves with code layout; these totals move only when
//! the kernel's pivot sequence does. `crates/lp/tests/kernel_golden.rs`
//! pins the same counters on synthetic LPs, whose `backlog` family only
//! approximates this shape.

use grefar::obs::{Event, Observer, Value};
use grefar::prelude::*;
use grefar::sim::{MpcScheduler, SteppedRun};

/// Slots solved: a day keeps the test cheap in a debug build.
const SLOTS: usize = 24;

/// Totals of the `lp.solve` events' work counters.
#[derive(Debug, Default, PartialEq, Eq)]
struct LpWork {
    solves: u64,
    pivots_phase1: u64,
    pivots_phase2: u64,
    degenerate_pivots: u64,
    bound_flips: u64,
}

impl Observer for LpWork {
    fn record_event(&mut self, event: Event) {
        if event.name() != "lp.solve" {
            return;
        }
        let count = |key: &str| match event.get(key) {
            Some(Value::U64(v)) => *v,
            other => panic!("lp.solve field {key} is {other:?}"),
        };
        self.solves += 1;
        self.pivots_phase1 += count("pivots_phase1");
        self.pivots_phase2 += count("pivots_phase2");
        self.degenerate_pivots += count("degenerate_pivots");
        self.bound_flips += count("bound_flips");
    }
}

/// Recorded from the kernel that priced every column after each pivot.
#[test]
fn mpc_lp_work_matches_the_recording() {
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(168);
    let mpc = MpcScheduler::new(&config, inputs.clone(), 6, 0.02);
    let mut run = SteppedRun::new(Simulation::new(config, inputs, Box::new(mpc)));
    let mut work = LpWork::default();
    for _ in 0..SLOTS {
        assert!(run.step(&mut work));
    }
    assert_eq!(
        work,
        LpWork {
            solves: 24,
            pivots_phase1: 3_621,
            pivots_phase2: 3_791,
            degenerate_pivots: 3_678,
            bound_flips: 2_707,
        }
    );
}
