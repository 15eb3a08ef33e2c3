//! Reproducibility: every layer of the stack is a pure function of its
//! seed, and parallel sweeps return bit-identical results to serial runs.

use grefar::obs::JsonlSink;
use grefar::prelude::*;
use grefar::sim::sweep;
use grefar_report::{diff_streams, DiffOptions};

fn run_once(seed: u64, v: f64, beta: f64) -> SimulationReport {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(24 * 6);
    let g = GreFar::new(&config, GreFarParams::new(v, beta)).expect("valid");
    Simulation::new(config, inputs, Box::new(g)).run()
}

#[test]
fn same_seed_same_report() {
    let a = run_once(100, 7.5, 0.0);
    let b = run_once(100, 7.5, 0.0);
    assert_eq!(a, b, "identical seeds must yield identical reports");
}

#[test]
fn same_seed_same_report_with_fairness_path() {
    // The Frank–Wolfe path must be exactly deterministic too.
    let a = run_once(101, 7.5, 100.0);
    let b = run_once(101, 7.5, 100.0);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1, 7.5, 0.0);
    let b = run_once(2, 7.5, 0.0);
    assert_ne!(
        a.energy.instant(),
        b.energy.instant(),
        "different seeds must produce different traces"
    );
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let scenario = PaperScenario::default().with_seed(7);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(24 * 6);

    let serial: Vec<SimulationReport> = [0.1, 7.5]
        .iter()
        .map(|&v| {
            let g = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid");
            Simulation::new(config.clone(), inputs.clone(), Box::new(g)).run()
        })
        .collect();

    let runs: Vec<(String, Box<dyn Scheduler>)> = [0.1, 7.5]
        .iter()
        .map(|&v| {
            let g = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid");
            (format!("V={v}"), Box::new(g) as Box<dyn Scheduler>)
        })
        .collect();
    let parallel = sweep::run_all(&config, &inputs, runs);

    for (s, (_, p)) in serial.iter().zip(&parallel) {
        assert_eq!(s, p, "parallel execution changed a result");
    }
}

#[test]
fn telemetry_event_stream_is_deterministic() {
    // Two identical seeded runs must emit semantically identical event
    // streams; only the `_us` wall-clock fields may differ between runs.
    // The comparison is `grefar-report diff`'s — the same tool CI runs
    // against real telemetry files.
    fn stream(seed: u64) -> String {
        let scenario = PaperScenario::default().with_seed(seed);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(24 * 3);
        let g = GreFar::new(&config, GreFarParams::new(7.5, 100.0)).expect("valid");
        let sim = Simulation::new(config, inputs, Box::new(g));
        let mut sink = JsonlSink::new(Vec::new());
        sim.run_with_observer(&mut sink);
        String::from_utf8(sink.into_inner()).expect("utf8")
    }
    let a = stream(42);
    let b = stream(42);
    let same = diff_streams(&a, &b, &DiffOptions::default()).expect("parsable streams");
    assert!(same.is_match(), "replay diverged:\n{}", same.render());

    let c = stream(43);
    let different = diff_streams(&a, &c, &DiffOptions::default()).expect("parsable streams");
    assert!(
        !different.is_match(),
        "different seeds must yield different event streams"
    );
}

#[test]
fn inputs_are_identical_across_schedulers() {
    // The whole point of freezing inputs: GreFar and Always must observe
    // the very same prices.
    let scenario = PaperScenario::default().with_seed(13);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(24 * 4);
    let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
        (
            "g".into(),
            Box::new(GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid")),
        ),
        ("a".into(), Box::new(Always::new(&config))),
    ];
    let reports = sweep::run_all(&config, &inputs, runs);
    assert_eq!(
        reports[0].1.prices, reports[1].1.prices,
        "schedulers must see identical price traces"
    );
    assert_eq!(
        reports[0].1.arriving_work, reports[1].1.arriving_work,
        "schedulers must see identical arrivals"
    );
}
