//! The telemetry layer against the simulator: JSONL round-trips, event
//! coverage, and the guarantee that observation never changes results.

use grefar::obs::json::{self, JsonValue};
use grefar::obs::{JsonlSink, MemoryObserver, NullObserver, Tee};
use grefar::prelude::*;

fn jsonl_stream(seed: u64, hours: usize, v: f64, beta: f64) -> String {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(hours);
    let g = GreFar::new(&config, GreFarParams::new(v, beta)).expect("valid");
    let sim = Simulation::new(config, inputs, Box::new(g));
    let mut sink = JsonlSink::new(Vec::new());
    sim.run_with_observer(&mut sink);
    assert_eq!(sink.io_errors(), 0);
    String::from_utf8(sink.into_inner()).expect("utf8")
}

#[test]
fn simulation_jsonl_parses_and_covers_schema() {
    let hours = 48;
    let text = jsonl_stream(2012, hours, 7.5, 0.0);
    let events = json::parse_lines(&text).expect("every line is valid JSON");

    // run.start; per hour one slot, one soak.ledger conservation record,
    // one grefar.decide and one decision.explain per data center (the
    // paper scenario has 3); run.end.
    assert_eq!(events.len(), 2 + 6 * hours);
    let name = |e: &std::collections::BTreeMap<String, JsonValue>| {
        e.get("event")
            .and_then(JsonValue::as_str)
            .expect("event name")
            .to_string()
    };
    assert_eq!(name(&events[0]), "run.start");
    assert_eq!(name(events.last().unwrap()), "run.end");
    assert_eq!(events.iter().filter(|e| name(e) == "slot").count(), hours);
    assert_eq!(
        events.iter().filter(|e| name(e) == "grefar.decide").count(),
        hours
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| name(e) == "decision.explain")
            .count(),
        3 * hours
    );

    // Spot-check fields of the first slot event.
    let slot = events.iter().find(|e| name(e) == "slot").unwrap();
    for key in [
        "t",
        "queue_central",
        "queue_local",
        "queue_max",
        "energy",
        "fairness",
        "arrivals",
        "dropped",
        "wall_us",
    ] {
        assert!(slot.contains_key(key), "slot event missing {key}");
    }
    let decide = events.iter().find(|e| name(e) == "grefar.decide").unwrap();
    for key in [
        "objective",
        "drift",
        "penalty",
        "solver",
        "fw_iterations",
        "wall_us",
    ] {
        assert!(decide.contains_key(key), "grefar.decide missing {key}");
    }
    assert_eq!(
        decide.get("solver").and_then(JsonValue::as_str),
        Some("greedy"),
        "beta = 0 must take the greedy solver"
    );
}

#[test]
fn fairness_path_reports_frank_wolfe() {
    let text = jsonl_stream(5, 12, 7.5, 100.0);
    let events = json::parse_lines(&text).expect("valid JSONL");
    let solver_used: Vec<&str> = events
        .iter()
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("grefar.decide"))
        .map(|e| e.get("solver").and_then(JsonValue::as_str).expect("solver"))
        .collect();
    assert!(!solver_used.is_empty());
    assert!(solver_used.iter().all(|&s| s == "frank_wolfe"));
}

#[test]
fn observation_does_not_change_results() {
    let run = |observed: bool| -> SimulationReport {
        let scenario = PaperScenario::default().with_seed(99);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(48);
        let g = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid");
        let sim = Simulation::new(config, inputs, Box::new(g));
        if observed {
            let mut memory = MemoryObserver::new();
            let mut sink = JsonlSink::new(Vec::new());
            let mut tee = Tee::new(&mut memory, &mut sink);
            sim.run_with_observer(&mut tee)
        } else {
            sim.run_with_observer(&mut NullObserver)
        }
    };
    assert_eq!(run(true), run(false), "telemetry must be read-only");
}

#[test]
fn memory_observer_aggregates_the_run() {
    let scenario = PaperScenario::default().with_seed(3);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(24);
    let g = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid");
    let sim = Simulation::new(config, inputs, Box::new(g));
    let mut memory = MemoryObserver::new();
    sim.run_with_observer(&mut memory);

    assert_eq!(memory.event_count("run.start"), 1);
    assert_eq!(memory.event_count("run.end"), 1);
    assert_eq!(memory.event_count("slot"), 24);
    assert_eq!(memory.counter("slots"), 24);
    let wall = memory.histogram("slot.wall_us").expect("slot timings");
    assert_eq!(wall.count(), 24);
    assert!(wall.quantiles().max > 0.0);
    assert!(!memory.summary().is_empty());
}
