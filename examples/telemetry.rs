//! Telemetry: instrument a simulation run with the `grefar-obs` layer.
//!
//! Streams every structured event to `telemetry.jsonl` while aggregating
//! counters and timing histograms in memory, then prints the aggregate
//! summary and re-parses the file to demonstrate the JSONL round-trip.
//!
//! Run with: `cargo run --example telemetry`

use grefar::obs::json::{self, JsonValue};
use grefar::obs::{JsonlSink, MemoryObserver, Tee};
use grefar::prelude::*;

fn main() {
    let scenario = PaperScenario::default().with_seed(2012);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(200);
    let scheduler = GreFar::new(&config, GreFarParams::new(7.5, 300.0)).expect("valid params");
    let sim = Simulation::new(config, inputs, Box::new(scheduler));

    // Fan the event stream out to a JSONL file and an in-memory aggregator.
    let path = std::env::temp_dir().join("grefar_telemetry.jsonl");
    let mut memory = MemoryObserver::new();
    let mut sink = JsonlSink::create(&path).expect("create telemetry file");
    let mut tee = Tee::new(&mut memory, &mut sink);
    let report = sim.run_with_observer(&mut tee);
    sink.flush().expect("flush telemetry file");
    assert_eq!(sink.io_errors(), 0);

    println!("scheduler       : {}", report.scheduler);
    println!("avg energy cost : {:.3}", report.average_energy_cost());
    println!("events recorded : {}", memory.total_events());
    print!("{}", memory.summary());

    // The emitted file is plain JSONL: one flat JSON object per line, which
    // the bundled parser (or any JSON tool) reads back.
    let text = std::fs::read_to_string(&path).expect("read telemetry file");
    let events = json::parse_lines(&text).expect("every line parses");
    let fw_iterations: Vec<f64> = events
        .iter()
        .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some("grefar.decide"))
        .filter_map(|e| e.get("fw_iterations").and_then(JsonValue::as_f64))
        .collect();
    let mean = fw_iterations.iter().sum::<f64>() / fw_iterations.len() as f64;
    println!(
        "\nparsed {} events back from {}",
        events.len(),
        path.display()
    );
    println!("mean Frank-Wolfe iterations per slot: {mean:.1}");
}
