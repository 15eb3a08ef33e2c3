//! Byte-level oracle for the telemetry stack: the JSONL a
//! `MetricsLayer<JsonlSink>` writes, the exposition its fold renders and
//! the health JSON it shares must reproduce a recorded run byte for byte.
//!
//! The run is the slot driver's golden scenario (a fault plan with a
//! squeeze, lossy feeds, an admission cap, a checkpoint every 25 slots),
//! once at β = 100 (Frank–Wolfe) and once at β = 0 (greedy), so both
//! solver labels reach the fold. The layer snapshots every 16 slots and
//! carries one alert rule that fires while the avail feed's breaker is
//! open and resolves once it closes. Wall-clock (`*_us`) values are
//! blanked; everything else is deterministic for the seed.
//!
//! `tests/slot_driver_golden.rs` pins the events as `Event::to_json`
//! writes them; this test pins what the sink and the fold make of them.

use grefar::faults::FaultPlan;
use grefar::ingest::FeedProfile;
use grefar::obs::JsonlSink;
use grefar::prelude::*;
use grefar::sim::{RunPolicy, SteppedRun};
use grefar_metrics::{parse_rules, shared_handle, MetricsConfig, MetricsLayer};

const HORIZON: usize = 80;
const FAULTS: &str = "outage:dc=0,start=30,end=40;squeeze:start=45,end=55,iters=3";
const FEEDS: &str = "drop:feed=price,p=0.4,start=0,end=80;\
                     outage:feed=avail,dc=1,start=20,end=35;policy:seed=11,retries=1";
const ADMISSION_CAP: f64 = 40.0;
const RULES: &str = "breaker:open_breakers>0";
const SNAPSHOT_EVERY: u64 = 16;

fn build(beta: f64) -> Simulation {
    let scenario = PaperScenario::default().with_seed(21);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HORIZON);
    let g = GreFar::new(&config, GreFarParams::new(7.5, beta)).expect("valid params");
    Simulation::new(config, inputs, Box::new(g))
        .with_admission_cap(ADMISSION_CAP)
        .with_fault_plan(FaultPlan::parse(FAULTS).expect("valid plan"))
        .expect("plan fits the paper scenario")
        .with_feed_profile(FeedProfile::parse(FEEDS).expect("valid profile"))
        .expect("profile fits the paper scenario")
}

/// Replaces the value of every `*_us` field with `0`: wall-clock timings
/// are the only nondeterministic payload.
fn blank_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(at + "_us\":".len());
        out.push_str(head);
        out.push('0');
        rest = &tail[tail.find([',', '}']).unwrap_or(tail.len())..];
    }
    out.push_str(rest);
    out
}

/// What one run of the stack leaves behind.
struct Pinned {
    /// The sink's bytes, timings blanked.
    jsonl: String,
    /// The shared snapshot's exposition after the final refresh.
    exposition: String,
    /// The shared snapshot's health JSON after the final refresh.
    health: String,
}

fn run(beta: f64) -> Pinned {
    let dir = std::env::temp_dir().join(format!(
        "grefar-telemetry-golden-{beta}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let shared = shared_handle();
    let config = MetricsConfig {
        snapshot_every_slots: SNAPSHOT_EVERY,
        include_timings: false,
        rules: parse_rules(RULES).expect("valid rule"),
        ..MetricsConfig::default()
    };
    let mut layer =
        MetricsLayer::new(JsonlSink::new(Vec::new()), config).with_shared(shared.clone());
    let policy = RunPolicy::new(dir.join("run.ckpt.jsonl"), 25);
    SteppedRun::new(build(beta))
        .complete(&mut layer, Some(&policy))
        .expect("no kill scheduled");
    let (sink, health) = layer.into_parts();
    health.expect("snapshots are in memory only");
    std::fs::remove_dir_all(&dir).ok();
    let text = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    let jsonl = text
        .lines()
        .map(|line| blank_timings(line) + "\n")
        .collect();
    let snap = shared.lock().expect("no poisoned snapshot");
    Pinned {
        jsonl,
        exposition: snap.exposition.clone(),
        health: snap.health_json.clone() + "\n",
    }
}

/// Asserts equality without dumping two 100 kB strings on failure.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what} differs from the golden fixture at line {}:\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

fn check(beta: f64, jsonl: &str, exposition: &str, health: &str) {
    let pinned = run(beta);
    assert_same("JSONL stream", &pinned.jsonl, jsonl);
    assert_same("exposition", &pinned.exposition, exposition);
    assert_same("health JSON", &pinned.health, health);
    assert!(
        pinned.jsonl.contains("\"event\":\"alert.fire\"")
            && pinned.jsonl.contains("\"event\":\"alert.resolve\""),
        "the breaker rule must fire and resolve within the run"
    );
}

#[test]
fn frank_wolfe_run_reproduces_the_recorded_telemetry() {
    check(
        100.0,
        include_str!("fixtures/telemetry/beta100.jsonl"),
        include_str!("fixtures/telemetry/beta100.prom"),
        include_str!("fixtures/telemetry/beta100.health.json"),
    );
}

#[test]
fn greedy_run_reproduces_the_recorded_telemetry() {
    check(
        0.0,
        include_str!("fixtures/telemetry/beta0.jsonl"),
        include_str!("fixtures/telemetry/beta0.prom"),
        include_str!("fixtures/telemetry/beta0.health.json"),
    );
}
