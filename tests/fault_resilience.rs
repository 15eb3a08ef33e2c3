//! End-to-end resilience: a faulted run on the paper scenario completes
//! without panicking, tells the truth about it in telemetry (`fault.inject`,
//! `degraded.mode`), recovers its backlog after the fault window closes,
//! and a run killed mid-flight resumes into a telemetry stream the report
//! tooling certifies as identical to the uninterrupted one.

use grefar::faults::FaultPlan;
use grefar::obs::JsonlSink;
use grefar::prelude::*;
use grefar::sim::{Checkpoint, RunPolicy, SimError, SteppedRun};
use grefar_report::{diff_streams, Analysis, DiffOptions, TelemetryStream};

const HOURS: usize = 120;
const OUTAGE: &str = "outage:dc=0,start=30,end=40";

fn faulted_sim(seed: u64, plan: &str) -> Simulation {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HOURS);
    let g = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params");
    Simulation::new(config, inputs, Box::new(g))
        .with_fault_plan(FaultPlan::parse(plan).expect("valid plan"))
        .expect("plan fits the paper scenario")
}

fn telemetry_of(sim: Simulation) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    sim.run_with_observer(&mut sink);
    assert_eq!(sink.io_errors(), 0);
    String::from_utf8(sink.into_inner()).expect("utf8")
}

#[test]
fn full_outage_degrades_transparently_and_recovers() {
    let text = telemetry_of(faulted_sim(2012, OUTAGE));
    let stream = TelemetryStream::parse(&text).expect("valid telemetry");
    assert_eq!(stream.runs.len(), 1);
    let run = &stream.runs[0];
    assert_eq!(run.slots.len(), HOURS, "the faulted run must complete");

    // The fault is announced once, at its start slot.
    assert_eq!(run.faults.len(), 1);
    assert_eq!(run.faults[0].kind, "outage");
    assert_eq!((run.faults[0].start, run.faults[0].end), (30, 40));
    assert_eq!(run.faults[0].dc, Some(0));
    assert_eq!(run.faults[0].t, 30);

    // Every slot of the window reports the offline data center.
    let offline: Vec<u64> = run
        .degraded
        .iter()
        .filter(|d| d.reason == "dc_offline" && d.dc == Some(0))
        .map(|d| d.t)
        .collect();
    assert_eq!(offline, (30..40).collect::<Vec<u64>>());

    // Backlog recovers: some post-window slot returns to the pre-fault level.
    let baseline = run
        .slots
        .iter()
        .rev()
        .find(|s| s.t < 30)
        .expect("pre-fault slots")
        .queue_max;
    let peak = run
        .slots
        .iter()
        .filter(|s| (30..40).contains(&s.t))
        .map(|s| s.queue_max)
        .fold(0.0, f64::max);
    assert!(
        peak > baseline,
        "an outage must build backlog ({peak} vs {baseline})"
    );
    assert!(
        run.slots
            .iter()
            .any(|s| s.t >= 40 && s.queue_max <= baseline + 1e-9),
        "backlog must drain back to the pre-fault level after the window"
    );

    // The analyzer surfaces all of it as a resilience section.
    let analysis = Analysis::from_stream(&stream);
    let resilience = analysis.runs[0]
        .resilience
        .as_ref()
        .expect("faulted runs get a resilience section");
    assert_eq!(resilience.faults.len(), 1);
    let impact = &resilience.faults[0];
    assert!(impact.overshoot > 0.0);
    assert!(impact.recovery_slots.is_some(), "recovery must be detected");
    let rendered = analysis.render();
    assert!(
        rendered.contains("resilience"),
        "render carries the section:\n{rendered}"
    );
    assert!(
        rendered.contains("fault outage"),
        "render names the fault:\n{rendered}"
    );
}

#[test]
fn killed_faulted_run_resumes_into_an_identical_stream() {
    // Reference: the same faulted run, uninterrupted.
    let full = telemetry_of(faulted_sim(7, OUTAGE));

    let dir = std::env::temp_dir().join(format!("grefar-fault-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ck_path = dir.join("run.ckpt.jsonl");

    // Crash half: kill at slot 60 (inside nothing, after the outage window).
    let mut sink = JsonlSink::new(Vec::new());
    let policy = RunPolicy::new(&ck_path, 25).with_kill_at(60);
    match SteppedRun::new(faulted_sim(7, OUTAGE)).complete(&mut sink, Some(&policy)) {
        Err(SimError::Killed { slot: 60, .. }) => {}
        other => panic!("expected kill at slot 60, got {other:?}"),
    }

    // Recovery half: resume from the checkpoint, appending to the same
    // buffer — resume skips `run.start`, so the result is one well-formed
    // stream.
    let ck = Checkpoint::load(&ck_path).expect("checkpoint readable");
    let buf = sink.into_inner();
    let mut sink = JsonlSink::new(buf);
    SteppedRun::resume(faulted_sim(7, OUTAGE), ck)
        .and_then(|run| run.complete(&mut sink, None))
        .expect("resume completes");
    let stitched = String::from_utf8(sink.into_inner()).expect("utf8");

    // The report tooling must certify the stitched stream as identical to
    // the uninterrupted one (timing fields excepted).
    let diff = diff_streams(&full, &stitched, &DiffOptions::default()).expect("both parse");
    assert!(diff.is_match(), "kill+resume diverged:\n{}", diff.render());

    std::fs::remove_dir_all(&dir).ok();
}
