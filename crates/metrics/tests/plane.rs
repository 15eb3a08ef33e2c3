//! End-to-end tests for the metrics plane over real simulator runs: the
//! exposition must self-lint, the offline rebuild must reproduce the live
//! fold, and a killed + resumed run must rebuild identical aggregates.

use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_metrics::{lint, MetricsConfig, MetricsFold, MetricsLayer};
use grefar_obs::JsonlSink;
use grefar_sim::{Checkpoint, PaperScenario, RunPolicy, SimError, Simulation, SteppedRun};

/// Builds the standard paper simulation at `seed` over `hours` slots.
fn build_sim(seed: u64, hours: usize) -> Simulation {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(hours);
    let scheduler: Box<dyn Scheduler> =
        Box::new(GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params"));
    Simulation::new(config, inputs, scheduler)
}

/// A metrics layer capturing the forwarded event stream in memory.
fn capture_layer(include_timings: bool) -> MetricsLayer<JsonlSink<Vec<u8>>> {
    let config = MetricsConfig {
        include_timings,
        ..MetricsConfig::default()
    };
    MetricsLayer::new(JsonlSink::new(Vec::new()), config)
}

/// Exposition text minus the checkpoint-cadence metrics, which legitimately
/// differ between an uninterrupted run and a killed + resumed one.
fn without_checkpoint_lines(exposition: &str) -> String {
    exposition
        .lines()
        .filter(|l| !l.contains("grefar_checkpoint"))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn exposition_from_real_run_self_lints() {
    let mut layer = capture_layer(true);
    let report = build_sim(2012, 60).run_with_observer(&mut layer);

    let exposition = layer.fold().render();
    let findings = lint(&exposition);
    assert!(findings.is_empty(), "lint findings: {findings:?}");

    // Golden spot-checks: one slot sample per simulated hour, a declared
    // horizon, and (with timings on) the slot-duration histogram.
    let label = report.scheduler.as_str();
    assert!(
        exposition.contains(&format!("grefar_slots_total{{scheduler=\"{label}\"}} 60")),
        "missing slot counter in:\n{exposition}"
    );
    assert!(exposition.contains("grefar_run_horizon_slots"));
    assert!(exposition.contains("grefar_slot_duration_us_bucket"));
    assert!(exposition.contains("grefar_slot_duration_us_count"));

    let health = layer.health();
    assert_eq!(health.slot, 59, "last folded slot");
    assert_eq!(health.invariant_violations, 0);
}

#[test]
fn offline_rebuild_reproduces_live_fold() {
    // Timings off on both sides: wall-clock values are the one
    // nondeterministic input, everything else must round-trip exactly.
    let mut layer = capture_layer(false);
    build_sim(7, 90).run_with_observer(&mut layer);

    let live = layer.fold().render();
    let (sink, health) = layer.into_parts();
    health.expect("clean run");
    let stream = String::from_utf8(sink.into_inner()).expect("utf8 jsonl");

    let mut rebuild = MetricsFold::new(false);
    let folded = rebuild.fold_jsonl(&stream).expect("well-formed stream");
    assert!(folded > 90, "expected one event per slot plus framing");
    assert_eq!(rebuild.render(), live, "offline rebuild diverged");
}

#[test]
fn kill_and_resume_rebuilds_identical_aggregates() {
    let ck_path = std::env::temp_dir().join("grefar_metrics_itest_resume.ckpt.jsonl");
    let _ = std::fs::remove_file(&ck_path);

    // Reference: the same run, uninterrupted.
    let mut reference = capture_layer(false);
    build_sim(42, 80).run_with_observer(&mut reference);
    let want = without_checkpoint_lines(&reference.fold().render());

    // Crash just before slot 40 (checkpoint written first, stream is a
    // clean prefix).
    let policy = RunPolicy::new(ck_path.clone(), 20).with_kill_at(40);
    let mut cut = capture_layer(false);
    match SteppedRun::new(build_sim(42, 80)).complete(&mut cut, Some(&policy)) {
        Err(SimError::Killed { slot, .. }) => assert_eq!(slot, 40),
        Err(other) => panic!("expected Killed, got {other:?}"),
        Ok(_) => panic!("kill slot must fire"),
    }
    let (cut_sink, _) = cut.into_parts();
    let prefix = String::from_utf8(cut_sink.into_inner()).expect("utf8 jsonl");

    // Resume with a fresh layer pre-seeded from the truncated stream, as
    // `grefar_cli --resume` does.
    let mut resumed = capture_layer(false);
    let prefolded = resumed.prefold_jsonl(&prefix).expect("prefix folds");
    assert!(prefolded > 0, "prefix stream was empty");
    let checkpoint = Checkpoint::load(&ck_path).expect("checkpoint readable");
    SteppedRun::resume(build_sim(42, 80), checkpoint)
        .and_then(|run| run.complete(&mut resumed, None))
        .expect("resume completes");

    let got = without_checkpoint_lines(&resumed.fold().render());
    assert_eq!(got, want, "resumed aggregates diverged from uninterrupted");
    let _ = std::fs::remove_file(&ck_path);
}
