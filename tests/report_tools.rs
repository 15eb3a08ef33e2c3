//! End-to-end coverage for the `grefar-report` toolchain against *real*
//! simulator telemetry: analyze (Theorem 1 occupancy), diff (replay
//! determinism) and bench-gate (BENCH_*.json comparison).

use grefar::faults::FaultPlan;
use grefar::obs::JsonlSink;
use grefar::prelude::*;
use grefar::sim::{sweep, theory_obs};
use grefar_report::{
    bench_gate, diff_streams, Analysis, BenchFile, DiffOptions, ExplainReport, TelemetryStream,
};

/// A labeled two-point V-sweep with `theory.bounds` events, exactly the
/// stream `fig2 --telemetry` writes (smaller horizon).
fn sweep_stream(seed: u64, hours: usize) -> String {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(hours);
    let vs = [0.1, 7.5];
    let mut sink = JsonlSink::new(Vec::new());
    let bounded: Vec<(String, f64, f64)> = vs.iter().map(|&v| (format!("V={v}"), v, 0.0)).collect();
    theory_obs::emit_theory_bounds(&config, &inputs, &bounded, &mut sink)
        .expect("paper scenario is slack");
    let runs: Vec<(String, Box<dyn Scheduler>)> = vs
        .iter()
        .map(|&v| {
            let g = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid");
            (format!("V={v}"), Box::new(g) as Box<dyn Scheduler>)
        })
        .collect();
    sweep::run_all_observed_until(&config, &inputs, runs, &mut sink, &|| false);
    String::from_utf8(sink.into_inner()).expect("utf8")
}

#[test]
fn analyze_checks_theorem_1_on_a_real_run() {
    let stream = TelemetryStream::parse(&sweep_stream(2012, 150)).expect("parsable stream");
    assert_eq!(stream.runs.len(), 2);
    assert_eq!(stream.bounds.len(), 2);

    let analysis = Analysis::from_stream(&stream);
    assert!(
        !analysis.any_bound_exceeded(),
        "the paper scenario must respect Theorem 1(a)"
    );
    for run in &analysis.runs {
        let bound = run.bound.as_ref().expect("every run has matched bounds");
        assert!(
            bound.occupancy_pct < 100.0,
            "run {} occupies {:.1}% of its queue bound",
            run.label,
            bound.occupancy_pct
        );
        assert!(run.slots == 150);
        assert!(run.avg_cost > 0.0);
    }
    let rendered = analysis.render();
    assert!(rendered.contains("[ok]"), "{rendered}");
    assert!(
        rendered.contains("Theorem 1(b) cost-gap table"),
        "{rendered}"
    );
    assert!(
        !rendered.contains(" NO\n"),
        "a run violated its gap bound:\n{rendered}"
    );
}

/// A solver squeeze at β > 0 forces the fairness-blind greedy fallback;
/// its `grefar.decide` drift must still be objective (14) at the
/// scheduler's own β minus the penalty, so the per-DC attribution
/// reconciles on every squeezed slot.
#[test]
fn explain_reconciles_a_squeezed_run_at_positive_beta() {
    let scenario = PaperScenario::default();
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(72);
    let g = GreFar::new(&config, GreFarParams::new(7.5, 100.0)).expect("valid params");
    let plan = FaultPlan::parse("squeeze:iters=2,start=60,end=70").expect("valid plan");
    let mut sink = JsonlSink::new(Vec::new());
    Simulation::new(config, inputs, Box::new(g))
        .with_fault_plan(plan)
        .expect("plan fits the paper scenario")
        .run_with_observer(&mut sink);
    let text = String::from_utf8(sink.into_inner()).expect("utf8");
    assert!(
        text.contains("\"reason\":\"solver_budget_exhausted\""),
        "the squeeze must force the greedy fallback"
    );
    let report = ExplainReport::from_stream(&text).expect("stream has provenance");
    assert_eq!(report.reconcile(), Vec::<String>::new());
}

#[test]
fn diff_accepts_replays_and_rejects_different_seeds() {
    let a = sweep_stream(77, 48);
    let b = sweep_stream(77, 48);
    let same = diff_streams(&a, &b, &DiffOptions::default()).expect("parsable");
    assert!(same.is_match(), "{}", same.render());

    let c = sweep_stream(78, 48);
    let different = diff_streams(&a, &c, &DiffOptions::default()).expect("parsable");
    assert!(!different.is_match(), "different seeds must diverge");
}

#[test]
fn bench_gate_round_trips_the_criterion_json_format() {
    // The exact line format the vendored criterion shim writes with --json.
    let old = "{\"schema\":1,\"event\":\"bench.meta\",\"crate\":\"lp\",\"arch\":\"x86_64\",\
               \"os\":\"linux\",\"family\":\"unix\",\"cpus\":8,\"profile\":\"release\",\
               \"harness\":\"0.5.1\"}\n\
               {\"schema\":1,\"event\":\"bench.case\",\"name\":\"lp/solve/3dc\",\
               \"min_ns\":52100,\"mean_ns\":55000,\"median_ns\":54000,\"samples\":60}\n";
    let file = BenchFile::parse(old).expect("parsable BENCH json");
    assert_eq!(file.cases.len(), 1);

    let report = bench_gate::gate(&file, &file, 0.10);
    assert!(report.passes(), "self-comparison must pass");

    let slower = old.replace("\"min_ns\":52100", "\"min_ns\":99999");
    let new = BenchFile::parse(&slower).expect("parsable");
    assert!(!bench_gate::gate(&file, &new, 0.10).passes());
}
