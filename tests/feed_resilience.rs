//! End-to-end feed resilience: GreFar scheduling on *estimated* state from
//! lossy feeds completes without panicking, the realized queues respect the
//! degraded Theorem 1(a) certificate (plain bound (23) plus `S·q_max` for
//! the profile's admissible staleness `S`), identical seeds reproduce a
//! byte-identical telemetry stream, and a perfect feed profile leaves the
//! run byte-identical to one with no feed layer at all.

use grefar::core::theory::{slackness_delta_trace, TheoryBounds};
use grefar::ingest::FeedProfile;
use grefar::obs::JsonlSink;
use grefar::prelude::*;
use grefar_report::{diff_streams, DiffOptions, TelemetryStream};

const HOURS: usize = 24 * 10;
const V: f64 = 7.5;
/// Price drops, an availability-feed outage, and a short retry budget: the
/// scheduler sees stale prices and stale capacity for long stretches.
const LOSSY: &str = "drop:feed=price,p=0.4,start=0,end=240;\
                     outage:feed=avail,dc=1,start=50,end=80;\
                     policy:seed=11,retries=1";

fn feed_sim(seed: u64, profile: Option<&str>) -> Simulation {
    let scenario = PaperScenario::default().with_seed(seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HOURS);
    let g = GreFar::new(&config, GreFarParams::new(V, 0.0)).expect("valid params");
    let sim = Simulation::new(config, inputs, Box::new(g));
    match profile {
        Some(spec) => sim
            .with_feed_profile(FeedProfile::parse(spec).expect("valid profile"))
            .expect("profile fits the paper scenario"),
        None => sim,
    }
}

fn telemetry_of(sim: Simulation) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    sim.run_with_observer(&mut sink);
    assert_eq!(sink.io_errors(), 0);
    String::from_utf8(sink.into_inner()).expect("utf8")
}

/// The headline robustness claim: under bounded staleness `S` the realized
/// peak queue stays within `V·C3/δ + S·q_max` — the plain Theorem 1(a)
/// bound degraded by at most one maximal arrival burst per stale slot.
#[test]
fn stale_state_run_respects_the_degraded_queue_bound() {
    let scenario = PaperScenario::default().with_seed(2012);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HOURS);
    let delta = slackness_delta_trace(&config, &inputs.capacities(&config), inputs.all_arrivals())
        .expect("the paper scenario is admissible");
    let price_max = (0..config.num_data_centers())
        .flat_map(|i| (0..inputs.horizon()).map(move |t| (i, t)))
        .map(|(i, t)| inputs.state(t).data_center(i).price())
        .fold(0.0f64, f64::max);
    let bounds = TheoryBounds::new(&config, delta, price_max, 0.0);

    let profile = FeedProfile::parse(LOSSY).expect("valid profile");
    let stale_slots = profile.staleness_bound(config.num_data_centers());
    assert!(stale_slots > 0, "the lossy profile must certify staleness");
    let plain = bounds.queue_bound(V);
    let degraded = bounds.stale_queue_bound(V, stale_slots);
    assert!(degraded > plain, "staleness must widen the bound");

    let text = telemetry_of(feed_sim(2012, Some(LOSSY)));
    let stream = TelemetryStream::parse(&text).expect("valid telemetry");
    let run = &stream.runs[0];
    assert_eq!(run.slots.len(), HOURS, "the lossy run must complete");
    assert!(
        !run.stale.is_empty(),
        "the profile must actually force stale slots"
    );

    let observed = run.slots.iter().map(|s| s.queue_max).fold(0.0, f64::max);
    assert!(
        observed <= degraded,
        "peak queue {observed} exceeds the degraded Theorem 1(a) bound \
         {degraded} (= {plain} + {stale_slots} stale slots)"
    );
}

/// The `feed.*` / `state.stale` lines of a telemetry stream — the events
/// that record disturbances, retries, breaker transitions and estimates.
/// None of them carry timing fields, so they must be bit-reproducible.
fn feed_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.contains("\"event\":\"feed.") || l.contains("\"event\":\"state.stale\""))
        .collect()
}

/// Identical seeds — in the scenario *and* the feed policy — reproduce the
/// run exactly: the parsed streams match (timing fields excepted) and the
/// feed-event lines are byte for byte identical.
#[test]
fn identical_seeds_reproduce_the_feed_run_byte_for_byte() {
    let first = telemetry_of(feed_sim(7, Some(LOSSY)));
    let second = telemetry_of(feed_sim(7, Some(LOSSY)));
    assert_eq!(
        feed_lines(&first),
        feed_lines(&second),
        "feed disturbances must be deterministic"
    );
    assert!(
        !feed_lines(&first).is_empty(),
        "the lossy profile must emit feed events"
    );
    let diff = diff_streams(&first, &second, &DiffOptions::default()).expect("both parse");
    assert!(diff.is_match(), "replay diverged:\n{}", diff.render());

    // The stream really exercises the feed layer: fetch failures and stale
    // state are on record, and every stale estimate is age-bounded.
    let stream = TelemetryStream::parse(&first).expect("valid telemetry");
    let run = &stream.runs[0];
    assert!(run.feed_fetches.iter().any(|f| f.outcome != "ok"));
    let cap = FeedProfile::parse(LOSSY).expect("valid").staleness_bound(3);
    for s in &run.stale {
        assert!(
            s.max_age <= cap,
            "slot {}: stale age {} above the certified cap {cap}",
            s.t,
            s.max_age
        );
    }
}

/// A perfect feed profile is the identity: the stream matches a run with
/// no feed layer at all (timing fields excepted) and contains not a single
/// feed event.
#[test]
fn perfect_feeds_are_indistinguishable_from_no_feeds() {
    let plain = telemetry_of(feed_sim(23, None));
    let perfect = {
        let scenario = PaperScenario::default().with_seed(23);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(HOURS);
        let g = GreFar::new(&config, GreFarParams::new(V, 0.0)).expect("valid params");
        let sim = Simulation::new(config, inputs, Box::new(g))
            .with_feed_profile(FeedProfile::perfect())
            .expect("perfect profile always fits");
        telemetry_of(sim)
    };
    assert!(feed_lines(&plain).is_empty());
    assert!(
        feed_lines(&perfect).is_empty(),
        "a perfect feed layer must be invisible"
    );
    let diff = diff_streams(&plain, &perfect, &DiffOptions::default()).expect("both parse");
    assert!(
        diff.is_match(),
        "perfect feeds changed the run:\n{}",
        diff.render()
    );
}
