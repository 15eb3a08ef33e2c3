//! Emits Theorem 1's analytic bounds into a telemetry stream, so offline
//! tooling (`grefar-report analyze`) can check an observed run against the
//! guarantees without re-deriving the scenario.
//!
//! One `theory.bounds` event is emitted per labeled run:
//!
//! | field | meaning |
//! |---|---|
//! | `label` | the `sweep.run` label (or scheduler name) the bounds apply to |
//! | `v` / `beta` | the GreFar operating point |
//! | `delta` | the slackness certificate from (20)–(22) |
//! | `price_max` | the price cap used for `g^max − g^min` |
//! | `queue_bound` | Theorem 1(a): `V·C3/δ`, eq. (23) |
//! | `cost_gap_bound` | Theorem 1(b): `(B + D(T−1))/V`, eq. (24) |
//! | `frame` | the lookahead frame `T` the gap bound is stated against |
//!
//! All fields are pure functions of the frozen inputs, so the events are
//! deterministic and survive the determinism diff unchanged.

use crate::inputs::SimulationInputs;
use grefar_core::theory::{slackness_delta_trace, TheoryBounds};
use grefar_obs::{Event, Observer};
use grefar_types::SystemConfig;

/// The lookahead frame length `T` the emitted Theorem 1(b) gap bound is
/// stated against — the daily cycle, matching the `T`-step benchmark used
/// throughout the test suite.
pub const GAP_BOUND_FRAME: usize = 24;

/// Certifies `inputs` admissible via the per-slot slackness certificate and
/// emits one `theory.bounds` event per `(label, v, beta)` run.
///
/// Returns the certified slack `δ`, or `None` when the trace admits no
/// certificate (overloaded system) — in which case nothing is emitted and
/// Theorem 1 simply offers no guarantee to check. Does nothing when the
/// observer is disabled.
pub fn emit_theory_bounds(
    config: &SystemConfig,
    inputs: &SimulationInputs,
    runs: &[(String, f64, f64)],
    obs: &mut dyn Observer,
) -> Option<f64> {
    emit_theory_bounds_stale(config, inputs, runs, 0, obs)
}

/// Like [`emit_theory_bounds`], but for runs executed behind an unreliable
/// feed layer with admissible staleness `stale_slots`
/// (`FeedProfile::staleness_bound`). Each event additionally carries the
/// degraded slackness certificate: `stale_slots` and the relaxed
/// `stale_queue_bound = queue_bound + stale_slots·q^max`
/// (`TheoryBounds::stale_queue_bound` — an engineering corollary, not a
/// paper theorem). With `stale_slots == 0` the extra fields are omitted and
/// the event is byte-identical to [`emit_theory_bounds`]'s.
pub fn emit_theory_bounds_stale(
    config: &SystemConfig,
    inputs: &SimulationInputs,
    runs: &[(String, f64, f64)],
    stale_slots: u64,
    obs: &mut dyn Observer,
) -> Option<f64> {
    if !obs.enabled() {
        return None;
    }
    let delta = slackness_delta_trace(config, &inputs.capacities(config), inputs.all_arrivals())?;
    let price_max = (0..inputs.horizon())
        .flat_map(|t| {
            let state = inputs.state(t);
            (0..config.num_data_centers())
                .map(move |i| state.data_center(i).price())
                .collect::<Vec<_>>()
        })
        .fold(0.0f64, f64::max);
    for (label, v, beta) in runs {
        let bounds = TheoryBounds::new(config, delta, price_max, *beta);
        let mut event = Event::new("theory.bounds")
            .field("label", label.clone())
            .field("v", *v)
            .field("beta", *beta)
            .field("delta", delta)
            .field("price_max", price_max)
            .field("queue_bound", bounds.queue_bound(*v))
            .field("cost_gap_bound", bounds.cost_gap_bound(*v, GAP_BOUND_FRAME))
            .field("frame", GAP_BOUND_FRAME);
        if stale_slots > 0 {
            event = event.field("stale_slots", stale_slots).field(
                "stale_queue_bound",
                bounds.stale_queue_bound(*v, stale_slots),
            );
        }
        obs.record_event(event);
    }
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperScenario;
    use grefar_obs::{JsonlSink, NullObserver};

    #[test]
    fn emits_one_event_per_run_with_positive_bounds() {
        let scenario = PaperScenario::default().with_seed(11);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(48);
        let mut sink = JsonlSink::new(Vec::new());
        let runs = vec![
            ("V=0.1".to_string(), 0.1, 0.0),
            ("V=7.5".to_string(), 7.5, 0.0),
        ];
        let delta = emit_theory_bounds(&config, &inputs, &runs, &mut sink)
            .expect("paper scenario is slack");
        assert!(delta > 0.0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = grefar_obs::json::parse_lines(&text).unwrap();
        assert_eq!(events.len(), 2);
        let qb: Vec<f64> = events
            .iter()
            .map(|e| e["queue_bound"].as_f64().unwrap())
            .collect();
        assert!(
            qb[0] > 0.0 && qb[1] > qb[0],
            "bound must grow with V: {qb:?}"
        );
        let gap: Vec<f64> = events
            .iter()
            .map(|e| e["cost_gap_bound"].as_f64().unwrap())
            .collect();
        assert!(gap[1] < gap[0], "gap bound must shrink with V: {gap:?}");
        assert_eq!(events[0]["label"].as_str(), Some("V=0.1"));
    }

    #[test]
    fn disabled_observer_is_a_no_op() {
        let scenario = PaperScenario::default().with_seed(11);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(24);
        let runs = vec![("V=7.5".to_string(), 7.5, 0.0)];
        assert_eq!(
            emit_theory_bounds(&config, &inputs, &runs, &mut NullObserver),
            None
        );
    }
}
