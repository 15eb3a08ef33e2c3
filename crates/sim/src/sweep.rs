//! Parallel parameter sweeps: many schedulers against identical inputs.
//!
//! Fig. 2 sweeps `V ∈ {0.1, 2.5, 7.5, 20}`; Fig. 3 sweeps `β`; Fig. 4
//! compares policies. All of these are embarrassingly parallel over the
//! *same frozen inputs*, which is exactly what [`run_all`] does (one thread
//! per scheduler via `std::thread::scope`).

use crate::inputs::SimulationInputs;
use crate::report::SimulationReport;
use crate::simulation::Simulation;
use grefar_core::Scheduler;
use grefar_obs::{Event, Observer};
use grefar_types::SystemConfig;

/// Runs every `(label, scheduler)` pair against the same inputs in
/// parallel, returning `(label, report)` pairs in the original order.
///
/// # Example
/// ```
/// use grefar_core::{Always, GreFar, GreFarParams, Scheduler};
/// use grefar_sim::{sweep, PaperScenario};
///
/// let scenario = PaperScenario::default();
/// let config = scenario.config().clone();
/// let inputs = scenario.into_inputs(48);
/// let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
///     ("always".into(), Box::new(Always::new(&config))),
///     ("grefar".into(), Box::new(GreFar::new(&config, GreFarParams::new(7.5, 0.0)).unwrap())),
/// ];
/// let reports = sweep::run_all(&config, &inputs, runs);
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports[0].0, "always");
/// ```
pub fn run_all(
    config: &SystemConfig,
    inputs: &SimulationInputs,
    schedulers: Vec<(String, Box<dyn Scheduler>)>,
) -> Vec<(String, SimulationReport)> {
    let mut out: Vec<Option<(String, SimulationReport)>> =
        (0..schedulers.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (slot, (label, scheduler)) in out.iter_mut().zip(schedulers) {
            let config = config.clone();
            let inputs = inputs.clone();
            handles.push(scope.spawn(move || {
                let report = Simulation::new(config, inputs, scheduler).run();
                *slot = Some((label, report));
            }));
        }
        for h in handles {
            h.join().expect("simulation thread panicked");
        }
    });
    out.into_iter()
        .map(|entry| entry.expect("every run completes"))
        .collect()
}

/// The instrumented twin of [`run_all`]: runs the schedulers *serially*
/// against the same inputs, streaming every run's telemetry into `obs`.
///
/// Serial execution keeps the event stream deterministic (runs appear in
/// label order, never interleaved); a `sweep.run` marker event precedes
/// each run so a JSONL consumer can attribute the events that follow.
///
/// Before starting each scheduler, `cancel()` is polled, and a `true`
/// stops the sweep there, returning only the runs that completed. Runs are
/// never cut mid-flight — a run that has started always finishes, so every
/// returned report (and its telemetry) is whole. This is the hook the
/// experiment binaries use to honor a latched `SIGTERM` between the runs
/// of a long sweep; pass `&|| false` to run them all.
pub fn run_all_observed_until(
    config: &SystemConfig,
    inputs: &SimulationInputs,
    schedulers: Vec<(String, Box<dyn Scheduler>)>,
    obs: &mut dyn Observer,
    cancel: &dyn Fn() -> bool,
) -> Vec<(String, SimulationReport)> {
    let mut out = Vec::new();
    for (label, scheduler) in schedulers {
        if cancel() {
            break;
        }
        if obs.enabled() {
            obs.record_event(Event::new("sweep.run").field("label", label.clone()));
        }
        let sim = Simulation::new(config.clone(), inputs.clone(), scheduler);
        out.push((label, sim.run_with_observer(obs)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperScenario;
    use grefar_core::{Always, GreFar, GreFarParams};

    #[test]
    fn parallel_results_match_serial() {
        let scenario = PaperScenario::default().with_seed(9);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(36);

        let serial = Simulation::new(
            config.clone(),
            inputs.clone(),
            Box::new(Always::new(&config)),
        )
        .run();

        let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
            ("a".into(), Box::new(Always::new(&config))),
            (
                "g".into(),
                Box::new(GreFar::new(&config, GreFarParams::new(7.5, 0.0)).unwrap()),
            ),
        ];
        let reports = run_all(&config, &inputs, runs);
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports[0].1.average_energy_cost(),
            serial.average_energy_cost()
        );
        assert_eq!(reports[0].0, "a");
        assert_eq!(reports[1].0, "g");
    }

    #[test]
    fn cancellation_stops_between_runs_and_keeps_completed_reports() {
        use grefar_obs::NullObserver;
        use std::cell::Cell;

        let scenario = PaperScenario::default().with_seed(9);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(24);
        let make_runs = |config: &grefar_types::SystemConfig| -> Vec<(String, Box<dyn Scheduler>)> {
            vec![
                ("a".into(), Box::new(Always::new(config))),
                (
                    "g".into(),
                    Box::new(GreFar::new(config, GreFarParams::new(7.5, 0.0)).unwrap()),
                ),
            ]
        };

        // Cancel flips true after the first poll: the first run completes
        // (it was already cleared to start), the second never begins.
        let polls = Cell::new(0u32);
        let reports = run_all_observed_until(
            &config,
            &inputs,
            make_runs(&config),
            &mut NullObserver,
            &|| {
                polls.set(polls.get() + 1);
                polls.get() > 1
            },
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "a");

        // Never cancelled: every run completes, in label order.
        let whole = run_all_observed_until(
            &config,
            &inputs,
            make_runs(&config),
            &mut NullObserver,
            &|| false,
        );
        assert_eq!(whole.len(), 2);
        assert_eq!(whole[0], reports[0]);
        assert_eq!(whole[1].0, "g");
    }
}
