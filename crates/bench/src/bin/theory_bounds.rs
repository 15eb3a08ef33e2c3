//! Theorem 1(a) validation: for every V, the largest queue observed in a
//! long simulation stays below the analytic bound `V·C3/δ` (eq. (23)), and
//! the observed maxima grow O(V).

use grefar_bench::{print_table, ExperimentOpts};
use grefar_core::theory::{slackness_delta_trace, TheoryBounds};
use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, PaperScenario};

fn main() {
    let opts = ExperimentOpts::from_args(2000, &[]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    let delta = slackness_delta_trace(&config, &inputs.capacities(&config), inputs.all_arrivals())
        .expect("the paper scenario satisfies the slackness conditions");
    // A price bound for g^max: the observed maximum price across the trace.
    let price_max = (0..config.num_data_centers())
        .flat_map(|i| (0..inputs.horizon()).map(move |t| (i, t)))
        .map(|(i, t)| inputs.state(t).data_center(i).price())
        .fold(0.0f64, f64::max);
    let bounds = TheoryBounds::new(&config, delta, price_max, 0.0);

    println!(
        "Theorem 1(a) — queue bounds, {} hours, seed {} (delta = {delta:.3}, price_max = {price_max:.3})",
        opts.hours, opts.seed
    );
    println!(
        "constants: B = {:.1}, D = {:.1}, q_max = {:.1}, g_spread = {:.1}\n",
        bounds.b_const(),
        bounds.d_const(),
        bounds.q_max(),
        bounds.g_spread()
    );

    let vs = [0.1, 1.0, 2.5, 7.5, 20.0, 50.0];
    let runs: Vec<(String, Box<dyn Scheduler>)> = vs
        .iter()
        .map(|&v| {
            let g = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid parameters");
            (format!("V={v}"), Box::new(g) as Box<dyn Scheduler>)
        })
        .collect();
    let reports = sweep::run_all(&config, &inputs, runs);

    let mut rows = Vec::new();
    for (&v, (_, report)) in vs.iter().zip(&reports) {
        let observed = report.max_queue_length();
        let bound = bounds.queue_bound(v);
        rows.push(vec![v, observed, bound, observed / bound]);
        assert!(
            observed <= bound,
            "V={v}: observed max queue {observed} exceeds the Theorem 1 bound {bound}"
        );
    }
    print_table(&["V", "max_queue_obs", "bound_VC3/delta", "ratio"], &rows);
    println!("\nall observed maxima are below the analytic bound — Theorem 1(a) holds");
}
