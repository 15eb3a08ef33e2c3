//! Ablation: the full energy–delay Pareto frontier traced by the
//! cost-delay parameter V (a fine-grained version of Fig. 2's four-point
//! sweep). Theorem 1 predicts cost → offline-optimum as O(1/V) and queue
//! (delay) growth O(V); the frontier makes the trade visible end to end.

use grefar_bench::{maybe_write_csv, print_table, ExperimentOpts, Flag};
use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, PaperScenario};

fn main() {
    let opts = ExperimentOpts::from_args(1500, &[Flag::Csv]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    let vs = [
        0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0,
    ];
    let runs: Vec<(String, Box<dyn Scheduler>)> = vs
        .iter()
        .map(|&v| {
            let g = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid");
            (format!("V={v}"), Box::new(g) as Box<dyn Scheduler>)
        })
        .collect();
    let reports = sweep::run_all(&config, &inputs, runs);

    println!(
        "Energy-delay frontier (beta = 0), {} hours, seed {}\n",
        opts.hours, opts.seed
    );
    let mut rows = Vec::new();
    for (&v, (_, r)) in vs.iter().zip(&reports) {
        // System-wide mean delay weighted by completions.
        let total_completed: u64 = r.completions.completed_per_dc.iter().sum();
        let mean_delay: f64 = r
            .completions
            .completed_per_dc
            .iter()
            .zip(&r.completions.mean_dc_delay)
            .map(|(&c, &d)| c as f64 * d)
            .sum::<f64>()
            / total_completed.max(1) as f64;
        rows.push(vec![
            v,
            r.average_energy_cost(),
            mean_delay,
            r.completions.mean_sojourn,
            r.max_queue_length(),
        ]);
    }
    print_table(
        &["V", "avg_energy", "mean_delay", "mean_sojourn", "max_queue"],
        &rows,
    );

    // Frontier sanity: energy non-increasing, delay non-decreasing in V.
    let energies: Vec<f64> = rows.iter().map(|r| r[1]).collect();
    let monotone = energies.windows(2).all(|w| w[1] <= w[0] + 0.2);
    println!(
        "\nenergy monotone in V (±0.2 tolerance): {}",
        if monotone {
            "yes"
        } else {
            "NO — investigate"
        }
    );

    let energy_col: Vec<f64> = rows.iter().map(|r| r[1]).collect();
    let delay_col: Vec<f64> = rows.iter().map(|r| r[2]).collect();
    maybe_write_csv(
        opts.csv_path("v_frontier.csv"),
        &["energy", "delay"],
        &[&energy_col, &delay_col],
    );
}
