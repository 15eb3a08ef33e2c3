//! Ablation: the value of forecasts. GreFar (forecast-free) against
//! receding-horizon MPC with oracle and progressively noisier price
//! forecasts, all on identical inputs.
//!
//! The paper's motivation (§I): statistics "may be estimated or predicted",
//! but GreFar "does not require any prior knowledge of the system
//! statistics … or any prediction on future job arrivals". This experiment
//! quantifies what that robustness is worth.

use grefar_bench::{print_table, ExperimentOpts, DEFAULT_V};
use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, MpcScheduler, PaperScenario};

fn main() {
    let opts = ExperimentOpts::from_args(300, &[]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    let mut runs: Vec<(String, Box<dyn Scheduler>)> = vec![(
        "grefar".into(),
        Box::new(GreFar::new(&config, GreFarParams::new(DEFAULT_V, 0.0)).expect("valid")),
    )];
    for noise in [0.0, 0.1, 0.3, 0.6] {
        runs.push((
            format!("mpc_noise_{noise}"),
            Box::new(MpcScheduler::new(&config, inputs.clone(), 6, 0.02).with_price_noise(noise)),
        ));
    }
    let reports = sweep::run_all(&config, &inputs, runs);

    println!(
        "Forecast value — GreFar (no forecast) vs MPC at growing forecast error,\n\
         {} hours, seed {}\n",
        opts.hours, opts.seed
    );
    let mut rows = Vec::new();
    for (idx, (_, r)) in reports.iter().enumerate() {
        rows.push(vec![
            idx as f64,
            r.average_energy_cost(),
            r.average_dc_delay(0),
            r.dc_delay_quantiles[0].p95,
            r.max_queue_length(),
        ]);
    }
    println!("(row 0 = GreFar; rows 1.. = MPC with noise 0.0, 0.1, 0.3, 0.6)");
    print_table(
        &["row", "avg_energy", "delay_dc1", "p95_dc1", "max_queue"],
        &rows,
    );
    println!(
        "\nGreFar needs no forecast. The oracle MPC buys lower energy with its perfect\n\
         price forecast; as the forecast degrades MPC loses control of its own\n\
         delay/backlog target (delays and queues drift upward row by row) because it\n\
         increasingly believes cheaper slots lie ahead. GreFar's delay is guaranteed\n\
         by Theorem 1 regardless — and its per-slot decision is a greedy pass, not an LP."
    );
}
