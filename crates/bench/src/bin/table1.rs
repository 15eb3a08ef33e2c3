//! Table I: server configuration and electricity price in data centers —
//! normalized speed, power, average price (measured from the generated
//! trace) and the resulting average energy cost per unit work.
//!
//! Paper values: speeds 1.00/0.75/1.15, powers 1.00/0.60/1.20, average
//! prices 0.392/0.433/0.548, energy cost per unit work 0.392/0.346/0.572.

use grefar_bench::{print_table, ExperimentOpts};
use grefar_sim::PaperScenario;
use grefar_trace::PriceTrace;

fn main() {
    let opts = ExperimentOpts::from_args(2000, &[]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();

    let mut prices = scenario.price_processes();
    let trace = PriceTrace::generate(&mut prices, opts.hours, opts.seed);

    println!(
        "Table I — server configuration and electricity price ({} hours, seed {})",
        opts.hours, opts.seed
    );
    println!("paper: speed 1.00/0.75/1.15, power 1.00/0.60/1.20,");
    println!("       avg price 0.392/0.433/0.548, cost per unit work 0.392/0.346/0.572\n");

    let mut rows = Vec::new();
    for i in 0..config.num_data_centers() {
        let class = &config.server_classes()[i];
        let mean = trace.mean_rate(i);
        let (lo, hi) = trace.rate_range(i);
        rows.push(vec![
            (i + 1) as f64,
            class.speed(),
            class.active_power(),
            mean,
            mean * class.power_per_work(),
            lo,
            hi,
        ]);
    }
    print_table(
        &[
            "dc",
            "speed",
            "power",
            "avg_price",
            "cost_per_work",
            "min_price",
            "max_price",
        ],
        &rows,
    );
}
