//! §VI-B.1 text result: "when V = 7.5 and β = 100 … the average work per
//! time step scheduled to data centers #1, #2, and #3 are 33.967, 48.502
//! and 14.770" — more work goes to the data centers with lower average
//! energy cost per unit work (Table I: DC2 < DC1 < DC3).

use grefar_bench::{print_table, ExperimentOpts, DEFAULT_BETA, DEFAULT_V};
use grefar_core::{GreFar, GreFarParams};
use grefar_sim::{PaperScenario, Simulation};

fn main() {
    let opts = ExperimentOpts::from_args(2000, &[]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    println!(
        "Work split — GreFar at V={DEFAULT_V}, {} hours, seed {}",
        opts.hours, opts.seed
    );
    println!("paper (V=7.5, beta=100): 33.967 / 48.502 / 14.770 (DC1 / DC2 / DC3)\n");

    for beta in [0.0, DEFAULT_BETA] {
        let grefar =
            GreFar::new(&config, GreFarParams::new(DEFAULT_V, beta)).expect("valid parameters");
        let report = Simulation::new(config.clone(), inputs.clone(), Box::new(grefar)).run();
        println!("beta = {beta}:");
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                vec![
                    (i + 1) as f64,
                    report.average_work_per_dc(i),
                    report.average_dc_delay(i),
                ]
            })
            .collect();
        print_table(&["dc", "avg_work", "avg_delay"], &rows);
        let total: f64 = (0..3).map(|i| report.average_work_per_dc(i)).sum();
        println!(
            "total work/slot: {total:.3} (arriving {:.3}), avg energy {:.3}, fairness {:.4}\n",
            report.arriving_work.mean(),
            report.average_energy_cost(),
            report.average_fairness()
        );
    }
    println!(
        "the ordering follows Table I's energy cost per unit work\n\
         (DC2 0.346 < DC1 0.392 < DC3 0.572): cheaper sites get more work;\n\
         the fairness term (beta > 0) pulls some work back toward DC3"
    );
}
