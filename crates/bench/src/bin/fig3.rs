//! Fig. 3: the impact of the energy-fairness parameter β — GreFar with
//! β = 0 vs β = 100 at V = 7.5. Three panels: (a) average energy cost,
//! (b) average fairness, (c) average delay in DC #1.
//!
//! Expected shape (§VI-B.2): β = 100 scores much better fairness at only a
//! marginal increase in energy cost, and *reduces* delay (the quadratic
//! fairness function rewards using resources).

use grefar_bench::{maybe_write_csv, print_table, ExperimentOpts, Flag, DEFAULT_V};
use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, PaperScenario};

fn main() {
    let opts = ExperimentOpts::from_args(2000, &[Flag::Csv]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    let betas = [0.0, grefar_bench::DEFAULT_BETA];
    let runs: Vec<(String, Box<dyn Scheduler>)> = betas
        .iter()
        .map(|&beta| {
            let g =
                GreFar::new(&config, GreFarParams::new(DEFAULT_V, beta)).expect("valid parameters");
            (format!("beta={beta}"), Box::new(g) as Box<dyn Scheduler>)
        })
        .collect();
    let reports = sweep::run_all(&config, &inputs, runs);

    println!(
        "Fig. 3 — impact of the energy-fairness parameter (V = {DEFAULT_V}), {} hours, seed {}",
        opts.hours, opts.seed
    );
    println!();
    let rows: Vec<Vec<f64>> = reports
        .iter()
        .zip(betas)
        .map(|((_, r), beta)| {
            vec![
                beta,
                r.average_energy_cost(),
                r.average_fairness(),
                r.average_dc_delay(0),
                r.average_dc_delay(1),
                r.average_dc_delay(2),
            ]
        })
        .collect();
    print_table(
        &[
            "beta",
            "avg_energy",
            "avg_fairness",
            "delay_dc1",
            "delay_dc2",
            "delay_dc3",
        ],
        &rows,
    );

    let energy: Vec<Vec<f64>> = reports.iter().map(|(_, r)| r.energy.running()).collect();
    let fairness: Vec<Vec<f64>> = reports.iter().map(|(_, r)| r.fairness.running()).collect();
    for (panel, pick) in [
        ("(a) average energy cost over time", 0usize),
        ("(b) average fairness over time", 1),
        ("(c) average delay in DC #1 over time", 2),
    ] {
        println!("\n{panel}");
        print!("{:>8}", "hour");
        for (label, _) in &reports {
            print!(" {label:>12}");
        }
        println!();
        let horizon = reports[0].1.horizon;
        for p in 1..=10 {
            let t = p * (horizon - 1) / 10;
            print!("{t:>8}");
            for (k, (_, r)) in reports.iter().enumerate() {
                let value = match pick {
                    0 => energy[k][t],
                    1 => fairness[k][t],
                    _ => r.dc_delay[0][t],
                };
                print!(" {value:>12.4}");
            }
            println!();
        }
    }

    let labels: Vec<&str> = reports.iter().map(|(l, _)| l.as_str()).collect();
    let energy: Vec<&[f64]> = energy.iter().map(Vec::as_slice).collect();
    maybe_write_csv(opts.csv_path("fig3a_energy.csv"), &labels, &energy);
    let fair: Vec<&[f64]> = fairness.iter().map(Vec::as_slice).collect();
    maybe_write_csv(opts.csv_path("fig3b_fairness.csv"), &labels, &fair);
    let delay: Vec<&[f64]> = reports
        .iter()
        .map(|(_, r)| r.dc_delay[0].as_slice())
        .collect();
    maybe_write_csv(opts.csv_path("fig3c_delay_dc1.csv"), &labels, &delay);
}
