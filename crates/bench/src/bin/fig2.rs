//! Fig. 2: GreFar minimizing energy cost without fairness (β = 0) for
//! V ∈ {0.1, 2.5, 7.5, 20}. Reproduces the three panels:
//! (a) running-average energy cost, (b) running-average job delay in
//! DC #1, (c) the same in DC #2.
//!
//! Expected shape (paper §VI-B.1): larger V → lower energy cost, higher
//! delay; V = 0.1 ≈ delay 1.

use grefar_bench::{
    apply_fault_plan, exit_if_signaled, maybe_write_csv, print_table, signal, ExperimentOpts, Flag,
    FIG2_V_VALUES,
};
use grefar_core::{GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, theory_obs, PaperScenario};

fn main() {
    signal::install();
    let opts = ExperimentOpts::from_args(2000, &[Flag::Csv, Flag::Faults, Flag::Observability]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = apply_fault_plan(scenario.into_inputs(opts.hours), &opts);

    let runs: Vec<(String, Box<dyn Scheduler>)> = FIG2_V_VALUES
        .iter()
        .map(|&v| {
            let grefar = GreFar::new(&config, GreFarParams::new(v, 0.0)).expect("valid parameters");
            (format!("V={v}"), Box::new(grefar) as Box<dyn Scheduler>)
        })
        .collect();
    let mut plane = opts.observability();
    let reports = if plane.is_active() {
        let bounded: Vec<(String, f64, f64)> = FIG2_V_VALUES
            .iter()
            .map(|&v| (format!("V={v}"), v, 0.0))
            .collect();
        theory_obs::emit_theory_bounds(&config, &inputs, &bounded, &mut plane);
        sweep::run_all_observed_until(&config, &inputs, runs, &mut plane, &signal::triggered)
    } else {
        sweep::run_all(&config, &inputs, runs)
    };
    // A latched SIGTERM/SIGINT stops the sweep at a run boundary; flush
    // what completed and exit 128 + signo instead of printing torn tables.
    let plane = exit_if_signaled(plane);

    println!(
        "Fig. 2 — GreFar without fairness (beta = 0), {} hours, seed {}",
        opts.hours, opts.seed
    );
    println!("\n(a) final average energy cost | (b) delay DC#1 | (c) delay DC#2 | delay DC#3 | max queue");
    let mut rows = Vec::new();
    for (label, report) in &reports {
        let v: f64 = label.trim_start_matches("V=").parse().expect("label");
        rows.push(vec![
            v,
            report.average_energy_cost(),
            report.average_dc_delay(0),
            report.average_dc_delay(1),
            report.average_dc_delay(2),
            report.max_queue_length(),
        ]);
    }
    print_table(
        &[
            "V",
            "avg_energy",
            "delay_dc1",
            "delay_dc2",
            "delay_dc3",
            "max_queue",
        ],
        &rows,
    );

    // Time-series panels (running averages over time), as in the figure.
    let energy: Vec<Vec<f64>> = reports.iter().map(|(_, r)| r.energy.running()).collect();
    for (panel, pick) in [
        ("(a) average energy cost over time", 0usize),
        ("(b) average delay in DC #1 over time", 1),
        ("(c) average delay in DC #2 over time", 2),
    ] {
        println!("\n{panel}");
        print!("{:>8}", "hour");
        for (label, _) in &reports {
            print!(" {label:>12}");
        }
        println!();
        let horizon = reports[0].1.horizon;
        let points: Vec<usize> = (1..=10).map(|p| p * (horizon - 1) / 10).collect();
        for &t in &points {
            print!("{t:>8}");
            for (k, (_, report)) in reports.iter().enumerate() {
                let value = match pick {
                    0 => energy[k][t],
                    1 => report.dc_delay[0][t],
                    _ => report.dc_delay[1][t],
                };
                print!(" {value:>12.4}");
            }
            println!();
        }
    }

    let energy_cols: Vec<&[f64]> = energy.iter().map(Vec::as_slice).collect();
    let labels: Vec<&str> = reports.iter().map(|(l, _)| l.as_str()).collect();
    maybe_write_csv(opts.csv_path("fig2a_energy.csv"), &labels, &energy_cols);
    let d1: Vec<&[f64]> = reports
        .iter()
        .map(|(_, r)| r.dc_delay[0].as_slice())
        .collect();
    maybe_write_csv(opts.csv_path("fig2b_delay_dc1.csv"), &labels, &d1);
    let d2: Vec<&[f64]> = reports
        .iter()
        .map(|(_, r)| r.dc_delay[1].as_slice())
        .collect();
    maybe_write_csv(opts.csv_path("fig2c_delay_dc2.csv"), &labels, &d2);

    plane.finish();
}
