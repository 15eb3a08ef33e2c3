//! Fig. 4: GreFar (V = 7.5, β = 100) versus the "Always" baseline on the
//! same frozen inputs. Three panels: (a) average energy cost, (b) average
//! fairness, (c) average delay in DC #1.
//!
//! Expected shape (§VI-B.3): GreFar wins on energy and fairness at the
//! expense of delay; Always's delay is ≈ 1.

use grefar_bench::{
    apply_fault_plan, exit_if_signaled, maybe_write_csv, print_table, signal, ExperimentOpts, Flag,
    DEFAULT_BETA, DEFAULT_V,
};
use grefar_core::{Always, GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, theory_obs, PaperScenario};

fn main() {
    signal::install();
    let opts = ExperimentOpts::from_args(2000, &[Flag::Csv, Flag::Faults, Flag::Observability]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = apply_fault_plan(scenario.into_inputs(opts.hours), &opts);

    let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
        (
            "GreFar".into(),
            Box::new(
                GreFar::new(&config, GreFarParams::new(DEFAULT_V, DEFAULT_BETA))
                    .expect("valid parameters"),
            ),
        ),
        ("Always".into(), Box::new(Always::new(&config))),
    ];
    let mut plane = opts.observability();
    let reports = if plane.is_active() {
        let bounded = vec![("GreFar".to_string(), DEFAULT_V, DEFAULT_BETA)];
        theory_obs::emit_theory_bounds(&config, &inputs, &bounded, &mut plane);
        sweep::run_all_observed_until(&config, &inputs, runs, &mut plane, &signal::triggered)
    } else {
        sweep::run_all(&config, &inputs, runs)
    };
    // A latched SIGTERM/SIGINT stops the sweep at a run boundary; flush
    // what completed and exit 128 + signo instead of printing torn tables.
    let plane = exit_if_signaled(plane);

    println!(
        "Fig. 4 — GreFar (V={DEFAULT_V}, beta={DEFAULT_BETA}) vs Always, {} hours, seed {}\n",
        opts.hours, opts.seed
    );
    let rows: Vec<Vec<f64>> = reports
        .iter()
        .enumerate()
        .map(|(idx, (_, r))| {
            vec![
                idx as f64, // 0 = GreFar, 1 = Always
                r.average_energy_cost(),
                r.average_fairness(),
                r.average_dc_delay(0),
                r.average_dc_delay(1),
                r.average_dc_delay(2),
            ]
        })
        .collect();
    println!("(row 0 = GreFar, row 1 = Always)");
    print_table(
        &[
            "policy",
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
    maybe_write_csv(opts.csv_path("fig4a_energy.csv"), &labels, &energy);
    let fair: Vec<&[f64]> = fairness.iter().map(Vec::as_slice).collect();
    maybe_write_csv(opts.csv_path("fig4b_fairness.csv"), &labels, &fair);
    let delay: Vec<&[f64]> = reports
        .iter()
        .map(|(_, r)| r.dc_delay[0].as_slice())
        .collect();
    maybe_write_csv(opts.csv_path("fig4c_delay_dc1.csv"), &labels, &delay);

    plane.finish();
}
