//! Extended policy comparison beyond Fig. 4: GreFar against the full
//! baseline family on identical inputs —
//!
//! * `Always`    — serve immediately (§VI-B.3),
//! * `LocalOnly` — no geo-scheduling (each type stays in its home DC),
//! * `PriceGreedy` — spatially greedy, temporally blind (the §II "local
//!   optimization at each time period" strawman),
//! * `GreFar`    — β = 0 and β = 100 at V = 7.5,
//! * `MPC`       — receding-horizon planning with an oracle forecast
//!   (what §II's prediction-based approaches could at best achieve).

use grefar_bench::{
    apply_fault_plan, exit_if_signaled, print_table, signal, ExperimentOpts, Flag, DEFAULT_BETA,
    DEFAULT_V,
};
use grefar_core::{Always, GreFar, GreFarParams, LocalOnly, PriceGreedy, Scheduler};
use grefar_sim::{sweep, theory_obs, MpcScheduler, PaperScenario};

fn print_comparison(title: &str, reports: &[(String, grefar_sim::SimulationReport)]) {
    println!("{title}\n");
    println!(
        "{:<14} {:>11} {:>11} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "policy",
        "avg_energy",
        "fairness",
        "delay_dc1",
        "p95_dc1",
        "delay_dc2",
        "delay_dc3",
        "max_queue"
    );
    for (label, r) in reports {
        println!(
            "{label:<14} {:>11.3} {:>11.4} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.0}",
            r.average_energy_cost(),
            r.average_fairness(),
            r.average_dc_delay(0),
            r.dc_delay_quantiles[0].p95,
            r.average_dc_delay(1),
            r.average_dc_delay(2),
            r.max_queue_length(),
        );
    }
    println!();
}

fn main() {
    signal::install();
    let opts = ExperimentOpts::from_args(500, &[Flag::Faults, Flag::Observability]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = apply_fault_plan(scenario.clone().into_inputs(opts.hours), &opts);

    let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("Always".into(), Box::new(Always::new(&config))),
        ("LocalOnly".into(), Box::new(LocalOnly::new(&config))),
        ("PriceGreedy".into(), Box::new(PriceGreedy::new(&config))),
        (
            "GreFar b=0".into(),
            Box::new(GreFar::new(&config, GreFarParams::new(DEFAULT_V, 0.0)).expect("valid")),
        ),
        (
            "GreFar b=100".into(),
            Box::new(
                GreFar::new(&config, GreFarParams::new(DEFAULT_V, DEFAULT_BETA)).expect("valid"),
            ),
        ),
        (
            "MPC oracle".into(),
            Box::new(MpcScheduler::new(&config, inputs.clone(), 6, 0.02)),
        ),
    ];
    let mut plane = opts.observability();
    let reports = if plane.is_active() {
        let bounded = vec![
            ("GreFar b=0".to_string(), DEFAULT_V, 0.0),
            ("GreFar b=100".to_string(), DEFAULT_V, DEFAULT_BETA),
        ];
        theory_obs::emit_theory_bounds(&config, &inputs, &bounded, &mut plane);
        sweep::run_all_observed_until(&config, &inputs, runs, &mut plane, &signal::triggered)
    } else {
        sweep::run_all(&config, &inputs, runs)
    };
    // A latched SIGTERM/SIGINT stops the sweep at a run boundary; flush
    // what completed and exit 128 + signo instead of printing torn tables.
    let mut plane = exit_if_signaled(plane);
    print_comparison(
        &format!(
            "Policy comparison, nominal load (≈22% utilization), {} hours, seed {}",
            opts.hours, opts.seed
        ),
        &reports,
    );
    println!(
        "at nominal load every policy keeps up; spatially-greedy policies look\n\
         strong on energy because capacity is abundant everywhere\n"
    );

    // Capacity pressure: 2.5x load. Spatially greedy policies herd the
    // whole load onto one site and melt down; GreFar's queue-driven routing
    // keeps delays bounded.
    let heavy = PaperScenario::default()
        .with_seed(opts.seed)
        .with_load_scale(2.5);
    let heavy_config = heavy.config().clone();
    let heavy_hours = opts.hours.min(500);
    let heavy_inputs = apply_fault_plan(heavy.into_inputs(heavy_hours), &opts);
    let heavy_runs: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("Always".into(), Box::new(Always::new(&heavy_config))),
        ("LocalOnly".into(), Box::new(LocalOnly::new(&heavy_config))),
        (
            "PriceGreedy".into(),
            Box::new(PriceGreedy::new(&heavy_config)),
        ),
        (
            "GreFar b=0".into(),
            Box::new(GreFar::new(&heavy_config, GreFarParams::new(DEFAULT_V, 0.0)).expect("valid")),
        ),
    ];
    let heavy_reports = if plane.is_active() {
        let bounded = vec![("GreFar b=0".to_string(), DEFAULT_V, 0.0)];
        theory_obs::emit_theory_bounds(&heavy_config, &heavy_inputs, &bounded, &mut plane);
        sweep::run_all_observed_until(
            &heavy_config,
            &heavy_inputs,
            heavy_runs,
            &mut plane,
            &signal::triggered,
        )
    } else {
        sweep::run_all(&heavy_config, &heavy_inputs, heavy_runs)
    };
    // Same boundary check after the heavy phase.
    let plane = exit_if_signaled(plane);
    print_comparison(
        &format!(
            "Policy comparison, 2.5x load (≈55% utilization), {heavy_hours} hours, seed {}",
            opts.seed
        ),
        &heavy_reports,
    );

    let by = |reports: &[(String, grefar_sim::SimulationReport)], l: &str| -> f64 {
        reports
            .iter()
            .find(|(label, _)| label == l)
            .map(|(_, r)| r.dc_delay_quantiles[0].p95.max(r.dc_delay_quantiles[1].p95))
            .expect("label exists")
    };
    let rows = vec![vec![
        by(&heavy_reports, "GreFar b=0"),
        by(&heavy_reports, "Always"),
        by(&heavy_reports, "LocalOnly"),
        by(&heavy_reports, "PriceGreedy"),
    ]];
    println!("worst p95 delay across DC1/DC2 under 2.5x load:");
    print_table(&["grefar", "always", "local_only", "price_greedy"], &rows);
    println!(
        "\nunder capacity pressure, home-pinning (LocalOnly) and price-herding\n\
         (PriceGreedy) build deep queues at single sites; GreFar's queue-aware\n\
         routing spreads load and keeps tail delays bounded (Theorem 1a)"
    );

    plane.finish();
}
