//! Fig. 5: a one-day snapshot of DC #1 — (top) the electricity price and
//! (bottom) the work GreFar vs Always schedule there each hour
//! (β = 0, V = 7.5).
//!
//! Expected shape (§VI-B.3): Always tracks arrivals regardless of price;
//! GreFar concentrates its work in the low-price hours.

use grefar_bench::{maybe_write_csv, ExperimentOpts, Flag, DEFAULT_V};
use grefar_core::{Always, GreFar, GreFarParams, Scheduler};
use grefar_sim::{sweep, PaperScenario};

fn main() {
    // Simulate several days of warm-up, then show one day.
    let opts = ExperimentOpts::from_args(24 * 8, &[Flag::Csv]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(opts.hours);

    let runs: Vec<(String, Box<dyn Scheduler>)> = vec![
        (
            "GreFar".into(),
            Box::new(
                GreFar::new(&config, GreFarParams::new(DEFAULT_V, 0.0)).expect("valid parameters"),
            ),
        ),
        ("Always".into(), Box::new(Always::new(&config))),
    ];
    let reports = sweep::run_all(&config, &inputs, runs);
    let grefar = &reports[0].1;
    let always = &reports[1].1;

    // The displayed window: the last full day.
    let end = opts.hours;
    let start = end - 24;

    println!(
        "Fig. 5 — one-day snapshot of DC #1 (beta = 0, V = {DEFAULT_V}), hours {start}..{end}, seed {}\n",
        opts.seed
    );
    println!(
        "{:>6} {:>9} {:>14} {:>14}",
        "hour", "price", "work_grefar", "work_always"
    );
    for t in start..end {
        println!(
            "{:>6} {:>9.3} {:>14.2} {:>14.2}",
            t - start,
            grefar.prices[0][t],
            grefar.work_per_dc[0].instant()[t],
            always.work_per_dc[0].instant()[t],
        );
    }

    // Quantify the visual claim over the whole run: the *work-weighted*
    // average price each policy pays in DC #1, against the plain
    // time-average price. Price-chasing shows up as weighted < unweighted;
    // a price-blind policy pays ≈ the (arrival-weighted) average.
    let window = start..end;
    let price: Vec<f64> = window.clone().map(|t| grefar.prices[0][t]).collect();
    let gw: Vec<f64> = window
        .clone()
        .map(|t| grefar.work_per_dc[0].instant()[t])
        .collect();
    let aw: Vec<f64> = window.map(|t| always.work_per_dc[0].instant()[t]).collect();
    let weighted = |report: &grefar_sim::SimulationReport| -> f64 {
        let w = report.work_per_dc[0].instant();
        let p = &report.prices[0];
        let total: f64 = w.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        w.iter().zip(p).map(|(wi, pi)| wi * pi).sum::<f64>() / total
    };
    let mean_price: f64 = grefar.prices[0].iter().sum::<f64>() / grefar.prices[0].len() as f64;
    let grefar_paid = weighted(grefar);
    println!("\nDC #1 work-weighted average price over the whole run:");
    println!("  time-average price: {mean_price:.4}");
    println!("  GreFar pays:        {grefar_paid:.4}  (below average: rides the dips)");
    println!(
        "  Always pays:        {:.4}  (price-blind)",
        weighted(always)
    );

    maybe_write_csv(
        opts.csv_path("fig5_snapshot.csv"),
        &["price_dc1", "work_grefar", "work_always"],
        &[&price, &gw, &aw],
    );
}
