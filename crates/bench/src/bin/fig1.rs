//! Fig. 1: a three-day trace of (top) hourly electricity prices in the
//! three data centers and (bottom) total work of arrived jobs per
//! organization — showing time-dependent, non-stationary submissions.

use grefar_bench::{maybe_write_csv, ExperimentOpts, Flag};
use grefar_sim::PaperScenario;
use grefar_trace::{PriceTrace, WorkloadTrace};

fn main() {
    let opts = ExperimentOpts::from_args(72, &[Flag::Csv]);
    let scenario = PaperScenario::default().with_seed(opts.seed);
    let config = scenario.config().clone();

    let mut prices = scenario.price_processes();
    let price_trace = PriceTrace::generate(&mut prices, opts.hours, opts.seed);
    let mut workload = scenario.workload();
    let work_trace = WorkloadTrace::generate(&mut workload, opts.hours, opts.seed ^ 0x5eed);

    let account_of: Vec<usize> = config
        .job_classes()
        .iter()
        .map(|j| j.account().index())
        .collect();
    let by_org =
        work_trace.work_by_account(&config.work_vector(), &account_of, config.num_accounts());

    println!(
        "Fig. 1 — three-day trace of prices and arrived work ({} hours, seed {})\n",
        opts.hours, opts.seed
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "hour", "price1", "price2", "price3", "org1", "org2", "org3", "org4"
    );
    for (t, org) in by_org.iter().enumerate().take(opts.hours) {
        println!(
            "{:>6} {:>8.3} {:>8.3} {:>8.3} | {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            t,
            price_trace.tariff(0, t as u64).base_rate(),
            price_trace.tariff(1, t as u64).base_rate(),
            price_trace.tariff(2, t as u64).base_rate(),
            org[0],
            org[1],
            org[2],
            org[3],
        );
    }

    // Summary statistics (the features the paper's Fig. 1 demonstrates).
    println!("\nper-organization mean work/hour (target split 40/30/15/15 of ~97):");
    for m in 0..config.num_accounts() {
        let mean: f64 = by_org.iter().map(|row| row[m]).sum::<f64>() / by_org.len() as f64;
        println!("  {}: {:.2}", config.accounts()[m].name(), mean);
    }

    let p: Vec<Vec<f64>> = (0..3).map(|i| price_trace.rates(i)).collect();
    maybe_write_csv(
        opts.csv_path("fig1_prices.csv"),
        &["dc1", "dc2", "dc3"],
        &[&p[0], &p[1], &p[2]],
    );
    let orgs: Vec<Vec<f64>> = (0..4)
        .map(|m| by_org.iter().map(|row| row[m]).collect())
        .collect();
    maybe_write_csv(
        opts.csv_path("fig1_work.csv"),
        &["org1", "org2", "org3", "org4"],
        &[&orgs[0], &orgs[1], &orgs[2], &orgs[3]],
    );
}
