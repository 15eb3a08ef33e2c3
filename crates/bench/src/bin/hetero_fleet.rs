//! Ablation: heterogeneous fleets (`K > 1` server classes *per data
//! center*). §III-A motivates heterogeneity — "data centers operate several
//! generations of servers from multiple vendors" — and §I's key idea (1) is
//! to "preferentially shift power draw to energy-efficient servers". This
//! experiment compares a homogeneous fleet against a mixed fleet of equal
//! total capacity and shows the min-power dispatch exploiting the efficient
//! generation first.

use grefar_bench::{print_table, ExperimentOpts, DEFAULT_V};
use grefar_cluster::{AvailabilityProcess, FullAvailability};
use grefar_core::{GreFar, GreFarParams};
use grefar_sim::{Simulation, SimulationInputs};
use grefar_trace::{CosmosLikeWorkload, DiurnalPriceModel, JobArrivalSpec, PriceProcess};
use grefar_types::{DataCenterId, JobClass, ServerClass, SystemConfig};

/// One data center, capacity 60 work-units/hour, two variants.
fn build(mixed: bool) -> SystemConfig {
    // Old generation: speed 1.0, power 1.2 (1.2 power/work).
    // New generation: speed 1.5, power 1.2 (0.8 power/work).
    let mut builder = SystemConfig::builder()
        .server_class(ServerClass::new(1.0, 1.2))
        .server_class(ServerClass::new(1.5, 1.2));
    builder = if mixed {
        // 30 + 20·1.5 = 60 capacity.
        builder.data_center("mixed", vec![30.0, 20.0])
    } else {
        // 60 old servers = 60 capacity.
        builder.data_center("uniform", vec![60.0, 0.0])
    };
    builder
        .account("tenant", 1.0)
        .job_class(
            JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                .with_max_arrivals(40.0)
                .with_max_route(60.0)
                .with_max_process(80.0),
        )
        .build()
        .expect("valid configuration")
}

fn run(mixed: bool, hours: usize, seed: u64) -> (f64, f64) {
    let config = build(mixed);
    let mut prices: Vec<Box<dyn PriceProcess + Send>> = vec![Box::new(
        DiurnalPriceModel::new(0.4, 0.08, 24.0, 6.0).with_noise(0.5, 0.02),
    )];
    let mut availability: Vec<Box<dyn AvailabilityProcess + Send>> =
        vec![Box::new(FullAvailability)];
    let mut workload =
        CosmosLikeWorkload::new(vec![JobArrivalSpec::diurnal(20.0, 0.5, 14.0, 45.0)], 24.0);
    let inputs = SimulationInputs::generate(
        &config,
        hours,
        seed,
        &mut prices,
        &mut availability,
        &mut workload,
    );
    let g = GreFar::new(&config, GreFarParams::new(DEFAULT_V, 0.0)).expect("valid");
    let report = Simulation::new(config, inputs, Box::new(g)).run();
    (report.average_energy_cost(), report.average_dc_delay(0))
}

fn main() {
    let opts = ExperimentOpts::from_args(24 * 40, &[]);

    let (uniform_energy, uniform_delay) = run(false, opts.hours, opts.seed);
    let (mixed_energy, mixed_delay) = run(true, opts.hours, opts.seed);

    println!(
        "Heterogeneous-fleet ablation (equal capacity 60 work/h), {} hours, seed {}\n",
        opts.hours, opts.seed
    );
    println!("(row 0 = uniform old-generation fleet, row 1 = mixed old+new fleet)");
    print_table(
        &["fleet", "avg_energy", "avg_delay"],
        &[
            vec![0.0, uniform_energy, uniform_delay],
            vec![1.0, mixed_energy, mixed_delay],
        ],
    );

    let saving = 100.0 * (1.0 - mixed_energy / uniform_energy);
    println!(
        "\nthe mixed fleet serves off-peak load entirely on the efficient generation\n\
         (0.8 vs 1.2 power/work) and only spills onto the old one at peaks:\n\
         {saving:.1}% energy saved at equal capacity and comparable delay"
    );
    assert!(
        mixed_energy < uniform_energy,
        "the efficient generation must reduce energy"
    );
}
