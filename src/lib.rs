//! # GreFar — energy- and fairness-aware geo-distributed job scheduling
//!
//! This is the facade crate of the `grefar` workspace, a full reproduction of
//! *"Provably-Efficient Job Scheduling for Energy and Fairness in
//! Geographically Distributed Data Centers"* (Ren, He, Xu — ICDCS 2012).
//! It re-exports the workspace crates under stable module names:
//!
//! * [`types`] — domain vocabulary (server classes, job classes, accounts,
//!   states, decisions, configuration),
//! * [`lp`] — the dense two-phase simplex LP solver substrate,
//! * [`convex`] — Frank–Wolfe / projected-subgradient convex toolkit,
//! * [`cluster`] — data-center fleets, availability processes, energy model,
//! * [`trace`] — electricity-price and Cosmos-like workload generators,
//! * [`core`] — the GreFar scheduler, baselines and Theorem 1 machinery,
//! * [`faults`] — seeded fault-injection plans (outages, price spikes,
//!   arrival bursts, solver squeezes) for resilience testing,
//! * [`ingest`] — the unreliable-feed model: seeded feed disturbances,
//!   retry/backoff/circuit-breaker resilient clients, and staleness-bounded
//!   state estimation for stale-state scheduling,
//! * [`sim`] — the discrete-time simulator and experiment runner,
//! * [`obs`] — the structured telemetry layer (observers, JSONL export,
//!   timing histograms); `sim::SteppedRun` is the one slot driver and
//!   streams every slot's telemetry to the observer it is handed.
//!
//! # Quickstart
//!
//! ```
//! use grefar::prelude::*;
//!
//! // The paper's evaluation scenario: 3 data centers, 4 organizations.
//! let scenario = PaperScenario::default();
//! let config = scenario.config().clone();
//!
//! // GreFar with cost-delay parameter V = 7.5, no fairness term.
//! let scheduler = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).unwrap();
//!
//! // Simulate 48 hours.
//! let mut sim = Simulation::new(config, scenario.into_inputs(48), Box::new(scheduler));
//! let report = sim.run();
//! assert!(report.average_energy_cost() >= 0.0);
//! ```

pub use grefar_cluster as cluster;
pub use grefar_convex as convex;
pub use grefar_core as core;
pub use grefar_faults as faults;
pub use grefar_ingest as ingest;
pub use grefar_lp as lp;
pub use grefar_obs as obs;
pub use grefar_sim as sim;
pub use grefar_trace as trace;
pub use grefar_types as types;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use grefar_core::{
        Always, FairnessFunction, GreFar, GreFarParams, QueueState, Scheduler, TStepLookahead,
    };
    pub use grefar_sim::{PaperScenario, Simulation, SimulationReport};
    pub use grefar_trace::{PriceModel, WorkloadModel};
    pub use grefar_types::{
        Account, AccountId, DataCenterId, DataCenterState, Decision, Grid, JobClass, JobTypeId,
        ServerClass, ServerClassId, Slot, SystemConfig, SystemState, Tariff,
    };
}
