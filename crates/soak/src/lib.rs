//! Deterministic whole-system chaos soak for the GreFar workspace.
//!
//! One `u64` seed expands — through the same SplitMix64 stream the fault
//! layer uses — into a complete composed [`Scenario`](scenario::Scenario):
//! an operating point (`V`, `β`, horizon, admission cap), a data-fault
//! plan, an unreliable-feed profile, actor chaos for the daemon, a live
//! admission-traffic script, and a kill/resume cut point. The
//! [`runner`] then drives the whole system through that scenario three
//! times:
//!
//! 1. **Batch leg** — a [`SteppedRun`](grefar_sim::SteppedRun) executed
//!    slot by slot, checking the job-conservation ledger and the widened
//!    stale-aware Theorem 1(a) occupancy bound after every slot, while
//!    recording the reference telemetry stream.
//! 2. **Crash leg** — the same simulation run through
//!    [`SteppedRun::complete`](grefar_sim::SteppedRun::complete) and killed
//!    at the scenario's cut slot
//!    ([`RunPolicy::with_kill_at`](grefar_sim::RunPolicy::with_kill_at)),
//!    then [resumed](grefar_sim::SteppedRun::resume) from its checkpoint;
//!    the concatenated truncated + resumed
//!    stream must diff clean against the uninterrupted reference
//!    (`grefar-report diff` semantics, zero tolerance).
//! 3. **Daemon leg** — `grefar-served` run in-process under a manual
//!    clock, fed the scenario's traffic over its own wire protocol while
//!    the chaos plan kills and stalls its actors; the supervisor must
//!    finish with exit 0, restart exactly once per kill window, and the
//!    offline refold of the recorded telemetry must render byte-identical
//!    to the daemon's live metrics snapshot.
//!
//! Every check is an [`oracle`]. On the first violation the
//! [`shrink`] pass delta-debugs the scenario's clause list down to a
//! minimal set that still trips the *same* oracle, and [`repro`] writes a
//! canonical text file that `grefar-soak replay FILE` re-executes
//! bit-identically. A built-in mutation self-check (`grefar-soak
//! selfcheck`) corrupts one queue update behind the physics' back and
//! proves the ledger oracle catches it — a harness that cannot fail is
//! not testing anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod repro;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use oracle::{OracleKind, Violation};
pub use repro::Repro;
pub use runner::{run_scenario, SoakReport};
pub use scenario::{Clause, Scenario};
pub use shrink::shrink;
