//! `grefar-served` — a supervised, crash-safe scheduling daemon around the
//! GreFar engine.
//!
//! The experiment binaries run Algorithm 1 as a batch loop; this crate
//! runs it as a *service*: a typed actor system under a supervision tree,
//! accepting live job submissions over TCP while the slot loop advances on
//! a configurable clock.
//!
//! ## Actors
//!
//! Three actors, each with exactly one inbox:
//!
//! * **admission** ([`admission`]) — the TCP front door: line-delimited
//!   JSON requests ([`protocol`]), bounded forwarding to the state keeper
//!   (backpressure surfaces as typed `queue_full` rejections), reply
//!   routing by connection id. Every one of its threads blocks on I/O: a
//!   writer on the inbox, an acceptor in `accept` and one reader per
//!   connection in `read`.
//! * **state keeper** ([`state_keeper`]) — sole owner of Θ(t) and the
//!   [`SteppedRun`](grefar_sim::SteppedRun) engine; drives the per-slot
//!   GreFar decision on a manual/turbo/real-time clock, journals accepted
//!   submissions *before* acking ([`journal`]), and cuts checkpoints on a
//!   slot cadence. With `--feeds`, the engine's own feed harness runs
//!   inside the slot step on this thread.
//! * **telemetry** ([`telemetry`]) — the single writer of the JSONL event
//!   stream, the metrics fold, and the alert engine. Its channel carries
//!   events and the actor's own controls; counters, gauges and histogram
//!   samples never cross it.
//!
//! ## Crash safety
//!
//! The supervisor ([`supervisor`]) restarts a panicked actor with
//! exponential backoff under a restart-intensity budget, rebuilding it
//! from shared state: the engine is reconstructed from the frozen base
//! inputs + admission journal + last checkpoint ([`engine`]), then caught
//! up silently to the telemetry watermark, so the event stream carries
//! every slot exactly once. A `kill -9` of the whole process loses nothing
//! acknowledged: restart with `--resume` and the merged stream is
//! diff-clean against an uninterrupted run.
//!
//! Deterministic chaos ([`chaos`]) extends the `grefar_faults` DSL with
//! `kill:actor=…` / `stall:actor=…,ms=…` / `sockdrop:…` clauses keyed to
//! slots, making supervision behaviour exactly reproducible.
//!
//! The one `unsafe` in the workspace lives in [`signal`] (two libc
//! `signal(2)` registrations); everything else is `#![deny(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod engine;
pub mod journal;
pub mod port;
pub mod protocol;
pub mod signal;
pub mod state_keeper;
pub mod supervisor;
pub mod telemetry;

pub use chaos::ChaosPlan;
pub use engine::{EngineSpec, SchedulerSpec};
pub use journal::{Journal, JournalEntry};
pub use port::Swap;
pub use state_keeper::{Clock, SkExit};
pub use supervisor::{run_daemon, DaemonOptions, RestartPolicy};
pub use telemetry::{truncate_for_resume, TruncateOutcome};
