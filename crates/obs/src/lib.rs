//! `grefar-obs` — structured telemetry for the GreFar workspace.
//!
//! The paper's argument is a set of per-slot time series (energy `e(t)`,
//! fairness `f(t)`, `O(V)` queue bounds), yet a simulation run used to be
//! observable only through its final [`SimulationReport`]. This crate adds
//! a first-class instrumentation seam with **zero external dependencies**:
//!
//! * [`Event`] — a named, flat record of typed fields ([`Value`]), with a
//!   hand-rolled JSON serializer (no serde);
//! * [`Observer`] — the sink trait: structured events plus
//!   counter / gauge / histogram primitives and duration recording;
//! * [`NullObserver`] — the default sink; reports `enabled() == false` so
//!   instrumented hot paths can skip event construction entirely;
//! * [`MemoryObserver`] — in-memory aggregation: event counts, counters,
//!   gauges and [`Histogram`]s with [`Quantiles`], plus a rendered
//!   end-of-run [summary table](MemoryObserver::summary);
//! * [`JsonlSink`] — line-delimited JSON export of the event stream;
//! * [`Tee`] — fan-out to two sinks (e.g. memory aggregation + JSONL);
//! * [`Timer`] — monotonic wall-clock spans for per-solve / per-slot
//!   timing histograms;
//! * [`SpanProfiler`] — hierarchical span attribution over the
//!   `span_enter` / `span_exit` / `span_leaf` observer hooks, with a
//!   deterministic logical clock ([`SpanClock`]) and folded-stack
//!   flamegraph export;
//! * [`json`] — a minimal parser for the emitted JSONL (round-trip tests,
//!   offline tooling);
//! * [`decode`] — the one decoder every stream consumer shares: a live
//!   [`Event`] or a parsed JSONL line in, a typed
//!   [`TelemetryEvent`](decode::TelemetryEvent) out.
//!
//! # Event schema used by the workspace
//!
//! The full event contract — every name, its channel, and its
//! required/optional fields — is declared as data in [`schema::EVENTS`].
//! This file used to carry a hand-maintained table of the same facts; it
//! drifted (it claimed a `degraded_slots` field the code never emitted),
//! so the registry is now the single source of truth. `grefar-verify`'s
//! `event-schema` pass statically checks every construction site against
//! it (see DESIGN.md, "Correctness tooling"), and [`decode`] turns events
//! back into one typed variant per registered name, which its registry
//! test checks against [`schema::synthesize`]d events.
//!
//! Timing fields are suffixed `_us` (microseconds); everything else is
//! deterministic for a fixed seed, which the determinism suite asserts by
//! comparing two runs' streams with `_us` fields stripped.
//!
//! Every JSONL line additionally leads with `"schema":N` — the wire-format
//! version ([`SCHEMA_VERSION`]) that offline consumers (`grefar-report`)
//! check before interpreting a stream.
//!
//! # Example
//!
//! ```
//! use grefar_obs::{Event, JsonlSink, MemoryObserver, Observer, Tee, Timer};
//!
//! let mut memory = MemoryObserver::new();
//! let mut sink = JsonlSink::new(Vec::new());
//! {
//!     let mut obs = Tee::new(&mut memory, &mut sink);
//!     let timer = Timer::start();
//!     obs.record_event(Event::new("slot").field("t", 0_u64).field("energy", 1.5));
//!     obs.record_duration("slot.wall_us", timer.elapsed());
//!     obs.add_counter("slots", 1);
//! }
//! assert_eq!(memory.event_count("slot"), 1);
//! assert_eq!(memory.counter("slots"), 1);
//! let line = String::from_utf8(sink.into_inner()).unwrap();
//! assert!(line.starts_with("{\"schema\":1,\"event\":\"slot\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
mod event;
mod histogram;
pub mod json;
mod jsonl;
mod memory;
mod observer;
pub mod schema;
mod span;
mod timer;

pub use event::{Event, Value};

/// The JSONL wire-format version stamped onto every line written by
/// [`JsonlSink`]. Bump when an emitted event's meaning changes
/// incompatibly; consumers must reject streams with a larger version.
pub const SCHEMA_VERSION: u32 = 1;
pub use histogram::{Histogram, Quantiles};
pub use jsonl::JsonlSink;
pub use memory::MemoryObserver;
pub use observer::{NullObserver, Observer, Tee};
pub use span::{folded_from, span_id, span_parent, SpanClock, SpanProfiler, SpanStat};
pub use timer::Timer;
