//! Live observability plane for the GreFar workspace: a Prometheus-text
//! metrics registry, an event-stream fold that populates it, health
//! snapshots, and a minimal `GET /metrics` / `GET /healthz` listener.
//!
//! Everything here is derived from the one telemetry event stream the
//! rest of the workspace already emits (see `grefar-obs`): no
//! instrumented crate talks to this crate directly. That keeps the
//! metric surface rebuildable offline — `grefar-report metrics run.jsonl`
//! folds the same events through the same [`MetricsFold`] and produces
//! the same series the live run exposed.
//!
//! Layout:
//! - [`Registry`] — counter / gauge / histogram families with labels,
//!   rendered as Prometheus text exposition format 0.0.4.
//! - [`MetricsFold`] — the decoded-event → metric mapping (one place,
//!   shared by the live layer and the offline rebuild).
//! - [`Health`] / [`Verdict`] — the `ok` / `degraded` / `violating`
//!   summary behind `/healthz` and the `health.snapshot` event, aligned
//!   with `grefar-report analyze --assert-bound`.
//! - [`MetricsLayer`] — the live `Observer` middleware: folds, forwards,
//!   and snapshots on a slot cadence.
//! - [`alerts`] — the declarative alerting/SLO engine (threshold, ratio
//!   and burn-rate rules over the fold), evaluated identically live and
//!   in the offline `grefar-report alerts` replay.
//! - [`MetricsServer`] — the blocking std-`TcpListener` endpoint
//!   (`/metrics`, `/healthz`, `/alerts`).
//! - [`lint`] — a hand-rolled exposition-format lint doubling as the
//!   executable spec of the workspace metric naming conventions.
//!
//! Zero dependencies beyond `grefar-obs`, `#![forbid(unsafe_code)]`, and
//! deterministic rendering throughout (`BTreeMap` ordering everywhere).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
mod fold;
mod health;
mod http;
mod layer;
mod lint;
mod registry;

pub use alerts::{parse_rules, AlertEngine, AlertRule};
pub use fold::{MetricsFold, DURATION_US_BUCKETS};
pub use health::{Health, Verdict};
pub use http::MetricsServer;
pub use layer::{
    shared_handle, MetricsConfig, MetricsLayer, SharedHandle, SharedSnapshot, SnapshotSink,
};
pub use lint::lint;
pub use registry::{MetricKind, Registry};
