//! Folding the workspace event stream into metric aggregates.
//!
//! [`MetricsFold`] is the single source of truth for how telemetry events
//! become Prometheus series: the live [`MetricsLayer`](crate::MetricsLayer)
//! and the offline `grefar-report metrics` rebuild both drive this type,
//! and both hand it events decoded by [`grefar_obs::decode`], so a
//! snapshot taken live and a fold of the same JSONL stream agree (the
//! kill/resume rebuild test pins this).
//!
//! Wall-clock (`_us`) fields are only folded when `include_timings` is on:
//! live snapshots want them, offline rebuilds exclude them so the output
//! is deterministic per seed (mirroring the determinism diff's `_us`
//! convention).

use std::collections::{BTreeMap, BTreeSet};

use grefar_obs::decode::{BoundsEvent, BreakerSample, DecideSample, SlotSample, TelemetryEvent};
use grefar_obs::Event;

use crate::alerts::AlertEngine;
use crate::health::{Health, Verdict};
use crate::registry::Registry;

/// Histogram bounds for microsecond timings (slot / decide / LP solve).
pub const DURATION_US_BUCKETS: &[f64] = &[
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
];

/// Per-run-label health accumulators (the queue-bound check is stated per
/// labeled run, exactly like `grefar-report analyze`).
#[derive(Debug, Clone, Default)]
struct LabelHealth {
    queue_peak: f64,
    queue_bound: Option<f64>,
    invariant_violations: u64,
    degraded_events: u64,
    stale_events: u64,
}

/// Folds the telemetry event stream into a metric [`Registry`] plus
/// [`Health`] state. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct MetricsFold {
    include_timings: bool,
    registry: Registry,
    label: String,
    per_label: BTreeMap<String, LabelHealth>,
    /// Labels that have actually seen a `run.start` (as opposed to being
    /// pre-registered by a `theory.bounds` certificate).
    runs_started: BTreeSet<String>,
    /// Latest breaker state per `(feed, dc)` key: true while open.
    breakers_open: BTreeMap<String, bool>,
    /// Latest firing state per alert rule; empty until any `alert.*`
    /// event is folded (keeps alert-free health snapshots unchanged).
    alerts_firing: BTreeMap<String, bool>,
    last_slot: u64,
    last_checkpoint: Option<u64>,
    events: u64,
}

impl MetricsFold {
    /// A fresh fold. `include_timings` controls whether `_us` fields feed
    /// duration histograms (live snapshots: yes; deterministic offline
    /// rebuilds: no).
    pub fn new(include_timings: bool) -> Self {
        MetricsFold {
            include_timings,
            registry: Registry::new(),
            label: String::new(),
            per_label: BTreeMap::new(),
            runs_started: BTreeSet::new(),
            breakers_open: BTreeMap::new(),
            alerts_firing: BTreeMap::new(),
            last_slot: 0,
            last_checkpoint: None,
            events: 0,
        }
    }

    /// Folds one live event. An event that fails to
    /// [decode](grefar_obs::decode) is counted but not folded.
    pub fn fold_event(&mut self, event: &Event) {
        self.events += 1;
        if let Ok(Some(event)) = TelemetryEvent::from_event(event) {
            self.apply(event);
        }
    }

    /// Folds a whole JSONL document, skipping blank lines.
    ///
    /// # Errors
    /// The first line that fails to parse or decode (including an
    /// unsupported `schema` version), with its line number.
    pub fn fold_jsonl(&mut self, text: &str) -> Result<usize, String> {
        self.fold_lines(None, text).map(|(folded, _)| folded)
    }

    /// The one JSONL fold loop, behind [`fold_jsonl`](Self::fold_jsonl),
    /// the resume prefold and the alert replay. With an `engine`, every
    /// `slot` event also steps it, exactly like the live layer does; the
    /// alerts it generates are returned, not folded.
    pub(crate) fn fold_lines(
        &mut self,
        mut engine: Option<&mut AlertEngine>,
        text: &str,
    ) -> Result<(usize, Vec<Event>), String> {
        let mut folded = 0usize;
        let mut generated = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = grefar_obs::json::parse_object(line)
                .and_then(|object| TelemetryEvent::from_json(&object))
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
            self.events += 1;
            folded += 1;
            let Some(event) = event else { continue };
            let is_slot = matches!(event, TelemetryEvent::Slot(_));
            self.apply(event);
            if let (true, Some(engine)) = (is_slot, engine.as_deref_mut()) {
                generated.extend(engine.evaluate(&self.health()));
            }
        }
        Ok((folded, generated))
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The metric registry built so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the registry as Prometheus text exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// The current health summary (worst verdict across labeled runs).
    pub fn health(&self) -> Health {
        let mut health = Health {
            verdict: Verdict::Ok,
            slot: self.last_slot,
            queue_peak: 0.0,
            queue_bound: None,
            occupancy_pct: None,
            invariant_violations: 0,
            degraded_events: 0,
            stale_events: 0,
            open_breakers: self.breakers_open.values().filter(|open| **open).count() as u64,
            checkpoint_age_slots: self
                .last_checkpoint
                .map(|at| self.last_slot.saturating_sub(at)),
            active_alerts: if self.alerts_firing.is_empty() {
                None
            } else {
                Some(
                    self.alerts_firing
                        .values()
                        .filter(|firing| **firing)
                        .count() as u64,
                )
            },
        };
        for accum in self.per_label.values() {
            health.invariant_violations += accum.invariant_violations;
            health.degraded_events += accum.degraded_events;
            health.stale_events += accum.stale_events;
            if accum.queue_peak > health.queue_peak {
                health.queue_peak = accum.queue_peak;
            }
            if let Some(bound) = accum.queue_bound {
                let occupancy = if bound > 0.0 {
                    100.0 * accum.queue_peak / bound
                } else {
                    100.0
                };
                if health.occupancy_pct.is_none_or(|worst| occupancy > worst) {
                    health.occupancy_pct = Some(occupancy);
                    health.queue_bound = Some(bound);
                }
            }
        }
        // Mirrors `grefar-report analyze --assert-bound`: a run violates
        // when an invariant fired or the peak queue reached the (possibly
        // stale-widened) Theorem 1(a) bound.
        let violating =
            health.invariant_violations > 0 || health.occupancy_pct.is_some_and(|pct| pct >= 100.0);
        let degraded =
            health.degraded_events > 0 || health.stale_events > 0 || health.open_breakers > 0;
        health.verdict = if violating {
            Verdict::Violating
        } else if degraded {
            Verdict::Degraded
        } else {
            Verdict::Ok
        };
        health
    }

    fn accum(&mut self) -> &mut LabelHealth {
        accum(&mut self.per_label, &self.label)
    }

    /// One arm per decoded event. The lints forbid a wildcard arm, so a new
    /// `TelemetryEvent` variant fails `cargo clippy -D warnings` until it is
    /// handled here (the second lint catches the single-variant wildcard
    /// the first one skips).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn apply(&mut self, event: TelemetryEvent<'_>) {
        use TelemetryEvent as E;
        match event {
            E::SweepRun(label) => self.label = label.into_owned(),
            E::RunStart { scheduler, horizon } => {
                // A sweep marker names the run; a bare run adopts the
                // scheduler's self-description. `runs_started` (not
                // `per_label`) decides whether the current label is free:
                // a `theory.bounds` certificate pre-registers its label's
                // health accumulator before the run begins.
                if (self.label.is_empty() || self.runs_started.contains(&self.label))
                    && !self.runs_started.contains(scheduler.as_ref())
                {
                    self.label = scheduler.into_owned();
                }
                self.runs_started.insert(self.label.clone());
                self.accum();
                self.registry.gauge_set(
                    "grefar_run_horizon_slots",
                    "Planned horizon of the labeled run, in slots.",
                    &[("scheduler", &self.label)],
                    horizon as f64,
                );
            }
            E::Slot(sample) => self.fold_slot(&sample),
            E::GrefarDecide(sample) => self.fold_decide(&sample),
            E::LpSolve { pivots, wall_us } => self.fold_lp(pivots, wall_us),
            E::RunEnd { completed, .. } => {
                self.registry.gauge_set(
                    "grefar_jobs_completed",
                    "Jobs completed over the labeled run.",
                    &[("scheduler", &self.label)],
                    completed,
                );
            }
            E::TheoryBounds(bounds) => self.fold_bounds(&bounds),
            E::FaultInject(fault) => {
                self.registry.counter_add(
                    "grefar_faults_injected_total",
                    "Fault windows opened by the injection plan.",
                    &[("scheduler", &self.label), ("kind", &fault.kind)],
                    1.0,
                );
            }
            E::DegradedMode(degraded) => {
                self.accum().degraded_events += 1;
                self.registry.counter_add(
                    "grefar_degraded_events_total",
                    "Slots the solver served through a degradation fallback.",
                    &[("scheduler", &self.label), ("reason", &degraded.reason)],
                    1.0,
                );
            }
            E::StateStale(_) => {
                self.accum().stale_events += 1;
                self.registry.counter_add(
                    "grefar_stale_slots_total",
                    "Slots decided on stale (estimated) feed state.",
                    &[("scheduler", &self.label)],
                    1.0,
                );
            }
            E::InvariantViolation(kind) => {
                self.accum().invariant_violations += 1;
                self.registry.counter_add(
                    "grefar_invariant_violations_total",
                    "Paper-invariant violations observed at runtime.",
                    &[("scheduler", &self.label), ("kind", &kind)],
                    1.0,
                );
            }
            E::SoakLedger(ledger) => {
                let labels = [("scheduler", self.label.as_str())];
                self.registry.gauge_set(
                    "grefar_ledger_balance_jobs",
                    "Signed job-conservation balance (queues minus ledger prediction).",
                    &labels,
                    ledger.balance,
                );
                self.registry.gauge_set(
                    "grefar_ledger_route_excess_jobs",
                    "Cumulative phantom work minted by over-routing.",
                    &labels,
                    ledger.route_excess,
                );
            }
            E::FeedFetch(fetch) => {
                self.registry.counter_add(
                    "grefar_feed_fetch_events_total",
                    "Noteworthy feed fetches (failures, or successes that needed retries).",
                    &[("feed", &fetch.feed), ("outcome", &fetch.outcome)],
                    1.0,
                );
            }
            E::FeedQuarantine { feed, .. } => {
                self.registry.counter_add(
                    "grefar_feed_quarantined_total",
                    "Feed payloads rejected by validation.",
                    &[("feed", &feed)],
                    1.0,
                );
            }
            E::FeedBreaker(breaker) => self.fold_breaker(&breaker),
            E::CheckpointWrite(t) => {
                self.last_checkpoint = Some(t);
                self.registry.counter_add(
                    "grefar_checkpoint_writes_total",
                    "Checkpoints written by the run policy.",
                    &[("scheduler", &self.label)],
                    1.0,
                );
            }
            E::AdmissionAccept => {
                self.registry.counter_add(
                    "grefar_admission_accepted_total",
                    "Job submissions the daemon admitted into future slots.",
                    &[],
                    1.0,
                );
            }
            E::AdmissionReject(reason) => {
                self.registry.counter_add(
                    "grefar_admission_rejected_total",
                    "Job submissions the daemon rejected (shedding, draining, malformed).",
                    &[("reason", &reason)],
                    1.0,
                );
            }
            E::ServedRestart(actor) => {
                self.registry.counter_add(
                    "grefar_actor_restarts_total",
                    "Actors the daemon's supervisor restarted after a crash or stall.",
                    &[("actor", &actor)],
                    1.0,
                );
            }
            E::AlertFire(rule) => {
                self.alerts_firing.insert(rule.to_string(), true);
                self.registry.counter_add(
                    "grefar_alerts_fired_total",
                    "Alert rules that entered the firing state.",
                    &[("rule", &rule)],
                    1.0,
                );
                self.registry.gauge_set(
                    "grefar_alert_firing",
                    "1 while the alert rule is firing, 0 otherwise.",
                    &[("rule", &rule)],
                    1.0,
                );
            }
            E::AlertResolve(rule) => {
                self.alerts_firing.insert(rule.to_string(), false);
                self.registry.counter_add(
                    "grefar_alerts_resolved_total",
                    "Alert rules that cleared after firing.",
                    &[("rule", &rule)],
                    1.0,
                );
                self.registry.gauge_set(
                    "grefar_alert_firing",
                    "1 while the alert rule is firing, 0 otherwise.",
                    &[("rule", &rule)],
                    0.0,
                );
            }
            // Introspection events carry no per-run metrics: spans are
            // profiler output, decision.explain is provenance detail the
            // decide fold already aggregates, and health snapshots are
            // *derived from* this fold — folding them back in would
            // double-count. The daemon's lifecycle brackets are likewise
            // markers only; everything countable about them (admissions,
            // restarts) arrives as its own event above.
            E::DecisionExplain(_)
            | E::ProfileSpan
            | E::HealthSnapshot
            | E::ServedStart
            | E::ServedStop => {}
        }
    }

    fn fold_slot(&mut self, slot: &SlotSample) {
        let label = self.label.as_str();
        let labels = [("scheduler", label)];
        self.last_slot = slot.t;
        self.registry
            .counter_add("grefar_slots_total", "Slots executed.", &labels, 1.0);
        self.registry.counter_add(
            "grefar_energy_cost_total",
            "Accumulated energy cost g(t).",
            &labels,
            slot.energy,
        );
        self.registry.counter_add(
            "grefar_jobs_arrived_total",
            "Jobs arrived.",
            &labels,
            slot.arrivals,
        );
        if slot.dropped > 0.0 {
            self.registry.counter_add(
                "grefar_jobs_dropped_total",
                "Jobs dropped by admission control.",
                &labels,
                slot.dropped,
            );
        }
        for (queue, backlog) in [("central", slot.queue_central), ("local", slot.queue_local)] {
            self.registry.gauge_set(
                "grefar_queue_jobs",
                "Current queue backlog, central vs local.",
                &[("scheduler", label), ("queue", queue)],
                backlog,
            );
        }
        self.registry.gauge_set(
            "grefar_queue_max_jobs",
            "Longest single queue this slot.",
            &labels,
            slot.queue_max,
        );
        let accum = accum(&mut self.per_label, label);
        if slot.queue_max > accum.queue_peak {
            accum.queue_peak = slot.queue_max;
        }
        let (peak, bound) = (accum.queue_peak, accum.queue_bound);
        self.registry.gauge_set(
            "grefar_queue_peak_jobs",
            "Peak of the longest single queue over the run.",
            &labels,
            peak,
        );
        if let Some(bound) = bound {
            set_occupancy(&mut self.registry, label, peak, bound);
        }
        if self.include_timings {
            self.registry.histogram_observe(
                "grefar_slot_duration_us",
                "Wall time per slot, microseconds.",
                DURATION_US_BUCKETS,
                &labels,
                slot.wall_us,
            );
        }
        if let Some(age) = self
            .last_checkpoint
            .map(|at| self.last_slot.saturating_sub(at))
        {
            self.registry.gauge_set(
                "grefar_checkpoint_age_slots",
                "Slots since the last checkpoint write.",
                &labels,
                age as f64,
            );
        }
    }

    fn fold_decide(&mut self, decide: &DecideSample<'_>) {
        let labels = [("scheduler", self.label.as_str())];
        self.registry.counter_add(
            "grefar_decisions_total",
            "Per-slot decisions, by solver path.",
            &[("scheduler", &self.label), ("solver", &decide.solver)],
            1.0,
        );
        if decide.fw_iterations > 0 {
            self.registry.counter_add(
                "grefar_fw_iterations_total",
                "Frank-Wolfe iterations spent.",
                &labels,
                decide.fw_iterations as f64,
            );
        }
        if self.include_timings {
            self.registry.histogram_observe(
                "grefar_decide_duration_us",
                "Wall time per drift-plus-penalty solve, microseconds.",
                DURATION_US_BUCKETS,
                &labels,
                decide.wall_us,
            );
        }
    }

    fn fold_lp(&mut self, pivots: f64, wall_us: f64) {
        let labels = [("scheduler", self.label.as_str())];
        self.registry.counter_add(
            "grefar_lp_pivots_total",
            "Simplex pivots spent by the MPC baseline.",
            &labels,
            pivots,
        );
        if self.include_timings {
            self.registry.histogram_observe(
                "grefar_lp_solve_duration_us",
                "Wall time per LP solve, microseconds.",
                DURATION_US_BUCKETS,
                &labels,
                wall_us,
            );
        }
    }

    fn fold_bounds(&mut self, bounds: &BoundsEvent<'_>) {
        let label: &str = &bounds.label;
        let bound = bounds.stale_queue_bound.unwrap_or(bounds.queue_bound);
        accum(&mut self.per_label, label).queue_bound = Some(bound);
        self.registry.gauge_set(
            "grefar_queue_bound_jobs",
            "Theorem 1(a) queue bound (stale-widened when the run declares staleness).",
            &[("scheduler", label)],
            bound,
        );
        let peak = self.per_label[label].queue_peak;
        set_occupancy(&mut self.registry, label, peak, bound);
    }

    fn fold_breaker(&mut self, breaker: &BreakerSample<'_>) {
        let feed: &str = &breaker.feed;
        let to: &str = &breaker.to;
        let dc = breaker.dc.map(|dc| dc.to_string()).unwrap_or_default();
        let state = match to {
            "closed" => 0.0,
            "half_open" => 1.0,
            "open" => 2.0,
            _ => -1.0,
        };
        self.breakers_open
            .insert(format!("{feed}/{dc}"), to == "open");
        self.registry.counter_add(
            "grefar_feed_breaker_transitions_total",
            "Circuit-breaker transitions, by target state.",
            &[("feed", feed), ("dc", &dc), ("to", to)],
            1.0,
        );
        self.registry.gauge_set(
            "grefar_feed_breaker_state",
            "Circuit-breaker state: 0 closed, 1 half-open, 2 open.",
            &[("feed", feed), ("dc", &dc)],
            state,
        );
    }
}

/// The health accumulator of `label`, created on first touch — the only
/// time the label is copied into a key.
fn accum<'m>(per_label: &'m mut BTreeMap<String, LabelHealth>, label: &str) -> &'m mut LabelHealth {
    if !per_label.contains_key(label) {
        per_label.insert(label.to_owned(), LabelHealth::default());
    }
    per_label
        .get_mut(label)
        .unwrap_or_else(|| unreachable!("inserted above"))
}

fn set_occupancy(registry: &mut Registry, label: &str, peak: f64, bound: f64) {
    let occupancy = if bound > 0.0 {
        100.0 * peak / bound
    } else {
        100.0
    };
    registry.gauge_set(
        "grefar_queue_occupancy_percent",
        "Peak queue length as a percentage of the Theorem 1(a) bound.",
        &[("scheduler", label)],
        occupancy,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_obs::Event;

    fn slot_event(t: u64, queue_max: f64) -> Event {
        Event::new("slot")
            .field("t", t)
            .field("queue_central", 4.0)
            .field("queue_local", 2.0)
            .field("queue_max", queue_max)
            .field("energy", 0.5)
            .field("fairness", 0.0)
            .field("arrivals", 3.0)
            .field("dropped", 0_u64)
            .field("wall_us", 120_u64)
    }

    fn bounds_event(queue_bound: f64) -> Event {
        Event::new("theory.bounds")
            .field("label", "g")
            .field("v", 1.0)
            .field("beta", 0.0)
            .field("delta", 2.0)
            .field("price_max", 0.8)
            .field("queue_bound", queue_bound)
            .field("cost_gap_bound", 5.0)
            .field("frame", 24_u64)
    }

    #[test]
    fn live_and_json_folds_agree() {
        let events = vec![
            Event::new("run.start")
                .field("scheduler", "GreFar")
                .field("horizon", 2_u64),
            slot_event(0, 5.0),
            slot_event(1, 7.0),
            Event::new("run.end")
                .field("slots", 2_u64)
                .field("completed", 4_u64)
                .field("dropped", 0_u64)
                .field("wall_us", 99_u64),
        ];
        let mut live = MetricsFold::new(true);
        let mut text = String::new();
        for event in &events {
            live.fold_event(event);
            text.push_str(&event.to_json_with_schema(1));
            text.push('\n');
        }
        let mut offline = MetricsFold::new(true);
        offline.fold_jsonl(&text).unwrap();
        assert_eq!(live.render(), offline.render());
        assert_eq!(
            live.registry()
                .scalar("grefar_slots_total", &[("scheduler", "GreFar")]),
            Some(2.0)
        );
    }

    #[test]
    fn jsonl_fold_rejects_future_schema_versions() {
        let text: String = (0..2)
            .map(|t| format!("{}\n", slot_event(t, 1.0).to_json_with_schema(2)))
            .collect();
        let err = MetricsFold::new(false).fold_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("schema version 2"), "{err}");
    }

    #[test]
    fn occupancy_tracks_peak_over_bound() {
        let mut fold = MetricsFold::new(false);
        fold.fold_event(
            &Event::new("run.start")
                .field("scheduler", "g")
                .field("horizon", 9_u64),
        );
        fold.fold_event(&bounds_event(20.0));
        fold.fold_event(&slot_event(0, 5.0));
        fold.fold_event(&slot_event(1, 4.0));
        let occ = fold
            .registry()
            .scalar("grefar_queue_occupancy_percent", &[("scheduler", "g")])
            .unwrap();
        assert!((occ - 25.0).abs() < 1e-9, "{occ}");
        let health = fold.health();
        assert_eq!(health.verdict, Verdict::Ok);
        assert!((health.queue_peak - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stale_widened_bound_is_preferred() {
        let mut fold = MetricsFold::new(false);
        fold.fold_event(
            &bounds_event(10.0)
                .field("stale_slots", 2_u64)
                .field("stale_queue_bound", 30.0),
        );
        assert_eq!(
            fold.registry()
                .scalar("grefar_queue_bound_jobs", &[("scheduler", "g")]),
            Some(30.0)
        );
    }

    #[test]
    fn verdict_degrades_and_violates() {
        let mut fold = MetricsFold::new(false);
        fold.fold_event(
            &Event::new("run.start")
                .field("scheduler", "g")
                .field("horizon", 9_u64),
        );
        assert_eq!(fold.health().verdict, Verdict::Ok);
        fold.fold_event(
            &Event::new("degraded.mode")
                .field("t", 3_u64)
                .field("reason", "offline_dc"),
        );
        assert_eq!(fold.health().verdict, Verdict::Degraded);
        fold.fold_event(
            &Event::new("invariant.violation")
                .field("t", 4_u64)
                .field("kind", "capacity")
                .field("detail", "x"),
        );
        assert_eq!(fold.health().verdict, Verdict::Violating);
    }

    #[test]
    fn breaker_state_round_trips() {
        let mut fold = MetricsFold::new(false);
        fold.fold_event(
            &Event::new("feed.breaker")
                .field("t", 5_u64)
                .field("feed", "price")
                .field("dc", 1_u64)
                .field("from", "closed")
                .field("to", "open"),
        );
        assert_eq!(fold.health().open_breakers, 1);
        assert_eq!(
            fold.registry().scalar(
                "grefar_feed_breaker_state",
                &[("feed", "price"), ("dc", "1")]
            ),
            Some(2.0)
        );
        fold.fold_event(
            &Event::new("feed.breaker")
                .field("t", 9_u64)
                .field("feed", "price")
                .field("dc", 1_u64)
                .field("from", "open")
                .field("to", "half_open"),
        );
        assert_eq!(fold.health().open_breakers, 0);
    }

    #[test]
    fn timings_are_excluded_unless_requested() {
        let mut with = MetricsFold::new(true);
        let mut without = MetricsFold::new(false);
        with.fold_event(&slot_event(0, 1.0));
        without.fold_event(&slot_event(0, 1.0));
        assert!(with.render().contains("grefar_slot_duration_us"));
        assert!(!without.render().contains("grefar_slot_duration_us"));
    }

    #[test]
    fn alert_events_track_firing_state() {
        let mut fold = MetricsFold::new(false);
        assert_eq!(fold.health().active_alerts, None);
        fold.fold_event(
            &Event::new("alert.fire")
                .field("t", 3_u64)
                .field("rule", "deg")
                .field("signal", "degraded_events")
                .field("value", 2.0)
                .field("threshold", 0.0)
                .field("for_slots", 1_u64),
        );
        assert_eq!(fold.health().active_alerts, Some(1));
        assert_eq!(
            fold.registry()
                .scalar("grefar_alert_firing", &[("rule", "deg")]),
            Some(1.0)
        );
        fold.fold_event(
            &Event::new("alert.resolve")
                .field("t", 7_u64)
                .field("rule", "deg")
                .field("value", 0.0)
                .field("fired_at", 3_u64),
        );
        assert_eq!(fold.health().active_alerts, Some(0));
        assert_eq!(
            fold.registry()
                .scalar("grefar_alerts_resolved_total", &[("rule", "deg")]),
            Some(1.0)
        );
    }

    #[test]
    fn checkpoint_age_tracks_slots_since_write() {
        let mut fold = MetricsFold::new(false);
        fold.fold_event(&slot_event(0, 1.0));
        assert_eq!(fold.health().checkpoint_age_slots, None);
        fold.fold_event(&Event::new("checkpoint.write").field("t", 1_u64));
        fold.fold_event(&slot_event(1, 1.0));
        fold.fold_event(&slot_event(2, 1.0));
        assert_eq!(fold.health().checkpoint_age_slots, Some(1));
        let age = fold
            .registry()
            .scalar("grefar_checkpoint_age_slots", &[("scheduler", "")])
            .unwrap();
        assert!((age - 1.0).abs() < 1e-12);
    }
}
