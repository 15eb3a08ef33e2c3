//! The one telemetry decoder: a live [`Event`] or a parsed JSONL object in,
//! a typed [`TelemetryEvent`] out.
//!
//! Every consumer of the stream — the live metrics fold, the offline
//! report rebuild, the alert replay — reads the same events, so they are
//! decoded once, here, and the consumers `match` on the enum. There is one
//! variant per telemetry-channel entry of [`EVENTS`](crate::schema::EVENTS),
//! which makes a consumer that forgets an event a compile error (both
//! consumers deny wildcard arms through clippy) and a registry entry the
//! decoder forgets a failing registry test.
//!
//! Decoding rules, identical for both entry points:
//!
//! * an unknown event name decodes to `Ok(None)` — events are additive
//!   within a schema version;
//! * a field the variant carries that is missing, or not of its wire type,
//!   is an `Err` naming the field; fields no consumer reads are not
//!   required;
//! * a JSON `null` in a float field reads back as NaN (the serialized form
//!   of a non-finite float), so live and offline decodes agree;
//! * integer fields are coerced from the wire number with `as u64`;
//! * undeclared keys, `schema` and `event` included, are ignored.
//!
//! Fields are read in registry order through a cursor: emitters write them
//! in that order, so the live decode of an event is one pass over its
//! field vector rather than one scan per field.

use crate::event::{Event, Value};
use crate::json::{JsonObject, JsonValue};

/// One `slot` event's deterministic payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSample {
    /// Slot index `t`.
    pub t: u64,
    /// Total backlog across all queues.
    pub queue_total: f64,
    /// Central-queue backlog `Σ_j Q_j(t)`.
    pub queue_central: f64,
    /// Local-queue backlog `Σ_{i,j} q_{i,j}(t)`.
    pub queue_local: f64,
    /// Longest single queue this slot.
    pub queue_max: f64,
    /// Metered energy cost `e(t)`.
    pub energy: f64,
    /// Metered fairness score `f(t)`.
    pub fairness: f64,
    /// Jobs arriving this slot.
    pub arrivals: f64,
    /// Jobs dropped by admission control this slot.
    pub dropped: f64,
    /// Wall time of the slot, microseconds.
    pub wall_us: f64,
}

/// One `grefar.decide` event's deterministic payload.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideSample {
    /// The cost-delay parameter `V`.
    pub v: f64,
    /// The energy-fairness parameter `β`.
    pub beta: f64,
    /// Value of the drift-plus-penalty objective (14).
    pub objective: f64,
    /// The queue-drift share of the objective.
    pub drift: f64,
    /// The `V·g(t)` penalty share of the objective.
    pub penalty: f64,
    /// Which solver produced the decision (`greedy` / `frank_wolfe`).
    pub solver: String,
    /// Frank–Wolfe iterations (0 for the greedy path).
    pub fw_iterations: u64,
    /// Final Frank–Wolfe duality gap (0 for the greedy path).
    pub fw_gap: f64,
    /// Wall time of the solve, microseconds.
    pub wall_us: f64,
}

/// One `fault.inject` event — a fault window opening (emitted once, at the
/// window's first slot).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSample {
    /// Slot the event was emitted at (the window's first slot).
    pub t: u64,
    /// Fault kind label (`outage`, `collapse`, `spike`, `gap`, `burst`,
    /// `squeeze`).
    pub kind: String,
    /// First slot of the fault window.
    pub start: u64,
    /// One past the last slot of the fault window.
    pub end: u64,
    /// Targeted data center, for DC-scoped faults.
    pub dc: Option<u64>,
}

/// One `degraded.mode` event — the scheduler fell back or repaired a
/// decision instead of failing.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSample {
    /// Slot the degradation happened at.
    pub t: u64,
    /// Machine-readable reason (`solver_budget_exhausted`,
    /// `infeasible_repaired`, `dc_offline`).
    pub reason: String,
    /// The data center involved, when the reason is DC-scoped.
    pub dc: Option<u64>,
}

/// One `decision.explain` event — per-DC provenance of one drift-plus-
/// penalty decision (eq. 14). The slot-wide fairness score and deficit
/// counters ride on the DC-0 event only.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainSample {
    /// The slot.
    pub t: u64,
    /// Data center index `i`.
    pub dc: u64,
    /// This DC's share of the drift term of (14).
    pub drift: f64,
    /// This DC's energy cost `e_i(t)`.
    pub energy: f64,
    /// Jobs routed to this DC, `Σ_j r_{i,j}`.
    pub routed: f64,
    /// Jobs processed at this DC, `Σ_j h_{i,j}`.
    pub processed: f64,
    /// Local backlog `Σ_j q_{i,j}(t)` before the decision.
    pub backlog: f64,
    /// Work scheduled, `Σ_j h_{i,j}·d_j` (LHS of constraint (11)).
    pub busy: f64,
    /// Work capacity `Σ_k n_{i,k}·s_k` (RHS of constraint (11)).
    pub capacity: f64,
    /// Slot-wide fairness score `f(t)` (DC-0 event only).
    pub fairness: Option<f64>,
    /// Comma-joined per-account deficits `γ_m − x_m` (DC-0 event only).
    pub deficits: Option<String>,
    /// Machine reason when a fallback overrode the solver for this DC or
    /// the whole slot.
    pub reason: Option<String>,
}

/// One `feed.fetch` event — a poll that failed or needed retries (clean
/// single-attempt fetches stay silent, so these samples *are* the feed
/// layer's retry/failure activity).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedFetchSample {
    /// Slot of the poll.
    pub t: u64,
    /// Feed kind label (`price`, `avail`, `arrivals`).
    pub feed: String,
    /// Targeted data center, for per-DC feeds.
    pub dc: Option<u64>,
    /// `ok` (arrived after retries) or `fail`.
    pub outcome: String,
    /// Fetch attempts spent (0 when the breaker skipped the poll).
    pub attempts: u64,
    /// Failure reason (`timeout`, `dropped`, `breaker_open`,
    /// `retries_exhausted`, `deadline`, `quarantined`), absent on `ok`.
    pub reason: Option<String>,
}

/// One `feed.breaker` event — a circuit-breaker state transition.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSample {
    /// Slot of the transition.
    pub t: u64,
    /// Feed kind label.
    pub feed: String,
    /// Targeted data center, for per-DC feeds.
    pub dc: Option<u64>,
    /// State left (`closed`, `open`, `half_open`).
    pub from: String,
    /// State entered.
    pub to: String,
}

/// One `state.stale` event — a slot scheduled on a not-fully-fresh
/// estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct StaleSample {
    /// The slot.
    pub t: u64,
    /// Number of estimated fields that were not fresh.
    pub stale_fields: u64,
    /// Largest estimate age (slots) across all fields.
    pub max_age: u64,
    /// Mean absolute error of the estimated prices vs the truth.
    pub price_mae: f64,
}

/// One `soak.ledger` event — the per-slot job-conservation ledger state.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSample {
    /// The slot.
    pub t: u64,
    /// Jobs offered (pre-admission-control) so far.
    pub offered: f64,
    /// Jobs admitted so far.
    pub admitted: f64,
    /// Jobs dropped by admission control so far.
    pub dropped: f64,
    /// Effective service so far.
    pub served: f64,
    /// Phantom work minted by over-routing so far.
    pub route_excess: f64,
    /// The realized queue total this slot.
    pub queued: f64,
    /// The signed conservation balance (zero up to accumulation on a
    /// healthy run).
    pub balance: f64,
}

/// Theorem 1 bounds attached to one labeled run (a `theory.bounds` event).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsEvent {
    /// The run label the bounds apply to.
    pub label: String,
    /// The GreFar operating point.
    pub v: f64,
    /// The energy-fairness parameter.
    pub beta: f64,
    /// The certified slackness `δ` of (20)–(22).
    pub delta: f64,
    /// Theorem 1(a): the queue bound `V·C3/δ` of (23).
    pub queue_bound: f64,
    /// Theorem 1(b): the gap bound `(B + D(T−1))/V` of (24).
    pub cost_gap_bound: f64,
    /// The frame length `T` the gap bound is stated against.
    pub frame: u64,
    /// Admissible staleness the run was certified against, when it ran
    /// behind an unreliable feed layer.
    pub stale_slots: Option<u64>,
    /// The degraded Theorem 1(a) bound `queue_bound + stale_slots·q^max`
    /// (an engineering corollary; present iff `stale_slots` is).
    pub stale_queue_bound: Option<f64>,
}

/// One decoded telemetry event: a variant per telemetry-channel entry of
/// [`EVENTS`](crate::schema::EVENTS), carrying what some consumer reads.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// `admission.accept`.
    AdmissionAccept,
    /// `admission.reject`, with why the submission was refused.
    AdmissionReject(String),
    /// `alert.fire`, with the rule that fired.
    AlertFire(String),
    /// `alert.resolve`, with the rule that cleared.
    AlertResolve(String),
    /// `checkpoint.write`, with the slot the checkpoint was cut at.
    CheckpointWrite(u64),
    /// `decision.explain`.
    DecisionExplain(ExplainSample),
    /// `degraded.mode`.
    DegradedMode(DegradedSample),
    /// `fault.inject`.
    FaultInject(FaultSample),
    /// `feed.breaker`.
    FeedBreaker(BreakerSample),
    /// `feed.fetch`.
    FeedFetch(FeedFetchSample),
    /// `feed.quarantine`.
    FeedQuarantine {
        /// The slot.
        t: u64,
        /// Feed kind label.
        feed: String,
        /// Why validation rejected the payload.
        reason: String,
    },
    /// `grefar.decide`.
    GrefarDecide(DecideSample),
    /// `health.snapshot`.
    HealthSnapshot,
    /// `invariant.violation`, with which invariant failed.
    InvariantViolation(String),
    /// `lp.solve`.
    LpSolve {
        /// Simplex pivots, phase 1 plus phase 2.
        pivots: f64,
        /// Wall time of the solve, microseconds.
        wall_us: f64,
    },
    /// `profile.span`.
    ProfileSpan,
    /// `run.end`.
    RunEnd {
        /// Jobs completed over the run.
        completed: f64,
        /// Jobs dropped over the run.
        dropped: f64,
        /// Wall time of the run, microseconds.
        wall_us: f64,
    },
    /// `run.start`.
    RunStart {
        /// The scheduler's self-description.
        scheduler: String,
        /// Planned horizon, in slots.
        horizon: u64,
    },
    /// `served.restart`, with the actor the supervisor restarted.
    ServedRestart(String),
    /// `served.start`.
    ServedStart,
    /// `served.stop`.
    ServedStop,
    /// `slot`.
    Slot(SlotSample),
    /// `soak.ledger`.
    SoakLedger(LedgerSample),
    /// `state.stale`.
    StateStale(StaleSample),
    /// `sweep.run`, with the label of the run that follows.
    SweepRun(String),
    /// `theory.bounds`.
    TheoryBounds(BoundsEvent),
}

impl TelemetryEvent {
    /// Decodes a live event. See the [module docs](self) for the rules.
    ///
    /// # Errors
    /// A field the variant carries is missing or of the wrong type.
    pub fn from_event(event: &Event) -> Result<Option<Self>, String> {
        let mut cursor = Cursor {
            fields: event.fields(),
            next: 0,
        };
        decode(event.name(), &mut cursor)
    }

    /// Decodes one parsed JSONL object, after checking its wire-format
    /// version (see [`check_version`]). See the [module docs](self) for the
    /// rules.
    ///
    /// # Errors
    /// An unsupported `schema` version, a missing `event` name, or a field
    /// the variant carries that is missing or of the wrong type.
    pub fn from_json(object: &JsonObject) -> Result<Option<Self>, String> {
        check_version(object)?;
        let name = object
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| missing("string", "event"))?;
        decode(name, &mut &*object)
    }

    /// The registered event name this variant decodes.
    pub fn name(&self) -> &'static str {
        match self {
            TelemetryEvent::AdmissionAccept => "admission.accept",
            TelemetryEvent::AdmissionReject(_) => "admission.reject",
            TelemetryEvent::AlertFire(_) => "alert.fire",
            TelemetryEvent::AlertResolve(_) => "alert.resolve",
            TelemetryEvent::CheckpointWrite(_) => "checkpoint.write",
            TelemetryEvent::DecisionExplain(_) => "decision.explain",
            TelemetryEvent::DegradedMode(_) => "degraded.mode",
            TelemetryEvent::FaultInject(_) => "fault.inject",
            TelemetryEvent::FeedBreaker(_) => "feed.breaker",
            TelemetryEvent::FeedFetch(_) => "feed.fetch",
            TelemetryEvent::FeedQuarantine { .. } => "feed.quarantine",
            TelemetryEvent::GrefarDecide(_) => "grefar.decide",
            TelemetryEvent::HealthSnapshot => "health.snapshot",
            TelemetryEvent::InvariantViolation(_) => "invariant.violation",
            TelemetryEvent::LpSolve { .. } => "lp.solve",
            TelemetryEvent::ProfileSpan => "profile.span",
            TelemetryEvent::RunEnd { .. } => "run.end",
            TelemetryEvent::RunStart { .. } => "run.start",
            TelemetryEvent::ServedRestart(_) => "served.restart",
            TelemetryEvent::ServedStart => "served.start",
            TelemetryEvent::ServedStop => "served.stop",
            TelemetryEvent::Slot(_) => "slot",
            TelemetryEvent::SoakLedger(_) => "soak.ledger",
            TelemetryEvent::StateStale(_) => "state.stale",
            TelemetryEvent::SweepRun(_) => "sweep.run",
            TelemetryEvent::TheoryBounds(_) => "theory.bounds",
        }
    }
}

/// Checks a JSONL object's `"schema"` wire-format version.
///
/// Objects without a `schema` field are accepted (streams written before
/// the format was versioned); versions above
/// [`SCHEMA_VERSION`](crate::SCHEMA_VERSION) are rejected — they were
/// written by a newer, incompatible emitter.
///
/// # Errors
/// A non-numeric, negative, fractional or unsupported version.
pub fn check_version(object: &JsonObject) -> Result<(), String> {
    let Some(value) = object.get("schema") else {
        return Ok(());
    };
    let version = value.as_f64().ok_or("non-numeric schema field")?;
    if version < 0.0 || version.fract() > 0.0 {
        return Err(format!("invalid schema version {version}"));
    }
    let version = version as u32;
    if version > crate::SCHEMA_VERSION {
        return Err(format!(
            "stream uses schema version {version}, but this tool only understands \
             versions up to {} — upgrade grefar-report",
            crate::SCHEMA_VERSION
        ));
    }
    Ok(())
}

fn missing(kind: &str, key: &str) -> String {
    format!("missing {kind} field {key:?}")
}

/// One field value as the decoder sees it, whatever the source.
enum Raw<'a> {
    Num(f64),
    Null,
    Str(&'a str),
    Other,
}

/// Where a decode reads its fields from. Implementors supply `raw`; the
/// typed readers on top of it are shared.
trait Source<'a> {
    /// The value of `key`, `None` when absent.
    fn raw(&mut self, key: &str) -> Option<Raw<'a>>;

    fn f64(&mut self, key: &str) -> Result<f64, String> {
        self.opt_f64(key)?.ok_or_else(|| missing("numeric", key))
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?.ok_or_else(|| missing("numeric", key))
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        self.opt_str(key)?.ok_or_else(|| missing("string", key))
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.raw(key) {
            None => Ok(None),
            Some(Raw::Num(value)) => Ok(Some(value)),
            Some(Raw::Null) => Ok(Some(f64::NAN)),
            Some(Raw::Str(_) | Raw::Other) => Err(missing("numeric", key)),
        }
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.raw(key) {
            None => Ok(None),
            Some(Raw::Num(value)) => Ok(Some(value as u64)),
            Some(Raw::Null | Raw::Str(_) | Raw::Other) => Err(missing("numeric", key)),
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.raw(key) {
            None => Ok(None),
            Some(Raw::Str(text)) => Ok(Some(text.to_string())),
            Some(Raw::Num(_) | Raw::Null | Raw::Other) => Err(missing("string", key)),
        }
    }
}

/// A live event's fields, read in registry order: the next field is
/// checked first, and only an out-of-order or absent key costs a scan.
struct Cursor<'a> {
    fields: &'a [(&'static str, Value)],
    next: usize,
}

impl<'a> Source<'a> for Cursor<'a> {
    fn raw(&mut self, key: &str) -> Option<Raw<'a>> {
        let at = match self.fields.get(self.next) {
            Some((name, _)) if *name == key => self.next,
            _ => self.fields.iter().position(|(name, _)| *name == key)?,
        };
        self.next = at + 1;
        Some(match &self.fields[at].1 {
            Value::U64(v) => Raw::Num(*v as f64),
            Value::I64(v) => Raw::Num(*v as f64),
            Value::F64(v) => Raw::Num(*v),
            Value::Str(s) => Raw::Str(s),
            Value::Bool(_) => Raw::Other,
        })
    }
}

impl<'a> Source<'a> for &'a JsonObject {
    fn raw(&mut self, key: &str) -> Option<Raw<'a>> {
        Some(match self.get(key)? {
            JsonValue::Number(v) => Raw::Num(*v),
            JsonValue::Null => Raw::Null,
            JsonValue::String(s) => Raw::Str(s),
            JsonValue::Bool(_) => Raw::Other,
        })
    }
}

/// The one decode body behind both entry points. Each arm reads its
/// fields in registry order (see the cursor).
fn decode<'a>(name: &str, src: &mut impl Source<'a>) -> Result<Option<TelemetryEvent>, String> {
    use TelemetryEvent as E;
    Ok(Some(match name {
        "admission.accept" => E::AdmissionAccept,
        "admission.reject" => E::AdmissionReject(src.str("reason")?),
        "alert.fire" => E::AlertFire(src.str("rule")?),
        "alert.resolve" => E::AlertResolve(src.str("rule")?),
        "checkpoint.write" => E::CheckpointWrite(src.u64("t")?),
        "decision.explain" => E::DecisionExplain(ExplainSample {
            t: src.u64("t")?,
            dc: src.u64("dc")?,
            drift: src.f64("drift")?,
            energy: src.f64("energy")?,
            routed: src.f64("routed")?,
            processed: src.f64("processed")?,
            backlog: src.f64("backlog")?,
            busy: src.f64("busy")?,
            capacity: src.f64("capacity")?,
            fairness: src.opt_f64("fairness")?,
            deficits: src.opt_str("deficits")?,
            reason: src.opt_str("reason")?,
        }),
        "degraded.mode" => E::DegradedMode(DegradedSample {
            t: src.u64("t")?,
            reason: src.str("reason")?,
            dc: src.opt_u64("dc")?,
        }),
        "fault.inject" => E::FaultInject(FaultSample {
            t: src.u64("t")?,
            kind: src.str("kind")?,
            start: src.u64("start")?,
            end: src.u64("end")?,
            dc: src.opt_u64("dc")?,
        }),
        "feed.breaker" => E::FeedBreaker(BreakerSample {
            t: src.u64("t")?,
            feed: src.str("feed")?,
            from: src.str("from")?,
            to: src.str("to")?,
            dc: src.opt_u64("dc")?,
        }),
        "feed.fetch" => E::FeedFetch(FeedFetchSample {
            t: src.u64("t")?,
            feed: src.str("feed")?,
            outcome: src.str("outcome")?,
            attempts: src.u64("attempts")?,
            dc: src.opt_u64("dc")?,
            reason: src.opt_str("reason")?,
        }),
        "feed.quarantine" => E::FeedQuarantine {
            t: src.u64("t")?,
            feed: src.str("feed")?,
            reason: src.str("reason")?,
        },
        "grefar.decide" => E::GrefarDecide(DecideSample {
            v: src.f64("v")?,
            beta: src.f64("beta")?,
            objective: src.f64("objective")?,
            drift: src.f64("drift")?,
            penalty: src.f64("penalty")?,
            solver: src.str("solver")?,
            fw_iterations: src.u64("fw_iterations")?,
            fw_gap: src.f64("fw_gap")?,
            wall_us: src.f64("wall_us")?,
        }),
        "health.snapshot" => E::HealthSnapshot,
        "invariant.violation" => E::InvariantViolation(src.str("kind")?),
        "lp.solve" => E::LpSolve {
            pivots: src.f64("pivots_phase1")? + src.f64("pivots_phase2")?,
            wall_us: src.f64("wall_us")?,
        },
        "profile.span" => E::ProfileSpan,
        "run.end" => E::RunEnd {
            completed: src.f64("completed")?,
            dropped: src.f64("dropped")?,
            wall_us: src.f64("wall_us")?,
        },
        "run.start" => E::RunStart {
            scheduler: src.str("scheduler")?,
            horizon: src.u64("horizon")?,
        },
        "served.restart" => E::ServedRestart(src.str("actor")?),
        "served.start" => E::ServedStart,
        "served.stop" => E::ServedStop,
        "slot" => {
            let t = src.u64("t")?;
            let queue_central = src.f64("queue_central")?;
            let queue_local = src.f64("queue_local")?;
            E::Slot(SlotSample {
                t,
                queue_total: queue_central + queue_local,
                queue_central,
                queue_local,
                queue_max: src.f64("queue_max")?,
                energy: src.f64("energy")?,
                fairness: src.f64("fairness")?,
                arrivals: src.f64("arrivals")?,
                dropped: src.f64("dropped")?,
                wall_us: src.f64("wall_us")?,
            })
        }
        "soak.ledger" => E::SoakLedger(LedgerSample {
            t: src.u64("t")?,
            offered: src.f64("offered")?,
            admitted: src.f64("admitted")?,
            dropped: src.f64("dropped")?,
            served: src.f64("served")?,
            route_excess: src.f64("route_excess")?,
            queued: src.f64("queued")?,
            balance: src.f64("balance")?,
        }),
        "state.stale" => E::StateStale(StaleSample {
            t: src.u64("t")?,
            stale_fields: src.u64("stale_fields")?,
            max_age: src.u64("max_age")?,
            price_mae: src.f64("price_mae")?,
        }),
        "sweep.run" => E::SweepRun(src.str("label")?),
        "theory.bounds" => E::TheoryBounds(BoundsEvent {
            label: src.str("label")?,
            v: src.f64("v")?,
            beta: src.f64("beta")?,
            delta: src.f64("delta")?,
            queue_bound: src.f64("queue_bound")?,
            cost_gap_bound: src.f64("cost_gap_bound")?,
            frame: src.u64("frame")?,
            stale_slots: src.opt_u64("stale_slots")?,
            stale_queue_bound: src.opt_f64("stale_queue_bound")?,
        }),
        _ => return Ok(None),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;
    use crate::schema::{self, Channel, EVENTS};

    /// Records every key a decode asks for, on top of a live cursor.
    struct Recording<'a> {
        cursor: Cursor<'a>,
        asked: Vec<String>,
    }

    impl<'a> Source<'a> for Recording<'a> {
        fn raw(&mut self, key: &str) -> Option<Raw<'a>> {
            self.asked.push(key.to_string());
            self.cursor.raw(key)
        }
    }

    /// The registry contract, checked in one place: every telemetry entry
    /// of `EVENTS` — required fields only, and with every optional field —
    /// decodes to `Some` of its own variant, identically from the live
    /// event and from its JSONL line, and the decoder reads no key the
    /// registry does not declare for it.
    #[test]
    fn every_telemetry_event_decodes_identically_live_and_offline() {
        let telemetry = EVENTS.iter().filter(|s| s.channel == Channel::Telemetry);
        for sch in telemetry {
            for include_optional in [false, true] {
                let event = schema::synthesize(sch, include_optional);
                let live = TelemetryEvent::from_event(&event)
                    .unwrap_or_else(|e| panic!("{}: {e}", sch.name))
                    .unwrap_or_else(|| panic!("{}: decoder does not know it", sch.name));
                assert_eq!(live.name(), sch.name);
                let object = parse_object(&event.to_json_with_schema(1)).unwrap();
                let offline = TelemetryEvent::from_json(&object)
                    .unwrap_or_else(|e| panic!("{}: {e}", sch.name));
                assert_eq!(offline.as_ref(), Some(&live), "{}", sch.name);

                let mut recording = Recording {
                    cursor: Cursor {
                        fields: event.fields(),
                        next: 0,
                    },
                    asked: Vec::new(),
                };
                decode(sch.name, &mut recording).unwrap();
                for key in &recording.asked {
                    assert!(
                        sch.required
                            .iter()
                            .chain(sch.optional)
                            .any(|f| f.name == key),
                        "{}: decoder reads undeclared field {key:?}",
                        sch.name
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_and_checkpoint_names_decode_to_none() {
        assert_eq!(
            TelemetryEvent::from_event(&Event::new("no.such.event")),
            Ok(None)
        );
        for sch in EVENTS.iter().filter(|s| s.channel == Channel::Checkpoint) {
            let event = schema::synthesize(sch, true);
            assert_eq!(TelemetryEvent::from_event(&event), Ok(None), "{}", sch.name);
        }
    }

    #[test]
    fn missing_or_mistyped_fields_are_errors_naming_the_field() {
        let event = Event::new("checkpoint.write");
        assert_eq!(
            TelemetryEvent::from_event(&event),
            Err("missing numeric field \"t\"".to_string())
        );
        let object = parse_object(r#"{"event":"sweep.run","label":3}"#).unwrap();
        assert_eq!(
            TelemetryEvent::from_json(&object),
            Err("missing string field \"label\"".to_string())
        );
        let object = parse_object(r#"{"event":"checkpoint.write","t":null}"#).unwrap();
        assert!(TelemetryEvent::from_json(&object).is_err());
        let nameless = parse_object(r#"{"t":1}"#).unwrap();
        assert_eq!(
            TelemetryEvent::from_json(&nameless),
            Err("missing string field \"event\"".to_string())
        );
    }

    #[test]
    fn json_null_floats_read_back_as_nan() {
        let event = Event::new("state.stale")
            .field("t", 3_u64)
            .field("stale_fields", 1_u64)
            .field("max_age", 2_u64)
            .field("price_mae", f64::NAN);
        let object = parse_object(&event.to_json()).unwrap();
        for decoded in [
            TelemetryEvent::from_event(&event),
            TelemetryEvent::from_json(&object),
        ] {
            match decoded {
                Ok(Some(TelemetryEvent::StateStale(sample))) => {
                    assert!(sample.price_mae.is_nan());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn cursor_tolerates_out_of_order_and_undeclared_fields() {
        let event = Event::new("run.start")
            .field("extra", true)
            .field("horizon", 9_u64)
            .field("scheduler", "g");
        assert_eq!(
            TelemetryEvent::from_event(&event),
            Ok(Some(TelemetryEvent::RunStart {
                scheduler: "g".to_string(),
                horizon: 9,
            }))
        );
    }

    #[test]
    fn schema_versions_are_checked() {
        let future = parse_object(r#"{"schema":2,"event":"checkpoint.write","t":2}"#).unwrap();
        let err = TelemetryEvent::from_json(&future).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
        for bad in [r#"{"schema":-1}"#, r#"{"schema":1.5}"#, r#"{"schema":"x"}"#] {
            assert!(check_version(&parse_object(bad).unwrap()).is_err(), "{bad}");
        }
    }
}
