//! Deterministic fault-injection plans for GreFar simulations.
//!
//! The paper's model is built on *time-varying* server availability
//! `n_{i,k}(t)` (§III-A.1) and volatile electricity prices (§III-A.2); this
//! crate drives those variations into the hostile regime on purpose. A
//! [`FaultPlan`] is a list of timed faults — correlated data-center outage
//! windows, availability collapses, price spikes, price-feed gaps, arrival
//! bursts and solver-budget squeezes, plus runtime-only *chaos* clauses
//! (actor kills, stalls, socket drops) consumed by `grefar-served`'s
//! supervisor — that is
//!
//! * **fully deterministic**: a plan is a pure value; applying it to frozen
//!   inputs is a pure transformation. The correlated-outage generator is
//!   seeded ([`FaultPlan::correlated_outages`]) and uses no wall clock or
//!   ambient randomness, the same rules `grefar-verify` enforces on the
//!   decision crates;
//! * **replayable from a compact spec**: [`FaultPlan::parse`] /
//!   [`FaultPlan::spec`] round-trip a plan through a one-line string such as
//!   `outage:dc=2,start=120,end=144;squeeze:iters=2,start=100,end=200`, so
//!   a run (or a checkpoint) can carry its fault schedule verbatim;
//! * **composable over any scenario**: [`FaultPlan::apply`] rewrites an
//!   explicit state/arrival horizon in place, so the same plan layers over
//!   the paper scenario, CSV replays or hand-built inputs.
//!
//! All windows are half-open slot ranges `[start, end)`.
//!
//! # Example
//! ```
//! use grefar_faults::{Fault, FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("outage:dc=0,start=5,end=8;burst:factor=2,start=6,end=7").unwrap();
//! assert_eq!(plan.faults().len(), 2);
//! assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
//! assert!(plan.active_at(6).count() == 2);
//! assert_eq!(plan.fw_budget_at(6), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use grefar_types::{DataCenterState, SystemState};

/// A malformed or inapplicable fault plan (bad spec syntax, out-of-range
/// indices, inverted windows, invalid magnitudes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    message: String,
}

impl FaultPlanError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl std::error::Error for FaultPlanError {}

/// What a single fault does. See the module docs for the DSL spelling of
/// each variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// `outage:dc=I` — data center `I` loses *all* servers
    /// (`n_{I,k}(t) = 0` throughout the window).
    DcOutage {
        /// The affected data center.
        dc: usize,
    },
    /// `collapse:dc=I,fraction=F` — availability of data center `I` is
    /// multiplied by `F ∈ [0, 1]` (a partial capacity loss).
    AvailabilityCollapse {
        /// The affected data center.
        dc: usize,
        /// Multiplier applied to every per-class availability.
        fraction: f64,
    },
    /// `spike:dc=I,factor=F` — every marginal electricity rate of data
    /// center `I` is multiplied by `F > 0`.
    PriceSpike {
        /// The affected data center.
        dc: usize,
        /// Multiplier applied to the tariff's marginal rates.
        factor: f64,
    },
    /// `gap:dc=I` — the price feed of data center `I` goes dark: the tariff
    /// is held at its last value before the window (stale data).
    PriceGap {
        /// The affected data center.
        dc: usize,
    },
    /// `burst:factor=F[,job=J]` — arrivals are multiplied by `F > 0` and
    /// re-rounded to whole jobs, for one job class or for all of them.
    ArrivalBurst {
        /// The affected job class, or `None` for all classes.
        job: Option<usize>,
        /// Multiplier applied to the arrival counts.
        factor: f64,
    },
    /// `squeeze:iters=N` — the scheduler's per-slot Frank–Wolfe iteration
    /// budget is capped at `N ≥ 1` (models a slot deadline under load; see
    /// `grefar_core::SolverBudget`).
    SolverSqueeze {
        /// Maximum Frank–Wolfe iterations per slot.
        max_fw_iters: usize,
    },
    /// `kill:actor=A` — chaos clause: the daemon's supervisor target `A`
    /// is killed at every slot boundary inside the window. Runtime-only
    /// (no effect on frozen inputs); see `grefar-served --chaos`.
    ActorKill {
        /// The actor to kill.
        actor: ActorTarget,
    },
    /// `stall:actor=A,ms=M` — chaos clause: actor `A` stalls for `M ≥ 1`
    /// milliseconds at each slot boundary inside the window (exercises the
    /// per-slot deadline budget). Runtime-only.
    ActorStall {
        /// The actor to stall.
        actor: ActorTarget,
        /// Stall duration per slot, in milliseconds.
        ms: u64,
    },
    /// `sockdrop` — chaos clause: the admission socket drops every open
    /// client connection at each slot boundary inside the window.
    /// Runtime-only.
    SocketDrop,
}

/// Which daemon actor a chaos clause targets: one of the three actors
/// under `grefar-served`'s supervisor, spelled `admission`,
/// `state_keeper` and `telemetry` in the DSL. The engine's feed harness
/// runs inside the state keeper's slot step, so feeds are no target of
/// their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorTarget {
    /// The admission (socket front-end) actor.
    Admission,
    /// The state-keeper actor owning `Θ(t)` and the slot loop.
    StateKeeper,
    /// The telemetry actor owning the sink, fold, and alert engine.
    Telemetry,
}

impl ActorTarget {
    /// The DSL spelling (also the `actor` field of `fault.inject` events).
    pub fn label(self) -> &'static str {
        match self {
            ActorTarget::Admission => "admission",
            ActorTarget::StateKeeper => "state_keeper",
            ActorTarget::Telemetry => "telemetry",
        }
    }

    fn parse(raw: &str) -> Option<Self> {
        match raw {
            "admission" => Some(ActorTarget::Admission),
            "state_keeper" => Some(ActorTarget::StateKeeper),
            "telemetry" => Some(ActorTarget::Telemetry),
            _ => None,
        }
    }
}

/// One timed fault: a [`FaultKind`] active over the half-open slot window
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// First affected slot.
    pub start: u64,
    /// First slot past the window.
    pub end: u64,
}

impl Fault {
    /// The DSL keyword for this fault's kind (`"outage"`, `"collapse"`,
    /// `"spike"`, `"gap"`, `"burst"`, `"squeeze"`, `"kill"`, `"stall"`,
    /// `"sockdrop"`) — also used as the `kind` field of `fault.inject`
    /// telemetry events.
    pub fn label(&self) -> &'static str {
        match self.kind {
            FaultKind::DcOutage { .. } => "outage",
            FaultKind::AvailabilityCollapse { .. } => "collapse",
            FaultKind::PriceSpike { .. } => "spike",
            FaultKind::PriceGap { .. } => "gap",
            FaultKind::ArrivalBurst { .. } => "burst",
            FaultKind::SolverSqueeze { .. } => "squeeze",
            FaultKind::ActorKill { .. } => "kill",
            FaultKind::ActorStall { .. } => "stall",
            FaultKind::SocketDrop => "sockdrop",
        }
    }

    /// Whether this fault is a runtime-only chaos clause (daemon
    /// supervision faults; no effect on frozen inputs).
    pub fn is_chaos(&self) -> bool {
        matches!(
            self.kind,
            FaultKind::ActorKill { .. } | FaultKind::ActorStall { .. } | FaultKind::SocketDrop
        )
    }

    /// The daemon actor a chaos clause targets, if any.
    pub fn actor(&self) -> Option<ActorTarget> {
        match self.kind {
            FaultKind::ActorKill { actor } | FaultKind::ActorStall { actor, .. } => Some(actor),
            _ => None,
        }
    }

    /// The data center this fault targets, if it targets one.
    pub fn dc(&self) -> Option<usize> {
        match self.kind {
            FaultKind::DcOutage { dc }
            | FaultKind::AvailabilityCollapse { dc, .. }
            | FaultKind::PriceSpike { dc, .. }
            | FaultKind::PriceGap { dc } => Some(dc),
            FaultKind::ArrivalBurst { .. }
            | FaultKind::SolverSqueeze { .. }
            | FaultKind::ActorKill { .. }
            | FaultKind::ActorStall { .. }
            | FaultKind::SocketDrop => None,
        }
    }

    /// The job class an [`FaultKind::ArrivalBurst`] targets, if any.
    pub fn job(&self) -> Option<usize> {
        match self.kind {
            FaultKind::ArrivalBurst { job, .. } => job,
            _ => None,
        }
    }

    /// The fault's magnitude (collapse fraction, spike/burst factor,
    /// squeeze iteration cap), when it has one.
    pub fn magnitude(&self) -> Option<f64> {
        match self.kind {
            FaultKind::AvailabilityCollapse { fraction, .. } => Some(fraction),
            FaultKind::PriceSpike { factor, .. } => Some(factor),
            FaultKind::ArrivalBurst { factor, .. } => Some(factor),
            FaultKind::SolverSqueeze { max_fw_iters } => Some(max_fw_iters as f64),
            FaultKind::ActorStall { ms, .. } => Some(ms as f64),
            FaultKind::DcOutage { .. }
            | FaultKind::PriceGap { .. }
            | FaultKind::ActorKill { .. }
            | FaultKind::SocketDrop => None,
        }
    }

    /// Whether the fault is active during `slot`.
    pub fn active_at(&self, slot: u64) -> bool {
        self.start <= slot && slot < self.end
    }

    /// The canonical DSL clause for this fault (parses back to `self`).
    pub fn spec(&self) -> String {
        let window = format!("start={},end={}", self.start, self.end);
        match self.kind {
            FaultKind::DcOutage { dc } => format!("outage:dc={dc},{window}"),
            FaultKind::AvailabilityCollapse { dc, fraction } => {
                format!("collapse:dc={dc},fraction={fraction},{window}")
            }
            FaultKind::PriceSpike { dc, factor } => {
                format!("spike:dc={dc},factor={factor},{window}")
            }
            FaultKind::PriceGap { dc } => format!("gap:dc={dc},{window}"),
            FaultKind::ArrivalBurst { job: None, factor } => {
                format!("burst:factor={factor},{window}")
            }
            FaultKind::ArrivalBurst {
                job: Some(j),
                factor,
            } => format!("burst:factor={factor},job={j},{window}"),
            FaultKind::SolverSqueeze { max_fw_iters } => {
                format!("squeeze:iters={max_fw_iters},{window}")
            }
            FaultKind::ActorKill { actor } => {
                format!("kill:actor={},{window}", actor.label())
            }
            FaultKind::ActorStall { actor, ms } => {
                format!("stall:actor={},ms={ms},{window}", actor.label())
            }
            FaultKind::SocketDrop => format!("sockdrop:{window}"),
        }
    }

    fn validate(&self, index: usize) -> Result<(), FaultPlanError> {
        if self.start >= self.end {
            return Err(FaultPlanError::new(format!(
                "fault {index} ({}): empty window [{}, {})",
                self.label(),
                self.start,
                self.end
            )));
        }
        let bad_magnitude = |what: &str, v: f64| {
            FaultPlanError::new(format!(
                "fault {index} ({}): {what} must be finite and positive, got {v}",
                self.label()
            ))
        };
        match self.kind {
            FaultKind::AvailabilityCollapse { fraction, .. } => {
                if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
                    return Err(FaultPlanError::new(format!(
                        "fault {index} (collapse): fraction must lie in [0, 1], got {fraction}"
                    )));
                }
            }
            FaultKind::PriceSpike { factor, .. } => {
                if !factor.is_finite() || factor <= 0.0 {
                    return Err(bad_magnitude("factor", factor));
                }
            }
            FaultKind::ArrivalBurst { factor, .. } => {
                if !factor.is_finite() || factor <= 0.0 {
                    return Err(bad_magnitude("factor", factor));
                }
            }
            FaultKind::SolverSqueeze { max_fw_iters } => {
                if max_fw_iters == 0 {
                    return Err(FaultPlanError::new(format!(
                        "fault {index} (squeeze): iters must be at least 1"
                    )));
                }
            }
            FaultKind::ActorStall { ms, .. } => {
                if ms == 0 {
                    return Err(FaultPlanError::new(format!(
                        "fault {index} (stall): ms must be at least 1"
                    )));
                }
            }
            FaultKind::DcOutage { .. }
            | FaultKind::PriceGap { .. }
            | FaultKind::ActorKill { .. }
            | FaultKind::SocketDrop => {}
        }
        Ok(())
    }
}

/// An ordered list of timed faults. See the [module docs](crate) for the
/// compact spec DSL.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (applying it is the identity).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit faults, validating each (windows must be
    /// non-empty, magnitudes in range).
    ///
    /// # Errors
    /// [`FaultPlanError`] naming the first invalid fault.
    pub fn new(faults: Vec<Fault>) -> Result<Self, FaultPlanError> {
        for (index, fault) in faults.iter().enumerate() {
            fault.validate(index)?;
        }
        Ok(Self { faults })
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Appends another plan's faults after this plan's (plans compose by
    /// concatenation; application order is plan order).
    #[must_use]
    pub fn concat(mut self, other: FaultPlan) -> Self {
        self.faults.extend(other.faults);
        self
    }

    /// Parses the compact spec DSL: `;`-separated clauses of the form
    /// `kind:key=value,...`. Whitespace around clauses is ignored; empty
    /// clauses are skipped (so trailing `;` is fine).
    ///
    /// ```text
    /// outage:dc=2,start=120,end=144
    /// collapse:dc=1,fraction=0.25,start=10,end=20
    /// spike:dc=0,factor=5,start=5,end=8
    /// gap:dc=0,start=5,end=8
    /// burst:factor=3,start=50,end=60          (optionally ,job=4)
    /// squeeze:iters=2,start=100,end=200
    /// ```
    ///
    /// # Errors
    /// [`FaultPlanError`] with the offending clause and key on any syntax
    /// or range problem.
    pub fn parse(spec: &str) -> Result<Self, FaultPlanError> {
        let mut faults = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            faults.push(parse_clause(clause)?);
        }
        Self::new(faults)
    }

    /// The canonical one-line spec: `;`-joined clause specs.
    /// `FaultPlan::parse(&plan.spec())` reproduces the plan exactly.
    pub fn spec(&self) -> String {
        self.faults
            .iter()
            .map(Fault::spec)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Checks every targeted index against a concrete system shape.
    ///
    /// # Errors
    /// [`FaultPlanError`] naming the first fault whose data center or job
    /// class is out of range.
    pub fn validate_for(&self, num_dcs: usize, num_jobs: usize) -> Result<(), FaultPlanError> {
        for (index, fault) in self.faults.iter().enumerate() {
            if let Some(dc) = fault.dc() {
                if dc >= num_dcs {
                    return Err(FaultPlanError::new(format!(
                        "fault {index} ({}): data center {dc} out of range (system has {num_dcs})",
                        fault.label()
                    )));
                }
            }
            if let Some(job) = fault.job() {
                if job >= num_jobs {
                    return Err(FaultPlanError::new(format!(
                        "fault {index} ({}): job class {job} out of range (system has {num_jobs})",
                        fault.label()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether the plan contains any runtime-only chaos clause
    /// (`kill`/`stall`/`sockdrop`). The simulation binaries reject such
    /// plans — chaos clauses only mean something under `grefar-served`'s
    /// supervisor.
    pub fn has_chaos(&self) -> bool {
        self.faults.iter().any(Fault::is_chaos)
    }

    /// Faults whose window starts exactly at `slot` (for `fault.inject`
    /// telemetry).
    pub fn starting_at(&self, slot: u64) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |f| f.start == slot)
    }

    /// Faults active during `slot`.
    pub fn active_at(&self, slot: u64) -> impl Iterator<Item = &Fault> {
        self.faults.iter().filter(move |f| f.active_at(slot))
    }

    /// The tightest Frank–Wolfe iteration budget any active
    /// [`FaultKind::SolverSqueeze`] imposes at `slot`, if one is active.
    pub fn fw_budget_at(&self, slot: u64) -> Option<usize> {
        self.active_at(slot)
            .filter_map(|f| match f.kind {
                FaultKind::SolverSqueeze { max_fw_iters } => Some(max_fw_iters),
                _ => None,
            })
            .min()
    }

    /// Applies the plan's data faults to an explicit horizon in place, in
    /// plan order. `states[t]`/`arrivals[t]` describe slot `t`; windows past
    /// the horizon are silently clipped. [`FaultKind::SolverSqueeze`] has no
    /// data effect (it acts through the scheduler's budget; see
    /// [`fw_budget_at`](Self::fw_budget_at)).
    ///
    /// Burst arrivals are re-rounded to whole jobs, preserving the paper's
    /// integral job counts (§III-C.2).
    ///
    /// # Errors
    /// [`FaultPlanError`] if a fault targets a data center or job class the
    /// horizon does not have. The horizon is unmodified on error.
    pub fn apply(
        &self,
        states: &mut [SystemState],
        arrivals: &mut [Vec<f64>],
    ) -> Result<(), FaultPlanError> {
        let num_dcs = states.first().map_or(0, SystemState::num_data_centers);
        let num_jobs = arrivals.first().map_or(0, Vec::len);
        self.validate_for(num_dcs, num_jobs)?;
        let horizon = states.len() as u64;
        for fault in &self.faults {
            let window = fault.start..fault.end.min(horizon);
            match fault.kind {
                FaultKind::DcOutage { dc } => {
                    for t in window {
                        let state = &mut states[t as usize];
                        *state = rebuild_dc(state, dc, |d| {
                            DataCenterState::new(
                                vec![0.0; d.available_slice().len()],
                                d.tariff().clone(),
                            )
                        });
                    }
                }
                FaultKind::AvailabilityCollapse { dc, fraction } => {
                    for t in window {
                        let state = &mut states[t as usize];
                        *state = rebuild_dc(state, dc, |d| {
                            let avail = d.available_slice().iter().map(|n| n * fraction).collect();
                            DataCenterState::new(avail, d.tariff().clone())
                        });
                    }
                }
                FaultKind::PriceSpike { dc, factor } => {
                    for t in window {
                        let state = &mut states[t as usize];
                        *state = rebuild_dc(state, dc, |d| {
                            DataCenterState::new(
                                d.available_slice().to_vec(),
                                d.tariff().scaled(factor),
                            )
                        });
                    }
                }
                FaultKind::PriceGap { dc } => {
                    // A dark feed reports its last pre-window value; a gap
                    // opening at t = 0 freezes the initial price.
                    let held_slot = fault.start.saturating_sub(1).min(horizon - 1);
                    let held = states[held_slot as usize].data_center(dc).tariff().clone();
                    for t in window {
                        let state = &mut states[t as usize];
                        let tariff = held.clone();
                        *state = rebuild_dc(state, dc, move |d| {
                            DataCenterState::new(d.available_slice().to_vec(), tariff.clone())
                        });
                    }
                }
                FaultKind::ArrivalBurst { job, factor } => {
                    for t in window {
                        let row = &mut arrivals[t as usize];
                        match job {
                            Some(j) => row[j] = (row[j] * factor).round(),
                            None => {
                                for a in row.iter_mut() {
                                    *a = (*a * factor).round();
                                }
                            }
                        }
                    }
                }
                // Runtime-only faults: the squeeze acts through the
                // scheduler's budget, the chaos clauses through the
                // daemon's supervisor — neither touches frozen inputs.
                FaultKind::SolverSqueeze { .. }
                | FaultKind::ActorKill { .. }
                | FaultKind::ActorStall { .. }
                | FaultKind::SocketDrop => {}
            }
        }
        Ok(())
    }

    /// Generates `events` correlated outage windows from `seed`: for each
    /// event every data center in `dcs` goes down for `duration` slots,
    /// with the individual onsets spread over at most `stagger` slots (a
    /// cascading regional failure). Fully deterministic — the same
    /// arguments always produce the same plan.
    ///
    /// # Panics
    /// Panics if `dcs` is empty, `duration` is zero, or the horizon cannot
    /// fit a window (`horizon <= duration + stagger`).
    pub fn correlated_outages(
        seed: u64,
        dcs: &[usize],
        events: usize,
        horizon: u64,
        duration: u64,
        stagger: u64,
    ) -> Self {
        assert!(!dcs.is_empty(), "need at least one data center");
        assert!(duration > 0, "outage duration must be positive");
        assert!(
            horizon > duration + stagger,
            "horizon {horizon} cannot fit an outage of duration {duration} with stagger {stagger}"
        );
        let mut rng_state = seed ^ 0x6a09_e667_f3bc_c908;
        let span = horizon - duration - stagger;
        let mut faults = Vec::with_capacity(events * dcs.len());
        for _ in 0..events {
            let base = splitmix64(&mut rng_state) % span;
            for &dc in dcs {
                let offset = if stagger == 0 {
                    0
                } else {
                    splitmix64(&mut rng_state) % (stagger + 1)
                };
                let start = base + offset;
                faults.push(Fault {
                    kind: FaultKind::DcOutage { dc },
                    start,
                    end: start + duration,
                });
            }
        }
        Self { faults }
    }
}

/// Rebuilds a [`SystemState`] with data center `dc` replaced by
/// `f(old_dc)`.
fn rebuild_dc(
    state: &SystemState,
    dc: usize,
    f: impl Fn(&DataCenterState) -> DataCenterState,
) -> SystemState {
    let dcs = (0..state.num_data_centers())
        .map(|i| {
            if i == dc {
                f(state.data_center(i))
            } else {
                state.data_center(i).clone()
            }
        })
        .collect();
    SystemState::new(state.slot(), dcs)
}

/// SplitMix64: the small, well-mixed generator behind the seeded outage
/// generator (no external RNG dependency, no ambient entropy).
///
/// Public so downstream deterministic tooling (the `grefar-soak` scenario
/// fuzzer) expands its seeds through the exact same stream the fault layer
/// uses — one generator, one notion of "seed" across the workspace.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_clause(clause: &str) -> Result<Fault, FaultPlanError> {
    let err = |msg: String| FaultPlanError::new(format!("clause {clause:?}: {msg}"));
    let (name, rest) = clause
        .split_once(':')
        .ok_or_else(|| err("expected `kind:key=value,...`".into()))?;
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for pair in rest.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| err(format!("expected `key=value`, got {pair:?}")))?;
        let key = key.trim();
        if keys.iter().any(|(k, _)| *k == key) {
            return Err(err(format!("duplicate key `{key}`")));
        }
        keys.push((key, value.trim()));
    }
    let take = |key: &str| keys.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
    let int = |key: &str| -> Result<u64, FaultPlanError> {
        let raw = take(key).ok_or_else(|| err(format!("missing key `{key}`")))?;
        raw.parse()
            .map_err(|_| err(format!("key `{key}`: expected an integer, got {raw:?}")))
    };
    let float = |key: &str| -> Result<f64, FaultPlanError> {
        let raw = take(key).ok_or_else(|| err(format!("missing key `{key}`")))?;
        raw.parse()
            .map_err(|_| err(format!("key `{key}`: expected a number, got {raw:?}")))
    };
    let actor = || -> Result<ActorTarget, FaultPlanError> {
        let raw = take("actor").ok_or_else(|| err("missing key `actor`".into()))?;
        ActorTarget::parse(raw).ok_or_else(|| {
            err(format!(
                "key `actor`: expected one of admission, state_keeper, telemetry; got {raw:?}"
            ))
        })
    };
    let known_keys: &[&str] = match name.trim() {
        "outage" | "gap" => &["dc", "start", "end"],
        "collapse" => &["dc", "fraction", "start", "end"],
        "spike" => &["dc", "factor", "start", "end"],
        "burst" => &["factor", "job", "start", "end"],
        "squeeze" => &["iters", "start", "end"],
        "kill" => &["actor", "start", "end"],
        "stall" => &["actor", "ms", "start", "end"],
        "sockdrop" => &["start", "end"],
        other => return Err(err(format!("unknown fault kind `{other}`"))),
    };
    if let Some((key, _)) = keys.iter().find(|(k, _)| !known_keys.contains(k)) {
        return Err(err(format!("unknown key `{key}`")));
    }
    let kind = match name.trim() {
        "outage" => FaultKind::DcOutage {
            dc: int("dc")? as usize,
        },
        "collapse" => FaultKind::AvailabilityCollapse {
            dc: int("dc")? as usize,
            fraction: float("fraction")?,
        },
        "spike" => FaultKind::PriceSpike {
            dc: int("dc")? as usize,
            factor: float("factor")?,
        },
        "gap" => FaultKind::PriceGap {
            dc: int("dc")? as usize,
        },
        "burst" => FaultKind::ArrivalBurst {
            job: match take("job") {
                Some(_) => Some(int("job")? as usize),
                None => None,
            },
            factor: float("factor")?,
        },
        "squeeze" => FaultKind::SolverSqueeze {
            max_fw_iters: int("iters")? as usize,
        },
        "kill" => FaultKind::ActorKill { actor: actor()? },
        "stall" => FaultKind::ActorStall {
            actor: actor()?,
            ms: int("ms")?,
        },
        "sockdrop" => FaultKind::SocketDrop,
        _ => unreachable!("kind validated above"),
    };
    Ok(Fault {
        kind,
        start: int("start")?,
        end: int("end")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::Tariff;

    fn horizon(slots: usize, dcs: usize, price: f64) -> (Vec<SystemState>, Vec<Vec<f64>>) {
        let states = (0..slots)
            .map(|t| {
                SystemState::new(
                    t as u64,
                    (0..dcs)
                        .map(|_| DataCenterState::new(vec![10.0, 4.0], Tariff::flat(price)))
                        .collect(),
                )
            })
            .collect();
        let arrivals = vec![vec![3.0, 1.0]; slots];
        (states, arrivals)
    }

    #[test]
    fn parse_spec_roundtrip() {
        let spec = "outage:dc=2,start=120,end=144;collapse:dc=1,fraction=0.25,start=10,end=20;\
                    spike:dc=0,factor=5,start=5,end=8;gap:dc=0,start=5,end=8;\
                    burst:factor=3,job=1,start=50,end=60;squeeze:iters=2,start=100,end=200";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.faults().len(), 6);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(plan.spec(), spec.replace(" ", "").replace("\n", ""));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "meteor:dc=0,start=1,end=2",
            "outage:dc=0,start=2,end=2",
            "outage:dc=0,start=1",
            "outage:dc=x,start=1,end=2",
            "collapse:dc=0,fraction=1.5,start=1,end=2",
            "spike:dc=0,factor=-1,start=1,end=2",
            "spike:dc=0,factor=nope,start=1,end=2",
            "squeeze:iters=0,start=1,end=2",
            "outage:dc=0,dc=1,start=1,end=2",
            "outage:dc=0,job=1,start=1,end=2",
            "outage dc=0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
        }
        // Trailing separators and whitespace are tolerated.
        assert!(FaultPlan::parse(" outage:dc=0,start=1,end=2 ; ").is_ok());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn chaos_clauses_roundtrip_and_stay_runtime_only() {
        let spec = "kill:actor=state_keeper,start=3,end=4;\
                    stall:actor=admission,ms=50,start=5,end=7;\
                    sockdrop:start=8,end=9";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(plan.spec(), spec.replace(" ", "").replace("\n", ""));
        assert!(plan.has_chaos());
        assert!(plan.faults().iter().all(Fault::is_chaos));
        assert_eq!(
            plan.faults()[0].actor().map(ActorTarget::label),
            Some("state_keeper")
        );
        assert_eq!(plan.faults()[1].magnitude(), Some(50.0));
        assert_eq!(plan.faults()[2].actor(), None);
        assert_eq!(
            ["kill", "stall", "sockdrop"].as_slice(),
            plan.faults()
                .iter()
                .map(Fault::label)
                .collect::<Vec<_>>()
                .as_slice()
        );
        // Chaos clauses never touch frozen inputs or solver budgets.
        let (mut states, mut arrivals) = horizon(10, 1, 0.4);
        let before = (states.clone(), arrivals.clone());
        plan.apply(&mut states, &mut arrivals).unwrap();
        assert_eq!((states, arrivals), before);
        assert_eq!(plan.fw_budget_at(3), None);
        assert!(!FaultPlan::parse("outage:dc=0,start=1,end=2")
            .unwrap()
            .has_chaos());
    }

    #[test]
    fn chaos_clauses_reject_bad_keys() {
        for bad in [
            "kill:actor=reactor,start=1,end=2",
            "kill:start=1,end=2",
            "stall:actor=admission,ms=0,start=1,end=2",
            "stall:actor=admission,start=1,end=2",
            "sockdrop:actor=admission,start=1,end=2",
            "kill:actor=state_keeper,start=2,end=2",
            "kill:actor=feeds,start=1,end=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn outage_zeroes_availability_in_window_only() {
        let (mut states, mut arrivals) = horizon(10, 2, 0.5);
        let plan = FaultPlan::parse("outage:dc=1,start=3,end=6").unwrap();
        plan.apply(&mut states, &mut arrivals).unwrap();
        for (t, state) in states.iter().enumerate() {
            let expected = if (3..6).contains(&t) { 0.0 } else { 10.0 };
            assert_eq!(state.data_center(1).available(0), expected, "slot {t}");
            assert_eq!(state.data_center(0).available(0), 10.0, "slot {t}");
        }
    }

    #[test]
    fn collapse_spike_and_burst_scale_values() {
        let (mut states, mut arrivals) = horizon(4, 1, 0.4);
        let plan =
            FaultPlan::parse("collapse:dc=0,fraction=0.5,start=1,end=2;spike:dc=0,factor=3,start=2,end=3;burst:factor=2,start=3,end=4")
                .unwrap();
        plan.apply(&mut states, &mut arrivals).unwrap();
        assert_eq!(states[1].data_center(0).available(0), 5.0);
        assert_eq!(states[1].data_center(0).available(1), 2.0);
        assert!((states[2].data_center(0).price() - 1.2).abs() < 1e-12);
        assert_eq!(arrivals[3], vec![6.0, 2.0]);
        assert_eq!(arrivals[2], vec![3.0, 1.0]);
    }

    #[test]
    fn price_gap_holds_last_known_value() {
        let (mut states, mut arrivals) = horizon(6, 1, 0.4);
        // First spike slots 2..6 to 0.8, then a gap over 3..5 holds the
        // slot-2 value (which the earlier clause already spiked).
        let plan =
            FaultPlan::parse("spike:dc=0,factor=2,start=2,end=6;gap:dc=0,start=3,end=5").unwrap();
        plan.apply(&mut states, &mut arrivals).unwrap();
        assert!((states[3].data_center(0).price() - 0.8).abs() < 1e-12);
        assert!((states[4].data_center(0).price() - 0.8).abs() < 1e-12);
        assert!((states[5].data_center(0).price() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn apply_rejects_out_of_range_targets_without_mutating() {
        let (mut states, mut arrivals) = horizon(4, 2, 0.5);
        let before = states.clone();
        let plan = FaultPlan::parse("outage:dc=0,start=0,end=4;outage:dc=9,start=0,end=2").unwrap();
        assert!(plan.apply(&mut states, &mut arrivals).is_err());
        assert_eq!(states, before, "failed apply must not mutate");
        let plan = FaultPlan::parse("burst:factor=2,job=7,start=0,end=1").unwrap();
        assert!(plan.apply(&mut states, &mut arrivals).is_err());
    }

    #[test]
    fn budget_and_queries() {
        let plan =
            FaultPlan::parse("squeeze:iters=5,start=10,end=20;squeeze:iters=2,start=15,end=17")
                .unwrap();
        assert_eq!(plan.fw_budget_at(9), None);
        assert_eq!(plan.fw_budget_at(10), Some(5));
        assert_eq!(plan.fw_budget_at(16), Some(2));
        assert_eq!(plan.fw_budget_at(19), Some(5));
        assert_eq!(plan.starting_at(15).count(), 1);
    }

    #[test]
    fn correlated_outages_are_deterministic_and_correlated() {
        let a = FaultPlan::correlated_outages(7, &[0, 1, 2], 2, 500, 12, 3);
        let b = FaultPlan::correlated_outages(7, &[0, 1, 2], 2, 500, 12, 3);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 6);
        // Each event's onsets are within `stagger` slots of each other and
        // inside the horizon.
        for event in a.faults().chunks(3) {
            let starts: Vec<u64> = event.iter().map(|f| f.start).collect();
            let min = *starts.iter().min().unwrap();
            let max = *starts.iter().max().unwrap();
            assert!(max - min <= 3, "onsets {starts:?} not correlated");
            for f in event {
                assert_eq!(f.end - f.start, 12);
                assert!(f.end <= 500);
            }
        }
        let c = FaultPlan::correlated_outages(8, &[0, 1, 2], 2, 500, 12, 3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn concat_composes_in_order() {
        let a = FaultPlan::parse("outage:dc=0,start=1,end=2").unwrap();
        let b = FaultPlan::parse("spike:dc=0,factor=2,start=3,end=4").unwrap();
        let joined = a.clone().concat(b);
        assert_eq!(joined.faults().len(), 2);
        assert_eq!(joined.faults()[0], a.faults()[0]);
    }
}
