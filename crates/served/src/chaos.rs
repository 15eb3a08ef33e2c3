//! The daemon's deterministic chaos schedule.
//!
//! `--chaos PLAN` reuses the `grefar_faults` DSL with the runtime-only
//! clauses (`kill:actor=…`, `stall:actor=…,ms=…`, `sockdrop:…`). Chaos
//! clauses never touch the simulation data path — they act on the *actor
//! system*: a kill panics the target actor at the window's first slot (the
//! supervisor must bring it back), a stall freezes it for a fixed wall
//! time, and a socket drop severs every admission connection for the
//! window. Because windows are keyed to slots, a chaos run is exactly
//! reproducible.

use grefar_faults::{Fault, FaultPlan};
use grefar_obs::Event;

/// A validated, chaos-only fault plan.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    plan: FaultPlan,
}

impl ChaosPlan {
    /// Wraps a parsed plan, requiring every clause to be a chaos clause
    /// (data faults and solver squeezes belong in `--faults`).
    ///
    /// # Errors
    /// The first non-chaos clause's spec.
    pub fn from_plan(plan: FaultPlan) -> Result<Self, String> {
        if let Some(fault) = plan.faults().iter().find(|f| !f.is_chaos()) {
            return Err(format!(
                "--chaos only takes kill/stall/sockdrop clauses; move {:?} to --faults",
                fault.spec()
            ));
        }
        Ok(Self { plan })
    }

    /// Parses a chaos-only DSL spec.
    ///
    /// # Errors
    /// Parse errors, or a non-chaos clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let plan = FaultPlan::parse(spec).map_err(|e| e.to_string())?;
        Self::from_plan(plan)
    }

    /// The canonical spec (for logs).
    pub fn spec(&self) -> String {
        self.plan.spec()
    }

    /// Whether a socket-drop window covers `slot`.
    pub fn sockdrop_active(&self, slot: u64) -> bool {
        self.plan.active_at(slot).any(|f| f.label() == "sockdrop")
    }

    /// The chaos windows opening at `slot` (faults are `Copy`). The state
    /// keeper classifies them by [`Fault::label`], [`Fault::actor`] and
    /// [`Fault::magnitude`].
    pub fn starting(&self, slot: u64) -> Vec<Fault> {
        self.plan.starting_at(slot).copied().collect()
    }
}

/// The `fault.inject` event for one chaos window opening at slot `t` —
/// same shape as the engine's data-fault events, plus the `actor` field.
pub fn chaos_inject_event(fault: &Fault, t: u64) -> Event {
    let mut event = Event::new("fault.inject")
        .field("t", t)
        .field("kind", fault.label())
        .field("start", fault.start)
        .field("end", fault.end);
    if let Some(actor) = fault.actor() {
        event = event.field("actor", actor.label());
    }
    if let Some(magnitude) = fault.magnitude() {
        event = event.field("magnitude", magnitude);
    }
    event
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_faults::ActorTarget;

    #[test]
    fn parses_and_schedules_chaos_windows() {
        let chaos = ChaosPlan::parse(
            "kill:actor=admission,start=3,end=4; stall:actor=telemetry,ms=20,start=5,end=6; \
             sockdrop:start=8,end=11",
        )
        .unwrap();
        let kill = chaos.starting(3);
        assert_eq!(kill.len(), 1);
        assert_eq!(kill[0].label(), "kill");
        assert_eq!(kill[0].actor(), Some(ActorTarget::Admission));
        assert!(chaos.starting(4).is_empty());
        let stall = chaos.starting(5);
        assert_eq!(stall.len(), 1);
        assert_eq!(stall[0].label(), "stall");
        assert_eq!(stall[0].actor(), Some(ActorTarget::Telemetry));
        assert_eq!(stall[0].magnitude(), Some(20.0));
        assert!(!chaos.sockdrop_active(7));
        assert!(chaos.sockdrop_active(8));
        assert!(chaos.sockdrop_active(10));
        assert!(!chaos.sockdrop_active(11));
        // The sockdrop window opens at 8 and is the last one to close.
        let sockdrop = chaos.starting(8);
        assert_eq!(sockdrop.len(), 1);
        assert_eq!((sockdrop[0].label(), sockdrop[0].end), ("sockdrop", 11));
    }

    #[test]
    fn rejects_data_clauses() {
        let err = ChaosPlan::parse("outage:dc=0,start=1,end=2").unwrap_err();
        assert!(err.contains("--faults"), "{err}");
    }

    #[test]
    fn inject_events_carry_the_actor() {
        let chaos = ChaosPlan::parse("kill:actor=state_keeper,start=2,end=3").unwrap();
        let opened = chaos.starting(2);
        assert_eq!(opened.len(), 1);
        let line = chaos_inject_event(&opened[0], 2).to_json();
        assert!(line.contains("\"actor\":\"state_keeper\""), "{line}");
        assert!(line.contains("\"kind\":\"kill\""), "{line}");
    }
}
