//! Runtime checks of the paper's feasibility and stability invariants.
//!
//! Theorem 1 (§V-B) holds only if every per-slot action is feasible —
//! routing/processing within their bounds (4)–(5), the capacity
//! constraint (11) — and the queues follow the dynamics (12)–(13)
//! exactly. This module makes those assumptions *checkable at runtime*:
//!
//! * [`check_decision`] — one action against the static constraints,
//! * [`check_backlog_discipline`] — GreFar's own stronger discipline
//!   (never route more jobs than queued, never serve phantom work),
//! * [`check_queue_update`] — one queue transition against (12)–(13),
//! * [`check_queue_bound`] — the Theorem 1(a) bound `q ≤ V·C3/δ`
//!   (computed by [`TheoryBounds`](crate::theory::TheoryBounds)) on an
//!   admissible trace.
//!
//! The checkers are ordinary functions, always compiled and directly
//! testable. *Automatic enforcement* — running them after every
//! [`GreFar::decide`](crate::GreFar) and every simulator queue update,
//! emitting a structured `invariant.violation` telemetry event and then
//! aborting — is gated behind the `strict-invariants` cargo feature so
//! the default build keeps its exact hot-path cost (see DESIGN.md
//! §"Correctness tooling").

use grefar_obs::Event;
use grefar_types::{Decision, SystemConfig, SystemState};

use crate::queue::QueueState;

/// Numerical slack for feasibility comparisons: decisions come out of
/// floating-point solvers, so constraints hold up to rounding.
pub const TOL: f64 = 1e-6;

/// A detected violation of a paper invariant.
///
/// `Display` renders a full sentence naming the constraint and the
/// offending indices/values; [`event`](Self::event) renders the same
/// information as a structured `grefar-obs` event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// A decision entry is negative or non-finite.
    NotFiniteNonnegative {
        /// Which matrix (`"routed"`, `"processed"`, `"busy"`).
        field: &'static str,
    },
    /// Routing above `r^max_j` (4) or to an ineligible data center.
    RouteBound {
        /// Data center.
        i: usize,
        /// Job class.
        j: usize,
        /// The routed amount.
        routed: f64,
        /// The bound it broke (0 for ineligible pairs).
        bound: f64,
    },
    /// Processing above `h^max_j` (5).
    ProcessBound {
        /// Data center.
        i: usize,
        /// Job class.
        j: usize,
        /// The processed amount.
        processed: f64,
        /// The bound `h^max_j`.
        bound: f64,
    },
    /// More servers busy than available, `b_{i,k} > n_{i,k}(t)`.
    Availability {
        /// Data center.
        i: usize,
        /// Server class.
        k: usize,
        /// Busy servers.
        busy: f64,
        /// Available servers.
        available: f64,
    },
    /// Work served beyond switched-on supply — constraint (11).
    Capacity {
        /// Data center.
        i: usize,
        /// Work demanded, `Σ_j h_{i,j} d_j`.
        demand: f64,
        /// Supply switched on, `Σ_k b_{i,k} s_k`.
        supply: f64,
    },
    /// Routed more jobs than the central queue holds.
    RouteBacklog {
        /// Job class.
        j: usize,
        /// Total routed, `Σ_i r_{i,j}`.
        routed: f64,
        /// Central backlog `Q_j`.
        backlog: f64,
    },
    /// Served more jobs than the local queue holds (phantom work).
    ProcessBacklog {
        /// Data center.
        i: usize,
        /// Job class.
        j: usize,
        /// Served amount.
        processed: f64,
        /// Local backlog `q_{i,j}`.
        backlog: f64,
    },
    /// A queue transition disagrees with the dynamics (12)–(13).
    QueueDynamics {
        /// `"central"` or `"local"`.
        which: &'static str,
        /// Data center (0 for central queues).
        i: usize,
        /// Job class.
        j: usize,
        /// Queue length found.
        got: f64,
        /// Queue length (12)–(13) demand.
        expected: f64,
    },
    /// A queue exceeded the Theorem 1(a) bound on an admissible trace.
    QueueBound {
        /// Largest queue length observed.
        observed: f64,
        /// The bound `V·C3/δ`.
        bound: f64,
    },
    /// The job-conservation ledger disagrees with the realized queue
    /// total (see [`JobLedger`](crate::JobLedger)).
    Ledger {
        /// The queue total actually observed.
        queued: f64,
        /// The total the ledger's conservation identity predicts.
        expected: f64,
        /// The signed discrepancy `queued − expected`.
        balance: f64,
    },
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NotFiniteNonnegative { field } => {
                write!(
                    f,
                    "decision matrix `{field}` has a negative or non-finite entry"
                )
            }
            Self::RouteBound {
                i,
                j,
                routed,
                bound,
            } => write!(
                f,
                "routed r[{i},{j}] = {routed} exceeds the bound {bound} of (4) \
                 (0 means the pair is ineligible)"
            ),
            Self::ProcessBound {
                i,
                j,
                processed,
                bound,
            } => write!(
                f,
                "processed h[{i},{j}] = {processed} exceeds h^max = {bound} of (5)"
            ),
            Self::Availability {
                i,
                k,
                busy,
                available,
            } => write!(
                f,
                "busy b[{i},{k}] = {busy} exceeds availability n = {available}"
            ),
            Self::Capacity { i, demand, supply } => write!(
                f,
                "data center {i} serves {demand} units of work on {supply} units of \
                 supply — capacity constraint (11) violated"
            ),
            Self::RouteBacklog { j, routed, backlog } => write!(
                f,
                "routed {routed} jobs of class {j} with only {backlog} queued centrally"
            ),
            Self::ProcessBacklog {
                i,
                j,
                processed,
                backlog,
            } => write!(
                f,
                "served {processed} jobs of class {j} in data center {i} with only \
                 {backlog} queued locally (phantom work)"
            ),
            Self::QueueDynamics {
                which,
                i,
                j,
                got,
                expected,
            } => write!(
                f,
                "{which} queue ({i},{j}) is {got} after the update, but (12)-(13) \
                 give {expected}"
            ),
            Self::QueueBound { observed, bound } => write!(
                f,
                "queue length {observed} exceeds the Theorem 1(a) bound {bound} on an \
                 admissible trace"
            ),
            Self::Ledger {
                queued,
                expected,
                balance,
            } => write!(
                f,
                "queues hold {queued} jobs but the conservation ledger expects \
                 {expected} (balance {balance})"
            ),
        }
    }
}

impl InvariantViolation {
    /// A short machine-readable kind label for telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::NotFiniteNonnegative { .. } => "not_finite_nonnegative",
            Self::RouteBound { .. } => "route_bound",
            Self::ProcessBound { .. } => "process_bound",
            Self::Availability { .. } => "availability",
            Self::Capacity { .. } => "capacity",
            Self::RouteBacklog { .. } => "route_backlog",
            Self::ProcessBacklog { .. } => "process_backlog",
            Self::QueueDynamics { .. } => "queue_dynamics",
            Self::QueueBound { .. } => "queue_bound",
            Self::Ledger { .. } => "ledger",
        }
    }

    /// Renders the violation as a structured `invariant.violation` event.
    pub fn event(&self, slot: u64) -> Event {
        Event::new("invariant.violation")
            .field("t", slot)
            .field("kind", self.kind())
            .field("detail", self.to_string())
    }
}

/// Checks one action against the static per-slot constraints: finite and
/// non-negative entries, routing bounds and eligibility (4), processing
/// bounds (5), server availability, and the capacity constraint (11).
///
/// # Errors
/// The first violated constraint, in the order above.
///
/// # Panics
/// Panics if the decision's shape mismatches the configuration.
pub fn check_decision(
    config: &SystemConfig,
    state: &SystemState,
    decision: &Decision,
) -> Result<(), InvariantViolation> {
    let n = config.num_data_centers();
    let j_count = config.num_job_classes();
    let k_count = config.num_server_classes();
    assert_eq!(decision.num_data_centers(), n, "decision shape mismatch");
    assert_eq!(decision.num_job_types(), j_count, "decision shape mismatch");
    assert_eq!(
        decision.num_server_classes(),
        k_count,
        "decision shape mismatch"
    );

    for (field, grid) in [
        ("routed", &decision.routed),
        ("processed", &decision.processed),
        ("busy", &decision.busy),
    ] {
        if !grid.is_finite() || grid.as_slice().iter().any(|&v| v < 0.0) {
            return Err(InvariantViolation::NotFiniteNonnegative { field });
        }
    }

    for (j, job) in config.job_classes().iter().enumerate() {
        for i in 0..n {
            let eligible = job.is_eligible(grefar_types::DataCenterId::new(i));
            let r = decision.routed[(i, j)];
            let r_bound = if eligible { job.max_route() } else { 0.0 };
            if r > r_bound + TOL {
                return Err(InvariantViolation::RouteBound {
                    i,
                    j,
                    routed: r,
                    bound: r_bound,
                });
            }
            let h = decision.processed[(i, j)];
            let h_bound = if eligible { job.max_process() } else { 0.0 };
            if h > h_bound + TOL {
                return Err(InvariantViolation::ProcessBound {
                    i,
                    j,
                    processed: h,
                    bound: h_bound,
                });
            }
        }
    }

    let work = config.work_vector();
    let speeds = config.speed_vector();
    for i in 0..n {
        let dc = state.data_center(i);
        for k in 0..k_count {
            let b = decision.busy[(i, k)];
            let avail = dc.available(k);
            if b > avail + TOL {
                return Err(InvariantViolation::Availability {
                    i,
                    k,
                    busy: b,
                    available: avail,
                });
            }
        }
        let demand = decision.work_processed(i, &work);
        let supply = decision.supply(i, &speeds);
        if demand > supply + TOL * (1.0 + supply.abs()) {
            return Err(InvariantViolation::Capacity { i, demand, supply });
        }
    }
    Ok(())
}

/// Checks GreFar's backlog discipline, which is *stronger* than the
/// paper's constraints (the `max[·, 0]` dynamics tolerate over-routing):
/// never route more jobs of a class than its central queue holds, never
/// serve more than the local queue holds.
///
/// # Errors
/// The first queue whose backlog is exceeded.
pub fn check_backlog_discipline(
    config: &SystemConfig,
    queues: &QueueState,
    decision: &Decision,
) -> Result<(), InvariantViolation> {
    let n = config.num_data_centers();
    for j in 0..config.num_job_classes() {
        let routed = decision.routed.col_sum(j);
        let backlog = queues.central(j);
        if routed > backlog + TOL {
            return Err(InvariantViolation::RouteBacklog { j, routed, backlog });
        }
        for i in 0..n {
            let processed = decision.processed[(i, j)];
            let local = queues.local(i, j);
            if processed > local + TOL {
                return Err(InvariantViolation::ProcessBacklog {
                    i,
                    j,
                    processed,
                    backlog: local,
                });
            }
        }
    }
    Ok(())
}

/// Checks that `next` is exactly the queue state that the dynamics
/// (12)–(13) produce from `prev` under `decision` and `arrivals`.
///
/// # Errors
/// The first queue entry that disagrees beyond [`TOL`].
///
/// # Panics
/// Panics if shapes mismatch the configuration.
pub fn check_queue_update(
    config: &SystemConfig,
    prev: &QueueState,
    decision: &Decision,
    arrivals: &[f64],
    next: &QueueState,
) -> Result<(), InvariantViolation> {
    let n = config.num_data_centers();
    let j_count = config.num_job_classes();
    assert_eq!(arrivals.len(), j_count, "arrival vector mismatch");
    for (j, &arrived) in arrivals.iter().enumerate() {
        let expected = (prev.central(j) - decision.routed.col_sum(j)).max(0.0) + arrived;
        let got = next.central(j);
        if !grefar_types::approx_eq(got, expected, TOL) {
            return Err(InvariantViolation::QueueDynamics {
                which: "central",
                i: 0,
                j,
                got,
                expected,
            });
        }
        for i in 0..n {
            let expected =
                (prev.local(i, j) - decision.processed[(i, j)]).max(0.0) + decision.routed[(i, j)];
            let got = next.local(i, j);
            if !grefar_types::approx_eq(got, expected, TOL) {
                return Err(InvariantViolation::QueueDynamics {
                    which: "local",
                    i,
                    j,
                    got,
                    expected,
                });
            }
        }
    }
    Ok(())
}

/// Checks the Theorem 1(a) queue bound: every queue length at most
/// `bound = V·C3/δ` (compute it with
/// [`TheoryBounds::queue_bound`](crate::theory::TheoryBounds::queue_bound)
/// from a certified slackness `δ`).
///
/// # Errors
/// [`InvariantViolation::QueueBound`] when the largest queue exceeds the
/// bound (beyond [`TOL`]).
pub fn check_queue_bound(queues: &QueueState, bound: f64) -> Result<(), InvariantViolation> {
    let observed = queues.max_len();
    if observed > bound + TOL {
        return Err(InvariantViolation::QueueBound { observed, bound });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, DataCenterState, JobClass, ServerClass, Tariff};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .data_center("b", vec![10.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(2.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(4.0)
                    .with_max_route(5.0)
                    .with_max_process(6.0),
            )
            .build()
            .unwrap()
    }

    fn state() -> SystemState {
        SystemState::new(
            3,
            vec![
                DataCenterState::new(vec![10.0], Tariff::flat(0.5)),
                DataCenterState::new(vec![10.0], Tariff::flat(0.5)),
            ],
        )
    }

    #[test]
    fn zero_decision_is_feasible() {
        let cfg = config();
        assert_eq!(
            check_decision(&cfg, &state(), &cfg.decision_zeros()),
            Ok(())
        );
    }

    #[test]
    fn detects_negative_entries() {
        let cfg = config();
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = -1.0;
        assert!(matches!(
            check_decision(&cfg, &state(), &z),
            Err(InvariantViolation::NotFiniteNonnegative { field: "processed" })
        ));
    }

    #[test]
    fn detects_route_bound_and_ineligibility() {
        let cfg = config();
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 5.5; // r^max = 5
        assert!(matches!(
            check_decision(&cfg, &state(), &z),
            Err(InvariantViolation::RouteBound { i: 0, j: 0, .. })
        ));
        let mut z = cfg.decision_zeros();
        z.routed[(1, 0)] = 1.0; // DC 1 not eligible
        assert!(matches!(
            check_decision(&cfg, &state(), &z),
            Err(InvariantViolation::RouteBound { i: 1, j: 0, bound, .. }) if bound == 0.0
        ));
    }

    #[test]
    fn detects_capacity_violation() {
        let cfg = config();
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 3.0; // demand 6 units of work
        z.busy[(0, 0)] = 2.0; // supply 2
        assert!(matches!(
            check_decision(&cfg, &state(), &z),
            Err(InvariantViolation::Capacity { i: 0, .. })
        ));
        z.busy[(0, 0)] = 6.0; // supply 6: feasible
        assert_eq!(check_decision(&cfg, &state(), &z), Ok(()));
    }

    #[test]
    fn detects_overcommitted_servers() {
        let cfg = config();
        let mut z = cfg.decision_zeros();
        z.busy[(0, 0)] = 11.0; // only 10 available
        assert!(matches!(
            check_decision(&cfg, &state(), &z),
            Err(InvariantViolation::Availability { i: 0, k: 0, .. })
        ));
    }

    #[test]
    fn backlog_discipline_flags_phantom_work() {
        let cfg = config();
        let queues = QueueState::new(&cfg); // all empty
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 1.0;
        assert!(matches!(
            check_backlog_discipline(&cfg, &queues, &z),
            Err(InvariantViolation::ProcessBacklog { i: 0, j: 0, .. })
        ));
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 1.0;
        assert!(matches!(
            check_backlog_discipline(&cfg, &queues, &z),
            Err(InvariantViolation::RouteBacklog { j: 0, .. })
        ));
    }

    #[test]
    fn queue_update_consistency() {
        let cfg = config();
        let mut prev = QueueState::new(&cfg);
        prev.apply(&cfg.decision_zeros(), &[4.0]);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 2.0;
        let mut next = prev.clone();
        next.apply(&z, &[1.0]);
        assert_eq!(check_queue_update(&cfg, &prev, &z, &[1.0], &next), Ok(()));
        // A tampered state is caught.
        let bad = QueueState::new(&cfg);
        assert!(matches!(
            check_queue_update(&cfg, &prev, &z, &[1.0], &bad),
            Err(InvariantViolation::QueueDynamics { .. })
        ));
    }

    #[test]
    fn queue_bound_check() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        q.apply(&cfg.decision_zeros(), &[4.0]);
        assert_eq!(check_queue_bound(&q, 10.0), Ok(()));
        let v = check_queue_bound(&q, 3.0).unwrap_err();
        assert!(matches!(v, InvariantViolation::QueueBound { .. }));
        assert_eq!(v.kind(), "queue_bound");
        let e = v.event(3);
        assert_eq!(e.name(), "invariant.violation");
    }

    #[test]
    fn display_is_informative() {
        let v = InvariantViolation::Capacity {
            i: 2,
            demand: 5.0,
            supply: 1.0,
        };
        let s = v.to_string();
        assert!(s.contains("(11)") && s.contains('2'));
    }
}
