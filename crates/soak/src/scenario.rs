//! Seeded scenario generation: one `u64` expands into a complete composed
//! soak scenario, and the expansion is a pure function of the seed (the
//! generator is [`grefar_faults::splitmix64`], the workspace's one PRNG).
//!
//! A scenario is a scalar frame (seed, horizon, operating point, cut
//! points) plus an ordered list of [`Clause`]s — the *removable* parts the
//! shrinker delta-debugs. Every clause round-trips through a one-line
//! canonical spec, so a shrunk scenario serializes into the repro format
//! and parses back bit-identically.

use grefar_faults::{splitmix64, FaultPlan};
use grefar_ingest::FeedProfile;
use grefar_sim::PaperScenario;

/// The candidate `V` operating points a seed chooses between (the paper's
/// sweep range, small enough that bounds stay checkable at soak horizons).
const V_CHOICES: [f64; 5] = [0.5, 1.0, 2.5, 5.0, 7.5];

/// One removable ingredient of a scenario. The shrinker minimizes over
/// this list; everything not expressible as a clause (horizon, `V`, the
/// kill slot) is fixed frame and survives shrinking untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// A data-fault clause in the [`FaultPlan`] DSL
    /// (`outage:`/`collapse:`/`spike:`/`gap:`/`burst:`/`squeeze:`).
    Fault(String),
    /// An actor-chaos clause in the same DSL (`kill:`/`stall:`) — only
    /// meaningful to the daemon leg.
    Chaos(String),
    /// An unreliable-feed clause in the [`FeedProfile`] DSL.
    Feed(String),
    /// One live admission: `count` jobs of class `job` landing in slot
    /// `t` (pre-run injection in the batch legs, a wire submission in the
    /// daemon leg).
    Traffic {
        /// Target slot.
        t: u64,
        /// Job class.
        job: usize,
        /// Whole number of jobs.
        count: f64,
    },
    /// The mutation self-check: add `delta` phantom jobs to a central
    /// queue right after slot `slot`'s update, behind the physics' back.
    /// Only `grefar-soak selfcheck` generates this clause; the
    /// conservation-ledger oracle must catch it.
    Corrupt {
        /// Slot whose queue update is corrupted.
        slot: u64,
        /// Phantom jobs added.
        delta: f64,
    },
}

impl Clause {
    /// The canonical one-line spec (`kind rest`); parses back to `self`.
    pub fn spec(&self) -> String {
        match self {
            Clause::Fault(s) => format!("fault {s}"),
            Clause::Chaos(s) => format!("chaos {s}"),
            Clause::Feed(s) => format!("feed {s}"),
            Clause::Traffic { t, job, count } => {
                format!("traffic t={t},job={job},count={count}")
            }
            Clause::Corrupt { slot, delta } => format!("corrupt slot={slot},delta={delta}"),
        }
    }

    /// Parses one canonical clause spec.
    ///
    /// # Errors
    /// A message naming the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec
            .trim()
            .split_once(' ')
            .ok_or_else(|| format!("clause {spec:?}: expected `kind rest`"))?;
        let rest = rest.trim();
        let field = |key: &str| -> Result<f64, String> {
            for pair in rest.split(',') {
                if let Some((k, v)) = pair.split_once('=') {
                    if k.trim() == key {
                        return v
                            .trim()
                            .parse::<f64>()
                            .map_err(|e| format!("clause {spec:?}: bad {key}: {e}"));
                    }
                }
            }
            Err(format!("clause {spec:?}: missing {key}="))
        };
        match kind {
            "fault" => Ok(Clause::Fault(rest.to_string())),
            "chaos" => Ok(Clause::Chaos(rest.to_string())),
            "feed" => Ok(Clause::Feed(rest.to_string())),
            "traffic" => Ok(Clause::Traffic {
                t: field("t")? as u64,
                job: field("job")? as usize,
                count: field("count")?,
            }),
            "corrupt" => Ok(Clause::Corrupt {
                slot: field("slot")? as u64,
                delta: field("delta")?,
            }),
            other => Err(format!("clause {spec:?}: unknown kind {other:?}")),
        }
    }
}

/// A complete soak scenario (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed that generated (or labels) this scenario; also the
    /// [`PaperScenario`] input seed, so the workload itself varies.
    pub seed: u64,
    /// Horizon in slots.
    pub horizon: u64,
    /// GreFar cost-delay parameter `V`.
    pub v: f64,
    /// GreFar fairness weight `β`.
    pub beta: f64,
    /// Per-slot admission cap, if any.
    pub admission_cap: Option<f64>,
    /// Checkpoint cadence (slots) for the crash leg and the daemon.
    pub checkpoint_every: u64,
    /// The crash leg's kill slot (strictly inside the horizon).
    pub kill_at: u64,
    /// The removable ingredients, in generation order.
    pub clauses: Vec<Clause>,
}

impl Scenario {
    /// Expands `seed` into a full scenario. Pure: the same seed always
    /// yields the same scenario, and every generated scenario passes
    /// [`validate`](Scenario::validate).
    pub fn generate(seed: u64) -> Self {
        let shape = PaperScenario::default();
        let num_dcs = shape.config().num_data_centers() as u64;
        let num_jobs = shape.config().num_job_classes() as u64;
        let mut state = seed ^ SOAK_SEED_TAG;
        let mut r = |m: u64| splitmix64(&mut state) % m.max(1);

        let horizon = 24 + r(13); // 24..=36 slots
        let v = V_CHOICES[r(V_CHOICES.len() as u64) as usize];
        // The greedy path, a light fairness weight, and the paper's β = 100,
        // where Frank–Wolfe does most of each slot.
        let beta = match r(3) {
            0 => 0.2,
            1 => 0.0,
            _ => 100.0,
        };
        let admission_cap = if r(2) == 0 {
            None
        } else {
            Some(60.0 + r(40) as f64)
        };
        let checkpoint_every = 3 + r(4); // 3..=6
        let kill_at = (horizon / 3 + r(horizon / 3)).clamp(2, horizon - 2);

        let mut clauses = Vec::new();
        // Data faults: up to two, drawn from every DSL kind.
        for _ in 0..r(3) {
            let dur = 2 + r(3);
            let start = r(horizon - dur);
            let end = start + dur;
            let dc = r(num_dcs);
            clauses.push(Clause::Fault(match r(6) {
                0 => format!("outage:dc={dc},start={start},end={end}"),
                1 => {
                    let fraction = 0.25 * (1 + r(2)) as f64;
                    format!("collapse:dc={dc},fraction={fraction},start={start},end={end}")
                }
                2 => format!("spike:dc={dc},factor={},start={start},end={end}", 2 + r(6)),
                3 => format!("gap:dc={dc},start={start},end={end}"),
                4 => {
                    let factor = (2 + r(2)) as f64;
                    if r(2) == 0 {
                        format!("burst:factor={factor},start={start},end={end}")
                    } else {
                        format!(
                            "burst:factor={factor},job={},start={start},end={end}",
                            r(num_jobs)
                        )
                    }
                }
                _ => format!("squeeze:iters={},start={start},end={end}", 1 + r(3)),
            }));
        }
        // Unreliable feeds: one profile a third of the time.
        if r(3) == 0 {
            let start = r(horizon / 2);
            let end = start + 2 + r(4);
            clauses.push(Clause::Feed(match r(3) {
                0 => format!("drop:feed=price,p=0.{},start={start},end={end}", 2 + r(3)),
                1 => format!(
                    "delay:feed=price,slots={},start={start},end={end}",
                    1 + r(2)
                ),
                _ => format!(
                    "outage:feed=avail,dc={},start={start},end={end}",
                    r(num_dcs)
                ),
            }));
        }
        // Actor chaos for the daemon leg: up to two kill windows on the
        // state keeper (well separated so restart windows never overlap)
        // plus an occasional tiny stall, and a telemetry kill drawn after
        // the traffic below. `sockdrop` is excluded because it severs the
        // soak driver's own connection.
        if r(2) == 0 {
            let k1 = 1 + r(horizon - 3);
            clauses.push(Clause::Chaos(format!(
                "kill:actor=state_keeper,start={k1},end={}",
                k1 + 1
            )));
            if r(3) == 0 && k1 + 4 < horizon - 1 {
                let k2 = k1 + 4 + r(horizon - 1 - (k1 + 4));
                clauses.push(Clause::Chaos(format!(
                    "kill:actor=state_keeper,start={k2},end={}",
                    k2 + 1
                )));
            }
        }
        if r(3) == 0 {
            let s = 1 + r(horizon - 2);
            clauses.push(Clause::Chaos(format!(
                "stall:actor=state_keeper,ms={},start={s},end={}",
                5 + r(10),
                s + 1
            )));
        }
        // Live traffic: up to five submissions.
        for _ in 0..r(6) {
            clauses.push(Clause::Traffic {
                t: r(horizon),
                job: r(num_jobs) as usize,
                count: (1 + r(4)) as f64,
            });
        }
        // A telemetry-actor kill in half the seeds. The replacement takes
        // over its predecessor's inbox and pre-folds the stream on disk, so
        // the fold-identity oracle still sees every event. Drawn last, so
        // every other part of each seed's scenario is unchanged.
        if r(2) == 0 {
            let k = 1 + r(horizon - 3);
            clauses.push(Clause::Chaos(format!(
                "kill:actor=telemetry,start={k},end={}",
                k + 1
            )));
        }
        Scenario {
            seed,
            horizon,
            v,
            beta,
            admission_cap,
            checkpoint_every,
            kill_at,
            clauses,
        }
    }

    /// The data-fault plan (chaos clauses excluded — those only mean
    /// something under the daemon's supervisor).
    ///
    /// # Errors
    /// The DSL parse error for a malformed fault clause.
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        let spec = self.clause_specs(|c| matches!(c, Clause::Fault(_)));
        FaultPlan::parse(&spec).map_err(|e| e.to_string())
    }

    /// The chaos plan spec (`kill:`/`stall:` clauses), or `None` when the
    /// scenario has no actor chaos.
    pub fn chaos_spec(&self) -> Option<String> {
        let spec = self.clause_specs(|c| matches!(c, Clause::Chaos(_)));
        if spec.is_empty() {
            None
        } else {
            Some(spec)
        }
    }

    /// The unreliable-feed profile, or `None` when every feed is perfect.
    ///
    /// # Errors
    /// The DSL parse error for a malformed feed clause.
    pub fn feed_profile(&self) -> Result<Option<FeedProfile>, String> {
        let spec = self.clause_specs(|c| matches!(c, Clause::Feed(_)));
        if spec.is_empty() {
            return Ok(None);
        }
        FeedProfile::parse(&spec)
            .map(Some)
            .map_err(|e| e.to_string())
    }

    /// The traffic script as `(slot, job, count)` triples, in clause
    /// order.
    pub fn traffic(&self) -> Vec<(u64, usize, f64)> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Traffic { t, job, count } => Some((*t, *job, *count)),
                _ => None,
            })
            .collect()
    }

    /// The mutation self-check's corruption, if one is scripted.
    pub fn corruption(&self) -> Option<(u64, f64)> {
        self.clauses.iter().find_map(|c| match c {
            Clause::Corrupt { slot, delta } => Some((*slot, *delta)),
            _ => None,
        })
    }

    /// How many actor-kill windows the chaos plan schedules (the daemon
    /// leg expects exactly this many supervisor restarts).
    pub fn kill_count(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| matches!(c, Clause::Chaos(s) if s.starts_with("kill:")))
            .count()
    }

    /// Parses every clause through its real DSL, catching generation or
    /// hand-editing mistakes before a run starts.
    ///
    /// # Errors
    /// The first clause that fails its DSL parser or range check.
    pub fn validate(&self) -> Result<(), String> {
        let shape = PaperScenario::default();
        let num_dcs = shape.config().num_data_centers();
        let num_jobs = shape.config().num_job_classes();
        if self.horizon < 4 {
            return Err(format!("horizon {} is too short to soak", self.horizon));
        }
        if self.kill_at < 1 || self.kill_at >= self.horizon {
            return Err(format!(
                "kill_at {} must lie strictly inside the horizon {}",
                self.kill_at, self.horizon
            ));
        }
        let plan = self.fault_plan()?;
        plan.validate_for(num_dcs, num_jobs)
            .map_err(|e| e.to_string())?;
        if let Some(spec) = self.chaos_spec() {
            let chaos = FaultPlan::parse(&spec).map_err(|e| e.to_string())?;
            if chaos.faults().iter().any(|f| !f.is_chaos()) {
                return Err("chaos clauses must be kill:/stall:/sockdrop:".to_string());
            }
        }
        if let Some(profile) = self.feed_profile()? {
            profile.validate_for(num_dcs).map_err(|e| e.to_string())?;
        }
        for (t, job, count) in self.traffic() {
            if t >= self.horizon {
                return Err(format!(
                    "traffic slot {t} past the horizon {}",
                    self.horizon
                ));
            }
            if job >= num_jobs {
                return Err(format!("traffic job class {job} out of range ({num_jobs})"));
            }
            // verify: allow(float-eq): fract() == 0 is the exact integrality test
            if !(count.is_finite() && count > 0.0 && count.fract() == 0.0) {
                return Err(format!(
                    "traffic count {count} must be a positive whole number"
                ));
            }
        }
        Ok(())
    }

    fn clause_specs(&self, keep: impl Fn(&Clause) -> bool) -> String {
        self.clauses
            .iter()
            .filter(|c| keep(c))
            .map(|c| match c {
                Clause::Fault(s) | Clause::Chaos(s) | Clause::Feed(s) => s.clone(),
                _ => String::new(),
            })
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// The soak generator's domain-separation constant (so a soak seed never
/// replays the outage generator's stream for the same raw `u64`).
const SOAK_SEED_TAG: u64 = 0x5048_ab11_c0a5_7e57;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..64 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a, b, "seed {seed} must expand deterministically");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn seeds_actually_vary_the_scenario() {
        let mut horizons: Vec<u64> = (0..32).map(|s| Scenario::generate(s).horizon).collect();
        horizons.dedup();
        assert!(horizons.len() > 1, "horizon never varied across seeds");
        assert!(
            (0..64).any(|s| !Scenario::generate(s).clauses.is_empty()),
            "no seed generated any clause"
        );
    }

    #[test]
    fn clause_specs_roundtrip() {
        let clauses = vec![
            Clause::Fault("outage:dc=1,start=3,end=6".to_string()),
            Clause::Chaos("kill:actor=state_keeper,start=4,end=5".to_string()),
            Clause::Feed("drop:feed=price,p=0.4,start=0,end=9".to_string()),
            Clause::Traffic {
                t: 7,
                job: 3,
                count: 2.0,
            },
            Clause::Corrupt {
                slot: 5,
                delta: 4.0,
            },
        ];
        for clause in clauses {
            let spec = clause.spec();
            assert_eq!(Clause::parse(&spec), Ok(clause), "{spec}");
        }
    }

    #[test]
    fn generated_clauses_roundtrip_for_many_seeds() {
        for seed in 0..64 {
            for clause in Scenario::generate(seed).clauses {
                let spec = clause.spec();
                assert_eq!(
                    Clause::parse(&spec).as_ref(),
                    Ok(&clause),
                    "seed {seed}: {spec}"
                );
            }
        }
    }
}
