//! The resilient feed client: per-slot deadline budgets, bounded retry with
//! exponential backoff + deterministic jitter, a per-feed circuit breaker
//! (closed → open → half-open probing), record validation/quarantine and a
//! last-known-good cache with staleness-bounded fallback estimators.

use crate::estimate::{EstimatedState, FieldEstimate, Provenance};
use crate::profile::{all_feeds, Estimator, FeedKind, FeedPolicy, FeedProfile, FeedProfileError};
use crate::upstream::{hash_roll, validate, GoodPayload, Upstream, FETCH_COST_MS, PURPOSE_JITTER};
use grefar_obs::{Event, NullObserver, Observer};
use grefar_types::{DataCenterState, SystemState, Tariff};

/// Period of the diurnal-prior estimator, in slots (one slot is one hour in
/// the paper's §VI-A setup).
pub const DIURNAL_PERIOD: u64 = 24;

/// Circuit-breaker state (the classic closed → open → half-open machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Fetching normally; failures accumulate in the sliding window.
    Closed,
    /// Tripped at `since`; fetches are skipped until `cooldown` elapses.
    Open { since: u64 },
    /// Cooldown elapsed; a single probe decides open vs. closed.
    HalfOpen,
}

#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    /// Sliding outcome window (`true` = failed slot-fetch).
    window: Vec<bool>,
    cursor: usize,
    filled: usize,
}

/// How many attempts the breaker allows this slot.
enum Gate {
    /// Breaker open: no attempt at all.
    Skip,
    /// Half-open: exactly one probe attempt.
    Probe,
    /// Closed: the full retry budget.
    Full,
}

impl Breaker {
    fn new(window: u64) -> Self {
        Self {
            state: BreakerState::Closed,
            window: vec![false; window as usize],
            cursor: 0,
            filled: 0,
        }
    }

    /// Gates the slot's fetch; may transition open → half-open.
    fn gate(
        &mut self,
        t: u64,
        policy: &FeedPolicy,
    ) -> (Gate, Option<(&'static str, &'static str)>) {
        match self.state {
            BreakerState::Closed => (Gate::Full, None),
            BreakerState::HalfOpen => (Gate::Probe, None),
            BreakerState::Open { since } => {
                if t >= since.saturating_add(policy.cooldown) {
                    self.state = BreakerState::HalfOpen;
                    (Gate::Probe, Some(("open", "half_open")))
                } else {
                    (Gate::Skip, None)
                }
            }
        }
    }

    /// Records the slot-fetch outcome; may trip or close the breaker.
    fn record(
        &mut self,
        success: bool,
        t: u64,
        policy: &FeedPolicy,
    ) -> Option<(&'static str, &'static str)> {
        match self.state {
            BreakerState::HalfOpen => {
                if success {
                    self.state = BreakerState::Closed;
                    self.window.iter_mut().for_each(|w| *w = false);
                    self.cursor = 0;
                    self.filled = 0;
                    Some(("half_open", "closed"))
                } else {
                    self.state = BreakerState::Open { since: t };
                    Some(("half_open", "open"))
                }
            }
            BreakerState::Closed => {
                // verify: allow(no-panic): cursor is maintained modulo window.len() two lines below
                self.window[self.cursor] = !success;
                self.cursor = (self.cursor + 1) % self.window.len();
                self.filled = (self.filled + 1).min(self.window.len());
                let fails = self.window.iter().filter(|w| **w).count() as u64;
                if fails >= policy.breaker_fails {
                    self.state = BreakerState::Open { since: t };
                    Some(("closed", "open"))
                } else {
                    None
                }
            }
            // `Skip` slots never reach `record`.
            BreakerState::Open { .. } => None,
        }
    }
}

/// One feed's client state: breaker, last-known-good cache and the diurnal
/// ring of per-hour observations.
#[derive(Debug, Clone)]
struct FeedClient {
    kind: FeedKind,
    dc: Option<usize>,
    /// Stable hash index (distinct per feed) for the disturbance rolls.
    idx: u64,
    breaker: Breaker,
    /// Newest validated record: `(slot it describes, payload)`.
    lkg: Option<(u64, GoodPayload)>,
    /// Newest validated record per hour of day.
    ring: Vec<Option<(u64, GoodPayload)>>,
}

/// Outcome of one slot's resilient fetch.
struct PollResult {
    /// Slot of the record that arrived and validated this slot, if any.
    arrived: Option<u64>,
    attempts: u64,
    /// Failure reason when nothing arrived.
    reason: &'static str,
}

impl FeedClient {
    fn new(kind: FeedKind, dc: Option<usize>, idx: u64, policy: &FeedPolicy) -> Self {
        Self {
            kind,
            dc,
            idx,
            breaker: Breaker::new(policy.breaker_window),
            lkg: None,
            ring: vec![None; DIURNAL_PERIOD as usize],
        }
    }

    fn emit_breaker(&self, t: u64, from: &'static str, to: &'static str, obs: &mut dyn Observer) {
        if !obs.enabled() {
            return;
        }
        let mut event = Event::new("feed.breaker")
            .field("t", t)
            .field("feed", self.kind.label());
        if let Some(dc) = self.dc {
            event = event.field("dc", dc);
        }
        obs.record_event(event.field("from", from).field("to", to));
        if to == "open" {
            obs.add_counter("feed.breaker_open", 1);
        }
    }

    /// The slot's resilient fetch: breaker gate, then bounded retry under
    /// the deadline budget, validating and caching whatever arrives.
    fn poll(
        &mut self,
        up: &Upstream<'_>,
        policy: &FeedPolicy,
        t: u64,
        obs: &mut dyn Observer,
    ) -> PollResult {
        let (gate, transition) = self.breaker.gate(t, policy);
        if let Some((from, to)) = transition {
            self.emit_breaker(t, from, to, obs);
        }
        let max_attempts = match gate {
            Gate::Skip => {
                let result = PollResult {
                    arrived: None,
                    attempts: 0,
                    reason: "breaker_open",
                };
                self.emit_fetch(&result, t, obs);
                return result;
            }
            Gate::Probe => 1,
            Gate::Full => 1 + policy.retries,
        };

        let mut spent = 0u64;
        let mut attempts = 0u64;
        let mut reason: &'static str = "retries_exhausted";
        let mut arrived = None;
        while attempts < max_attempts {
            if attempts > 0 {
                // Exponential backoff with deterministic jitter in
                // [0, backoff_ms); a new attempt launches only while the
                // slot's deadline budget is not exhausted.
                let shift = u32::try_from(attempts - 1).unwrap_or(16).min(16);
                let jitter = if policy.backoff_ms > 0 {
                    hash_roll(policy.seed, t, self.idx, attempts, PURPOSE_JITTER << 32)
                        % policy.backoff_ms
                } else {
                    0
                };
                spent += (policy.backoff_ms << shift) + jitter;
                if spent >= policy.deadline_ms {
                    reason = "deadline";
                    break;
                }
            }
            attempts += 1;
            match up.fetch(self.kind, self.dc, self.idx, t, attempts - 1) {
                Ok(record) => {
                    spent += FETCH_COST_MS;
                    match validate(record.payload) {
                        Ok(good) => {
                            self.store(record.slot, good);
                            arrived = Some(record.slot);
                            break;
                        }
                        Err(why) => {
                            reason = "quarantined";
                            if obs.enabled() {
                                let mut event = Event::new("feed.quarantine")
                                    .field("t", t)
                                    .field("feed", self.kind.label());
                                if let Some(dc) = self.dc {
                                    event = event.field("dc", dc);
                                }
                                obs.record_event(event.field("reason", why));
                                obs.add_counter("feed.quarantined", 1);
                            }
                        }
                    }
                }
                Err(failure) => {
                    spent += failure.cost_ms(policy.timeout_ms);
                    reason = failure.reason();
                }
            }
        }

        if let Some((from, to)) = self.breaker.record(arrived.is_some(), t, policy) {
            self.emit_breaker(t, from, to, obs);
        }
        let result = PollResult {
            arrived,
            attempts,
            reason,
        };
        self.emit_fetch(&result, t, obs);
        result
    }

    /// Emits the `feed.fetch` event for noteworthy outcomes (any failure,
    /// or a success that needed retries) plus the fetch counters.
    fn emit_fetch(&self, result: &PollResult, t: u64, obs: &mut dyn Observer) {
        if !obs.enabled() {
            return;
        }
        if result.attempts > 1 {
            obs.add_counter("feed.retries", result.attempts - 1);
        }
        if result.arrived.is_none() {
            obs.add_counter("feed.failures", 1);
        }
        if result.arrived.is_some() && result.attempts <= 1 {
            return; // clean fetches stay silent — counters only
        }
        let mut event = Event::new("feed.fetch")
            .field("t", t)
            .field("feed", self.kind.label());
        if let Some(dc) = self.dc {
            event = event.field("dc", dc);
        }
        event = event
            .field(
                "outcome",
                if result.arrived.is_some() {
                    "ok"
                } else {
                    "fail"
                },
            )
            .field("attempts", result.attempts);
        if result.arrived.is_none() {
            event = event.field("reason", result.reason);
        }
        obs.record_event(event);
    }

    /// Caches a validated record (keeping the newest per cache).
    fn store(&mut self, slot: u64, good: GoodPayload) {
        let hour = (slot % DIURNAL_PERIOD) as usize;
        if let Some(entry) = self.ring.get_mut(hour) {
            if entry.as_ref().is_none_or(|(s, _)| slot >= *s) {
                *entry = Some((slot, good.clone()));
            }
        }
        if self.lkg.as_ref().is_none_or(|(s, _)| slot >= *s) {
            self.lkg = Some((slot, good));
        }
    }

    /// The field estimate for slot `t`, given whether a record arrived this
    /// slot. Falls back to the policy's estimator, then to `prior`.
    fn estimate(
        &self,
        t: u64,
        policy: &FeedPolicy,
        arrived: Option<u64>,
        prior: impl FnOnce() -> GoodPayload,
    ) -> (GoodPayload, FieldEstimate) {
        if arrived.is_some() {
            // An arrival always lands in the last-known-good cache (the
            // cache keeps the newest record, so it can only be newer).
            // verify: allow(no-panic): `store` ran for this arrival earlier in the same poll, so lkg is populated
            let (slot, payload) = self.lkg.clone().expect("arrival was cached");
            let age = t - slot;
            let provenance = if age == 0 {
                Provenance::Fresh
            } else {
                Provenance::Delayed
            };
            return (payload, FieldEstimate { age, provenance });
        }
        let hold = self
            .lkg
            .clone()
            .map(|(slot, payload)| (slot, payload, Provenance::HeldLast));
        let pick = match policy.estimator {
            Estimator::HoldLast => hold,
            Estimator::DiurnalPrior => {
                let slot_entry = self
                    .ring
                    .get((t % DIURNAL_PERIOD) as usize)
                    .and_then(Option::as_ref);
                match slot_entry {
                    Some((slot, payload)) => {
                        Some((*slot, payload.clone(), Provenance::DiurnalPrior))
                    }
                    None => hold,
                }
            }
        };
        match pick {
            Some((slot, payload, provenance)) => {
                let age = t - slot;
                let provenance = if age > policy.max_stale {
                    Provenance::Expired
                } else {
                    provenance
                };
                (payload, FieldEstimate { age, provenance })
            }
            None => (
                prior(),
                FieldEstimate {
                    age: t + 1,
                    provenance: Provenance::Prior,
                },
            ),
        }
    }
}

/// The whole feed layer of one run: a resilient client per feed, pulling
/// from the profile's unreliable upstream and assembling the per-slot
/// [`EstimatedState`] the scheduler acts on.
///
/// Feeds (for `n` data centers): `n` price feeds, `n` availability feeds,
/// one arrivals feed. Call [`observe`](FeedHarness::observe) exactly once
/// per slot, in slot order — the breaker windows and caches advance with
/// each call, and replaying the same slots reproduces the same state
/// (see [`fast_forward`](FeedHarness::fast_forward)).
#[derive(Debug, Clone)]
pub struct FeedHarness {
    profile: FeedProfile,
    num_dcs: usize,
    clients: Vec<FeedClient>,
}

impl FeedHarness {
    /// Builds the feed layer for a system with `num_dcs` data centers.
    ///
    /// # Errors
    /// [`FeedProfileError`] if the profile targets a data center out of
    /// range.
    pub fn new(profile: FeedProfile, num_dcs: usize) -> Result<Self, FeedProfileError> {
        profile.validate_for(num_dcs)?;
        let policy = *profile.policy();
        let clients = all_feeds(num_dcs)
            .into_iter()
            .enumerate()
            .map(|(idx, (kind, dc))| FeedClient::new(kind, dc, idx as u64, &policy))
            .collect();
        Ok(Self {
            profile,
            num_dcs,
            clients,
        })
    }

    /// The profile in force.
    pub fn profile(&self) -> &FeedProfile {
        &self.profile
    }

    /// Runs every feed's resilient fetch for slot `t` against the frozen
    /// truth (`states`/`arrivals`, indexed by slot) and assembles the
    /// estimate the scheduler will act on. Emits `feed.*` telemetry.
    ///
    /// # Panics
    /// Panics if `t` is outside the horizon or the truth's shape mismatches
    /// the harness.
    pub fn observe(
        &mut self,
        t: u64,
        states: &[SystemState],
        arrivals: &[Vec<f64>],
        obs: &mut dyn Observer,
    ) -> EstimatedState {
        assert!((t as usize) < states.len(), "slot {t} outside the horizon");
        // verify: allow(no-panic): bounds asserted on the line above
        let truth = &states[t as usize];
        assert_eq!(
            truth.num_data_centers(),
            self.num_dcs,
            "truth has a different data-center count"
        );
        let policy = *self.profile.policy();
        let up = Upstream::new(&self.profile, states, arrivals);
        let n = self.num_dcs;

        let mut dcs = Vec::with_capacity(n);
        let mut price_meta = Vec::with_capacity(n);
        let mut avail_meta = Vec::with_capacity(n);
        for i in 0..n {
            let truth_dc = truth.data_center(i);
            let arrived = self.clients[i].poll(&up, &policy, t, obs).arrived; // verify: allow(no-panic): the constructor builds exactly 2n+1 clients, i < n
            let (tariff, meta) = match self.clients[i].estimate(t, &policy, arrived, || {
                GoodPayload::Price(Tariff::flat(0.0))
            }) {
                (GoodPayload::Price(tariff), meta) => (tariff, meta),
                (other, _) => unreachable!("price feed served {other:?}"), // verify: allow(no-panic): feed index < n serves Price payloads by construction
            };
            price_meta.push(meta);

            let classes = truth_dc.available_slice().len();
            let arrived = self.clients[n + i].poll(&up, &policy, t, obs).arrived; // verify: allow(no-panic): the constructor builds exactly 2n+1 clients, n + i < 2n
            let (levels, meta) = match self.clients[n + i].estimate(t, &policy, arrived, || {
                GoodPayload::Levels(vec![0.0; classes])
            }) {
                (GoodPayload::Levels(levels), meta) => (levels, meta),
                (other, _) => unreachable!("availability feed served {other:?}"), // verify: allow(no-panic): feed indices n..2n serve Levels payloads by construction
            };
            avail_meta.push(meta);
            dcs.push(DataCenterState::new(levels, tariff));
        }

        let arrivals_client = &mut self.clients[2 * n]; // verify: allow(no-panic): the constructor builds exactly 2n+1 clients; 2n is the arrivals feed
        let arrived = arrivals_client.poll(&up, &policy, t, obs).arrived;
        let classes = arrivals.first().map_or(0, Vec::len);
        let (arrivals_prev, arrivals_meta) =
            match arrivals_client.estimate(t, &policy, arrived, || {
                GoodPayload::Levels(vec![0.0; classes])
            }) {
                (GoodPayload::Levels(levels), meta) => (levels, meta),
                (other, _) => unreachable!("arrivals feed served {other:?}"), // verify: allow(no-panic): feed index 2n serves Levels payloads by construction
            };

        EstimatedState::new(
            SystemState::new(t, dcs),
            price_meta,
            avail_meta,
            arrivals_prev,
            arrivals_meta,
        )
    }

    /// Replays slots `0..upto` silently, reconstructing the exact client
    /// state (breakers, caches) a run reaches after `upto` observed slots —
    /// the feed half of bit-identical checkpoint resume. Call on a freshly
    /// built harness.
    pub fn fast_forward(&mut self, states: &[SystemState], arrivals: &[Vec<f64>], upto: u64) {
        let mut null = NullObserver;
        for t in 0..upto {
            let _ = self.observe(t, states, arrivals, &mut null);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Test sink that keeps the full events (MemoryObserver only counts).
    #[derive(Default)]
    struct Recorder {
        events: Vec<Event>,
        counters: BTreeMap<&'static str, u64>,
    }

    impl Recorder {
        fn new() -> Self {
            Self::default()
        }

        fn events(&self) -> &[Event] {
            &self.events
        }

        fn event_count(&self, name: &str) -> usize {
            self.events.iter().filter(|e| e.name() == name).count()
        }

        fn counter(&self, name: &str) -> u64 {
            self.counters.get(name).copied().unwrap_or(0)
        }
    }

    impl Observer for Recorder {
        fn record_event(&mut self, event: Event) {
            self.events.push(event);
        }

        fn add_counter(&mut self, name: &'static str, delta: u64) {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    fn truth(slots: usize, dcs: usize) -> (Vec<SystemState>, Vec<Vec<f64>>) {
        let states = (0..slots)
            .map(|t| {
                SystemState::new(
                    t as u64,
                    (0..dcs)
                        .map(|i| {
                            DataCenterState::new(
                                vec![10.0 + i as f64],
                                Tariff::flat(0.2 + 0.01 * t as f64),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let arrivals = (0..slots).map(|t| vec![(t % 5) as f64]).collect();
        (states, arrivals)
    }

    fn harness(spec: &str, dcs: usize) -> FeedHarness {
        FeedHarness::new(FeedProfile::parse(spec).unwrap(), dcs).unwrap()
    }

    #[test]
    fn perfect_profile_estimates_are_fresh_truth() {
        let (states, arrivals) = truth(30, 2);
        let mut h = harness("", 2);
        let mut obs = Recorder::new();
        for t in 0..30u64 {
            let est = h.observe(t, &states, &arrivals, &mut obs);
            assert!(est.is_fresh(), "slot {t}");
            assert_eq!(est.state(), &states[t as usize], "slot {t}");
            if t > 0 {
                assert_eq!(est.arrivals_prev(), &arrivals[t as usize - 1][..]);
            }
        }
        assert_eq!(obs.event_count("feed.fetch"), 0);
        assert_eq!(obs.event_count("feed.breaker"), 0);
        assert_eq!(obs.event_count("feed.quarantine"), 0);
    }

    #[test]
    fn outage_falls_back_to_hold_last_with_growing_age() {
        let (states, arrivals) = truth(30, 1);
        // Breaker kept out of the way (8 fails needed, outage is 4 slots):
        // this test is about the hold-last fallback alone.
        let mut h = harness(
            "outage:feed=price,dc=0,start=10,end=14;policy:breaker_fails=8",
            1,
        );
        let mut obs = Recorder::new();
        for t in 0..10u64 {
            h.observe(t, &states, &arrivals, &mut obs);
        }
        for (t, want_age) in [(10u64, 1u64), (11, 2), (12, 3), (13, 4)] {
            let est = h.observe(t, &states, &arrivals, &mut obs);
            let f = est.price_estimate(0);
            assert_eq!(f.provenance, Provenance::HeldLast, "slot {t}");
            assert_eq!(f.age, want_age, "slot {t}");
            // The held price is the slot-9 truth.
            let held = est.state().data_center(0).price();
            assert!((held - states[9].data_center(0).price()).abs() < 1e-12);
        }
        // Recovery: slot 14 fetches fresh again.
        let est = h.observe(14, &states, &arrivals, &mut obs);
        assert!(est.price_estimate(0).provenance.is_fresh());
        assert!(obs.event_count("feed.fetch") >= 4);
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_reprobes() {
        let (states, arrivals) = truth(60, 1);
        // Default policy: window 8, 4 fails trip, cooldown 6, 3 attempts.
        let mut h = harness("outage:feed=avail,dc=0,start=5,end=40", 1);
        let mut obs = Recorder::new();
        for t in 0..60u64 {
            h.observe(t, &states, &arrivals, &mut obs);
        }
        let breakers: Vec<(u64, String, String)> = obs
            .events()
            .iter()
            .filter(|e| e.name() == "feed.breaker")
            .map(|e| {
                let t = match e.get("t").unwrap() {
                    grefar_obs::Value::U64(v) => *v,
                    other => panic!("t {other:?}"),
                };
                let get = |k: &str| match e.get(k).unwrap() {
                    grefar_obs::Value::Str(s) => s.to_string(),
                    other => panic!("{k} {other:?}"),
                };
                (t, get("from"), get("to"))
            })
            .collect();
        // Trips at the 4th failed slot (5,6,7,8).
        assert_eq!(breakers[0], (8, "closed".into(), "open".into()));
        // Half-open probe after the cooldown, which fails and re-opens.
        assert_eq!(breakers[1], (14, "open".into(), "half_open".into()));
        assert_eq!(breakers[2], (14, "half_open".into(), "open".into()));
        // Eventually the outage ends and a probe closes the breaker.
        let closed = breakers
            .iter()
            .find(|(_, _, to)| to == "closed")
            .expect("breaker closes after recovery");
        assert!(closed.0 >= 40);
        // While open, slots are skipped without attempts.
        let skipped = obs
            .events()
            .iter()
            .filter(|e| e.name() == "feed.fetch")
            .filter(|e| {
                matches!(e.get("reason"), Some(grefar_obs::Value::Str(s)) if s == "breaker_open")
            })
            .count();
        assert!(
            skipped >= 4,
            "open breaker should skip fetches, got {skipped}"
        );
    }

    /// Extracts `(t, from, to)` breaker transitions from a recorded stream.
    fn transitions(obs: &Recorder) -> Vec<(u64, String, String)> {
        obs.events()
            .iter()
            .filter(|e| e.name() == "feed.breaker")
            .map(|e| {
                let t = match e.get("t").unwrap() {
                    grefar_obs::Value::U64(v) => *v,
                    other => panic!("t {other:?}"),
                };
                let get = |k: &str| match e.get(k).unwrap() {
                    grefar_obs::Value::Str(s) => s.to_string(),
                    other => panic!("{k} {other:?}"),
                };
                (t, get("from"), get("to"))
            })
            .collect()
    }

    // The three tests below exercise the breaker under the *daemon's*
    // call patterns. The batch simulator observes each slot exactly once,
    // in order; a real-time clock also re-enters a slot (a probe still in
    // flight when the monitor fires again), flaps open→half-open→open
    // inside a single slot (cooldown=1 against a persistent outage), and
    // jumps many slots at once (wall time passed while the process was
    // stalled). The breaker must stay deterministic under all three.

    #[test]
    fn reprobe_within_the_same_slot_is_gated_off() {
        let (states, arrivals) = truth(40, 1);
        // Trip fast (2 fails in a window of 2) so the episode is short.
        let mut h = harness(
            "outage:feed=price,dc=0,start=4,end=40;\
             policy:breaker_window=2,breaker_fails=2,cooldown=2",
            1,
        );
        let mut obs = Recorder::new();
        for t in 0..6u64 {
            h.observe(t, &states, &arrivals, &mut obs);
        }
        // Trips at the second failed slot.
        assert_eq!(transitions(&obs)[0], (5, "closed".into(), "open".into()));

        // Cooldown elapses at slot 7: the first observation transitions to
        // half-open and spends its single probe (which fails and re-opens).
        h.observe(6, &states, &arrivals, &mut obs);
        h.observe(7, &states, &arrivals, &mut obs);
        let after_probe = transitions(&obs);
        assert_eq!(after_probe[1], (7, "open".into(), "half_open".into()));
        assert_eq!(after_probe[2], (7, "half_open".into(), "open".into()));

        // Re-entering slot 7 — the real-time monitor firing again while the
        // probe's outcome is already decided — must NOT launch a second
        // probe: `since` was re-stamped to 7, the cooldown window restarts,
        // and the repeat observation is skipped with zero attempts.
        let before = obs.event_count("feed.fetch");
        h.observe(7, &states, &arrivals, &mut obs);
        assert_eq!(transitions(&obs).len(), 3, "no extra transitions");
        let last = obs.events()[obs.events().len() - 1].clone();
        assert_eq!(last.name(), "feed.fetch");
        assert!(
            matches!(last.get("reason"), Some(grefar_obs::Value::Str(s)) if s == "breaker_open"),
            "re-probe in the same slot must be gated off"
        );
        assert_eq!(obs.event_count("feed.fetch"), before + 1);
    }

    #[test]
    fn cooldown_one_flaps_open_half_open_open_within_one_slot() {
        let (states, arrivals) = truth(30, 1);
        let mut h = harness(
            "outage:feed=price,dc=0,start=2,end=30;\
             policy:breaker_window=2,breaker_fails=2,cooldown=1",
            1,
        );
        let mut obs = Recorder::new();
        for t in 0..10u64 {
            h.observe(t, &states, &arrivals, &mut obs);
        }
        let ts = transitions(&obs);
        assert_eq!(ts[0], (3, "closed".into(), "open".into()));
        // From slot 4 on, every slot replays the full flap: the one-slot
        // cooldown has always just elapsed, so the gate goes half-open and
        // the failed probe re-opens — two transitions, one slot, repeated.
        for (i, t) in (4..10u64).enumerate() {
            assert_eq!(
                ts[1 + 2 * i],
                (t, "open".into(), "half_open".into()),
                "slot {t}"
            );
            assert_eq!(
                ts[2 + 2 * i],
                (t, "half_open".into(), "open".into()),
                "slot {t}"
            );
        }
        // Each flap costs exactly one probe attempt, never the full retry
        // budget: the breaker still sheds load even while flapping.
        let probes = obs
            .events()
            .iter()
            .filter(|e| e.name() == "feed.fetch")
            .filter(|e| matches!(e.get("t"), Some(grefar_obs::Value::U64(t)) if *t >= 4))
            .all(|e| matches!(e.get("attempts"), Some(grefar_obs::Value::U64(a)) if *a <= 1));
        assert!(probes, "flapping probes must be single-attempt");
    }

    #[test]
    fn slot_jump_past_cooldown_probes_once_and_recovers() {
        let (states, arrivals) = truth(80, 1);
        // Outage ends at slot 10; the breaker trips inside it.
        let mut h = harness(
            "outage:feed=price,dc=0,start=2,end=10;\
             policy:breaker_window=2,breaker_fails=2,cooldown=4",
            1,
        );
        let mut obs = Recorder::new();
        for t in 0..4u64 {
            h.observe(t, &states, &arrivals, &mut obs);
        }
        assert_eq!(transitions(&obs)[0], (3, "closed".into(), "open".into()));

        // The daemon stalls and wakes up 50 slots later. The jump is far
        // past the cooldown: exactly one half-open probe runs (not one per
        // skipped slot), it succeeds against the recovered upstream, and
        // the breaker closes with a cleared failure window.
        let before = obs.event_count("feed.fetch");
        let est = h.observe(53, &states, &arrivals, &mut obs);
        let ts = transitions(&obs);
        assert_eq!(ts[1], (53, "open".into(), "half_open".into()));
        assert_eq!(ts[2], (53, "half_open".into(), "closed".into()));
        assert_eq!(ts.len(), 3);
        assert_eq!(obs.event_count("feed.fetch"), before, "clean probe");
        assert!(est.price_estimate(0).provenance.is_fresh());

        // The cleared window means one stray failure does not re-trip: the
        // breaker needs a full fresh streak of `breaker_fails` failures.
        let mut h2 = harness(
            "outage:feed=price,dc=0,start=2,end=10;outage:feed=price,dc=0,start=60,end=61;\
             policy:breaker_window=2,breaker_fails=2,cooldown=4",
            1,
        );
        let mut obs2 = Recorder::new();
        for t in 0..4u64 {
            h2.observe(t, &states, &arrivals, &mut obs2);
        }
        h2.observe(53, &states, &arrivals, &mut obs2);
        h2.observe(60, &states, &arrivals, &mut obs2);
        let ts2 = transitions(&obs2);
        assert!(
            !ts2.iter().any(|(t, _, to)| *t == 60 && to == "open"),
            "one failure after recovery must not re-trip a cleared window"
        );
    }

    #[test]
    fn quarantine_guards_nan_and_negative_records() {
        let (states, arrivals) = truth(20, 1);
        let mut h = harness("corrupt:feed=price,p=1,mode=nan,start=0,end=20", 1);
        let mut obs = Recorder::new();
        let est = h.observe(0, &states, &arrivals, &mut obs);
        // Slot 0, nothing ever cached: the conservative zero prior serves.
        assert_eq!(est.price_estimate(0).provenance, Provenance::Prior);
        assert!(est.state().data_center(0).price().abs() < 1e-12);
        assert!(obs.event_count("feed.quarantine") >= 1);
        assert!(obs.counter("feed.quarantined") > 0);
        // Availability stays fresh — corruption only hit the price feed.
        assert!(est.avail_estimate(0).provenance.is_fresh());
    }

    #[test]
    fn diurnal_estimator_prefers_same_hour_of_day() {
        let (mut states, arrivals) = truth(80, 1);
        // Make the price strongly hour-dependent: price = hour/100.
        for (t, s) in states.iter_mut().enumerate() {
            *s = SystemState::new(
                t as u64,
                vec![DataCenterState::new(
                    vec![10.0],
                    Tariff::flat((t % 24) as f64 / 100.0),
                )],
            );
        }
        let mut h = harness(
            "outage:feed=price,dc=0,start=48,end=72;policy:estimator=diurnal,max_stale=30",
            1,
        );
        let mut obs = Recorder::new();
        let mut checked = false;
        for t in 0..72u64 {
            let est = h.observe(t, &states, &arrivals, &mut obs);
            if (48..72).contains(&t) && t % 24 != 0 {
                let f = est.price_estimate(0);
                // Breaker-open slots still estimate; same-hour prior means
                // the served price matches the hour exactly, age ≈ 24.
                assert_eq!(f.provenance, Provenance::DiurnalPrior, "slot {t}");
                assert_eq!(f.age, 24, "slot {t}");
                let served = est.state().data_center(0).price();
                assert!(
                    (served - (t % 24) as f64 / 100.0).abs() < 1e-12,
                    "slot {t} served {served}"
                );
                checked = true;
            }
        }
        assert!(checked);
    }

    #[test]
    fn expired_provenance_past_max_stale() {
        let (states, arrivals) = truth(40, 1);
        let mut h = harness(
            "outage:feed=price,dc=0,start=5,end=40;policy:max_stale=10,breaker_fails=8,breaker_window=8",
            1,
        );
        let mut obs = Recorder::new();
        let mut saw_expired = false;
        for t in 0..40u64 {
            let est = h.observe(t, &states, &arrivals, &mut obs);
            let f = est.price_estimate(0);
            if f.age > 10 {
                assert_eq!(f.provenance, Provenance::Expired, "slot {t}");
                saw_expired = true;
            }
        }
        assert!(saw_expired);
    }

    #[test]
    fn identical_seeds_replay_identical_event_streams() {
        let (states, arrivals) = truth(120, 2);
        let spec =
            "drop:feed=price,p=0.4,start=0,end=120;timeout:feed=avail,p=0.3,start=0,end=120;\
                    corrupt:feed=price,p=0.2,mode=nan,start=0,end=120;policy:seed=42";
        let run = |spec: &str| {
            let mut h = harness(spec, 2);
            let mut obs = Recorder::new();
            let mut estimates = Vec::new();
            for t in 0..120u64 {
                estimates.push(h.observe(t, &states, &arrivals, &mut obs));
            }
            let events: Vec<String> = obs.events().iter().map(|e| e.to_json()).collect();
            (estimates, events)
        };
        let (est_a, ev_a) = run(spec);
        let (est_b, ev_b) = run(spec);
        assert_eq!(est_a, est_b, "estimates must be deterministic");
        assert_eq!(ev_a, ev_b, "telemetry must be byte-identical");
        assert!(!ev_a.is_empty());
        let (_, ev_c) = run(&spec.replace("seed=42", "seed=43"));
        assert_ne!(ev_a, ev_c, "a different seed must change the schedule");
    }

    #[test]
    fn fast_forward_matches_live_observation() {
        let (states, arrivals) = truth(100, 2);
        let spec = "drop:feed=price,p=0.5,start=0,end=100;outage:feed=avail,dc=1,start=20,end=60;\
                    policy:seed=3";
        let mut live = harness(spec, 2);
        let mut null = NullObserver;
        for t in 0..70u64 {
            live.observe(t, &states, &arrivals, &mut null);
        }
        let mut replayed = harness(spec, 2);
        replayed.fast_forward(&states, &arrivals, 70);
        // From slot 70 on, both harnesses must produce identical estimates.
        for t in 70..100u64 {
            let a = live.observe(t, &states, &arrivals, &mut null);
            let b = replayed.observe(t, &states, &arrivals, &mut null);
            assert_eq!(a, b, "slot {t}");
        }
    }

    #[test]
    fn rejects_out_of_range_dc() {
        let profile = FeedProfile::parse("outage:feed=price,dc=5,start=0,end=4").unwrap();
        assert!(FeedHarness::new(profile, 2).is_err());
    }
}
