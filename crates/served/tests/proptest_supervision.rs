//! Property tests for the supervision layer:
//!
//! * The restart budget's backoff schedule is a pure function of the
//!   [`RestartPolicy`] — deterministic, doubling, capped, and refused
//!   exactly when the intensity budget is blown.
//! * A seed-generated `stall:` chaos plan round-trips through the DSL and
//!   opens the same stall on every parse, classified through
//!   `ChaosPlan::starting` exactly as the state keeper classifies it — the
//!   stall timing the supervisor sees is a function of the seed alone.
//! * A feed harness rebuilt and fast-forwarded to a slot (the move a
//!   checkpoint resume or a state-keeper restart makes) reproduces the
//!   circuit breaker's half-open probe schedule bit-for-bit: probes land
//!   on the same slots with the same transitions as the harness that ran
//!   uninterrupted.

use grefar_faults::{splitmix64, ActorTarget};
use grefar_ingest::{FeedHarness, FeedProfile};
use grefar_obs::json::parse_object;
use grefar_obs::JsonlSink;
use grefar_served::{ChaosPlan, RestartPolicy};
use grefar_sim::PaperScenario;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #[test]
    fn backoff_schedule_is_deterministic_doubling_and_capped(
        base in 1u64..=500,
        cap_extra in 0u64..=2000,
        max_restarts in 1u32..=8,
    ) {
        let policy = RestartPolicy {
            backoff_base_ms: base,
            backoff_cap_ms: base + cap_extra,
            max_restarts,
            window: Duration::from_secs(30),
        };
        let schedule: Vec<Option<u64>> =
            (1..=max_restarts + 3).map(|k| policy.backoff_for(k)).collect();
        let again: Vec<Option<u64>> =
            (1..=max_restarts + 3).map(|k| policy.backoff_for(k)).collect();
        prop_assert_eq!(&schedule, &again, "backoff must be a pure function");

        let mut previous = 0u64;
        for (i, entry) in schedule.iter().enumerate() {
            let in_window = i as u32 + 1;
            if in_window <= max_restarts {
                let backoff = entry.unwrap();
                let expected = base
                    .saturating_mul(1 << u32::min(in_window - 1, 20))
                    .min(base + cap_extra);
                prop_assert_eq!(backoff, expected, "restart #{}", in_window);
                prop_assert!(backoff >= previous, "backoff must not shrink");
                prop_assert!(backoff <= base + cap_extra, "backoff must respect the cap");
                previous = backoff;
            } else {
                prop_assert_eq!(*entry, None, "budget blown at restart #{}", in_window);
            }
        }
    }

    #[test]
    fn stall_chaos_schedule_is_a_function_of_the_seed(seed in 0u64..10_000) {
        let mut state = seed;
        let actors = ["state_keeper", "admission", "telemetry"];
        let actor = actors[(splitmix64(&mut state) % 3) as usize];
        let ms = 1 + splitmix64(&mut state) % 40;
        let start = splitmix64(&mut state) % 16;
        let end = start + 1 + splitmix64(&mut state) % 4;
        let spec = format!("stall:actor={actor},ms={ms},start={start},end={end}");

        let first = ChaosPlan::parse(&spec).unwrap();
        let second = ChaosPlan::parse(&spec).unwrap();
        prop_assert_eq!(first.spec(), second.spec(), "DSL round-trip must be canonical");
        for slot in 0..24u64 {
            let opened_a = first.starting(slot);
            let opened_b = second.starting(slot);
            prop_assert_eq!(&opened_a, &opened_b, "slot {}", slot);
            if slot == start {
                prop_assert_eq!(opened_a.len(), 1, "the stall opens exactly once");
                prop_assert_eq!(opened_a[0].label(), "stall");
                prop_assert_eq!(opened_a[0].actor().map(ActorTarget::label), Some(actor));
                prop_assert_eq!(opened_a[0].magnitude(), Some(ms as f64));
            } else {
                prop_assert!(opened_a.is_empty(), "no stall opens at slot {}", slot);
            }
            prop_assert!(
                opened_a.iter().all(|fault| fault.label() != "kill"),
                "a stall plan must never schedule kills"
            );
        }
    }
}

/// The `feed.breaker` JSONL lines an observer captured, paired with the
/// slot each transition fired at.
fn breaker_lines(sink: JsonlSink<Vec<u8>>) -> Vec<(u64, String)> {
    let text = String::from_utf8(sink.into_inner()).expect("jsonl is utf-8");
    text.lines()
        .filter(|line| line.contains("\"event\":\"feed.breaker\""))
        .map(|line| {
            let fields = parse_object(line).expect("well-formed event");
            let t = fields
                .get("t")
                .and_then(|v| v.as_f64())
                .expect("feed.breaker carries t") as u64;
            (t, line.to_string())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn feeds_restart_reproduces_the_half_open_probe_schedule(
        seed in 0u64..512,
        restart_at in 1u64..23,
    ) {
        const HORIZON: u64 = 24;
        let mut state = seed;
        let outage_start = splitmix64(&mut state) % 6;
        let outage_end = outage_start + 4 + splitmix64(&mut state) % 8;
        let cooldown = 1 + splitmix64(&mut state) % 3;
        let spec = format!(
            "outage:feed=price,dc=0,start={outage_start},end={outage_end}; \
             policy:cooldown={cooldown}"
        );
        let scenario = PaperScenario::default().with_seed(seed);
        let num_dcs = scenario.config().num_data_centers();
        let inputs = scenario.into_inputs(HORIZON as usize);

        // The incarnation that never dies: observes every slot.
        let profile = FeedProfile::parse(&spec).unwrap();
        let mut full = FeedHarness::new(profile, num_dcs).unwrap();
        let mut full_sink = JsonlSink::new(Vec::new());
        for t in 0..HORIZON {
            full.observe(t, inputs.states(), inputs.all_arrivals(), &mut full_sink);
        }

        // The replacement resumed at `restart_at`: rebuilt from the profile
        // and fast-forwarded to that slot, exactly as checkpoint resume
        // rebuilds the engine's harness.
        let profile = FeedProfile::parse(&spec).unwrap();
        let mut revived = FeedHarness::new(profile, num_dcs).unwrap();
        revived.fast_forward(inputs.states(), inputs.all_arrivals(), restart_at);
        let mut revived_sink = JsonlSink::new(Vec::new());
        for t in restart_at..HORIZON {
            revived.observe(t, inputs.states(), inputs.all_arrivals(), &mut revived_sink);
        }

        let full_transitions = breaker_lines(full_sink);
        prop_assert!(
            !full_transitions.is_empty(),
            "an outage of 4+ slots must trip the breaker (breaker_fails=4) — \
             an empty stream would make this test vacuous"
        );
        let full_tail: Vec<(u64, String)> = full_transitions
            .into_iter()
            .filter(|(t, _)| *t >= restart_at)
            .collect();
        let revived_tail = breaker_lines(revived_sink);
        prop_assert_eq!(
            full_tail,
            revived_tail,
            "half-open probes after a restart at {} must interleave \
             identically with the uninterrupted run",
            restart_at
        );
    }
}
