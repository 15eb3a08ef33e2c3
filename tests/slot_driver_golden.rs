//! Differential oracle for the slot driver: a GreFar run at β > 0 under a
//! fault plan, a lossy feed profile, an admission cap and a checkpoint
//! every 25 slots must reproduce a recorded golden run byte for byte —
//! the full event stream (wall-clock timings blanked), the checkpoint
//! files and the final report — both uninterrupted and killed at slot 60
//! then resumed.
//!
//! The fixtures in `tests/fixtures/slot_driver/` were recorded from the
//! simulator's former batch loop (`Simulation::run_resumable` /
//! `Simulation::resume`), which [`SteppedRun`] replaced. In the two
//! checkpoint fixtures, the `ckpt.tracker_dc` lines were since rewritten
//! from one `delay_samples` entry per completed job to `delay_counts`;
//! `killed.samples.ckpt.jsonl` keeps the slot-60 cut in the older form.

use grefar::faults::FaultPlan;
use grefar::ingest::FeedProfile;
use grefar::obs::{Event, Observer};
use grefar::prelude::*;
use grefar::sim::{Checkpoint, RunPolicy, SimError, SteppedRun};
use std::path::{Path, PathBuf};

const HORIZON: usize = 80;
const FAULTS: &str = "outage:dc=0,start=30,end=40;squeeze:start=45,end=55,iters=3";
const FEEDS: &str = "drop:feed=price,p=0.4,start=0,end=80;\
                     outage:feed=avail,dc=1,start=20,end=35;policy:seed=11,retries=1";
const ADMISSION_CAP: f64 = 40.0;

const EVENTS: &str = include_str!("fixtures/slot_driver/events.jsonl");
const KILLED_CKPT: &str = include_str!("fixtures/slot_driver/killed.ckpt.jsonl");
const KILLED_SAMPLES_CKPT: &str = include_str!("fixtures/slot_driver/killed.samples.ckpt.jsonl");
const FINAL_CKPT: &str = include_str!("fixtures/slot_driver/final.ckpt.jsonl");
const REPORT: &str = include_str!("fixtures/slot_driver/report.txt");

/// The cut's own marker: the last line a run killed at slot 60 emits.
const CUT_LINE: &str = "{\"event\":\"checkpoint.write\",\"t\":60}\n";

fn build() -> Simulation {
    let scenario = PaperScenario::default().with_seed(21);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HORIZON);
    let g = GreFar::new(&config, GreFarParams::new(7.5, 100.0)).expect("valid params");
    Simulation::new(config, inputs, Box::new(g))
        .with_admission_cap(ADMISSION_CAP)
        .with_fault_plan(FaultPlan::parse(FAULTS).expect("valid plan"))
        .expect("plan fits the paper scenario")
        .with_feed_profile(FeedProfile::parse(FEEDS).expect("valid profile"))
        .expect("profile fits the paper scenario")
}

/// Replaces the value of every `*_us` field with `0`: wall-clock timings
/// are the only nondeterministic payload.
fn blank_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("_us\":") {
        let (head, tail) = rest.split_at(at + "_us\":".len());
        out.push_str(head);
        out.push('0');
        rest = &tail[tail.find([',', '}']).unwrap_or(tail.len())..];
    }
    out.push_str(rest);
    out
}

/// Captures the event stream as JSONL with timings blanked.
#[derive(Default)]
struct Recorder(String);

impl Observer for Recorder {
    fn record_event(&mut self, event: Event) {
        self.0.push_str(&blank_timings(&event.to_json()));
        self.0.push('\n');
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("grefar-slot-driver-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("checkpoint readable")
}

/// Asserts equality without dumping two 100 kB strings on failure.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what} differs from the golden fixture at line {}:\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

#[test]
fn uninterrupted_run_reproduces_the_golden_run() {
    let dir = scratch("full");
    let ck = dir.join("run.ckpt.jsonl");
    let mut obs = Recorder::default();
    let report = SteppedRun::new(build())
        .complete(&mut obs, Some(&RunPolicy::new(&ck, 25)))
        .expect("no kill scheduled");
    assert_same("event stream", &obs.0, EVENTS);
    assert_same("final checkpoint", &read(&ck), FINAL_CKPT);
    assert_same("report", &format!("{report:#?}\n"), REPORT);
    assert!(report.dropped_jobs > 0, "the admission cap must bind");

    // Without a policy: the same report, the same stream minus the
    // checkpoint markers.
    let mut plain = Recorder::default();
    let plain_report = build().run_with_observer(&mut plain);
    let unmarked: String = EVENTS
        .lines()
        .filter(|l| !l.contains("\"event\":\"checkpoint.write\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_same("plain event stream", &plain.0, &unmarked);
    assert_eq!(plain_report, report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_and_resumed_run_reproduces_the_golden_run() {
    let dir = scratch("killed");
    let ck = dir.join("run.ckpt.jsonl");
    let kill = RunPolicy::new(&ck, 25).with_kill_at(60);

    let mut cut = Recorder::default();
    match SteppedRun::new(build()).complete(&mut cut, Some(&kill)) {
        Err(SimError::Killed { slot: 60, .. }) => {}
        Err(other) => panic!("expected a kill at slot 60, got {other}"),
        Ok(_) => panic!("the kill at slot 60 never fired"),
    }
    assert_same("killed checkpoint", &read(&ck), KILLED_CKPT);
    let prefix = cut
        .0
        .strip_suffix(CUT_LINE)
        .expect("the cut ends in its checkpoint");

    // Resuming under the same kill slot cuts again at once.
    let checkpoint = Checkpoint::load(&ck).expect("checkpoint parses");
    let mut again = Recorder::default();
    let recut = SteppedRun::resume(build(), checkpoint.clone())
        .and_then(|run| run.complete(&mut again, Some(&kill)));
    assert!(matches!(recut, Err(SimError::Killed { slot: 60, .. })));
    assert_eq!(again.0, CUT_LINE);
    assert_same("re-cut checkpoint", &read(&ck), KILLED_CKPT);

    // The resumed tail continues the stream exactly where the cut left it.
    let mut tail = Recorder::default();
    let report = SteppedRun::resume(build(), checkpoint)
        .and_then(|run| run.complete(&mut tail, Some(&RunPolicy::new(&ck, 25))))
        .expect("resume completes");
    assert_same(
        "killed + resumed event stream",
        &(prefix.to_owned() + &tail.0),
        EVENTS,
    );
    assert_same("final checkpoint", &read(&ck), FINAL_CKPT);
    assert_same("resumed report", &format!("{report:#?}\n"), REPORT);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_with_legacy_delay_samples_resumes_into_the_golden_run() {
    let legacy = Checkpoint::parse(KILLED_SAMPLES_CKPT).expect("legacy checkpoint parses");
    assert_eq!(
        legacy,
        Checkpoint::parse(KILLED_CKPT).expect("checkpoint parses"),
        "delay samples must fold into the recorded delay counts"
    );

    let dir = scratch("legacy");
    let ck = dir.join("run.ckpt.jsonl");
    let mut tail = Recorder::default();
    let report = SteppedRun::resume(build(), legacy)
        .and_then(|run| run.complete(&mut tail, Some(&RunPolicy::new(&ck, 25))))
        .expect("resume completes");
    // The golden stream from the first event of slot 60 on.
    let slot_60 = EVENTS
        .find("\"t\":60,")
        .and_then(|at| EVENTS[..at].rfind('\n'))
        .expect("the golden run reaches slot 60")
        + 1;
    assert_same("resumed event stream", &tail.0, &EVENTS[slot_60..]);
    assert_same("final checkpoint", &read(&ck), FINAL_CKPT);
    assert_same("resumed report", &format!("{report:#?}\n"), REPORT);
    std::fs::remove_dir_all(&dir).ok();
}
