//! Allocation ceiling for enabled telemetry: the heap allocations that a
//! `MetricsLayer<JsonlSink>` stack adds to a slot must stay under a
//! recorded ceiling.
//!
//! The run is the benchmark's `ckpt-feeds` configuration (paper scenario,
//! seed 5, β = 0, its fault plan and lossy feed profile at full scale),
//! stepped for 1 000 slots once under a `NullObserver` and once under the
//! metrics layer over a JSONL sink. The difference between the two counts
//! is what telemetry allocates. A counting global allocator tallies the
//! allocations of the stepping thread only, so the test harness's other
//! threads do not disturb the count.
//!
//! The count does not depend on layout or timing, and an optimising build
//! can only remove allocations, so the ceiling holds in release builds as
//! well. It is the telemetry counterpart of `fw_golden`'s evaluation
//! ceiling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grefar::faults::FaultPlan;
use grefar::ingest::FeedProfile;
use grefar::obs::{JsonlSink, NullObserver, Observer};
use grefar::prelude::*;
use grefar::sim::SteppedRun;
use grefar_metrics::{MetricsConfig, MetricsLayer};

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 5;
/// The benchmark's `ckpt-feeds` horizon; the first [`SLOTS`] are stepped.
const HORIZON: usize = 4_000;
const SLOTS: usize = 1_000;
/// `ckpt-feeds`' fault plan and feed profile at full scale (the
/// benchmark's `fault_spec(1)` and `feed_spec(1, 5)`).
const FAULTS: &str = "outage:dc=2,start=600,end=640;spike:dc=0,factor=3,start=1800,end=1900;\
                      burst:factor=2,start=2200,end=2240";
const FEEDS: &str = "drop:feed=price,p=0.3,start=100,end=1100;\
                     timeout:feed=avail,p=0.2,start=1500,end=2500;\
                     delay:feed=price,slots=2,start=2500,end=3000;\
                     outage:feed=price,dc=1,start=3200,end=3260;\
                     corrupt:feed=avail,p=0.05,mode=nan,start=3300,end=3800;policy:seed=5";
/// Telemetry-added allocations per slot, at most. The stack added 101.8
/// per slot before series were updated in place and events serialised
/// through one buffer, and 11.0 after: one field vector per event, the
/// DC-0 deficit string, and the decision breakdown's three vectors.
const CEILING_PER_SLOT: f64 = 12.0;

fn fresh_run() -> SteppedRun {
    let scenario = PaperScenario::default().with_seed(SEED);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HORIZON);
    let g = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params");
    let sim = Simulation::new(config, inputs, Box::new(g))
        .with_fault_plan(FaultPlan::parse(FAULTS).expect("valid plan"))
        .expect("plan fits the paper scenario")
        .with_feed_profile(FeedProfile::parse(FEEDS).expect("valid profile"))
        .expect("profile fits the paper scenario");
    SteppedRun::new(sim)
}

/// Allocations made on this thread while stepping [`SLOTS`] slots.
fn allocations_over_slots(obs: &mut dyn Observer) -> u64 {
    let mut run = fresh_run();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..SLOTS {
        run.step(obs);
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn enabled_telemetry_allocations_stay_under_the_ceiling() {
    let bare = allocations_over_slots(&mut NullObserver);
    let mut layer = MetricsLayer::new(
        JsonlSink::new(Vec::with_capacity(1 << 22)),
        MetricsConfig::default(),
    );
    let observed = allocations_over_slots(&mut layer);
    let added = observed.saturating_sub(bare) as f64 / SLOTS as f64;
    assert!(
        added <= CEILING_PER_SLOT,
        "telemetry adds {added:.1} allocations per slot (ceiling {CEILING_PER_SLOT}); \
         {:.1} per slot without it",
        bare as f64 / SLOTS as f64
    );
}
