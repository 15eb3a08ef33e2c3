//! Spans for the traced run, recorded from the benchmark's side of each
//! public call.
//!
//! A thread-local [`Recorder`] keeps every span (name, start, end, parent,
//! slot) in memory. Three kinds of code feed it:
//!
//! * the benchmark's own spans around `SteppedRun::step`,
//!   `SteppedRun::checkpoint`, the checkpoint write and
//!   `SteppedRun::finish` ([`enter`]/[`exit`]);
//! * [`Traced`], an [`Observer`] that receives the program's existing
//!   `span_enter`/`span_exit`/`span_leaf` hooks and times every event it
//!   forwards to the sink it wraps;
//! * [`TracedScheduler`], which times `decide_observed` as `core.decide`.
//!
//! A span's self time is its duration minus the time its children cover.
//! The root span `run` covers the traced loop, so the root's self time is
//! whatever no layer span explains.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grefar_core::{QueueState, Scheduler, SolverBudget};
use grefar_metrics::MetricsLayer;
use grefar_obs::{Event, JsonlSink, NullObserver, Observer};
use grefar_types::{Decision, SystemState};

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    slot: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Un-timed work reported in bulk under a span (simplex pivots).
#[derive(Debug, Clone, Copy)]
struct Leaf {
    span: u32,
    name: &'static str,
    count: u64,
}

/// Every span of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    leaves: Vec<Leaf>,
    slot: u32,
    unbalanced: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any previous recorder.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(16),
            leaves: Vec::new(),
            slot: 0,
            unbalanced: 0,
        });
    });
}

/// Stops recording and hands back what was recorded.
pub fn stop() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Tags spans opened from now on with `slot`.
pub fn set_slot(slot: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.slot = u32::try_from(slot).unwrap_or(u32::MAX);
        }
    });
}

/// Opens a span nested under the innermost open one. A no-op when no
/// recorder is running.
pub fn enter(name: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let start_ns = elapsed_ns(rec.origin);
            let index = u32::try_from(rec.spans.len()).unwrap_or(u32::MAX);
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: rec.stack.last().copied().unwrap_or(NO_PARENT),
                slot: rec.slot,
            });
            rec.stack.push(index);
        }
    });
}

/// Closes the innermost open span.
pub fn exit() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let now = elapsed_ns(rec.origin);
            match rec.stack.pop() {
                Some(index) => {
                    if let Some(span) = rec.spans.get_mut(index as usize) {
                        span.end_ns = now;
                    }
                }
                None => rec.unbalanced += 1,
            }
        }
    });
}

/// Records `count` un-timed leaf operations under the innermost span.
pub fn leaf(name: &'static str, count: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(&span) = rec.stack.last() {
                rec.leaves.push(Leaf { span, name, count });
            }
        }
    });
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Time and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    /// Spans still open, plus exits that had no matching enter.
    pub fn unbalanced(&self) -> u64 {
        self.stack.len() as u64 + self.unbalanced
    }

    /// Per-name totals, and each span's self time (indexed like the spans).
    pub fn totals(&self) -> (BTreeMap<&'static str, Totals>, Vec<u64>) {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(c) = covered.get_mut(span.parent as usize) {
                *c += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut self_ns = Vec::with_capacity(self.spans.len());
        for (span, covered) in self.spans.iter().zip(&covered) {
            let own = span.duration_ns().saturating_sub(*covered);
            self_ns.push(own);
            let t = by_name.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
        (by_name, self_ns)
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// For every span named `parent`, in order, how many direct children
    /// named `child` it has.
    pub fn children_per(&self, parent: &str, child: &str) -> Vec<u64> {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == parent {
                counts.insert(i as u32, 0);
            }
        }
        for span in &self.spans {
            if span.name == child {
                if let Some(c) = counts.get_mut(&span.parent) {
                    *c += 1;
                }
            }
        }
        counts.into_values().collect()
    }

    /// Leaf totals named `name`, one entry per span that reported any.
    pub fn leaves(&self, name: &str) -> Vec<u64> {
        let mut per_span: BTreeMap<u32, u64> = BTreeMap::new();
        for leaf in self.leaves.iter().filter(|l| l.name == name) {
            *per_span.entry(leaf.span).or_insert(0) += leaf.count;
        }
        per_span.into_values().collect()
    }

    /// Writes every span as `[name, start_ns, end_ns, parent, slot]`
    /// (name as an index into `names`; parent `-1` for the root).
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut out = BufWriter::new(File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"names\":["
        )?;
        for (i, name) in names.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" })?;
        }
        writeln!(out, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                index.get(s.name).copied().unwrap_or(0),
                s.start_ns,
                s.end_ns,
                parent,
                s.slot
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Counts taken from the event stream as it passes a [`Traced`] observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub stale_slots: u64,
    pub fetch_attempts: u64,
    pub retries: u64,
    pub failed: u64,
    pub breaker_opens: u64,
}

/// The benchmark-owned observer of a traced run. It records the program's
/// span hooks, and times each event it forwards to `inner` as a span
/// named `layer`. It never forwards span hooks, so a second `Traced`
/// deeper in the stack times only its own sink.
pub struct Traced<I: Observer> {
    inner: I,
    layer: &'static str,
    pub tally: Tally,
}

impl<I: Observer> Traced<I> {
    pub fn new(inner: I, layer: &'static str) -> Self {
        Self {
            inner,
            layer,
            tally: Tally::default(),
        }
    }
}

impl<I: Observer> Observer for Traced<I> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record_event(&mut self, event: Event) {
        match event.name() {
            "state.stale" => self.tally.stale_slots += 1,
            "feed.fetch" => {
                let attempts = match event.get("attempts") {
                    Some(grefar_obs::Value::U64(n)) => *n,
                    _ => 0,
                };
                self.tally.fetch_attempts += attempts;
            }
            _ => {}
        }
        enter(self.layer);
        self.inner.record_event(event);
        exit();
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        match name {
            "feed.retries" => self.tally.retries += delta,
            "feed.failures" => self.tally.failed += delta,
            "feed.breaker_open" => self.tally.breaker_opens += delta,
            _ => {}
        }
        self.inner.add_counter(name, delta);
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.inner.set_gauge(name, value);
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        self.inner.record_value(name, value);
    }

    fn record_duration(&mut self, name: &'static str, duration: Duration) {
        self.inner.record_duration(name, duration);
    }

    fn profiling(&self) -> bool {
        true
    }

    fn span_enter(&mut self, name: &'static str) {
        enter(name);
    }

    fn span_exit(&mut self, _name: &'static str) {
        exit();
    }

    fn span_leaf(&mut self, name: &'static str, count: u64) {
        leaf(name, count);
    }
}

/// An observer stack that can be flushed and torn down at the end of a run.
pub trait Close: Observer {
    fn close(self) -> Result<(), String>;
}

impl Close for NullObserver {
    fn close(self) -> Result<(), String> {
        Ok(())
    }
}

impl Close for JsonlSink<BufWriter<File>> {
    fn close(mut self) -> Result<(), String> {
        self.flush().map_err(|e| format!("telemetry flush: {e}"))?;
        match self.io_errors() {
            0 => Ok(()),
            n => Err(format!("telemetry sink lost {n} writes")),
        }
    }
}

impl<I: Close> Close for MetricsLayer<I> {
    fn close(self) -> Result<(), String> {
        let (inner, health) = self.into_parts();
        health?;
        inner.close()
    }
}

impl<I: Close> Close for Traced<I> {
    fn close(self) -> Result<(), String> {
        self.inner.close()
    }
}

/// `(call index, state, queues)` of sampled decisions, for solver replay.
pub type Captured = Arc<Mutex<Vec<(u64, SystemState, QueueState)>>>;

/// Times every decision as a `core.decide` span and forwards every trait
/// method to the wrapped scheduler. With `capture`, every `every`-th
/// decision's inputs are cloned (in a `bench.capture` span) for replay.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    capture: Option<(u64, Captured)>,
    calls: u64,
}

impl TracedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, capture: Option<(u64, Captured)>) -> Self {
        Self {
            inner,
            capture,
            calls: 0,
        }
    }

    fn sample(&mut self, state: &SystemState, queues: &QueueState) {
        if let Some((every, store)) = &self.capture {
            if self.calls.is_multiple_of(*every) {
                enter("bench.capture");
                if let Ok(mut store) = store.lock() {
                    store.push((self.calls, state.clone(), queues.clone()));
                }
                exit();
            }
        }
        self.calls += 1;
    }
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState, queues: &QueueState) -> Decision {
        self.sample(state, queues);
        enter("core.decide");
        let decision = self.inner.decide(state, queues);
        exit();
        decision
    }

    fn decide_observed(
        &mut self,
        state: &SystemState,
        queues: &QueueState,
        obs: &mut dyn Observer,
    ) -> Decision {
        self.sample(state, queues);
        enter("core.decide");
        let decision = self.inner.decide_observed(state, queues, obs);
        exit();
        decision
    }

    fn set_solver_budget(&mut self, budget: Option<SolverBudget>) {
        self.inner.set_solver_budget(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_counts_per_parent() {
        start();
        enter("run");
        for _ in 0..3 {
            enter("decide");
            enter("fw.iter");
            exit();
            enter("fw.iter");
            leaf("pivot", 4);
            exit();
            exit();
        }
        exit();
        let rec = stop().unwrap();
        assert_eq!(rec.unbalanced(), 0);
        let (totals, self_ns) = rec.totals();
        assert_eq!(totals["decide"].count, 3);
        assert_eq!(totals["fw.iter"].count, 6);
        let run = totals["run"];
        let sum_self: u64 = self_ns.iter().sum();
        assert_eq!(sum_self, run.total_ns, "self times partition the root");
        assert_eq!(rec.children_per("decide", "fw.iter"), vec![2, 2, 2]);
        assert_eq!(rec.leaves("pivot"), vec![4, 4, 4]);
        // No recorder: spans are no-ops.
        enter("x");
        exit();
        assert!(stop().is_none());
    }
}
