//! Hierarchical span profiling with flamegraph export.
//!
//! [`SpanProfiler`] is an [`Observer`] that consumes the `span_enter` /
//! `span_exit` / `span_leaf` hooks and attributes time to the full call
//! path (`slot;decide;fw.iter`, `;`-joined). Two clocks are supported:
//!
//! * [`SpanClock::Logical`] — a counter that advances by one on every
//!   span transition (and by `count` on [`span_leaf`](Observer::span_leaf)).
//!   Fully deterministic: identical runs produce byte-identical profiles,
//!   which the CI folded-stack determinism check relies on.
//! * [`SpanClock::Wall`] — microseconds of monotonic wall time, for real
//!   profiling runs.
//!
//! The profiler stays silent during the run (`enabled()` is `false`, so it
//! never forces event construction on hot paths); after the run,
//! [`emit_into`](SpanProfiler::emit_into) flushes one `profile.span` event
//! per distinct path, and [`folded`](SpanProfiler::folded) renders the
//! standard folded-stack format (`path self_value` lines) consumable by
//! inferno / speedscope / `flamegraph.pl`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::event::Event;
use crate::observer::Observer;

/// The clock a [`SpanProfiler`] attributes spans against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClock {
    /// Deterministic: one tick per span transition. Values are reported in
    /// `total_ticks` / `self_ticks` fields and survive the determinism
    /// diff unchanged.
    Logical,
    /// Monotonic wall time in microseconds, reported in `total_us` /
    /// `self_us` fields (ignored by the determinism diff like every other
    /// `_us` field).
    Wall,
}

impl SpanClock {
    /// Parses the CLI spelling (`"logical"` / `"wall"`).
    pub fn parse(text: &str) -> Option<SpanClock> {
        match text {
            "logical" => Some(SpanClock::Logical),
            "wall" => Some(SpanClock::Wall),
            _ => None,
        }
    }

    /// The CLI / event-field spelling.
    pub fn label(&self) -> &'static str {
        match self {
            SpanClock::Logical => "logical",
            SpanClock::Wall => "wall",
        }
    }
}

/// Accumulated attribution for one distinct span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Times the path was entered (or leaf invocations).
    pub count: u64,
    /// Inclusive time: everything between enter and exit.
    pub total: u64,
    /// Exclusive time: `total` minus the children's inclusive time.
    pub self_time: u64,
}

struct Frame {
    path: String,
    start: u64,
    child_time: u64,
}

/// An [`Observer`] that builds a hierarchical span profile; see the
/// [module docs](self).
pub struct SpanProfiler {
    clock: SpanClock,
    base: Instant,
    ticks: u64,
    stack: Vec<Frame>,
    stats: BTreeMap<String, SpanStat>,
    unbalanced_exits: u64,
}

impl SpanProfiler {
    /// A fresh profiler on the given clock.
    pub fn new(clock: SpanClock) -> Self {
        SpanProfiler {
            clock,
            base: Instant::now(),
            ticks: 0,
            stack: Vec::new(),
            stats: BTreeMap::new(),
            unbalanced_exits: 0,
        }
    }

    /// The clock this profiler runs on.
    pub fn clock(&self) -> SpanClock {
        self.clock
    }

    fn now(&mut self) -> u64 {
        match self.clock {
            SpanClock::Logical => {
                self.ticks += 1;
                self.ticks
            }
            SpanClock::Wall => self.base.elapsed().as_micros() as u64,
        }
    }

    /// The accumulated per-path statistics, in path order. Open frames are
    /// not included until their `span_exit`.
    pub fn stats(&self) -> &BTreeMap<String, SpanStat> {
        &self.stats
    }

    /// Renders the standard folded-stack flamegraph format: one
    /// `path self_value` line per path with non-zero self time (plus
    /// count-only leaves), in deterministic path order.
    pub fn folded(&self) -> String {
        folded_from(
            self.stats
                .iter()
                .map(|(path, stat)| (path.as_str(), stat.self_time)),
        )
    }

    /// Flushes one `profile.span` event per distinct path into `obs`, in
    /// deterministic path order. Call after the run, with the profiler
    /// detached from the live observer stack. Any still-open frames are
    /// force-closed first so their time is not lost.
    pub fn emit_into(&mut self, obs: &mut dyn Observer) {
        // Leak protection: close whatever instrumentation left open so its
        // time is attributed rather than lost (exit_frame pops by position,
        // the name is advisory).
        while !self.stack.is_empty() {
            self.exit_frame("");
        }
        if !obs.enabled() {
            return;
        }
        for (path, stat) in &self.stats {
            let mut event = Event::new("profile.span")
                .field("stack", path.clone())
                .field("clock", self.clock.label())
                .field("count", stat.count)
                .field("span_id", span_id(path));
            if let Some(parent) = span_parent(path) {
                event = event.field("parent_id", span_id(parent));
            }
            event = match self.clock {
                SpanClock::Logical => event
                    .field("total_ticks", stat.total)
                    .field("self_ticks", stat.self_time),
                SpanClock::Wall => event
                    .field("total_us", stat.total)
                    .field("self_us", stat.self_time),
            };
            obs.record_event(event);
        }
        if self.unbalanced_exits > 0 {
            obs.record_event(
                Event::new("profile.span")
                    .field("stack", "<unbalanced>")
                    .field("clock", self.clock.label())
                    .field("count", self.unbalanced_exits),
            );
        }
    }

    fn exit_frame(&mut self, _name: &str) {
        let now = self.now();
        let Some(frame) = self.stack.pop() else {
            self.unbalanced_exits += 1;
            return;
        };
        let total = now.saturating_sub(frame.start);
        let stat = self.stats.entry(frame.path).or_default();
        stat.count += 1;
        stat.total += total;
        stat.self_time += total.saturating_sub(frame.child_time);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_time += total;
        }
    }
}

/// A stable, deterministic identifier for a span path: FNV-1a over the
/// `;`-joined path string. The same path hashes to the same id in every
/// run and process, which is what makes exported traces byte-reproducible
/// and lets offline tooling correlate `profile.span` events with the
/// Perfetto export without any shared state.
pub fn span_id(path: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in path.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    // Reserve 0 so consumers can use it as "no parent".
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// The parent prefix of a `;`-joined span path, if any.
pub fn span_parent(path: &str) -> Option<&str> {
    path.rsplit_once(';').map(|(parent, _)| parent)
}

/// Renders folded-stack lines from `(path, self_value)` pairs.
pub fn folded_from<'a>(stats: impl Iterator<Item = (&'a str, u64)>) -> String {
    let mut out = String::new();
    for (path, self_value) in stats {
        out.push_str(path);
        out.push(' ');
        out.push_str(&self_value.to_string());
        out.push('\n');
    }
    out
}

impl Observer for SpanProfiler {
    /// `false`: the profiler wants spans, not events, so event-guarded hot
    /// paths stay untouched when only a profiler is attached.
    fn enabled(&self) -> bool {
        false
    }

    fn record_event(&mut self, _event: Event) {}

    fn profiling(&self) -> bool {
        true
    }

    fn span_enter(&mut self, name: &'static str) {
        let start = self.now();
        let path = match self.stack.last() {
            Some(parent) => {
                let mut p = String::with_capacity(parent.path.len() + 1 + name.len());
                p.push_str(&parent.path);
                p.push(';');
                p.push_str(name);
                p
            }
            None => name.to_string(),
        };
        self.stack.push(Frame {
            path,
            start,
            child_time: 0,
        });
    }

    fn span_exit(&mut self, name: &'static str) {
        self.exit_frame(name);
    }

    fn span_leaf(&mut self, name: &'static str, count: u64) {
        if count == 0 {
            return;
        }
        if self.clock == SpanClock::Logical {
            self.ticks += count;
        }
        let path = match self.stack.last() {
            Some(parent) => format!("{};{name}", parent.path),
            None => name.to_string(),
        };
        let ticks = match self.clock {
            SpanClock::Logical => count,
            SpanClock::Wall => 0,
        };
        let stat = self.stats.entry(path).or_default();
        stat.count += count;
        stat.total += ticks;
        stat.self_time += ticks;
        if self.clock == SpanClock::Logical {
            if let Some(parent) = self.stack.last_mut() {
                parent.child_time += ticks;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JsonlSink;

    fn drive(p: &mut SpanProfiler) {
        for _ in 0..3 {
            p.span_enter("slot");
            p.span_enter("decide");
            p.span_leaf("fw.iter", 5);
            p.span_exit("decide");
            p.span_enter("queue.update");
            p.span_exit("queue.update");
            p.span_exit("slot");
        }
    }

    #[test]
    fn logical_clock_attribution() {
        let mut p = SpanProfiler::new(SpanClock::Logical);
        drive(&mut p);
        let stats = p.stats();
        let decide = stats["slot;decide"];
        assert_eq!(decide.count, 3);
        // Per visit: enter at tick e, leaf advances 5, exit observes e+6 —
        // total 6, of which 5 belong to the leaf child, so self = 1.
        assert_eq!(decide.total, 18);
        assert_eq!(decide.self_time, 3);
        let fw = stats["slot;decide;fw.iter"];
        assert_eq!(fw.count, 15);
        assert_eq!(fw.total, 15);
        let slot = stats["slot"];
        assert_eq!(slot.count, 3);
        assert!(slot.self_time < slot.total);
    }

    #[test]
    fn folded_output_is_deterministic() {
        let mut a = SpanProfiler::new(SpanClock::Logical);
        let mut b = SpanProfiler::new(SpanClock::Logical);
        drive(&mut a);
        drive(&mut b);
        assert_eq!(a.folded(), b.folded());
        assert!(a.folded().contains("slot;decide;fw.iter 15\n"));
    }

    #[test]
    fn emit_into_writes_profile_span_events() {
        let mut p = SpanProfiler::new(SpanClock::Logical);
        drive(&mut p);
        let mut sink = JsonlSink::new(Vec::new());
        p.emit_into(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = crate::json::parse_lines(&text).unwrap();
        assert_eq!(events.len(), 4); // slot, decide, fw.iter, queue.update
        assert!(events
            .iter()
            .all(|e| e["event"].as_str() == Some("profile.span")));
        assert!(events
            .iter()
            .all(|e| e["clock"].as_str() == Some("logical")));
        assert!(events.iter().all(|e| e["total_ticks"].as_f64().is_some()));
    }

    #[test]
    fn wall_clock_reports_us_fields() {
        let mut p = SpanProfiler::new(SpanClock::Wall);
        p.span_enter("slot");
        p.span_exit("slot");
        let mut sink = JsonlSink::new(Vec::new());
        p.emit_into(&mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = crate::json::parse_lines(&text).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0]["total_us"].as_f64().is_some());
        assert!(!events[0].contains_key("total_ticks"));
    }

    #[test]
    fn span_ids_are_stable_and_parent_linked() {
        assert_eq!(span_id("slot;decide"), span_id("slot;decide"));
        assert_ne!(span_id("slot"), span_id("slot;decide"));
        assert_eq!(span_parent("slot;decide;fw.iter"), Some("slot;decide"));
        assert_eq!(span_parent("slot"), None);

        // Both clocks must attach the trace-ID fields, and a child's
        // parent_id must equal its parent's span_id.
        for clock in [SpanClock::Logical, SpanClock::Wall] {
            let mut p = SpanProfiler::new(clock);
            drive(&mut p);
            let mut sink = JsonlSink::new(Vec::new());
            p.emit_into(&mut sink);
            let text = String::from_utf8(sink.into_inner()).unwrap();
            let events = crate::json::parse_lines(&text).unwrap();
            assert!(events.iter().all(|e| e["span_id"].as_f64().is_some()));
            let decide = events
                .iter()
                .find(|e| e["stack"].as_str() == Some("slot;decide"))
                .unwrap();
            assert_eq!(decide["parent_id"].as_f64(), Some(span_id("slot") as f64));
            let root = events
                .iter()
                .find(|e| e["stack"].as_str() == Some("slot"))
                .unwrap();
            assert!(root.get("parent_id").is_none());
        }
    }

    #[test]
    fn open_frames_are_closed_on_emit() {
        let mut p = SpanProfiler::new(SpanClock::Logical);
        p.span_enter("slot");
        p.span_enter("decide");
        let mut sink = JsonlSink::new(Vec::new());
        p.emit_into(&mut sink);
        assert_eq!(p.stats().len(), 2);
    }

    #[test]
    fn unbalanced_exit_is_counted_not_fatal() {
        let mut p = SpanProfiler::new(SpanClock::Logical);
        p.span_exit("ghost");
        p.span_enter("slot");
        p.span_exit("slot");
        assert_eq!(p.unbalanced_exits, 1);
        assert_eq!(p.stats()["slot"].count, 1);
    }
}
