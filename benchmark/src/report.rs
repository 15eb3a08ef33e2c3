//! The metric catalogues and the report one workload run prints.
//!
//! A run prints one `WORKLOAD METRIC VALUE UNIT` line per metric, one
//! `check` line per correctness check, a `detail` line (JSON: spreads,
//! tail quantiles, outcomes, self times) and, last, the result object
//! `{"correct","attempted","failed","metrics"}`. An untraced run reports
//! the end-to-end metrics; a traced run reports the per-layer metrics.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Tail;

/// End-to-end metrics: what a user of the simulator or the daemon sees.
/// For a batch workload an operation is one simulated slot; for the
/// daemon it is one request.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_us_p50", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reports 0. The first, the operation latency tail, is the
/// end-to-end tail measured by the traced run's untraced twin; it sits
/// here because its run-to-run spread on a shared machine exceeds any
/// bound an end-to-end metric may have.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_us_p99", "us"),
    ("sim.step.self_us", "us"),
    ("sim.queue_update.us", "us"),
    ("sim.rss_growth_mib", "MiB"),
    ("sim.checkpoint.count", "count"),
    ("sim.checkpoint.build_us", "us"),
    ("sim.checkpoint.write_us", "us"),
    ("sim.checkpoint.bytes", "bytes"),
    ("sim.checkpoint.bytes_last", "bytes"),
    ("core.decide.calls", "count"),
    ("core.decide.us_p50", "us"),
    ("core.decide.us_p99", "us"),
    ("core.decide.us_total", "us"),
    ("core.decide.self_us", "us"),
    ("core.solve_replay.us_p50", "us"),
    ("core.solve_replay.us_p99", "us"),
    ("convex.fw.iters", "count"),
    ("convex.fw.iters_per_decide_p50", "count"),
    ("convex.fw.iters_per_decide_p99", "count"),
    ("convex.fw.us_per_iter", "us"),
    ("lp.solve.us_total", "us"),
    ("lp.simplex.pivots", "count"),
    ("lp.pivots_per_solve_p50", "count"),
    ("lp.us_per_pivot", "us"),
    ("ingest.fetch.us_total", "us"),
    ("ingest.fetch.attempts", "count"),
    ("ingest.fetch.retries", "count"),
    ("ingest.fetch.failed", "count"),
    ("ingest.breaker.opens", "count"),
    ("ingest.stale_slots", "count"),
    ("obs.sink.us_total", "us"),
    ("obs.events", "count"),
    ("obs.bytes", "bytes"),
    ("metrics.fold.us_total", "us"),
    ("served.cpu_us_per_req", "us"),
    ("served.threads", "count"),
    ("served.journal_bytes", "bytes"),
    ("served.checkpoint_bytes", "bytes"),
    ("served.reject.queue_full", "count"),
    ("served.reject.other", "count"),
    ("served.slot_lag", "slots"),
    ("served.submit_ms_p50", "ms"),
    ("served.submit_ms_p99", "ms"),
    ("served.status_ms_p50", "ms"),
    ("served.status_ms_p99", "ms"),
    ("served.offered_rps", "1/s"),
    ("served.goodput_rps", "1/s"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

/// One correctness check's verdict.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one workload run reports.
pub struct Report {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<Check>,
    pub detail: Json,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            checks: Vec::new(),
            detail: Json::obj(),
        }
    }

    /// Sets a metric. Names must come from the catalogue of this run's
    /// mode; anything else is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let catalogue = if self.traced { PER_LAYER } else { END_TO_END };
        assert!(
            catalogue.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the {} catalogue",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        self.values.insert(name, value);
    }

    /// Sets an end-to-end tail latency chosen by the tail rule, recording
    /// which percentile it is and over how many samples. A refused tail
    /// (fewer than ten samples beyond p90) reads 0 in a smoke run, which
    /// is too short for one, and fails any other run.
    pub fn set_tail(&mut self, name: &'static str, tail: Option<Tail>, smoke: bool) {
        let (value, quantile, samples) = match tail {
            Some(t) => (t.value, Json::from(u64::from(t.quantile)), t.samples),
            None if smoke => (0.0, Json::Null, 0),
            None => (f64::NAN, Json::Null, 0),
        };
        self.set(name, value);
        self.note(
            &format!("{name}.tail"),
            Json::obj()
                .with("quantile", quantile)
                .with("samples", samples),
        );
    }

    /// Records a tail that is not one of this run's metrics in `detail`.
    pub fn note_tail(&mut self, name: &str, tail: Option<Tail>) {
        self.note(
            name,
            tail.map_or(Json::Null, |t| {
                Json::obj()
                    .with("value", t.value)
                    .with("quantile", u64::from(t.quantile))
                    .with("samples", t.samples)
            }),
        );
    }

    /// Counts operations (slots or requests) attempted and failed.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness check; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.operations(1, u64::from(!ok));
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds `key: value` to the detail object.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        let detail = std::mem::replace(&mut self.detail, Json::Null);
        self.detail = detail.with(key, value);
    }

    /// Prints the report; the result object is the last line.
    pub fn emit(mut self) {
        let catalogue = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Json::obj();
        for (name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    let v = *v;
                    self.check(&format!("finite {name}"), false, format!("measured {v}"));
                    0.0
                }
                None if self.traced => 0.0,
                None => {
                    self.check(&format!("measured {name}"), false, "no value");
                    0.0
                }
            };
            println!("{} {name} {value} {unit}", self.workload);
            metrics = metrics.with(name, Json::obj().with("value", value).with("unit", *unit));
        }
        let mut checks = Json::obj();
        for c in &self.checks {
            println!(
                "check {} {} {} {}",
                self.workload,
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
            checks = checks.with(
                &c.name,
                Json::obj()
                    .with("ok", c.ok)
                    .with("detail", c.detail.as_str()),
            );
        }
        let detail = std::mem::replace(&mut self.detail, Json::Null);
        println!("detail {}", detail.with("checks", checks).render());
        let correct = self.failed == 0 && self.checks.iter().all(|c| c.ok);
        let result = Json::obj()
            .with("correct", correct)
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics);
        println!("{}", result.render());
    }
}
