//! The metric registry and its Prometheus text-format renderer.
//!
//! Naming conventions (enforced by [`crate::lint`], documented in
//! DESIGN.md): every metric is prefixed `grefar_`, counters end in
//! `_total`, and metrics carrying a unit spell it as a suffix
//! (`_us`, `_slots`, `_jobs`, `_percent`). Labels follow the workspace's
//! cardinality rules: `scheduler`, `dc`, `account`, `feed` and small
//! enums only — never per-slot values.
//!
//! Everything is `BTreeMap`-ordered, so [`Registry::render`] is
//! deterministic: the same fold over the same event stream produces
//! byte-identical exposition text (the kill/resume rebuild test depends
//! on this).
//!
//! Updating a series that exists builds no owned key: the family's
//! series are scanned for the borrowed labels. The cardinality rules
//! above bound that scan — a family holds one series per combination of
//! run label and small enums (a handful; a sweep adds one per run) — so
//! only the first touch of a series allocates its sorted owned key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The kind of a metric family, mapped onto Prometheus `# TYPE` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing; name must end in `_total`.
    Counter,
    /// A value that goes up and down.
    Gauge,
    /// Cumulative buckets plus `_sum` / `_count`.
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Sorted, owned label pairs — the per-series key within a family.
type LabelSet = Vec<(String, String)>;

#[derive(Debug, Clone)]
struct HistogramCells {
    /// Cumulative counts per upper bound (same length as the family's
    /// `buckets`), excluding `+Inf`.
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

#[derive(Debug, Clone)]
enum SeriesValue {
    Scalar(f64),
    Histogram(HistogramCells),
}

#[derive(Debug, Clone)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Histogram upper bounds (empty for scalar families).
    buckets: Vec<f64>,
    series: BTreeMap<LabelSet, SeriesValue>,
}

/// A registry of counter / gauge / histogram families with labels.
///
/// # Example
/// ```
/// use grefar_metrics::Registry;
///
/// let mut r = Registry::new();
/// r.counter_add(
///     "grefar_slots_total",
///     "Slots executed.",
///     &[("scheduler", "GreFar")],
///     1.0,
/// );
/// let text = r.render();
/// assert!(text.contains("# TYPE grefar_slots_total counter"));
/// assert!(text.contains("grefar_slots_total{scheduler=\"GreFar\"} 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// Whether the series key `key` carries exactly `labels`, in any order.
/// Label names within a set are distinct (the exposition format admits no
/// repeats), so equal lengths plus containment is set equality.
fn same_labels(key: &LabelSet, labels: &[(&str, &str)]) -> bool {
    key.len() == labels.len()
        && labels
            .iter()
            .all(|(k, v)| key.iter().any(|(kk, vv)| kk == k && vv == v))
}

impl Family {
    /// Applies `apply` (which also sees the histogram bounds) to the series
    /// labelled `labels`, creating a zeroed series on first touch. See the
    /// [module docs](self) for why the scan is bounded.
    fn update(&mut self, labels: &[(&str, &str)], apply: impl FnOnce(&mut SeriesValue, &[f64])) {
        debug_assert!(
            labels
                .iter()
                .enumerate()
                .all(|(at, (k, _))| labels[..at].iter().all(|(kk, _)| kk != k)),
            "repeated label name in {labels:?}"
        );
        let Family {
            kind,
            buckets,
            series,
            ..
        } = self;
        match series.iter_mut().find(|(key, _)| same_labels(key, labels)) {
            Some((_, value)) => apply(value, buckets),
            None => {
                let zero = match kind {
                    MetricKind::Histogram => SeriesValue::Histogram(HistogramCells {
                        counts: vec![0; buckets.len()],
                        total: 0,
                        sum: 0.0,
                    }),
                    MetricKind::Counter | MetricKind::Gauge => SeriesValue::Scalar(0.0),
                };
                apply(series.entry(label_set(labels)).or_insert(zero), buckets);
            }
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn family(
        &mut self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        buckets: &[f64],
    ) -> &mut Family {
        debug_assert!(
            name.starts_with("grefar_"),
            "metric names carry the grefar_ prefix: {name}"
        );
        debug_assert!(
            kind != MetricKind::Counter || name.ends_with("_total"),
            "counter names end in _total: {name}"
        );
        let family = self.families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            buckets: buckets.to_vec(),
            series: BTreeMap::new(),
        });
        debug_assert!(
            family.kind == kind,
            "metric {name} re-registered as {kind:?}"
        );
        family
    }

    /// Adds `delta` to the counter series; registers the family on first
    /// touch.
    pub fn counter_add(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        delta: f64,
    ) {
        self.family(name, help, MetricKind::Counter, &[]).update(
            labels,
            |series, _| match series {
                SeriesValue::Scalar(v) => *v += delta,
                SeriesValue::Histogram(_) => unreachable!("scalar family"),
            },
        );
    }

    /// Sets the gauge series to `value`; registers the family on first
    /// touch.
    pub fn gauge_set(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.family(name, help, MetricKind::Gauge, &[])
            .update(labels, |series, _| match series {
                SeriesValue::Scalar(v) => *v = value,
                SeriesValue::Histogram(_) => unreachable!("scalar family"),
            });
    }

    /// Reads a scalar series back (counters and gauges).
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let family = self.families.get(name)?;
        match family
            .series
            .iter()
            .find(|(key, _)| same_labels(key, labels))?
            .1
        {
            SeriesValue::Scalar(v) => Some(*v),
            SeriesValue::Histogram(_) => None,
        }
    }

    /// Observes one sample into the histogram series; registers the
    /// family (with the given upper bounds, ascending, `+Inf` implicit) on
    /// first touch. Non-finite samples are dropped.
    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        help: &'static str,
        buckets: &'static [f64],
        labels: &[(&str, &str)],
        value: f64,
    ) {
        if !value.is_finite() {
            return;
        }
        self.family(name, help, MetricKind::Histogram, buckets)
            .update(labels, |series, buckets| {
                let SeriesValue::Histogram(cells) = series else {
                    unreachable!("histogram family")
                };
                for (idx, bound) in buckets.iter().enumerate() {
                    if value <= *bound {
                        cells.counts[idx] += 1;
                    }
                }
                cells.total += 1;
                cells.sum += value;
            });
    }

    /// True when no family has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders Prometheus text exposition format 0.0.4: families in name
    /// order, each with `# HELP` / `# TYPE` headers, series in label
    /// order. Deterministic for a given registry state.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.label());
            for (labels, value) in &family.series {
                match value {
                    SeriesValue::Scalar(v) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", fmt_value(*v));
                    }
                    SeriesValue::Histogram(cells) => {
                        for (idx, bound) in family.buckets.iter().enumerate() {
                            let _ = write!(out, "{name}_bucket");
                            render_labels(&mut out, labels, Some(&fmt_value(*bound)));
                            let _ = writeln!(out, " {}", cells.counts[idx]);
                        }
                        let _ = write!(out, "{name}_bucket");
                        render_labels(&mut out, labels, Some("+Inf"));
                        let _ = writeln!(out, " {}", cells.total);
                        out.push_str(name);
                        out.push_str("_sum");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", fmt_value(cells.sum));
                        out.push_str(name);
                        out.push_str("_count");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", cells.total);
                    }
                }
            }
        }
        out
    }
}

/// Formats a sample value: shortest-roundtrip `Display`, with NaN spelled
/// the Prometheus way.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &LabelSet, le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(value));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let mut r = Registry::new();
        for _ in 0..3 {
            r.counter_add("grefar_slots_total", "Slots.", &[("scheduler", "g")], 1.0);
        }
        r.counter_add("grefar_slots_total", "Slots.", &[("scheduler", "a")], 2.0);
        assert_eq!(
            r.scalar("grefar_slots_total", &[("scheduler", "g")]),
            Some(3.0)
        );
        let text = r.render();
        // Series render in label order: "a" before "g".
        let a = text.find("scheduler=\"a\"} 2").unwrap();
        let g = text.find("scheduler=\"g\"} 3").unwrap();
        assert!(a < g, "{text}");
    }

    #[test]
    fn gauges_keep_the_latest_value() {
        let mut r = Registry::new();
        r.gauge_set("grefar_queue_jobs", "Queue.", &[], 4.0);
        r.gauge_set("grefar_queue_jobs", "Queue.", &[], 2.5);
        assert_eq!(r.scalar("grefar_queue_jobs", &[]), Some(2.5));
        assert!(r.render().contains("grefar_queue_jobs 2.5\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut r = Registry::new();
        const BUCKETS: &[f64] = &[1.0, 10.0];
        for v in [0.5, 5.0, 50.0] {
            r.histogram_observe("grefar_wait_us", "Wait.", BUCKETS, &[], v);
        }
        let text = r.render();
        assert!(text.contains("# TYPE grefar_wait_us histogram"));
        assert!(text.contains("grefar_wait_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("grefar_wait_us_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("grefar_wait_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("grefar_wait_us_sum 55.5\n"));
        assert!(text.contains("grefar_wait_us_count 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = Registry::new();
        r.gauge_set(
            "grefar_queue_jobs",
            "Queue.",
            &[("scheduler", "a\"b\\c\nd")],
            1.0,
        );
        assert!(r.render().contains("scheduler=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let mut r = Registry::new();
            r.gauge_set("grefar_b", "B.", &[("dc", "1")], 2.0);
            r.counter_add("grefar_a_total", "A.", &[], 1.0);
            r.gauge_set("grefar_b", "B.", &[("dc", "0")], 1.0);
            r.render()
        };
        assert_eq!(build(), build());
    }
}
