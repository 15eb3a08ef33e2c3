//! `grefar-benchmark compare BASE/results.json NEW/results.json`: one row
//! per workload, each end-to-end metric judged by its direction and bound
//! from `BENCHMARK.json`.

use crate::json::Json;

/// How a metric moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    /// Missing on a side, or noisier within a run than its bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the base value.
    pub bound: f64,
}

/// Absolute change below which a difference is noise whatever the
/// relative bound says: process start-up and scheduler granularity for
/// set-up times, the daemon's 1 ms poll for its millisecond timings, page
/// and allocator granularity for memory. Microsecond timings come from
/// a nanosecond clock around single calls and get no floor.
pub fn floor(unit: &str) -> f64 {
    match unit {
        "s" => 0.005,
        "ms" => 0.2,
        "MiB" => 2.0,
        _ => 0.0,
    }
}

/// Judges `new` against `base`: worse when it moved in the bad direction
/// by more than the larger of the relative bound and the unit's floor,
/// better when it moved as far the other way. A change within the floor
/// is within bound; any larger change is unresolved when `spread`, the
/// wider within-run spread (IQR over median) of the two sides, exceeds
/// the bound.
pub fn judge(rule: &Rule, base: Option<f64>, new: Option<f64>, spread: Option<f64>) -> Verdict {
    let (Some(base), Some(new)) = (base, new) else {
        return Verdict::Unresolved;
    };
    if !base.is_finite() || !new.is_finite() || base <= 0.0 {
        return Verdict::Unresolved;
    }
    let worsening = if rule.lower_is_better {
        new - base
    } else {
        base - new
    };
    if worsening.abs() <= floor(&rule.unit) {
        return Verdict::Within;
    }
    if spread.is_some_and(|s| s > rule.bound) {
        return Verdict::Unresolved;
    }
    let allowed = (rule.bound * base).max(floor(&rule.unit));
    if worsening > allowed {
        Verdict::Worse
    } else if -worsening > allowed {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Reads the end-to-end rules out of `BENCHMARK.json`.
pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without {key}"))
            };
            Ok(Rule {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

fn metric(results: &Json, workload: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn spread(results: &Json, workload: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("spread")?
        .get(name)?
        .as_f64()
}

/// Prints the comparison table; returns whether any metric got worse.
pub fn compare(benchmark: &Json, base: &Json, new: &Json) -> Result<bool, String> {
    let rules = rules(benchmark)?;
    let mut workloads: Vec<&String> = [base, new]
        .iter()
        .filter_map(|r| r.get("workloads").and_then(Json::as_object))
        .flat_map(|w| w.keys())
        .collect();
    workloads.sort();
    workloads.dedup();

    print!("{:<18}", "workload");
    for rule in &rules {
        print!(" {:>28}", rule.name);
    }
    println!();
    let mut any_worse = false;
    for workload in workloads {
        print!("{workload:<18}");
        for rule in &rules {
            let b = metric(base, workload, &rule.name);
            let n = metric(new, workload, &rule.name);
            let s = match (
                spread(base, workload, &rule.name),
                spread(new, workload, &rule.name),
            ) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = judge(rule, b, n, s);
            any_worse |= verdict == Verdict::Worse;
            let change = match (b, n) {
                (Some(b), Some(n)) if b != 0.0 => format!(" {:+.1}%", 100.0 * (n - b) / b),
                _ => String::new(),
            };
            print!(" {:>28}", format!("{}{change}", verdict.label()));
        }
        println!();
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(unit: &str, lower: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            unit: unit.into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn relative_bound_applies_in_the_metric_direction() {
        let lat = rule("count", true, 0.1);
        assert_eq!(judge(&lat, Some(100.0), Some(109.0), None), Verdict::Within);
        assert_eq!(judge(&lat, Some(100.0), Some(111.0), None), Verdict::Worse);
        assert_eq!(judge(&lat, Some(100.0), Some(89.0), None), Verdict::Better);
        let rate = rule("1/s", false, 0.1);
        assert_eq!(judge(&rate, Some(100.0), Some(89.0), None), Verdict::Worse);
        assert_eq!(
            judge(&rate, Some(100.0), Some(111.0), None),
            Verdict::Better
        );
    }

    #[test]
    fn absolute_floor_covers_small_values() {
        // 30 ms → 34 ms is +13% but under the 5 ms floor for seconds.
        let setup = rule("s", true, 0.1);
        assert_eq!(
            judge(&setup, Some(0.030), Some(0.034), None),
            Verdict::Within
        );
        assert_eq!(
            judge(&setup, Some(0.030), Some(0.036), None),
            Verdict::Worse
        );
        // Above the floor the relative bound rules: 1 s → 1.08 s is within.
        assert_eq!(judge(&setup, Some(1.0), Some(1.08), None), Verdict::Within);
        // 0.15 ms → 0.3 ms doubles but moves less than the 0.2 ms floor.
        let lat = rule("ms", true, 0.1);
        assert_eq!(judge(&lat, Some(0.15), Some(0.3), None), Verdict::Within);
        assert_eq!(judge(&lat, Some(0.15), Some(0.351), None), Verdict::Worse);
        // Microseconds have no floor: 19 µs → 21 µs is +10.5%, worse.
        let step = rule("us", true, 0.1);
        assert_eq!(judge(&step, Some(19.0), Some(21.0), None), Verdict::Worse);
        let rss = rule("MiB", true, 0.1);
        assert_eq!(judge(&rss, Some(10.0), Some(11.9), None), Verdict::Within);
        assert_eq!(floor("count"), 0.0);
    }

    #[test]
    fn missing_values_and_noisy_runs_are_unresolved() {
        let r = rule("1/s", false, 0.1);
        assert_eq!(judge(&r, None, Some(1.0), None), Verdict::Unresolved);
        assert_eq!(judge(&r, Some(0.0), Some(1.0), None), Verdict::Unresolved);
        assert_eq!(
            judge(&r, Some(100.0), Some(50.0), Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&r, Some(100.0), Some(50.0), Some(0.05)),
            Verdict::Worse
        );
    }
}
