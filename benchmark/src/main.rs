//! `grefar-benchmark` — end-to-end and per-layer benchmark of GreFar.
//!
//! ```text
//! grefar-benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke] [--trace-out DIR]
//! grefar-benchmark run [--seed S] [--workload W|all] --out DIR [--smoke]
//! grefar-benchmark compare BASE/results.json NEW/results.json
//! ```
//!
//! The first form runs one workload once, untraced (end-to-end metrics)
//! or traced (per-layer metrics), and prints its result object last.
//! `run` runs each workload in a fresh child process, untraced and then
//! traced, and writes `DIR/results.json` (plus `DIR/outcomes.json` and
//! the traced runs' `DIR/trace-<workload>.json`); it exits non-zero if a
//! correctness check failed. `compare` judges two `results.json` files by
//! the directions and bounds in `BENCHMARK.json`. Run from the repository
//! root; `benchmark/run.sh` builds everything first.

mod batch;
mod compare;
mod json;
mod report;
mod served;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use batch::Batch;
use json::Json;

/// The workloads, in the order `run` measures them.
pub const WORKLOADS: [&str; 4] = ["paper-fw", "ckpt-feeds", "mpc-lp", "served-open-loop"];

/// `--smoke` divides horizons by this and measures for one second.
const SMOKE_SCALE: usize = 20;

/// Scratch files (checkpoints, telemetry, daemon state) go under this
/// directory of the checkout, one sub-directory per run.
const SCRATCH_ROOT: &str = "benchmark/.scratch";

const USAGE: &str = "usage:
  grefar-benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke] [--trace-out DIR]
  grefar-benchmark run [--seed S] [--workload W|all] --out DIR [--smoke]
  grefar-benchmark compare BASE/results.json NEW/results.json";

/// How one workload run is set up.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub scratch: PathBuf,
    pub trace_out: Option<PathBuf>,
}

impl Settings {
    /// Horizon divisor: 1, or [`SMOKE_SCALE`] for smoke runs.
    pub fn scale(&self) -> usize {
        if self.smoke {
            SMOKE_SCALE
        } else {
            1
        }
    }
}

/// Command-line flags as `--name value` pairs (`--smoke` takes none).
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match name {
                "smoke" => None,
                _ => Some(it.next().ok_or(format!("--{name} needs a value"))?.clone()),
            };
            flags.push((name.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
            None => default.ok_or(format!("--{name} is required")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// One workload, once: the interface `BENCHMARK.json`'s command names.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["workload", "seed", "seconds", "trace", "smoke", "trace-out"])?;
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds: f64 = flags.number("seconds", None)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let scratch = Path::new(SCRATCH_ROOT).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let settings = Settings {
        seed: flags.number("seed", None)?,
        seconds,
        smoke: flags.has("smoke"),
        scratch: scratch.clone(),
        trace_out: flags.get("trace-out").map(PathBuf::from),
    };
    let scratch_fs = sys::fs_type(&scratch);
    let result = match Batch::ALL.into_iter().find(|b| b.name() == workload) {
        Some(batch) if traced => batch::trace(batch, &settings),
        Some(batch) => batch::measure(batch, &settings),
        None => served::run(&settings, traced),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
    let mut report = result?;
    report.note("seed", settings.seed);
    report.note("smoke", settings.smoke);
    report.note("seconds", seconds);
    report.note("scratch_fs", scratch_fs);
    report.emit();
    Ok(ExitCode::SUCCESS)
}

/// What one child run printed: its result object and its detail object.
struct ChildOutput {
    result: Json,
    detail: Json,
}

/// Runs one workload in a fresh process of this executable.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--trace-out").arg(out);
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::Null;
    for line in stdout.lines() {
        if let Some(text) = line.strip_prefix("detail ") {
            detail = Json::parse(text).map_err(|e| format!("{workload}: detail line: {e}"))?;
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} run exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok(ChildOutput { result, detail })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `rustc` that is on the path (what built this benchmark, when run
/// through `benchmark/run.sh`).
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["seed", "workload", "out", "smoke"])?;
    let seed: u64 = flags.number("seed", Some(5))?;
    let smoke = flags.has("smoke");
    let out = PathBuf::from(flags.get("out").ok_or("--out DIR is required")?);
    let selected: Vec<&str> = match flags.get("workload").unwrap_or("all") {
        "all" => WORKLOADS.to_vec(),
        w if WORKLOADS.contains(&w) => vec![w],
        w => return Err(format!("unknown workload {w:?}")),
    };
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let seconds = if smoke {
        1.0
    } else {
        benchmark
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::create_dir_all(SCRATCH_ROOT).map_err(|e| format!("{SCRATCH_ROOT}: {e}"))?;
    let scratch_fs = sys::fs_type(Path::new(SCRATCH_ROOT));
    let _ = std::fs::remove_dir(SCRATCH_ROOT);

    let mut all_correct = true;
    let mut workloads = Json::obj();
    let mut outcomes = Json::obj();
    for workload in selected {
        let mut entry = Json::obj();
        let mut correct = true;
        let (mut attempted, mut failed) = (0.0, 0.0);
        for traced in [false, true] {
            let key = if traced { "layers" } else { "metrics" };
            match child(workload, seed, seconds, traced, smoke, &out) {
                Ok(run) => {
                    let r = &run.result;
                    correct &= r.get("correct").and_then(Json::as_bool) == Some(true);
                    attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                    failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    entry = entry.with(key, r.get("metrics").cloned().unwrap_or(Json::Null));
                    if !traced {
                        if let Some(o) = run.detail.get("outcomes") {
                            outcomes = outcomes.with(workload, o.clone());
                        }
                        let spread = run.detail.get("spread").cloned().unwrap_or(Json::Null);
                        entry = entry.with("spread", spread);
                    }
                    let detail_key = if traced { "traced" } else { "untraced" };
                    entry = entry.with(detail_key, run.detail);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    correct = false;
                }
            }
        }
        all_correct &= correct;
        let error_ratio = if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        };
        println!("{workload} correct={correct} attempted={attempted} failed={failed} error_ratio={error_ratio}");
        entry = entry
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("error_ratio", error_ratio);
        workloads = workloads.with(workload, entry);
    }

    let results = Json::obj()
        .with("benchmark", "grefar-benchmark")
        .with("seed", seed)
        .with("smoke", smoke)
        .with("run_seconds", seconds)
        .with("claim", Json::Null)
        .with(
            "machine",
            Json::obj()
                .with("nproc", sys::nproc())
                .with("cpu", cpu_model())
                .with("scratch_fs", scratch_fs)
                .with("rustc", rustc_version()),
        )
        .with("workloads", workloads);
    for (name, value) in [("results.json", &results), ("outcomes.json", &outcomes)] {
        let path = out.join(name);
        std::fs::write(&path, value.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("wrote {}", out.join("results.json").display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes two results.json paths".to_string());
    };
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let worse = compare::compare(
        &benchmark,
        &read_json(Path::new(base))?,
        &read_json(Path::new(new))?,
    )?;
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues the code prints must be exactly the metrics
    /// `BENCHMARK.json` declares, and the workloads the ones it lists.
    #[test]
    fn benchmark_json_matches_the_catalogues() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let benchmark = read_json(&path).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            benchmark
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let catalogue = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(report::END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(report::PER_LAYER));
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let args: Vec<String> = ["--seed", "5", "--smoke", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.number::<u64>("seed", None), Ok(5));
        assert!(flags.has("smoke"));
        assert_eq!(flags.get("out"), Some("x"));
        assert!(flags.only(&["seed", "out"]).is_err());
        assert!(Flags::parse(&["stray".to_string()]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
    }
}
