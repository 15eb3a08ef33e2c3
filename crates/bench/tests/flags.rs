//! Each experiment binary accepts only the shared flags it honors: any
//! other is a usage error (exit 2) that names the flag, and the usage line
//! lists only what the binary honors. Accepting a flag and then ignoring
//! it would let a run look observed, faulted or dumped when it was not.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grefar-flags-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts a usage-error exit that names `flag` and leaves it out of the
/// usage line.
fn assert_rejected(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let (error, usage) = stderr.split_once("\nusage: ").expect("a usage line");
    assert!(error.contains(flag), "the error must name {flag}: {stderr}");
    assert!(
        !usage.contains(flag),
        "the usage line lists {flag}: {stderr}"
    );
}

#[test]
fn binaries_reject_the_flags_they_ignore() {
    let dir = scratch("reject");
    let telemetry = dir.join("t.jsonl");
    let snapshot = dir.join("m.prom");
    let fig3 = env!("CARGO_BIN_EXE_fig3");
    let out = run(
        fig3,
        &["--hours", "24", "--telemetry", telemetry.to_str().unwrap()],
    );
    assert_rejected(&out, "--telemetry");
    let out = run(
        fig3,
        &[
            "--hours",
            "24",
            "--metrics-snapshot",
            snapshot.to_str().unwrap(),
        ],
    );
    assert_rejected(&out, "--metrics-snapshot");
    let out = run(
        fig3,
        &["--hours", "24", "--faults", "outage:dc=0,start=2,end=5"],
    );
    assert_rejected(&out, "--faults");
    assert!(!telemetry.exists() && !snapshot.exists());

    let table1 = env!("CARGO_BIN_EXE_table1");
    let out = run(table1, &["--hours", "24", "--csv", dir.to_str().unwrap()]);
    assert_rejected(&out, "--csv");
    let out = run(
        env!("CARGO_BIN_EXE_baselines"),
        &["--csv", dir.to_str().unwrap()],
    );
    assert_rejected(&out, "--csv");
    assert_eq!(std::fs::read_dir(&dir).expect("scratch dir").count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binaries_honor_the_flags_they_accept() {
    let dir = scratch("accept");
    let telemetry = dir.join("t.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_fig2"),
        &["--hours", "24", "--telemetry", telemetry.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = std::fs::read_to_string(&telemetry).expect("fig2 wrote its telemetry");
    assert!(events.lines().count() > 0);

    let out = run(
        env!("CARGO_BIN_EXE_fig3"),
        &["--hours", "24", "--csv", dir.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("fig3a_energy.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
