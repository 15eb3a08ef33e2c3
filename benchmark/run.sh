#!/usr/bin/env bash
# Builds grefar-served (the daemon the served workload drives) and the
# benchmark, then runs the benchmark with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper-fw --seed 5 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 5 --out results/
#   bash benchmark/run.sh compare base/results.json new/results.json
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# target/), so the benchmark finds the daemon next to itself. Build output
# goes to stderr; stdout carries only the benchmark's report.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p grefar-served >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/grefar-benchmark" "$@"
