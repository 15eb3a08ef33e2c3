#!/usr/bin/env bash
# Full pre-merge gate: build, tests, formatting, lints.
# Everything runs offline against the vendored dependency stubs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# Every crate's unit and integration tests, not only the root package's.
cargo test -q --offline --workspace
# Repo-specific static analysis (see crates/verify and DESIGN.md,
# "Correctness tooling"): lexical rules plus the cross-file event-schema
# and hot-path-alloc passes. --deny-warnings makes every non-allowed
# finding — warning or error — fail the gate.
./target/release/grefar-verify --deny-warnings
./target/release/grefar-verify deps-audit --deny-warnings
# The machine-readable output must self-diff clean through the
# lint-diff baseline tool (grefar-report lint-diff).
lint_tmp="$(mktemp -d)"
./target/release/grefar-verify --format json > "$lint_tmp/lint.json"
./target/release/grefar-report lint-diff "$lint_tmp/lint.json" "$lint_tmp/lint.json" \
    | grep -q 'no change' || { echo "lint-diff self-comparison failed" >&2; exit 1; }
rm -rf "$lint_tmp"
echo "static analysis ok"
# Every crate's suite again with the runtime invariant checks compiled in
# (the root feature forwards to grefar-core, grefar-sim, grefar-lp and,
# through grefar-core, grefar-convex).
cargo test -q --offline --workspace --features strict-invariants

# Telemetry tooling end to end (see EXPERIMENTS.md, "Reading telemetry"):
# a real fig2 V-sweep must analyze clean against the Theorem 1(a) queue
# bound, and an identical-seed replay must diff as semantically identical.
report_tmp="$(mktemp -d)"
trap 'rm -rf "$report_tmp"' EXIT
./target/release/fig2 --hours 48 --telemetry "$report_tmp/run_a.jsonl" > /dev/null
./target/release/grefar-report analyze "$report_tmp/run_a.jsonl" --assert-bound > /dev/null
./target/release/fig2 --hours 48 --telemetry "$report_tmp/run_b.jsonl" > /dev/null
./target/release/grefar-report diff "$report_tmp/run_a.jsonl" "$report_tmp/run_b.jsonl" > /dev/null
# Resilience (see EXPERIMENTS.md, "Fault injection"): a run with a full
# data-center outage must complete, report degraded slots, and still hold
# the Theorem 1(a) bound; a run killed mid-flight (exit 3) must resume from
# its checkpoint into a telemetry stream the diff tool certifies as
# identical to the uninterrupted one.
outage='outage:dc=0,start=30,end=40'
./target/release/grefar_cli --hours 500 --faults "$outage" \
    --telemetry "$report_tmp/faulted.jsonl" > /dev/null
./target/release/grefar-report analyze "$report_tmp/faulted.jsonl" --assert-bound \
    | grep -q 'degraded slot' || { echo "resilience section missing" >&2; exit 1; }
if ./target/release/grefar_cli --hours 500 --faults "$outage" \
    --telemetry "$report_tmp/cut.jsonl" \
    --checkpoint "$report_tmp/run.ckpt.jsonl" --checkpoint-every 50 --kill-at 250 \
    > /dev/null 2>&1; then
    echo "killed run should exit non-zero" >&2; exit 1
else
    [ $? -eq 3 ] || { echo "killed run should exit 3" >&2; exit 1; }
fi
./target/release/grefar_cli --hours 500 --faults "$outage" \
    --telemetry "$report_tmp/cut.jsonl" \
    --checkpoint "$report_tmp/run.ckpt.jsonl" --resume > /dev/null
./target/release/grefar-report diff \
    "$report_tmp/faulted.jsonl" "$report_tmp/cut.jsonl" > /dev/null
echo "resilience ok"

# Chaos soak (see EXPERIMENTS.md, "Unreliable feeds & the staleness
# sweep"): a 500-slot run on lossy feeds must complete, report feed
# health, and hold the *degraded* Theorem 1(a) bound; an identical-seed
# replay must reproduce the feed.* event stream byte for byte.
lossy='drop:feed=price,p=0.4,start=0,end=500;outage:feed=avail,dc=1,start=50,end=80;policy:seed=11,retries=1'
./target/release/grefar_cli --hours 500 --feeds "$lossy" \
    --telemetry "$report_tmp/feeds_a.jsonl" > /dev/null
./target/release/grefar-report analyze "$report_tmp/feeds_a.jsonl" --assert-bound \
    | grep -q 'feed health' || { echo "feed-health section missing" >&2; exit 1; }
./target/release/grefar_cli --hours 500 --feeds "$lossy" \
    --telemetry "$report_tmp/feeds_b.jsonl" > /dev/null
grep -e '"event":"feed\.' -e '"event":"state.stale"' "$report_tmp/feeds_a.jsonl" > "$report_tmp/feeds_a.events"
grep -e '"event":"feed\.' -e '"event":"state.stale"' "$report_tmp/feeds_b.jsonl" > "$report_tmp/feeds_b.events"
[ -s "$report_tmp/feeds_a.events" ] || { echo "lossy run emitted no feed events" >&2; exit 1; }
cmp -s "$report_tmp/feeds_a.events" "$report_tmp/feeds_b.events" \
    || { echo "feed event stream is not deterministic" >&2; exit 1; }
echo "chaos soak ok"

# Observability plane (see EXPERIMENTS.md, "Profiling & live metrics"): a
# metrics-enabled sweep must produce a lint-clean Prometheus exposition
# that the offline rebuild reproduces, and the logical-clock span profile
# must fold byte-identically across identical-seed runs.
./target/release/fig2 --hours 48 --telemetry "$report_tmp/obs.jsonl" \
    --metrics-snapshot "$report_tmp/obs.prom" --profile logical > /dev/null
./target/release/grefar-report promlint "$report_tmp/obs.prom" > /dev/null
grep -q 'grefar_slots_total' "$report_tmp/obs.prom" \
    || { echo "metrics snapshot missing slot counter" >&2; exit 1; }
./target/release/grefar-report metrics --include-timings "$report_tmp/obs.jsonl" \
    > "$report_tmp/obs.rebuilt.prom"
cmp -s "$report_tmp/obs.prom" "$report_tmp/obs.rebuilt.prom" \
    || { echo "offline metrics rebuild differs from the live snapshot" >&2; exit 1; }
./target/release/grefar-report profile "$report_tmp/obs.jsonl" \
    --folded "$report_tmp/obs_a.folded" > /dev/null
./target/release/fig2 --hours 48 --telemetry "$report_tmp/obs_b.jsonl" \
    --profile logical > /dev/null
./target/release/grefar-report profile "$report_tmp/obs_b.jsonl" \
    --folded "$report_tmp/obs_b.folded" > /dev/null
cmp -s "$report_tmp/obs_a.folded" "$report_tmp/obs_b.folded" \
    || { echo "folded span profile is not deterministic" >&2; exit 1; }
echo "observability ok"

# Decision provenance, trace export and alerting (see EXPERIMENTS.md,
# "Explaining a run"): the per-DC attribution must reconcile with the
# grefar.decide decomposition; the Perfetto export must pass its own
# shape lint and come out byte-identical across identical-seed
# logical-clock runs; a degraded-run alert rule must fire live, replay
# offline to the exact same event stream, leave the schedule diff-clean,
# and stay quiet on a healthy run.
./target/release/grefar-report explain "$report_tmp/faulted.jsonl" --top-k 5 \
    | grep -q 'attribution reconciles' \
    || { echo "explain attribution failed to reconcile" >&2; exit 1; }
./target/release/grefar-report trace "$report_tmp/obs.jsonl" \
    "$report_tmp/obs_a.trace.json" > /dev/null
./target/release/grefar-report trace "$report_tmp/obs_b.jsonl" \
    "$report_tmp/obs_b.trace.json" > /dev/null
cmp -s "$report_tmp/obs_a.trace.json" "$report_tmp/obs_b.trace.json" \
    || { echo "trace export is not deterministic" >&2; exit 1; }
alert_rule='deg:degraded_events>0'
./target/release/grefar_cli --hours 500 --faults "$outage" --alerts "$alert_rule" \
    --telemetry "$report_tmp/alerted.jsonl" > /dev/null
grep -q '"event":"alert.fire"' "$report_tmp/alerted.jsonl" \
    || { echo "faulted run fired no alert" >&2; exit 1; }
./target/release/grefar-report diff \
    "$report_tmp/faulted.jsonl" "$report_tmp/alerted.jsonl" > /dev/null
grep -e '"event":"alert\.' "$report_tmp/alerted.jsonl" > "$report_tmp/alerts.live"
./target/release/grefar-report alerts "$report_tmp/alerted.jsonl" \
    --rules "$alert_rule" --assert-fire \
    | grep -e '"event":"alert\.' > "$report_tmp/alerts.replay"
cmp -s "$report_tmp/alerts.live" "$report_tmp/alerts.replay" \
    || { echo "live and replayed alert streams differ" >&2; exit 1; }
./target/release/grefar-report alerts "$report_tmp/obs.jsonl" \
    --rules "$alert_rule" --assert-quiet > /dev/null
echo "provenance, trace and alerts ok"

# Daemon crash-safety (see EXPERIMENTS.md, "Running the scheduler as a
# daemon" and DESIGN.md, "Service architecture & supervision"): a
# grefar-served session killed with SIGKILL mid-run and restarted with
# --resume must merge into a telemetry stream grefar-report diff
# certifies as identical to an uninterrupted session, and the checkpoint
# file must hold one record; SIGTERM must drain gracefully (exit 0, final
# checkpoint, metrics snapshot, served.stop marker); a chaos plan that
# kills the state_keeper must restart within policy and still pass the
# Theorem 1(a) occupancy gate; and the same chaos session started fresh
# over an earlier session's checkpoint must diff clean against one on an
# empty path.
served=./target/release/grefar-served
wait_port() { # FILE -> prints the daemon's bound address
    local f=$1 i=0
    while [ ! -s "$f" ]; do
        i=$((i + 1))
        [ "$i" -gt 500 ] && { echo "daemon never wrote $f" >&2; return 1; }
        sleep 0.02
    done
    cat "$f"
}
served_args=(--hours 8 --clock manual --seed 7)
submit_head='{"op":"submit","job":1,"count":3}
{"op":"advance","slots":3}
{"op":"submit","job":0,"count":2}'
"$served" "${served_args[@]}" --telemetry "$report_tmp/served_ref.jsonl" \
    --checkpoint "$report_tmp/served_ref.ck" \
    --port-file "$report_tmp/served_ref.port" > /dev/null &
served_pid=$!
printf '%s\n%s\n' "$submit_head" '{"op":"advance","slots":5}' \
    | "$served" client "$(wait_port "$report_tmp/served_ref.port")" > /dev/null
wait "$served_pid" || { echo "reference daemon session failed" >&2; exit 1; }
[ "$(grep -c '"event":"ckpt.header"' "$report_tmp/served_ref.ck")" = 1 ] \
    || { echo "daemon checkpoint must hold exactly one record" >&2; exit 1; }
"$served" "${served_args[@]}" --telemetry "$report_tmp/served_cut.jsonl" \
    --checkpoint "$report_tmp/served_cut.ck" \
    --port-file "$report_tmp/served_cut.port" > /dev/null &
served_pid=$!
printf '%s\n' "$submit_head" \
    | "$served" client "$(wait_port "$report_tmp/served_cut.port")" > /dev/null
kill -9 "$served_pid" # SIGKILL: no drain, no flush; the last submit only in the journal
if wait "$served_pid" 2> /dev/null; then
    echo "SIGKILLed daemon should exit non-zero" >&2; exit 1
fi
rm -f "$report_tmp/served_cut.port"
"$served" "${served_args[@]}" --telemetry "$report_tmp/served_cut.jsonl" \
    --checkpoint "$report_tmp/served_cut.ck" --resume \
    --port-file "$report_tmp/served_cut.port" > /dev/null &
served_pid=$!
printf '%s\n' '{"op":"advance","slots":5}' \
    | "$served" client "$(wait_port "$report_tmp/served_cut.port")" > /dev/null
wait "$served_pid" || { echo "resumed daemon session failed" >&2; exit 1; }
./target/release/grefar-report diff \
    "$report_tmp/served_ref.jsonl" "$report_tmp/served_cut.jsonl" > /dev/null \
    || { echo "resumed daemon stream diverged from the uninterrupted run" >&2; exit 1; }
"$served" --hours 6 --clock manual --seed 4 \
    --telemetry "$report_tmp/served_drain.jsonl" \
    --checkpoint "$report_tmp/served_drain.ck" \
    --metrics-snapshot "$report_tmp/served_drain.prom" \
    --port-file "$report_tmp/served_drain.port" > /dev/null &
served_pid=$!
printf '%s\n' '{"op":"advance","slots":2}' \
    | "$served" client "$(wait_port "$report_tmp/served_drain.port")" > /dev/null
kill -TERM "$served_pid"
wait "$served_pid" || { echo "SIGTERM drain must exit 0" >&2; exit 1; }
grep -q '"event":"served.stop"' "$report_tmp/served_drain.jsonl" \
    || { echo "drained daemon left no served.stop marker" >&2; exit 1; }
[ -s "$report_tmp/served_drain.ck" ] \
    || { echo "drained daemon left no final checkpoint" >&2; exit 1; }
./target/release/grefar-report promlint "$report_tmp/served_drain.prom" > /dev/null
"$served" --hours 10 --clock turbo --seed 3 --backoff-ms 1 \
    --chaos 'kill:actor=state_keeper,start=6,end=7' \
    --telemetry "$report_tmp/served_chaos.jsonl" \
    --checkpoint "$report_tmp/served_chaos.ck" \
    --port-file "$report_tmp/served_chaos.port" > /dev/null 2>&1 &
served_pid=$!
wait_port "$report_tmp/served_chaos.port" > /dev/null
wait "$served_pid" || { echo "chaos run must ride out its kills (exit 0)" >&2; exit 1; }
grep -q '"event":"served.restart"' "$report_tmp/served_chaos.jsonl" \
    || { echo "chaos run recorded no restart" >&2; exit 1; }
./target/release/grefar-report analyze "$report_tmp/served_chaos.jsonl" --assert-bound > /dev/null
# A fresh start (no --resume) must not inherit an earlier session's
# checkpoint or journal: a state-keeper restart before the first cut
# must replay this session, exactly as it does on an empty path.
"$served" --hours 12 --clock turbo --seed 9 --checkpoint-every 4 \
    --checkpoint "$report_tmp/served_stale.ck" \
    --port-file "$report_tmp/served_stale.port" > /dev/null &
served_pid=$!
wait_port "$report_tmp/served_stale.port" > /dev/null
wait "$served_pid" || { echo "stale-path seed session failed" >&2; exit 1; }
stale_args=(--hours 12 --clock turbo --seed 7 --checkpoint-every 100 --backoff-ms 1
    --chaos 'kill:actor=state_keeper,start=3,end=4')
for path in served_stale served_fresh; do
    rm -f "$report_tmp/$path.port"
    "$served" "${stale_args[@]}" --telemetry "$report_tmp/$path.jsonl" \
        --checkpoint "$report_tmp/$path.ck" \
        --port-file "$report_tmp/$path.port" > /dev/null 2>&1 &
    served_pid=$!
    wait_port "$report_tmp/$path.port" > /dev/null
    wait "$served_pid" || { echo "$path chaos session failed" >&2; exit 1; }
done
./target/release/grefar-report diff \
    "$report_tmp/served_fresh.jsonl" "$report_tmp/served_stale.jsonl" > /dev/null \
    || { echo "a fresh start resumed an earlier session's checkpoint" >&2; exit 1; }
echo "daemon crash-safety ok"

# Whole-system soak (see EXPERIMENTS.md, "Soak testing & replaying
# failures" and DESIGN.md, "Soak testing & the conservation ledger"): a
# fixed seed batch must soak green through the batch, crash and daemon
# legs in bounded wall time, and the mutation self-check must prove the
# oracles can fail — a corrupted queue update the conservation ledger
# cannot catch would make every green batch meaningless. The default
# batch of 320 seeds soaks in about 9 s on a 2-vCPU VM; set
# GREFAR_SOAK_SEEDS=N to resize it (nightly runs).
soak_seeds="${GREFAR_SOAK_SEEDS:-320}"
if ! timeout 900 ./target/release/grefar-soak run --seeds "$soak_seeds" \
    --dir "$report_tmp/soak-failures" > "$report_tmp/soak.log" 2>&1; then
    cat "$report_tmp/soak.log" >&2
    cat "$report_tmp"/soak-failures/repro-*.txt 2> /dev/null >&2 || true
    echo "soak batch failed" >&2; exit 1
fi
timeout 300 ./target/release/grefar-soak selfcheck > /dev/null 2>&1 \
    || { echo "soak selfcheck failed: the oracles cannot catch a planted bug" >&2; exit 1; }
echo "soak harness ok"

# Benchmark smoke (see benchmark/README.md): the benchmark is a package of
# its own, so `cargo build --workspace` never compiles it against a
# changed library API. A smoke run of every workload builds it, drives the
# public surface it calls, and exits non-zero on any failed correctness
# check.
bash benchmark/run.sh run --seed 5 --workload all --out "$report_tmp/bench" --smoke \
    > "$report_tmp/bench.log" 2>&1 \
    || { cat "$report_tmp/bench.log" >&2; echo "benchmark smoke run failed" >&2; exit 1; }
echo "benchmark smoke ok"

# Perf trajectory: benches emit machine-readable BENCH_<target>.json; a
# self-comparison through the gate must pass at a tight threshold, and the
# fresh numbers must stay within a loose envelope of the committed
# baselines in perf/ (loose: baselines were recorded on different
# hardware; the gate catches order-of-magnitude regressions only).
for bench in trace checkpoint lp served per_slot simulator soak telemetry; do
    cargo bench -q -p grefar-bench --bench "$bench" --offline -- --json "$report_tmp" > /dev/null
    ./target/release/grefar-report bench-gate \
        "$report_tmp/BENCH_$bench.json" "$report_tmp/BENCH_$bench.json" --threshold 10% > /dev/null
    ./target/release/grefar-report bench-gate \
        "perf/BENCH_$bench.json" "$report_tmp/BENCH_$bench.json" --threshold 300% > /dev/null
done
echo "report tooling ok"

# Sanitizers (best effort — both stages need optional toolchain pieces,
# so each gates on availability and skips with a notice rather than
# failing a machine that lacks them; see DESIGN.md, "Correctness
# tooling").
#
# Miri catches undefined behaviour the type system can't (the leaf
# crates are pure data/parsing code, so the interpreter's slowness is
# tolerable there).
if cargo +nightly miri --version > /dev/null 2>&1; then
    cargo +nightly miri test -q --offline \
        -p grefar-types -p grefar-obs -p grefar-metrics
    echo "miri ok"
else
    echo "miri skipped: component not installed on the nightly toolchain" >&2
fi
# AddressSanitizer needs -Z flags, hence nightly; a clean instrumented
# build of the simulator's bench targets is the smoke test (the repo is
# #![forbid(unsafe_code)] throughout, so linking is where ASan earns
# its keep).
asan_target="x86_64-unknown-linux-gnu"
if rustc +nightly --version > /dev/null 2>&1 \
    && rustup target list --toolchain nightly --installed 2> /dev/null \
        | grep -qx "$asan_target"; then
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly build -q --offline \
        -p grefar-bench --benches --target "$asan_target" \
        --target-dir target/asan
    echo "asan build ok"
else
    echo "asan skipped: nightly toolchain or $asan_target target missing" >&2
fi

# Every workspace crate, not only the root `grefar` facade package.
cargo fmt --all --check
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "all checks passed"
