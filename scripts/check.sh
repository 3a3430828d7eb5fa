#!/usr/bin/env bash
# Repository health gate: formatting, lints, and the full test suite.
#
# Run from anywhere inside the repo:
#
#     scripts/check.sh
#
# Exits non-zero on the first failing step, so it is safe to use as a
# pre-push hook or CI entry point.

set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The reliability acceptance gate first, under its own banner: SECDED
# codec properties, the graceful-degradation campaign and scrub's
# repair/bit-identity guarantees (also part of the full suite below).
echo "==> cargo test -q -p stt-ctrl --test integration_reliability"
cargo test -q -p stt-ctrl --test integration_reliability

echo "==> cargo test -q"
cargo test -q

# The benchmark is a package of its own (perfbench/), built against the
# crates' public APIs: building and self-testing it here makes an API
# change that breaks the benchmark fail this gate.
echo "==> cargo test --release -q --manifest-path perfbench/Cargo.toml"
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Documentation gate over the repo's own crates (vendored stand-ins are
# exempt — they mirror upstream APIs we don't own).
echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p stt-units -p stt-mtj -p stt-mna -p stt-stats \
    -p stt-array -p stt-sense -p stt-ctrl -p stt-bench

echo "==> cargo bench --no-run"
cargo bench --no-run

# Throughput smoke gate: the FCFS event loop must not fall off a cliff
# versus the committed baseline (BENCH_MNA.json, written by
# scripts/bench.sh). Shared boxes swing medians by tens of percent
# between windows, so only a halving of throughput — the size of losing
# the FCFS fast path outright — fails; smaller dips just warn.
echo "==> sched_frontend Mtxn/s smoke gate"
baseline="$(grep -o '"sched_fcfs_mtxn_per_s": [0-9.]*' BENCH_MNA.json | awk '{print $2}' || true)"
if [ -z "$baseline" ]; then
    echo "    no sched_fcfs_mtxn_per_s in BENCH_MNA.json; skipping (run scripts/bench.sh)"
else
    gate_records="$(mktemp)"
    CRITERION_JSON="$gate_records" CRITERION_ITERATIONS=5 \
        cargo bench -p stt-bench --bench sched_frontend > /dev/null
    awk -v baseline="$baseline" '
        /"id": "sched_frontend\/policy\/fcfs"/ {
            median = $0; sub(/.*"median_s": /, "", median); sub(/[,}].*/, "", median)
            elements = $0; sub(/.*"elements": /, "", elements); sub(/[,}].*/, "", elements)
            now = (elements + 0) / (median + 0) / 1e6
            printf "    fcfs: %.3f Mtxn/s (baseline %.3f)\n", now, baseline
            if (now < 0.5 * baseline) {
                print "    FAIL: fcfs throughput halved versus the committed baseline"
                exit 1
            }
            if (now < 0.7 * baseline) {
                print "    warning: fcfs >30% below baseline (noisy box? rerun scripts/bench.sh)"
            }
        }
    ' "$gate_records"
    rm -f "$gate_records"
fi

# Batched Monte-Carlo smoke: the fig5mc campaign must run, spot-check its
# batched waveforms against sequential references (asserted inside the
# experiment), and amortize at least FIG5_AMORTIZATION_FLOOR times fewer
# LU factorizations than a sequential campaign.
echo "==> batched Monte-Carlo smoke (repro fig5mc)"
amortization="$(cargo run --release -q -p stt-bench --bin repro -- fig5mc \
    | grep -o 'factorization_amortization=[0-9.]*' | cut -d= -f2)"
awk -v value="$amortization" -v floor="${FIG5_AMORTIZATION_FLOOR:-5.0}" 'BEGIN {
    if (value + 0 < floor + 0) {
        printf "    FAIL: batch amortization %.1f below floor %.1f\n", value, floor
        exit 1
    }
    printf "    factorization amortization %.1fx (floor %.1f) ok\n", value, floor
}'

# Fast end-to-end smoke of the full-chip hierarchy: a small topology sweep
# that asserts sharded == serial at every point and exercises the lazy
# sparse-chip path (200 ops keeps it to a few seconds; the knee assertion
# only arms at >= 1000 ops).
echo "==> trafficsim --topology-sweep smoke"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --topology-sweep --ops 200 --geometry 2x1x2x2 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/topology_sweep.csv"

# Manufacturing-test smoke: the March escape campaign on the trimmed
# (smoke-sized) matrix. Every textbook coverage guarantee is asserted
# inside run_escape_campaign, so a non-empty CSV means they all held.
echo "==> trafficsim --march-sweep smoke (decoded + raw read modes)"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --march-sweep --ops 200 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/march_sweep.csv"
# The sweep marches every cell in both read modes; raw rows must be there.
grep -q ",true," "$smoke_dir/march_sweep.csv"

# Thermal-drift smoke: three arms (baseline / hot-static / hot-calibrated)
# with serial == parallel asserted per arm. The >=10x degradation and <=2x
# recovery gates only arm at the full --ops 4000; the smoke proves the
# drift + daemon path end to end.
echo "==> trafficsim --thermal-sweep smoke"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --thermal-sweep --ops 300 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/thermal_sweep.csv"

echo "all checks passed"
