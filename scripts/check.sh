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

# The workspace steps run --locked: a Cargo.lock that no longer matches
# the manifests (say, after a vendored crate leaves) fails here instead of
# being rewritten quietly.
echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings"
cargo clippy --locked --workspace --all-targets -- -D warnings

# Every library function without a library caller must be allow-listed
# API that perfbench, the examples or the tests consume, so dead code
# cannot come back unnoticed (see scripts/census.sh).
echo "==> scripts/census.sh (caller-less library functions)"
scripts/census.sh

# The reliability acceptance gate first, under its own banner: SECDED
# codec properties, the graceful-degradation campaign and scrub's
# repair/bit-identity guarantees (also part of the full suite below).
echo "==> cargo test --locked -q -p stt-ctrl --test integration_reliability"
cargo test --locked -q -p stt-ctrl --test integration_reliability

echo "==> cargo test --locked -q"
cargo test --locked -q

# The benchmark is a package of its own (perfbench/), built against the
# crates' public APIs: building and self-testing it here makes an API
# change that breaks the benchmark fail this gate.
echo "==> cargo test --release -q --manifest-path perfbench/Cargo.toml"
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Full-scale correctness: the self-tests above only run the smoke size, and
# perfbench exits 0 even when its checks fail, so run every workload at
# full size for a short window and require its last line to say so.
#
# Each workload's simulated statistics must also hash to its pinned digest
# for seeds 1-3, so a host-speed change that moves the simulation fails
# here. A pin changes only in a commit that changes the model on purpose,
# and that commit says why.
echo "==> perfbench full-scale correctness and digests (every workload, seeds 1-3)"
for pin in \
    replay-fcfs:1:c4d0646bab941f48 policy-ecc-bg:1:193055da55e1978d \
    chip-closed-loop:1:c844cd0e1ff61838 fig5-mc:1:109d93eb11962ae4 \
    replay-fcfs:2:a5e49e966e76ff10 policy-ecc-bg:2:9b23524b7d380800 \
    chip-closed-loop:2:0103c55c77f80c40 fig5-mc:2:e6108ee9b10c8549 \
    replay-fcfs:3:69a582f7768e29f1 policy-ecc-bg:3:653b9da2b24e3417 \
    chip-closed-loop:3:faf82b340442af14 fig5-mc:3:b7edb291fd02dc1d; do
    workload="${pin%%:*}"
    seed="${pin#*:}"
    seed="${seed%%:*}"
    expected="${pin##*:}"
    output="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 0.1 --trace 0)"
    last="$(printf '%s\n' "$output" | tail -n 1)"
    case "$last" in
        *'"correct": true'*) ;;
        *)
            echo "    FAIL: $workload seed $seed did not report \"correct\": true"
            exit 1
            ;;
    esac
    actual="$(printf '%s\n' "$output" | sed -n 's/^digest: //p')"
    if [ "$actual" != "$expected" ]; then
        echo "    FAIL: $workload seed $seed digest: expected $expected, actual ${actual:-none}"
        exit 1
    fi
    echo "    $workload seed $seed: correct, digest $actual"
done

# Documentation gate over the repo's own crates (vendored stand-ins are
# exempt — they mirror upstream APIs we don't own).
echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --quiet \
    -p stt-units -p stt-mtj -p stt-mna -p stt-stats \
    -p stt-array -p stt-sense -p stt-ctrl -p stt-bench

# Fast-path floor: the FCFS-at-unbounded-depth fast path of
# Frontend::run must keep the frontend within 2x of serial replay.
# sched.over_serial is serial replay time over frontend time, both measured
# in the same process, so the floor compares no host-absolute time. Losing
# the fast path outright reads about 0.3 to 0.4 on a 2-core host; a working
# build reads about 0.6 to 0.9.
echo "==> replay-fcfs sched.over_serial floor (perfbench --trace 1)"
output="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload replay-fcfs --seed 1 --seconds 0.5 --trace 1)"
last="$(printf '%s\n' "$output" | tail -n 1)"
case "$last" in
    *'"correct": true'*) ;;
    *)
        echo "    FAIL: traced replay-fcfs did not report \"correct\": true"
        exit 1
        ;;
esac
over_serial="$(printf '%s\n' "$last" \
    | sed -n 's/.*"sched\.over_serial": {"value": \([0-9.eE+-]*\).*/\1/p')"
awk -v value="$over_serial" -v floor=0.5 'BEGIN {
    if (value == "") {
        print "    FAIL: no sched.over_serial in the ledger"
        exit 1
    }
    if (value + 0 < floor) {
        printf "    FAIL: sched.over_serial %.3f below floor %.1f\n", value, floor
        exit 1
    }
    printf "    sched.over_serial %.3f (floor %.1f) ok\n", value, floor
}'

# Batched Monte-Carlo smoke: the fig5mc campaign must run, spot-check its
# batched waveforms against sequential references (asserted inside the
# experiment), and amortize at least 5 times fewer LU factorizations than
# a sequential campaign. Its stdout is deterministic, so it must also hash
# to its pin: the statistics table and the "N factorizations batched vs M
# sequential" line move only in a commit that changes the model on purpose.
echo "==> batched Monte-Carlo smoke (repro fig5mc)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p stt-bench --bin repro -- fig5mc > "$smoke_dir/fig5mc.txt"
amortization="$(grep -o 'factorization_amortization=[0-9.]*' "$smoke_dir/fig5mc.txt" \
    | cut -d= -f2)"
awk -v value="$amortization" -v floor=5.0 'BEGIN {
    if (value + 0 < floor) {
        printf "    FAIL: batch amortization %.1f below floor %.1f\n", value, floor
        exit 1
    }
    printf "    factorization amortization %.1fx (floor %.1f) ok\n", value, floor
}'
expected=195d6dfce6d0a58165eb4c821493bd8779711fe3c5ecd0cb083a3777804d69c1
actual="$(sha256sum "$smoke_dir/fig5mc.txt" | cut -d' ' -f1)"
if [ "$actual" != "$expected" ]; then
    echo "    FAIL: repro fig5mc stdout sha256: expected $expected, actual $actual"
    exit 1
fi
echo "    repro fig5mc stdout: $actual"

# Fast end-to-end smoke of the full-chip hierarchy: a small topology sweep
# that asserts sharded == serial at every point, asserts that the lazy
# sparse chip materialises exactly the banks its replay touches, and, at
# 1000 ops, arms the knee assertion (about 1.5 s).
echo "==> trafficsim --topology-sweep smoke"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --topology-sweep --ops 1000 --geometry 2x1x2x2 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/topology_sweep.csv"

# Plain traffic sweep smoke: the only check.sh step that drives
# Controller::run's parallel arm at full width. It asserts serial ==
# parallel at 1, 4 and 8 banks, so on a multi-core host it exercises the
# grouping of several banks onto one worker.
echo "==> trafficsim smoke (serial == parallel dispatch)"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --ops 200 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/traffic.csv"

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
# served through the frontend, with the two daemon-free arms asserted equal
# to parallel dispatch. --ops 4000 arms the >=10x degradation and <=2x
# recovery gates (the run takes well under a second).
echo "==> trafficsim --thermal-sweep smoke"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --thermal-sweep --ops 4000 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/thermal_sweep.csv"

# Reliability smoke: the fault-intensity ladder under no protection, ECC
# and ECC+scrub, the main production user of the fault plan. --ops 4000
# arms the graceful-degradation gate (about 2 s).
echo "==> trafficsim --reliability-sweep smoke"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --reliability-sweep --ops 4000 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/reliability_sweep.csv"

# Load smoke: offered load per scheme through the frontend. --ops 1000
# arms the gate that destructive p99 sojourn exceeds nondestructive.
echo "==> trafficsim --load-sweep smoke"
cargo run --release -q -p stt-bench --bin trafficsim -- \
    --load-sweep --ops 1000 --csv "$smoke_dir" > /dev/null
test -s "$smoke_dir/load_sweep.csv"

# The smoke CSVs are deterministic, so each must hash to its pin: a change
# that moves a column, its order or its formatting fails here. A pin moves
# only in a commit that changes the model on purpose, and that commit says
# why.
echo "==> trafficsim smoke CSV pins (sha256)"
for pin in \
    traffic.csv:3d669c1d8abfc9ac34532a808f22389c41ee43636a0f956fae58ded9d7524a4a \
    topology_sweep.csv:c9efe523e61410fe4beab975d8ae7319608f294adffc2bd5a7c8600b26abee51 \
    march_sweep.csv:df3b8357db51e78affa073dc5a2c75dba53408ee7a9ced44f996c037d6aefe0c \
    thermal_sweep.csv:838dfa91ce766087682944cd8c75876e2f9b8cd954e44d570d724d17e60a26a7 \
    reliability_sweep.csv:7ef1411d44852564e5b8ab33773e09040d8d081b37b5d9754d4aba1b56787908 \
    load_sweep.csv:1bb4c6d4edfe5c5e6017c4046f164d8f4846efb877f28bfc859bd63ecbb6e4a6; do
    file="${pin%%:*}"
    expected="${pin##*:}"
    actual="$(sha256sum "$smoke_dir/$file" | cut -d' ' -f1)"
    if [ "$actual" != "$expected" ]; then
        echo "    FAIL: $file sha256: expected $expected, actual $actual"
        exit 1
    fi
    echo "    $file: $actual"
done

echo "all checks passed"
