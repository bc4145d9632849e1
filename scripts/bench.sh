#!/usr/bin/env bash
# Soundness + prover benchmarks. Emits BENCH_soundness.json at the repo
# root: obligations/sec for the sequential (jobs=1, cold), parallel
# (jobs=4, cold), and warm-cache pipeline modes, the cache hit/miss
# ledger of a cold vs warm second run, and the deadline-enforcement
# overhead of the warm jobs=4 run with a (never-firing) timeout +
# deadline armed — asserted <5% by the bench itself, which also asserts
# the cold path's exact work ledgers (theory reuse per attempt, equal
# interning at jobs 1 and 4). Also emits BENCH_chaos.json: the
# high-availability drill — two daemon processes sharing one proof-cache
# journal, one SIGKILLed mid-campaign — asserted by `stqc chaos-serve`
# itself to keep the exactly-once / baseline-identical invariants with
# the survivor serving the dead daemon's proofs warm via journal follow
# (plus a hot reload). The single-daemon wire-fault + worker-SIGKILL
# soak still runs first as a gate. See docs/performance.md,
# docs/robustness.md, and docs/telemetry.md for the numbers and schemas.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo bench -p stq-bench --bench soundness_pipeline"
cargo bench -p stq-bench --bench soundness_pipeline

echo "==> cargo bench -p stq-bench --bench prove_qualifiers"
cargo bench -p stq-bench --bench prove_qualifiers

echo "==> cargo bench -p stq-bench --bench prover_ablation"
cargo bench -p stq-bench --bench prover_ablation

if [[ ! -f BENCH_soundness.json ]]; then
    echo "bench.sh: BENCH_soundness.json was not produced" >&2
    exit 1
fi
echo "==> BENCH_soundness.json"
cat BENCH_soundness.json

echo "==> cargo build --release"
cargo build --release

echo "==> stqc chaos-serve (seeded soak + worker SIGKILL drill, gate only)"
worker_drill="$(mktemp /tmp/stqc-bench-chaos-worker-XXXXXX.json)"
trap 'rm -f "$worker_drill"' EXIT
./target/release/stqc chaos-serve --seed 7 --count 120 --clients 4 \
    --kill-worker --out "$worker_drill"

echo "==> stqc chaos-serve --daemons 2 --kill-daemon (HA drill)"
./target/release/stqc chaos-serve --seed 7 --count 120 --clients 4 \
    --daemons 2 --kill-daemon --out BENCH_chaos.json

if [[ ! -f BENCH_chaos.json ]]; then
    echo "bench.sh: BENCH_chaos.json was not produced" >&2
    exit 1
fi
echo "==> BENCH_chaos.json"
cat BENCH_chaos.json
