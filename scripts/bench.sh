#!/usr/bin/env bash
# Soundness + prover benchmarks. Emits BENCH_soundness.json at the repo
# root: obligations/sec for the sequential (jobs=1, cold), parallel
# (jobs=4, cold), and warm-cache pipeline modes, the cache hit/miss
# ledger of a cold vs warm second run, and the deadline-enforcement
# overhead: warm jobs=4 runs with a (never-firing) timeout + deadline
# armed, alternating with plain warm runs, median against median —
# asserted <5% by the bench itself, which also asserts the cold path's
# exact work ledgers (theory reuse per attempt, equal interning at jobs
# 1 and 4). Then runs the bench-sized chaos drills, the #[ignore]d tests
# of tests/chaos/: the daemon-restart soak (wire faults through the
# test proxy, the daemon SIGKILLed mid-campaign and restarted on the
# same socket and cache dir) as a gate, and the high-availability
# drill, which writes BENCH_chaos.json: two daemon processes sharing
# one proof-cache journal, one SIGKILLed mid-campaign, every answer
# exactly once and baseline-identical, the survivor serving the dead
# daemon's proofs warm via journal follow (plus a hot reload). See
# docs/performance.md, docs/robustness.md, and docs/telemetry.md for
# the numbers and schemas.
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

echo "==> cargo test --release --test chaos -- --ignored (restart soak gate + HA drill)"
cargo test --release --test chaos -- --ignored

if [[ ! -f BENCH_chaos.json ]]; then
    echo "bench.sh: BENCH_chaos.json was not produced" >&2
    exit 1
fi
echo "==> BENCH_chaos.json"
cat BENCH_chaos.json
