#!/usr/bin/env bash
# Regenerates the three committed benchmark records at the repo root:
#
# * BENCH_paper.json (`cargo bench --bench paper`): every count and
#   timing bound of the paper's evaluation, one entry per row of
#   EXPERIMENTS.md (Tables 1 and 2, the §4 prove times, the §6 check
#   times, the negative results, the §8 extensions and the E-matching
#   round-budget table). The bench asserts every verdict and every
#   timing against the paper's bound. EXPERIMENTS.md, DESIGN.md and
#   docs/*.md cite its keys, and tests/docs.rs checks the citations.
# * BENCH_soundness.json (`cargo bench --bench soundness_pipeline`):
#   obligations/sec for the sequential (jobs=1, cold), parallel (jobs=4,
#   cold), and warm-cache pipeline modes, the cache hit/miss ledger of a
#   cold vs warm second run, and the deadline-enforcement overhead: warm
#   jobs=4 runs with a (never-firing) timeout + deadline armed,
#   alternating with plain warm runs, median against median — asserted
#   <5% by the bench itself, which also asserts the cold path's exact
#   work ledgers (theory reuse per attempt, equal interning at jobs 1
#   and 4).
# * BENCH_chaos.json (`cargo test --release --test chaos -- --ignored`,
#   the bench-sized drills of tests/chaos/): the daemon-restart soak
#   (wire faults through the test proxy, the daemon SIGKILLed
#   mid-campaign and restarted on the same socket and cache dir) as a
#   gate, and the high-availability drill, which writes the record: two
#   daemon processes sharing one proof-cache journal, one SIGKILLed
#   mid-campaign, every answer exactly once and baseline-identical, the
#   survivor serving the dead daemon's proofs warm via journal follow
#   (plus a hot reload).
#
# The two bench records are removed before their bench runs, and the
# script fails when a bench did not write its record again. See
# docs/performance.md, docs/robustness.md, and docs/telemetry.md for
# the numbers and schemas.
set -euo pipefail

cd "$(dirname "$0")/.."

for bench in paper:BENCH_paper.json soundness_pipeline:BENCH_soundness.json; do
    name="${bench%%:*}"
    record="${bench#*:}"
    rm -f "$record"
    echo "==> cargo bench -p stq-bench --bench $name"
    cargo bench -p stq-bench --bench "$name"
    if [[ ! -f "$record" ]]; then
        echo "bench.sh: $record was not produced" >&2
        exit 1
    fi
    echo "==> $record"
    cat "$record"
done

echo "==> cargo test --release --test chaos -- --ignored (restart soak gate + HA drill)"
cargo test --release --test chaos -- --ignored

if [[ ! -f BENCH_chaos.json ]]; then
    echo "bench.sh: BENCH_chaos.json was not produced" >&2
    exit 1
fi
echo "==> BENCH_chaos.json"
cat BENCH_chaos.json
