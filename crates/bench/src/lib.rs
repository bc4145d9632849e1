//! Benchmark support crate. The benchmarks themselves live in
//! `benches/`, and each writes one JSON record at the repository root
//! (`scripts/bench.sh` runs both):
//!
//! * `paper` — `BENCH_paper.json`: every count and timing bound of the
//!   paper's evaluation (Tables 1 and 2, §4, §6, §6.2, §8), one entry
//!   per row of EXPERIMENTS.md, plus the E-matching round-budget table;
//! * `soundness_pipeline` — `BENCH_soundness.json`: sequential, parallel
//!   and warm-cache proving throughput, with the cold path's exact work
//!   ledgers and the deadline-enforcement overhead gate.
