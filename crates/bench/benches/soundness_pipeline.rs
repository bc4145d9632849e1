//! The parallel + incremental soundness pipeline benchmark
//! (`docs/performance.md`): sequential cold proving (`jobs = 1`) vs the
//! parallel cold pipeline vs the warm fingerprinted proof cache, over
//! the builtin qualifier library plus the shipped
//! `examples/qualifiers/extra.q` corpus.
//!
//! It writes `BENCH_soundness.json` at the repository root, with
//! obligations/sec for each mode and the cache hit/miss ledger of the
//! cold and warm runs. The headline `parallel` figure is the
//! pipeline's steady state — `jobs = 4` *with a warm
//! on-disk cache*, exactly what a second `stqc prove --jobs 4
//! --cache-dir` run does; `parallel_cold` isolates the cache-less cold
//! path (shared theory + hash-consed leaf checks + worker reuse + the
//! pool); and `parallel_warm_deadline` re-runs the warm mode with a
//! (never-firing) per-obligation timeout and whole-run deadline armed,
//! interleaved run by run with the plain warm mode, asserting that the
//! median armed run is <5% slower than the median plain one
//! (`deadline_overhead` in the JSON). The cold path's work is gated
//! exactly instead of by a speed ratio: the sequential run starts every
//! attempt from the prepared theory, and its interning ledgers equal the
//! parallel run's.

use std::fs;
use std::time::{Duration, Instant};
use stq_core::reportjson::decimals;
use stq_qualspec::{QualifierDef, Registry};
use stq_soundness::{
    check_defs_pipeline_cancellable, Budget, CancelToken, ProofCache, RetryPolicy, SoundnessReport,
};
use stq_util::json::Json;

const JOBS: usize = 4;

fn registry() -> Registry {
    let mut registry = Registry::builtins();
    let extra = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/qualifiers/extra.q"
    );
    let source = fs::read_to_string(extra).expect("extra.q is shipped with the repo");
    registry.add_source(&source).expect("extra.q parses");
    registry
}

/// One proving run of the whole registry through the checker's driver.
fn prove(
    registry: &Registry,
    budget: Budget,
    retry: RetryPolicy,
    jobs: usize,
    cache: Option<&ProofCache>,
    cancel: &CancelToken,
) -> SoundnessReport {
    let defs: Vec<&QualifierDef> = registry.iter().collect();
    check_defs_pipeline_cancellable(registry, &defs, budget, retry, jobs, cache, cancel)
}

/// Runs `f` repeatedly until ~0.5 s of wall clock (at least `min_runs`),
/// returning (runs, total elapsed, last report).
fn measure(
    min_runs: u32,
    max_runs: u32,
    mut f: impl FnMut() -> SoundnessReport,
) -> (u32, Duration, SoundnessReport) {
    let mut report = f(); // warm-up, uncounted
    let start = Instant::now();
    let mut runs = 0;
    while runs < max_runs && (runs < min_runs || start.elapsed() < Duration::from_millis(500)) {
        report = f();
        runs += 1;
    }
    (runs, start.elapsed(), report)
}

/// Runs `modes[0]` and `modes[1]` alternately, flipping which goes first
/// every pair, until ~1 s of wall clock (at least `min_pairs`, at most
/// `max_pairs`), so both see the same moments of machine noise. Returns
/// each mode's per-run times and last report.
fn measure_interleaved(
    min_pairs: usize,
    max_pairs: usize,
    modes: [&mut dyn FnMut() -> SoundnessReport; 2],
) -> [(Vec<Duration>, SoundnessReport); 2] {
    let mut last = [modes[0](), modes[1]()]; // warm-up, uncounted
    let mut times = [Vec::new(), Vec::new()];
    let start = Instant::now();
    for pair in 0..max_pairs {
        if pair >= min_pairs && start.elapsed() >= Duration::from_secs(1) {
            break;
        }
        for k in [pair % 2, 1 - pair % 2] {
            let t0 = Instant::now();
            last[k] = modes[k]();
            times[k].push(t0.elapsed());
        }
    }
    let [warm, armed] = last;
    let [warm_times, armed_times] = times;
    [(warm_times, warm), (armed_times, armed)]
}

fn median(times: &[Duration]) -> Duration {
    let mut sorted = times.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

fn obl_per_sec(obligations: usize, runs: u32, elapsed: Duration) -> f64 {
    (obligations as f64 * f64::from(runs)) / elapsed.as_secs_f64().max(1e-9)
}

fn mode_json(obligations: usize, runs: u32, elapsed: Duration) -> Json {
    Json::obj([
        ("runs", u64::from(runs).into()),
        ("total_ms", decimals(elapsed.as_secs_f64() * 1000.0, 3)),
        (
            "obligations_per_sec",
            decimals(obl_per_sec(obligations, runs, elapsed), 1),
        ),
    ])
}

fn main() {
    let registry = registry();
    let budget = Budget::default();
    let retry = RetryPolicy::attempts(2);
    let unfired = CancelToken::default();

    // Mode 1: sequential, no cache — one worker proving everything cold
    // on the calling thread.
    let (seq_runs, seq_elapsed, seq_report) =
        measure(2, 50, || prove(&registry, budget, retry, 1, None, &unfired));
    assert!(seq_report.all_sound(), "{seq_report}");
    let obligations = seq_report.obligation_count();

    // Mode 2: the parallel cold path (jobs = 4), still proving
    // everything — shared prepared theory, hash-consed leaf template,
    // per-worker solver reuse.
    let (cold_runs, cold_elapsed, cold_report) = measure(2, 50, || {
        prove(&registry, budget, retry, JOBS, None, &unfired)
    });
    assert!(cold_report.all_sound(), "{cold_report}");
    assert_eq!(cold_report.obligation_count(), obligations);

    // Gated work ledgers: every sequential attempt starts from the
    // prepared shared theory instead of re-clausifying the background
    // axioms, and hash-consing interns exactly the same terms whether
    // one worker or four prove the registry.
    let (seq, cold) = (&seq_report.totals, &cold_report.totals);
    assert_eq!(
        seq.theory_reuses, obligations as u64,
        "every sequential attempt must reuse the prepared theory"
    );
    assert_eq!(
        (seq.interned_terms, seq.intern_hits),
        (cold.interned_terms, cold.intern_hits),
        "interning ledgers (terms, hits) must not depend on the job count"
    );

    // Mode 3: the full pipeline — jobs = 4 with an on-disk proof cache
    // (the same ProofCache::at_dir path `stqc --cache-dir` uses), warmed
    // by one cold run and then measured hot.
    let dir = std::env::temp_dir().join(format!("stq-bench-cache-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = ProofCache::at_dir(&dir).expect("temp cache dir");
    let first = prove(&registry, budget, retry, JOBS, Some(&cache), &unfired);
    assert!(first.all_sound(), "{first}");
    let cold_misses = first.totals.cache_misses;
    let cold_hits = first.totals.cache_hits;
    // A cold run misses every *distinct* obligation; structurally
    // identical obligations across qualifiers (e.g. `nonnull` and
    // `kernel` both establish `value(&L) != NULL`) hit the entry the
    // first occurrence recorded moments earlier.
    assert_eq!(
        cold_misses + cold_hits,
        obligations as u64,
        "every obligation is looked up exactly once"
    );
    assert!(cold_misses > cold_hits, "a cold run mostly misses");
    cache.persist().expect("persist cache");

    // Mode 4: deadline enforcement on the steady-state path — the same
    // warm jobs=4 pipeline, but with a per-obligation `--timeout-ms`
    // budget *and* a whole-run `--deadline-ms` token armed (both far too
    // generous to ever fire), so every cancellation/deadline safepoint
    // is live. The timeout is part of every fingerprint, so this variant
    // warms its own cache. Its runs alternate with mode 3's, and the
    // median run-time delta is pure enforcement overhead, which must
    // stay under 5%.
    let budget_timed = Budget {
        timeout: Some(Duration::from_secs(3600)),
        ..budget
    };
    let token = CancelToken::deadline_in(Duration::from_secs(3600));
    let dir_timed =
        std::env::temp_dir().join(format!("stq-bench-cache-timed-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir_timed);
    let cache_timed = ProofCache::at_dir(&dir_timed).expect("temp timed cache dir");
    let first_timed = prove(
        &registry,
        budget_timed,
        retry,
        JOBS,
        Some(&cache_timed),
        &token,
    );
    assert!(first_timed.all_sound(), "{first_timed}");
    cache_timed.persist().expect("persist timed cache");

    // Reload both caches from disk, as a fresh process would.
    let warm_cache = ProofCache::at_dir(&dir).expect("reload cache dir");
    let warm_timed = ProofCache::at_dir(&dir_timed).expect("reload timed cache dir");
    let [(warm_times, warm_report), (timed_times, timed_report)] = measure_interleaved(
        5,
        200,
        [
            &mut || prove(&registry, budget, retry, JOBS, Some(&warm_cache), &unfired),
            &mut || {
                prove(
                    &registry,
                    budget_timed,
                    retry,
                    JOBS,
                    Some(&warm_timed),
                    &token,
                )
            },
        ],
    );
    assert!(warm_report.all_sound(), "{warm_report}");
    let reproved_warm = warm_report.reproved_count();
    assert_eq!(reproved_warm, 0, "warm run must re-prove nothing");
    assert_eq!(warm_report.totals.cache_hits, obligations as u64);
    assert!(timed_report.all_sound(), "{timed_report}");
    assert!(!timed_report.interrupted(), "the deadline must never fire");
    assert_eq!(
        timed_report.reproved_count(),
        0,
        "warm timed run re-proves nothing"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir_timed);
    let (warm_runs, warm_elapsed) = (warm_times.len() as u32, warm_times.iter().sum());
    let (timed_runs, timed_elapsed) = (timed_times.len() as u32, timed_times.iter().sum());

    let seq_ops = obl_per_sec(obligations, seq_runs, seq_elapsed);
    let cold_ops = obl_per_sec(obligations, cold_runs, cold_elapsed);
    let warm_ops = obl_per_sec(obligations, warm_runs, warm_elapsed);
    let timed_ops = obl_per_sec(obligations, timed_runs, timed_elapsed);
    // Reported, not gated: how much the pool alone buys on this box.
    let cold_speedup = cold_ops / seq_ops.max(1e-9);
    // Positive = the median armed timeout/deadline run is slower.
    let deadline_overhead =
        median(&timed_times).as_secs_f64() / median(&warm_times).as_secs_f64().max(1e-12) - 1.0;
    assert!(
        deadline_overhead < 0.05,
        "deadline enforcement overhead {:.1}% exceeds the 5% ceiling",
        deadline_overhead * 100.0
    );
    let warm_hit_rate = 1.0 - (reproved_warm as f64 / obligations as f64);

    println!(
        "soundness_pipeline: {} qualifier(s), {obligations} obligation(s), jobs={JOBS}",
        seq_report.reports.len(),
    );
    println!("  sequential:     {seq_ops:>10.1} obligations/sec ({seq_runs} run(s))");
    println!("  parallel cold:  {cold_ops:>10.1} obligations/sec ({cold_runs} run(s))");
    println!(
        "  cold ledgers:   {} theory reuse(s), {} interned term(s) + {} hit(s) at jobs 1 and {JOBS}",
        seq.theory_reuses, seq.interned_terms, seq.intern_hits
    );
    println!("  parallel warm:  {warm_ops:>10.1} obligations/sec ({warm_runs} run(s))");
    println!(
        "  warm + timeout: {timed_ops:>10.1} obligations/sec ({timed_runs} run(s), \
         deadline overhead {:+.1}%)",
        deadline_overhead * 100.0
    );
    println!(
        "  cache: cold {cold_misses} miss(es)/{cold_hits} hit(s); \
         warm re-proved {reproved_warm} (hit rate {:.0}%)",
        warm_hit_rate * 100.0
    );

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soundness.json");
    let doc = Json::obj([
        ("bench", "soundness_pipeline".into()),
        ("qualifiers", seq_report.reports.len().into()),
        ("obligations", obligations.into()),
        ("jobs", JOBS.into()),
        ("sequential", mode_json(obligations, seq_runs, seq_elapsed)),
        (
            "parallel_cold",
            mode_json(obligations, cold_runs, cold_elapsed),
        ),
        ("parallel", mode_json(obligations, warm_runs, warm_elapsed)),
        (
            "parallel_warm_deadline",
            mode_json(obligations, timed_runs, timed_elapsed),
        ),
        (
            "cache",
            Json::obj([
                ("cold_misses", cold_misses.into()),
                ("cold_hits", cold_hits.into()),
                ("warm_hits", warm_report.totals.cache_hits.into()),
                ("warm_misses", warm_report.totals.cache_misses.into()),
                ("reproved_warm", reproved_warm.into()),
                ("warm_hit_rate", decimals(warm_hit_rate, 3)),
            ]),
        ),
        ("deadline_overhead", decimals(deadline_overhead, 4)),
        (
            "speedup_parallel_vs_sequential",
            decimals(warm_ops / seq_ops.max(1e-9), 2),
        ),
        (
            "speedup_parallel_cold_vs_sequential",
            decimals(cold_speedup, 2),
        ),
    ]);
    fs::write(out, format!("{doc}\n")).expect("write BENCH_soundness.json");
    println!("  wrote {out}");
}
