//! Integration tests for the parallel + incremental proving pipeline:
//! scheduling must never change verdicts, the proof cache must hit on
//! unchanged obligations and miss on edited ones, and fault injection
//! must keep its exactly-once semantics under the pool.

use std::fs;
use std::path::PathBuf;
use stq_qualspec::{QualifierDef, Registry};
use stq_soundness::cache::{CACHE_FILE, FORMAT_VERSION};
use stq_soundness::{
    check_defs_pipeline_cancellable, fault, Budget, CancelToken, FaultKind, FaultPlan, ProofCache,
    QualReport, RetryPolicy, SoundnessReport, Verdict,
};

/// The driver over the whole registry, with an unfired token.
fn check_registry(
    registry: &Registry,
    budget: Budget,
    retry: RetryPolicy,
    jobs: usize,
    cache: Option<&ProofCache>,
) -> SoundnessReport {
    let defs: Vec<&QualifierDef> = registry.iter().collect();
    let token = CancelToken::default();
    check_defs_pipeline_cancellable(registry, &defs, budget, retry, jobs, cache, &token)
}

/// The driver over one definition, inline.
fn check_one(
    registry: &Registry,
    def: &QualifierDef,
    budget: Budget,
    retry: RetryPolicy,
    cache: Option<&ProofCache>,
) -> QualReport {
    let token = CancelToken::default();
    let defs = [def];
    let mut report =
        check_defs_pipeline_cancellable(registry, &defs, budget, retry, 1, cache, &token);
    report.reports.remove(0)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stq-parallel-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Asserts two reports are identical modulo wall-clock fields.
fn assert_reports_equivalent(a: &SoundnessReport, b: &SoundnessReport, what: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{what}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.qualifier, rb.qualifier, "{what}: qualifier order");
        assert_eq!(
            ra.verdict, rb.verdict,
            "{what}: verdict for {}",
            ra.qualifier
        );
        assert_eq!(
            ra.obligations.len(),
            rb.obligations.len(),
            "{what}: obligation count for {}",
            ra.qualifier
        );
        for (oa, ob) in ra.obligations.iter().zip(&rb.obligations) {
            assert_eq!(oa.description, ob.description, "{what}: obligation order");
            assert_eq!(oa.proved, ob.proved, "{what}: {}", oa.description);
            assert_eq!(
                oa.countermodel, ob.countermodel,
                "{what}: {}",
                oa.description
            );
            assert_eq!(oa.resource, ob.resource, "{what}: {}", oa.description);
            assert_eq!(oa.crashed, ob.crashed, "{what}: {}", oa.description);
            assert_eq!(oa.attempts, ob.attempts, "{what}: {}", oa.description);
            assert_eq!(
                oa.stats.without_wall(),
                ob.stats.without_wall(),
                "{what}: stats for {}",
                oa.description
            );
        }
    }
    assert_eq!(
        a.totals.without_wall(),
        b.totals.without_wall(),
        "{what}: totals"
    );
}

#[test]
fn parallel_reports_are_identical_to_sequential_for_every_job_count() {
    let registry = Registry::builtins();
    let budget = Budget::default();
    let retry = RetryPolicy::attempts(2);
    let sequential = check_registry(&registry, budget, retry, 1, None);
    assert!(sequential.all_sound(), "{sequential}");
    assert_eq!(sequential.jobs, 1);
    for jobs in [4, 8] {
        let parallel = check_registry(&registry, budget, retry, jobs, None);
        assert_eq!(parallel.jobs, jobs);
        assert_reports_equivalent(&sequential, &parallel, &format!("jobs={jobs}"));
    }
}

#[test]
fn warm_cache_run_reproves_zero_unchanged_obligations() {
    let registry = Registry::builtins();
    let cache = ProofCache::in_memory();
    let cold = check_registry(
        &registry,
        Budget::default(),
        RetryPolicy::none(),
        4,
        Some(&cache),
    );
    let n = cold.obligation_count();
    assert!(n >= 19);
    assert_eq!(cold.reproved_count(), n, "cold run proves everything");
    assert_eq!(cold.totals.cache_misses, n as u64);
    assert_eq!(cold.totals.cache_hits, 0);

    let warm = check_registry(
        &registry,
        Budget::default(),
        RetryPolicy::none(),
        4,
        Some(&cache),
    );
    assert_eq!(warm.reproved_count(), 0, "warm run re-proves nothing");
    assert_eq!(warm.totals.cache_hits, n as u64);
    assert_eq!(warm.totals.cache_misses, 0);
    assert_reports_equivalent_verdicts(&cold, &warm);
    let shown = warm.to_string();
    assert!(shown.contains("(cached)"), "{shown}");
}

fn assert_reports_equivalent_verdicts(a: &SoundnessReport, b: &SoundnessReport) {
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.qualifier, rb.qualifier);
        assert_eq!(ra.verdict, rb.verdict, "verdict for {}", ra.qualifier);
        for (oa, ob) in ra.obligations.iter().zip(&rb.obligations) {
            assert_eq!(oa.proved, ob.proved, "{}", oa.description);
            assert_eq!(oa.countermodel, ob.countermodel, "{}", oa.description);
        }
    }
}

#[test]
fn editing_a_rule_body_changes_the_fingerprint_and_forces_a_reprove() {
    let cache = ProofCache::in_memory();
    let budget = Budget::default();
    let retry = RetryPolicy::none();

    let mut original = Registry::new();
    original
        .add_source(
            "value qualifier nn(int Expr E)
                case E of
                    decl int Const C: C, where C > 0
                invariant value(E) > 0",
        )
        .unwrap();
    let def = original.get_by_name("nn").unwrap();
    let first = check_one(&original, def, budget, retry, Some(&cache));
    assert_eq!(first.verdict, Verdict::Sound);
    assert!(first.obligations.iter().all(|o| o.stats.cache_misses == 1));

    // Unchanged qualifier: pure cache hit.
    let again = check_one(&original, def, budget, retry, Some(&cache));
    assert!(again.obligations.iter().all(|o| o.stats.cache_hits == 1));
    assert!(again.obligations.iter().all(|o| o.attempts == 0));

    // Edited rule guard (C >= 0): new fingerprint, full re-prove — and
    // the cache must replay the *new* (refuted) outcome, not the old one.
    let mut edited_rule = Registry::new();
    edited_rule
        .add_source(
            "value qualifier nn(int Expr E)
                case E of
                    decl int Const C: C, where C >= 0
                invariant value(E) > 0",
        )
        .unwrap();
    let def = edited_rule.get_by_name("nn").unwrap();
    let edited = check_one(&edited_rule, def, budget, retry, Some(&cache));
    assert_eq!(edited.verdict, Verdict::Unsound, "{edited}");
    assert!(edited.obligations.iter().all(|o| o.stats.cache_misses == 1));
    assert!(edited.obligations.iter().all(|o| o.attempts >= 1));

    // Edited invariant with the original rules: also a new fingerprint.
    let mut edited_inv = Registry::new();
    edited_inv
        .add_source(
            "value qualifier nn(int Expr E)
                case E of
                    decl int Const C: C, where C > 0
                invariant value(E) >= 1",
        )
        .unwrap();
    let def = edited_inv.get_by_name("nn").unwrap();
    let edited = check_one(&edited_inv, def, budget, retry, Some(&cache));
    assert!(edited.obligations.iter().all(|o| o.stats.cache_misses == 1));
}

#[test]
fn a_different_budget_or_retry_ladder_is_a_different_cache_key() {
    let cache = ProofCache::in_memory();
    let registry = Registry::builtins();
    let def = registry.get_by_name("pos").unwrap();
    let base = Budget::default();
    let first = check_one(&registry, def, base, RetryPolicy::none(), Some(&cache));
    assert!(first.obligations.iter().all(|o| o.stats.cache_misses == 1));
    // Same budget, different retry ladder: miss.
    let other = check_one(&registry, def, base, RetryPolicy::attempts(3), Some(&cache));
    assert!(other.obligations.iter().all(|o| o.stats.cache_misses == 1));
    // Different budget: miss.
    let bigger = Budget {
        max_rounds: base.max_rounds + 1,
        ..base
    };
    let other = check_one(&registry, def, bigger, RetryPolicy::none(), Some(&cache));
    assert!(other.obligations.iter().all(|o| o.stats.cache_misses == 1));
}

#[test]
fn stale_on_disk_cache_from_another_prover_version_is_ignored() {
    let dir = tmpdir("stale-version");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(CACHE_FILE),
        format!(
            "stq-proof-cache {FORMAT_VERSION} stq-prover-0.0.0-r0\n\
             {:032x}\tP\n{:032x}\tP\n",
            1u128, 2u128
        ),
    )
    .unwrap();
    let cache = ProofCache::at_dir(&dir).unwrap();
    assert!(cache.is_empty(), "stale entries must not load");
    let registry = Registry::builtins();
    let report = check_registry(
        &registry,
        Budget::default(),
        RetryPolicy::none(),
        2,
        Some(&cache),
    );
    assert_eq!(
        report.reproved_count(),
        report.obligation_count(),
        "everything re-proves under a stale cache"
    );
    assert_eq!(report.totals.cache_invalidations, 2);
    assert!(report.all_sound(), "{report}");

    // Persisting writes the fresh entries under the current version, so
    // the next process gets full hits.
    cache.persist().unwrap();
    let reloaded = ProofCache::at_dir(&dir).unwrap();
    assert_eq!(reloaded.invalidations(), 0);
    let warm = check_registry(
        &registry,
        Budget::default(),
        RetryPolicy::none(),
        2,
        Some(&reloaded),
    );
    assert_eq!(warm.reproved_count(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_panic_under_parallel_jobs_crashes_exactly_one_obligation() {
    let registry = Registry::builtins();
    fault::install(FaultPlan::new().inject(3, FaultKind::Panic));
    let report = check_registry(&registry, Budget::default(), RetryPolicy::none(), 4, None);
    fault::clear();
    let crashed: Vec<_> = report
        .reports
        .iter()
        .flat_map(|r| &r.obligations)
        .filter(|o| o.crashed.is_some())
        .collect();
    assert_eq!(crashed.len(), 1, "exactly one obligation crashed");
    assert!(crashed[0]
        .crashed
        .as_deref()
        .unwrap()
        .contains("injected panic"));
    // Every other obligation still got a verdict, and the sole crash is
    // the only non-sound result.
    assert_eq!(report.reports.len(), 8);
    let unproved = report
        .reports
        .iter()
        .flat_map(|r| &r.obligations)
        .filter(|o| !o.proved)
        .count();
    assert_eq!(unproved, 1);
    assert_eq!(
        report
            .reports
            .iter()
            .filter(|r| r.verdict == Verdict::Crashed)
            .count(),
        1
    );
}
