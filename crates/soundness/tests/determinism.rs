//! The cold-path determinism suite. Verdicts, countermodels, and the
//! `--stats` counter totals have to be byte-identical across `--jobs
//! 1/4/8`, with and without fault injection (`--fault-*-at`) armed.
//!
//! Two exact tables pin *what* the prover does, not just what it
//! concludes:
//!
//! * `golden_traces.txt` holds one line per obligation of the builtin
//!   registry and the paper's two mutants: verdict, countermodel, and
//!   every search-trace counter (rounds, instantiations per trigger,
//!   E-matching candidates, DPLL decisions, propagations, conflicts,
//!   theory checks, clause counts). A mismatch prints the actual line;
//!   re-capture a row only when a search change is meant to alter it.
//! * The builtin work ledgers: every attempt starts from the prepared
//!   shared theory (`theory_reuses`), and hash-consing interns a fixed
//!   number of terms (`interned_terms`/`intern_hits`). A change that
//!   silently re-clausifies the background axioms or rebuilds the
//!   e-graphs per leaf moves these numbers.

use stq_qualspec::{QualifierDef, Registry};
use stq_soundness::{
    check_defs_pipeline_cancellable, fault, Budget, CancelToken, FaultKind, FaultPlan,
    ObligationResult, RetryPolicy, SoundnessReport, Verdict,
};

/// The expected search trace of every golden-registry obligation, in
/// report order.
const GOLDEN_TRACES: &str = include_str!("golden_traces.txt");

/// §2.1.3's erroneous `pos`: `E1 - E2` where Figure 1 has `E1 * E2`.
const POS_SUB: &str = "
value qualifier pos_sub(int Expr E)
    case E of
        decl int Const C:
            C, where C > 0
      | decl int Expr E1, E2:
            E1 - E2, where pos_sub(E1) && pos_sub(E2)
      | decl int Expr E1:
            -E1, where neg(E1)
    invariant value(E) > 0
";

/// §2.2.3's erroneous `unique`: Figure 5 without `disallow L`.
const UNIQUE_LEAK: &str = "
ref qualifier unique_leak(T* LValue L)
    assign L NULL | new
    invariant value(L) == NULL ||
        (isHeapLoc(value(L)) &&
         forall T** P: *P == value(L) => P == location(L))
";

fn run(registry: &Registry, jobs: usize, retry: RetryPolicy) -> SoundnessReport {
    let defs: Vec<&QualifierDef> = registry.iter().collect();
    let token = CancelToken::default();
    check_defs_pipeline_cancellable(
        registry,
        &defs,
        Budget::default(),
        retry,
        jobs,
        None,
        &token,
    )
}

/// The builtins plus the paper's two mutants, whose refuted
/// obligations put countermodels into the golden table.
fn golden_registry() -> Registry {
    let mut registry = Registry::builtins();
    registry.add_source(POS_SUB).expect("pos_sub parses");
    registry
        .add_source(UNIQUE_LEAK)
        .expect("unique_leak parses");
    registry
}

fn obligation_verdict(o: &ObligationResult) -> String {
    match (&o.crashed, o.resource) {
        _ if o.proved => "proved".into(),
        _ if o.skipped => "skipped".into(),
        (Some(_), _) => "crashed".into(),
        (None, Some(resource)) => format!("out:{resource:?}"),
        (None, None) => "refuted".into(),
    }
}

/// One golden line per obligation, in report order.
fn trace_lines(report: &SoundnessReport) -> Vec<String> {
    let mut lines = Vec::new();
    for r in &report.reports {
        for o in &r.obligations {
            let s = &o.stats;
            lines.push(format!(
                "{} | {} | {} | model={:?} | rounds={} insts={} by_trigger={:?} \
                 candidates={} decisions={} props={} conflicts={} theory_checks={} \
                 clauses={} max_clauses={}",
                r.qualifier,
                o.description,
                obligation_verdict(o),
                o.countermodel,
                s.rounds,
                s.instantiations,
                s.instantiations_by_trigger,
                s.ematch_candidates,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.theory_checks,
                s.clauses,
                s.max_clauses,
            ));
        }
    }
    lines
}

/// Asserts two reports are identical modulo wall-clock fields.
fn assert_reports_identical(a: &SoundnessReport, b: &SoundnessReport, what: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{what}: report count");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.qualifier, rb.qualifier, "{what}: qualifier order");
        assert_eq!(ra.verdict, rb.verdict, "{what}: verdict for {}", ra.qualifier);
        for (oa, ob) in ra.obligations.iter().zip(&rb.obligations) {
            assert_eq!(oa.description, ob.description, "{what}: obligation order");
            assert_eq!(oa.proved, ob.proved, "{what}: {}", oa.description);
            assert_eq!(oa.countermodel, ob.countermodel, "{what}: {}", oa.description);
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
fn optimized_pipeline_results_are_identical_across_job_counts() {
    let registry = Registry::builtins();
    let retry = RetryPolicy::attempts(2);
    let baseline = run(&registry, 1, retry);
    assert!(baseline.all_sound(), "{baseline}");
    for jobs in [4, 8] {
        let parallel = run(&registry, jobs, retry);
        assert_reports_identical(&baseline, &parallel, &format!("jobs={jobs}"));
    }
}

#[test]
fn search_traces_match_the_golden_table_at_every_job_count() {
    let want: Vec<&str> = GOLDEN_TRACES
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let registry = golden_registry();
    for jobs in [1, 4, 8] {
        let got = trace_lines(&run(&registry, jobs, RetryPolicy::attempts(2)));
        let actual: Vec<&String> = if got.len() == want.len() {
            got.iter()
                .zip(&want)
                .filter(|(g, w)| g != w)
                .map(|(g, _)| g)
                .collect()
        } else {
            got.iter().collect()
        };
        assert!(
            actual.is_empty(),
            "jobs={jobs}: {} line(s) of {} differ from golden_traces.txt \
             ({} expected); actual:\n{}",
            actual.len(),
            got.len(),
            want.len(),
            actual
                .iter()
                .map(|l| l.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn cold_path_work_ledgers_are_exact_at_every_job_count() {
    let registry = Registry::builtins();
    for jobs in [1, 4, 8] {
        let report = run(&registry, jobs, RetryPolicy::attempts(2));
        let totals = &report.totals;
        assert_eq!(report.obligation_count(), 22, "jobs={jobs}");
        assert_eq!(
            totals.theory_reuses, 22,
            "jobs={jobs}: every attempt must start from the prepared theory"
        );
        assert_eq!(totals.interned_terms, 198, "jobs={jobs}: interned terms");
        assert_eq!(totals.intern_hits, 958, "jobs={jobs}: intern hits");
    }
}

#[test]
fn injected_resource_faults_keep_results_identical_across_job_counts() {
    // Two injected ResourceOut faults with a three-rung retry ladder:
    // even if both land on the same obligation (entry numbering under
    // the pool is scheduling-dependent), it still recovers. A faulted
    // attempt contributes a fixed (empty) stats record and the re-proof
    // reproduces the base search trace, so the *totals* are independent
    // of which obligations drew the faults.
    let registry = Registry::builtins();
    let retry = RetryPolicy::attempts(3);
    let plan = FaultPlan::new()
        .inject(2, FaultKind::ResourceOut)
        .inject(9, FaultKind::ResourceOut);
    let mut baseline: Option<SoundnessReport> = None;
    for jobs in [1usize, 4, 8] {
        fault::install(plan.clone());
        let report = run(&registry, jobs, retry);
        fault::clear();
        assert!(report.all_sound(), "jobs={jobs}: {report}");
        let attempts: u32 = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .map(|o| o.attempts)
            .sum();
        assert_eq!(
            attempts as usize,
            report.obligation_count() + 2,
            "jobs={jobs}: each fault costs exactly one extra attempt"
        );
        match &baseline {
            None => baseline = Some(report),
            Some(base) => {
                for (rb, rj) in base.reports.iter().zip(&report.reports) {
                    assert_eq!(rb.qualifier, rj.qualifier);
                    assert_eq!(rb.verdict, rj.verdict, "jobs={jobs}: {}", rb.qualifier);
                }
                assert_eq!(
                    base.totals.without_wall(),
                    report.totals.without_wall(),
                    "jobs={jobs}: stats totals drifted under injected faults"
                );
            }
        }
    }
}

#[test]
fn injected_crashes_are_contained_identically_at_every_job_count() {
    // A panic on solver entry and a theory-solver panic several frames
    // deep: which obligation draws each entry index is
    // scheduling-dependent under the pool (documented in `fault`), but
    // the containment shape is not — exactly two obligations crash,
    // everything else is proved, at every job count.
    let registry = Registry::builtins();
    let plan = FaultPlan::new()
        .inject(3, FaultKind::Panic)
        .inject(7, FaultKind::TheoryError);
    for jobs in [1usize, 4, 8] {
        fault::install(plan.clone());
        let report = run(&registry, jobs, RetryPolicy::none());
        fault::clear();
        let crashed = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .filter(|o| o.crashed.is_some())
            .count();
        assert_eq!(crashed, 2, "jobs={jobs}: exactly the two injected crashes");
        let unproved = report
            .reports
            .iter()
            .flat_map(|r| &r.obligations)
            .filter(|o| !o.proved)
            .count();
        assert_eq!(unproved, 2, "jobs={jobs}: every uninjected obligation proves");
        // Both crashes usually land on different qualifiers, but entry
        // numbering under the pool may put them on the same one.
        let crashed_quals = report
            .reports
            .iter()
            .filter(|r| r.verdict == Verdict::Crashed)
            .count();
        assert!(
            (1..=2).contains(&crashed_quals),
            "jobs={jobs}: {crashed_quals} crashed qualifier(s)"
        );
    }
}
