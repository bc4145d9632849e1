//! Differential soundness tests: the static checker's verdicts must
//! agree with dynamic behaviour on the interpreter.
//!
//! * Programs that typecheck **cleanly** (no casts) never violate a
//!   proven qualifier's invariant at run time — the paper's soundness
//!   property, tested by executing each program and checking every value
//!   the qualifier discipline speaks about.
//! * Programs that need **casts** get run-time checks, which pass
//!   exactly when the cast-to invariant holds dynamically.
//! * Statically reported **bugs** manifest dynamically (the format-string
//!   exploit).

use stq_core::{
    fault, Budget, FaultKind, FaultPlan, RetryPolicy, RuntimeError, Session, Value, Verdict,
};

/// A battery case: a program, the function to run, its arguments, and
/// the expected (return value, check count).
struct Case {
    name: &'static str,
    source: &'static str,
    entry: &'static str,
    args: Vec<Value>,
    expect_ret: Option<Value>,
    min_checks: usize,
}

fn clean_battery() -> Vec<Case> {
    vec![
        Case {
            name: "pos arithmetic flows",
            source: "int pos square(int pos x) { int pos s = x * x; return s; }",
            entry: "square",
            args: vec![Value::Int(7)],
            expect_ret: Some(Value::Int(49)),
            min_checks: 0,
        },
        Case {
            name: "neg through double negation",
            source: "int neg flip(int pos x) { int neg n = -x; return n; }",
            entry: "flip",
            args: vec![Value::Int(3)],
            expect_ret: Some(Value::Int(-3)),
            min_checks: 0,
        },
        Case {
            name: "division guarded by nonzero",
            source: "int half(int a, int nonzero d) { return a / d; }",
            entry: "half",
            args: vec![Value::Int(10), Value::Int(2)],
            expect_ret: Some(Value::Int(5)),
            min_checks: 0,
        },
        Case {
            name: "nonnull via address-of",
            source: "int deref_local() {
                         int x = 41;
                         int* nonnull p = &x;
                         *p = *p + 1;
                         return *p;
                     }",
            entry: "deref_local",
            args: vec![],
            expect_ret: Some(Value::Int(42)),
            min_checks: 0,
        },
        Case {
            name: "cast with passing run-time check",
            source: "int pos clamp(int x) {
                         if (x < 1) {
                             x = 1;
                         }
                         return (int pos) x;
                     }",
            entry: "clamp",
            args: vec![Value::Int(-5)],
            expect_ret: Some(Value::Int(1)),
            min_checks: 1,
        },
        Case {
            name: "malloc-backed array with guard cast",
            source: "int fill(int n) {
                         int* a = malloc(n);
                         if (a != NULL) {
                             int* nonnull p = (int* nonnull) a;
                             for (int i = 0; i < n; i++) p[i] = i * i;
                             return p[3];
                         }
                         return 0 - 1;
                     }",
            entry: "fill",
            args: vec![Value::Int(8)],
            expect_ret: Some(Value::Int(9)),
            min_checks: 1,
        },
    ]
}

#[test]
fn clean_programs_run_clean() {
    let session = Session::with_builtins();
    for case in clean_battery() {
        let program = session
            .parse(case.source)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", case.name));
        let result = session.check(&program);
        // The battery may use derefs that nonnull licenses; no qualifier
        // errors are allowed anywhere.
        assert_eq!(
            result.stats.qualifier_errors, 0,
            "{}: {}",
            case.name, result.diags
        );
        let out = session
            .run_instrumented(&program, case.entry, &case.args)
            .unwrap_or_else(|e| panic!("{}: runtime failure: {e}", case.name));
        assert_eq!(out.ret, case.expect_ret, "{}", case.name);
        assert!(
            out.checks_passed >= case.min_checks,
            "{}: expected at least {} run-time checks, saw {}",
            case.name,
            case.min_checks,
            out.checks_passed
        );
    }
}

#[test]
fn failing_casts_are_caught_at_run_time() {
    // The type system accepted the cast on trust; the inserted check
    // catches the lie at run time (paper §2.1.3: "a fatal error is
    // signaled if the test fails").
    let session = Session::with_builtins();
    let program = session
        .parse("int pos trust_me(int x) { return (int pos) x; }")
        .unwrap();
    assert!(session.check(&program).is_clean());
    let err = session
        .run_instrumented(&program, "trust_me", &[Value::Int(0)])
        .unwrap_err();
    match err {
        RuntimeError::CheckFailed { qual, value, .. } => {
            assert_eq!(qual.as_str(), "pos");
            assert_eq!(value, "0");
        }
        other => panic!("expected a failed check, got {other}"),
    }
}

#[test]
fn static_taint_errors_manifest_dynamically() {
    let session = Session::with_builtins();
    let source = r#"
        int printf(char* untainted fmt, ...);
        int vulnerable(int which) {
            char* buf = "%s%s";
            if (which == 0) {
                printf("%d", which);
                return 0;
            }
            printf(buf);
            return 1;
        }
    "#;
    let program = session.parse(source).unwrap();
    // Statically: one taint violation (the printf(buf) call).
    let result = session.check(&program);
    assert_eq!(result.stats.qualifier_errors, 1, "{}", result.diags);
    // Dynamically: the safe path runs, the flagged path explodes.
    let ok = session
        .run_instrumented(&program, "vulnerable", &[Value::Int(0)])
        .unwrap();
    assert_eq!(ok.ret, Some(Value::Int(0)));
    let err = session
        .run_instrumented(&program, "vulnerable", &[Value::Int(1)])
        .unwrap_err();
    assert!(matches!(err, RuntimeError::FormatString { .. }));
}

#[test]
fn nonnull_restrict_prevents_null_dereference_crashes() {
    let session = Session::with_builtins();
    // Statically rejected…
    let bad = session.parse("int read_it(int* p) { return *p; }").unwrap();
    assert_eq!(session.check(&bad).stats.qualifier_errors, 1);
    // …and indeed it crashes when fed NULL.
    let err = session
        .run_instrumented(&bad, "read_it", &[Value::NULL])
        .unwrap_err();
    assert!(matches!(err, RuntimeError::NullDeref(_)));
    // The annotated version is both statically clean and (for nonnull
    // callers) dynamically safe.
    let good = session
        .parse(
            "int read_it(int* nonnull p) { return *p; }
             int driver() {
                 int x = 5;
                 int* nonnull p = &x;
                 int r;
                 r = read_it(p);
                 return r;
             }",
        )
        .unwrap();
    assert!(session.check(&good).is_clean());
    let out = session.run_instrumented(&good, "driver", &[]).unwrap();
    assert_eq!(out.ret, Some(Value::Int(5)));
}

#[test]
fn instrumentation_preserves_program_results() {
    // Instrumented and uninstrumented programs compute the same values
    // when all checks pass.
    use stq_cir::interp::{run_entry, InterpConfig, NoChecks};
    let session = Session::with_builtins();
    let program = session
        .parse(
            "int pos gcd(int pos a0, int pos b0) {
                 int n = a0;
                 int m = b0;
                 while (m != 0) { int t = m; m = n % m; n = t; }
                 return (int pos) n;
             }",
        )
        .unwrap();
    let plain = run_entry(
        &program,
        "gcd",
        &[Value::Int(18), Value::Int(12)],
        &NoChecks,
        InterpConfig::default(),
    )
    .unwrap();
    let instrumented = session
        .run_instrumented(&program, "gcd", &[Value::Int(18), Value::Int(12)])
        .unwrap();
    assert_eq!(plain.ret, instrumented.ret);
    assert_eq!(plain.ret, Some(Value::Int(6)));
    assert!(instrumented.checks_passed >= 1);
}

// ----- fault injection: a crash in one obligation must not take down
// the rest of the checking pipeline -----

#[test]
fn injected_crash_is_contained_to_one_qualifier() {
    let session = Session::with_builtins();
    // Crash the very first proof obligation the run attempts.
    fault::install(FaultPlan::new().inject(0, FaultKind::Panic));
    let report = session.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 1, None);
    fault::clear();
    let crashed: Vec<_> = report
        .reports
        .iter()
        .filter(|r| r.verdict == Verdict::Crashed)
        .collect();
    assert_eq!(crashed.len(), 1, "exactly one qualifier absorbs the fault");
    let msg = crashed[0]
        .obligations
        .iter()
        .find_map(|o| o.crashed.as_deref())
        .expect("the crashed qualifier records the panic message");
    assert!(msg.contains("injected panic"), "{msg}");
    // Every other qualifier still reaches a real verdict.
    for r in &report.reports {
        if r.verdict != Verdict::Crashed {
            assert!(
                matches!(r.verdict, Verdict::Sound | Verdict::NoInvariant),
                "qualifier `{}` got {:?} in the faulted run",
                r.qualifier,
                r.verdict
            );
        }
    }
}

#[test]
fn injected_resource_out_recovers_via_the_retry_ladder() {
    let session = Session::with_builtins();
    fault::install(FaultPlan::new().inject(0, FaultKind::ResourceOut));
    let report =
        session.prove_all_sound_pipeline(Budget::default(), RetryPolicy::attempts(3), 1, None);
    fault::clear();
    assert!(
        report.all_sound(),
        "the retry ladder converts the forced first-attempt resource-out back into proofs"
    );
    // Exactly one obligation needed a second attempt.
    assert_eq!(
        report.attempt_count(),
        report.obligation_count() as u64 + 1,
        "one retried obligation, everything else first-try"
    );
}

#[test]
fn injected_crash_under_keep_going_reports_all_verdicts_and_exits_4() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args(["prove", "--keep-going", "--json", "--fault-panic-at", "0"])
        .output()
        .expect("stqc runs");
    assert_eq!(out.status.code(), Some(4), "crashed run exits 4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // All eight builtin qualifiers report a verdict; exactly one crashed.
    assert_eq!(stdout.matches("\"verdict\":").count(), 8, "{stdout}");
    assert_eq!(
        stdout.matches("\"verdict\":\"crashed\"").count(),
        1,
        "{stdout}"
    );
}
