//! The three differential oracles.
//!
//! 1. **Soundness** (paper §5): a cleanly typechecked, cast-free program
//!    never violates a proven qualifier's declared invariant at run time.
//!    Checked by executing the observed program (see
//!    `stq_typecheck::observe_program`) and treating any failed
//!    observation — or a runtime crash class that a restrict rule rules
//!    out statically, like a null dereference or a format-string read —
//!    as a divergence. Division/modulo by zero is *not* flagged: the
//!    paper's `nonzero` restrict covers only `E1 / E2` with derivable
//!    denominators, and its own Figure 2 `gcd` uses unguarded `%`.
//! 2. **Instrumentation** (paper §2.1.3): a cast's run-time check fires
//!    exactly when the cast-to invariant fails dynamically. Checked by
//!    running the instrumented program twice — once with a recording
//!    checker that evaluates every invariant but never fails, once for
//!    real — and requiring the real run to fail precisely at the first
//!    recorded violation (and nowhere, when none was recorded).
//! 3. **Round-trip**: pretty-print → reparse is idempotent and preserves
//!    the static verdict (error/warning counts and qualifier errors).

use std::cell::RefCell;
use std::fmt;

use stq_cir::ast::Program;
use stq_cir::interp::{run_entry, InterpConfig, QualChecker, RuntimeError, Value};
use stq_cir::pretty::program_to_string;
use stq_core::Session;
use stq_typecheck::InvariantChecker;
use stq_util::Symbol;

use crate::gen::{entry_args, entry_name};

/// Which oracle a divergence came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Clean + cast-free, yet an invariant was observed violated.
    Soundness,
    /// A cast check fired when it shouldn't, or didn't when it should.
    Instrumentation,
    /// Pretty-print → reparse changed the program or its verdict.
    RoundTrip,
    /// The harness itself misbehaved (generated source unparseable,
    /// unknown function reached, …).
    Generator,
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Oracle::Soundness => "soundness",
            Oracle::Instrumentation => "instrumentation",
            Oracle::RoundTrip => "round-trip",
            Oracle::Generator => "generator",
        })
    }
}

/// A static-vs-dynamic disagreement, with the program that witnesses it.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The oracle that failed.
    pub oracle: Oracle,
    /// What disagreed.
    pub detail: String,
    /// Witness program source (minimized when found via fuzzing).
    pub source: String,
}

/// One fuzz case's outcome.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// All applicable oracles agreed.
    Pass,
    /// An oracle disagreed.
    Diverged(Divergence),
    /// The pipeline panicked — always a bug, whatever the program was.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
        /// The witness program source (minimized when possible).
        source: String,
    },
}

/// Result of running the oracle battery over one program.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Whether the static checker accepted the program with no problems.
    pub clean: bool,
    /// Number of casts the checker saw.
    pub casts: usize,
    /// The battery verdict.
    pub outcome: Outcome,
}

/// Interpreter limits for oracle runs: enough fuel for any generated
/// program's bounded loops, small enough to keep throughput high.
pub fn oracle_config() -> InterpConfig {
    InterpConfig {
        max_steps: 200_000,
        ..InterpConfig::default()
    }
}

/// Parses `source` and runs the oracle battery. A parse failure is a
/// [`Oracle::Generator`] divergence: every input reaching this point is
/// supposed to be well-formed (generated, pretty-printed, or corpus).
pub fn run_case(session: &Session, source: &str) -> CaseResult {
    match session.parse(source) {
        Ok(program) => run_oracles(session, &program),
        Err(e) => CaseResult {
            clean: false,
            casts: 0,
            outcome: Outcome::Diverged(Divergence {
                oracle: Oracle::Generator,
                detail: format!("source does not parse: {e}"),
                source: source.to_owned(),
            }),
        },
    }
}

/// Runs the oracle battery on an already-parsed program.
pub fn run_oracles(session: &Session, program: &Program) -> CaseResult {
    let source = program_to_string(program);
    let result = session.check(program);
    let clean = result.is_clean();
    let casts = result.stats.casts;
    let diverged = |oracle, detail: String| CaseResult {
        clean,
        casts,
        outcome: Outcome::Diverged(Divergence {
            oracle,
            detail,
            source: source.clone(),
        }),
    };

    // --- oracle 3: round-trip ---
    let reparsed = match session.parse(&source) {
        Ok(p) => p,
        Err(e) => return diverged(Oracle::RoundTrip, format!("pretty output unparseable: {e}")),
    };
    let reprinted = program_to_string(&reparsed);
    if reprinted != source {
        return diverged(
            Oracle::RoundTrip,
            "pretty-printing is not idempotent".to_owned(),
        );
    }
    let v1 = verdict_of(session, program);
    let v2 = verdict_of(session, &reparsed);
    if v1 != v2 {
        return diverged(
            Oracle::RoundTrip,
            format!("verdict changed across reparse: {v1:?} vs {v2:?}"),
        );
    }

    // Dynamic oracles need a runnable entry with fabricable arguments.
    let Some(entry) = entry_name(program) else {
        return CaseResult {
            clean,
            casts,
            outcome: Outcome::Pass,
        };
    };
    let Some(args) = entry_args(program) else {
        return CaseResult {
            clean,
            casts,
            outcome: Outcome::Pass,
        };
    };

    // --- oracle 1: soundness (clean, cast-free programs only: a cast is
    // a statically trusted lie, discharged by oracle 2 instead) ---
    if clean && casts == 0 {
        match session.run_observed(program, &entry, &args, oracle_config()) {
            Ok(_) | Err(RuntimeError::OutOfFuel | RuntimeError::StackOverflow) => {}
            Err(RuntimeError::DivByZero(_) | RuntimeError::ArithOverflow(_)) => {
                // Outside the static guarantee: `%` has no restrict rule
                // (mirroring the paper's Figure 2 gcd), and the
                // invariants are proved over mathematical integers, so an
                // execution stops — explicitly, never by wrapping — the
                // moment a result leaves the representable range.
            }
            Err(RuntimeError::CheckFailed { qual, value, .. }) => {
                return diverged(
                    Oracle::Soundness,
                    format!("invariant of proven `{qual}` violated on value {value}"),
                );
            }
            Err(e @ (RuntimeError::NullDeref(_) | RuntimeError::FormatString { .. })) => {
                return diverged(
                    Oracle::Soundness,
                    format!("restrict-guarded crash in a clean program: {e}"),
                );
            }
            Err(e) => {
                return diverged(Oracle::Generator, format!("unrunnable clean program: {e}"));
            }
        }
    }

    // --- oracle 2: instrumentation (programs with casts) ---
    if casts > 0 {
        if let Some(d) = instrumentation_oracle(session, program, &entry, &args) {
            return diverged(Oracle::Instrumentation, d);
        }
    }

    CaseResult {
        clean,
        casts,
        outcome: Outcome::Pass,
    }
}

/// The static verdict tuple compared across reparse.
fn verdict_of(session: &Session, program: &Program) -> (usize, usize, usize) {
    let r = session.check(program);
    (
        r.diags.count(stq_util::Severity::Error),
        r.diags.count(stq_util::Severity::Warning),
        r.stats.qualifier_errors,
    )
}

/// Evaluates invariants like the real checker but never fails, recording
/// each check's (qualifier, value, verdict). Because the interpreter is
/// deterministic, the recording run and the real run execute identical
/// prefixes up to the first recorded violation.
struct Recording<'a> {
    inner: &'a InvariantChecker,
    log: RefCell<Vec<(Symbol, String, bool)>>,
}

impl QualChecker for Recording<'_> {
    fn holds(&self, qual: Symbol, value: Value) -> bool {
        let h = self.inner.holds(qual, value);
        self.log.borrow_mut().push((qual, value.to_string(), h));
        true
    }
}

fn instrumentation_oracle(
    session: &Session,
    program: &Program,
    entry: &str,
    args: &[Value],
) -> Option<String> {
    let instrumented = session.instrument(program);
    let checker = InvariantChecker::new(session.registry());
    let recording = Recording {
        inner: &checker,
        log: RefCell::new(Vec::new()),
    };
    let predicted = run_entry(&instrumented, entry, args, &recording, oracle_config());
    let log = recording.log.into_inner();
    let first_violation = log.iter().position(|(_, _, holds)| !holds);
    let real = run_entry(&instrumented, entry, args, &checker, oracle_config());

    match (first_violation, real) {
        (Some(k), Err(RuntimeError::CheckFailed { qual, value, .. })) => {
            let (expect_qual, expect_value, _) = &log[k];
            if *expect_qual == qual && *expect_value == value {
                None
            } else {
                Some(format!(
                    "check failed on `{qual}`={value}, but the first recorded violation \
                     was `{expect_qual}`={expect_value}"
                ))
            }
        }
        (Some(k), other) => {
            let (q, v, _) = &log[k];
            Some(format!(
                "recorded violation of `{q}` on {v} (check #{k}) but the real run \
                 ended with {outcome}",
                outcome = describe(&other)
            ))
        }
        (None, Err(RuntimeError::CheckFailed { qual, value, .. })) => Some(format!(
            "check for `{qual}` fired on {value}, but no violation was recorded"
        )),
        (None, real) => {
            // No violation recorded: the real run must replay the
            // recording run exactly, passing every recorded check.
            match (&predicted, &real) {
                (Ok(a), Ok(b)) => {
                    if a.ret != b.ret {
                        Some(format!(
                            "instrumented run returned {:?}, recording run {:?}",
                            b.ret, a.ret
                        ))
                    } else if b.checks_passed != log.len() {
                        Some(format!(
                            "real run passed {} checks, recording saw {}",
                            b.checks_passed,
                            log.len()
                        ))
                    } else {
                        None
                    }
                }
                (Err(a), Err(b)) if a == b => None,
                (a, b) => Some(format!(
                    "recording run {} but real run {}",
                    describe_res(a),
                    describe_res(b)
                )),
            }
        }
    }
}

fn describe(r: &Result<stq_cir::interp::ExecOutcome, RuntimeError>) -> String {
    describe_res(r)
}

fn describe_res(r: &Result<stq_cir::interp::ExecOutcome, RuntimeError>) -> String {
    match r {
        Ok(out) => format!("returned {:?}", out.ret),
        Err(e) => format!("failed with {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(src: &str) -> CaseResult {
        let session = Session::with_builtins();
        run_case(&session, src)
    }

    #[test]
    fn clean_generated_style_program_passes_all_oracles() {
        let r = case(
            "int pos f1(int pos a1) {
                 int pos v1 = a1 * 3;
                 int nonzero v2 = (-4);
                 int v3 = v1 / v2;
                 return v1;
             }",
        );
        assert!(r.clean);
        assert!(matches!(r.outcome, Outcome::Pass), "{:?}", r.outcome);
    }

    #[test]
    fn passing_and_failing_casts_satisfy_the_instrumentation_oracle() {
        for (src, _fails) in [
            ("int pos f(int a1) { return (int pos) a1; }", true),
            (
                "int pos f(int pos a1) { return (int pos) (a1 * 2); }",
                false,
            ),
        ] {
            let r = case(src);
            assert!(matches!(r.outcome, Outcome::Pass), "{src}: {:?}", r.outcome);
        }
    }

    #[test]
    fn statically_rejected_programs_still_round_trip() {
        let r = case("int pos f(int a1) { int pos x = a1; return x; }");
        assert!(!r.clean);
        assert!(matches!(r.outcome, Outcome::Pass), "{:?}", r.outcome);
    }

    #[test]
    fn mod_by_zero_is_documented_as_outside_the_guarantee() {
        // Statically clean (no restrict on `%`), dynamically DivByZero —
        // the boundary the paper's own gcd example sits on.
        let r = case("int f(int a1) { int v1 = a1 % a1; return v1; }");
        assert!(r.clean);
        assert!(matches!(r.outcome, Outcome::Pass), "{:?}", r.outcome);
    }
}
