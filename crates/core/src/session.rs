//! The high-level session API: everything a user of the framework does —
//! define qualifiers, prove them sound, check programs, instrument and
//! run them — through one entry point.

use stq_cir::ast::Program;
use stq_cir::interp::{run_entry, ExecOutcome, InterpConfig, RuntimeError, Value};
use stq_cir::parse::{parse_program, parse_program_resilient, ParseError};
use stq_qualspec::parse::SpecError;
use stq_qualspec::Registry;
use stq_soundness::{
    check_defs_pipeline_cancellable, Budget, CancelToken, ProofCache, QualReport, RetryPolicy,
    SoundnessReport,
};
use stq_typecheck::{
    check_program, check_program_with, infer_annotations, instrument_program, AnnotationInference,
    CheckOptions, CheckResult, InvariantChecker,
};
use stq_util::{Diagnostics, Symbol};

/// A semantic-type-qualifiers session: a set of qualifier definitions and
/// the operations the paper's framework provides over them.
///
/// # Examples
///
/// The full workflow from the paper's introduction: define a qualifier,
/// prove it sound once and for all, then typecheck a program against it.
///
/// ```
/// use stq_core::Session;
///
/// let mut session = Session::with_builtins();
/// let reports = session.prove_all_sound();
/// assert!(reports.iter().all(|r| !r.verdict.to_string().contains("NOT")));
///
/// let result = session
///     .check_source(
///         "int pos gcd(int pos n, int pos m);
///          int pos lcm(int pos a, int pos b) {
///              int pos d = gcd(a, b);
///              int pos prod = a * b;
///              return (int pos) (prod / d);
///          }",
///     )
///     .unwrap();
/// assert!(result.is_clean());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Session {
    registry: Registry,
}

impl Session {
    /// A session with no qualifiers defined.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session preloaded with the paper's qualifier library.
    pub fn with_builtins() -> Session {
        Session {
            registry: Registry::builtins(),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Defines new qualifiers from definition-language source.
    ///
    /// # Errors
    ///
    /// Returns the first parse or duplicate-name error.
    pub fn define_qualifiers(&mut self, source: &str) -> Result<Vec<Symbol>, SpecError> {
        let before: Vec<Symbol> = self.registry.iter().map(|d| d.name).collect();
        self.registry.add_source(source)?;
        Ok(self
            .registry
            .iter()
            .map(|d| d.name)
            .filter(|n| !before.contains(n))
            .collect())
    }

    /// Error-resilient [`Session::define_qualifiers`]: parses with
    /// recovery, registers every definition that survived, and returns
    /// the new names alongside *all* diagnostics (an empty vector means
    /// everything in `source` was defined).
    pub fn define_qualifiers_resilient(&mut self, source: &str) -> (Vec<Symbol>, Vec<SpecError>) {
        let before: Vec<Symbol> = self.registry.iter().map(|d| d.name).collect();
        let errors = self.registry.add_source_resilient(source);
        let added = self
            .registry
            .iter()
            .map(|d| d.name)
            .filter(|n| !before.contains(n))
            .collect();
        (added, errors)
    }

    /// Well-formedness diagnostics for every definition.
    pub fn check_well_formed(&self) -> Diagnostics {
        self.registry.check_well_formed()
    }

    /// Proves (or refutes) the soundness of the named qualifiers, in the
    /// given order, or of every registered one when `names` is `None`,
    /// through [`check_defs_pipeline_cancellable`]: up to `jobs` worker
    /// threads, `budget` per obligation escalated by the `retry` ladder,
    /// and an optional [`ProofCache`]. A fired `cancel` token yields a
    /// *partial* report ([`SoundnessReport::interrupted`]) whose
    /// conclusive verdicts still land in the cache.
    ///
    /// # Errors
    ///
    /// The first unregistered qualifier name, before any proof runs.
    pub fn prove(
        &self,
        names: Option<&[&str]>,
        budget: Budget,
        retry: RetryPolicy,
        jobs: usize,
        cache: Option<&ProofCache>,
        cancel: &CancelToken,
    ) -> Result<SoundnessReport, String> {
        let defs = match names {
            None => self.registry.iter().collect(),
            Some(names) => names
                .iter()
                .map(|name| {
                    self.registry
                        .get_by_name(name)
                        .ok_or_else(|| format!("unknown qualifier `{name}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        let registry = &self.registry;
        Ok(check_defs_pipeline_cancellable(
            registry, &defs, budget, retry, jobs, cache, cancel,
        ))
    }

    /// Proves (or refutes) the soundness of one qualifier, with the
    /// default budget, no retries, one job, and no cache; `None` if no
    /// qualifier has that name.
    pub fn prove_sound(&self, name: &str) -> Option<QualReport> {
        let report =
            self.prove_named_pipeline(&[name], Budget::default(), RetryPolicy::none(), 1, None);
        report.ok()?.reports.pop()
    }

    /// Proves (or refutes) the soundness of every registered qualifier,
    /// with the defaults of [`Session::prove_sound`].
    pub fn prove_all_sound(&self) -> Vec<QualReport> {
        self.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 1, None)
            .reports
    }

    /// [`Session::prove`] of every registered qualifier, never
    /// cancelled.
    pub fn prove_all_sound_pipeline(
        &self,
        budget: Budget,
        retry: RetryPolicy,
        jobs: usize,
        cache: Option<&ProofCache>,
    ) -> SoundnessReport {
        self.prove(None, budget, retry, jobs, cache, &CancelToken::default())
            .expect("every registered qualifier resolves")
    }

    /// [`Session::prove`] of the named qualifiers, never cancelled.
    ///
    /// # Errors
    ///
    /// The first unregistered qualifier name.
    pub fn prove_named_pipeline(
        &self,
        names: &[&str],
        budget: Budget,
        retry: RetryPolicy,
        jobs: usize,
        cache: Option<&ProofCache>,
    ) -> Result<SoundnessReport, String> {
        let unfired = CancelToken::default();
        self.prove(Some(names), budget, retry, jobs, cache, &unfired)
    }

    /// Parses C-subset source with this session's qualifiers as
    /// annotations.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error.
    pub fn parse(&self, source: &str) -> Result<Program, ParseError> {
        parse_program(source, &self.registry.names())
    }

    /// Error-resilient [`Session::parse`]: recovers at sync tokens and
    /// returns the partial [`Program`] alongside every syntax error, so
    /// declarations after a typo still reach the typechecker.
    pub fn parse_resilient(&self, source: &str) -> (Program, Vec<ParseError>) {
        parse_program_resilient(source, &self.registry.names())
    }

    /// Typechecks a parsed program.
    pub fn check(&self, program: &Program) -> CheckResult {
        check_program(&self.registry, program)
    }

    /// Typechecks with explicit options (e.g. the flow-sensitive
    /// extension).
    pub fn check_with(&self, program: &Program, options: CheckOptions) -> CheckResult {
        check_program_with(&self.registry, program, options)
    }

    /// Parses and typechecks in one step.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error; qualifier violations are reported
    /// in the returned [`CheckResult`], not as errors.
    pub fn check_source(&self, source: &str) -> Result<CheckResult, ParseError> {
        Ok(self.check(&self.parse(source)?))
    }

    /// Infers annotations for one value qualifier across a whole program
    /// (the paper's §8 "qualifier inference" plan): the greatest
    /// consistent set of declaration sites that can carry the qualifier.
    ///
    /// # Panics
    ///
    /// Panics if `qual` is not a registered value qualifier; see
    /// [`Session::try_infer_annotations`] for the non-panicking form.
    pub fn infer_annotations(&self, program: &Program, qual: &str) -> AnnotationInference {
        infer_annotations(&self.registry, program, Symbol::intern(qual))
    }

    /// As [`Session::infer_annotations`], but validates the qualifier
    /// first so misuse surfaces as a diagnostic rather than a panic.
    ///
    /// # Errors
    ///
    /// When `qual` is not registered, or is not a value qualifier.
    pub fn try_infer_annotations(
        &self,
        program: &Program,
        qual: &str,
    ) -> Result<AnnotationInference, String> {
        match self.registry.get_by_name(qual) {
            None => Err(format!("unknown qualifier `{qual}`")),
            Some(def) if def.kind != stq_qualspec::QualKind::Value => Err(format!(
                "annotation inference targets value qualifiers, but `{qual}` is a ref qualifier"
            )),
            Some(_) => Ok(self.infer_annotations(program, qual)),
        }
    }

    /// Inserts run-time invariant checks for value-qualifier casts.
    pub fn instrument(&self, program: &Program) -> Program {
        instrument_program(&self.registry, program)
    }

    /// Instruments `program` and runs `entry` on the interpreter, with
    /// cast checks evaluated against the declared invariants.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], including failed qualifier checks.
    pub fn run_instrumented(
        &self,
        program: &Program,
        entry: &str,
        args: &[Value],
    ) -> Result<ExecOutcome, RuntimeError> {
        let instrumented = self.instrument(program);
        let checker = InvariantChecker::new(&self.registry);
        run_entry(
            &instrumented,
            entry,
            args,
            &checker,
            InterpConfig::default(),
        )
    }

    /// Inserts run-time invariant *observations* after every statically
    /// qualified definition point (initialized declarations, assignments,
    /// parameters, returns) — the executable form of the paper's §5
    /// soundness property, used by the differential fuzzer's soundness
    /// oracle.
    pub fn observe(&self, program: &Program) -> Program {
        stq_typecheck::observe_program(&self.registry, program)
    }

    /// Observes `program` (see [`Session::observe`]) and runs `entry` on
    /// the interpreter with the given limits.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; a [`RuntimeError::CheckFailed`] from a
    /// cleanly checked cast-free program is a soundness violation.
    pub fn run_observed(
        &self,
        program: &Program,
        entry: &str,
        args: &[Value],
        config: InterpConfig,
    ) -> Result<ExecOutcome, RuntimeError> {
        let observed = self.observe(program);
        let checker = InvariantChecker::new(&self.registry);
        run_entry(&observed, entry, args, &checker, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_soundness::Verdict;

    #[test]
    fn builtin_session_is_sound_and_well_formed() {
        let s = Session::with_builtins();
        assert!(!s.check_well_formed().has_errors());
        for report in s.prove_all_sound() {
            assert_ne!(report.verdict, Verdict::Unsound, "{report}");
        }
    }

    #[test]
    fn define_reports_new_names() {
        let mut s = Session::new();
        let names = s
            .define_qualifiers(
                "value qualifier answer(int Expr E)
                    case E of
                        decl int Const C: C, where C == 42
                    invariant value(E) == 42",
            )
            .unwrap();
        assert_eq!(names, vec![Symbol::intern("answer")]);
        let report = s.prove_sound("answer").unwrap();
        assert_eq!(report.verdict, Verdict::Sound, "{report}");
    }

    #[test]
    fn check_source_runs_the_full_pipeline() {
        let s = Session::with_builtins();
        let result = s.check_source("int f(int* p) { return *p; }").unwrap();
        assert_eq!(result.stats.qualifier_errors, 1);
    }

    #[test]
    fn run_instrumented_executes_checks() {
        let s = Session::with_builtins();
        let program = s
            .parse("int f(int x) { int pos y = (int pos) x; return y; }")
            .unwrap();
        let ok = s.run_instrumented(&program, "f", &[Value::Int(5)]);
        assert!(ok.is_ok());
        let err = s.run_instrumented(&program, "f", &[Value::Int(-5)]);
        assert!(matches!(err, Err(RuntimeError::CheckFailed { .. })));
    }

    #[test]
    fn prove_sound_of_unknown_qualifier_is_none() {
        let s = Session::new();
        assert!(s.prove_sound("ghost").is_none());
    }

    #[test]
    fn budgeted_proving_reports_telemetry() {
        let s = Session::with_builtins();
        let report = s.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 1, None);
        assert!(report.all_sound(), "{report}");
        assert!(report.totals.decisions > 0);
        assert!(report.totals.instantiations > 0);
        assert!(report.obligation_count() > 0);
    }

    #[test]
    fn starved_budget_is_resource_out_not_unsound() {
        let s = Session::with_builtins();
        let budget = Budget {
            max_rounds: 1,
            max_instantiations: 1,
            ..Budget::default()
        };
        let report = s
            .prove_named_pipeline(&["unique"], budget, RetryPolicy::none(), 1, None)
            .unwrap();
        assert_eq!(report.reports[0].verdict, Verdict::ResourceOut, "{report}");
    }

    #[test]
    fn retrying_rescues_a_starved_budget() {
        let s = Session::with_builtins();
        let budget = Budget {
            max_rounds: 1,
            max_instantiations: 1,
            ..Budget::default()
        };
        let retry = RetryPolicy {
            max_attempts: 8,
            factor: 4,
        };
        let report = s
            .prove_named_pipeline(&["unique"], budget, retry, 1, None)
            .unwrap();
        assert_eq!(report.reports[0].verdict, Verdict::Sound, "{report}");
        assert!(report.attempt_count() > report.obligation_count() as u64);
    }

    #[test]
    fn session_survives_an_injected_prover_crash() {
        use stq_soundness::fault::{self, FaultKind, FaultPlan};
        let s = Session::with_builtins();
        fault::install(FaultPlan::new().inject(0, FaultKind::Panic));
        let report = s.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 1, None);
        fault::clear();
        // Every qualifier still has a report; exactly one crashed.
        assert_eq!(report.reports.len(), 8);
        let crashed: Vec<_> = report
            .reports
            .iter()
            .filter(|r| r.verdict == Verdict::Crashed)
            .collect();
        assert_eq!(crashed.len(), 1, "{report}");
        assert!(!report.all_sound());
    }

    #[test]
    fn pipeline_proving_matches_sequential_and_caches() {
        let s = Session::with_builtins();
        let sequential =
            s.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 1, None);
        let cache = ProofCache::in_memory();
        let cold =
            s.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 4, Some(&cache));
        for (a, b) in sequential.reports.iter().zip(&cold.reports) {
            assert_eq!(a.qualifier, b.qualifier);
            assert_eq!(a.verdict, b.verdict);
        }
        let warm =
            s.prove_all_sound_pipeline(Budget::default(), RetryPolicy::none(), 4, Some(&cache));
        assert_eq!(warm.reproved_count(), 0, "warm run is all cache hits");
        assert!(warm.all_sound());
    }

    #[test]
    fn cancelled_session_run_yields_a_partial_report() {
        let s = Session::with_builtins();
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = s
            .prove(
                None,
                Budget::default(),
                RetryPolicy::none(),
                2,
                None,
                &cancel,
            )
            .unwrap();
        assert!(report.interrupted());
        assert_eq!(report.skipped_count(), report.obligation_count());
        assert!(
            !report.all_sound(),
            "a partial report never claims soundness"
        );
        // An unfired token proves everything asked for.
        let clean = s.prove(
            Some(&["pos", "unique"]),
            Budget::default(),
            RetryPolicy::none(),
            2,
            None,
            &CancelToken::new(),
        );
        let clean = clean.unwrap();
        assert!(!clean.interrupted());
        assert!(clean.all_sound(), "{clean}");
    }

    #[test]
    fn named_pipeline_proves_a_subset_and_rejects_unknowns() {
        let s = Session::with_builtins();
        let report = s
            .prove_named_pipeline(
                &["pos", "unique"],
                Budget::default(),
                RetryPolicy::none(),
                2,
                None,
            )
            .unwrap();
        assert_eq!(report.reports.len(), 2);
        assert!(report.all_sound(), "{report}");
        let err = s
            .prove_named_pipeline(&["ghost"], Budget::default(), RetryPolicy::none(), 1, None)
            .unwrap_err();
        assert!(err.contains("ghost"));
    }

    #[test]
    fn define_qualifiers_resilient_keeps_the_good_definitions() {
        let mut s = Session::new();
        let (names, errors) = s.define_qualifiers_resilient(
            "value qualifier broken(int Expr E
                invariant value(E) > 0
             value qualifier good(int Expr E)
                invariant value(E) > 0",
        );
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(names, vec![Symbol::intern("good")]);
        assert_eq!(s.prove_sound("good").unwrap().verdict, Verdict::Sound);
    }

    #[test]
    fn parse_resilient_checks_the_surviving_declarations() {
        let s = Session::with_builtins();
        let (program, errors) = s.parse_resilient(
            "int bad = ;
             int f(int* p) { return *p; }",
        );
        assert_eq!(errors.len(), 1);
        let result = s.check(&program);
        assert_eq!(result.stats.qualifier_errors, 1, "later decls checked");
    }

    #[test]
    fn try_infer_annotations_rejects_misuse_without_panicking() {
        let s = Session::with_builtins();
        let program = s.parse("int g = 1;").unwrap();
        assert!(s
            .try_infer_annotations(&program, "ghost")
            .unwrap_err()
            .contains("unknown"));
        assert!(s
            .try_infer_annotations(&program, "unique")
            .unwrap_err()
            .contains("ref qualifier"));
        assert!(s.try_infer_annotations(&program, "pos").is_ok());
    }
}
