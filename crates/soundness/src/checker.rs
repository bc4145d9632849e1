//! The soundness-checker driver: generate every obligation of the
//! qualifiers asked for, discharge each with the prover under a
//! [`Budget`], and report per-obligation telemetry
//! ([`stq_logic::ProverStats`]) plus aggregate totals
//! ([`SoundnessReport`]). [`check_defs_pipeline_cancellable`] is the one
//! driver; [`check_qualifier`] is its defaults for one definition.

use crate::axioms::background_theory;
use crate::cache::{CachedProof, ProofCache};
use crate::obligations::{build_obligation, obligation_specs, Obligation, ObligationSpec};
use std::fmt;
use std::time::{Duration, Instant};
use stq_logic::solver::{Outcome, SolverWorker};
use stq_logic::{fault, Budget, ProverStats, Resource, RetryPolicy};
use stq_qualspec::{QualifierDef, Registry};
use stq_util::{CancelToken, Symbol};

/// The result of one obligation's proof attempt(s).
#[derive(Clone, Debug)]
pub struct ObligationResult {
    /// What the obligation asserts.
    pub description: String,
    /// Whether the prover discharged it.
    pub proved: bool,
    /// The prover's candidate countermodel if the search saturated
    /// without a proof.
    pub countermodel: Vec<String>,
    /// The budget limit that tripped, if the prover ran out of resources
    /// before reaching a verdict (on the *final* attempt).
    pub resource: Option<Resource>,
    /// The contained panic message, if the proof attempt crashed.
    pub crashed: Option<String>,
    /// True when the obligation never ran: the run was cancelled before
    /// a worker picked it up. Skipped results carry zero attempts and
    /// empty stats, and say nothing about the obligation's soundness.
    pub skipped: bool,
    /// Proof attempts run: 1 normally, more when the retry ladder
    /// re-ran a resource-out obligation under escalated budgets.
    pub attempts: u32,
    /// Prover work counters, accumulated across all attempts.
    pub stats: ProverStats,
    /// Wall-clock time for this obligation, across all attempts.
    pub duration: Duration,
}

/// The soundness verdict for one qualifier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every obligation was proved.
    Sound,
    /// At least one obligation could not be proved: the type rules may
    /// not guarantee the declared invariant.
    Unsound,
    /// No invariant declared — nothing to check (flow qualifiers are
    /// sound "for free" by subtyping, paper §2.1.4).
    NoInvariant,
    /// At least one obligation exhausted its [`Budget`] (and none was
    /// positively refuted): soundness is undetermined at this budget.
    ResourceOut,
    /// At least one obligation's proof attempt panicked and was contained
    /// (and none was positively refuted): soundness is undetermined
    /// because the prover crashed, not because the obligation failed.
    Crashed,
    /// The run was cancelled (Ctrl-C or an expired run deadline) before
    /// this qualifier got a full verdict: at least one obligation was
    /// skipped outright or interrupted mid-search, and none was
    /// positively refuted or crashed. A partial report must not be read
    /// as exonerating the unreached obligations.
    Interrupted,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Sound => "sound",
            Verdict::Unsound => "NOT proven sound",
            Verdict::NoInvariant => "no invariant (vacuously sound)",
            Verdict::ResourceOut => "undetermined (resource budget exhausted)",
            Verdict::Crashed => "undetermined (prover crashed; crash contained)",
            Verdict::Interrupted => "undetermined (run interrupted before completion)",
        })
    }
}

/// The full soundness report for one qualifier.
#[derive(Clone, Debug)]
pub struct QualReport {
    /// The qualifier checked.
    pub qualifier: Symbol,
    /// Overall verdict.
    pub verdict: Verdict,
    /// Per-obligation results.
    pub obligations: Vec<ObligationResult>,
    /// Total wall-clock time.
    pub duration: Duration,
}

impl QualReport {
    /// The failed obligations, if any.
    pub fn failures(&self) -> impl Iterator<Item = &ObligationResult> {
        self.obligations.iter().filter(|o| !o.proved)
    }

    /// Aggregate prover work over every obligation (counters summed,
    /// clause counts maxed; see [`ProverStats::absorb`]).
    pub fn totals(&self) -> ProverStats {
        let mut totals = ProverStats::default();
        for o in &self.obligations {
            totals.absorb(&o.stats);
        }
        totals
    }
}

impl fmt::Display for QualReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "qualifier `{}`: {} ({} obligation(s), {:.3}s)",
            self.qualifier,
            self.verdict,
            self.obligations.len(),
            self.duration.as_secs_f64()
        )?;
        for o in &self.obligations {
            let status = if o.proved {
                "proved"
            } else if o.skipped {
                "SKIPPED"
            } else if o.crashed.is_some() {
                "CRASHED"
            } else if o.resource == Some(Resource::Cancelled) {
                "INTERRUPTED"
            } else if o.resource.is_some() {
                "OUT OF BUDGET"
            } else {
                "FAILED"
            };
            let cached = if o.stats.cache_hits > 0 {
                " (cached)"
            } else {
                ""
            };
            writeln!(f, "  [{status}{cached}] {}", o.description)?;
            if let Some(message) = &o.crashed {
                writeln!(f, "      panic: {message}")?;
            }
            if let Some(resource) = o.resource {
                let label = if resource == Resource::Cancelled {
                    "stopped"
                } else {
                    "exhausted"
                };
                writeln!(f, "      {label}: {resource}")?;
            }
            if o.attempts > 1 {
                writeln!(f, "      attempts: {}", o.attempts)?;
            }
            if !o.proved {
                for line in &o.countermodel {
                    writeln!(f, "      countermodel: {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// Checks the soundness of one qualifier definition against its declared
/// invariant, for all possible programs: [`check_defs_pipeline_cancellable`]
/// with the default [`Budget`], no retries, one job, and no cache.
///
/// # Examples
///
/// ```
/// use stq_qualspec::Registry;
/// use stq_soundness::{check_qualifier, Verdict};
///
/// let registry = Registry::builtins();
/// let pos = registry.get_by_name("pos").unwrap();
/// let report = check_qualifier(&registry, pos);
/// assert_eq!(report.verdict, Verdict::Sound);
/// ```
pub fn check_qualifier(registry: &Registry, def: &QualifierDef) -> QualReport {
    let mut report = check_defs_pipeline_cancellable(
        registry,
        &[def],
        Budget::default(),
        RetryPolicy::none(),
        1,
        None,
        &CancelToken::default(),
    );
    report.reports.remove(0)
}

/// The result recorded for an obligation the run never reached: zero
/// attempts, empty stats, and no claim about soundness either way.
fn skipped_result(description: String, duration: Duration) -> ObligationResult {
    ObligationResult {
        description,
        proved: false,
        countermodel: Vec::new(),
        resource: None,
        crashed: None,
        skipped: true,
        attempts: 0,
        stats: ProverStats::default(),
        duration,
    }
}

/// Discharges one obligation: proof-cache lookup (when a cache is
/// supplied), then the fault-isolated retry ladder, then cache recording
/// of a conclusive outcome.
///
/// The [`CancelToken`] is cloned into the prover so an in-flight search
/// stops at its next decision-point poll; if the token has already fired
/// before any work starts, the obligation is skipped outright.
///
/// Proof attempts run on the caller's [`SolverWorker`], which keeps a
/// theory-loaded solver core resident across obligations; verdicts and
/// work counters are identical to standalone proving (reuse only skips
/// redundant theory preprocessing — see [`SolverWorker::prove`]).
fn discharge(
    worker: &mut SolverWorker,
    mut ob: Obligation,
    budget: Budget,
    retry: RetryPolicy,
    cache: Option<&ProofCache>,
    cancel: &CancelToken,
) -> ObligationResult {
    let t0 = Instant::now();
    if cancel.should_stop() {
        return skipped_result(ob.description, t0.elapsed());
    }
    let fp = cache.map(|_| {
        // Fingerprint under the *base* budget: the retry ladder is part
        // of the key separately, so escalated attempts don't fragment it.
        ob.problem.config = budget;
        ob.problem.fingerprint(retry)
    });
    if let (Some(cache), Some(fp)) = (cache, fp) {
        if let Some(proof) = cache.lookup(fp) {
            let (proved, countermodel) = match proof {
                CachedProof::Proved => (true, Vec::new()),
                CachedProof::Refuted { model } => (false, model),
            };
            return ObligationResult {
                description: ob.description,
                proved,
                countermodel,
                resource: None,
                crashed: None,
                skipped: false,
                attempts: 0,
                stats: ProverStats {
                    cache_hits: 1,
                    ..ProverStats::default()
                },
                duration: t0.elapsed(),
            };
        }
    }
    ob.problem.cancel = cancel.clone();
    let mut attempts = 0u32;
    let mut total = ProverStats::default();
    let outcome = loop {
        attempts += 1;
        ob.problem.config = retry.budget_for(budget, attempts);
        let outcome = worker.prove_isolated(&ob.problem);
        total.absorb(outcome.stats());
        // A fired token also stops the ladder: escalated re-attempts
        // would each be cancelled again at their first poll.
        if outcome.is_resource_out() && attempts < retry.attempt_cap() && !cancel.should_stop() {
            continue;
        }
        break outcome;
    };
    if let (Some(cache), Some(fp)) = (cache, fp) {
        total.cache_misses += 1;
        cache.record(fp, &outcome);
    }
    let proved = outcome.is_proved();
    let (countermodel, resource, crashed) = match outcome {
        Outcome::Proved { .. } => (Vec::new(), None, None),
        Outcome::Refuted { model, .. } => (model, None, None),
        Outcome::ResourceOut { resource, .. } => (Vec::new(), Some(resource), None),
        Outcome::Crashed { message, .. } => (Vec::new(), None, Some(message)),
    };
    ObligationResult {
        description: ob.description,
        proved,
        countermodel,
        resource,
        crashed,
        skipped: false,
        attempts,
        stats: total,
        duration: t0.elapsed(),
    }
}

/// The qualifier verdict implied by its obligation results: refutation
/// outranks a crash outranks an interruption outranks a budget
/// exhaustion outranks soundness. Interruption (a skipped obligation or
/// one cancelled mid-search) outranks `ResourceOut` because it says the
/// *run* stopped, not that the budget was too small.
fn verdict_for(results: &[ObligationResult]) -> Verdict {
    let refuted = |o: &ObligationResult| {
        !o.proved && !o.skipped && o.crashed.is_none() && o.resource.is_none()
    };
    let interrupted = |o: &ObligationResult| o.skipped || o.resource == Some(Resource::Cancelled);
    if results.iter().any(refuted) {
        Verdict::Unsound
    } else if results.iter().any(|o| o.crashed.is_some()) {
        Verdict::Crashed
    } else if results.iter().any(interrupted) {
        Verdict::Interrupted
    } else if results.iter().any(|o| o.resource.is_some()) {
        Verdict::ResourceOut
    } else {
        Verdict::Sound
    }
}

/// The full soundness run over a registry: per-qualifier reports plus
/// aggregate prover telemetry.
#[derive(Clone, Debug)]
pub struct SoundnessReport {
    /// One report per qualifier, in registry order.
    pub reports: Vec<QualReport>,
    /// The budget every obligation ran under (first attempt; retries
    /// escalate from here).
    pub budget: Budget,
    /// The escalation ladder the run used ([`RetryPolicy::none`] when
    /// retries were disabled).
    pub retry: RetryPolicy,
    /// Aggregate prover work across all qualifiers and obligations
    /// (including proof-cache hit/miss/invalidation counters when the
    /// run used a cache).
    pub totals: ProverStats,
    /// Total wall-clock time for the whole run.
    pub duration: Duration,
    /// Worker threads the run was allowed (1 = sequential).
    pub jobs: usize,
}

impl SoundnessReport {
    /// Assembles a run's report from its per-qualifier reports: `totals`
    /// folds every qualifier's totals, plus the load-time invalidations
    /// of the `cache` the run consulted.
    pub fn new(
        reports: Vec<QualReport>,
        budget: Budget,
        retry: RetryPolicy,
        jobs: usize,
        cache: Option<&ProofCache>,
        duration: Duration,
    ) -> SoundnessReport {
        let mut totals = ProverStats::default();
        for r in &reports {
            totals.absorb(&r.totals());
        }
        if let Some(cache) = cache {
            totals.cache_invalidations += cache.invalidations();
        }
        SoundnessReport {
            reports,
            budget,
            retry,
            totals,
            duration,
            jobs,
        }
    }

    /// True if no qualifier was found unsound or ran out of budget.
    pub fn all_sound(&self) -> bool {
        self.reports
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Sound | Verdict::NoInvariant))
    }

    /// Total number of obligations across all qualifiers.
    pub fn obligation_count(&self) -> usize {
        self.reports.iter().map(|r| r.obligations.len()).sum()
    }

    /// Total proof attempts across all obligations: more than the
    /// obligation count when the retry ladder re-ran something, *less*
    /// when the proof cache served obligations without any attempt.
    pub fn attempt_count(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| &r.obligations)
            .map(|o| u64::from(o.attempts))
            .sum()
    }

    /// Obligations that actually ran a proof search (attempts ≥ 1); the
    /// rest were served from the proof cache.
    pub fn reproved_count(&self) -> usize {
        self.reports
            .iter()
            .flat_map(|r| &r.obligations)
            .filter(|o| o.attempts > 0 && !o.skipped)
            .count()
    }

    fn obligation_results(&self) -> impl Iterator<Item = &ObligationResult> {
        self.reports.iter().flat_map(|r| &r.obligations)
    }

    /// True when the run was cut short: some obligation was skipped
    /// before running or cancelled mid-search. A partial report carries
    /// every verdict reached so far but proves nothing about the rest.
    pub fn interrupted(&self) -> bool {
        self.obligation_results()
            .any(|o| o.skipped || o.resource == Some(Resource::Cancelled))
    }

    /// Obligations the cancelled run never started.
    pub fn skipped_count(&self) -> usize {
        self.obligation_results().filter(|o| o.skipped).count()
    }

    /// Obligations an external cancellation stopped mid-search
    /// ([`Resource::Cancelled`]).
    pub fn cancelled_count(&self) -> usize {
        self.obligation_results()
            .filter(|o| o.resource == Some(Resource::Cancelled))
            .count()
    }

    /// Obligations that exhausted their *wall-clock* budget
    /// ([`Resource::Time`]): a deadline fired, regardless of how much
    /// step budget remained.
    pub fn timed_out_count(&self) -> usize {
        self.obligation_results()
            .filter(|o| o.resource == Some(Resource::Time))
            .count()
    }

    /// Obligations that exhausted a *step* budget (decisions, rounds,
    /// instantiations, clauses, or an injected exhaustion) — any
    /// resource limit that is not wall-clock time and not an external
    /// cancellation.
    pub fn step_out_count(&self) -> usize {
        self.obligation_results()
            .filter(|o| {
                matches!(
                    o.resource,
                    Some(r) if r != Resource::Time && r != Resource::Cancelled
                )
            })
            .count()
    }
}

impl fmt::Display for SoundnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.reports {
            write!(f, "{r}")?;
        }
        if self.interrupted() {
            writeln!(
                f,
                "INTERRUPTED: partial report; {} obligation(s) never ran",
                self.skipped_count()
            )?;
        }
        writeln!(
            f,
            "totals: {} obligation(s), {} in {:.3}s",
            self.obligation_count(),
            self.totals,
            self.duration.as_secs_f64()
        )
    }
}

/// The soundness checker's one driver: every obligation of `defs` (in
/// the given order) discharged by up to `jobs` workers over a
/// thread pool, under an explicit prover [`Budget`], a
/// budget-escalation [`RetryPolicy`], an optional [`ProofCache`], and a
/// [`CancelToken`]. With `jobs <= 1` the run is sequential on the
/// calling thread.
///
/// Every obligation is discharged through
/// [`stq_logic::SolverWorker::prove_isolated`], so a panicking proof
/// attempt — a prover bug or an injected fault — degrades to a `CRASHED`
/// obligation and a [`Verdict::Crashed`] report instead of unwinding
/// through the batch: the remaining obligations (and qualifiers) still
/// get verdicts. An obligation that exhausts the budget is recorded with
/// its tripped [`Resource`]; if any obligation does (and none is
/// positively refuted) the verdict is [`Verdict::ResourceOut`].
///
/// An obligation that comes back `ResourceOut` is re-run under budgets
/// escalated by `retry.factor` per attempt, up to `retry.max_attempts`
/// total attempts; [`ObligationResult::attempts`] records how many ran,
/// and the stats and duration accumulate across attempts. Refutations and
/// crashes are never retried.
///
/// With a cache, each obligation is fingerprinted and looked up before
/// any proof search runs. A hit replays the cached conclusive outcome
/// with zero attempts ([`ObligationResult::attempts`] is 0 and
/// `stats.cache_hits` is 1); a miss proves as usual, records the
/// conclusive outcome, and marks `stats.cache_misses`. The cache's
/// load-time invalidation count is folded into
/// [`SoundnessReport::totals`].
///
/// Workers poll the token before taking each obligation and the prover
/// polls it at its decision points, so a fired token ends the run at the
/// next safepoint. Obligations the pool never reached come back as
/// skipped results (zero attempts, no stats), an obligation interrupted
/// mid-search records [`Resource::Cancelled`], and any of either makes
/// the report [`SoundnessReport::interrupted`]. Conclusive outcomes
/// reached before the cancellation are still recorded in the cache, so
/// an interrupted run resumes from where it stopped.
///
/// Determinism: obligation-level results are index-addressed, so
/// verdicts, obligation order, countermodels, attempts, and work
/// counters do not depend on `jobs` — only wall-clock fields (and, under
/// fault injection, *which* solver entry draws a scheduled index) depend
/// on scheduling. An installed [`fault`] plan is shared with the workers
/// via [`fault::handle`]/[`fault::adopt`], so entry numbering stays
/// global and an injected fault fires exactly once.
pub fn check_defs_pipeline_cancellable(
    registry: &Registry,
    defs: &[&QualifierDef],
    budget: Budget,
    retry: RetryPolicy,
    jobs: usize,
    cache: Option<&ProofCache>,
    cancel: &CancelToken,
) -> SoundnessReport {
    let start = Instant::now();
    let jobs = jobs.max(1);
    // Flatten to obligation-level tasks so one wide qualifier cannot
    // serialise the pool; the (qualifier index, task index) pairing puts
    // every result back in its deterministic slot afterwards. Tasks are
    // lightweight *specs* — each worker materializes the obligation's
    // formulas itself, so obligation generation parallelizes along with
    // the proving instead of running sequentially up front.
    let mut tasks: Vec<(usize, ObligationSpec)> = Vec::new();
    for (qi, def) in defs.iter().enumerate() {
        if def.invariant.is_some() {
            for spec in obligation_specs(def) {
                tasks.push((qi, spec));
            }
        }
    }
    // Capture each task's slot and description up front: a task the
    // cancelled pool never reached comes back `None`, and its skipped
    // placeholder still needs both.
    let meta: Vec<(usize, String)> = tasks
        .iter()
        .map(|(qi, spec)| (*qi, spec.description.clone()))
        .collect();
    let fault_handle = fault::handle();
    let slots = stq_util::pool::run_indexed_stateful_cancellable(
        jobs,
        tasks,
        cancel,
        || {
            fault::adopt(fault_handle.clone());
            // Each worker keeps one theory-loaded solver resident for its
            // whole batch; obligations that carry the shared background
            // theory reuse it instead of re-preprocessing the axioms.
            SolverWorker::new(background_theory())
        },
        |worker, _, (qi, spec)| {
            let ob = build_obligation(registry, defs[qi], &spec);
            discharge(worker, ob, budget, retry, cache, cancel)
        },
    );
    let mut per_qual: Vec<Vec<ObligationResult>> = defs.iter().map(|_| Vec::new()).collect();
    for ((qi, description), slot) in meta.into_iter().zip(slots) {
        per_qual[qi].push(match slot {
            Some(result) => result,
            None => skipped_result(description, Duration::ZERO),
        });
    }
    let reports: Vec<QualReport> = defs
        .iter()
        .zip(per_qual)
        .map(|(def, obligations)| {
            if def.invariant.is_none() {
                QualReport {
                    qualifier: def.name,
                    verdict: Verdict::NoInvariant,
                    obligations: Vec::new(),
                    duration: Duration::ZERO,
                }
            } else {
                // Per-qualifier wall clock is meaningless when workers
                // interleave qualifiers; report the obligations' summed
                // proof time instead.
                let duration = obligations.iter().map(|o| o.duration).sum();
                QualReport {
                    qualifier: def.name,
                    verdict: verdict_for(&obligations),
                    obligations,
                    duration,
                }
            }
        })
        .collect();
    SoundnessReport::new(reports, budget, retry, jobs, cache, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtin_report(name: &str) -> QualReport {
        let registry = Registry::builtins();
        let def = registry.get_by_name(name).expect("builtin exists");
        check_qualifier(&registry, def)
    }

    /// The driver over one definition, inline, with an unfired token.
    fn check_one(
        registry: &Registry,
        def: &QualifierDef,
        budget: Budget,
        retry: RetryPolicy,
        cache: Option<&ProofCache>,
    ) -> QualReport {
        let mut report = check_defs_pipeline_cancellable(
            registry,
            &[def],
            budget,
            retry,
            1,
            cache,
            &CancelToken::default(),
        );
        report.reports.remove(0)
    }

    /// The driver over the whole registry.
    fn check_registry(
        registry: &Registry,
        budget: Budget,
        retry: RetryPolicy,
        jobs: usize,
        cancel: &CancelToken,
    ) -> SoundnessReport {
        let defs: Vec<&QualifierDef> = registry.iter().collect();
        check_defs_pipeline_cancellable(registry, &defs, budget, retry, jobs, None, cancel)
    }

    #[test]
    fn pos_is_sound() {
        let r = builtin_report("pos");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
        assert_eq!(r.obligations.len(), 3);
    }

    #[test]
    fn neg_is_sound() {
        let r = builtin_report("neg");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
    }

    #[test]
    fn nonzero_is_sound() {
        let r = builtin_report("nonzero");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
        // Four case clauses; the restrict clause generates no obligation.
        assert_eq!(r.obligations.len(), 4);
    }

    #[test]
    fn nonnull_is_sound() {
        let r = builtin_report("nonnull");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
        assert_eq!(r.obligations.len(), 1);
    }

    #[test]
    fn flow_qualifiers_have_no_obligations() {
        let r = builtin_report("untainted");
        assert_eq!(r.verdict, Verdict::NoInvariant);
        let r = builtin_report("tainted");
        assert_eq!(r.verdict, Verdict::NoInvariant);
    }

    #[test]
    fn unique_is_sound() {
        let r = builtin_report("unique");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
        // Two assign forms + four preservation cases.
        assert_eq!(r.obligations.len(), 6);
    }

    #[test]
    fn unaliased_is_sound() {
        let r = builtin_report("unaliased");
        assert_eq!(r.verdict, Verdict::Sound, "{r}");
        // ondecl + four preservation cases.
        assert_eq!(r.obligations.len(), 5);
    }

    #[test]
    fn erroneous_pos_with_subtraction_is_rejected() {
        // The paper's running example (§2.1.3): replacing E1 * E2 with
        // E1 - E2 must make the soundness check fail.
        let mut registry = Registry::new();
        registry
            .add_source(
                "value qualifier neg(int Expr E)
                    case E of
                        decl int Const C: C, where C < 0
                    invariant value(E) < 0",
            )
            .unwrap();
        registry
            .add_source(
                "value qualifier pos(int Expr E)
                    case E of
                        decl int Const C:
                            C, where C > 0
                      | decl int Expr E1, E2:
                            E1 - E2, where pos(E1) && pos(E2)
                      | decl int Expr E1:
                            -E1, where neg(E1)
                    invariant value(E) > 0",
            )
            .unwrap();
        let def = registry.get_by_name("pos").unwrap();
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].description.contains("E1 - E2"));
        assert!(!failures[0].countermodel.is_empty());
    }

    #[test]
    fn unique_without_disallow_is_rejected() {
        // §2.2.3: omitting the disallow clause makes preservation fail
        // for the "store the value of l in l'" case.
        let mut registry = Registry::new();
        registry
            .add_source(
                "ref qualifier unique(T* LValue L)
                    assign L NULL | new
                    invariant value(L) == NULL ||
                        (isHeapLoc(value(L)) &&
                         forall T** P: *P == value(L) => P == location(L))",
            )
            .unwrap();
        let def = registry.get_by_name("unique").unwrap();
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound, "{report}");
        let failing: Vec<_> = report.failures().collect();
        assert!(failing
            .iter()
            .any(|o| o.description.contains("read from memory")));
        // The establishment obligations still hold.
        assert!(report
            .obligations
            .iter()
            .filter(|o| o.description.contains("assign form"))
            .all(|o| o.proved));
    }

    #[test]
    fn unaliased_without_disallow_is_rejected() {
        let mut registry = Registry::new();
        registry
            .add_source(
                "ref qualifier unaliased(T Var X)
                    ondecl
                    invariant forall T** P: *P != location(X)",
            )
            .unwrap();
        let def = registry.get_by_name("unaliased").unwrap();
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound, "{report}");
        assert!(report
            .failures()
            .any(|o| o.description.contains("address-of")));
    }

    #[test]
    fn unique_with_const_assign_is_rejected() {
        // Allowing arbitrary constants to be assigned to a unique pointer
        // would not establish the invariant (a constant is not NULL and
        // not a fresh heap location).
        let mut registry = Registry::new();
        registry
            .add_source(
                "ref qualifier unique(T* LValue L)
                    assign L NULL | new | const
                    disallow L
                    invariant value(L) == NULL ||
                        (isHeapLoc(value(L)) &&
                         forall T** P: *P == value(L) => P == location(L))",
            )
            .unwrap();
        let def = registry.get_by_name("unique").unwrap();
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound, "{report}");
        assert!(report.failures().any(|o| o.description.contains("const")));
    }

    #[test]
    fn the_registry_run_refutes_no_builtin() {
        let registry = Registry::builtins();
        let report = check_registry(
            &registry,
            Budget::default(),
            RetryPolicy::none(),
            1,
            &CancelToken::default(),
        );
        assert_eq!(report.reports.len(), 8);
        for r in &report.reports {
            assert_ne!(r.verdict, Verdict::Unsound, "{r}");
        }
    }

    #[test]
    fn wrong_invariant_is_rejected() {
        // Claiming value(E) > 1 for pos's rules must fail: the constant 1
        // satisfies C > 0 but not the claimed invariant... encoded via a
        // fresh qualifier to keep the registry consistent.
        let mut registry = Registry::new();
        registry
            .add_source(
                "value qualifier big(int Expr E)
                    case E of
                        decl int Const C: C, where C > 0
                    invariant value(E) > 1",
            )
            .unwrap();
        let def = registry.get_by_name("big").unwrap();
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound);
    }

    #[test]
    fn builtin_proof_stats_are_nonzero() {
        // Fig. 12 qualifiers: every discharged obligation must show real
        // prover work — refuting anything takes at least one conflict,
        // and the clause database is never empty.
        for name in ["pos", "neg", "nonzero", "nonnull", "unique", "unaliased"] {
            let r = builtin_report(name);
            assert!(!r.obligations.is_empty(), "{name} has obligations");
            for o in &r.obligations {
                assert!(o.proved, "{name}: {}", o.description);
                assert!(o.stats.conflicts >= 1, "{name}: {}", o.description);
                assert!(o.stats.clauses >= 1, "{name}: {}", o.description);
                assert!(o.stats.rounds >= 1, "{name}: {}", o.description);
            }
        }
        // The reference qualifiers quantify over aliases, so their
        // proofs must do instantiation work.
        for name in ["unique", "unaliased"] {
            let r = builtin_report(name);
            assert!(r.totals().instantiations > 0, "{name}");
            assert!(r.totals().decisions > 0, "{name}");
        }
    }

    #[test]
    fn totals_aggregate_per_obligation_stats() {
        let r = builtin_report("unique");
        let totals = r.totals();
        let decision_sum: u64 = r.obligations.iter().map(|o| o.stats.decisions).sum();
        let inst_sum: usize = r.obligations.iter().map(|o| o.stats.instantiations).sum();
        assert_eq!(totals.decisions, decision_sum);
        assert_eq!(totals.instantiations, inst_sum);
    }

    #[test]
    fn stats_grow_monotonically_with_the_round_budget() {
        // The prover is deterministic, and a larger round budget extends
        // the identical prefix of work, so every counter is monotone in
        // the budget.
        let registry = Registry::builtins();
        let def = registry.get_by_name("unique").unwrap();
        let small = check_one(
            &registry,
            def,
            Budget {
                max_rounds: 2,
                ..Budget::default()
            },
            RetryPolicy::none(),
            None,
        );
        let full = check_qualifier(&registry, def);
        assert_eq!(full.verdict, Verdict::Sound);
        let (s, f) = (small.totals(), full.totals());
        assert!(s.instantiations <= f.instantiations);
        assert!(s.decisions <= f.decisions);
        assert!(s.rounds <= f.rounds);
    }

    #[test]
    fn starved_budget_reports_resource_out_not_unsound() {
        let registry = Registry::builtins();
        let def = registry.get_by_name("unique").unwrap();
        let report = check_one(
            &registry,
            def,
            Budget {
                max_rounds: 1,
                max_instantiations: 1,
                ..Budget::default()
            },
            RetryPolicy::none(),
            None,
        );
        assert_eq!(report.verdict, Verdict::ResourceOut, "{report}");
        let out: Vec<_> = report
            .obligations
            .iter()
            .filter(|o| o.resource.is_some())
            .collect();
        assert!(!out.is_empty());
        let shown = report.to_string();
        assert!(shown.contains("OUT OF BUDGET"), "{shown}");
    }

    #[test]
    fn the_registry_run_aggregates_every_qualifier() {
        let registry = Registry::builtins();
        let report = check_registry(
            &registry,
            Budget::default(),
            RetryPolicy::none(),
            1,
            &CancelToken::default(),
        );
        assert_eq!(report.reports.len(), 8);
        assert!(report.all_sound(), "{report}");
        assert!(report.obligation_count() >= 19);
        assert!(report.totals.decisions > 0);
        let shown = report.to_string();
        assert!(shown.contains("totals:"), "{shown}");
    }

    #[test]
    fn report_display_is_informative() {
        let registry = Registry::builtins();
        let def = registry.get_by_name("pos").unwrap();
        let report = check_qualifier(&registry, def);
        let shown = report.to_string();
        assert!(shown.contains("qualifier `pos`"));
        assert!(shown.contains("sound"));
        assert!(shown.contains("E1 * E2"));
    }

    #[test]
    fn injected_crash_degrades_one_obligation_not_the_batch() {
        use stq_logic::fault::{self, FaultKind, FaultPlan};
        let registry = Registry::builtins();
        let def = registry.get_by_name("unique").unwrap();
        // unique has 6 obligations; crash the third proof attempt.
        fault::install(FaultPlan::new().inject(2, FaultKind::Panic));
        let report = check_qualifier(&registry, def);
        fault::clear();
        assert_eq!(report.verdict, Verdict::Crashed, "{report}");
        assert_eq!(
            report.obligations.len(),
            6,
            "every obligation has a verdict"
        );
        let crashed: Vec<_> = report
            .obligations
            .iter()
            .filter(|o| o.crashed.is_some())
            .collect();
        assert_eq!(crashed.len(), 1);
        assert!(crashed[0]
            .crashed
            .as_deref()
            .unwrap()
            .contains("injected panic"));
        // The other five still proved, and the display names the crash.
        assert_eq!(report.obligations.iter().filter(|o| o.proved).count(), 5);
        let shown = report.to_string();
        assert!(shown.contains("[CRASHED]"), "{shown}");
        assert!(shown.contains("crash contained"), "{shown}");
    }

    #[test]
    fn refutation_outranks_crash_in_the_verdict() {
        use stq_logic::fault::{self, FaultKind, FaultPlan};
        let mut registry = Registry::new();
        registry
            .add_source(
                "value qualifier big(int Expr E)
                    case E of
                        decl int Const C: C, where C > 0
                    invariant value(E) > 1",
            )
            .unwrap();
        let def = registry.get_by_name("big").unwrap();
        // Crash an attempt that doesn't exist (entry 9): verdict from the
        // real refutation.
        fault::install(FaultPlan::new().inject(9, FaultKind::Panic));
        let report = check_qualifier(&registry, def);
        fault::clear();
        assert_eq!(report.verdict, Verdict::Unsound);
    }

    #[test]
    fn retry_ladder_converts_injected_resource_out_into_proved() {
        use stq_logic::fault::{self, FaultKind, FaultPlan};
        let registry = Registry::builtins();
        let def = registry.get_by_name("pos").unwrap();
        // Force the first attempt of obligation 0 out of budget; the
        // escalated second attempt runs clean.
        fault::install(FaultPlan::new().inject(0, FaultKind::ResourceOut));
        let report = check_one(
            &registry,
            def,
            Budget::default(),
            RetryPolicy::attempts(3),
            None,
        );
        fault::clear();
        assert_eq!(report.verdict, Verdict::Sound, "{report}");
        assert_eq!(report.obligations[0].attempts, 2);
        assert!(report.obligations[0].proved);
        assert!(report.obligations[1..].iter().all(|o| o.attempts == 1));
    }

    #[test]
    fn without_retry_injected_resource_out_is_terminal() {
        use stq_logic::fault::{self, FaultKind, FaultPlan};
        let registry = Registry::builtins();
        let def = registry.get_by_name("pos").unwrap();
        fault::install(FaultPlan::new().inject(0, FaultKind::ResourceOut));
        let report = check_qualifier(&registry, def);
        fault::clear();
        assert_eq!(report.verdict, Verdict::ResourceOut);
        assert_eq!(report.obligations[0].resource, Some(Resource::Injected));
        assert_eq!(report.obligations[0].attempts, 1);
    }

    #[test]
    fn retry_ladder_escalates_a_genuinely_starved_budget_to_success() {
        // A budget too small for unique's obligations, rescued by
        // geometric escalation — the real (non-injected) retry path.
        let registry = Registry::builtins();
        let def = registry.get_by_name("unique").unwrap();
        let starved = Budget {
            max_rounds: 1,
            max_instantiations: 1,
            ..Budget::default()
        };
        let no_retry = check_one(&registry, def, starved, RetryPolicy::none(), None);
        assert_eq!(no_retry.verdict, Verdict::ResourceOut);
        let retried = check_one(
            &registry,
            def,
            starved,
            RetryPolicy {
                max_attempts: 8,
                factor: 4,
            },
            None,
        );
        assert_eq!(retried.verdict, Verdict::Sound, "{retried}");
        assert!(retried.obligations.iter().any(|o| o.attempts > 1));
        let shown = retried.to_string();
        assert!(shown.contains("attempts:"), "{shown}");
    }

    #[test]
    fn the_registry_run_records_the_policy_and_attempts() {
        let registry = Registry::builtins();
        let report = check_registry(
            &registry,
            Budget::default(),
            RetryPolicy::attempts(3),
            1,
            &CancelToken::default(),
        );
        assert_eq!(report.retry.max_attempts, 3);
        assert!(report.all_sound(), "{report}");
        // Nothing ran out, so nothing retried.
        assert_eq!(report.attempt_count(), report.obligation_count() as u64);
    }

    fn fake_result(description: &str) -> ObligationResult {
        ObligationResult {
            description: description.to_string(),
            proved: false,
            countermodel: Vec::new(),
            resource: None,
            crashed: None,
            skipped: false,
            attempts: 1,
            stats: ProverStats::default(),
            duration: Duration::ZERO,
        }
    }

    #[test]
    fn pre_cancelled_token_skips_every_obligation() {
        let registry = Registry::builtins();
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = check_registry(
            &registry,
            Budget::default(),
            RetryPolicy::none(),
            2,
            &cancel,
        );
        assert!(report.interrupted());
        assert_eq!(report.skipped_count(), report.obligation_count());
        assert_eq!(report.attempt_count(), 0);
        for r in &report.reports {
            if r.obligations.is_empty() {
                assert_eq!(r.verdict, Verdict::NoInvariant);
            } else {
                assert_eq!(r.verdict, Verdict::Interrupted, "{r}");
                assert!(r.obligations.iter().all(|o| o.skipped));
            }
        }
        let shown = report.to_string();
        assert!(shown.contains("[SKIPPED]"), "{shown}");
        assert!(shown.contains("INTERRUPTED: partial report"), "{shown}");
    }

    #[test]
    fn expired_token_deadline_interrupts_the_run() {
        let registry = Registry::builtins();
        let cancel = CancelToken::deadline_in(Duration::ZERO);
        let report = check_registry(
            &registry,
            Budget::default(),
            RetryPolicy::none(),
            1,
            &cancel,
        );
        assert!(report.interrupted());
        assert_eq!(report.skipped_count(), report.obligation_count());
    }

    #[test]
    fn unfired_token_matches_the_default_token() {
        let registry = Registry::builtins();
        let run = |cancel: &CancelToken| {
            check_registry(&registry, Budget::default(), RetryPolicy::none(), 2, cancel)
        };
        let plain = run(&CancelToken::default());
        let armed = run(&CancelToken::new());
        assert!(!armed.interrupted());
        assert_eq!(armed.skipped_count(), 0);
        let verdicts =
            |r: &SoundnessReport| -> Vec<Verdict> { r.reports.iter().map(|q| q.verdict).collect() };
        assert_eq!(verdicts(&plain), verdicts(&armed));
        assert_eq!(plain.obligation_count(), armed.obligation_count());
    }

    #[test]
    fn interruption_outranks_resource_out_but_not_crash_or_refutation() {
        let skipped = skipped_result("never ran".to_string(), Duration::ZERO);
        let cancelled = ObligationResult {
            resource: Some(Resource::Cancelled),
            ..fake_result("stopped mid-search")
        };
        let out = ObligationResult {
            resource: Some(Resource::Decisions),
            ..fake_result("out of budget")
        };
        let crashed = ObligationResult {
            crashed: Some("boom".to_string()),
            ..fake_result("panicked")
        };
        let refuted = fake_result("countermodel found");
        let proved = ObligationResult {
            proved: true,
            ..fake_result("fine")
        };
        assert_eq!(
            verdict_for(&[proved.clone(), skipped.clone()]),
            Verdict::Interrupted
        );
        assert_eq!(
            verdict_for(&[out.clone(), skipped.clone()]),
            Verdict::Interrupted
        );
        assert_eq!(
            verdict_for(&[proved.clone(), cancelled]),
            Verdict::Interrupted
        );
        assert_eq!(verdict_for(&[crashed, skipped.clone()]), Verdict::Crashed);
        assert_eq!(verdict_for(&[refuted, skipped]), Verdict::Unsound);
        assert_eq!(verdict_for(&[proved.clone(), out]), Verdict::ResourceOut);
        assert_eq!(verdict_for(&[proved]), Verdict::Sound);
    }

    #[test]
    fn timed_out_and_step_out_counters_split_by_resource() {
        let registry = Registry::builtins();
        let def = registry.get_by_name("unique").unwrap();
        let starved = Budget {
            max_rounds: 1,
            max_instantiations: 1,
            ..Budget::default()
        };
        let report = check_defs_pipeline_cancellable(
            &registry,
            &[def],
            starved,
            RetryPolicy::none(),
            1,
            None,
            &CancelToken::default(),
        );
        assert_eq!(report.timed_out_count(), 0);
        assert!(report.step_out_count() > 0);
        assert!(!report.interrupted());
    }

    #[test]
    fn conclusive_results_before_cancellation_reach_the_cache() {
        // Discharge one obligation before the token fires and the rest
        // after: the conclusive result persists, the skipped ones don't,
        // and a resumed run replays the conclusive prefix as cache hits.
        let dir = std::env::temp_dir().join(format!(
            "stq-cancel-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::builtins();
        let def = registry.get_by_name("pos").unwrap();
        let cache = ProofCache::at_dir(&dir).unwrap();
        let cancel = CancelToken::new();
        let mut worker = SolverWorker::new(background_theory());
        let mut obs = obligation_specs(def)
            .into_iter()
            .map(|spec| build_obligation(&registry, def, &spec));
        let first = discharge(
            &mut worker,
            obs.next().unwrap(),
            Budget::default(),
            RetryPolicy::none(),
            Some(&cache),
            &cancel,
        );
        assert!(first.proved && !first.skipped);
        cancel.cancel();
        for ob in obs {
            let r = discharge(
                &mut worker,
                ob,
                Budget::default(),
                RetryPolicy::none(),
                Some(&cache),
                &cancel,
            );
            assert!(
                r.skipped,
                "post-cancel obligations are skipped: {}",
                r.description
            );
            assert_eq!(r.attempts, 0);
        }
        cache.persist().unwrap();
        // A fresh full run over the same store replays the proved
        // obligation as a hit and finishes the rest.
        let warm = ProofCache::at_dir(&dir).unwrap();
        let resumed = check_one(
            &registry,
            def,
            Budget::default(),
            RetryPolicy::none(),
            Some(&warm),
        );
        assert_eq!(resumed.verdict, Verdict::Sound, "{resumed}");
        assert!(warm.hits() >= 1, "resumed run must hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashes_are_not_retried() {
        use stq_logic::fault::{self, FaultKind, FaultPlan};
        let registry = Registry::builtins();
        let def = registry.get_by_name("nonnull").unwrap();
        fault::install(FaultPlan::new().inject(0, FaultKind::Panic));
        let report = check_one(
            &registry,
            def,
            Budget::default(),
            RetryPolicy::attempts(3),
            None,
        );
        fault::clear();
        assert_eq!(report.verdict, Verdict::Crashed);
        assert_eq!(report.obligations[0].attempts, 1, "crash is terminal");
    }
}
