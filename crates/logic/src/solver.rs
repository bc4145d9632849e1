//! The refutation-based prover: a DPLL search that carries theory state
//! on its trail, Nelson–Oppen theory checks (congruence closure as
//! literals are assigned, linear arithmetic at full leaves), and rounds
//! of E-matching instantiation.
//!
//! To prove `axioms, hypotheses ⊢ goal` the solver asserts the axioms and
//! hypotheses together with the negated goal and searches for a
//! theory-consistent assignment. Universal quantifiers become proxy atoms
//! ([`crate::pre`]); whenever the search finds a candidate model, every
//! quantifier asserted true in it is instantiated against the current
//! ground terms, and the search repeats with the new clauses. The
//! obligation is proved when the search space is exhausted.
//!
//! Every attempt runs under a [`Budget`] and reports [`ProverStats`]
//! telemetry (see [`crate::stats`]); an attempt that hits a limit
//! terminates with [`Outcome::ResourceOut`] instead of diverging.
//!
//! # The search
//!
//! Each round runs one iterative DPLL loop over an explicit trail of
//! assigned atoms. At every unit-propagation fixpoint the loop asserts
//! the newly assigned literals into the attempt's e-graph, which it
//! checkpoints per decision level and rolls back on backtrack, so an
//! EUF conflict prunes the branch where it arises — the way Simplify
//! keeps its e-graph in step with the search. Fourier–Motzkin runs once
//! per full leaf, on the e-graph the trail has already built. EUF
//! consistency is monotone, so the search reaches the same leaves in the
//! same order, and finds the same models, as one that checks theories
//! at full leaves only. E-matching then runs on the same e-graph, rolled
//! back to the round start, with the model's equalities merged under a
//! checkpoint of its own.
//!
//! # Cold-path performance
//!
//! Three mechanisms make cold (cache-miss) proving cheap, all of them
//! observable in [`ProverStats`]:
//!
//! * **Shared axiomatization** ([`crate::theory`]): a [`Theory`] attached
//!   via [`Problem::set_theory`] is clausified once; each attempt starts
//!   from the prepared core instead of re-running the front end on every
//!   background axiom (`theory_reuses`).
//! * **Hash-consed terms** ([`crate::arena`]): ground atom sides are
//!   interned into a per-attempt arena (`interned_terms` /
//!   `intern_hits`), and the attempt's one e-graph uses the arena's ids
//!   as its node ids. Each round grows the e-graph by the terms the
//!   arena gained, in id order, so no id is ever translated, and every
//!   union a round makes is rolled back before the next round grows it.
//! * **Per-worker solver reuse** ([`SolverWorker`]): a worker keeps one
//!   theory-loaded core alive across obligations, rolling it back to the
//!   shared-theory watermark between attempts instead of rebuilding it.
//!
//! None of them changes a verdict or the search trace; the golden traces
//! in `stq-soundness`'s determinism tests pin both counter-for-counter.

use crate::arena::{Head, TermArena, TermId};
use crate::arith::{entails_eq0_counted, feasible_counted, AtomId, Constraint, LinExpr, Rel};
use crate::ematch::{match_trigger_counted, Binding};
use crate::euf::{Checkpoint, Egraph};
use crate::fault::{self, FaultKind};
use crate::pre::{Atom, Clausifier, Lit};
use crate::rat::Rat;
use crate::stats::{Budget, ProverStats, Resource};
use crate::term::{Formula, Term};
use crate::theory::{ground_free_vars, SolveCore, Theory};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use stq_util::{CancelToken, Symbol};

/// The result of a proof attempt: proved, refuted, out of budget, or
/// (under [`Problem::prove_isolated`]) a contained crash.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The obligation is valid: every case was refuted.
    Proved {
        /// Work counters.
        stats: ProverStats,
    },
    /// The search saturated without refuting the negated obligation:
    /// instantiation produced nothing new and a theory-consistent
    /// assignment survives. `model` holds a human-readable candidate
    /// countermodel — the literal assignment of the surviving branch —
    /// useful for diagnosing unsound qualifiers.
    Refuted {
        /// Pretty-printed literals of the surviving assignment.
        model: Vec<String>,
        /// Work counters.
        stats: ProverStats,
    },
    /// A [`Budget`] limit tripped before the search could conclude either
    /// way. The obligation might be provable with a larger budget.
    ResourceOut {
        /// The budgeted resource that ran out.
        resource: Resource,
        /// Work counters at the point the limit tripped.
        stats: ProverStats,
    },
    /// The proof attempt panicked (a prover bug, or an injected fault
    /// from [`crate::fault`]) and [`Problem::prove_isolated`] contained
    /// the crash. Says nothing about the obligation's validity.
    Crashed {
        /// The panic payload, when it was a string (the usual case).
        message: String,
        /// Work counters are lost when an attempt unwinds; always empty.
        stats: ProverStats,
    },
}

impl Outcome {
    /// True if the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved { .. })
    }

    /// True if the search saturated with a surviving candidate model.
    pub fn is_refuted(&self) -> bool {
        matches!(self, Outcome::Refuted { .. })
    }

    /// True if a budget limit tripped before a conclusion.
    pub fn is_resource_out(&self) -> bool {
        matches!(self, Outcome::ResourceOut { .. })
    }

    /// True if the attempt panicked and the crash was contained.
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }

    /// The work counters.
    pub fn stats(&self) -> &ProverStats {
        match self {
            Outcome::Proved { stats }
            | Outcome::Refuted { stats, .. }
            | Outcome::ResourceOut { stats, .. }
            | Outcome::Crashed { stats, .. } => stats,
        }
    }

    fn stats_mut(&mut self) -> &mut ProverStats {
        match self {
            Outcome::Proved { stats }
            | Outcome::Refuted { stats, .. }
            | Outcome::ResourceOut { stats, .. }
            | Outcome::Crashed { stats, .. } => stats,
        }
    }

    /// The contained panic message, when the attempt crashed.
    pub fn crash_message(&self) -> Option<&str> {
        match self {
            Outcome::Crashed { message, .. } => Some(message),
            _ => None,
        }
    }

    /// The candidate countermodel, when the search saturated.
    pub fn model(&self) -> Option<&[String]> {
        match self {
            Outcome::Refuted { model, .. } => Some(model),
            _ => None,
        }
    }

    /// The exhausted resource, when a budget limit tripped.
    pub fn resource(&self) -> Option<Resource> {
        match self {
            Outcome::ResourceOut { resource, .. } => Some(*resource),
            _ => None,
        }
    }
}

/// A proof obligation: background axioms, hypotheses, and a goal.
///
/// See the crate-level documentation for a complete example.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    axioms: Vec<Formula>,
    hyps: Vec<Formula>,
    goal: Option<Formula>,
    /// Shared preprocessed background axiomatization, logically
    /// equivalent to listing its axioms first via [`Problem::axiom`].
    theory: Option<Arc<Theory>>,
    /// Resource limits; adjust before calling [`Problem::prove`].
    pub config: Budget,
    /// Cooperative cancellation handle, polled at round starts, every
    /// `DEADLINE_CHECK_INTERVAL` DPLL decisions, and between
    /// E-matching quantifiers. An external [`CancelToken::cancel`]
    /// yields [`Resource::Cancelled`]; a token deadline folds into the
    /// attempt's effective deadline and yields [`Resource::Time`], same
    /// as [`Budget::timeout`]. The default token never fires and is
    /// **not** part of the fingerprint: cancellation affects whether an
    /// attempt concludes, never what it concludes.
    pub cancel: CancelToken,
}

impl Problem {
    /// Creates an empty problem with default limits.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Sets the resource budget (chainable alternative to assigning
    /// [`Problem::config`] directly).
    pub fn budget(&mut self, budget: Budget) -> &mut Problem {
        self.config = budget;
        self
    }

    /// Adds a background axiom (typically universally quantified with
    /// explicit triggers).
    pub fn axiom(&mut self, f: Formula) -> &mut Problem {
        self.axioms.push(f);
        self
    }

    /// Adds a hypothesis.
    pub fn hypothesis(&mut self, f: Formula) -> &mut Problem {
        self.hyps.push(f);
        self
    }

    /// Sets the goal to prove.
    pub fn goal(&mut self, f: Formula) -> &mut Problem {
        self.goal = Some(f);
        self
    }

    /// Attaches a shared preprocessed background theory. Its axioms are
    /// asserted before this problem's own [`Problem::axiom`]s, and the
    /// expensive clausification front end for them is skipped by
    /// starting from the theory's prepared core. The theory's axioms are
    /// part of the obligation fingerprint exactly as inline axioms would
    /// be.
    pub fn set_theory(&mut self, theory: Arc<Theory>) -> &mut Problem {
        self.theory = Some(theory);
        self
    }

    /// The attached shared theory, if any.
    pub fn theory(&self) -> Option<&Arc<Theory>> {
        self.theory.as_ref()
    }

    /// The obligation's stable structural fingerprint under this
    /// problem's base budget ([`Problem::config`]) and the given retry
    /// ladder — the proof-cache key. Symbol-independent (hashes symbol
    /// strings with de-Bruijn-indexed binders, never interner ids) and
    /// versioned by [`crate::fingerprint::PROVER_VERSION`]; see
    /// [`crate::fingerprint`]. Theory axioms hash exactly as inline
    /// axioms do, so moving axioms into a shared [`Theory`] preserves
    /// the key.
    pub fn fingerprint(&self, retry: crate::stats::RetryPolicy) -> crate::fingerprint::Fingerprint {
        crate::fingerprint::fingerprint_obligation(
            self.theory.as_deref(),
            &self.axioms,
            &self.hyps,
            self.goal.as_ref(),
            &self.config,
            retry,
        )
    }

    /// Attempts to prove `axioms ∧ hypotheses ⇒ goal` within the
    /// configured [`Budget`], stamping wall-clock time into the stats.
    ///
    /// Each call counts as one *solver entry* for the thread's installed
    /// [`crate::fault::FaultPlan`] (if any), and honours any fault the
    /// plan schedules for it.
    ///
    /// # Panics
    ///
    /// Panics if no goal was set, or if the fault plan schedules a
    /// [`FaultKind::Panic`] or [`FaultKind::TheoryError`] at this entry.
    /// Use [`Problem::prove_isolated`] to contain panics as
    /// [`Outcome::Crashed`].
    pub fn prove(&self) -> Outcome {
        self.timed_attempt(|deadline, theory_fault| self.solve_once(None, deadline, theory_fault))
    }

    /// As [`Problem::prove`], but contains any panic the attempt raises
    /// — from a prover bug, a library-misuse invariant, or an injected
    /// fault — and degrades it to [`Outcome::Crashed`] carrying the
    /// panic message. This is the entry point batch drivers should use:
    /// one crashing obligation must not take down its neighbours.
    pub fn prove_isolated(&self) -> Outcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prove())) {
            Ok(outcome) => outcome,
            Err(payload) => Outcome::Crashed {
                message: panic_message(payload.as_ref()),
                stats: ProverStats::default(),
            },
        }
    }

    /// The per-attempt preamble every entry point shares: wall-clock
    /// stamping, effective-deadline computation, fault-plan entry
    /// accounting, and the pre-work cancellation check.
    fn timed_attempt(&self, body: impl FnOnce(Option<Instant>, Option<u64>) -> Outcome) -> Outcome {
        let start = Instant::now();
        // Effective deadline: the earlier of the per-attempt budget
        // timeout and the run-wide token deadline. Both report
        // `Resource::Time` — they are the same "wall clock ran out"
        // condition at different scopes.
        let deadline = match (
            self.config.timeout.map(|t| start + t),
            self.cancel.deadline(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let (entry, fault) = fault::next_entry();
        let theory_fault = match fault {
            Some(FaultKind::Panic) => panic!("injected panic at solver entry {entry}"),
            Some(FaultKind::ResourceOut) => {
                return Outcome::ResourceOut {
                    resource: Resource::Injected,
                    stats: ProverStats {
                        wall: start.elapsed(),
                        ..ProverStats::default()
                    },
                };
            }
            Some(FaultKind::TheoryError) => Some(entry),
            None => None,
        };
        // A cancel observed before any work still reports as this
        // attempt's outcome: batch drivers treat it like any other
        // inconclusive result and never cache it.
        if self.cancel.is_cancelled() {
            return Outcome::ResourceOut {
                resource: Resource::Cancelled,
                stats: ProverStats {
                    wall: start.elapsed(),
                    ..ProverStats::default()
                },
            };
        }
        let mut outcome = body(deadline, theory_fault);
        outcome.stats_mut().wall = start.elapsed();
        outcome
    }

    /// One proof attempt over either a caller-provided reusable core
    /// (reset to its theory watermark first) or a core built here —
    /// cloned from the prepared theory, or empty without one.
    fn solve_once(
        &self,
        reuse: Option<&mut SolveCore>,
        deadline: Option<Instant>,
        theory_fault: Option<u64>,
    ) -> Outcome {
        let mut owned;
        let core = match reuse {
            // Reset up front rather than on completion: a panicking
            // attempt leaves the core dirty, and the rollback here heals
            // it before the next obligation runs.
            Some(core) => {
                core.reset();
                core
            }
            None => {
                owned = self
                    .theory
                    .as_ref()
                    .map_or_else(SolveCore::empty, |t| t.prepared_core());
                &mut owned
            }
        };
        let mut outcome = self.prove_with_core(core, deadline, theory_fault);
        outcome.stats_mut().theory_reuses = u64::from(self.theory.is_some());
        outcome
    }

    fn prove_with_core(
        &self,
        core: &mut SolveCore,
        deadline: Option<Instant>,
        theory_fault: Option<u64>,
    ) -> Outcome {
        let goal = self.goal.clone().expect("no goal set on problem");
        // Free variables act as uninterpreted constants (proving a goal
        // with free variables proves it for arbitrary values).
        let goal = ground_free_vars(&goal);

        // Arena counters are monotone; the deltas over this attempt are
        // its interning telemetry.
        let arena_created0 = core.arena.created();
        let arena_hits0 = core.arena.hits();

        for ax in &self.axioms {
            core.assert_formula(&ground_free_vars(ax));
        }
        for h in &self.hyps {
            core.assert_formula(&ground_free_vars(h));
        }
        core.assert_formula(&goal.negate());

        let mut stats = ProverStats::default();
        // Instantiation dedup keys on hash-consed ids: atom tables only
        // grow within an attempt, so ids are stable across rounds.
        let mut instantiated: HashSet<(usize, Binding)> = HashSet::new();
        // Trigger display names, rendered once per (quantifier, trigger)
        // instead of once per instantiation.
        let mut trigger_names: HashMap<(usize, usize), String> = HashMap::new();
        // The attempt's one e-graph, over the core's arena. Each round
        // grows it by the terms the new atoms brought, the search asserts
        // and rolls back its literals on it, and E-matching merges the
        // model's equalities on it under a checkpoint of its own.
        let mut eg = Egraph::new();

        let mut outcome = 'solve: {
            for round in 0..self.config.max_rounds {
                if self.cancel.is_cancelled() {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Cancelled,
                        stats,
                    };
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Time,
                        stats,
                    };
                }
                stats.rounds = round + 1;
                stats.clauses = core.clauses.len();
                stats.max_clauses = stats.max_clauses.max(core.clauses.len());
                core.extend_atom_tids();
                eg.grow(&core.arena);
                let result = Search {
                    core,
                    eg: &mut eg,
                    stats: &mut stats,
                    max_decisions: self.config.max_decisions,
                    deadline,
                    cancel: &self.cancel,
                    theory_fault,
                }
                .run();
                let model = match result {
                    Err(resource) => break 'solve Outcome::ResourceOut { resource, stats },
                    Ok(None) => break 'solve Outcome::Proved { stats },
                    Ok(Some(model)) => model,
                };

                // Instantiate quantifiers asserted true in the model,
                // matching against every ground term with the model's
                // equalities merged on top.
                let merges_before = eg.merges();
                let rewind = eg.checkpoint();
                for (i, v) in model.iter().enumerate() {
                    if *v == Some(true) {
                        if let Atom::Eq(..) = core.cl.atom(i) {
                            let ca = core.atom_tids[i];
                            if let (Some(a), Some(b)) = (ca.fst, ca.snd) {
                                // The model passed the theory check, so
                                // this merge cannot conflict; ignore the
                                // result defensively.
                                let _ = eg.merge(a, b);
                            }
                        }
                    }
                }
                stats.merges += eg.merges() - merges_before;

                let active: Vec<usize> = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| match (core.cl.atom(i), v) {
                        (Atom::Quant(q), Some(true)) => Some(*q),
                        _ => None,
                    })
                    .collect();

                let mut fresh = Vec::new();
                let mut instantiation_cap_hit = false;
                for q in active {
                    // E-matching safepoint: one poll per active quantifier
                    // bounds the time between polls by one trigger sweep.
                    if self.cancel.is_cancelled() {
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Cancelled,
                            stats,
                        };
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Time,
                            stats,
                        };
                    }
                    let closure = Arc::clone(&core.cl.quants[q]);
                    let proxy_atom = core.cl.quant_atom(q);
                    for (ti, trigger) in closure.triggers.iter().enumerate() {
                        let (bindings, candidates) = match_trigger_counted(&eg, trigger);
                        stats.ematch_candidates += candidates;
                        for binding in bindings {
                            if stats.instantiations >= self.config.max_instantiations {
                                instantiation_cap_hit = true;
                                break;
                            }
                            // The trigger must bind every quantified variable.
                            if !closure
                                .vars
                                .iter()
                                .all(|(v, _)| binding.iter().any(|(x, _)| x == v))
                            {
                                continue;
                            }
                            if !instantiated.insert((q, binding.clone())) {
                                continue;
                            }
                            stats.instantiations += 1;
                            let name = trigger_names
                                .entry((q, ti))
                                .or_insert_with(|| render_trigger(trigger))
                                .clone();
                            *stats.instantiations_by_trigger.entry(name).or_insert(0) += 1;
                            let subst: Vec<(Symbol, Term)> = binding
                                .iter()
                                .map(|&(x, id)| (x, core.arena.term(id).clone()))
                                .collect();
                            let inst = closure.body.subst(&subst);
                            let mut inst_clauses = core.cl.clausify(&inst);
                            // Guard each clause with the proxy: ¬Q ∨ instance.
                            if let Some(p) = proxy_atom {
                                for c in &mut inst_clauses {
                                    c.push(Lit {
                                        atom: p,
                                        pos: false,
                                    });
                                }
                            }
                            fresh.extend(inst_clauses);
                        }
                    }
                }
                eg.rollback(rewind);
                let added = core.add_clauses(fresh);
                stats.clauses = core.clauses.len();
                stats.max_clauses = stats.max_clauses.max(core.clauses.len());
                if core.clauses.len() > self.config.max_clauses {
                    break 'solve Outcome::ResourceOut {
                        resource: Resource::Clauses,
                        stats,
                    };
                }
                if added == 0 {
                    if instantiation_cap_hit {
                        // The cap stopped instantiation before saturation; the
                        // surviving model is not evidence of anything.
                        break 'solve Outcome::ResourceOut {
                            resource: Resource::Instantiations,
                            stats,
                        };
                    }
                    // True saturation: no instantiation produces anything new,
                    // and a theory-consistent assignment survives.
                    break 'solve Outcome::Refuted {
                        model: render_model(&core.cl, &model),
                        stats,
                    };
                }
            }

            Outcome::ResourceOut {
                resource: Resource::Rounds,
                stats,
            }
        };

        // Interning telemetry, stamped once at the single exit.
        let s = outcome.stats_mut();
        s.interned_terms = core.arena.created() - arena_created0;
        s.intern_hits = core.arena.hits() - arena_hits0;
        outcome
    }
}

/// A worker that keeps one theory-loaded solving core alive across many
/// proving attempts — the per-worker solver-reuse mechanism of the
/// parallel checking pipeline.
///
/// Between obligations the core is rolled back to its shared-theory
/// watermark (a push/pop-style scoped reset) instead of being rebuilt,
/// so the background axioms are clausified exactly once per worker
/// lifetime. The rollback runs at the *start* of each attempt, which
/// also heals a core left dirty by a contained panic.
pub struct SolverWorker {
    theory: Arc<Theory>,
    core: SolveCore,
}

impl SolverWorker {
    /// A worker primed with the given theory.
    pub fn new(theory: Arc<Theory>) -> SolverWorker {
        let core = theory.prepared_core();
        SolverWorker { theory, core }
    }

    /// Proves one obligation, reusing this worker's resident core when
    /// the problem carries the same shared theory; otherwise falls back
    /// to [`Problem::prove`] semantics. Outcomes and stats are identical
    /// either way — reuse only skips redundant preprocessing.
    pub fn prove(&mut self, problem: &Problem) -> Outcome {
        let reusable = problem
            .theory()
            .is_some_and(|t| Arc::ptr_eq(t, &self.theory));
        problem.timed_attempt(|deadline, theory_fault| {
            let reuse = reusable.then_some(&mut self.core);
            problem.solve_once(reuse, deadline, theory_fault)
        })
    }

    /// As [`SolverWorker::prove`], containing panics as
    /// [`Outcome::Crashed`]. The next attempt's watermark rollback
    /// discards whatever the crashed attempt left in the core.
    pub fn prove_isolated(&mut self, problem: &Problem) -> Outcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prove(problem))) {
            Ok(outcome) => outcome,
            Err(payload) => Outcome::Crashed {
                message: panic_message(payload.as_ref()),
                stats: ProverStats::default(),
            },
        }
    }
}

/// Extracts the human-readable message from a caught panic payload.
/// `panic!` with a literal yields `&'static str`; with formatting,
/// `String`; anything else is opaque.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Renders a trigger multi-pattern as the stable string key used in
/// [`ProverStats::instantiations_by_trigger`].
fn render_trigger(trigger: &[Term]) -> String {
    let parts: Vec<String> = trigger.iter().map(ToString::to_string).collect();
    parts.join(", ")
}

fn render_model(cl: &Clausifier, model: &[Option<bool>]) -> Vec<String> {
    model
        .iter()
        .enumerate()
        .filter_map(|(i, v)| {
            let pos = (*v)?;
            let atom = match cl.atom(i) {
                Atom::Eq(a, b) => format!("{a} = {b}"),
                Atom::Le(a, b) => format!("{a} <= {b}"),
                Atom::Lt(a, b) => format!("{a} < {b}"),
                Atom::Pred(p, args) if args.is_empty() => format!("{p}"),
                Atom::Pred(p, args) => {
                    let rendered: Vec<String> = args.iter().map(ToString::to_string).collect();
                    format!("{p}({})", rendered.join(", "))
                }
                // Quantifier proxies carry no ground information worth
                // showing in a countermodel.
                Atom::Quant(_) => return None,
            };
            Some(if pos { atom } else { format!("!({atom})") })
        })
        .collect()
}

/// One decision level of the trail search.
struct Level {
    /// Trail length before the decision literal was pushed.
    trail_len: usize,
    /// The e-graph with exactly the first `trail_len` trail entries
    /// asserted.
    cp: Checkpoint,
    /// The decision literal, tried in its own polarity first.
    lit: Lit,
    /// Whether the opposite polarity is on the trail.
    flipped: bool,
}

/// One round's DPLL search over the current clause set.
struct Search<'a> {
    /// The attempt's clauses, atoms and atom operand ids.
    core: &'a SolveCore,
    /// The attempt's e-graph, grown over every atom operand.
    eg: &'a mut Egraph,
    /// The attempt's counters; the search adds its work to them.
    stats: &'a mut ProverStats,
    /// [`Budget::max_decisions`], checked against the attempt-wide count.
    max_decisions: u64,
    deadline: Option<Instant>,
    cancel: &'a CancelToken,
    /// When set (by an installed [`crate::fault::FaultPlan`]), the first
    /// theory check panics, simulating a theory-solver bug deep inside
    /// the search. Carries the solver entry index for the panic message.
    theory_fault: Option<u64>,
}

/// How many decisions elapse between wall-clock deadline checks; each
/// decision already scans every clause, so checking this often keeps the
/// overhead of `Instant::now` well under the noise floor.
const DEADLINE_CHECK_INTERVAL: u64 = 64;

impl Search<'_> {
    /// Returns a theory-consistent assignment, `None` if none exists
    /// (the clause set is unsatisfiable modulo the theories), or the
    /// resource that stopped the search first. Leaves the e-graph as it
    /// found it, so E-matching starts from the round-start graph and the
    /// next round can grow it ([`Egraph::grow`] is not supported under
    /// active unions).
    fn run(mut self) -> Result<Option<Vec<Option<bool>>>, Resource> {
        let start = self.eg.checkpoint();
        let merges0 = self.eg.merges();
        let result = self.search();
        self.eg.rollback(start);
        self.stats.merges += self.eg.merges() - merges0;
        result
    }

    /// Depth-first search over an explicit trail. Each pass propagates
    /// to a fixpoint and asserts the new trail entries into the e-graph,
    /// so an EUF conflict prunes the branch where it arises. It then
    /// decides the first unassigned literal of the first unsatisfied
    /// clause or, with every clause satisfied, checks arithmetic at the
    /// leaf. A conflict backtracks chronologically to the newest decision
    /// with a polarity left to try.
    ///
    /// EUF consistency is monotone — a subset of a consistent literal set
    /// is consistent — so the pruning removes only subtrees without an
    /// EUF-consistent leaf, and the search meets the same leaves in the
    /// same order as a search that checks theories at leaves only.
    fn search(&mut self) -> Result<Option<Vec<Option<bool>>>, Resource> {
        let mut assign = vec![None; self.core.cl.atoms().len()];
        let mut trail: Vec<usize> = Vec::new();
        let mut levels: Vec<Level> = Vec::new();
        loop {
            // Entries below the newest level are already in the e-graph.
            let asserted = levels.last().map_or(0, |l| l.trail_len);
            if self.propagate(&mut assign, &mut trail)
                && self.assert_euf(&assign, &trail[asserted..])
            {
                match self.branch(&assign) {
                    Some(lit) => {
                        self.decide()?;
                        levels.push(Level {
                            trail_len: trail.len(),
                            cp: self.eg.checkpoint(),
                            lit,
                            flipped: false,
                        });
                        assign[lit.atom] = Some(lit.pos);
                        trail.push(lit.atom);
                        continue;
                    }
                    None if self.arith_consistent(&assign) => return Ok(Some(assign)),
                    None => {}
                }
            }
            self.stats.conflicts += 1;
            loop {
                let Some(level) = levels.last_mut() else {
                    return Ok(None);
                };
                for &a in &trail[level.trail_len..] {
                    assign[a] = None;
                }
                trail.truncate(level.trail_len);
                self.eg.rollback(level.cp);
                if !level.flipped {
                    level.flipped = true;
                    assign[level.lit.atom] = Some(!level.lit.pos);
                    trail.push(level.lit.atom);
                    break;
                }
                levels.pop();
            }
        }
    }

    /// Unit propagation to a fixpoint by full clause scans, pushing every
    /// implied atom on the trail. False when a clause has every literal
    /// false.
    fn propagate(&mut self, assign: &mut [Option<bool>], trail: &mut Vec<usize>) -> bool {
        loop {
            let mut progressed = false;
            for clause in &self.core.clauses {
                let mut satisfied = false;
                let mut unassigned: Option<Lit> = None;
                let mut unassigned_count = 0;
                for &lit in clause {
                    match assign[lit.atom] {
                        Some(v) if v == lit.pos => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            unassigned_count += 1;
                            unassigned = Some(lit);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => return false,
                    1 => {
                        let lit = unassigned.expect("count is one");
                        assign[lit.atom] = Some(lit.pos);
                        trail.push(lit.atom);
                        self.stats.propagations += 1;
                        progressed = true;
                    }
                    _ => {}
                }
            }
            if !progressed {
                return true;
            }
        }
    }

    /// The branching literal: the first unassigned literal of the first
    /// unsatisfied clause, or `None` when every clause is satisfied.
    fn branch(&self, assign: &[Option<bool>]) -> Option<Lit> {
        self.core
            .clauses
            .iter()
            .filter(|clause| !clause.iter().any(|l| assign[l.atom] == Some(l.pos)))
            .find_map(|clause| clause.iter().copied().find(|l| assign[l.atom].is_none()))
    }

    /// Counts a decision against the budget, polling the cancel token and
    /// the deadline every `DEADLINE_CHECK_INTERVAL` decisions.
    fn decide(&mut self) -> Result<(), Resource> {
        self.stats.decisions += 1;
        if self.stats.decisions > self.max_decisions {
            return Err(Resource::Decisions);
        }
        if self.stats.decisions.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
            if self.cancel.is_cancelled() {
                return Err(Resource::Cancelled);
            }
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Resource::Time);
            }
        }
        Ok(())
    }

    /// The EUF check at a propagation fixpoint: asserts the trail entries
    /// not yet in the e-graph. A true equality merges, a false one adds a
    /// disequality, and a predicate merges its application with the `1`
    /// or `0` marker. False on a conflict.
    fn assert_euf(&mut self, assign: &[Option<bool>], fresh: &[usize]) -> bool {
        if let Some(entry) = self.theory_fault {
            panic!("injected theory-solver failure at solver entry {entry}");
        }
        self.stats.theory_checks += 1;
        let core = self.core;
        fresh.iter().all(|&i| {
            let ca = core.atom_tids[i];
            let holds = assign[i] == Some(true);
            let asserted = match core.cl.atom(i) {
                Atom::Eq(..) => {
                    let a = ca.fst.expect("equality operands are interned");
                    let b = ca.snd.expect("equality operands are interned");
                    if holds {
                        self.eg.merge(a, b)
                    } else {
                        self.eg.assert_diseq(a, b)
                    }
                }
                Atom::Pred(..) => {
                    let t = ca.fst.expect("predicate arguments are interned");
                    let marker = if holds { core.tid_one } else { core.tid_zero };
                    self.eg.merge(t, marker)
                }
                Atom::Le(..) | Atom::Lt(..) | Atom::Quant(_) => Ok(()),
            };
            asserted.is_ok()
        })
    }

    /// The arithmetic check at a full leaf, on the e-graph the trail has
    /// built: Fourier–Motzkin over the linearized arithmetic literals,
    /// then exact integer-disequality entailment. Two cuts leave the
    /// answer unchanged. A constraint that linearizes to a constant is
    /// decided on the spot, and dropped when it holds (every true
    /// equality EUF already merged becomes `0 = 0`). A disequality skips
    /// the entailment probes when its difference is a constant, or
    /// mentions an atom that no constraint does: that atom can take any
    /// value in a feasible system, so equality is never entailed.
    fn arith_consistent(&mut self, assign: &[Option<bool>]) -> bool {
        self.stats.theory_checks += 1;
        let core = self.core;
        let eg = &*self.eg;
        let mut constraints: Vec<Constraint> = Vec::new();
        let mut diseqs: Vec<LinExpr> = Vec::new();
        for (i, v) in assign.iter().enumerate() {
            let Some(value) = *v else { continue };
            let rel = match core.cl.atom(i) {
                Atom::Eq(..) => Rel::Eq,
                Atom::Le(..) => Rel::Le,
                Atom::Lt(..) => Rel::Lt,
                Atom::Pred(..) | Atom::Quant(_) => continue,
            };
            let ca = core.atom_tids[i];
            let a = linearize(
                &core.arena,
                eg,
                ca.fst.expect("arithmetic operands are ground"),
            );
            let b = linearize(
                &core.arena,
                eg,
                ca.snd.expect("arithmetic operands are ground"),
            );
            let c = match (rel, value) {
                (_, true) => Constraint {
                    expr: a.sub(&b),
                    rel,
                },
                (Rel::Eq, false) => {
                    diseqs.push(a.sub(&b));
                    continue;
                }
                // ¬(a ≤ b)  ⇔  b - a < 0
                (Rel::Le, false) => Constraint::lt0(b.sub(&a)),
                // ¬(a < b)  ⇔  b - a ≤ 0
                (Rel::Lt, false) => Constraint::le0(b.sub(&a)),
            };
            match c.expr.as_constant() {
                None => constraints.push(c),
                Some(k) => {
                    let holds = match c.rel {
                        Rel::Eq => k.is_zero(),
                        Rel::Le => k <= Rat::ZERO,
                        Rel::Lt => k < Rat::ZERO,
                    };
                    if !holds {
                        return false;
                    }
                }
            }
        }
        let (feasible, elims) = feasible_counted(&constraints);
        self.stats.fm_eliminations += elims;
        if !feasible {
            return false;
        }
        // A disequality a ≠ b conflicts exactly when the constraints
        // entail a = b.
        for d in &diseqs {
            if let Some(k) = d.as_constant() {
                if k.is_zero() {
                    return false;
                }
                continue;
            }
            let free = |x: &AtomId| !constraints.iter().any(|c| c.expr.terms.contains_key(x));
            if d.terms.keys().any(free) {
                continue;
            }
            let (entailed, elims) = entails_eq0_counted(&constraints, d);
            self.stats.fm_eliminations += elims;
            if entailed {
                return false;
            }
        }
        true
    }
}

/// Converts an interned ground term into a linear expression over opaque
/// atoms, canonicalizing uninterpreted subterms by their
/// congruence-closure representative (this is how equality facts flow
/// into arithmetic).
fn linearize(arena: &TermArena, eg: &Egraph, id: TermId) -> LinExpr {
    match arena.head(id) {
        Head::Int(v) => LinExpr::constant(Rat::from(v)),
        Head::Sym(f) => {
            let args = arena.args(id);
            match (f.as_str(), args.len()) {
                ("+", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    a.add(&b)
                }
                ("-", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    a.sub(&b)
                }
                ("neg", 1) => {
                    let x = args[0];
                    linearize(arena, eg, x).scale(-Rat::ONE)
                }
                ("*", 2) => {
                    let (x, y) = (args[0], args[1]);
                    let a = linearize(arena, eg, x);
                    let b = linearize(arena, eg, y);
                    if let Some(k) = a.as_constant() {
                        b.scale(k)
                    } else if let Some(k) = b.as_constant() {
                        a.scale(k)
                    } else {
                        opaque(eg, id)
                    }
                }
                _ => opaque(eg, id),
            }
        }
    }
}

fn opaque(eg: &Egraph, id: TermId) -> LinExpr {
    match eg.class_int_value(id) {
        Some(v) => LinExpr::constant(Rat::from(v)),
        None => LinExpr::atom(eg.find(id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn x() -> Term {
        Term::cnst("x")
    }
    fn y() -> Term {
        Term::cnst("y")
    }

    fn prove(hyps: Vec<Formula>, goal: Formula) -> bool {
        let mut p = Problem::new();
        for h in hyps {
            p.hypothesis(h);
        }
        p.goal(goal);
        p.prove().is_proved()
    }

    #[test]
    fn trivial_goal() {
        assert!(prove(vec![], Formula::True));
    }

    #[test]
    fn unprovable_false() {
        assert!(!prove(vec![], Formula::False));
    }

    #[test]
    fn hypothesis_discharges_goal() {
        let p = Formula::pred("p", vec![]);
        assert!(prove(vec![p.clone()], p));
    }

    #[test]
    fn modus_ponens() {
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        assert!(prove(vec![p.clone(), p.implies(q.clone())], q));
    }

    #[test]
    fn arithmetic_transitivity() {
        // x < y, y < 3 ⊢ x < 3
        assert!(prove(
            vec![x().lt(&y()), y().lt(&Term::int(3))],
            x().lt(&Term::int(3)),
        ));
    }

    #[test]
    fn arithmetic_non_theorem() {
        // x < y does not entail y < x.
        assert!(!prove(vec![x().lt(&y())], y().lt(&x())));
    }

    #[test]
    fn euf_congruence() {
        // x = y ⊢ f(x) = f(y)
        let fx = Term::app("f", vec![x()]);
        let fy = Term::app("f", vec![y()]);
        assert!(prove(vec![x().eq(&y())], fx.eq(&fy)));
    }

    #[test]
    fn euf_not_injective() {
        // f(x) = f(y) does not entail x = y.
        let fx = Term::app("f", vec![x()]);
        let fy = Term::app("f", vec![y()]);
        assert!(!prove(vec![fx.eq(&fy)], x().eq(&y())));
    }

    #[test]
    fn equalities_flow_into_arithmetic() {
        // x = y + 1 ∧ y ≥ 0 ⊢ x > 0
        assert!(prove(
            vec![x().eq(&y().add(&Term::int(1))), Term::int(0).le(&y()),],
            x().gt0(),
        ));
    }

    #[test]
    fn disequality_reasoning() {
        // x ≤ 0 ∧ x ≥ 0 ⊢ x = 0, via disequality entailment.
        assert!(prove(
            vec![x().le(&Term::int(0)), Term::int(0).le(&x())],
            x().eq(&Term::int(0)),
        ));
    }

    #[test]
    fn case_split_over_disjunction() {
        // (p ∨ q), p ⇒ r, q ⇒ r ⊢ r
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        let r = Formula::pred("r", vec![]);
        assert!(prove(
            vec![
                Formula::or(vec![p.clone(), q.clone()]),
                p.implies(r.clone()),
                q.implies(r.clone()),
            ],
            r,
        ));
    }

    #[test]
    fn distinct_integer_literals() {
        // x = 3 ⊢ x ≠ 5
        assert!(prove(vec![x().eq(&Term::int(3))], x().ne(&Term::int(5)),));
    }

    #[test]
    fn axiom_instantiation_by_trigger() {
        // forall a. p(a) ⇒ q(a), with trigger p(a); p(c) ⊢ q(c).
        let a = Term::var("a", Sort::Int);
        let ax = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("pp", vec![a.clone()])]],
            Formula::pred("pp", vec![a.clone()]).implies(Formula::pred("qq", vec![a])),
        );
        let c = Term::cnst("c");
        let mut p = Problem::new();
        p.axiom(ax);
        p.hypothesis(Formula::pred("pp", vec![c.clone()]));
        p.goal(Formula::pred("qq", vec![c]));
        assert!(p.prove().is_proved());
    }

    #[test]
    fn multiplication_sign_lemma() {
        // The paper's pos obligation: with the triggered sign lemma,
        // x > 0 ∧ y > 0 ⊢ x*y > 0.
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let lemma = Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        );
        let mut p = Problem::new();
        p.axiom(lemma);
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        assert!(p.prove().is_proved());
    }

    #[test]
    fn subtraction_of_positives_is_not_positive() {
        // The paper's erroneous E1 - E2 rule must NOT be provable.
        let outcome = {
            let mut p = Problem::new();
            p.hypothesis(x().gt0());
            p.hypothesis(y().gt0());
            p.goal(x().sub(&y()).gt0());
            p.prove()
        };
        assert!(!outcome.is_proved());
        match outcome {
            Outcome::Refuted { model, .. } => assert!(!model.is_empty()),
            other => panic!("expected a countermodel, got {other:?}"),
        }
    }

    #[test]
    fn negation_of_negative_is_positive() {
        // neg qualifier: x < 0 ⊢ -x > 0.
        assert!(prove(vec![x().lt0()], x().neg().gt0()));
    }

    #[test]
    fn nested_forall_hypothesis_via_proxy() {
        // (forall a. p(a)) ⊢ p(c): the hypothesis quantifier becomes a
        // proxy that unit-propagates to true and instantiates on c.
        let a = Term::var("a", Sort::Int);
        let hyp = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p2", vec![a.clone()])]],
            Formula::pred("p2", vec![a]),
        );
        let c = Term::cnst("c");
        // Mention p2(c) in the goal so the trigger has something to match.
        assert!(prove(vec![hyp], Formula::pred("p2", vec![c])));
    }

    #[test]
    fn guarded_quantifier_under_disjunction() {
        // h: q ∨ (forall a. {p3(a)} p3(a) ⇒ r), ¬q, p3(c) ⊢ r... simplified:
        // the quantifier proxy participates in case splitting.
        let a = Term::var("a", Sort::Int);
        let q = Formula::pred("q3", vec![]);
        let r = Formula::pred("r3", vec![]);
        let fa = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p3", vec![a.clone()])]],
            Formula::pred("p3", vec![a]).implies(r.clone()),
        );
        let hyp = Formula::or(vec![q.clone(), fa]);
        let c = Term::cnst("c");
        assert!(prove(
            vec![hyp, q.negate(), Formula::pred("p3", vec![c])],
            r,
        ));
    }

    #[test]
    fn negated_goal_forall_skolemizes() {
        // ⊢ forall a. p4(a) is not provable without axioms; the prover
        // skolemizes and reports unknown rather than looping.
        let a = Term::var("a", Sort::Int);
        let goal = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![],
            Formula::pred("p4", vec![a]),
        );
        assert!(!prove(vec![], goal));
    }

    #[test]
    fn goal_forall_provable_from_axiom() {
        // forall a. {p5(a)} p5(a) ⊢ forall b. p5(b): skolemize the goal to
        // p5(sk); the axiom instantiates on sk via its trigger... note the
        // trigger p5(a) matches the goal's skolemized p5(sk) term.
        let a = Term::var("a", Sort::Int);
        let ax = Formula::forall(
            vec![(stq_util::Symbol::intern("a"), Sort::Int)],
            vec![vec![Term::app("p5t", vec![a.clone()])]],
            Formula::pred("p5", vec![Term::app("p5t", vec![a])]),
        );
        let b = Term::var("b", Sort::Int);
        let goal = Formula::forall(
            vec![(stq_util::Symbol::intern("b"), Sort::Int)],
            vec![],
            Formula::pred("p5", vec![Term::app("p5t", vec![b])]),
        );
        assert!(prove(vec![ax], goal));
    }

    #[test]
    fn select_store_axioms() {
        // The store axioms used by the soundness checker.
        let s = Term::var("s", Sort::other("Store"));
        let aa = Term::var("a", Sort::Int);
        let bb = Term::var("b", Sort::Int);
        let vv = Term::var("v", Sort::Int);
        let store = |s: &Term, a: &Term, v: &Term| {
            Term::app("store", vec![s.clone(), a.clone(), v.clone()])
        };
        let select = |s: &Term, a: &Term| Term::app("select", vec![s.clone(), a.clone()]);
        let vars = |names: &[&str]| -> Vec<(stq_util::Symbol, Sort)> {
            names
                .iter()
                .map(|n| {
                    let sort = if *n == "s" {
                        Sort::other("Store")
                    } else {
                        Sort::Int
                    };
                    (stq_util::Symbol::intern(n), sort)
                })
                .collect()
        };
        let ax1 = Formula::forall(
            vars(&["s", "a", "v"]),
            vec![vec![select(&store(&s, &aa, &vv), &aa)]],
            select(&store(&s, &aa, &vv), &aa).eq(&vv),
        );
        let ax2 = Formula::forall(
            vars(&["s", "a", "b", "v"]),
            vec![vec![select(&store(&s, &aa, &vv), &bb)]],
            Formula::or(vec![
                aa.eq(&bb),
                select(&store(&s, &aa, &vv), &bb).eq(&select(&s, &bb)),
            ]),
        );

        let sigma = Term::cnst("sigma");
        let l1 = Term::cnst("l1");
        let l2 = Term::cnst("l2");
        let val = Term::int(7);

        // select(store(σ, l1, 7), l1) = 7
        let mut p = Problem::new();
        p.axiom(ax1.clone());
        p.axiom(ax2.clone());
        p.goal(select(&store(&sigma, &l1, &val), &l1).eq(&val));
        assert!(p.prove().is_proved());

        // l1 ≠ l2 ⊢ select(store(σ, l1, 7), l2) = select(σ, l2)
        let mut p = Problem::new();
        p.axiom(ax1);
        p.axiom(ax2);
        p.hypothesis(l1.ne(&l2));
        p.goal(select(&store(&sigma, &l1, &val), &l2).eq(&select(&sigma, &l2)));
        assert!(p.prove().is_proved());
    }

    #[test]
    fn iff_round_trips_through_the_prover() {
        // (p ⇔ q), p ⊢ q and (p ⇔ q), ¬p ⊢ ¬q.
        let p = Formula::pred("pi", vec![]);
        let q = Formula::pred("qi", vec![]);
        assert!(prove(vec![p.clone().iff(q.clone()), p.clone()], q.clone(),));
        assert!(prove(
            vec![p.clone().iff(q.clone()), p.clone().negate()],
            q.negate(),
        ));
        // p ⇔ q alone does not prove q.
        let r = prove(
            vec![p.clone().iff(Formula::pred("qi", vec![]))],
            Formula::pred("qi", vec![]),
        );
        assert!(!r);
    }

    #[test]
    fn stats_are_populated() {
        let mut p = Problem::new();
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.rounds >= 1);
        // Proving anything requires refuting every branch, so at least
        // one conflict; the hypothesis and negated goal unit-propagate.
        assert!(stats.conflicts >= 1);
        assert!(stats.propagations >= 1);
        assert!(stats.clauses >= 2);
    }

    #[test]
    fn theory_checks_and_eliminations_are_counted() {
        // x < y, y < 3 ⊢ x < 3 is propositionally consistent when the
        // negated goal is asserted, so refuting it takes a theory check
        // with Fourier–Motzkin work.
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.theory_checks >= 1);
        assert!(stats.fm_eliminations >= 1);
    }

    #[test]
    fn instantiations_are_attributed_to_triggers() {
        // The sign-lemma proof instantiates exactly one trigger: a * b.
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        let lemma = Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        );
        let mut p = Problem::new();
        p.axiom(lemma);
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        let outcome = p.prove();
        assert!(outcome.is_proved());
        let stats = outcome.stats();
        assert!(stats.instantiations >= 1);
        assert!(stats.ematch_candidates >= 1);
        let per_trigger: u64 = stats.instantiations_by_trigger.values().sum();
        assert_eq!(per_trigger, stats.instantiations as u64);
        assert!(stats
            .instantiations_by_trigger
            .keys()
            .any(|k| k.contains('*')));
    }

    #[test]
    fn proved_wall_time_is_stamped() {
        let mut p = Problem::new();
        p.goal(Formula::True);
        // Duration is monotone but can legitimately measure zero on a
        // trivial goal; the stamp itself must exist for every outcome.
        let _ = p.prove().stats().wall;
    }

    #[test]
    fn zero_decision_budget_reports_resource_out() {
        let p = Formula::pred("p", vec![]);
        let q = Formula::pred("q", vec![]);
        let r = Formula::pred("r", vec![]);
        let mut problem = Problem::new();
        problem.config.max_decisions = 0;
        problem.hypothesis(Formula::or(vec![p, q]));
        problem.goal(r);
        let outcome = problem.prove();
        assert_eq!(outcome.resource(), Some(Resource::Decisions));
    }

    #[test]
    fn pre_cancelled_token_reports_cancelled_not_time() {
        let mut p = Problem::new();
        p.goal(Term::int(1).eq(&Term::int(1)));
        p.cancel = CancelToken::new();
        p.cancel.cancel();
        let outcome = p.prove();
        assert_eq!(outcome.resource(), Some(Resource::Cancelled));
        // Cancellation is not a crash and not a conclusion.
        assert!(!outcome.is_proved() && !outcome.is_refuted() && !outcome.is_crashed());
    }

    #[test]
    fn expired_token_deadline_reports_time() {
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        p.cancel = CancelToken::deadline_in(std::time::Duration::ZERO);
        let outcome = p.prove();
        assert_eq!(outcome.resource(), Some(Resource::Time));
    }

    #[test]
    fn default_token_changes_nothing() {
        // The always-quiet token must not perturb outcomes: same proof,
        // same conclusion, with and without an explicit fresh token.
        let mut p = Problem::new();
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        assert!(p.prove().is_proved());
        p.cancel = CancelToken::new();
        assert!(p.prove().is_proved());
    }

    #[test]
    #[should_panic(expected = "no goal")]
    fn missing_goal_panics() {
        Problem::new().prove();
    }

    #[test]
    fn prove_isolated_contains_the_missing_goal_panic() {
        let outcome = Problem::new().prove_isolated();
        assert!(outcome.is_crashed());
        assert!(
            outcome.crash_message().unwrap().contains("no goal"),
            "{outcome:?}"
        );
        assert!(!outcome.is_proved() && !outcome.is_refuted() && !outcome.is_resource_out());
    }

    fn trivial_problem() -> Problem {
        let mut p = Problem::new();
        p.goal(Term::int(1).eq(&Term::int(1)));
        p
    }

    #[test]
    fn injected_panic_is_contained_and_scoped_to_its_entry() {
        fault::install(fault::FaultPlan::new().inject(1, FaultKind::Panic));
        let p = trivial_problem();
        assert!(p.prove_isolated().is_proved(), "entry 0: no fault");
        let crashed = p.prove_isolated();
        assert_eq!(
            crashed.crash_message(),
            Some("injected panic at solver entry 1")
        );
        assert!(p.prove_isolated().is_proved(), "entry 2: no fault");
        fault::clear();
    }

    #[test]
    fn injected_resource_out_names_the_injected_resource() {
        fault::install(fault::FaultPlan::new().inject(0, FaultKind::ResourceOut));
        let outcome = trivial_problem().prove();
        assert_eq!(outcome.resource(), Some(Resource::Injected));
        fault::clear();
    }

    #[test]
    fn injected_theory_error_crashes_from_inside_the_search() {
        fault::install(fault::FaultPlan::new().inject(0, FaultKind::TheoryError));
        // Transitivity is invisible to the propositional skeleton, so the
        // refutation search must reach a theory-consistency check.
        let mut p = Problem::new();
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        let outcome = p.prove_isolated();
        fault::clear();
        assert!(outcome.is_crashed(), "{outcome:?}");
        assert!(
            outcome
                .crash_message()
                .unwrap()
                .contains("theory-solver failure"),
            "{outcome:?}"
        );
        // The same problem proves once the plan is gone.
        assert!(p.prove_isolated().is_proved());
    }

    // ---- shared theory / worker-reuse determinism ----

    fn sign_lemma() -> Formula {
        let a = Term::var("a", Sort::Int);
        let b = Term::var("b", Sort::Int);
        Formula::forall(
            vec![
                (stq_util::Symbol::intern("a"), Sort::Int),
                (stq_util::Symbol::intern("b"), Sort::Int),
            ],
            vec![vec![a.mul(&b)]],
            Formula::and(vec![a.gt0(), b.gt0()]).implies(a.mul(&b).gt0()),
        )
    }

    /// A mixed batch exercising instantiation, case splits, EUF, FM, and
    /// a refutation, all against one shared theory.
    fn theory_batch() -> (Arc<Theory>, Vec<Problem>) {
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut problems = Vec::new();
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().mul(&y()).gt0());
        problems.push(p);
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().lt(&y()));
        p.hypothesis(y().lt(&Term::int(3)));
        p.goal(x().lt(&Term::int(3)));
        problems.push(p);
        let mut p = Problem::new();
        p.set_theory(Arc::clone(&theory));
        p.hypothesis(x().gt0());
        p.hypothesis(y().gt0());
        p.goal(x().sub(&y()).gt0()); // refuted
        problems.push(p);
        (theory, problems)
    }

    /// Zeroes the counters that measure preprocessing rather than search
    /// (theory reuse and interning: a shared theory is interned before
    /// the attempt, inline axioms during it), leaving the search-trace
    /// counters that shared and inline axioms, and a reused worker core,
    /// must reproduce exactly.
    fn seed_counters(stats: &ProverStats) -> ProverStats {
        ProverStats {
            theory_reuses: 0,
            interned_terms: 0,
            intern_hits: 0,
            ..stats.without_wall()
        }
    }

    fn verdict(o: &Outcome) -> String {
        match o {
            Outcome::Proved { .. } => "proved".into(),
            Outcome::Refuted { model, .. } => format!("refuted:{model:?}"),
            Outcome::ResourceOut { resource, .. } => format!("out:{resource:?}"),
            Outcome::Crashed { message, .. } => format!("crashed:{message}"),
        }
    }

    #[test]
    fn theory_axioms_prove_like_inline_axioms() {
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut shared = Problem::new();
        shared.set_theory(theory);
        shared.hypothesis(x().gt0());
        shared.hypothesis(y().gt0());
        shared.goal(x().mul(&y()).gt0());
        let mut inline = Problem::new();
        inline.axiom(sign_lemma());
        inline.hypothesis(x().gt0());
        inline.hypothesis(y().gt0());
        inline.goal(x().mul(&y()).gt0());
        let a = shared.prove();
        let b = inline.prove();
        assert_eq!(verdict(&a), verdict(&b));
        assert_eq!(seed_counters(a.stats()), seed_counters(b.stats()));
        // The shared path reuses the prepared core; the inline path
        // preprocessed its axioms itself.
        assert_eq!(a.stats().theory_reuses, 1);
        assert_eq!(b.stats().theory_reuses, 0);
    }

    #[test]
    fn worker_reuse_matches_standalone_proving() {
        let (theory, problems) = theory_batch();
        let mut worker = SolverWorker::new(theory);
        for problem in &problems {
            let reused = worker.prove(problem);
            let standalone = problem.prove();
            assert_eq!(verdict(&reused), verdict(&standalone));
            assert_eq!(
                seed_counters(reused.stats()),
                seed_counters(standalone.stats())
            );
            assert_eq!(reused.stats().theory_reuses, 1);
        }
    }

    #[test]
    fn worker_falls_back_for_foreign_theories() {
        let (theory, _) = theory_batch();
        let mut worker = SolverWorker::new(theory);
        // A problem with a *different* theory instance must not reuse the
        // resident core.
        let other = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut p = Problem::new();
        p.set_theory(other);
        p.hypothesis(x().gt0());
        p.goal(x().gt0());
        let outcome = worker.prove(&p);
        assert!(outcome.is_proved());
        // Falls back to the clone-the-prepared-core path.
        assert_eq!(outcome.stats().theory_reuses, 1);
    }

    #[test]
    fn worker_survives_and_heals_after_contained_panics() {
        let (theory, problems) = theory_batch();
        let mut worker = SolverWorker::new(Arc::clone(&theory));
        let expected: Vec<String> = problems.iter().map(|p| verdict(&p.prove())).collect();

        // Crash the worker mid-batch via an injected panic, then keep
        // proving: the start-of-attempt rollback must heal the core.
        fault::install(fault::FaultPlan::new().inject(1, FaultKind::Panic));
        let first = worker.prove_isolated(&problems[0]);
        let crashed = worker.prove_isolated(&problems[1]);
        let healed = worker.prove_isolated(&problems[2]);
        fault::clear();
        assert_eq!(verdict(&first), expected[0]);
        assert!(crashed.is_crashed());
        assert_eq!(verdict(&healed), expected[2]);

        // And a full clean pass afterwards still matches.
        for (problem, want) in problems.iter().zip(&expected) {
            assert_eq!(verdict(&worker.prove(problem)), *want);
        }
    }

    #[test]
    fn theory_fingerprint_matches_inline_axioms() {
        use crate::stats::RetryPolicy;
        let theory = Arc::new(Theory::new(vec![sign_lemma()]));
        let mut shared = Problem::new();
        shared.set_theory(theory);
        shared.hypothesis(x().gt0());
        shared.goal(x().mul(&y()).gt0());
        let mut inline = Problem::new();
        inline.axiom(sign_lemma());
        inline.hypothesis(x().gt0());
        inline.goal(x().mul(&y()).gt0());
        assert_eq!(
            shared.fingerprint(RetryPolicy::none()),
            inline.fingerprint(RetryPolicy::none()),
            "splitting axioms into a shared theory must not change cache keys"
        );
    }
}
