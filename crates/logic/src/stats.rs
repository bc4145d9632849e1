//! Prover telemetry and resource budgets.
//!
//! The paper's empirical claims are *timings* (§4, §6), so the prover must
//! be measurable: [`ProverStats`] counts the work a proof attempt performs
//! at every layer — DPLL search, theory checks, congruence closure,
//! Fourier–Motzkin, and E-matching — and [`Budget`] bounds that work so a
//! pathological obligation (a matching loop, say) terminates with
//! [`Resource`]`Out` instead of diverging. Simplify shipped the same
//! machinery (instantiation counters and resource limits) for the same
//! reason.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Resource limits for the prover.
///
/// A fresh [`Budget`] (via `Default`) is generous enough for every
/// obligation the qualifier corpus generates; tighten it to bound latency
/// or to study prover behaviour under pressure. When any limit trips, the
/// prover returns [`crate::solver::Outcome::ResourceOut`] naming the
/// exhausted [`Resource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum E-matching instantiation rounds.
    pub max_rounds: usize,
    /// Maximum total quantifier instantiations.
    pub max_instantiations: usize,
    /// Maximum number of clauses before giving up.
    pub max_clauses: usize,
    /// Maximum DPLL decisions before giving up.
    pub max_decisions: u64,
    /// Optional wall-clock deadline for the whole proof attempt.
    pub timeout: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_rounds: 8,
            max_instantiations: 4000,
            max_clauses: 50_000,
            max_decisions: 2_000_000,
            timeout: None,
        }
    }
}

impl Budget {
    /// This budget with the given per-request overrides applied: each
    /// `Some` field of `over` replaces the corresponding base limit.
    /// This is the serve daemon's budget wiring — a resident server
    /// holds one default [`Budget`] and derives a per-request one from
    /// whatever limits the request carries, without the request being
    /// able to *unset* a limit the server imposes (absent fields
    /// inherit, they do not reset to unbounded).
    #[must_use]
    pub fn overridden(self, over: BudgetOverride) -> Budget {
        Budget {
            max_rounds: over.max_rounds.unwrap_or(self.max_rounds),
            max_instantiations: over.max_instantiations.unwrap_or(self.max_instantiations),
            max_clauses: over.max_clauses.unwrap_or(self.max_clauses),
            max_decisions: over.max_decisions.unwrap_or(self.max_decisions),
            timeout: over.timeout.or(self.timeout),
        }
    }

    /// This budget with every limit multiplied by `factor` (saturating),
    /// including the wall-clock deadline. Attempt `k` of the retry
    /// escalation ladder runs under `base.scaled(factor^(k-1))`.
    #[must_use]
    pub fn scaled(&self, factor: u32) -> Budget {
        Budget {
            max_rounds: self.max_rounds.saturating_mul(factor as usize),
            max_instantiations: self.max_instantiations.saturating_mul(factor as usize),
            max_clauses: self.max_clauses.saturating_mul(factor as usize),
            max_decisions: self.max_decisions.saturating_mul(u64::from(factor)),
            timeout: self.timeout.map(|t| t.saturating_mul(factor)),
        }
    }
}

/// Per-request [`Budget`] overrides (see [`Budget::overridden`]): the
/// shape of the optional `budget` object a serve-protocol request may
/// carry. `None` fields inherit the server's base budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetOverride {
    pub max_rounds: Option<usize>,
    pub max_instantiations: Option<usize>,
    pub max_clauses: Option<usize>,
    pub max_decisions: Option<u64>,
    pub timeout: Option<Duration>,
}

impl BudgetOverride {
    /// True when no field is set (the request carried no overrides).
    pub fn is_empty(&self) -> bool {
        *self == BudgetOverride::default()
    }
}

/// Budget-escalation retry policy for obligations that come back
/// [`Resource`]`Out`: attempt `k` (1-based) re-runs the proof under the
/// base [`Budget`] scaled by `factor^(k-1)`, up to `max_attempts` total
/// attempts. `Proved`, `Refuted`, and `Crashed` outcomes are never
/// retried — only resource exhaustion is transient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total proof attempts per obligation, including the first
    /// (`1` = no retry). Zero is treated as one.
    pub max_attempts: u32,
    /// Geometric budget multiplier between attempts.
    pub factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            factor: 2,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy::default()
    }

    /// A policy running up to `max_attempts` total attempts with the
    /// default 2x escalation factor.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Total attempts, normalised so a zero configuration still runs once.
    pub fn attempt_cap(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The budget for 1-based `attempt`, escalated from `base`.
    pub fn budget_for(&self, base: Budget, attempt: u32) -> Budget {
        let mut budget = base;
        for _ in 1..attempt {
            budget = budget.scaled(self.factor.max(1));
        }
        budget
    }
}

/// The budgeted resource a proof attempt ran out of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// [`Budget::max_rounds`] E-matching rounds were executed.
    Rounds,
    /// [`Budget::max_instantiations`] quantifier instances were generated.
    Instantiations,
    /// [`Budget::max_decisions`] DPLL decisions were made.
    Decisions,
    /// The clause database outgrew [`Budget::max_clauses`].
    Clauses,
    /// A wall-clock deadline passed — either this attempt's
    /// [`Budget::timeout`] or the run-wide deadline carried by the
    /// obligation's `CancelToken`. Distinguishes *time* exhaustion from
    /// the step-counted limits above. The soundness checker files a
    /// time-out the run-wide deadline caused as [`Resource::Cancelled`].
    Time,
    /// The attempt was cancelled externally (SIGINT, caller abort) via
    /// its `CancelToken` before reaching any conclusion. Unlike the
    /// other variants this is not a budget limit: the obligation was
    /// interrupted, not exhausted, and the run that produced it is
    /// reported as interrupted. The soundness checker also files an
    /// attempt its run's lapsed deadline cut under this variant.
    Cancelled,
    /// A [`crate::fault::FaultPlan`] forced this exhaustion (testing
    /// only; never produced by a real budget limit).
    Injected,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Rounds => "instantiation rounds",
            Resource::Instantiations => "quantifier instantiations",
            Resource::Decisions => "DPLL decisions",
            Resource::Clauses => "clauses",
            Resource::Time => "wall-clock time",
            Resource::Cancelled => "external cancellation",
            Resource::Injected => "injected fault",
        })
    }
}

/// Counters describing the work a proof attempt performed.
///
/// Populated by the solver and its theory modules: the DPLL counters by
/// [`crate::solver`], congruence merges by [`crate::euf`], variable
/// eliminations by [`crate::arith`], and the matching counters by
/// [`crate::ematch`]. All counters are cumulative over the whole attempt.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// E-matching instantiation rounds executed.
    pub rounds: usize,
    /// Quantifier instances generated (total across all triggers).
    pub instantiations: usize,
    /// Quantifier instances generated per trigger pattern.
    pub instantiations_by_trigger: BTreeMap<String, u64>,
    /// Candidate bindings the E-matcher examined (before deduplication).
    pub ematch_candidates: u64,
    /// DPLL decisions made.
    pub decisions: u64,
    /// DPLL unit propagations performed.
    pub propagations: u64,
    /// DPLL conflicts: clauses falsified by propagation, EUF conflicts at
    /// propagation fixpoints and arithmetic conflicts at full leaves.
    pub conflicts: u64,
    /// Theory-consistency checks: EUF checks at propagation fixpoints
    /// plus arithmetic checks at full leaves.
    pub theory_checks: u64,
    /// Congruence-closure class unions, congruence-induced ones included,
    /// made in the attempt's one e-graph by the search and by E-matching's
    /// merges of the model's equalities. Unions undone on backtrack or
    /// after matching still count.
    pub merges: u64,
    /// Fourier–Motzkin variable eliminations, across all checks.
    pub fm_eliminations: u64,
    /// Attempts that started from a prepared shared-theory core — either
    /// cloned from a [`crate::theory::Theory`] or reused in place by a
    /// [`crate::solver::SolverWorker`] — skipping axiom preprocessing.
    pub theory_reuses: u64,
    /// Distinct term nodes created by hash-consing interning over the
    /// attempt.
    pub interned_terms: u64,
    /// Interning requests answered by an existing hash-consed node. A
    /// high hit/created ratio is what makes asserting a literal during
    /// search O(1) per atom.
    pub intern_hits: u64,
    /// Final clause count.
    pub clauses: usize,
    /// Peak clause count over all rounds.
    pub max_clauses: usize,
    /// Proof-cache hits: obligations answered from a cached conclusive
    /// outcome without running the prover (see `stq_soundness::cache`).
    pub cache_hits: u64,
    /// Proof-cache misses: obligations that had to be proved.
    pub cache_misses: u64,
    /// Cached entries discarded as untrustworthy (written by a different
    /// prover version or an unreadable format) when a cache was loaded.
    pub cache_invalidations: u64,
    /// Wall-clock time of the proof attempt.
    pub wall: Duration,
}

impl ProverStats {
    /// Accumulates another attempt's counters into this one (for
    /// aggregate reporting across obligations). `clauses` and
    /// `max_clauses` take the maximum; everything else sums.
    pub fn absorb(&mut self, other: &ProverStats) {
        self.rounds += other.rounds;
        self.instantiations += other.instantiations;
        for (trigger, n) in &other.instantiations_by_trigger {
            *self
                .instantiations_by_trigger
                .entry(trigger.clone())
                .or_insert(0) += n;
        }
        self.ematch_candidates += other.ematch_candidates;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.theory_checks += other.theory_checks;
        self.merges += other.merges;
        self.fm_eliminations += other.fm_eliminations;
        self.theory_reuses += other.theory_reuses;
        self.interned_terms += other.interned_terms;
        self.intern_hits += other.intern_hits;
        self.clauses = self.clauses.max(other.clauses);
        self.max_clauses = self.max_clauses.max(other.max_clauses);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.wall += other.wall;
    }

    /// This stats record with the wall-clock field zeroed — the form the
    /// determinism tests compare, since wall time is the one counter a
    /// deterministic prover cannot reproduce.
    #[must_use]
    pub fn without_wall(&self) -> ProverStats {
        ProverStats {
            wall: Duration::ZERO,
            ..self.clone()
        }
    }
}

impl fmt::Display for ProverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} insts={} decisions={} props={} conflicts={} \
             theory={} merges={} fm={} clauses={} (peak {}) wall={:?}",
            self.rounds,
            self.instantiations,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.theory_checks,
            self.merges,
            self.fm_eliminations,
            self.clauses,
            self.max_clauses,
            self.wall,
        )?;
        if self.interned_terms > 0 || self.intern_hits > 0 {
            write!(
                f,
                " interned={}+{}hit",
                self.interned_terms, self.intern_hits
            )?;
        }
        if self.cache_hits > 0 || self.cache_misses > 0 || self.cache_invalidations > 0 {
            write!(
                f,
                " cache={}hit/{}miss/{}stale",
                self.cache_hits, self.cache_misses, self.cache_invalidations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_has_no_deadline() {
        assert!(Budget::default().timeout.is_none());
    }

    #[test]
    fn absorb_sums_counters_and_maxes_clauses() {
        let mut a = ProverStats {
            rounds: 1,
            instantiations: 2,
            decisions: 3,
            clauses: 10,
            max_clauses: 12,
            ..ProverStats::default()
        };
        a.instantiations_by_trigger.insert("f(X)".into(), 2);
        let mut b = ProverStats {
            rounds: 2,
            instantiations: 5,
            decisions: 7,
            clauses: 4,
            max_clauses: 40,
            ..ProverStats::default()
        };
        b.instantiations_by_trigger.insert("f(X)".into(), 3);
        b.instantiations_by_trigger.insert("g(Y)".into(), 1);
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.instantiations, 7);
        assert_eq!(a.decisions, 10);
        assert_eq!(a.clauses, 10);
        assert_eq!(a.max_clauses, 40);
        assert_eq!(a.instantiations_by_trigger["f(X)"], 5);
        assert_eq!(a.instantiations_by_trigger["g(Y)"], 1);
    }

    #[test]
    fn resource_display_is_human_readable() {
        assert_eq!(Resource::Time.to_string(), "wall-clock time");
        assert_eq!(Resource::Rounds.to_string(), "instantiation rounds");
        assert_eq!(Resource::Cancelled.to_string(), "external cancellation");
        assert_eq!(Resource::Injected.to_string(), "injected fault");
    }

    #[test]
    fn scaled_multiplies_every_limit() {
        let base = Budget {
            max_rounds: 2,
            max_instantiations: 10,
            max_clauses: 100,
            max_decisions: 1000,
            timeout: Some(Duration::from_millis(8)),
        };
        let doubled = base.scaled(2);
        assert_eq!(doubled.max_rounds, 4);
        assert_eq!(doubled.max_instantiations, 20);
        assert_eq!(doubled.max_clauses, 200);
        assert_eq!(doubled.max_decisions, 2000);
        assert_eq!(doubled.timeout, Some(Duration::from_millis(16)));
    }

    #[test]
    fn scaled_saturates_instead_of_overflowing() {
        let huge = Budget {
            max_decisions: u64::MAX / 2 + 1,
            ..Budget::default()
        };
        assert_eq!(huge.scaled(4).max_decisions, u64::MAX);
    }

    #[test]
    fn retry_policy_escalates_geometrically() {
        let policy = RetryPolicy {
            max_attempts: 3,
            factor: 2,
        };
        let base = Budget::default();
        assert_eq!(policy.budget_for(base, 1), base);
        assert_eq!(policy.budget_for(base, 2).max_rounds, base.max_rounds * 2);
        assert_eq!(policy.budget_for(base, 3).max_rounds, base.max_rounds * 4);
    }

    #[test]
    fn retry_policy_zero_configs_degrade_to_single_attempt() {
        let policy = RetryPolicy {
            max_attempts: 0,
            factor: 0,
        };
        assert_eq!(policy.attempt_cap(), 1);
        // factor 0 is clamped to 1: escalation becomes a no-op rather
        // than zeroing the budget.
        assert_eq!(policy.budget_for(Budget::default(), 3), Budget::default());
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::attempts(3).max_attempts, 3);
    }
}
