//! Shared preprocessed background axiomatization.
//!
//! The soundness checker discharges dozens of obligations against the
//! *same* ~20 background axioms. Re-running NNF, clausification,
//! quantifier interning, and trigger inference on all of them for every
//! single obligation would dominate a cold attempt. A [`Theory`] does
//! that preprocessing exactly once and holds
//! the result as a reusable `SolveCore`: per-obligation solving either
//! clones the prepared core (cheap — table copies, no re-parsing) or,
//! with a [`crate::solver::SolverWorker`], reuses one long-lived core
//! across obligations via watermark-based scoped resets. A core's arena
//! holds the ground operands of its atoms, and is the term universe of
//! each attempt's e-graph ([`crate::euf`]).

use crate::arena::{TermArena, TermId};
use crate::fingerprint::{axioms_prefix, StableHasher};
use crate::pre::{Atom, Clause, Clausifier, ClausifierMark, Lit};
use crate::term::{Formula, Term};
use std::collections::HashSet;

/// A background axiom set preprocessed once for reuse across many
/// proving attempts.
///
/// Construction runs the full clausification front end (NNF,
/// skolemization, trigger inference, quantifier-proxy interning) and
/// hash-conses every ground atom side, then freezes a watermark. Cores
/// handed out by `prepared_core` start at that
/// watermark; per-obligation additions land above it and can be rolled
/// back with `SolveCore::reset`.
#[derive(Clone, Debug)]
pub struct Theory {
    axioms: Vec<Formula>,
    prepared: SolveCore,
    /// The obligation-fingerprint hasher state after these axioms, so
    /// fingerprinting an obligation does not rehash them.
    fingerprint_prefix: StableHasher,
}

impl Theory {
    /// Preprocesses an axiom set into a reusable core.
    pub fn new(axioms: Vec<Formula>) -> Theory {
        let mut core = SolveCore::empty();
        for ax in &axioms {
            core.assert_formula(&ground_free_vars(ax));
        }
        core.extend_atom_tids();
        core.set_mark();
        let fingerprint_prefix = axioms_prefix(&axioms, &[]);
        Theory {
            axioms,
            prepared: core,
            fingerprint_prefix,
        }
    }

    /// The axioms this theory was built from, in assertion order.
    pub fn axioms(&self) -> &[Formula] {
        &self.axioms
    }

    /// The fingerprint hasher state after these axioms, for an
    /// obligation with no inline axioms of its own.
    pub(crate) fn fingerprint_prefix(&self) -> &StableHasher {
        &self.fingerprint_prefix
    }

    /// A fresh solving core with the background theory already asserted.
    pub(crate) fn prepared_core(&self) -> SolveCore {
        self.prepared.clone()
    }
}

/// Ground atom sides hash-consed into a core's arena, aligned with the
/// clausifier's atom table. `None` marks a non-ground side (or a
/// quantifier proxy), which the solver skips.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CachedAtom {
    pub fst: Option<TermId>,
    pub snd: Option<TermId>,
}

/// Watermark capturing a core's shared-theory prefix.
#[derive(Clone, Copy, Debug, Default)]
struct CoreMark {
    cl: Option<ClausifierMark>,
    nclauses: usize,
    arena_len: usize,
    natoms: usize,
}

/// The mutable state of one proving attempt: clausifier tables, the
/// clause store with its dedup set, the hash-consing term arena, and the
/// per-atom interned-term cache.
#[derive(Clone, Debug)]
pub(crate) struct SolveCore {
    pub cl: Clausifier,
    pub clauses: Vec<Clause>,
    pub seen: HashSet<Vec<Lit>>,
    pub arena: TermArena,
    /// Cached ground term ids per atom id (kept in lockstep with
    /// `cl.atoms()` by [`extend_atom_tids`](Self::extend_atom_tids)).
    pub atom_tids: Vec<CachedAtom>,
    /// Arena id of the literal `0` (pinned at construction).
    pub tid_zero: TermId,
    /// Arena id of the literal `1` (pinned at construction).
    pub tid_one: TermId,
    mark: CoreMark,
}

impl SolveCore {
    /// An empty core with the `0`/`1` literals pre-interned as arena ids
    /// 0 and 1 (they anchor predicate truth values in the EUF check).
    pub fn empty() -> SolveCore {
        let mut arena = TermArena::new();
        let tid_zero = arena.intern(&Term::int(0));
        let tid_one = arena.intern(&Term::int(1));
        SolveCore {
            cl: Clausifier::new(),
            clauses: Vec::new(),
            seen: HashSet::new(),
            arena,
            atom_tids: Vec::new(),
            tid_zero,
            tid_one,
            mark: CoreMark::default(),
        }
    }

    /// Clausifies `f` and adds the result, returning how many clauses
    /// were new.
    pub fn assert_formula(&mut self, f: &Formula) -> usize {
        let cs = self.cl.assert_formula(f);
        self.add_clauses(cs)
    }

    /// Normalizes, deduplicates, and stores clauses, returning how many
    /// were new. Tautologies (both polarities of one atom) are dropped.
    pub fn add_clauses(&mut self, cs: Vec<Clause>) -> usize {
        let mut added = 0;
        for c in cs {
            let mut key = c;
            key.sort_by_key(|l| (l.atom, l.pos));
            key.dedup();
            let tautology = key
                .windows(2)
                .any(|w| w[0].atom == w[1].atom && w[0].pos != w[1].pos);
            if tautology {
                continue;
            }
            if self.seen.insert(key.clone()) {
                self.clauses.push(key);
                added += 1;
            }
        }
        added
    }

    /// Hash-conses the ground sides of every atom interned since the
    /// last call, keeping `atom_tids` aligned with the atom table.
    pub fn extend_atom_tids(&mut self) {
        let SolveCore {
            cl,
            arena,
            atom_tids,
            ..
        } = self;
        for i in atom_tids.len()..cl.atoms().len() {
            atom_tids.push(cache_atom(arena, cl.atom(i)));
        }
    }

    /// Freezes the current state as the shared-theory watermark that
    /// [`reset`](Self::reset) rolls back to.
    pub fn set_mark(&mut self) {
        self.mark = CoreMark {
            cl: Some(self.cl.mark()),
            nclauses: self.clauses.len(),
            arena_len: self.arena.len(),
            natoms: self.atom_tids.len(),
        };
    }

    /// Rolls every table back to the watermark — the push/pop-style
    /// scoped reset that lets one worker core serve many obligations.
    pub fn reset(&mut self) {
        if let Some(clmark) = &self.mark.cl {
            self.cl.truncate_to(clmark);
        }
        for c in self.clauses.drain(self.mark.nclauses..) {
            self.seen.remove(&c);
        }
        self.arena.truncate(self.mark.arena_len);
        self.atom_tids.truncate(self.mark.natoms);
    }
}

fn cache_atom(arena: &mut TermArena, atom: &Atom) -> CachedAtom {
    match atom {
        Atom::Eq(a, b) | Atom::Le(a, b) | Atom::Lt(a, b) => CachedAtom {
            fst: a.is_ground().then(|| arena.intern(a)),
            snd: b.is_ground().then(|| arena.intern(b)),
        },
        Atom::Pred(p, args) => {
            let fst = args.iter().all(Term::is_ground).then(|| {
                let ids: Vec<TermId> = args.iter().map(|a| arena.intern(a)).collect();
                arena.intern_app(*p, ids)
            });
            CachedAtom { fst, snd: None }
        }
        Atom::Quant(_) => CachedAtom {
            fst: None,
            snd: None,
        },
    }
}

/// Replaces free variables with nullary applications so formulas can be
/// treated as ground (proving a goal with free variables proves it for
/// arbitrary values).
pub(crate) fn ground_free_vars(f: &Formula) -> Formula {
    let mut fv = Vec::new();
    f.free_vars(&mut fv);
    if fv.is_empty() {
        return f.clone();
    }
    let map: Vec<(stq_util::Symbol, Term)> = fv
        .into_iter()
        .map(|(v, _)| (v, Term::App(v, Vec::new())))
        .collect();
    f.subst(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;
    use stq_util::Symbol;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }

    fn sample_axiom() -> Formula {
        Formula::forall(
            vec![(Symbol::intern("x"), Sort::Int)],
            vec![vec![Term::app("f", vec![x()])]],
            Formula::pred("p", vec![Term::app("f", vec![x()])]),
        )
    }

    #[test]
    fn theory_preprocesses_axioms_once() {
        let theory = Theory::new(vec![sample_axiom(), Term::cnst("a").gt0()]);
        assert_eq!(theory.axioms().len(), 2);
        let core = theory.prepared_core();
        assert_eq!(core.cl.quants.len(), 1);
        assert_eq!(core.clauses.len(), 2);
        // Atom cache is aligned with the atom table.
        assert_eq!(core.atom_tids.len(), core.cl.atoms().len());
    }

    #[test]
    fn reset_rolls_back_to_the_theory_watermark() {
        let theory = Theory::new(vec![sample_axiom()]);
        let mut core = theory.prepared_core();
        let base_clauses = core.clauses.len();
        let base_atoms = core.cl.atoms().len();
        let base_arena = core.arena.len();

        core.assert_formula(&ground_free_vars(&Term::cnst("b").gt0().negate()));
        core.extend_atom_tids();
        assert!(core.clauses.len() > base_clauses);
        assert!(core.arena.len() > base_arena);

        core.reset();
        assert_eq!(core.clauses.len(), base_clauses);
        assert_eq!(core.cl.atoms().len(), base_atoms);
        assert_eq!(core.arena.len(), base_arena);
        assert_eq!(core.atom_tids.len(), base_atoms);

        // The reset core behaves identically to a fresh clone.
        let fresh = theory.prepared_core();
        let n1 = core.assert_formula(&ground_free_vars(&Term::cnst("b").gt0().negate()));
        let mut fresh2 = fresh;
        let n2 = fresh2.assert_formula(&ground_free_vars(&Term::cnst("b").gt0().negate()));
        assert_eq!(n1, n2);
        assert_eq!(
            format!("{:?}", core.clauses),
            format!("{:?}", fresh2.clauses)
        );
    }

    #[test]
    fn zero_and_one_are_pinned() {
        let core = SolveCore::empty();
        assert_eq!(core.arena.term(core.tid_zero), &Term::int(0));
        assert_eq!(core.arena.term(core.tid_one), &Term::int(1));
    }

    #[test]
    fn duplicate_clauses_are_not_double_counted() {
        let mut core = SolveCore::empty();
        let n1 = core.assert_formula(&Term::cnst("a").gt0());
        let n2 = core.assert_formula(&Term::cnst("a").gt0());
        assert_eq!(n1, 1);
        assert_eq!(n2, 0);
        assert_eq!(core.clauses.len(), 1);
    }
}
