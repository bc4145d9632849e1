//! Formula preprocessing: negation normal form, skolemization, clausal
//! form with quantifier proxies, and trigger inference.
//!
//! The pipeline mirrors Simplify's front end:
//!
//! 1. **NNF + skolemization** — negations are pushed to the atoms;
//!    existentials (including negated universals) are replaced by skolem
//!    functions of the enclosing universal variables.
//! 2. **Clausification** — the quantifier-free structure is distributed
//!    into conjunctive normal form. Remaining (positive) universal
//!    subformulas become opaque *quantifier proxy atoms*; when the search
//!    asserts such an atom true, the corresponding quantifier becomes
//!    available for E-matching instantiation.
//! 3. **Trigger inference** — a `Forall` without explicit triggers gets
//!    them inferred: the smallest set of uninterpreted application
//!    subterms covering all bound variables.

use crate::fasthash::FastMap;
use crate::term::{Formula, Sort, Term, Trigger};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use stq_util::Symbol;

/// An atom after preprocessing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atom {
    /// Equality, with the operands stored in sorted order so `a = b` and
    /// `b = a` share an atom.
    Eq(Term, Term),
    /// `lhs ≤ rhs`.
    Le(Term, Term),
    /// `lhs < rhs`.
    Lt(Term, Term),
    /// Uninterpreted predicate application.
    Pred(Symbol, Vec<Term>),
    /// Proxy for a universally quantified subformula (index into
    /// [`Clausifier::quants`]).
    Quant(usize),
}

/// A literal: an atom with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lit {
    /// Index into the clausifier's atom table.
    pub atom: usize,
    /// True for the positive occurrence.
    pub pos: bool,
}

impl Lit {
    /// The opposite-polarity literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit {
            atom: self.atom,
            pos: !self.pos,
        }
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A universally quantified formula awaiting instantiation.
#[derive(Clone, Debug)]
pub struct QuantClosure {
    /// Bound variables with their sorts.
    pub vars: Vec<(Symbol, Sort)>,
    /// Alternative triggers (each a multi-pattern).
    pub triggers: Vec<Trigger>,
    /// Body; NNF, skolem-free of existentials, may contain nested foralls.
    pub body: Formula,
    /// Each trigger's display name, rendered on first use. A shared
    /// theory's closures outlive the attempts, so each is rendered once.
    names: Vec<OnceLock<String>>,
}

impl QuantClosure {
    fn new(vars: Vec<(Symbol, Sort)>, triggers: Vec<Trigger>, body: Formula) -> QuantClosure {
        let names = triggers.iter().map(|_| OnceLock::new()).collect();
        QuantClosure {
            vars,
            triggers,
            body,
            names,
        }
    }

    /// The display name of trigger `ti`, its patterns joined by `, ` —
    /// the key of [`crate::stats::ProverStats::instantiations_by_trigger`].
    pub fn trigger_name(&self, ti: usize) -> &str {
        self.names[ti].get_or_init(|| {
            let parts: Vec<String> = self.triggers[ti].iter().map(ToString::to_string).collect();
            parts.join(", ")
        })
    }
}

/// A quantifier-table key: a shared closure, compared by its variables
/// and body, so the table holds no second copy of either.
#[derive(Clone, Debug)]
struct QuantKey(Arc<QuantClosure>);

impl PartialEq for QuantKey {
    fn eq(&self, other: &QuantKey) -> bool {
        self.0.vars == other.0.vars && self.0.body == other.0.body
    }
}

impl Eq for QuantKey {}

impl Hash for QuantKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.vars.hash(state);
        self.0.body.hash(state);
    }
}

/// Shared state for turning formulas into clauses.
///
/// `Clone` supports the shared-theory fast path: a fully preprocessed
/// background clausifier is cloned per worker instead of re-running NNF
/// and clausification on every obligation.
#[derive(Clone, Default, Debug)]
pub struct Clausifier {
    /// The atom table. Each atom is shared with its `atom_ids` key, so
    /// cloning a clausifier copies no term.
    atoms: Vec<Arc<Atom>>,
    atom_ids: FastMap<Arc<Atom>, usize>,
    /// Quantifier proxy table, shared so each E-matching round can hold a
    /// quantifier while clausifying its instances without copying it.
    pub quants: Vec<Arc<QuantClosure>>,
    quant_ids: FastMap<QuantKey, usize>,
    /// Per-quantifier proxy atom id (the `Atom::Quant(q)` atom), filled
    /// in when the proxy is first clausified.
    quant_atoms: Vec<Option<usize>>,
    skolem_counter: usize,
}

/// A watermark into a [`Clausifier`], capturing the shared-theory prefix
/// so per-obligation additions can be rolled back with
/// [`Clausifier::truncate_to`].
#[derive(Clone, Copy, Debug)]
pub struct ClausifierMark {
    atoms: usize,
    quants: usize,
    skolems: usize,
}

impl Clausifier {
    /// Creates an empty clausifier.
    pub fn new() -> Clausifier {
        Clausifier::default()
    }

    /// The atom table built so far.
    pub fn atoms(&self) -> &[Arc<Atom>] {
        &self.atoms
    }

    /// The atom behind an id.
    pub fn atom(&self, id: usize) -> &Atom {
        &self.atoms[id]
    }

    fn intern_atom(&mut self, a: Atom) -> usize {
        if let Some(&id) = self.atom_ids.get(&a) {
            return id;
        }
        let id = self.atoms.len();
        let a = Arc::new(a);
        self.atoms.push(Arc::clone(&a));
        self.atom_ids.insert(a, id);
        id
    }

    fn intern_quant(&mut self, q: QuantClosure) -> usize {
        let key = QuantKey(Arc::new(q));
        if let Some(&id) = self.quant_ids.get(&key) {
            return id;
        }
        let id = self.quants.len();
        self.quants.push(Arc::clone(&key.0));
        self.quant_atoms.push(None);
        self.quant_ids.insert(key, id);
        id
    }

    /// The proxy atom id for quantifier `q`, if it has been clausified.
    pub(crate) fn quant_atom(&self, q: usize) -> Option<usize> {
        self.quant_atoms[q]
    }

    /// Captures the current table sizes so later additions can be undone.
    pub fn mark(&self) -> ClausifierMark {
        ClausifierMark {
            atoms: self.atoms.len(),
            quants: self.quants.len(),
            skolems: self.skolem_counter,
        }
    }

    /// Rolls the tables back to a previously captured [`mark`](Self::mark),
    /// dropping every atom, quantifier, and skolem allocated since. The
    /// scoped reset that returns a reused worker to its shared-theory
    /// watermark between obligations.
    pub fn truncate_to(&mut self, mark: &ClausifierMark) {
        for a in self.atoms.drain(mark.atoms..) {
            self.atom_ids.remove(&a);
        }
        for q in self.quants.drain(mark.quants..) {
            self.quant_ids.remove(&QuantKey(q));
        }
        self.quant_atoms.truncate(mark.quants);
        // Surviving proxies may point at dropped atoms if the proxy atom
        // was first clausified after the mark; forget those so they are
        // re-interned on the next clausification.
        for slot in &mut self.quant_atoms {
            if slot.is_some_and(|a| a >= mark.atoms) {
                *slot = None;
            }
        }
        self.skolem_counter = mark.skolems;
    }

    fn fresh_skolem(&mut self, univ: &[(Symbol, Sort)]) -> Term {
        let name = format!("sk!{}", self.skolem_counter);
        self.skolem_counter += 1;
        Term::App(
            Symbol::intern(&name),
            univ.iter().map(|&(v, s)| Term::Var(v, s)).collect(),
        )
    }

    /// Converts a formula to NNF, replacing existentials with skolem terms.
    ///
    /// `univ` is the stack of enclosing universal variables (skolem
    /// functions depend on them); `positive` is the current polarity.
    pub fn nnf(&mut self, f: &Formula, positive: bool, univ: &mut Vec<(Symbol, Sort)>) -> Formula {
        match (f, positive) {
            (Formula::True, true) | (Formula::False, false) => Formula::True,
            (Formula::True, false) | (Formula::False, true) => Formula::False,
            (Formula::Not(g), _) => self.nnf(g, !positive, univ),
            (Formula::And(gs), true) | (Formula::Or(gs), false) => {
                Formula::and(gs.iter().map(|g| self.nnf(g, positive, univ)).collect())
            }
            (Formula::And(gs), false) | (Formula::Or(gs), true) => {
                Formula::or(gs.iter().map(|g| self.nnf(g, positive, univ)).collect())
            }
            (Formula::Pred(..) | Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..), true) => {
                f.clone()
            }
            (Formula::Pred(..) | Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..), false) => {
                f.clone().negate()
            }
            (Formula::Forall(vars, triggers, body), true) => {
                let n = univ.len();
                univ.extend(vars.iter().copied());
                let body = self.nnf(body, true, univ);
                univ.truncate(n);
                Formula::Forall(vars.clone(), triggers.clone(), Box::new(body))
            }
            (Formula::Exists(vars, body), false) => {
                // ¬∃x.φ ≡ ∀x.¬φ
                let n = univ.len();
                univ.extend(vars.iter().copied());
                let body = self.nnf(body, false, univ);
                univ.truncate(n);
                Formula::Forall(vars.clone(), Vec::new(), Box::new(body))
            }
            (Formula::Exists(vars, body), true) | (Formula::Forall(vars, _, body), false) => {
                // ∃ in positive position (or negated ∀): skolemize.
                let map: Vec<(Symbol, Term)> = vars
                    .iter()
                    .map(|&(v, _)| (v, self.fresh_skolem(univ)))
                    .collect();
                let body = body.subst(&map);
                self.nnf(&body, positive, univ)
            }
        }
    }

    /// Clausifies an NNF formula (no `Not` above atoms, no existentials)
    /// by distribution. Positive `Forall` subformulas become quantifier
    /// proxy atoms asserted in a unit clause (at top level) or embedded in
    /// the clause structure. An equality between two identical terms is
    /// true, never an atom: E-matching instances such as `a = b ∨ …`
    /// with `a` and `b` bound to one term reach here directly. The
    /// formula is consumed, so its terms move into the atoms it interns.
    pub fn clausify(&mut self, f: Formula) -> Vec<Clause> {
        let mut out = Vec::new();
        self.clausify_into(f, &mut out);
        out
    }

    fn clausify_into(&mut self, f: Formula, out: &mut Vec<Clause>) {
        match f {
            Formula::True => {}
            Formula::False => out.push(Vec::new()),
            Formula::Eq(a, b) if a == b => {}
            Formula::Not(inner) if matches!(&*inner, Formula::Eq(a, b) if a == b) => {
                out.push(Vec::new());
            }
            Formula::And(gs) => {
                for g in gs {
                    self.clausify_into(g, out);
                }
            }
            // A true disjunct makes the disjunction true: no clause, and
            // no atom interned for the other disjuncts.
            Formula::Or(gs) if gs.iter().any(is_trivially_true) => {}
            Formula::Or(gs) => {
                // Distribute: CNF(g1 ∨ g2) = { c1 ∪ c2 | ci ∈ CNF(gi) }.
                // A disjunct with one clause (a literal, say) extends
                // every clause so far in place.
                let mut acc: Vec<Clause> = vec![Vec::new()];
                for g in gs {
                    let cs = self.clausify(g);
                    if let [c] = cs.as_slice() {
                        for base in &mut acc {
                            base.extend_from_slice(c);
                        }
                        continue;
                    }
                    let mut next = Vec::with_capacity(acc.len() * cs.len());
                    for base in &acc {
                        for c in &cs {
                            let mut merged = base.clone();
                            merged.extend_from_slice(c);
                            next.push(merged);
                        }
                    }
                    acc = next;
                }
                out.extend(acc);
            }
            Formula::Not(inner) => {
                let lit = self.literal_of(*inner, false);
                out.push(vec![lit]);
            }
            atom @ (Formula::Pred(..) | Formula::Eq(..) | Formula::Le(..) | Formula::Lt(..)) => {
                let lit = self.literal_of(atom, true);
                out.push(vec![lit]);
            }
            Formula::Forall(vars, triggers, body) => {
                let triggers = if triggers.is_empty() {
                    infer_triggers(&vars, &body)
                } else {
                    triggers
                };
                let q = self.intern_quant(QuantClosure::new(vars, triggers, *body));
                let atom = self.intern_atom(Atom::Quant(q));
                self.quant_atoms[q] = Some(atom);
                out.push(vec![Lit { atom, pos: true }]);
            }
            Formula::Exists(..) => {
                unreachable!("existentials are removed by nnf before clausification")
            }
        }
    }

    fn literal_of(&mut self, f: Formula, pos: bool) -> Lit {
        let atom = match f {
            Formula::Pred(p, args) => Atom::Pred(p, args),
            Formula::Eq(a, b) => {
                if a <= b {
                    Atom::Eq(a, b)
                } else {
                    Atom::Eq(b, a)
                }
            }
            Formula::Le(a, b) => Atom::Le(a, b),
            Formula::Lt(a, b) => Atom::Lt(a, b),
            other => unreachable!("not an atom in NNF: {other}"),
        };
        let atom = self.intern_atom(atom);
        Lit { atom, pos }
    }

    /// Full pipeline: NNF, skolemize, clausify.
    pub fn assert_formula(&mut self, f: &Formula) -> Vec<Clause> {
        let nnf = self.nnf(f, true, &mut Vec::new());
        self.clausify(nnf)
    }
}

/// `True`, or an equality whose two sides are the same term.
fn is_trivially_true(f: &Formula) -> bool {
    match f {
        Formula::True => true,
        Formula::Eq(a, b) => a == b,
        _ => false,
    }
}

/// Symbols interpreted by the arithmetic solver; never useful as triggers.
pub fn is_interpreted(sym: Symbol) -> bool {
    matches!(sym.as_str(), "+" | "-" | "*" | "neg")
}

/// Infers E-matching triggers for a quantifier body: every *maximal*
/// uninterpreted application subterm containing all bound variables
/// becomes a single-pattern trigger; if no single term covers all
/// variables, a greedy multi-pattern is assembled.
pub fn infer_triggers(vars: &[(Symbol, Sort)], body: &Formula) -> Vec<Trigger> {
    let mut candidates: Vec<Term> = Vec::new();
    collect_candidates(body, vars, &mut candidates);

    let var_names: Vec<Symbol> = vars.iter().map(|&(v, _)| v).collect();
    let covers = |t: &Term| -> Vec<Symbol> {
        let mut fv = Vec::new();
        t.free_vars(&mut fv);
        var_names
            .iter()
            .copied()
            .filter(|v| fv.iter().any(|(x, _)| x == v))
            .collect()
    };

    // Single-pattern triggers: candidates covering every variable.
    let full: Vec<Trigger> = candidates
        .iter()
        .filter(|t| covers(t).len() == var_names.len())
        .map(|t| vec![t.clone()])
        .collect();
    if !full.is_empty() {
        return full;
    }

    // Greedy multi-pattern: repeatedly take the candidate covering the
    // most still-uncovered variables.
    let mut uncovered: Vec<Symbol> = var_names.clone();
    let mut multi: Trigger = Vec::new();
    while !uncovered.is_empty() {
        let best = candidates
            .iter()
            .max_by_key(|t| covers(t).iter().filter(|v| uncovered.contains(v)).count());
        match best {
            Some(t) if covers(t).iter().any(|v| uncovered.contains(v)) => {
                uncovered.retain(|v| !covers(t).contains(v));
                multi.push(t.clone());
            }
            _ => return Vec::new(), // cannot cover: quantifier never fires
        }
    }
    vec![multi]
}

fn collect_candidates(f: &Formula, vars: &[(Symbol, Sort)], out: &mut Vec<Term>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Pred(_, args) => {
            for a in args {
                collect_term_candidates(a, vars, out);
            }
        }
        Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) => {
            collect_term_candidates(a, vars, out);
            collect_term_candidates(b, vars, out);
        }
        Formula::Not(g) => collect_candidates(g, vars, out),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_candidates(g, vars, out);
            }
        }
        Formula::Forall(_, _, body) | Formula::Exists(_, body) => {
            collect_candidates(body, vars, out);
        }
    }
}

fn collect_term_candidates(t: &Term, vars: &[(Symbol, Sort)], out: &mut Vec<Term>) {
    match t {
        Term::Var(..) | Term::Int(_) => {}
        Term::App(f, args) => {
            let mut fv = Vec::new();
            t.free_vars(&mut fv);
            let mentions_bound = fv.iter().any(|(x, _)| vars.iter().any(|(v, _)| v == x));
            let is_skolem = f.as_str().starts_with("sk!");
            if mentions_bound && !is_interpreted(*f) && !is_skolem {
                if !out.contains(t) {
                    out.push(t.clone());
                }
            } else {
                // Interpreted head: look inside for uninterpreted pieces.
                for a in args {
                    collect_term_candidates(a, vars, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }
    fn xsym() -> Symbol {
        Symbol::intern("x")
    }

    #[test]
    fn nnf_pushes_negation_over_and() {
        let mut cl = Clausifier::new();
        let f = Formula::and(vec![x().gt0(), x().lt0()]).negate();
        let nnf = cl.nnf(&f, true, &mut Vec::new());
        match nnf {
            Formula::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Formula::Not(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn negated_forall_skolemizes() {
        let mut cl = Clausifier::new();
        let f = Formula::forall(vec![(xsym(), Sort::Int)], vec![], x().gt0()).negate();
        let nnf = cl.nnf(&f, true, &mut Vec::new());
        // Should be ¬(sk!0 > 0) with a ground skolem constant.
        match &nnf {
            Formula::Not(inner) => match &**inner {
                Formula::Lt(zero, sk) => {
                    assert_eq!(*zero, Term::int(0));
                    assert!(sk.is_ground());
                }
                other => panic!("expected Lt, got {other:?}"),
            },
            other => panic!("expected Not, got {other:?}"),
        }
    }

    #[test]
    fn exists_under_forall_gets_skolem_function() {
        let mut cl = Clausifier::new();
        let y = Term::var("y", Sort::Int);
        let f = Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![],
            Formula::exists(vec![(Symbol::intern("y"), Sort::Int)], x().eq(&y)),
        );
        let nnf = cl.nnf(&f, true, &mut Vec::new());
        match nnf {
            Formula::Forall(_, _, body) => match &*body {
                Formula::Eq(_, b) | Formula::Eq(b, _) if matches!(b, Term::App(..)) => {
                    // skolem function applied to the universal variable
                    if let Term::App(f, args) = b {
                        assert!(f.as_str().starts_with("sk!"));
                        assert_eq!(args.len(), 1);
                    }
                }
                other => panic!("expected Eq with skolem app, got {other:?}"),
            },
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn clausify_conjunction_of_disjunction() {
        let mut cl = Clausifier::new();
        let f = Formula::and(vec![
            Formula::or(vec![x().gt0(), x().lt0()]),
            x().eq(&Term::int(3)),
        ]);
        let clauses = cl.assert_formula(&f);
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[0].len(), 2);
        assert_eq!(clauses[1].len(), 1);
    }

    #[test]
    fn distribution_over_or_of_ands() {
        let mut cl = Clausifier::new();
        // (a ∧ b) ∨ c  →  (a ∨ c) ∧ (b ∨ c)
        let a = Formula::pred("a", vec![]);
        let b = Formula::pred("b", vec![]);
        let c = Formula::pred("c", vec![]);
        let f = Formula::or(vec![Formula::and(vec![a, b]), c]);
        let clauses = cl.assert_formula(&f);
        assert_eq!(clauses.len(), 2);
        assert!(clauses.iter().all(|cl| cl.len() == 2));
    }

    #[test]
    fn equality_atoms_are_normalized() {
        let mut cl = Clausifier::new();
        let ab = Term::cnst("a").eq(&Term::cnst("b"));
        let ba = Term::cnst("b").eq(&Term::cnst("a"));
        let c1 = cl.assert_formula(&ab);
        let c2 = cl.assert_formula(&ba);
        assert_eq!(c1[0][0].atom, c2[0][0].atom);
    }

    #[test]
    fn reflexive_equalities_clausify_to_constants_and_intern_no_atom() {
        let t = Term::app("f", vec![Term::cnst("a")]);
        let refl = t.eq(&t);
        let mut cl = Clausifier::new();
        assert!(
            cl.clausify(refl.clone()).is_empty(),
            "t = t is true: no clause"
        );
        assert_eq!(cl.clausify(refl.clone().negate()), vec![Vec::<Lit>::new()]);
        assert!(cl.atoms().is_empty());
        // The true disjunct makes the disjunction true before any
        // disjunct is clausified, so `p` is not interned either.
        let p = Formula::pred("p", vec![]);
        assert!(cl.clausify(Formula::or(vec![p, refl])).is_empty());
        assert!(cl.atoms().is_empty());
    }

    #[test]
    fn forall_becomes_quant_proxy() {
        let mut cl = Clausifier::new();
        let f = Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![vec![Term::app("f", vec![x()])]],
            Formula::pred("p", vec![x()]),
        );
        let clauses = cl.assert_formula(&f);
        assert_eq!(clauses.len(), 1);
        assert_eq!(clauses[0].len(), 1);
        assert!(matches!(cl.atom(clauses[0][0].atom), Atom::Quant(0)));
        assert_eq!(cl.quants.len(), 1);
    }

    #[test]
    fn duplicate_quantifiers_share_proxy() {
        let mut cl = Clausifier::new();
        let make = || {
            Formula::forall(
                vec![(xsym(), Sort::Int)],
                vec![],
                Formula::pred("p", vec![x()]),
            )
        };
        let c1 = cl.assert_formula(&make());
        let c2 = cl.assert_formula(&make());
        assert_eq!(c1[0][0].atom, c2[0][0].atom);
        assert_eq!(cl.quants.len(), 1);
    }

    #[test]
    fn truncate_to_rolls_back_atoms_quants_and_skolems() {
        let mut cl = Clausifier::new();
        let shared = Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![vec![Term::app("f", vec![x()])]],
            Formula::pred("p", vec![x()]),
        );
        let c1 = cl.assert_formula(&shared);
        let mark = cl.mark();

        // Per-obligation additions: a fresh atom, a fresh quantifier, and
        // a skolem from a negated forall.
        cl.assert_formula(&Term::cnst("a").eq(&Term::cnst("b")));
        cl.assert_formula(&Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![],
            Formula::pred("q", vec![Term::app("g", vec![x()])]),
        ));
        let skolemized = cl.assert_formula(
            &Formula::forall(vec![(xsym(), Sort::Int)], vec![], x().gt0()).negate(),
        );
        assert!(!skolemized.is_empty());

        cl.truncate_to(&mark);
        assert_eq!(cl.atoms().len(), 1);
        assert_eq!(cl.quants.len(), 1);

        // The shared prefix still dedups: re-asserting yields the same
        // atom, and a re-run of the per-obligation work re-interns into
        // the same slots (skolem counter rolled back too).
        let c1b = cl.assert_formula(&shared);
        assert_eq!(c1[0][0].atom, c1b[0][0].atom);
        let sk1 = format!(
            "{:?}",
            cl.assert_formula(
                &Formula::forall(vec![(xsym(), Sort::Int)], vec![], x().gt0()).negate(),
            )
        );
        cl.truncate_to(&mark);
        let sk2 = format!(
            "{:?}",
            cl.assert_formula(
                &Formula::forall(vec![(xsym(), Sort::Int)], vec![], x().gt0()).negate(),
            )
        );
        assert_eq!(sk1, sk2, "skolem names replay identically after reset");
    }

    #[test]
    fn quant_atom_is_recorded_and_forgotten_on_truncate() {
        let mut cl = Clausifier::new();
        let f = Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![vec![Term::app("f", vec![x()])]],
            Formula::pred("p", vec![x()]),
        );
        let clauses = cl.assert_formula(&f);
        assert_eq!(cl.quant_atom(0), Some(clauses[0][0].atom));

        let mark = cl.mark();
        cl.assert_formula(&Formula::forall(
            vec![(xsym(), Sort::Int)],
            vec![],
            Formula::pred("q", vec![Term::app("g", vec![x()])]),
        ));
        assert!(cl.quant_atom(1).is_some());
        cl.truncate_to(&mark);
        assert_eq!(cl.quants.len(), 1);
        assert_eq!(cl.quant_atom(0), Some(clauses[0][0].atom));
    }

    #[test]
    fn trigger_inference_prefers_full_coverage() {
        let vars = vec![(xsym(), Sort::Int)];
        let body = Formula::pred("p", vec![Term::app("f", vec![x()])]);
        let triggers = infer_triggers(&vars, &body);
        assert_eq!(triggers, vec![vec![Term::app("f", vec![x()])]]);
    }

    #[test]
    fn trigger_inference_builds_multipattern() {
        let vars = vec![(xsym(), Sort::Int), (Symbol::intern("y"), Sort::Int)];
        let y = Term::var("y", Sort::Int);
        let body = Formula::or(vec![
            Formula::pred("p", vec![Term::app("f", vec![x()])]),
            Formula::pred("q", vec![Term::app("g", vec![y])]),
        ]);
        let triggers = infer_triggers(&vars, &body);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].len(), 2);
    }

    #[test]
    fn trigger_inference_skips_interpreted_heads() {
        let vars = vec![(xsym(), Sort::Int)];
        // x + 1 > 0 with f(x) nested under +: candidate should be f(x),
        // not the + term.
        let body = Term::app("f", vec![x()]).add(&Term::int(1)).gt0();
        let triggers = infer_triggers(&vars, &body);
        assert_eq!(triggers, vec![vec![Term::app("f", vec![x()])]]);
    }

    #[test]
    fn uncoverable_quantifier_gets_no_triggers() {
        let vars = vec![(xsym(), Sort::Int)];
        let body = x().gt0(); // only interpreted structure
        assert!(infer_triggers(&vars, &body).is_empty());
    }
}
