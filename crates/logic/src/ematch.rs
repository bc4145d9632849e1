//! E-matching: finding instances of axiom triggers among ground terms.
//!
//! Simplify instantiates universally quantified axioms by matching each
//! axiom's *trigger* (a term pattern, or a multi-pattern) against the
//! ground terms currently known to the prover, **modulo the equalities**
//! in the congruence closure. This module implements that matcher: a
//! pattern `f(X, g(Y))` matches any e-class containing a term headed by
//! `f` whose arguments' classes (recursively) match, binding `X` and `Y`
//! to ground terms.
//!
//! Candidate enumeration is index-driven: unanchored application
//! patterns consult the e-graph's `(head, arity)` index instead of
//! scanning every node, and bindings carry hash-consed [`TermId`]s so
//! downstream deduplication never formats or clones term trees.

use crate::arena::TermId;
use crate::euf::Egraph;
use crate::term::Term;
use std::collections::HashSet;
use stq_util::Symbol;

/// A substitution produced by matching: variable → hash-consed ground
/// term id (resolve through the attempt's [`crate::arena::TermArena`]).
pub type Binding = Vec<(Symbol, TermId)>;

fn match_into(
    eg: &Egraph,
    pat: &Term,
    class: TermId,
    binding: &mut Binding,
    out: &mut Vec<Binding>,
    rest: &[(&Term, Option<TermId>)],
) {
    match pat {
        Term::Var(x, _) => {
            if let Some(&(_, bound)) = binding.iter().find(|(y, _)| y == x) {
                if eg.find(bound) == eg.find(class) {
                    continue_match(eg, binding, out, rest);
                }
            } else {
                binding.push((*x, eg.find(class)));
                continue_match(eg, binding, out, rest);
                binding.pop();
            }
        }
        Term::Int(v) => {
            if eg.class_int_value(class) == Some(*v) {
                continue_match(eg, binding, out, rest);
            }
        }
        Term::App(f, pargs) => {
            for &member in eg.class_members(class) {
                if eg.head_symbol(member) == Some(*f) && eg.args(member).len() == pargs.len() {
                    // Match each argument pattern in sequence by chaining
                    // them onto the work list.
                    let args: Vec<TermId> = eg.args(member).to_vec();
                    let mut chained: Vec<(&Term, Option<TermId>)> = pargs
                        .iter()
                        .zip(args.iter())
                        .map(|(p, &a)| (p, Some(a)))
                        .collect();
                    chained.extend_from_slice(rest);
                    continue_match(eg, binding, out, &chained);
                }
            }
        }
    }
}

fn continue_match(
    eg: &Egraph,
    binding: &mut Binding,
    out: &mut Vec<Binding>,
    work: &[(&Term, Option<TermId>)],
) {
    match work.split_first() {
        None => out.push(binding.clone()),
        Some((&(pat, target), rest)) => match target {
            Some(class) => match_into(eg, pat, class, binding, out, rest),
            None => {
                // Unanchored pattern: try every class whose head matches.
                // Application heads hit the (head, arity) index directly.
                let candidates: Vec<TermId> = match pat {
                    Term::App(f, pargs) => eg.terms_with_head(*f, pargs.len()).to_vec(),
                    Term::Int(v) => eg
                        .term_refs()
                        .filter(|&r| eg.int_literal(r) == Some(*v))
                        .collect(),
                    Term::Var(..) => eg.term_refs().collect(),
                };
                // One attempt per class: match_into enumerates the class's
                // members itself, so visiting a class twice only duplicates
                // work (duplicates are also collapsed at the end).
                let mut seen_classes = HashSet::new();
                for r in candidates {
                    if seen_classes.insert(eg.find(r)) {
                        match_into(eg, pat, r, binding, out, rest);
                    }
                }
            }
        },
    }
}

/// Finds all substitutions under which every pattern of the multi-pattern
/// `trigger` matches some ground term in the e-graph (modulo congruence).
///
/// Bindings map each pattern variable to the hash-consed id of a concrete
/// ground term drawn from the matched class. Duplicate bindings (equal up
/// to congruence) are collapsed.
///
/// # Examples
///
/// ```
/// use stq_logic::arena::TermArena;
/// use stq_logic::ematch::match_trigger;
/// use stq_logic::euf::Egraph;
/// use stq_logic::term::{Sort, Term};
///
/// let mut arena = TermArena::new();
/// let mut eg = Egraph::new();
/// eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("a")]));
/// let pat = Term::app("f", vec![Term::var("X", Sort::Int)]);
/// let matches = match_trigger(&eg, &[pat]);
/// assert_eq!(matches.len(), 1);
/// assert_eq!(arena.term(matches[0][0].1), &Term::cnst("a"));
/// ```
pub fn match_trigger(eg: &Egraph, trigger: &[Term]) -> Vec<Binding> {
    match_trigger_counted(eg, trigger).0
}

/// [`match_trigger`], additionally reporting how many raw candidate
/// bindings the matcher examined before congruence deduplication — the
/// prover's `ematch_candidates` telemetry counter, a direct measure of
/// matching effort even when most candidates collapse to known instances.
pub fn match_trigger_counted(eg: &Egraph, trigger: &[Term]) -> (Vec<Binding>, u64) {
    let work: Vec<(&Term, Option<TermId>)> = trigger.iter().map(|p| (p, None)).collect();
    let mut raw = Vec::new();
    continue_match(eg, &mut Vec::new(), &mut raw, &work);
    let candidates = raw.len() as u64;

    // Deduplicate by the canonical class of each bound variable.
    let mut seen: HashSet<Binding> = HashSet::new();
    let mut out = Vec::new();
    for binding in raw {
        let mut key: Binding = binding.iter().map(|&(x, r)| (x, eg.find(r))).collect();
        key.sort();
        if seen.insert(key) {
            out.push(binding);
        }
    }
    (out, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TermArena;
    use crate::term::Sort;

    fn var(n: &str) -> Term {
        Term::var(n, Sort::Int)
    }

    fn setup() -> (TermArena, Egraph) {
        (TermArena::new(), Egraph::new())
    }

    /// Resolves a binding's term ids back to terms for assertion purposes.
    fn resolved(arena: &TermArena, b: &Binding) -> Vec<(Symbol, Term)> {
        b.iter()
            .map(|&(x, id)| (x, arena.term(id).clone()))
            .collect()
    }

    #[test]
    fn simple_match() {
        let (mut arena, mut eg) = setup();
        eg.intern(
            &mut arena,
            &Term::app("f", vec![Term::cnst("a"), Term::cnst("b")]),
        );
        let pat = Term::app("f", vec![var("X"), var("Y")]);
        let ms = match_trigger(&eg, &[pat]);
        assert_eq!(ms.len(), 1);
        let m = resolved(&arena, &ms[0]);
        assert!(m.contains(&(Symbol::intern("X"), Term::cnst("a"))));
        assert!(m.contains(&(Symbol::intern("Y"), Term::cnst("b"))));
    }

    #[test]
    fn no_match_for_missing_head() {
        let (mut arena, mut eg) = setup();
        eg.intern(&mut arena, &Term::app("g", vec![Term::cnst("a")]));
        let pat = Term::app("f", vec![var("X")]);
        assert!(match_trigger(&eg, &[pat]).is_empty());
    }

    #[test]
    fn nested_pattern() {
        let (mut arena, mut eg) = setup();
        eg.intern(
            &mut arena,
            &Term::app("f", vec![Term::app("g", vec![Term::cnst("a")])]),
        );
        let pat = Term::app("f", vec![Term::app("g", vec![var("X")])]);
        let ms = match_trigger(&eg, &[pat]);
        assert_eq!(ms.len(), 1);
        assert_eq!(arena.term(ms[0][0].1), &Term::cnst("a"));
    }

    #[test]
    fn match_modulo_congruence() {
        // f(a) exists; a = b; pattern f(X) should also offer a match where
        // X is drawn from the merged class.
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &Term::cnst("a"));
        let b = eg.intern(&mut arena, &Term::cnst("b"));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("a")]));
        eg.merge(a, b).unwrap();
        // Pattern with nested structure: match g(X) where only b's class
        // has g... build g(b).
        eg.intern(&mut arena, &Term::app("g", vec![Term::cnst("b")]));
        let pat = Term::app("h2", vec![]);
        assert!(match_trigger(&eg, &[pat]).is_empty());
        // f(X) matches with X in the {a, b} class.
        let ms = match_trigger(&eg, &[Term::app("f", vec![var("X")])]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn nested_congruent_match() {
        // c = g(a); term f(c) exists. Pattern f(g(X)) should match with
        // X = a because c's class contains g(a).
        let (mut arena, mut eg) = setup();
        let cc = eg.intern(&mut arena, &Term::cnst("c"));
        let ga = eg.intern(&mut arena, &Term::app("g", vec![Term::cnst("a")]));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("c")]));
        eg.merge(cc, ga).unwrap();
        let pat = Term::app("f", vec![Term::app("g", vec![var("X")])]);
        let ms = match_trigger(&eg, &[pat]);
        assert_eq!(ms.len(), 1);
        assert_eq!(arena.term(ms[0][0].1), &Term::cnst("a"));
    }

    #[test]
    fn repeated_variable_requires_equal_classes() {
        let (mut arena, mut eg) = setup();
        eg.intern(
            &mut arena,
            &Term::app("f", vec![Term::cnst("a"), Term::cnst("a")]),
        );
        eg.intern(
            &mut arena,
            &Term::app("f", vec![Term::cnst("a"), Term::cnst("b")]),
        );
        let pat = Term::app("f", vec![var("X"), var("X")]);
        let ms = match_trigger(&eg, &[pat]);
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn repeated_variable_matches_after_merge() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &Term::cnst("a"));
        let b = eg.intern(&mut arena, &Term::cnst("b"));
        eg.intern(
            &mut arena,
            &Term::app("f", vec![Term::cnst("a"), Term::cnst("b")]),
        );
        let pat = Term::app("f", vec![var("X"), var("X")]);
        assert!(match_trigger(&eg, std::slice::from_ref(&pat)).is_empty());
        eg.merge(a, b).unwrap();
        assert_eq!(match_trigger(&eg, &[pat]).len(), 1);
    }

    #[test]
    fn multi_pattern_shares_bindings() {
        let (mut arena, mut eg) = setup();
        eg.intern(&mut arena, &Term::app("p", vec![Term::cnst("a")]));
        eg.intern(&mut arena, &Term::app("q", vec![Term::cnst("a")]));
        eg.intern(&mut arena, &Term::app("q", vec![Term::cnst("b")]));
        let tr = vec![
            Term::app("p", vec![var("X")]),
            Term::app("q", vec![var("X")]),
        ];
        let ms = match_trigger(&eg, &tr);
        assert_eq!(ms.len(), 1);
        assert_eq!(arena.term(ms[0][0].1), &Term::cnst("a"));
    }

    #[test]
    fn integer_literal_pattern() {
        let (mut arena, mut eg) = setup();
        eg.intern(&mut arena, &Term::app("f", vec![Term::int(0)]));
        eg.intern(&mut arena, &Term::app("f", vec![Term::int(1)]));
        let pat = Term::app("f", vec![Term::int(0)]);
        assert_eq!(match_trigger(&eg, &[pat]).len(), 1);
    }

    #[test]
    fn multiple_matches_enumerate() {
        let (mut arena, mut eg) = setup();
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("a")]));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("b")]));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("c")]));
        let ms = match_trigger(&eg, &[Term::app("f", vec![var("X")])]);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn counted_matching_reports_raw_candidates() {
        // f(a) and f(b) with a = b: two raw candidates collapse to one
        // binding modulo congruence, but both were examined.
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &Term::cnst("a"));
        let b = eg.intern(&mut arena, &Term::cnst("b"));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("a")]));
        eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("b")]));
        eg.merge(a, b).unwrap();
        let (ms, candidates) = match_trigger_counted(&eg, &[Term::app("f", vec![var("X")])]);
        assert_eq!(ms.len(), 1);
        assert!(candidates >= ms.len() as u64);
    }
}
