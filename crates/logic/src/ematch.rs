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
//!
//! # Enumeration order
//!
//! The matcher walks one work stack of `(pattern, class)` pairs, whose
//! top is the next pattern to match, and backtracks by truncating it,
//! so a match allocates only that stack, once, and the bindings it
//! reports; a trigger with an application pattern whose head no term
//! has returns before allocating anything. The order
//! in which it reports bindings decides the prover's instantiation
//! order, and it is fixed: the patterns of a multi-pattern left to
//! right; an unanchored pattern tries its candidates (the terms with its
//! head and arity, or every term for a variable or literal) in ascending
//! id order, visiting each class once, at its first candidate; an
//! anchored application tries the members of its class in ascending id
//! order, and matches the member's arguments left to right before the
//! rest of the work. Every variable is bound to a class representative,
//! and bound in the same order in every binding of a trigger, so two
//! bindings equal up to congruence are equal, and only the first is
//! kept.

use crate::arena::TermId;
use crate::euf::Egraph;
use crate::term::Term;
use stq_util::Symbol;

/// A substitution produced by matching: variable → hash-consed ground
/// term id (resolve through the attempt's [`crate::arena::TermArena`]).
pub type Binding = Vec<(Symbol, TermId)>;

/// One trigger's match in progress.
struct Matcher<'a> {
    eg: &'a Egraph,
    /// Patterns still to match, the next on top; `None` marks an
    /// unanchored pattern (any class).
    work: Vec<(&'a Term, Option<TermId>)>,
    /// The variables bound so far.
    binding: Binding,
    /// Distinct complete bindings, in the order first found.
    out: Vec<Binding>,
    /// Complete bindings found, duplicates included.
    candidates: u64,
}

impl<'a> Matcher<'a> {
    /// Matches the rest of the work, restoring the stack afterwards.
    fn next(&mut self) {
        let Some((pat, target)) = self.work.pop() else {
            self.candidates += 1;
            if !self.out.contains(&self.binding) {
                self.out.push(self.binding.clone());
            }
            return;
        };
        match target {
            Some(class) => self.match_class(pat, class),
            None => self.match_unanchored(pat),
        }
        self.work.push((pat, target));
    }

    /// Tries an unanchored pattern against every class that holds a
    /// candidate — a term with the pattern's head and arity, the literal
    /// itself, or any term for a variable — once, at its first candidate
    /// in ascending id order, which is its smallest.
    fn match_unanchored(&mut self, pat: &'a Term) {
        let eg = self.eg;
        let candidate = |r: TermId| match pat {
            Term::App(f, pargs) => eg.head_symbol(r) == Some(*f) && eg.args(r).len() == pargs.len(),
            Term::Int(v) => eg.int_literal(r) == Some(*v),
            Term::Var(..) => true,
        };
        // Class members are sorted, so the class's first candidate
        // member is its smallest.
        let first_in_class =
            |r: TermId| eg.class_members(r).iter().find(|&&m| candidate(m)) == Some(&r);
        match pat {
            // Application heads hit the (head, arity) index directly.
            Term::App(f, pargs) => {
                for &r in eg.terms_with_head(*f, pargs.len()) {
                    if first_in_class(r) {
                        self.match_class(pat, r);
                    }
                }
            }
            Term::Int(_) | Term::Var(..) => {
                for r in eg.term_refs().filter(|&r| candidate(r)) {
                    if first_in_class(r) {
                        self.match_class(pat, r);
                    }
                }
            }
        }
    }

    /// Matches `pat` against the class of `class`, then the rest of the
    /// work.
    fn match_class(&mut self, pat: &'a Term, class: TermId) {
        let eg = self.eg;
        match pat {
            Term::Var(x, _) => match self.binding.iter().find(|(y, _)| y == x) {
                Some(&(_, bound)) => {
                    if bound == eg.find(class) {
                        self.next();
                    }
                }
                None => {
                    self.binding.push((*x, eg.find(class)));
                    self.next();
                    self.binding.pop();
                }
            },
            Term::Int(v) => {
                if eg.class_int_value(class) == Some(*v) {
                    self.next();
                }
            }
            Term::App(f, pargs) => {
                for &member in eg.class_members(class) {
                    let args = eg.args(member);
                    if eg.head_symbol(member) == Some(*f) && args.len() == pargs.len() {
                        // The first argument pattern goes on top.
                        let depth = self.work.len();
                        let anchored = pargs.iter().zip(args).rev();
                        self.work.extend(anchored.map(|(p, &a)| (p, Some(a))));
                        self.next();
                        self.work.truncate(depth);
                    }
                }
            }
        }
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
    // Every pattern must match some term: an application pattern whose
    // head no term has matches nothing.
    let absent =
        |p: &Term| matches!(p, Term::App(f, args) if eg.terms_with_head(*f, args.len()).is_empty());
    if trigger.iter().any(absent) {
        return (Vec::new(), 0);
    }
    // The stack never holds more patterns than the trigger has nodes.
    let mut work = Vec::with_capacity(trigger.iter().map(pattern_nodes).sum());
    // The first pattern goes on top.
    work.extend(trigger.iter().rev().map(|p| (p, None)));
    let mut m = Matcher {
        eg,
        work,
        binding: Vec::new(),
        out: Vec::new(),
        candidates: 0,
    };
    m.next();
    (m.out, m.candidates)
}

fn pattern_nodes(p: &Term) -> usize {
    match p {
        Term::App(_, args) => 1 + args.iter().map(pattern_nodes).sum::<usize>(),
        Term::Var(..) | Term::Int(_) => 1,
    }
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
