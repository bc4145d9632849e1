//! A hash-consed arena of ground terms.
//!
//! The prover's hot loops — congruence closure at every propagation
//! fixpoint, E-matching every round — repeatedly walk the same `Box`-based
//! [`Term`] trees, re-hashing and re-cloning structure that never
//! changes within an attempt. The arena interns each distinct ground
//! term once and hands out a dense [`TermId`]; equal ids mean equal
//! terms, so structural equality, hashing, and child access are all
//! O(1) from then on. The ids are also the node ids of the attempt's
//! e-graph, which grows over the arena ([`crate::euf::Egraph::grow`]).
//! A worker keeps one arena alive across obligations ([`crate::theory`])
//! and truncates it back to the shared-theory watermark between
//! attempts.

use crate::fasthash::FastMap;
use crate::term::Term;
use std::sync::OnceLock;
use stq_util::Symbol;

/// Index of an interned ground term in a [`TermArena`].
pub type TermId = u32;

/// The head of an interned term: a function symbol (possibly nullary)
/// or an integer literal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Head {
    /// Function symbol.
    Sym(Symbol),
    /// Integer literal.
    Int(i64),
}

#[derive(Clone, Debug)]
struct ANode {
    head: Head,
    args: Vec<TermId>,
}

/// A hash-consing arena for ground terms.
///
/// # Examples
///
/// ```
/// use stq_logic::arena::TermArena;
/// use stq_logic::term::Term;
///
/// let mut arena = TermArena::new();
/// let a1 = arena.intern(&Term::app("f", vec![Term::cnst("a")]));
/// let a2 = arena.intern(&Term::app("f", vec![Term::cnst("a")]));
/// assert_eq!(a1, a2); // O(1) structural equality from here on
/// ```
#[derive(Clone, Debug, Default)]
pub struct TermArena {
    nodes: Vec<ANode>,
    /// Hash-consing table: (head, child ids) → id.
    table: FastMap<(Head, Vec<TermId>), TermId>,
    /// The term tree per id, built from its children's on first request
    /// ([`TermArena::term`]): instantiation needs the trees of the terms
    /// it binds, and only those.
    terms: Vec<OnceLock<Term>>,
    created: u64,
    hits: u64,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes created since construction (monotone; deltas are the
    /// per-attempt `interned_terms` telemetry).
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Hash-consing hits since construction (monotone; deltas are the
    /// per-attempt `intern_hits` telemetry).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Interns a ground term (and all its subterms), returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the term contains variables.
    pub fn intern(&mut self, t: &Term) -> TermId {
        match t {
            Term::Var(x, _) => panic!("cannot intern non-ground term (var {x})"),
            Term::Int(v) => self.intern_node(Head::Int(*v), Vec::new()),
            Term::App(f, ts) => {
                let args: Vec<TermId> = ts.iter().map(|a| self.intern(a)).collect();
                self.intern_node(Head::Sym(*f), args)
            }
        }
    }

    /// Interns an application `f(args…)` whose children are already
    /// interned, without materializing the argument terms first.
    pub fn intern_app(&mut self, f: Symbol, args: Vec<TermId>) -> TermId {
        self.intern_node(Head::Sym(f), args)
    }

    fn intern_node(&mut self, head: Head, args: Vec<TermId>) -> TermId {
        let key = (head, args);
        if let Some(&id) = self.table.get(&key) {
            self.hits += 1;
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("term arena overflow");
        self.terms.push(OnceLock::new());
        self.nodes.push(ANode {
            head,
            args: key.1.clone(),
        });
        self.table.insert(key, id);
        self.created += 1;
        id
    }

    /// The head of an interned term.
    pub fn head(&self, id: TermId) -> Head {
        self.nodes[id as usize].head
    }

    /// Direct children of an interned term.
    pub fn args(&self, id: TermId) -> &[TermId] {
        &self.nodes[id as usize].args
    }

    /// The integer literal at `id`, if it is one.
    pub fn int_value(&self, id: TermId) -> Option<i64> {
        match self.nodes[id as usize].head {
            Head::Int(v) => Some(v),
            Head::Sym(_) => None,
        }
    }

    /// The term tree for an id.
    pub fn term(&self, id: TermId) -> &Term {
        self.terms[id as usize].get_or_init(|| match self.head(id) {
            Head::Int(v) => Term::Int(v),
            Head::Sym(f) => Term::App(
                f,
                self.args(id)
                    .iter()
                    .map(|&a| self.term(a).clone())
                    .collect(),
            ),
        })
    }

    /// Drops every node interned at or after position `len`, removing
    /// its hash-consing entry — the scoped reset that returns a
    /// worker's arena to the shared-theory watermark between
    /// obligations. Ids below `len` remain valid.
    pub fn truncate(&mut self, len: usize) {
        for node in self.nodes.drain(len..) {
            self.table.remove(&(node.head, node.args));
        }
        self.terms.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_shared_and_counted() {
        let mut arena = TermArena::new();
        let a1 = arena.intern(&Term::app("f", vec![Term::cnst("a")]));
        let a2 = arena.intern(&Term::app("f", vec![Term::cnst("a")]));
        assert_eq!(a1, a2);
        // f(a) and a created once each; the second intern hits twice.
        assert_eq!(arena.created(), 2);
        assert_eq!(arena.hits(), 2);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut arena = TermArena::new();
        let a = arena.intern(&Term::cnst("a"));
        let b = arena.intern(&Term::cnst("b"));
        let i = arena.intern(&Term::int(3));
        assert_ne!(a, b);
        assert_ne!(a, i);
        assert_eq!(arena.int_value(i), Some(3));
        assert_eq!(arena.int_value(a), None);
    }

    #[test]
    fn terms_round_trip() {
        let mut arena = TermArena::new();
        let t = Term::app("f", vec![Term::cnst("a"), Term::int(7)]);
        let id = arena.intern(&t);
        assert_eq!(arena.term(id), &t);
        assert_eq!(arena.args(id).len(), 2);
        assert_eq!(arena.head(id), Head::Sym(Symbol::intern("f")));
    }

    #[test]
    fn intern_app_matches_intern() {
        let mut arena = TermArena::new();
        let a = arena.intern(&Term::cnst("a"));
        let via_parts = arena.intern_app(Symbol::intern("f"), vec![a]);
        let via_term = arena.intern(&Term::app("f", vec![Term::cnst("a")]));
        assert_eq!(via_parts, via_term);
        assert_eq!(
            arena.term(via_parts),
            &Term::app("f", vec![Term::cnst("a")])
        );
    }

    #[test]
    fn truncate_forgets_and_reuses_ids() {
        let mut arena = TermArena::new();
        let a = arena.intern(&Term::cnst("a"));
        let mark = arena.len();
        let b1 = arena.intern(&Term::cnst("b"));
        arena.truncate(mark);
        assert_eq!(arena.len(), mark);
        // The surviving prefix still hash-conses.
        assert_eq!(arena.intern(&Term::cnst("a")), a);
        // The dropped term re-interns at the same position.
        let b2 = arena.intern(&Term::cnst("b"));
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn interning_variable_panics() {
        use crate::term::Sort;
        let mut arena = TermArena::new();
        let _ = arena.intern(&Term::var("x", Sort::Int));
    }
}
