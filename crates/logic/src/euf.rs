//! Congruence closure for equality over uninterpreted functions.
//!
//! This is the EUF core of the Nelson–Oppen combination: ground terms
//! enter from a hash-consed [`TermArena`], equalities merge their
//! equivalence classes, and congruence (`a = b ⇒ f(a) = f(b)`) is
//! propagated with a classic worklist over parent occurrences. Distinct
//! integer literals live in distinct classes by construction, so merging
//! two of them is a conflict.
//!
//! The e-graph's node ids are the arena's [`TermId`]s: [`Egraph::grow`]
//! adds the terms the arena gained since the last call in id order, so
//! node `i` is arena term `i` and an id never needs translating. That is
//! what lets one proof attempt's search and E-matching share one graph.
//! The e-graph also maintains a head index and per-class member lists
//! (kept sorted) so E-matching never scans the whole node table.

use crate::arena::{Head, TermArena, TermId};
use crate::term::Term;
use std::collections::HashMap;
use stq_util::Symbol;

#[derive(Clone, Debug)]
struct Node {
    head: Head,
    args: Vec<TermId>,
}

/// One completed class union, with everything needed to undo it exactly.
#[derive(Clone, Debug)]
struct UnionRecord {
    small: TermId,
    big: TermId,
    old_int_big: Option<i64>,
    kept_members: Vec<TermId>,
    moved_members: Vec<TermId>,
    old_big_uses: usize,
    inserted_sigs: Vec<(Head, Vec<TermId>)>,
}

/// A rollback point for [`Egraph::rollback`]: captures how many unions
/// and disequalities existed at [`Egraph::checkpoint`] time.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    unions: usize,
    diseqs: usize,
}

/// A congruence-closure e-graph over the ground terms of a [`TermArena`],
/// addressed by their arena ids.
///
/// # Examples
///
/// ```
/// use stq_logic::arena::TermArena;
/// use stq_logic::euf::Egraph;
/// use stq_logic::term::Term;
///
/// let mut arena = TermArena::new();
/// let mut eg = Egraph::new();
/// let a = eg.intern(&mut arena, &Term::cnst("a"));
/// let b = eg.intern(&mut arena, &Term::cnst("b"));
/// let fa = eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("a")]));
/// let fb = eg.intern(&mut arena, &Term::app("f", vec![Term::cnst("b")]));
/// assert_ne!(eg.find(fa), eg.find(fb));
/// eg.merge(a, b).unwrap();
/// assert_eq!(eg.find(fa), eg.find(fb)); // congruence
/// ```
#[derive(Clone, Debug, Default)]
pub struct Egraph {
    /// Head and children of each term, indexed by arena id.
    nodes: Vec<Node>,
    /// Union-find parent pointers.
    parent: Vec<TermId>,
    /// Terms in which each term occurs as a direct child (by original id).
    uses: Vec<Vec<TermId>>,
    /// Congruence signature table: (head, canonical child reps) → term.
    sig_table: HashMap<(Head, Vec<TermId>), TermId>,
    /// Asserted disequalities.
    diseqs: Vec<(TermId, TermId)>,
    /// Integer literal value of the class representative, if any.
    int_value: Vec<Option<i64>>,
    /// Members of each class, stored (sorted ascending) at the
    /// representative's slot and empty elsewhere.
    members: Vec<Vec<TermId>>,
    /// E-matching head index: (symbol, arity) → ids in ascending order.
    by_head: HashMap<(Symbol, usize), Vec<TermId>>,
    /// Undo log of completed unions, in completion order, for
    /// [`Egraph::rollback`].
    trail: Vec<UnionRecord>,
    /// Number of class unions performed (telemetry; see
    /// [`crate::stats::ProverStats::merges`]). Cumulative: rollback does
    /// not subtract the undone unions.
    merges: u64,
}

/// A contradiction discovered during merging (two distinct integers, or a
/// violated disequality).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EufConflict;

const NO_MEMBERS: &[TermId] = &[];

impl Egraph {
    /// Creates an empty e-graph.
    pub fn new() -> Egraph {
        Egraph::default()
    }

    /// Number of terms in the graph: it holds arena ids `0..len()`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds no terms.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a ground term (and all its subterms) into the arena, then
    /// grows the graph over it, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the term contains variables.
    pub fn intern(&mut self, arena: &mut TermArena, t: &Term) -> TermId {
        let id = arena.intern(t);
        self.grow(arena);
        id
    }

    /// Adds, in id order, every term `arena` interned since the last
    /// call, so node `i` is arena term `i`. A new term whose signature
    /// equals an existing term's (their children were merged) joins that
    /// term's class.
    ///
    /// Grow a graph over one arena only, and never while a checkpoint is
    /// open: [`Egraph::rollback`] undoes unions, not growth.
    pub fn grow(&mut self, arena: &TermArena) {
        for i in self.nodes.len()..arena.len() {
            let id = TermId::try_from(i).expect("arena ids are TermIds");
            let head = arena.head(id);
            let args = arena.args(id).to_vec();
            self.parent.push(id);
            self.uses.push(Vec::new());
            self.members.push(vec![id]);
            self.int_value.push(match head {
                Head::Int(v) => Some(v),
                Head::Sym(_) => None,
            });
            if let Head::Sym(f) = head {
                self.by_head.entry((f, args.len())).or_default().push(id);
            }
            for &a in &args {
                let rep = self.find(a);
                self.uses[rep as usize].push(id);
            }
            let sig = (head, args.iter().map(|&a| self.find(a)).collect::<Vec<_>>());
            self.nodes.push(Node { head, args });
            if let Some(&other) = self.sig_table.get(&sig) {
                // Cannot conflict: a new term carries no disequalities,
                // and Int heads are hash-consed so never duplicated.
                self.merge(id, other).expect("fresh merge cannot conflict");
            } else {
                self.sig_table.insert(sig, id);
            }
        }
    }

    /// Finds the canonical representative of `a`'s class.
    pub fn find(&self, mut a: TermId) -> TermId {
        while self.parent[a as usize] != a {
            a = self.parent[a as usize];
        }
        a
    }

    /// Asserts `a = b`, propagating congruence.
    ///
    /// # Errors
    ///
    /// Returns [`EufConflict`] if the merge equates two distinct integer
    /// literals or violates a previously asserted disequality.
    pub fn merge(&mut self, a: TermId, b: TermId) -> Result<(), EufConflict> {
        let mut pending = vec![(a, b)];
        while let Some((x, y)) = pending.pop() {
            let (rx, ry) = (self.find(x), self.find(y));
            if rx == ry {
                continue;
            }
            // Distinct integer literals cannot be equal.
            if let (Some(u), Some(v)) = (self.int_value[rx as usize], self.int_value[ry as usize]) {
                if u != v {
                    return Err(EufConflict);
                }
            }
            // Union by use-list size: graft the smaller class.
            let (small, big) = if self.uses[rx as usize].len() <= self.uses[ry as usize].len() {
                (rx, ry)
            } else {
                (ry, rx)
            };
            self.parent[small as usize] = big;
            self.merges += 1;
            let old_int_big = self.int_value[big as usize];
            if old_int_big.is_none() {
                self.int_value[big as usize] = self.int_value[small as usize];
            }
            // Keep the surviving member list sorted so enumeration order
            // is stable no matter which side was grafted.
            let moved_members = std::mem::take(&mut self.members[small as usize]);
            let kept_members = std::mem::take(&mut self.members[big as usize]);
            self.members[big as usize] = merge_sorted(&kept_members, &moved_members);
            // Recompute signatures of the small class's parents.
            let moved_uses = std::mem::take(&mut self.uses[small as usize]);
            let mut inserted_sigs: Vec<(Head, Vec<TermId>)> = Vec::new();
            for &u in &moved_uses {
                let node = &self.nodes[u as usize];
                let sig = (
                    node.head,
                    node.args.iter().map(|&c| self.find(c)).collect::<Vec<_>>(),
                );
                if let Some(&other) = self.sig_table.get(&sig) {
                    if self.find(other) != self.find(u) {
                        pending.push((u, other));
                    }
                } else {
                    self.sig_table.insert(sig.clone(), u);
                    inserted_sigs.push(sig);
                }
            }
            let old_big_uses = self.uses[big as usize].len();
            self.uses[big as usize].extend(moved_uses);
            self.trail.push(UnionRecord {
                small,
                big,
                old_int_big,
                kept_members,
                moved_members,
                old_big_uses,
                inserted_sigs,
            });
            // Violated disequality?
            for &(p, q) in &self.diseqs {
                if self.find(p) == self.find(q) {
                    return Err(EufConflict);
                }
            }
        }
        Ok(())
    }

    /// Asserts `a ≠ b`.
    ///
    /// # Errors
    ///
    /// Returns [`EufConflict`] if `a` and `b` are already in the same class.
    pub fn assert_diseq(&mut self, a: TermId, b: TermId) -> Result<(), EufConflict> {
        if self.find(a) == self.find(b) {
            return Err(EufConflict);
        }
        self.diseqs.push((a, b));
        Ok(())
    }

    /// Returns the id of every term in the graph.
    pub fn term_refs(&self) -> impl Iterator<Item = TermId> + '_ {
        (0..self.nodes.len()).map(|i| i as TermId)
    }

    /// The function symbol heading `r`, if it is an application.
    pub fn head_symbol(&self, r: TermId) -> Option<Symbol> {
        match self.nodes[r as usize].head {
            Head::Sym(s) => Some(s),
            Head::Int(_) => None,
        }
    }

    /// The integer literal at `r`, if it is one.
    pub fn int_literal(&self, r: TermId) -> Option<i64> {
        match self.nodes[r as usize].head {
            Head::Int(v) => Some(v),
            Head::Sym(_) => None,
        }
    }

    /// The known integer value of `r`'s class (an integer literal merged
    /// into the class), if any.
    pub fn class_int_value(&self, r: TermId) -> Option<i64> {
        self.int_value[self.find(r) as usize]
    }

    /// Direct children of `r`.
    pub fn args(&self, r: TermId) -> &[TermId] {
        &self.nodes[r as usize].args
    }

    /// All members of `r`'s equivalence class, in ascending id order.
    pub fn class_members(&self, r: TermId) -> &[TermId] {
        &self.members[self.find(r) as usize]
    }

    /// Every term headed by `f` at the given arity, in ascending id
    /// order — the E-matching candidate index.
    pub fn terms_with_head(&self, f: Symbol, arity: usize) -> &[TermId] {
        self.by_head
            .get(&(f, arity))
            .map_or(NO_MEMBERS, Vec::as_slice)
    }

    /// Total class unions performed so far, including congruence-induced
    /// merges propagated by the worklist. Cumulative across
    /// [`Egraph::rollback`]: undone unions still count as work done.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Captures a rollback point covering every union and disequality
    /// asserted from here on. Checkpoints nest: the solver's search takes
    /// one per decision level, asserts literals as it assigns them and
    /// rewinds to a level on backtrack, and E-matching takes one for the
    /// model's equalities, all on the attempt's one graph.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            unions: self.trail.len(),
            diseqs: self.diseqs.len(),
        }
    }

    /// Rewinds every union and disequality asserted since the
    /// checkpoint, restoring parent pointers, member lists, use lists,
    /// class integer values, and the congruence signature table exactly.
    /// The [`Egraph::merges`] telemetry counter is *not* rewound.
    ///
    /// Growing the graph between checkpoint and rollback is not
    /// supported: rollback only undoes unions, so a term added while
    /// unions were active would keep use-list entries attached to merged
    /// representatives. (The solver grows its graph at round starts,
    /// when the previous round's unions are all rolled back.)
    pub fn rollback(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.unions {
            let u = self.trail.pop().expect("trail length checked");
            for sig in &u.inserted_sigs {
                self.sig_table.remove(sig);
            }
            let moved = self.uses[u.big as usize].split_off(u.old_big_uses);
            self.uses[u.small as usize] = moved;
            self.members[u.big as usize] = u.kept_members;
            self.members[u.small as usize] = u.moved_members;
            self.int_value[u.big as usize] = u.old_int_big;
            self.parent[u.small as usize] = u.small;
        }
        self.diseqs.truncate(cp.diseqs);
    }
}

/// Merges two ascending-sorted id lists into one.
fn merge_sorted(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        if a[ia] <= b[ib] {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

#[cfg(test)]
mod rollback_tests {
    use super::*;

    fn c(name: &str) -> Term {
        Term::cnst(name)
    }
    fn f(args: Vec<Term>) -> Term {
        Term::app("f", args)
    }

    /// Observable e-graph state, for exact before/after comparison.
    fn observe(eg: &Egraph) -> Vec<(TermId, Vec<TermId>, Option<i64>)> {
        eg.term_refs()
            .map(|r| {
                (
                    eg.find(r),
                    eg.class_members(r).to_vec(),
                    eg.class_int_value(r),
                )
            })
            .collect()
    }

    #[test]
    fn rollback_restores_the_pre_checkpoint_state_exactly() {
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let d = eg.intern(&mut arena, &c("d"));
        let _fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let _fb = eg.intern(&mut arena, &f(vec![c("b")]));
        let seven = eg.intern(&mut arena, &Term::int(7));
        eg.merge(a, seven).unwrap();

        let before = observe(&eg);
        let cp = eg.checkpoint();
        // A "leaf": merges (with congruence cascade), a disequality.
        eg.merge(a, b).unwrap();
        eg.assert_diseq(b, d).unwrap();
        assert_ne!(observe(&eg), before, "the leaf visibly mutated the graph");
        eg.rollback(cp);
        assert_eq!(observe(&eg), before, "rollback is exact");
        // The graph is fully usable afterwards: a different "leaf" works
        // and sees no residue (b ≠ d is gone, so merging them is fine).
        let cp2 = eg.checkpoint();
        eg.merge(b, d).unwrap();
        assert_eq!(eg.find(b), eg.find(d));
        eg.rollback(cp2);
        assert_eq!(observe(&eg), before);
    }

    #[test]
    fn rollback_after_a_conflict_recovers() {
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let a = eg.intern(&mut arena, &c("a"));
        let three = eg.intern(&mut arena, &Term::int(3));
        let five = eg.intern(&mut arena, &Term::int(5));
        let before = observe(&eg);
        let cp = eg.checkpoint();
        eg.merge(a, three).unwrap();
        assert_eq!(eg.merge(a, five), Err(EufConflict));
        eg.rollback(cp);
        assert_eq!(
            observe(&eg),
            before,
            "partial merges before the conflict are rewound"
        );
        // And the non-conflicting half works cleanly afterwards.
        eg.merge(a, five).unwrap();
        assert_eq!(eg.class_int_value(a), Some(5));
    }

    #[test]
    fn merges_telemetry_is_cumulative_across_rollbacks() {
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let cp = eg.checkpoint();
        eg.merge(a, b).unwrap();
        assert_eq!(eg.merges(), 1);
        eg.rollback(cp);
        assert_eq!(eg.merges(), 1, "undone unions still count as work done");
    }

    #[test]
    fn rollback_restores_congruence_signatures() {
        // After rollback, re-merging must re-propagate congruence: if the
        // signature table kept leaf-time entries, f(a)/f(b) would not be
        // re-merged on the second pass.
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let fb = eg.intern(&mut arena, &f(vec![c("b")]));
        let cp = eg.checkpoint();
        eg.merge(a, b).unwrap();
        assert_eq!(eg.find(fa), eg.find(fb));
        eg.rollback(cp);
        assert_ne!(eg.find(fa), eg.find(fb));
        eg.merge(a, b).unwrap();
        assert_eq!(
            eg.find(fa),
            eg.find(fb),
            "congruence fires again after rollback"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> Term {
        Term::cnst(name)
    }
    fn f(args: Vec<Term>) -> Term {
        Term::app("f", args)
    }

    fn setup() -> (TermArena, Egraph) {
        (TermArena::new(), Egraph::new())
    }

    #[test]
    fn interning_is_shared() {
        let (mut arena, mut eg) = setup();
        let a1 = eg.intern(&mut arena, &f(vec![c("a")]));
        let a2 = eg.intern(&mut arena, &f(vec![c("a")]));
        assert_eq!(a1, a2);
    }

    #[test]
    fn basic_union() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        assert_ne!(eg.find(a), eg.find(b));
        eg.merge(a, b).unwrap();
        assert_eq!(eg.find(a), eg.find(b));
    }

    #[test]
    fn congruence_propagates() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let fb = eg.intern(&mut arena, &f(vec![c("b")]));
        eg.merge(a, b).unwrap();
        assert_eq!(eg.find(fa), eg.find(fb));
    }

    #[test]
    fn congruence_propagates_transitively() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let ffa = eg.intern(&mut arena, &f(vec![f(vec![c("a")])]));
        let ffb = eg.intern(&mut arena, &f(vec![f(vec![c("b")])]));
        eg.merge(a, b).unwrap();
        assert_eq!(eg.find(ffa), eg.find(ffb));
    }

    #[test]
    fn congruence_on_late_interning() {
        // Merge first, intern the applications afterwards.
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        eg.merge(a, b).unwrap();
        let fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let fb = eg.intern(&mut arena, &f(vec![c("b")]));
        assert_eq!(eg.find(fa), eg.find(fb));
    }

    #[test]
    fn distinct_integers_conflict() {
        let (mut arena, mut eg) = setup();
        let three = eg.intern(&mut arena, &Term::int(3));
        let five = eg.intern(&mut arena, &Term::int(5));
        assert_eq!(eg.merge(three, five), Err(EufConflict));
    }

    #[test]
    fn integer_conflict_through_constants() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let three = eg.intern(&mut arena, &Term::int(3));
        let five = eg.intern(&mut arena, &Term::int(5));
        eg.merge(a, three).unwrap();
        assert_eq!(eg.merge(a, five), Err(EufConflict));
    }

    #[test]
    fn disequality_conflicts_immediately() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        eg.merge(a, b).unwrap();
        assert_eq!(eg.assert_diseq(a, b), Err(EufConflict));
    }

    #[test]
    fn disequality_conflicts_later_via_congruence() {
        let (mut arena, mut eg) = setup();
        let fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let fb = eg.intern(&mut arena, &f(vec![c("b")]));
        eg.assert_diseq(fa, fb).unwrap();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        assert_eq!(eg.merge(a, b), Err(EufConflict));
    }

    #[test]
    fn class_members_enumerate_sorted() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let d = eg.intern(&mut arena, &c("d"));
        eg.merge(b, a).unwrap();
        let members = eg.class_members(a);
        assert_eq!(members, &[a, b], "sorted regardless of merge direction");
        assert_eq!(eg.class_members(d), &[d]);
    }

    #[test]
    fn head_index_tracks_interning_order() {
        let (mut arena, mut eg) = setup();
        let fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let fb = eg.intern(&mut arena, &f(vec![c("b")]));
        let _g = eg.intern(&mut arena, &Term::app("g", vec![c("a")]));
        assert_eq!(eg.terms_with_head(Symbol::intern("f"), 1), &[fa, fb]);
        assert!(eg.terms_with_head(Symbol::intern("f"), 2).is_empty());
    }

    #[test]
    fn grown_ids_name_the_arena_terms() {
        use crate::ematch::match_trigger;
        use crate::term::Sort;
        let mut arena = TermArena::new();
        let fa = arena.intern(&f(vec![c("a")]));
        arena.intern(&Term::app("g", vec![c("a"), Term::int(3)]));
        let mut eg = Egraph::new();
        eg.grow(&arena);
        assert_eq!(eg.len(), arena.len());
        // Terms the arena gains later join at their own ids.
        let fb = arena.intern(&f(vec![c("b")]));
        eg.grow(&arena);
        eg.grow(&arena);
        assert_eq!(eg.len(), arena.len());
        let heads = eg.terms_with_head(Symbol::intern("f"), 1);
        assert_eq!(heads, &[fa, fb]);
        assert_eq!(arena.term(heads[1]), &f(vec![c("b")]));
        eg.merge(fa, fb).unwrap();
        let members: Vec<&Term> = eg
            .class_members(fb)
            .iter()
            .map(|&r| arena.term(r))
            .collect();
        assert_eq!(members, [&f(vec![c("a")]), &f(vec![c("b")])]);
        let x = Term::var("X", Sort::Int);
        let y = Term::var("Y", Sort::Int);
        let ms = match_trigger(&eg, &[Term::app("g", vec![x, y])]);
        assert_eq!(ms.len(), 1);
        assert_eq!(arena.term(ms[0][0].1), &c("a"));
        assert_eq!(arena.term(ms[0][1].1), &Term::int(3));
    }

    #[test]
    fn class_int_value_flows_through_merges() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let seven = eg.intern(&mut arena, &Term::int(7));
        eg.merge(a, seven).unwrap();
        eg.merge(b, a).unwrap();
        assert_eq!(eg.class_int_value(b), Some(7));
    }

    #[test]
    fn merges_are_counted_including_congruence() {
        let (mut arena, mut eg) = setup();
        let a = eg.intern(&mut arena, &c("a"));
        let b = eg.intern(&mut arena, &c("b"));
        let _fa = eg.intern(&mut arena, &f(vec![c("a")]));
        let _fb = eg.intern(&mut arena, &f(vec![c("b")]));
        assert_eq!(eg.merges(), 0);
        eg.merge(a, b).unwrap();
        // One explicit union plus the congruence-induced f(a) = f(b).
        assert_eq!(eg.merges(), 2);
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn interning_variable_panics() {
        use crate::term::Sort;
        let (mut arena, mut eg) = setup();
        let _ = eg.intern(&mut arena, &Term::var("x", Sort::Int));
    }
}
