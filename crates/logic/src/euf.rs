//! Congruence closure for equality over uninterpreted functions.
//!
//! This is the EUF core of the Nelson–Oppen combination: ground terms are
//! interned into the e-graph from a hash-consed [`TermArena`], equalities
//! merge their equivalence classes, and congruence (`a = b ⇒ f(a) = f(b)`)
//! is propagated with a classic worklist over parent occurrences. Distinct
//! integer literals live in distinct classes by construction, so merging
//! two of them is a conflict.
//!
//! Terms enter via [`Egraph::intern_id`]: because arena ids are already
//! hash-consed, membership is one id lookup instead of a recursive
//! tree-hash, which is what makes asserting literals during search
//! cheap. The e-graph also maintains a head index and per-class member
//! lists (kept sorted) so E-matching never scans the whole node table.

use crate::arena::{Head, TermArena, TermId};
use crate::term::Term;
use std::collections::HashMap;
use stq_util::Symbol;

/// Index of an interned ground term in the [`Egraph`] arena.
pub type TermRef = u32;

#[derive(Clone, Debug)]
struct Node {
    head: Head,
    args: Vec<TermRef>,
    /// The term's hash-consed arena id, for O(1) extraction.
    tid: TermId,
}

/// One completed class union, with everything needed to undo it exactly.
#[derive(Clone, Debug)]
struct UnionRecord {
    small: TermRef,
    big: TermRef,
    old_int_big: Option<i64>,
    kept_members: Vec<TermRef>,
    moved_members: Vec<TermRef>,
    old_big_uses: usize,
    inserted_sigs: Vec<(Head, Vec<TermRef>)>,
}

/// A rollback point for [`Egraph::rollback`]: captures how many unions
/// and disequalities existed at [`Egraph::checkpoint`] time.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    unions: usize,
    diseqs: usize,
}

/// A congruence-closure e-graph over ground terms.
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
    nodes: Vec<Node>,
    /// Arena id → e-graph ref. Arena ids are hash-consed, so this map
    /// subsumes a structural interning table.
    tid_map: HashMap<TermId, TermRef>,
    /// Union-find parent pointers.
    parent: Vec<TermRef>,
    /// Terms in which each term occurs as a direct child (by original ref).
    uses: Vec<Vec<TermRef>>,
    /// Congruence signature table: (head, canonical child reps) → term.
    sig_table: HashMap<(Head, Vec<TermRef>), TermRef>,
    /// Asserted disequalities.
    diseqs: Vec<(TermRef, TermRef)>,
    /// Integer literal value of the class representative, if any.
    int_value: Vec<Option<i64>>,
    /// Members of each class, stored (sorted ascending) at the
    /// representative's slot and empty elsewhere.
    members: Vec<Vec<TermRef>>,
    /// E-matching head index: (symbol, arity) → refs in interning order.
    by_head: HashMap<(Symbol, usize), Vec<TermRef>>,
    /// Undo log of completed unions, in completion order, for
    /// [`Egraph::rollback`]. Only populated once recording is on.
    trail: Vec<UnionRecord>,
    /// Whether unions are recorded on the trail. Off by default so
    /// e-graphs that never roll back pay nothing; the first
    /// [`Egraph::checkpoint`] switches it on for the graph's lifetime.
    recording: bool,
    /// Number of class unions performed (telemetry; see
    /// [`crate::stats::ProverStats::merges`]). Cumulative: rollback does
    /// not subtract the undone unions.
    merges: u64,
}

/// A contradiction discovered during merging (two distinct integers, or a
/// violated disequality).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EufConflict;

const NO_MEMBERS: &[TermRef] = &[];

impl Egraph {
    /// Creates an empty e-graph.
    pub fn new() -> Egraph {
        Egraph::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a ground term (and all its subterms) by way of the arena,
    /// returning its e-graph ref.
    ///
    /// # Panics
    ///
    /// Panics if the term contains variables.
    pub fn intern(&mut self, arena: &mut TermArena, t: &Term) -> TermRef {
        let id = arena.intern(t);
        self.intern_id(arena, id)
    }

    /// Interns an already arena-interned term, returning its e-graph ref.
    /// Repeated calls with the same id are a single hash lookup.
    pub fn intern_id(&mut self, arena: &TermArena, id: TermId) -> TermRef {
        if let Some(&r) = self.tid_map.get(&id) {
            return r;
        }
        let head = arena.head(id);
        let args: Vec<TermRef> = arena
            .args(id)
            .to_vec()
            .into_iter()
            .map(|c| self.intern_id(arena, c))
            .collect();
        let r = u32::try_from(self.nodes.len()).expect("egraph overflow");
        self.nodes.push(Node {
            head,
            args: args.clone(),
            tid: id,
        });
        self.parent.push(r);
        self.uses.push(Vec::new());
        self.members.push(vec![r]);
        self.int_value.push(match head {
            Head::Int(v) => Some(v),
            Head::Sym(_) => None,
        });
        if let Head::Sym(f) = head {
            self.by_head.entry((f, args.len())).or_default().push(r);
        }
        for &a in &args {
            let rep = self.find(a);
            self.uses[rep as usize].push(r);
        }
        self.tid_map.insert(id, r);
        // Install the congruence signature; if an equal-signature term
        // already exists they are congruent and must be merged.
        let sig = (head, args.iter().map(|&a| self.find(a)).collect::<Vec<_>>());
        if let Some(&other) = self.sig_table.get(&sig) {
            // Cannot conflict: a brand-new term carries no disequalities,
            // and Int heads are hash-consed so never duplicated.
            self.merge(r, other).expect("fresh merge cannot conflict");
        } else {
            self.sig_table.insert(sig, r);
        }
        r
    }

    /// Finds the canonical representative of `a`'s class.
    pub fn find(&self, mut a: TermRef) -> TermRef {
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
    pub fn merge(&mut self, a: TermRef, b: TermRef) -> Result<(), EufConflict> {
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
            let mut inserted_sigs: Vec<(Head, Vec<TermRef>)> = Vec::new();
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
                } else if self.recording {
                    self.sig_table.insert(sig.clone(), u);
                    inserted_sigs.push(sig);
                } else {
                    self.sig_table.insert(sig, u);
                }
            }
            let old_big_uses = self.uses[big as usize].len();
            self.uses[big as usize].extend(moved_uses);
            if self.recording {
                self.trail.push(UnionRecord {
                    small,
                    big,
                    old_int_big,
                    kept_members,
                    moved_members,
                    old_big_uses,
                    inserted_sigs,
                });
            }
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
    pub fn assert_diseq(&mut self, a: TermRef, b: TermRef) -> Result<(), EufConflict> {
        if self.find(a) == self.find(b) {
            return Err(EufConflict);
        }
        self.diseqs.push((a, b));
        Ok(())
    }

    /// Returns all interned term refs.
    pub fn term_refs(&self) -> impl Iterator<Item = TermRef> + '_ {
        (0..self.nodes.len()).map(|i| i as TermRef)
    }

    /// The hash-consed arena id behind a ref.
    pub fn tid(&self, r: TermRef) -> TermId {
        self.nodes[r as usize].tid
    }

    /// The function symbol heading `r`, if it is an application.
    pub fn head_symbol(&self, r: TermRef) -> Option<Symbol> {
        match self.nodes[r as usize].head {
            Head::Sym(s) => Some(s),
            Head::Int(_) => None,
        }
    }

    /// The integer literal at `r`, if it is one.
    pub fn int_literal(&self, r: TermRef) -> Option<i64> {
        match self.nodes[r as usize].head {
            Head::Int(v) => Some(v),
            Head::Sym(_) => None,
        }
    }

    /// The known integer value of `r`'s class (an integer literal merged
    /// into the class), if any.
    pub fn class_int_value(&self, r: TermRef) -> Option<i64> {
        self.int_value[self.find(r) as usize]
    }

    /// Direct children of `r`.
    pub fn args(&self, r: TermRef) -> &[TermRef] {
        &self.nodes[r as usize].args
    }

    /// All members of `r`'s equivalence class, in ascending ref order.
    pub fn class_members(&self, r: TermRef) -> &[TermRef] {
        &self.members[self.find(r) as usize]
    }

    /// Every ref headed by `f` at the given arity, in interning order —
    /// the E-matching candidate index.
    pub fn terms_with_head(&self, f: Symbol, arity: usize) -> &[TermRef] {
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
    /// asserted from here on, and switches union recording on for the
    /// rest of this e-graph's lifetime. Pair with [`Egraph::rollback`]
    /// to use one e-graph as a reusable template. Checkpoints nest: the
    /// solver's search takes one per decision level, asserts literals as
    /// it assigns them, and rewinds to a level on backtrack, instead of
    /// re-interning every term into a fresh e-graph per check.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.recording = true;
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
    /// Interning new terms between checkpoint and rollback is not
    /// supported: rollback only undoes unions, so a term interned while
    /// unions were active would keep use-list entries attached to merged
    /// representatives. (The solver's template e-graph pre-interns every
    /// term its search can touch, so its work under a checkpoint is pure
    /// lookups plus unions.)
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

/// Merges two ascending-sorted ref lists into one.
fn merge_sorted(a: &[TermRef], b: &[TermRef]) -> Vec<TermRef> {
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
    fn observe(eg: &Egraph) -> Vec<(TermRef, Vec<TermRef>, Option<i64>)> {
        eg.term_refs()
            .map(|r| (eg.find(r), eg.class_members(r).to_vec(), eg.class_int_value(r)))
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
        assert_eq!(observe(&eg), before, "partial merges before the conflict are rewound");
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
        assert_eq!(eg.find(fa), eg.find(fb), "congruence fires again after rollback");
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
    fn tids_round_trip_through_the_arena() {
        let (mut arena, mut eg) = setup();
        let t = f(vec![c("a")]);
        let r = eg.intern(&mut arena, &t);
        assert_eq!(arena.term(eg.tid(r)), &t);
        // intern_id on the same arena id is a pure lookup.
        let id = arena.intern(&t);
        assert_eq!(eg.intern_id(&arena, id), r);
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
