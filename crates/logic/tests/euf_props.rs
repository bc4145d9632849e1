//! Differential testing of the congruence closure: the e-graph's verdict
//! on random equality problems is compared against a naive reference
//! implementation (fixpoint over all term pairs), and random scripts of
//! nested checkpoints and rollbacks, with the graph grown between them,
//! are compared against a fresh replay of the operations that survive
//! them.

use proptest::prelude::*;
use stq_logic::arena::TermArena;
use stq_logic::arena::TermId;
use stq_logic::euf::{Checkpoint, Egraph};
use stq_logic::term::Term;

/// The term universe: constants a,b,c,d and one/two levels of f/g
/// applications over them.
fn universe() -> Vec<Term> {
    let consts: Vec<Term> = ["a", "b", "c", "d"].iter().map(|n| Term::cnst(n)).collect();
    let mut terms = consts.clone();
    for t in &consts {
        terms.push(Term::app("f", vec![t.clone()]));
        terms.push(Term::app("g", vec![t.clone()]));
    }
    for t in &consts {
        terms.push(Term::app("f", vec![Term::app("f", vec![t.clone()])]));
    }
    terms
}

/// Naive congruence closure over the universe: a partition refined to a
/// fixpoint by symmetry/transitivity (via union-find) and congruence
/// (checked pairwise).
fn reference_closure(eqs: &[(usize, usize)]) -> Vec<usize> {
    let terms = universe();
    let n = terms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            i = parent[i];
        }
        i
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        parent[ra] = rb;
    }
    for &(a, b) in eqs {
        union(&mut parent, a, b);
    }
    // Congruence to fixpoint: f(x) ~ f(y) whenever x ~ y.
    loop {
        let mut changed = false;
        for i in 0..n {
            for j in 0..n {
                if find(&mut parent, i) == find(&mut parent, j) {
                    continue;
                }
                let (Term::App(fi, ai), Term::App(fj, aj)) = (&terms[i], &terms[j]) else {
                    continue;
                };
                if fi != fj || ai.len() != aj.len() || ai.is_empty() {
                    continue;
                }
                let congruent = ai.iter().zip(aj).all(|(x, y)| {
                    let xi = terms.iter().position(|t| t == x).expect("in universe");
                    let yi = terms.iter().position(|t| t == y).expect("in universe");
                    find(&mut parent, xi) == find(&mut parent, yi)
                });
                if congruent {
                    union(&mut parent, i, j);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn egraph_matches_reference_closure(
        eqs in prop::collection::vec((0usize..16, 0usize..16), 0..8)
    ) {
        let terms = universe();
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let refs: Vec<_> = terms.iter().map(|t| eg.intern(&mut arena, t)).collect();
        for &(a, b) in &eqs {
            eg.merge(refs[a], refs[b]).expect("no integers involved");
        }
        let reference = reference_closure(&eqs);
        for i in 0..terms.len() {
            for j in 0..terms.len() {
                let expected = reference[i] == reference[j];
                let actual = eg.find(refs[i]) == eg.find(refs[j]);
                prop_assert_eq!(
                    actual, expected,
                    "disagreement on {} ~ {}", terms[i], terms[j]
                );
            }
        }
    }
}

// ----- checkpoint and rollback -----

/// The script universe: four constants, a sparse set of `f` and `g`
/// applications over them, and two integer literals. Sparse, so a merge
/// gives some application a signature no interned term has; such
/// signatures enter the table and a rollback must take them out again.
/// The integers let merges conflict on values as well as on asserted
/// disequalities.
fn script_universe() -> Vec<Term> {
    let [a, b, c, d] = ["a", "b", "c", "d"].map(Term::cnst);
    let fa = Term::app("f", vec![a.clone()]);
    vec![
        Term::app("f", vec![fa.clone()]),
        fa,
        Term::app("f", vec![b.clone()]),
        Term::app("g", vec![c.clone()]),
        Term::app("g", vec![d.clone()]),
        a,
        b,
        c,
        d,
        Term::int(1),
        Term::int(2),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Merge(usize, usize),
    Diseq(usize, usize),
    Checkpoint,
    Rollback,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let n = script_universe().len();
    prop_oneof![
        (0..n, 0..n).prop_map(|(a, b)| Op::Merge(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| Op::Merge(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| Op::Diseq(a, b)),
        (0..1usize).prop_map(|_| Op::Checkpoint),
        (0..1usize).prop_map(|_| Op::Rollback),
    ]
}

/// Applies a merge or disequality, returning whether it conflicted.
fn apply(eg: &mut Egraph, refs: &[TermId], op: Op) -> bool {
    match op {
        Op::Merge(a, b) => eg.merge(refs[a], refs[b]).is_err(),
        Op::Diseq(a, b) => eg.assert_diseq(refs[a], refs[b]).is_err(),
        Op::Checkpoint | Op::Rollback => unreachable!("not a theory operation"),
    }
}

/// A graph with the whole universe interned, in a fixed order.
fn fresh_graph() -> (Egraph, Vec<TermId>) {
    let mut arena = TermArena::new();
    let mut eg = Egraph::new();
    let refs = script_universe()
        .iter()
        .map(|t| eg.intern(&mut arena, t))
        .collect();
    (eg, refs)
}

/// One term's class members and integer value, and for every term
/// whether merging the two, or asserting them distinct, would conflict.
type Observed = (Vec<TermId>, Option<i64>, Vec<(bool, bool)>);

/// Everything observable about each term of the universe.
fn observe(eg: &Egraph, refs: &[TermId]) -> Vec<Observed> {
    refs.iter()
        .map(|&r| {
            let probes = refs
                .iter()
                .map(|&s| {
                    let merge = eg.clone().merge(r, s).is_err();
                    let diseq = eg.clone().assert_diseq(r, s).is_err();
                    (merge, diseq)
                })
                .collect();
            (eg.class_members(r).to_vec(), eg.class_int_value(r), probes)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nested_rollbacks_match_a_fresh_replay(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let (mut eg, refs) = fresh_graph();
        // The theory operations in effect, with the conflict each met.
        let mut applied: Vec<(Op, bool)> = Vec::new();
        // Open checkpoints, innermost last, with `applied`'s length then.
        let mut open: Vec<(Checkpoint, usize)> = Vec::new();
        for op in ops.iter().copied() {
            match op {
                Op::Checkpoint => open.push((eg.checkpoint(), applied.len())),
                Op::Rollback => {
                    let Some((cp, len)) = open.pop() else { continue };
                    eg.rollback(cp);
                    applied.truncate(len);
                    let (mut replay, replay_refs) = fresh_graph();
                    for &(op, conflicted) in &applied {
                        prop_assert_eq!(apply(&mut replay, &replay_refs, op), conflicted, "{:?}", ops);
                    }
                    prop_assert_eq!(observe(&eg, &refs), observe(&replay, &replay_refs), "{:?}", ops);
                }
                _ => {
                    let conflicted = apply(&mut eg, &refs, op);
                    applied.push((op, conflicted));
                }
            }
        }
    }
}

// ----- growing the graph between scripts -----

/// The growth order: constants come before the applications over them,
/// so a script can merge two constants before their applications are
/// grown, and growing must then find the congruence itself.
fn growth_universe() -> Vec<Term> {
    let [a, b, c, d] = ["a", "b", "c", "d"].map(Term::cnst);
    let f = |t: &Term| Term::app("f", vec![t.clone()]);
    let g = |t: &Term| Term::app("g", vec![t.clone()]);
    vec![
        a.clone(),
        b.clone(),
        f(&a),
        Term::int(1),
        c.clone(),
        g(&c),
        f(&b),
        d.clone(),
        Term::int(2),
        g(&d),
        f(&f(&a)),
        f(&f(&b)),
    ]
}

#[derive(Clone, Copy, Debug)]
enum GrowOp {
    /// A theory operation on arena ids taken modulo the arena's length.
    Theory(Op),
    /// Interns the next term of the growth universe and grows the graph.
    Grow,
}

fn grow_op_strategy() -> impl Strategy<Value = GrowOp> {
    prop_oneof![
        op_strategy().prop_map(GrowOp::Theory),
        (0..1usize).prop_map(|_| GrowOp::Grow),
        (0..1usize).prop_map(|_| GrowOp::Grow),
    ]
}

/// Applies a theory operation on arena ids, rolling it back when it
/// conflicts, as the search does; returns whether it conflicted.
fn apply_or_undo(eg: &mut Egraph, ids: &[TermId], op: Op) -> bool {
    let cp = eg.checkpoint();
    let conflicted = apply(eg, ids, op);
    if conflicted {
        eg.rollback(cp);
    }
    conflicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn growing_between_scripts_matches_one_graph_grown_once(
        ops in prop::collection::vec(grow_op_strategy(), 0..32)
    ) {
        let universe = growth_universe();
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let mut grown = 0;
        // The theory operations in effect, on arena ids, with the
        // conflict each met.
        let mut applied: Vec<(Op, bool)> = Vec::new();
        let mut open: Vec<(Checkpoint, usize)> = Vec::new();
        for op in ops.iter().copied() {
            let ids: Vec<TermId> = (0..arena.len() as TermId).collect();
            match op {
                // Growing is supported only while no checkpoint is open.
                GrowOp::Grow if open.is_empty() && grown < universe.len() => {
                    arena.intern(&universe[grown]);
                    grown += 1;
                    eg.grow(&arena);
                }
                GrowOp::Grow => {}
                GrowOp::Theory(Op::Checkpoint) => open.push((eg.checkpoint(), applied.len())),
                GrowOp::Theory(Op::Rollback) => {
                    let Some((cp, len)) = open.pop() else { continue };
                    eg.rollback(cp);
                    applied.truncate(len);
                }
                GrowOp::Theory(_) if ids.is_empty() => {}
                GrowOp::Theory(Op::Merge(a, b)) => {
                    let op = Op::Merge(a % ids.len(), b % ids.len());
                    applied.push((op, apply_or_undo(&mut eg, &ids, op)));
                }
                GrowOp::Theory(Op::Diseq(a, b)) => {
                    let op = Op::Diseq(a % ids.len(), b % ids.len());
                    applied.push((op, apply_or_undo(&mut eg, &ids, op)));
                }
            }
        }
        prop_assert_eq!(eg.len(), arena.len());
        let ids: Vec<TermId> = (0..arena.len() as TermId).collect();
        let mut once = Egraph::new();
        once.grow(&arena);
        for &(op, conflicted) in &applied {
            prop_assert_eq!(apply_or_undo(&mut once, &ids, op), conflicted, "{:?}", ops);
        }
        prop_assert_eq!(observe(&eg, &ids), observe(&once, &ids), "{:?}", ops);
    }
}
