//! Property-based tests for the prover.
//!
//! * **Propositional completeness**: over pure propositional formulas the
//!   DPLL core is a decision procedure, so `prove` must agree exactly
//!   with brute-force validity checking.
//! * **Ground EUF completeness**: over equalities, disequalities and
//!   predicate literals on a small term universe, the search with its
//!   e-graph on the trail must agree exactly with a brute-force
//!   reference that shares no code with `euf` or `solver`.
//! * **Arithmetic soundness**: if Fourier–Motzkin declares a constraint
//!   system infeasible, no integer point satisfies it; and any integer
//!   point found by brute force forces feasibility.

use proptest::prelude::*;
use stq_logic::arith::{feasible, Constraint, LinExpr};
use stq_logic::rat::Rat;
use stq_logic::solver::Problem;
use stq_logic::term::{Formula, Term};

// ----- propositional -----

#[derive(Clone, Debug)]
enum P {
    Atom(u8),
    Not(Box<P>),
    And(Box<P>, Box<P>),
    Or(Box<P>, Box<P>),
    Implies(Box<P>, Box<P>),
}

fn p_strategy() -> impl Strategy<Value = P> {
    let leaf = (0u8..4).prop_map(P::Atom);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| P::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| P::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval(p: &P, world: u8) -> bool {
    match p {
        P::Atom(i) => world & (1 << i) != 0,
        P::Not(a) => !eval(a, world),
        P::And(a, b) => eval(a, world) && eval(b, world),
        P::Or(a, b) => eval(a, world) || eval(b, world),
        P::Implies(a, b) => !eval(a, world) || eval(b, world),
    }
}

fn to_formula(p: &P) -> Formula {
    match p {
        P::Atom(i) => Formula::pred(&format!("p{i}"), vec![]),
        P::Not(a) => to_formula(a).negate(),
        P::And(a, b) => Formula::and(vec![to_formula(a), to_formula(b)]),
        P::Or(a, b) => Formula::or(vec![to_formula(a), to_formula(b)]),
        P::Implies(a, b) => to_formula(a).implies(to_formula(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn propositional_prover_matches_truth_tables(p in p_strategy()) {
        let valid = (0u8..16).all(|w| eval(&p, w));
        let mut problem = Problem::new();
        problem.goal(to_formula(&p));
        prop_assert_eq!(
            problem.prove().is_proved(),
            valid,
            "formula {:?}", p
        );
    }

    #[test]
    fn entailment_matches_truth_tables(h in p_strategy(), g in p_strategy()) {
        let entails = (0u8..16).all(|w| !eval(&h, w) || eval(&g, w));
        let mut problem = Problem::new();
        problem.hypothesis(to_formula(&h));
        problem.goal(to_formula(&g));
        prop_assert_eq!(problem.prove().is_proved(), entails);
    }
}

// ----- ground EUF -----

/// The term universe, closed under subterms: `(name, argument)` with
/// the argument an index into this table, so `f(f(a))` is `("f", 3)`.
const TERMS: [(&str, Option<usize>); 7] = [
    ("a", None),
    ("b", None),
    ("c", None),
    ("f", Some(0)),
    ("f", Some(1)),
    ("f", Some(2)),
    ("f", Some(3)),
];

fn term(i: usize) -> Term {
    match TERMS[i] {
        (name, None) => Term::cnst(name),
        (name, Some(arg)) => Term::app(name, vec![term(arg)]),
    }
}

/// An atom of the reference: an equality (indices sorted) or `p(t)`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum EufAtom {
    Eq(usize, usize),
    P(usize),
}

#[derive(Clone, Debug)]
enum E {
    Eq(usize, usize),
    Ne(usize, usize),
    P(usize),
    Not(Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Implies(Box<E>, Box<E>),
}

fn e_strategy(depth: u32) -> impl Strategy<Value = E> {
    let n = TERMS.len();
    let leaf = prop_oneof![
        (0..n, 0..n).prop_map(|(a, b)| E::Eq(a, b)),
        (0..n, 0..n).prop_map(|(a, b)| E::Ne(a, b)),
        (0..n).prop_map(E::P),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| E::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

fn eq_atom(a: usize, b: usize) -> EufAtom {
    EufAtom::Eq(a.min(b), a.max(b))
}

fn collect_atoms(e: &E, out: &mut Vec<EufAtom>) {
    let atom = match *e {
        E::Eq(a, b) | E::Ne(a, b) => eq_atom(a, b),
        E::P(t) => EufAtom::P(t),
        E::Not(ref x) => return collect_atoms(x, out),
        E::And(ref x, ref y) | E::Or(ref x, ref y) | E::Implies(ref x, ref y) => {
            collect_atoms(x, out);
            return collect_atoms(y, out);
        }
    };
    if !out.contains(&atom) {
        out.push(atom);
    }
}

/// Evaluates `e` with atom `atoms[i]` true iff bit `i` of `world` is set.
fn eval_euf(e: &E, atoms: &[EufAtom], world: u32) -> bool {
    let holds = |atom: EufAtom| {
        let i = atoms.iter().position(|&x| x == atom).expect("collected");
        world & (1 << i) != 0
    };
    match *e {
        E::Eq(a, b) => holds(eq_atom(a, b)),
        E::Ne(a, b) => !holds(eq_atom(a, b)),
        E::P(t) => holds(EufAtom::P(t)),
        E::Not(ref x) => !eval_euf(x, atoms, world),
        E::And(ref x, ref y) => eval_euf(x, atoms, world) && eval_euf(y, atoms, world),
        E::Or(ref x, ref y) => eval_euf(x, atoms, world) || eval_euf(y, atoms, world),
        E::Implies(ref x, ref y) => !eval_euf(x, atoms, world) || eval_euf(y, atoms, world),
    }
}

/// Whether an assignment to `atoms` is EUF-consistent: a naive
/// union-find closure of its true equalities, with congruence applied
/// pairwise to a fixpoint, keeps every false equality apart and gives
/// `p` one value per class.
fn euf_consistent(atoms: &[EufAtom], world: u32) -> bool {
    fn find(rep: &[usize], mut i: usize) -> usize {
        while rep[i] != i {
            i = rep[i];
        }
        i
    }
    let mut rep: Vec<usize> = (0..TERMS.len()).collect();
    let value = |i: usize| world & (1 << i) != 0;
    for (i, atom) in atoms.iter().enumerate() {
        if let (EufAtom::Eq(a, b), true) = (atom, value(i)) {
            let (ra, rb) = (find(&rep, *a), find(&rep, *b));
            rep[ra] = rb;
        }
    }
    loop {
        let mut changed = false;
        for (i, &(f, arg_i)) in TERMS.iter().enumerate() {
            for (j, &(g, arg_j)) in TERMS.iter().enumerate() {
                let (Some(x), Some(y)) = (arg_i, arg_j) else {
                    continue;
                };
                if f != g {
                    continue;
                }
                let (ri, rj) = (find(&rep, i), find(&rep, j));
                if ri != rj && find(&rep, x) == find(&rep, y) {
                    rep[ri] = rj;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    atoms.iter().enumerate().all(|(i, atom)| match *atom {
        EufAtom::Eq(a, b) => value(i) || find(&rep, a) != find(&rep, b),
        EufAtom::P(s) => atoms.iter().enumerate().all(|(j, other)| match *other {
            EufAtom::P(t) if find(&rep, s) == find(&rep, t) => value(i) == value(j),
            _ => true,
        }),
    })
}

/// Whether `hyp ⇒ goal` holds in every EUF-consistent assignment.
fn euf_entails(hyp: Option<&E>, goal: &E) -> bool {
    let mut atoms = Vec::new();
    if let Some(h) = hyp {
        collect_atoms(h, &mut atoms);
    }
    collect_atoms(goal, &mut atoms);
    (0..1u32 << atoms.len()).all(|w| {
        !euf_consistent(&atoms, w)
            || hyp.is_some_and(|h| !eval_euf(h, &atoms, w))
            || eval_euf(goal, &atoms, w)
    })
}

fn euf_formula(e: &E) -> Formula {
    match e {
        E::Eq(a, b) => term(*a).eq(&term(*b)),
        E::Ne(a, b) => term(*a).ne(&term(*b)),
        E::P(t) => Formula::pred("p", vec![term(*t)]),
        E::Not(x) => euf_formula(x).negate(),
        E::And(x, y) => Formula::and(vec![euf_formula(x), euf_formula(y)]),
        E::Or(x, y) => Formula::or(vec![euf_formula(x), euf_formula(y)]),
        E::Implies(x, y) => euf_formula(x).implies(euf_formula(y)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn euf_prover_matches_brute_force_validity(e in e_strategy(3)) {
        let mut problem = Problem::new();
        problem.goal(euf_formula(&e));
        prop_assert_eq!(problem.prove().is_proved(), euf_entails(None, &e), "formula {:?}", e);
    }

    #[test]
    fn euf_entailment_matches_brute_force(h in e_strategy(2), g in e_strategy(2)) {
        let mut problem = Problem::new();
        problem.hypothesis(euf_formula(&h));
        problem.goal(euf_formula(&g));
        prop_assert_eq!(
            problem.prove().is_proved(),
            euf_entails(Some(&h), &g),
            "{:?} |- {:?}", h, g
        );
    }
}

// ----- linear arithmetic -----

#[derive(Clone, Copy, Debug)]
struct RawConstraint {
    /// coefficients of x and y plus constant: cx*x + cy*y + k REL 0
    cx: i8,
    cy: i8,
    k: i8,
    strict: bool,
}

fn constraint_strategy() -> impl Strategy<Value = RawConstraint> {
    (-3i8..=3, -3i8..=3, -6i8..=6, any::<bool>()).prop_map(|(cx, cy, k, strict)| RawConstraint {
        cx,
        cy,
        k,
        strict,
    })
}

fn to_lin(c: RawConstraint) -> Constraint {
    let mut e = LinExpr::constant(Rat::int(i128::from(c.k)));
    e.add_term(0, Rat::int(i128::from(c.cx)));
    e.add_term(1, Rat::int(i128::from(c.cy)));
    if c.strict {
        Constraint::lt0(e)
    } else {
        Constraint::le0(e)
    }
}

fn holds(c: RawConstraint, x: i64, y: i64) -> bool {
    let v = i64::from(c.cx) * x + i64::from(c.cy) * y + i64::from(c.k);
    if c.strict {
        v < 0
    } else {
        v <= 0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn infeasible_systems_have_no_integer_points(
        cs in prop::collection::vec(constraint_strategy(), 1..6)
    ) {
        let lins: Vec<Constraint> = cs.iter().copied().map(to_lin).collect();
        let answer = feasible(&lins);
        // Brute force over a grid comfortably containing any solution of
        // such small systems.
        let mut found = None;
        'search: for x in -25i64..=25 {
            for y in -25i64..=25 {
                if cs.iter().all(|&c| holds(c, x, y)) {
                    found = Some((x, y));
                    break 'search;
                }
            }
        }
        if let Some((x, y)) = found {
            prop_assert!(answer, "({x},{y}) satisfies the system but FM says infeasible");
        }
        // The converse: FM-infeasible must mean no grid point.
        if !answer {
            prop_assert!(found.is_none());
        }
    }

    #[test]
    fn arith_prover_agrees_with_evaluation(
        a in -10i64..=10, b in -10i64..=10, c in -10i64..=10
    ) {
        // a ≤ x ∧ x ≤ b ⊢ x ≤ c holds iff (a > b) ∨ (b ≤ c).
        let x = Term::cnst("x");
        let expected = a > b || b <= c;
        let mut problem = Problem::new();
        problem.hypothesis(Term::int(a).le(&x));
        problem.hypothesis(x.le(&Term::int(b)));
        problem.goal(x.le(&Term::int(c)));
        prop_assert_eq!(problem.prove().is_proved(), expected);
    }
}
