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
//! * **Arithmetic kernel, differentially**: `feasible_counted` and
//!   `entails_eq0_counted` return the same answer and the same
//!   elimination count as a reference copy of the `BTreeMap`-based
//!   Fourier–Motzkin kept in this file, and `Rat`'s operators agree
//!   with cross-multiplication.
//! * **E-matching, differentially**: `match_trigger_counted` finds,
//!   up to congruence, exactly the bindings of a brute-force matcher
//!   that tries every assignment of pattern variables to classes.

use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use stq_logic::arena::{Head, TermArena, TermId};
use stq_logic::arith::{entails_eq0_counted, feasible, feasible_counted, Constraint, LinExpr};
use stq_logic::ematch::match_trigger_counted;
use stq_logic::euf::Egraph;
use stq_logic::rat::Rat;
use stq_logic::solver::Problem;
use stq_logic::term::{Formula, Sort, Term};

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

// ----- the arithmetic kernel against a reference -----

/// Fourier–Motzkin over `BTreeMap`-keyed expressions, as `arith.rs`
/// implemented it before its expressions became sorted vectors. It
/// shares no code with `arith`, so the kernel can be checked against it
/// for the same answers and the same elimination counts.
mod reference_fm {
    use std::collections::BTreeMap;
    use stq_logic::rat::Rat;

    #[derive(Clone, Debug, Default)]
    pub struct Expr {
        pub terms: BTreeMap<u32, Rat>,
        pub konst: Rat,
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    pub enum Rel {
        Le,
        Lt,
        Eq,
    }

    impl Expr {
        pub fn add_term(&mut self, a: u32, coeff: Rat) {
            let entry = self.terms.entry(a).or_insert(Rat::ZERO);
            *entry = *entry + coeff;
            if entry.is_zero() {
                self.terms.remove(&a);
            }
        }

        fn add(&self, other: &Expr) -> Expr {
            let mut out = self.clone();
            out.konst = out.konst + other.konst;
            for (&a, &c) in &other.terms {
                out.add_term(a, c);
            }
            out
        }

        fn sub(&self, other: &Expr) -> Expr {
            self.add(&other.scale(-Rat::ONE))
        }

        pub fn scale(&self, k: Rat) -> Expr {
            if k.is_zero() {
                return Expr::default();
            }
            Expr {
                terms: self.terms.iter().map(|(&a, &c)| (a, c * k)).collect(),
                konst: self.konst * k,
            }
        }
    }

    fn gcd(mut a: i128, mut b: i128) -> i128 {
        a = a.abs();
        b = b.abs();
        while b != 0 {
            let r = a % b;
            a = b;
            b = r;
        }
        if a == 0 {
            1
        } else {
            a
        }
    }

    fn tighten(expr: &Expr, rel: Rel) -> (Expr, Rel) {
        if rel != Rel::Lt {
            return (expr.clone(), rel);
        }
        let mut lcm: i128 = 1;
        let dens = expr.terms.values().map(|r| r.denom());
        for d in dens.chain([expr.konst.denom()]) {
            lcm = lcm / gcd(lcm, d) * d;
        }
        let mut out = expr.scale(Rat::int(lcm));
        out.konst = out.konst + Rat::ONE;
        (out, Rel::Le)
    }

    pub fn feasible_counted(constraints: &[(Expr, Rel)]) -> (bool, u64) {
        let mut eliminations = 0;
        let mut ineqs: Vec<(Expr, Rel)> = Vec::new();
        let mut eqs: Vec<Expr> = Vec::new();
        for (e, rel) in constraints {
            let (e, rel) = tighten(e, *rel);
            match rel {
                Rel::Eq => eqs.push(e),
                _ => ineqs.push((e, rel)),
            }
        }
        while let Some(eq) = eqs.pop() {
            let Some((&pivot, &coeff)) = eq.terms.iter().next() else {
                if !eq.konst.is_zero() {
                    return (false, eliminations);
                }
                continue;
            };
            eliminations += 1;
            let mut rest = eq.clone();
            rest.terms.remove(&pivot);
            let replacement = rest.scale(-Rat::ONE / coeff);
            let subst = |e: &Expr| match e.terms.get(&pivot) {
                None => e.clone(),
                Some(&k) => {
                    let mut out = e.clone();
                    out.terms.remove(&pivot);
                    out.add(&replacement.scale(k))
                }
            };
            eqs = eqs.iter().map(subst).collect();
            for (e, _) in &mut ineqs {
                *e = subst(e);
            }
        }
        loop {
            let mut remaining = Vec::new();
            for (e, rel) in ineqs {
                if !e.terms.is_empty() {
                    remaining.push((e, rel));
                    continue;
                }
                let ok = match rel {
                    Rel::Le => e.konst <= Rat::ZERO,
                    Rel::Lt => e.konst < Rat::ZERO,
                    Rel::Eq => e.konst.is_zero(),
                };
                if !ok {
                    return (false, eliminations);
                }
            }
            ineqs = remaining;
            let Some(&var) = ineqs.iter().flat_map(|(e, _)| e.terms.keys()).next() else {
                return (true, eliminations);
            };
            eliminations += 1;
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            let mut others = Vec::new();
            for (e, rel) in ineqs {
                match e.terms.get(&var).copied() {
                    None => others.push((e, rel)),
                    Some(coeff) => {
                        let mut rest = e.clone();
                        rest.terms.remove(&var);
                        let bound = rest.scale(-Rat::ONE / coeff);
                        if coeff.is_positive() {
                            uppers.push((bound, rel));
                        } else {
                            lowers.push((bound, rel));
                        }
                    }
                }
            }
            for (lo, lo_rel) in &lowers {
                for (hi, hi_rel) in &uppers {
                    let strict = *lo_rel == Rel::Lt || *hi_rel == Rel::Lt;
                    others.push((lo.sub(hi), if strict { Rel::Lt } else { Rel::Le }));
                }
            }
            ineqs = others;
        }
    }

    pub fn entails_eq0_counted(constraints: &[(Expr, Rel)], expr: &Expr) -> (bool, u64) {
        let mut with_lt = constraints.to_vec();
        with_lt.push((expr.clone(), Rel::Lt));
        let (lt_feasible, lt_elims) = feasible_counted(&with_lt);
        if lt_feasible {
            return (false, lt_elims);
        }
        let mut with_gt = constraints.to_vec();
        with_gt.push((expr.scale(-Rat::ONE), Rel::Lt));
        let (gt_feasible, gt_elims) = feasible_counted(&with_gt);
        (!gt_feasible, lt_elims + gt_elims)
    }
}

/// `Σ (num/den)·atom + k_num/k_den`, as generated.
#[derive(Clone, Debug)]
struct RawExpr {
    terms: Vec<(u32, i8, u8)>,
    konst: (i8, u8),
}

fn raw_expr_strategy() -> impl Strategy<Value = RawExpr> {
    (
        prop::collection::vec((0u32..4, -4i8..=4, 1u8..=3), 0..5),
        (-6i8..=6, 1u8..=3),
    )
        .prop_map(|(terms, konst)| RawExpr { terms, konst })
}

fn rat(num: i8, den: u8) -> Rat {
    Rat::new(i128::from(num), i128::from(den))
}

/// The expression for the kernel and for the reference, built term by
/// term through each one's own `add_term`.
fn both_exprs(raw: &RawExpr) -> (LinExpr, reference_fm::Expr) {
    let konst = rat(raw.konst.0, raw.konst.1);
    let mut kernel = LinExpr::constant(konst);
    let mut reference = reference_fm::Expr {
        konst,
        ..reference_fm::Expr::default()
    };
    for &(atom, num, den) in &raw.terms {
        kernel.add_term(atom, rat(num, den));
        reference.add_term(atom, rat(num, den));
    }
    (kernel, reference)
}

/// Equalities, strict and non-strict inequalities, in both encodings.
fn both_systems(
    raw: &[(RawExpr, u8)],
) -> (
    Vec<Constraint>,
    Vec<(reference_fm::Expr, reference_fm::Rel)>,
) {
    raw.iter()
        .map(|(e, rel)| {
            let (kernel, reference) = both_exprs(e);
            match rel {
                0 => (Constraint::eq0(kernel), (reference, reference_fm::Rel::Eq)),
                1 => (Constraint::lt0(kernel), (reference, reference_fm::Rel::Lt)),
                _ => (Constraint::le0(kernel), (reference, reference_fm::Rel::Le)),
            }
        })
        .unzip()
}

fn rat_strategy() -> impl Strategy<Value = Rat> {
    // Half integers, to take `Rat`'s integer paths often.
    (-60i64..=60, 1i64..=6, any::<bool>()).prop_map(|(num, den, integer)| {
        Rat::new(i128::from(num), if integer { 1 } else { i128::from(den) })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn feasibility_matches_the_reference_fourier_motzkin(
        raw in prop::collection::vec((raw_expr_strategy(), 0u8..3), 1..7)
    ) {
        let (kernel, reference) = both_systems(&raw);
        prop_assert_eq!(
            feasible_counted(&kernel),
            reference_fm::feasible_counted(&reference),
            "system {:?}", raw
        );
    }

    #[test]
    fn entailment_matches_the_reference_fourier_motzkin(
        raw in prop::collection::vec((raw_expr_strategy(), 0u8..3), 1..7),
        goal in raw_expr_strategy()
    ) {
        let (kernel, reference) = both_systems(&raw);
        let (kernel_goal, reference_goal) = both_exprs(&goal);
        prop_assert_eq!(
            entails_eq0_counted(&kernel, &kernel_goal),
            reference_fm::entails_eq0_counted(&reference, &reference_goal),
            "system {:?}, goal {:?}", raw, goal
        );
    }

    #[test]
    fn rat_operators_agree_with_cross_multiplication(a in rat_strategy(), b in rat_strategy()) {
        let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
        prop_assert_eq!(a + b, Rat::new(an * bd + bn * ad, ad * bd));
        prop_assert_eq!(a - b, Rat::new(an * bd - bn * ad, ad * bd));
        prop_assert_eq!(a * b, Rat::new(an * bn, ad * bd));
        prop_assert_eq!(a.cmp(&b), (an * bd).cmp(&(bn * ad)));
        prop_assert_eq!(a == b, (an * bd).cmp(&(bn * ad)) == Ordering::Equal);
    }
}

// ----- E-matching against brute force -----

/// The ground terms of the random e-graphs; `f` is unary, `g` binary.
fn ground(i: usize) -> Term {
    let a = || Term::cnst("a");
    let b = || Term::cnst("b");
    let c = || Term::cnst("c");
    let f = |t: Term| Term::app("f", vec![t]);
    let g = |s: Term, t: Term| Term::app("g", vec![s, t]);
    match i {
        0 => a(),
        1 => b(),
        2 => c(),
        3 => Term::int(0),
        4 => f(a()),
        5 => f(b()),
        6 => f(Term::int(0)),
        7 => g(a(), b()),
        8 => g(b(), b()),
        9 => f(f(a())),
        10 => g(f(a()), c()),
        11 => f(g(a(), b())),
        _ => g(c(), Term::int(0)),
    }
}

const GROUND_TERMS: usize = 13;

/// A pattern over variables `X` and `Y`, the literal `0`, `f` and `g`.
#[derive(Clone, Debug)]
enum Pat {
    Var(u8),
    Zero,
    F(Box<Pat>),
    G(Box<Pat>, Box<Pat>),
}

fn pat_strategy() -> impl Strategy<Value = Pat> {
    let leaf = (0u8..3).prop_map(|v| if v < 2 { Pat::Var(v) } else { Pat::Zero });
    leaf.prop_recursive(2, 8, 2, |inner| {
        (0u8..2, inner.clone(), inner).prop_map(|(k, p, q)| {
            if k == 0 {
                Pat::F(Box::new(p))
            } else {
                Pat::G(Box::new(p), Box::new(q))
            }
        })
    })
}

/// A trigger pattern: an application, as trigger inference produces.
fn trigger_pat_strategy() -> impl Strategy<Value = Pat> {
    (0u8..2, pat_strategy(), pat_strategy()).prop_map(|(k, p, q)| {
        if k == 0 {
            Pat::F(Box::new(p))
        } else {
            Pat::G(Box::new(p), Box::new(q))
        }
    })
}

const PAT_VARS: [&str; 2] = ["X", "Y"];

fn pat_term(p: &Pat) -> Term {
    match p {
        Pat::Var(v) => Term::var(PAT_VARS[usize::from(*v)], Sort::Int),
        Pat::Zero => Term::int(0),
        Pat::F(p) => Term::app("f", vec![pat_term(p)]),
        Pat::G(p, q) => Term::app("g", vec![pat_term(p), pat_term(q)]),
    }
}

fn pat_vars(p: &Pat, out: &mut BTreeSet<u8>) {
    match p {
        Pat::Var(v) => {
            out.insert(*v);
        }
        Pat::Zero => {}
        Pat::F(p) => pat_vars(p, out),
        Pat::G(p, q) => {
            pat_vars(p, out);
            pat_vars(q, out);
        }
    }
}

/// Whether some member of `class` matches `p` with its arguments taken
/// modulo the classes, under the variable assignment `sigma` (indexed
/// by variable, each a class representative). Reads only the arena's
/// term structure and the e-graph's `find`.
fn class_matches(arena: &TermArena, eg: &Egraph, p: &Pat, class: TermId, sigma: &[TermId]) -> bool {
    let ids = 0..TermId::try_from(arena.len()).expect("small arena");
    let members = || ids.clone().filter(|&t| eg.find(t) == class);
    let app = |name: &str, pats: &[&Pat]| {
        members().any(|t| {
            arena.head(t) == Head::Sym(stq_util::Symbol::intern(name))
                && arena.args(t).len() == pats.len()
                && arena
                    .args(t)
                    .iter()
                    .zip(pats)
                    .all(|(&arg, q)| class_matches(arena, eg, q, eg.find(arg), sigma))
        })
    };
    match p {
        Pat::Var(v) => sigma[usize::from(*v)] == class,
        Pat::Zero => members().any(|t| arena.head(t) == Head::Int(0)),
        Pat::F(q) => app("f", &[q]),
        Pat::G(q, r) => app("g", &[q, r]),
    }
}

/// Every assignment of the trigger's variables to classes under which
/// each pattern matches some class, as sorted `(variable, class)` lists.
fn brute_force_bindings(
    arena: &TermArena,
    eg: &Egraph,
    trigger: &[Pat],
) -> BTreeSet<Vec<(String, TermId)>> {
    let classes: BTreeSet<TermId> = (0..arena.len())
        .map(|i| eg.find(TermId::try_from(i).expect("small arena")))
        .collect();
    let classes: Vec<TermId> = classes.into_iter().collect();
    let mut vars = BTreeSet::new();
    for p in trigger {
        pat_vars(p, &mut vars);
    }
    let vars: Vec<u8> = vars.into_iter().collect();
    let mut found = BTreeSet::new();
    let assignments = classes
        .len()
        .pow(u32::try_from(vars.len()).expect("two variables"));
    for mut n in 0..assignments {
        let mut sigma = vec![TermId::MAX; PAT_VARS.len()];
        for &v in &vars {
            sigma[usize::from(v)] = classes[n % classes.len()];
            n /= classes.len();
        }
        let all_match = trigger.iter().all(|p| {
            classes
                .iter()
                .any(|&c| class_matches(arena, eg, p, c, &sigma))
        });
        if all_match {
            let mut binding: Vec<(String, TermId)> = vars
                .iter()
                .map(|&v| (PAT_VARS[usize::from(v)].to_owned(), sigma[usize::from(v)]))
                .collect();
            binding.sort();
            found.insert(binding);
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ematching_finds_exactly_the_brute_force_bindings(
        terms in prop::collection::vec(0..GROUND_TERMS, 1..8),
        merges in prop::collection::vec((0usize..8, 0usize..8), 0..4),
        trigger in prop::collection::vec(trigger_pat_strategy(), 1..3)
    ) {
        let mut arena = TermArena::new();
        let mut eg = Egraph::new();
        let ids: Vec<TermId> = terms.iter().map(|&i| eg.intern(&mut arena, &ground(i))).collect();
        for (i, j) in merges {
            // `0` is the only literal and no disequality is asserted, so
            // no merge can conflict.
            eg.merge(ids[i % ids.len()], ids[j % ids.len()]).expect("no conflict");
        }
        let patterns: Vec<Term> = trigger.iter().map(pat_term).collect();
        let (bindings, candidates) = match_trigger_counted(&eg, &patterns);
        let found: BTreeSet<Vec<(String, TermId)>> = bindings
            .iter()
            .map(|b| {
                let mut key: Vec<(String, TermId)> = b
                    .iter()
                    .map(|&(x, id)| (x.as_str().to_owned(), eg.find(id)))
                    .collect();
                key.sort();
                key
            })
            .collect();
        prop_assert_eq!(found.len(), bindings.len(), "duplicate bindings for {:?}", patterns);
        prop_assert!(candidates >= bindings.len() as u64);
        prop_assert_eq!(
            found,
            brute_force_bindings(&arena, &eg, &trigger),
            "trigger {:?} over terms {:?}", patterns, terms
        );
    }
}
