//! The background theory given to the prover (paper §4.1).
//!
//! The axioms formalize the dynamic semantics of CIL's intermediate
//! language under the logical memory model: an execution state ρ carries
//! a store (a map from integer addresses to integer values, `NULL` = 0),
//! `evalExpr` evaluates reified expression syntax
//! (`constExpr`, `mulExpr`, `addrExpr`, …) in a state, `location` gives an
//! l-value's address, and `select`/`store` are the map operations
//! (Simplify's built-ins, reconstructed here). Multiplication is
//! nonlinear, so — exactly as Simplify does — its sign behaviour is
//! supplied as triggered lemmas rather than decided by the linear core.

use std::sync::{Arc, OnceLock};
use stq_logic::term::{Formula, Sort, Term, Trigger};
use stq_logic::Theory;
use stq_util::Symbol;

/// The sort of execution states ρ.
pub fn state_sort() -> Sort {
    Sort::other("State")
}

/// The sort of stores σ.
pub fn store_sort() -> Sort {
    Sort::other("Store")
}

/// The sort of reified expressions.
pub fn expr_sort() -> Sort {
    Sort::other("CExpr")
}

/// The sort of reified l-values.
pub fn lval_sort() -> Sort {
    Sort::other("CLval")
}

/// `evalExpr(ρ, e)`.
pub fn eval_expr(rho: &Term, e: &Term) -> Term {
    Term::app("evalExpr", vec![rho.clone(), e.clone()])
}

/// `location(ρ, l)` — the address of an l-value.
pub fn location(rho: &Term, l: &Term) -> Term {
    Term::app("location", vec![rho.clone(), l.clone()])
}

/// `getStore(ρ)`.
pub fn get_store(rho: &Term) -> Term {
    Term::app("getStore", vec![rho.clone()])
}

/// `select(σ, a)`.
pub fn select(sigma: &Term, a: &Term) -> Term {
    Term::app("select", vec![sigma.clone(), a.clone()])
}

/// `store(σ, a, v)`.
pub fn store(sigma: &Term, a: &Term, v: &Term) -> Term {
    Term::app("store", vec![sigma.clone(), a.clone(), v.clone()])
}

/// `isHeapLoc(v)` — the value is a dynamically allocated location.
pub fn is_heap_loc(v: &Term) -> Formula {
    Formula::pred("isHeapLoc", vec![v.clone()])
}

/// Reified expression constructors, one per pattern operator.
pub mod syntax {
    use super::*;

    /// `constExpr(c)`.
    pub fn const_expr(c: &Term) -> Term {
        Term::app("constExpr", vec![c.clone()])
    }

    /// `addrExpr(l)` — `&l`.
    pub fn addr_expr(l: &Term) -> Term {
        Term::app("addrExpr", vec![l.clone()])
    }

    /// `derefExpr(e)` — `*e`.
    pub fn deref_expr(e: &Term) -> Term {
        Term::app("derefExpr", vec![e.clone()])
    }

    /// `negExpr(e)` — `-e`.
    pub fn neg_expr(e: &Term) -> Term {
        Term::app("negExpr", vec![e.clone()])
    }

    /// `notExpr(e)` — `!e`.
    pub fn not_expr(e: &Term) -> Term {
        Term::app("notExpr", vec![e.clone()])
    }

    /// A binary expression constructor by operator name
    /// (`addExpr`, `subExpr`, `mulExpr`, `divExpr`, `modExpr`,
    /// `eqExpr`, `neExpr`, `ltExpr`, `leExpr`, `gtExpr`, `geExpr`,
    /// `andExpr`, `orExpr`).
    pub fn bin_expr(name: &str, a: &Term, b: &Term) -> Term {
        Term::app(name, vec![a.clone(), b.clone()])
    }
}

fn ivar(n: &str) -> Term {
    Term::var(n, Sort::Int)
}

fn forall(vars: &[(&str, Sort)], triggers: Vec<Trigger>, body: Formula) -> Formula {
    Formula::forall(
        vars.iter().map(|(n, s)| (Symbol::intern(n), *s)).collect(),
        triggers,
        body,
    )
}

/// The complete background axiom set.
///
/// Triggers are chosen so that each axiom only fires when its defining
/// term is present, keeping instantiation linear in the obligation size.
pub fn background_axioms() -> Vec<Formula> {
    let rho = Term::var("rho", state_sort());
    let s = Term::var("s", store_sort());
    let a = ivar("a");
    let b = ivar("b");
    let v = ivar("v");
    let e1 = Term::var("e1", expr_sort());
    let e2 = Term::var("e2", expr_sort());
    let l1 = Term::var("l1", lval_sort());
    let c = ivar("c");

    let ev = |e: &Term| eval_expr(&rho, e);
    let mut axioms = Vec::new();

    // ----- evaluation of reified syntax -----

    // evalExpr(ρ, constExpr(c)) = c
    let const_e = syntax::const_expr(&c);
    axioms.push(forall(
        &[("rho", state_sort()), ("c", Sort::Int)],
        vec![vec![ev(&const_e)]],
        ev(&const_e).eq(&c),
    ));

    // evalExpr(ρ, addrExpr(l)) = location(ρ, l)
    let addr_e = syntax::addr_expr(&l1);
    axioms.push(forall(
        &[("rho", state_sort()), ("l1", lval_sort())],
        vec![vec![ev(&addr_e)]],
        ev(&addr_e).eq(&location(&rho, &l1)),
    ));

    // evalExpr(ρ, derefExpr(e)) = select(getStore(ρ), evalExpr(ρ, e))
    let deref_e = syntax::deref_expr(&e1);
    axioms.push(forall(
        &[("rho", state_sort()), ("e1", expr_sort())],
        vec![vec![ev(&deref_e)]],
        ev(&deref_e).eq(&select(&get_store(&rho), &ev(&e1))),
    ));

    // evalExpr(ρ, negExpr(e)) = -evalExpr(ρ, e)
    let neg_e = syntax::neg_expr(&e1);
    axioms.push(forall(
        &[("rho", state_sort()), ("e1", expr_sort())],
        vec![vec![ev(&neg_e)]],
        ev(&neg_e).eq(&ev(&e1).neg()),
    ));

    // Arithmetic binary operators: evalExpr distributes.
    for (ctor, op) in [("addExpr", "+"), ("subExpr", "-"), ("mulExpr", "*")] {
        let bin = syntax::bin_expr(ctor, &e1, &e2);
        axioms.push(forall(
            &[
                ("rho", state_sort()),
                ("e1", expr_sort()),
                ("e2", expr_sort()),
            ],
            vec![vec![ev(&bin)]],
            ev(&bin).eq(&Term::app(op, vec![ev(&e1), ev(&e2)])),
        ));
    }

    // Comparison operators evaluate to 0 or 1.
    type CmpBuilder = fn(&Term, &Term) -> Formula;
    let cmp_table: [(&str, CmpBuilder); 4] = [
        ("eqExpr", |x, y| x.eq(y)),
        ("neExpr", |x, y| x.ne(y)),
        ("ltExpr", |x, y| x.lt(y)),
        ("leExpr", |x, y| x.le(y)),
    ];
    for (ctor, rel) in cmp_table {
        let bin = syntax::bin_expr(ctor, &e1, &e2);
        let val = ev(&bin);
        let holds = rel(&ev(&e1), &ev(&e2));
        axioms.push(forall(
            &[
                ("rho", state_sort()),
                ("e1", expr_sort()),
                ("e2", expr_sort()),
            ],
            vec![vec![val.clone()]],
            Formula::and(vec![
                holds.clone().implies(val.eq(&Term::int(1))),
                holds.negate().implies(val.eq(&Term::int(0))),
            ]),
        ));
    }

    // !e evaluates to 0 or 1.
    let not_e = syntax::not_expr(&e1);
    let nval = ev(&not_e);
    axioms.push(forall(
        &[("rho", state_sort()), ("e1", expr_sort())],
        vec![vec![nval.clone()]],
        Formula::and(vec![
            ev(&e1).eq(&Term::int(0)).implies(nval.eq(&Term::int(1))),
            ev(&e1).ne(&Term::int(0)).implies(nval.eq(&Term::int(0))),
        ]),
    ));

    // ----- memory -----

    // Valid addresses are positive (NULL is 0).
    let loc = location(&rho, &l1);
    axioms.push(forall(
        &[("rho", state_sort()), ("l1", lval_sort())],
        vec![vec![loc.clone()]],
        loc.gt0(),
    ));

    // select(store(s, a, v), a) = v
    let upd = store(&s, &a, &v);
    axioms.push(forall(
        &[("s", store_sort()), ("a", Sort::Int), ("v", Sort::Int)],
        vec![vec![select(&upd, &a)]],
        select(&upd, &a).eq(&v),
    ));

    // a = b ∨ select(store(s, a, v), b) = select(s, b)
    axioms.push(forall(
        &[
            ("s", store_sort()),
            ("a", Sort::Int),
            ("b", Sort::Int),
            ("v", Sort::Int),
        ],
        vec![vec![select(&upd, &b)]],
        Formula::or(vec![a.eq(&b), select(&upd, &b).eq(&select(&s, &b))]),
    ));

    // ----- the heap predicate -----

    // Heap locations are valid (positive) addresses; NULL is not one.
    axioms.push(forall(
        &[("v", Sort::Int)],
        vec![vec![Term::app("isHeapLoc", vec![v.clone()])]],
        is_heap_loc(&v).implies(v.gt0()),
    ));

    // ----- nonlinear multiplication lemmas (Simplify-style) -----

    let prod = a.mul(&b);
    let trig = vec![vec![prod.clone()]];
    let int_vars: [(&str, Sort); 2] = [("a", Sort::Int), ("b", Sort::Int)];
    // Sign rules.
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        Formula::and(vec![a.gt0(), b.gt0()]).implies(prod.gt0()),
    ));
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        Formula::and(vec![a.lt0(), b.lt0()]).implies(prod.gt0()),
    ));
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        Formula::and(vec![a.gt0(), b.lt0()]).implies(prod.lt0()),
    ));
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        Formula::and(vec![a.lt0(), b.gt0()]).implies(prod.lt0()),
    ));
    // Integral domain: a*b = 0 ⇒ a = 0 ∨ b = 0.
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        prod.eq(&Term::int(0))
            .implies(Formula::or(vec![a.eq(&Term::int(0)), b.eq(&Term::int(0))])),
    ));
    // Annihilation: a zero factor makes the product zero (needed for
    // weak-inequality rules like nonneg's a ≥ 0 ∧ b ≥ 0 ⇒ a*b ≥ 0, which
    // case-splits on a = 0 ∨ a > 0).
    axioms.push(forall(
        &int_vars,
        trig.clone(),
        a.eq(&Term::int(0)).implies(prod.eq(&Term::int(0))),
    ));
    axioms.push(forall(
        &int_vars,
        trig,
        b.eq(&Term::int(0)).implies(prod.eq(&Term::int(0))),
    ));

    axioms
}

/// The background axioms preprocessed once per process as a shared
/// [`Theory`]. Every obligation the checker builds attaches this one
/// instance, so solver workers recognise it by pointer identity and
/// reuse their resident theory-loaded core across obligations instead of
/// re-clausifying the 23 axioms per proof attempt.
pub fn background_theory() -> Arc<Theory> {
    static THEORY: OnceLock<Arc<Theory>> = OnceLock::new();
    Arc::clone(THEORY.get_or_init(|| Arc::new(Theory::new(background_axioms()))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_logic::solver::Problem;

    fn prove_with_axioms(hyps: Vec<Formula>, goal: Formula) -> bool {
        let mut p = Problem::new();
        for ax in background_axioms() {
            p.axiom(ax);
        }
        for h in hyps {
            p.hypothesis(h);
        }
        p.goal(goal);
        p.prove().is_proved()
    }

    #[test]
    fn constant_evaluation() {
        // c > 0 ⊢ evalExpr(ρ, constExpr(c)) > 0  — the pos constant rule.
        let rho = Term::cnst("rho0");
        let c = Term::cnst("c0");
        assert!(prove_with_axioms(
            vec![c.gt0()],
            eval_expr(&rho, &syntax::const_expr(&c)).gt0(),
        ));
    }

    #[test]
    fn multiplication_of_positives() {
        let rho = Term::cnst("rho0");
        let e1 = Term::cnst("ea");
        let e2 = Term::cnst("eb");
        let prod = syntax::bin_expr("mulExpr", &e1, &e2);
        assert!(prove_with_axioms(
            vec![eval_expr(&rho, &e1).gt0(), eval_expr(&rho, &e2).gt0()],
            eval_expr(&rho, &prod).gt0(),
        ));
    }

    #[test]
    fn subtraction_of_positives_fails() {
        // The erroneous E1 - E2 rule: must not be provable.
        let rho = Term::cnst("rho0");
        let e1 = Term::cnst("ea");
        let e2 = Term::cnst("eb");
        let diff = syntax::bin_expr("subExpr", &e1, &e2);
        assert!(!prove_with_axioms(
            vec![eval_expr(&rho, &e1).gt0(), eval_expr(&rho, &e2).gt0()],
            eval_expr(&rho, &diff).gt0(),
        ));
    }

    #[test]
    fn negation_flips_sign() {
        let rho = Term::cnst("rho0");
        let e1 = Term::cnst("ea");
        let neg = syntax::neg_expr(&e1);
        assert!(prove_with_axioms(
            vec![eval_expr(&rho, &e1).lt0()],
            eval_expr(&rho, &neg).gt0(),
        ));
    }

    #[test]
    fn address_of_is_not_null() {
        let rho = Term::cnst("rho0");
        let l = Term::cnst("l0");
        let addr = syntax::addr_expr(&l);
        assert!(prove_with_axioms(
            vec![],
            eval_expr(&rho, &addr).ne(&Term::int(0)),
        ));
    }

    #[test]
    fn product_of_nonzero_is_nonzero() {
        let rho = Term::cnst("rho0");
        let e1 = Term::cnst("ea");
        let e2 = Term::cnst("eb");
        let prod = syntax::bin_expr("mulExpr", &e1, &e2);
        assert!(prove_with_axioms(
            vec![
                eval_expr(&rho, &e1).ne(&Term::int(0)),
                eval_expr(&rho, &e2).ne(&Term::int(0)),
            ],
            eval_expr(&rho, &prod).ne(&Term::int(0)),
        ));
    }

    #[test]
    fn store_read_back() {
        let s = Term::cnst("s0");
        let aa = Term::cnst("a0");
        let vv = Term::cnst("v0");
        assert!(prove_with_axioms(
            vec![],
            select(&store(&s, &aa, &vv), &aa).eq(&vv),
        ));
    }

    #[test]
    fn store_frame() {
        let s = Term::cnst("s0");
        let aa = Term::cnst("a0");
        let bb = Term::cnst("b0");
        let vv = Term::cnst("v0");
        assert!(prove_with_axioms(
            vec![aa.ne(&bb)],
            select(&store(&s, &aa, &vv), &bb).eq(&select(&s, &bb)),
        ));
    }

    #[test]
    fn comparison_expressions_are_boolean() {
        let rho = Term::cnst("rho0");
        let e1 = Term::cnst("ea");
        let e2 = Term::cnst("eb");
        let eq = syntax::bin_expr("eqExpr", &e1, &e2);
        // evalExpr of a comparison is 0 or 1 — in particular ≥ 0.
        assert!(prove_with_axioms(
            vec![],
            Term::int(0).le(&eval_expr(&rho, &eq)),
        ));
    }

    #[test]
    fn null_is_not_a_heap_location() {
        assert!(prove_with_axioms(
            vec![is_heap_loc(&Term::cnst("v0"))],
            Term::cnst("v0").ne(&Term::int(0)),
        ));
    }
}
