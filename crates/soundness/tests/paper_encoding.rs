//! The §4.2 obligations in the paper's *literal* vocabulary.
//!
//! The paper displays reference-qualifier obligations over execution
//! states and a small-step function, e.g. for `unique`'s second assign
//! clause:
//!
//! ```text
//! ∀ρ, l. (getStmt(ρ) = assign(l, new)) ⇒ unique(stepState(ρ), l)
//! ```
//!
//! The main obligation generator (`stq_soundness::obligations`) works
//! directly over store updates — semantically the same statement with
//! the state-stepping inlined. This file keeps the paper's surface form:
//! reified statements (`assignNull(l)`, `assignNew(l)`), `getStmt`,
//! `stepState`, and *bridge axioms* giving the step function its
//! store-update semantics. The tests prove the literal obligations and
//! thereby validate that the two encodings agree.

use stq_logic::solver::Problem;
use stq_logic::term::{Formula, Sort, Term};
use stq_qualspec::{QualKind, QualifierDef, Registry};
use stq_soundness::axioms::{self, lval_sort, state_sort, store_sort};
use stq_soundness::obligations::ref_inv_formula;
use stq_util::Symbol;

/// `getStmt(ρ)`.
fn get_stmt(rho: &Term) -> Term {
    Term::app("getStmt", vec![rho.clone()])
}

/// `stepState(ρ)` — the state after executing the current statement.
fn step_state(rho: &Term) -> Term {
    Term::app("stepState", vec![rho.clone()])
}

/// The reified statement `l := NULL`.
fn assign_null(l: &Term) -> Term {
    Term::app("assignNull", vec![l.clone()])
}

/// The reified statement `l := new` (allocation).
fn assign_new(l: &Term) -> Term {
    Term::app("assignNew", vec![l.clone()])
}

/// `newLoc(σ)` — the location a `new` in store σ returns.
fn new_loc(sigma: &Term) -> Term {
    Term::app("newLoc", vec![sigma.clone()])
}

/// Bridge axioms giving `stepState` its semantics in terms of `store`.
fn step_axioms() -> Vec<Formula> {
    let rho = Term::var("rho", state_sort());
    let l = Term::var("l", lval_sort());
    let s = Term::var("s", store_sort());
    let p = Term::var("p", Sort::Int);
    let mut out = Vec::new();

    let sigma = axioms::get_store(&rho);
    let loc = axioms::location(&rho, &l);
    let step = step_state(&rho);

    // Executing `l := NULL` updates the store at l's location with 0.
    out.push(Formula::forall(
        vec![
            (Symbol::intern("rho"), state_sort()),
            (Symbol::intern("l"), lval_sort()),
        ],
        vec![vec![step.clone(), assign_null(&l)]],
        get_stmt(&rho)
            .eq(&assign_null(&l))
            .implies(axioms::get_store(&step).eq(&axioms::store(&sigma, &loc, &Term::int(0)))),
    ));

    // Executing `l := new` updates the store with a fresh heap location.
    out.push(Formula::forall(
        vec![
            (Symbol::intern("rho"), state_sort()),
            (Symbol::intern("l"), lval_sort()),
        ],
        vec![vec![step.clone(), assign_new(&l)]],
        get_stmt(&rho)
            .eq(&assign_new(&l))
            .implies(axioms::get_store(&step).eq(&axioms::store(&sigma, &loc, &new_loc(&sigma)))),
    ));

    // newLoc returns a heap location…
    out.push(Formula::forall(
        vec![(Symbol::intern("s"), store_sort())],
        vec![vec![new_loc(&s)]],
        axioms::is_heap_loc(&new_loc(&s)),
    ));

    // …that nothing in the store references yet.
    out.push(Formula::forall(
        vec![
            (Symbol::intern("s"), store_sort()),
            (Symbol::intern("p"), Sort::Int),
        ],
        vec![vec![new_loc(&s), axioms::select(&s, &p)]],
        axioms::select(&s, &p).ne(&new_loc(&s)),
    ));

    // Stepping a statement does not move any l-value.
    out.push(Formula::forall(
        vec![
            (Symbol::intern("rho"), state_sort()),
            (Symbol::intern("l"), lval_sort()),
        ],
        vec![vec![axioms::location(&step, &l)]],
        axioms::location(&step, &l).eq(&axioms::location(&rho, &l)),
    ));

    out
}

/// Builds the paper's literal obligation for one assign form of a
/// reference qualifier:
/// `∀ρ, l. (getStmt(ρ) = assign(l, FORM)) ⇒ q(stepState(ρ), l)`.
///
/// # Panics
///
/// Panics if `def` is not a reference qualifier with an invariant, or if
/// `form` is not `"NULL"` or `"new"`.
fn literal_assign_obligation(def: &QualifierDef, form: &str) -> Problem {
    assert_eq!(
        def.kind,
        QualKind::Ref,
        "literal encoding is for ref qualifiers"
    );
    let inv = def
        .invariant
        .as_ref()
        .expect("literal encoding needs an invariant");

    let rho = Term::cnst("rho0!");
    let l = Term::cnst("l0!");
    let stmt = match form {
        "NULL" => assign_null(&l),
        "new" => assign_new(&l),
        other => panic!("unknown assign form `{other}`"),
    };

    let mut problem = Problem::new();
    for ax in axioms::background_axioms() {
        problem.axiom(ax);
    }
    for ax in step_axioms() {
        problem.axiom(ax);
    }
    // Hypothesis: the current statement is the assignment.
    problem.hypothesis(get_stmt(&rho).eq(&stmt));
    // The qualifier's invariant, interpreted in the *post* state: its
    // store is getStore(stepState(ρ)), its subject location is the
    // (step-stable) location of l.
    let step = step_state(&rho);
    let sigma_after = axioms::get_store(&step);
    let ll = axioms::location(&rho, &l);
    problem.goal(ref_inv_formula(inv, &sigma_after, &ll));
    problem
}

#[test]
fn papers_displayed_obligation_for_unique_and_new_proves() {
    // ∀ρ,l. (getStmt(ρ) = assign(l, new)) ⇒ unique(stepState(ρ), l)
    let registry = Registry::builtins();
    let unique = registry.get_by_name("unique").expect("builtin");
    let problem = literal_assign_obligation(unique, "new");
    assert!(problem.prove().is_proved());
}

#[test]
fn literal_null_obligation_proves() {
    let registry = Registry::builtins();
    let unique = registry.get_by_name("unique").expect("builtin");
    let problem = literal_assign_obligation(unique, "NULL");
    assert!(problem.prove().is_proved());
}

#[test]
fn literal_encoding_rejects_a_wrong_invariant() {
    // Claiming the freshly assigned unique pointer is NULL after a
    // `new` assignment must fail.
    let mut registry = Registry::new();
    registry
        .add_source(
            "ref qualifier alwaysnull(T* LValue L)
                assign L new
                invariant value(L) == NULL",
        )
        .unwrap();
    let def = registry.get_by_name("alwaysnull").unwrap();
    let problem = literal_assign_obligation(def, "new");
    assert!(!problem.prove().is_proved());
    // But the same invariant is established by a NULL assignment.
    let problem = literal_assign_obligation(def, "NULL");
    assert!(problem.prove().is_proved());
}

#[test]
fn both_encodings_agree_on_unaliased_like_invariants() {
    // A quantified invariant that an assignment of new cannot break…
    // unaliased's invariant is not established by assignment at all
    // (nothing relates the assigned value to location(L)), so both
    // encodings must refuse it.
    let registry = Registry::builtins();
    let unaliased = registry.get_by_name("unaliased").expect("builtin");
    let literal = literal_assign_obligation(unaliased, "NULL");
    assert!(!literal.prove().is_proved());
}

#[test]
#[should_panic(expected = "ref qualifiers")]
fn value_qualifiers_are_rejected() {
    let registry = Registry::builtins();
    let pos = registry.get_by_name("pos").expect("builtin");
    let _ = literal_assign_obligation(pos, "NULL");
}
