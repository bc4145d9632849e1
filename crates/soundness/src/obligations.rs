//! Proof-obligation generation (paper §4.2, §5.2).
//!
//! For a **value qualifier**, each `case` clause yields one obligation:
//! if an expression matches the clause's pattern and its predicate holds
//! (interpreted semantically in an arbitrary execution state ρ), then the
//! qualifier's invariant holds of the expression in ρ.
//!
//! For a **reference qualifier**:
//! * each `assign` form yields an *establishment* obligation — performing
//!   the assignment makes the invariant hold for the target l-value;
//! * `ondecl` yields an establishment obligation at declaration;
//! * one *preservation* obligation per right-hand-side form consistent
//!   with the `disallow` block — an arbitrary assignment to a *different*
//!   l-value keeps the invariant.
//!
//! `restrict` and `disallow` clauses generate no obligations of their own
//! (restrict does not affect whether qualified expressions satisfy their
//! invariants; disallow only *narrows* the preservation case analysis).

use crate::axioms::{self, syntax};
use std::fmt;
use stq_cir::ast::{BinOp, UnOp};
use stq_logic::solver::Problem;
use stq_logic::term::{Formula, Sort, Term};
use stq_qualspec::{
    AssignRhs, Classifier, Clause, CmpOp, InvPred, InvTerm, PTerm, Pattern, Pred, QualKind,
    QualifierDef, Registry,
};
use stq_util::Symbol;

/// One generated proof obligation.
pub struct Obligation {
    /// Human-readable description ("case clause 2: E1 * E2", …).
    pub description: String,
    /// The prover problem (background theory attached).
    pub problem: Problem,
}

impl fmt::Debug for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obligation({})", self.description)
    }
}

/// Which generator materializes an obligation (see [`ObligationSpec`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObligationKind {
    /// `case` clause `i` (0-based) of a value qualifier.
    ValueCase(usize),
    /// `assign` form `i` (0-based) of a reference qualifier.
    RefAssign(usize),
    /// The `ondecl` establishment obligation.
    RefOndecl,
    /// Preservation across an assignment of the given RHS form to
    /// another l-value.
    RefPreserve(RhsCase),
}

/// A cheap handle for one obligation: its description plus which
/// generator builds its prover problem. [`obligation_specs`] enumerates
/// these without constructing any formulas, so the checking pipeline can
/// flatten its task list up front and materialize problems *on the
/// workers* via [`build_obligation`], in parallel with proving.
#[derive(Clone, Debug)]
pub struct ObligationSpec {
    /// Human-readable description, identical to the built
    /// [`Obligation::description`].
    pub description: String,
    /// The generator that materializes this obligation.
    pub kind: ObligationKind,
}

/// Enumerates the proof obligations for `def` without building their
/// prover problems; [`build_obligation`] materializes each one.
///
/// Qualifiers without an `invariant` clause generate none: their
/// soundness is the implicit value-qualifier subtyping ("for free",
/// paper §2.1.4) or, for reference qualifiers, vacuous.
pub fn obligation_specs(def: &QualifierDef) -> Vec<ObligationSpec> {
    let Some(inv) = def.invariant.as_ref() else {
        return Vec::new();
    };
    match def.kind {
        QualKind::Value => def
            .cases
            .iter()
            .enumerate()
            .map(|(i, clause)| ObligationSpec {
                description: format!(
                    "case clause {} (`{}`) establishes `{}`",
                    i + 1,
                    clause.pattern,
                    inv
                ),
                kind: ObligationKind::ValueCase(i),
            })
            .collect(),
        QualKind::Ref => {
            let mut out = Vec::new();
            for (i, rhs) in def.assigns.iter().enumerate() {
                out.push(ObligationSpec {
                    description: format!("assign form `{rhs}` establishes `{inv}`"),
                    kind: ObligationKind::RefAssign(i),
                });
            }
            if def.ondecl {
                out.push(ObligationSpec {
                    description: format!("ondecl establishes `{inv}` at declaration"),
                    kind: ObligationKind::RefOndecl,
                });
            }
            for case in [
                RhsCase::Null,
                RhsCase::New,
                RhsCase::AddrOfVar,
                RhsCase::Read,
            ] {
                out.push(ObligationSpec {
                    description: format!(
                        "preservation across an assignment of {case} to another l-value"
                    ),
                    kind: ObligationKind::RefPreserve(case),
                });
            }
            out
        }
    }
}

/// Materializes the prover problem for one spec produced by
/// [`obligation_specs`] over the same `def`.
///
/// # Panics
///
/// Panics if `def` carries no invariant or the spec's index is out of
/// range — i.e. if the spec did not come from `obligation_specs(def)`.
pub fn build_obligation(
    registry: &Registry,
    def: &QualifierDef,
    spec: &ObligationSpec,
) -> Obligation {
    let inv = def
        .invariant
        .as_ref()
        .expect("specs exist only for invariant-bearing qualifiers");
    let problem = match spec.kind {
        ObligationKind::ValueCase(i) => value_case_problem(registry, inv, &def.cases[i]),
        ObligationKind::RefAssign(i) => ref_assign_problem(def, inv, &def.assigns[i]),
        ObligationKind::RefOndecl => ref_ondecl_problem(inv),
        ObligationKind::RefPreserve(case) => ref_preserve_problem(def, inv, case),
    };
    Obligation {
        description: spec.description.clone(),
        problem,
    }
}

fn new_problem() -> Problem {
    let mut p = Problem::new();
    p.set_theory(axioms::background_theory());
    p
}

// ===== value qualifiers =====

fn value_case_problem(registry: &Registry, inv: &InvPred, clause: &Clause) -> Problem {
    let rho = Term::cnst("rho!");
    let mut problem = new_problem();
    // Each pattern variable becomes a fresh constant of the right
    // reified sort; Const-classified variables become constExpr(c).
    // A pattern variable with no `decl` (an ill-formed clause that
    // skipped the well-formedness check) binds as a plain Expr: the
    // obligation stays meaningful — and usually unprovable, which
    // surfaces the problem as a verdict instead of a panic.
    let bind = |x: Symbol| -> Term {
        let classifier = clause
            .decl(x)
            .map_or(Classifier::Expr, |decl| decl.classifier);
        match classifier {
            Classifier::Const => syntax::const_expr(&Term::cnst(&format!("c!{x}"))),
            Classifier::LValue | Classifier::Var => {
                Term::App(Symbol::intern(&format!("l!{x}")), Vec::new())
            }
            Classifier::Expr => Term::App(Symbol::intern(&format!("e!{x}")), Vec::new()),
        }
    };
    // The matched expression, as reified syntax.
    let subject_term = match &clause.pattern {
        Pattern::Var(x) => bind(*x),
        Pattern::Deref(x) => syntax::deref_expr(&bind(*x)),
        Pattern::AddrOf(x) => syntax::addr_expr(&bind(*x)),
        Pattern::New => {
            // Allocation results in expression position do not occur
            // (new matches instructions); treat as a fresh heap value.
            let v = Term::cnst("vnew!");
            problem.hypothesis(axioms::is_heap_loc(&v));
            syntax::const_expr(&v)
        }
        Pattern::Unop(UnOp::Neg, x) => syntax::neg_expr(&bind(*x)),
        Pattern::Unop(UnOp::Not, x) => syntax::not_expr(&bind(*x)),
        Pattern::Unop(UnOp::BitNot, x) => Term::app("bitNotExpr", vec![bind(*x)]),
        Pattern::Binop(op, x, y) => syntax::bin_expr(bin_ctor(*op), &bind(*x), &bind(*y)),
    };
    // Guard hypotheses, interpreted semantically.
    problem.hypothesis(guard_formula(registry, clause, &clause.guard, &rho, &bind));
    // Goal: the invariant holds of the matched expression in ρ.
    let value = axioms::eval_expr(&rho, &subject_term);
    problem.goal(value_inv_formula(inv, &value));
    problem
}

fn bin_ctor(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "addExpr",
        BinOp::Sub => "subExpr",
        BinOp::Mul => "mulExpr",
        BinOp::Div => "divExpr",
        BinOp::Mod => "modExpr",
        BinOp::Eq => "eqExpr",
        BinOp::Ne => "neExpr",
        BinOp::Lt => "ltExpr",
        BinOp::Le => "leExpr",
        BinOp::Gt => "gtExpr",
        BinOp::Ge => "geExpr",
        BinOp::And => "andExpr",
        BinOp::Or => "orExpr",
    }
}

/// Translates a clause guard into hypotheses over ρ. A qualifier check
/// `q'(X)` contributes `q'`'s invariant applied to X's value; checks on
/// invariant-less qualifiers contribute nothing (they carry no semantic
/// information).
fn guard_formula(
    registry: &Registry,
    clause: &Clause,
    guard: &Pred,
    rho: &Term,
    bind: &dyn Fn(Symbol) -> Term,
) -> Formula {
    match guard {
        Pred::True => Formula::True,
        Pred::And(a, b) => Formula::and(vec![
            guard_formula(registry, clause, a, rho, bind),
            guard_formula(registry, clause, b, rho, bind),
        ]),
        Pred::Or(a, b) => Formula::or(vec![
            guard_formula(registry, clause, a, rho, bind),
            guard_formula(registry, clause, b, rho, bind),
        ]),
        Pred::Cmp(op, a, b) => {
            let ta = pterm_value(clause, a, rho, bind);
            let tb = pterm_value(clause, b, rho, bind);
            cmp_formula(*op, &ta, &tb)
        }
        Pred::QualCheck(q, x) => match registry.get(*q).and_then(|d| d.invariant.clone()) {
            None => Formula::True,
            Some(inv) => {
                let value = axioms::eval_expr(rho, &bind(*x));
                value_inv_formula(&inv, &value)
            }
        },
    }
}

/// The semantic value of a predicate term: for a Const-classified
/// variable `C`, the constant `c!C` it reifies; literals denote
/// themselves.
fn pterm_value(clause: &Clause, t: &PTerm, rho: &Term, bind: &dyn Fn(Symbol) -> Term) -> Term {
    match t {
        PTerm::Int(v) => Term::int(*v),
        PTerm::Null => Term::int(0),
        PTerm::Var(x) => match clause.decl(*x).map(|d| d.classifier) {
            Some(Classifier::Const) => Term::cnst(&format!("c!{x}")),
            _ => axioms::eval_expr(rho, &bind(*x)),
        },
    }
}

fn cmp_formula(op: CmpOp, a: &Term, b: &Term) -> Formula {
    match op {
        CmpOp::Eq => a.eq(b),
        CmpOp::Ne => a.ne(b),
        CmpOp::Lt => a.lt(b),
        CmpOp::Le => a.le(b),
        CmpOp::Gt => b.lt(a),
        CmpOp::Ge => b.le(a),
    }
}

/// Translates a *value* qualifier invariant, substituting `value_term`
/// for `value(E)`.
pub fn value_inv_formula(inv: &InvPred, value_term: &Term) -> Formula {
    fn term(t: &InvTerm, value: &Term) -> Term {
        match t {
            InvTerm::Value(_) => value.clone(),
            InvTerm::Int(v) => Term::int(*v),
            InvTerm::Null => Term::int(0),
            InvTerm::Var(x) => Term::var(x.as_str(), Sort::Int),
            // Value invariants over single values cannot inspect memory;
            // well-formedness rejects location(), and *P only appears
            // under quantifiers which value invariants do not use.
            InvTerm::DerefVar(x) => Term::var(x.as_str(), Sort::Int),
            InvTerm::Location(_) => Term::cnst("unsupported-location"),
        }
    }
    fn go(inv: &InvPred, value: &Term) -> Formula {
        match inv {
            InvPred::Cmp(op, a, b) => cmp_formula(*op, &term(a, value), &term(b, value)),
            InvPred::IsHeapLoc(t) => axioms::is_heap_loc(&term(t, value)),
            InvPred::And(a, b) => Formula::and(vec![go(a, value), go(b, value)]),
            InvPred::Or(a, b) => Formula::or(vec![go(a, value), go(b, value)]),
            InvPred::Implies(a, b) => go(a, value).implies(go(b, value)),
            InvPred::Not(a) => go(a, value).negate(),
            InvPred::Forall(x, _, body) => {
                Formula::forall(vec![(*x, Sort::Int)], Vec::new(), go(body, value))
            }
        }
    }
    go(inv, value_term)
}

// ===== reference qualifiers =====

/// Right-hand-side forms for the preservation case analysis. The forms
/// cover every pointer-producing expression shape of the language; the
/// `disallow` block adds hypotheses (a read consistent with `disallow L`
/// does not read the subject's location; an address-of consistent with
/// `disallow &X` is not the subject's address).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RhsCase {
    /// `l' = NULL`.
    Null,
    /// `l' = malloc(...)` — a fresh heap location.
    New,
    /// `l' = &y` — the address of some variable.
    AddrOfVar,
    /// `l' = y` or `l' = *e` — a value read from memory.
    Read,
}

impl fmt::Display for RhsCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RhsCase::Null => "NULL",
            RhsCase::New => "a fresh allocation",
            RhsCase::AddrOfVar => "an address-of expression",
            RhsCase::Read => "a value read from memory",
        })
    }
}

/// Translates a *reference* qualifier invariant over a store `sigma` and
/// the subject's location `ll`.
pub fn ref_inv_formula(inv: &InvPred, sigma: &Term, ll: &Term) -> Formula {
    fn term(t: &InvTerm, sigma: &Term, ll: &Term) -> Term {
        match t {
            InvTerm::Value(_) => axioms::select(sigma, ll),
            InvTerm::Location(_) => ll.clone(),
            InvTerm::Var(x) => Term::var(x.as_str(), Sort::Int),
            InvTerm::DerefVar(x) => axioms::select(sigma, &Term::var(x.as_str(), Sort::Int)),
            InvTerm::Int(v) => Term::int(*v),
            InvTerm::Null => Term::int(0),
        }
    }
    fn go(inv: &InvPred, sigma: &Term, ll: &Term) -> Formula {
        match inv {
            InvPred::Cmp(op, a, b) => cmp_formula(*op, &term(a, sigma, ll), &term(b, sigma, ll)),
            InvPred::IsHeapLoc(t) => axioms::is_heap_loc(&term(t, sigma, ll)),
            InvPred::And(a, b) => Formula::and(vec![go(a, sigma, ll), go(b, sigma, ll)]),
            InvPred::Or(a, b) => Formula::or(vec![go(a, sigma, ll), go(b, sigma, ll)]),
            InvPred::Implies(a, b) => go(a, sigma, ll).implies(go(b, sigma, ll)),
            InvPred::Not(a) => go(a, sigma, ll).negate(),
            InvPred::Forall(x, _, body) => {
                // Quantification over memory locations of the appropriate
                // type; triggered on reads of the location.
                let p = Term::var(x.as_str(), Sort::Int);
                Formula::forall(
                    vec![(*x, Sort::Int)],
                    vec![vec![axioms::select(sigma, &p)]],
                    go(body, sigma, ll),
                )
            }
        }
    }
    go(inv, sigma, ll)
}

fn ref_assign_problem(def: &QualifierDef, inv: &InvPred, rhs: &AssignRhs) -> Problem {
    let sigma = Term::cnst("sigma!");
    let ll = Term::cnst("ll!");
    let mut problem = new_problem();
    problem.hypothesis(ll.gt0());
    if def.subject.classifier == Classifier::Var {
        problem.hypothesis(axioms::is_heap_loc(&ll).negate());
    }
    let v = Term::cnst("v!");
    match rhs {
        AssignRhs::Null => {
            problem.hypothesis(v.eq(&Term::int(0)));
        }
        AssignRhs::New => {
            problem.hypothesis(axioms::is_heap_loc(&v));
            problem.hypothesis(freshness(&sigma, &v));
        }
        AssignRhs::Const => {
            problem.hypothesis(axioms::is_heap_loc(&v).negate());
        }
    }
    let sigma_after = axioms::store(&sigma, &ll, &v);
    problem.goal(ref_inv_formula(inv, &sigma_after, &ll));
    problem
}

fn ref_ondecl_problem(inv: &InvPred) -> Problem {
    let sigma = Term::cnst("sigma!");
    let ll = Term::cnst("ll!");
    let mut problem = new_problem();
    problem.hypothesis(ll.gt0());
    // A freshly declared variable's location is not stored anywhere
    // and is not a heap location.
    problem.hypothesis(freshness(&sigma, &ll));
    problem.hypothesis(axioms::is_heap_loc(&ll).negate());
    problem.goal(ref_inv_formula(inv, &sigma, &ll));
    problem
}

fn ref_preserve_problem(def: &QualifierDef, inv: &InvPred, case: RhsCase) -> Problem {
    let sigma = Term::cnst("sigma!");
    let ll = Term::cnst("ll!");
    let mut problem = new_problem();
    let ll_other = Term::cnst("llOther!");
    let v = Term::cnst("v!");
    problem.hypothesis(ll.gt0());
    problem.hypothesis(ll_other.gt0());
    problem.hypothesis(ll_other.ne(&ll));
    if def.subject.classifier == Classifier::Var {
        problem.hypothesis(axioms::is_heap_loc(&ll).negate());
    }
    // The invariant holds before the assignment.
    problem.hypothesis(ref_inv_formula(inv, &sigma, &ll));
    match case {
        RhsCase::Null => {
            problem.hypothesis(v.eq(&Term::int(0)));
        }
        RhsCase::New => {
            problem.hypothesis(axioms::is_heap_loc(&v));
            problem.hypothesis(freshness(&sigma, &v));
        }
        RhsCase::AddrOfVar => {
            problem.hypothesis(v.gt0());
            problem.hypothesis(axioms::is_heap_loc(&v).negate());
            if def.disallow.addr_of {
                // disallow &X: the address taken is not the subject's.
                problem.hypothesis(v.ne(&ll));
            }
        }
        RhsCase::Read => {
            let addr = Term::cnst("aRead!");
            problem.hypothesis(addr.gt0());
            problem.hypothesis(v.eq(&axioms::select(&sigma, &addr)));
            if def.disallow.ref_use {
                // disallow L: the right-hand side does not read the
                // subject's location.
                problem.hypothesis(addr.ne(&ll));
            }
        }
    }
    let sigma_after = axioms::store(&sigma, &ll_other, &v);
    problem.goal(ref_inv_formula(inv, &sigma_after, &ll));
    problem
}

/// `∀p. select(σ, p) ≠ v` — the value is referenced nowhere in the store.
fn freshness(sigma: &Term, v: &Term) -> Formula {
    let p = Term::var("pFresh", Sort::Int);
    Formula::forall(
        vec![(Symbol::intern("pFresh"), Sort::Int)],
        vec![vec![axioms::select(sigma, &p)]],
        axioms::select(sigma, &p).ne(v),
    )
}
