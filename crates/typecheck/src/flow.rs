//! Flow-sensitive refinement — the extension the paper's §8 plans
//! ("We plan to extend our typechecking algorithm to incorporate
//! flow-sensitivity, borrowing ideas from CQUAL").
//!
//! The flow-insensitive checker cannot use branch conditions, which is
//! the §6.1 source of imprecision: `if (t != NULL) … *t …` still needs a
//! cast. With flow sensitivity enabled, a branch on a *variable*
//! comparison refines the variable's type inside the branch with every
//! registered value qualifier whose declared invariant is **implied** by
//! the condition — decided analytically from the invariant's comparison
//! (so `x != NULL` yields `nonnull`, `x > 0` yields `pos` and `nonzero`,
//! and so on, for user-defined qualifiers too).
//!
//! Soundness: a refinement applies only to a local variable or parameter
//! of the function being checked, only if the function never takes its
//! address anywhere in its body, and only inside a branch that does not
//! assign it. Then nothing but the branch itself can change the
//! variable: a call cannot reach it, and no pointer to it exists to be
//! written through — whether made inside the branch or before it. A
//! global is never refined, since any call may change it.

use std::collections::BTreeSet;
use stq_cir::ast::*;
use stq_qualspec::{CmpOp, InvPred, InvTerm, QualKind, Registry};
use stq_util::Symbol;

/// What a branch condition tells us about one variable's value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fact {
    /// Inclusive lower bound.
    pub lo: Option<i64>,
    /// Inclusive upper bound.
    pub hi: Option<i64>,
    /// A single excluded value (from `!=`).
    pub ne: Option<i64>,
}

impl Fact {
    fn from_cmp(op: BinOp, c: i64) -> Option<Fact> {
        let mut f = Fact::default();
        match op {
            BinOp::Eq => {
                f.lo = Some(c);
                f.hi = Some(c);
            }
            BinOp::Ne => f.ne = Some(c),
            BinOp::Lt => f.hi = c.checked_sub(1),
            BinOp::Le => f.hi = Some(c),
            BinOp::Gt => f.lo = c.checked_add(1),
            BinOp::Ge => f.lo = Some(c),
            _ => return None,
        }
        Some(f)
    }

    /// The negated fact (for else branches); only exact negations are
    /// representable.
    fn negate(op: BinOp, c: i64) -> Option<Fact> {
        let flipped = match op {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            _ => return None,
        };
        Fact::from_cmp(flipped, c)
    }

    /// Whether the fact implies `value OP c`.
    pub fn implies(self, op: CmpOp, c: i64) -> bool {
        match op {
            CmpOp::Gt => self.lo.is_some_and(|lo| lo > c),
            CmpOp::Ge => self.lo.is_some_and(|lo| lo >= c),
            CmpOp::Lt => self.hi.is_some_and(|hi| hi < c),
            CmpOp::Le => self.hi.is_some_and(|hi| hi <= c),
            CmpOp::Eq => self.lo.is_some_and(|lo| lo == c) && self.hi.is_some_and(|hi| hi == c),
            CmpOp::Ne => {
                self.ne == Some(c)
                    || self.lo.is_some_and(|lo| lo > c)
                    || self.hi.is_some_and(|hi| hi < c)
            }
        }
    }
}

/// Variable refinements derived from a condition: which qualifiers can be
/// added to which variables in the then/else branches.
#[derive(Clone, Debug, Default)]
pub struct Refinements {
    /// Refinements valid when the condition is true.
    pub then_branch: Vec<(Symbol, BTreeSet<Symbol>)>,
    /// Refinements valid when the condition is false.
    pub else_branch: Vec<(Symbol, BTreeSet<Symbol>)>,
}

/// Extracts refinements from a branch condition.
pub fn refinements(registry: &Registry, cond: &Expr) -> Refinements {
    let mut out = Refinements::default();
    collect(registry, cond, true, &mut out);
    out
}

fn collect(registry: &Registry, cond: &Expr, positive: bool, out: &mut Refinements) {
    match &cond.kind {
        // Conjunctions refine the then branch; by De Morgan a negated
        // conjunction would only refine the else branch disjunctively,
        // which we do not track.
        ExprKind::Binop(BinOp::And, a, b) if positive => {
            collect(registry, a, true, out);
            collect(registry, b, true, out);
        }
        ExprKind::Unop(UnOp::Not, inner) => collect(registry, inner, !positive, out),
        ExprKind::Binop(op, a, b) if op.is_comparison() => {
            // Normalize to `var OP constant`, mirroring the operator when
            // the variable is on the right (`0 < x` is `x > 0`).
            let (var, constant, op) = match (var_of(a), const_of(b), var_of(b), const_of(a)) {
                (Some(v), Some(c), _, _) => (v, c, *op),
                (_, _, Some(v), Some(c)) => (v, c, mirror(*op)),
                _ => return,
            };
            let (then_fact, else_fact) = if positive {
                (Fact::from_cmp(op, constant), Fact::negate(op, constant))
            } else {
                (Fact::negate(op, constant), Fact::from_cmp(op, constant))
            };
            if let Some(f) = then_fact {
                let quals = implied_qualifiers(registry, f);
                if !quals.is_empty() {
                    out.then_branch.push((var, quals));
                }
            }
            if let Some(f) = else_fact {
                let quals = implied_qualifiers(registry, f);
                if !quals.is_empty() {
                    out.else_branch.push((var, quals));
                }
            }
        }
        // A bare variable as condition: `if (p)` means p ≠ 0.
        ExprKind::Lval(lv) => {
            if let Some(var) = lv.as_var() {
                let (then_fact, else_fact) = if positive {
                    (
                        Fact {
                            ne: Some(0),
                            ..Fact::default()
                        },
                        Fact {
                            lo: Some(0),
                            hi: Some(0),
                            ne: None,
                        },
                    )
                } else {
                    (
                        Fact {
                            lo: Some(0),
                            hi: Some(0),
                            ne: None,
                        },
                        Fact {
                            ne: Some(0),
                            ..Fact::default()
                        },
                    )
                };
                let tq = implied_qualifiers(registry, then_fact);
                if !tq.is_empty() {
                    out.then_branch.push((var, tq));
                }
                let eq = implied_qualifiers(registry, else_fact);
                if !eq.is_empty() {
                    out.else_branch.push((var, eq));
                }
            }
        }
        _ => {}
    }
}

/// Mirrors a comparison across its operands (`c OP x` ⇒ `x mirror(OP) c`).
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn var_of(e: &Expr) -> Option<Symbol> {
    e.as_lval().and_then(Lvalue::as_var)
}

fn const_of(e: &Expr) -> Option<i64> {
    match &e.strip_casts().kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Null => Some(0),
        _ => None,
    }
}

/// Every registered value qualifier whose declared invariant is a simple
/// comparison implied by the fact.
fn implied_qualifiers(registry: &Registry, fact: Fact) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    for def in registry.iter() {
        if def.kind != QualKind::Value {
            continue;
        }
        let Some(InvPred::Cmp(op, InvTerm::Value(_), rhs)) = &def.invariant else {
            continue;
        };
        let c = match rhs {
            InvTerm::Int(v) => *v,
            InvTerm::Null => 0,
            _ => continue,
        };
        if fact.implies(*op, c) {
            out.insert(def.name);
        }
    }
    out
}

/// Whether `stmt` assigns `var` anywhere inside it: as the target of an
/// assignment, an allocation or a call result. A declaration of the same
/// name shadows the variable rather than assigning it.
pub(crate) fn assigns(stmt: &Stmt, var: Symbol) -> bool {
    let mut found = false;
    stmt.walk(&mut |s| {
        if let StmtKind::Instr(i) = &s.kind {
            found |= match &i.kind {
                InstrKind::Set(lv, _) | InstrKind::Alloc(lv, _) => lv.as_var() == Some(var),
                InstrKind::Call(dst, _, _) => dst.as_ref().and_then(Lvalue::as_var) == Some(var),
                InstrKind::RuntimeCheck(..) => false,
            };
        }
    });
    found
}

/// Every variable whose address `body` takes (`&x`, or `&x.f` of a field
/// inside it), anywhere, in any scope.
pub(crate) fn address_taken(body: &[Stmt]) -> Vec<Symbol> {
    let mut out = Vec::new();
    let mut visit = |e: &Expr| {
        if let ExprKind::AddrOf(lv) = &e.kind {
            out.extend(root_var(lv));
        }
    };
    for s in body {
        s.walk(&mut |s| s.exprs(&mut |e| e.walk(&mut visit)));
    }
    out
}

/// The variable an l-value's storage lies in: `x` for `x` and `x.f.g`;
/// none behind a dereference.
fn root_var(lv: &Lvalue) -> Option<Symbol> {
    match &lv.kind {
        LvalKind::Var(v) => Some(*v),
        LvalKind::Field(inner, _) => root_var(inner),
        LvalKind::Deref(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_qualspec::Registry;

    fn reg() -> Registry {
        Registry::builtins()
    }

    fn q(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    #[test]
    fn null_test_refines_nonnull() {
        let cond = Expr::binop(BinOp::Ne, Expr::var("t"), Expr::null());
        let r = refinements(&reg(), &cond);
        assert_eq!(r.then_branch.len(), 1);
        let (var, quals) = &r.then_branch[0];
        assert_eq!(*var, q("t"));
        assert!(quals.contains(&q("nonnull")));
        assert!(quals.contains(&q("nonzero"))); // value != 0 too
        assert!(!quals.contains(&q("pos")));
        // The else branch learns t == NULL, which implies nothing useful.
        assert!(r.else_branch.is_empty());
    }

    #[test]
    fn positive_test_refines_pos_and_nonzero() {
        let cond = Expr::binop(BinOp::Gt, Expr::var("x"), Expr::int(0));
        let r = refinements(&reg(), &cond);
        let (_, quals) = &r.then_branch[0];
        assert!(quals.contains(&q("pos")));
        assert!(quals.contains(&q("nonzero")));
        assert!(!quals.contains(&q("neg")));
    }

    #[test]
    fn reversed_operands_work() {
        // 0 < x is the same as x > 0.
        let cond = Expr::binop(BinOp::Lt, Expr::int(0), Expr::var("x"));
        let r = refinements(&reg(), &cond);
        let (_, quals) = &r.then_branch[0];
        assert!(quals.contains(&q("pos")));
    }

    #[test]
    fn equality_refines_else_branch() {
        // if (x == 0) {} else { x is nonzero }
        let cond = Expr::binop(BinOp::Eq, Expr::var("x"), Expr::int(0));
        let r = refinements(&reg(), &cond);
        assert!(r.then_branch.is_empty());
        let (_, quals) = &r.else_branch[0];
        assert!(quals.contains(&q("nonzero")));
    }

    #[test]
    fn negated_condition_swaps_branches() {
        // if (!(x != 0)) {} else { x nonzero }
        let cond = Expr::unop(
            UnOp::Not,
            Expr::binop(BinOp::Ne, Expr::var("x"), Expr::int(0)),
        );
        let r = refinements(&reg(), &cond);
        assert!(r.then_branch.is_empty());
        assert!(r
            .else_branch
            .iter()
            .any(|(_, qs)| qs.contains(&q("nonzero"))));
    }

    #[test]
    fn conjunction_refines_both_variables() {
        let cond = Expr::binop(
            BinOp::And,
            Expr::binop(BinOp::Ne, Expr::var("a"), Expr::null()),
            Expr::binop(BinOp::Gt, Expr::var("b"), Expr::int(5)),
        );
        let r = refinements(&reg(), &cond);
        assert_eq!(r.then_branch.len(), 2);
    }

    #[test]
    fn bare_variable_condition() {
        let cond = Expr::var("p");
        let r = refinements(&reg(), &cond);
        assert!(r.then_branch[0].1.contains(&q("nonnull")));
    }

    #[test]
    fn strict_bounds_compose() {
        // x >= 1 implies x > 0.
        let f = Fact::from_cmp(BinOp::Ge, 1).unwrap();
        assert!(f.implies(CmpOp::Gt, 0));
        assert!(f.implies(CmpOp::Ne, 0));
        assert!(!f.implies(CmpOp::Lt, 0));
        // x > 0 does not imply x > 1.
        let g = Fact::from_cmp(BinOp::Gt, 0).unwrap();
        assert!(!g.implies(CmpOp::Gt, 1));
    }

    #[test]
    fn assignment_detection() {
        let set_t = Stmt::instr(InstrKind::Set(Lvalue::var("t"), Expr::int(0)));
        assert!(assigns(&set_t, q("t")));
        assert!(!assigns(&set_t, q("u")));

        let call_into_t = Stmt::instr(InstrKind::Call(Some(Lvalue::var("t")), q("g"), vec![]));
        assert!(assigns(&call_into_t, q("t")));

        let reads_only = Stmt::instr(InstrKind::Set(Lvalue::var("y"), Expr::var("t")));
        assert!(!assigns(&reads_only, q("t")));

        let nested = Stmt::new(StmtKind::Block(vec![Stmt::new(StmtKind::If(
            Expr::int(1),
            Box::new(set_t),
            None,
        ))]));
        assert!(assigns(&nested, q("t")));
    }

    #[test]
    fn address_taking_detection() {
        let body = [
            Stmt::instr(InstrKind::Set(
                Lvalue::var("p"),
                Expr::addr_of(Lvalue::var("t")),
            )),
            Stmt::instr(InstrKind::Set(
                Lvalue::var("q"),
                Expr::addr_of(Lvalue::field(Lvalue::var("s"), "f")),
            )),
            // `&(*u).f` points into what u points to, not at u.
            Stmt::instr(InstrKind::Set(
                Lvalue::var("r"),
                Expr::addr_of(Lvalue::field(Lvalue::deref(Expr::var("u")), "f")),
            )),
            Stmt::instr(InstrKind::Set(Lvalue::var("y"), Expr::var("v"))),
        ];
        assert_eq!(address_taken(&body), vec![q("t"), q("s")]);
    }

    #[test]
    fn custom_qualifier_invariants_participate() {
        // A user-defined qualifier with a comparison invariant is picked
        // up by refinement automatically.
        let mut registry = Registry::new();
        registry
            .add_source(
                "value qualifier big(int Expr E)
                    invariant value(E) > 100",
            )
            .unwrap();
        let cond = Expr::binop(BinOp::Gt, Expr::var("x"), Expr::int(200));
        let r = refinements(&registry, &cond);
        assert!(r.then_branch[0].1.contains(&q("big")));
        let weak = Expr::binop(BinOp::Gt, Expr::var("x"), Expr::int(50));
        let r2 = refinements(&registry, &weak);
        assert!(r2.then_branch.is_empty());
    }
}
