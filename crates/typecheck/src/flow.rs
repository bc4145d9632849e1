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

/// Extracts refinements from a branch condition; `arena` is its
/// program's.
pub fn refinements(registry: &Registry, arena: &Arena, cond: ExprId) -> Refinements {
    let mut out = Refinements::default();
    collect(registry, arena, cond, true, &mut out);
    out
}

fn collect(
    registry: &Registry,
    arena: &Arena,
    cond: ExprId,
    positive: bool,
    out: &mut Refinements,
) {
    match arena[cond].kind {
        // Conjunctions refine the then branch; by De Morgan a negated
        // conjunction would only refine the else branch disjunctively,
        // which we do not track.
        ExprKind::Binop(BinOp::And, a, b) if positive => {
            collect(registry, arena, a, true, out);
            collect(registry, arena, b, true, out);
        }
        ExprKind::Unop(UnOp::Not, inner) => collect(registry, arena, inner, !positive, out),
        ExprKind::Binop(op, a, b) if op.is_comparison() => {
            // Normalize to `var OP constant`, mirroring the operator when
            // the variable is on the right (`0 < x` is `x > 0`).
            let (var, constant, op) = match (
                var_of(arena, a),
                const_of(arena, b),
                var_of(arena, b),
                const_of(arena, a),
            ) {
                (Some(v), Some(c), _, _) => (v, c, op),
                (_, _, Some(v), Some(c)) => (v, c, mirror(op)),
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
            if let Some(var) = arena.as_var(lv) {
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

fn var_of(arena: &Arena, e: ExprId) -> Option<Symbol> {
    arena.as_var(arena.as_lval(e)?)
}

fn const_of(arena: &Arena, e: ExprId) -> Option<i64> {
    match arena[arena.strip_casts(e)].kind {
        ExprKind::IntLit(v) => Some(v),
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
pub(crate) fn assigns(arena: &Arena, stmt: &Stmt, var: Symbol) -> bool {
    let mut found = false;
    stmt.walk(&mut |s| {
        if let StmtKind::Instr(i) = &s.kind {
            let target = match i.kind {
                InstrKind::Set(lv, _) | InstrKind::Alloc(lv, _) => Some(lv),
                InstrKind::Call(dst, _, _) => dst,
                InstrKind::RuntimeCheck(..) => None,
            };
            found |= target.and_then(|lv| arena.as_var(lv)) == Some(var);
        }
    });
    found
}

/// Every variable whose address `body` takes (`&x`, or `&x.f` of a field
/// inside it), anywhere, in any scope.
pub(crate) fn address_taken(arena: &Arena, body: &[Stmt]) -> Vec<Symbol> {
    let mut out = Vec::new();
    let mut visit = |e: ExprId| {
        if let ExprKind::AddrOf(lv) = arena[e].kind {
            out.extend(root_var(arena, lv));
        }
    };
    for s in body {
        s.walk(&mut |s| s.exprs(arena, &mut |e| arena.walk_expr(e, &mut visit)));
    }
    out
}

/// The variable an l-value's storage lies in: `x` for `x` and `x.f.g`;
/// none behind a dereference.
fn root_var(arena: &Arena, mut lv: LvalId) -> Option<Symbol> {
    loop {
        match arena[lv].kind {
            LvalKind::Var(v) => return Some(v),
            LvalKind::Field(inner, _) => lv = inner,
            LvalKind::Deref(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::parse::parse_program;
    use stq_qualspec::Registry;

    fn reg() -> Registry {
        Registry::builtins()
    }

    fn q(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    /// The refinements of the condition `cond` under `registry`.
    fn refine(registry: &Registry, cond: &str) -> Refinements {
        let p = parse_program(&format!("void f() {{ if ({cond}) {{ }} }}"), &[]).expect("parses");
        let StmtKind::If(c, ..) = p.funcs[0].body[0].kind else {
            panic!("an if")
        };
        refinements(registry, &p.arena, c)
    }

    /// Parses `src`, which declares nothing, so its names stay unbound.
    fn body(src: &str) -> Program {
        parse_program(src, &[]).expect("parses")
    }

    #[test]
    fn null_test_refines_nonnull() {
        let r = refine(&reg(), "t != NULL");
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
        let r = refine(&reg(), "x > 0");
        let (_, quals) = &r.then_branch[0];
        assert!(quals.contains(&q("pos")));
        assert!(quals.contains(&q("nonzero")));
        assert!(!quals.contains(&q("neg")));
    }

    #[test]
    fn reversed_operands_work() {
        // 0 < x is the same as x > 0.
        let r = refine(&reg(), "0 < x");
        let (_, quals) = &r.then_branch[0];
        assert!(quals.contains(&q("pos")));
    }

    #[test]
    fn equality_refines_else_branch() {
        // if (x == 0) {} else { x is nonzero }
        let r = refine(&reg(), "x == 0");
        assert!(r.then_branch.is_empty());
        let (_, quals) = &r.else_branch[0];
        assert!(quals.contains(&q("nonzero")));
    }

    #[test]
    fn negated_condition_swaps_branches() {
        // if (!(x != 0)) {} else { x nonzero }
        let r = refine(&reg(), "!(x != 0)");
        assert!(r.then_branch.is_empty());
        assert!(r
            .else_branch
            .iter()
            .any(|(_, qs)| qs.contains(&q("nonzero"))));
    }

    #[test]
    fn conjunction_refines_both_variables() {
        let r = refine(&reg(), "a != NULL && b > 5");
        assert_eq!(r.then_branch.len(), 2);
    }

    #[test]
    fn bare_variable_condition() {
        let r = refine(&reg(), "p");
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
        let p = body(
            "void f() {
                 t = 0;
                 t = g();
                 y = t;
                 { if (1) t = 0; }
             }",
        );
        let [set_t, call_into_t, reads_only, nested] = &p.funcs[0].body[..] else {
            panic!("four statements")
        };
        assert!(assigns(&p.arena, set_t, q("t")));
        assert!(!assigns(&p.arena, set_t, q("u")));
        assert!(assigns(&p.arena, call_into_t, q("t")));
        assert!(!assigns(&p.arena, reads_only, q("t")));
        assert!(assigns(&p.arena, nested, q("t")));
    }

    #[test]
    fn address_taking_detection() {
        let p = body(
            "void f() {
                 p = &t;
                 q = &s.f;
                 r = &u->f;
                 y = v;
             }",
        );
        // `&(*u).f` points into what u points to, not at u.
        assert_eq!(
            address_taken(&p.arena, &p.funcs[0].body),
            vec![q("t"), q("s")]
        );
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
        let r = refine(&registry, "x > 200");
        assert!(r.then_branch[0].1.contains(&q("big")));
        let r2 = refine(&registry, "x > 50");
        assert!(r2.then_branch.is_empty());
    }
}
