//! Run-time check instrumentation for value-qualifier casts (paper §2.1.3).
//!
//! Static checking sometimes needs help: the paper's `lcm` example casts
//! `(int pos)(prod / d)` because the `pos` rules cannot derive positivity
//! of a quotient. To retain soundness, the typechecker instruments every
//! cast to a value-qualified type with a run-time check that the value
//! satisfies the qualifier's declared invariant; a failed check is a
//! fatal error. Casts involving *reference* qualifiers remain unchecked,
//! like ordinary C casts (§2.2.3).

use std::collections::HashMap;
use stq_cir::ast::*;
use stq_cir::interp::{QualChecker, Value};
use stq_qualspec::{CmpOp, InvPred, InvTerm, QualKind, Registry};
use stq_util::Symbol;

/// Returns a copy of `program` with a [`InstrKind::RuntimeCheck`]
/// instruction inserted before every statement containing a cast to a
/// value-qualified type (for each such qualifier with a declared
/// invariant). `while` conditions are additionally re-checked at the end
/// of each iteration, since the condition re-evaluates.
///
/// # Examples
///
/// ```
/// use stq_qualspec::Registry;
/// use stq_cir::parse::parse_program;
/// use stq_typecheck::instrument_program;
///
/// let registry = Registry::builtins();
/// let program = parse_program(
///     "int f(int x) { int pos y = (int pos) x; return y; }",
///     &registry.names(),
/// ).unwrap();
/// let instrumented = instrument_program(&registry, &program);
/// // The declaration is now preceded by a __stq_check_pos instruction.
/// assert_eq!(instrumented.funcs[0].body.len(), 3);
/// ```
pub fn instrument_program(registry: &Registry, program: &Program) -> Program {
    Program {
        structs: program.structs.clone(),
        globals: program.globals.clone(),
        protos: program.protos.clone(),
        funcs: program
            .funcs
            .iter()
            .map(|f| FuncDef {
                name: f.name,
                sig: f.sig.clone(),
                body: instrument_stmts(registry, &f.body),
                span: f.span,
            })
            .collect(),
    }
}

fn instrument_stmts(registry: &Registry, stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        instrument_stmt(registry, s, &mut out);
    }
    out
}

fn instrument_stmt(registry: &Registry, stmt: &Stmt, out: &mut Vec<Stmt>) {
    // The casts a statement holds itself are checked before it runs. A
    // run-time check already in the program is not checked again.
    let mut checks = Vec::new();
    if !matches!(&stmt.kind, StmtKind::Instr(i) if matches!(i.kind, InstrKind::RuntimeCheck(..))) {
        stmt.exprs(&mut |e| collect(registry, e, &mut checks));
    }
    push_checks(&checks, stmt.span, out);
    let kind = match &stmt.kind {
        StmtKind::Block(inner) => StmtKind::Block(instrument_stmts(registry, inner)),
        StmtKind::If(cond, then, els) => StmtKind::If(
            cond.clone(),
            Box::new(instrument_one(registry, then)),
            els.as_ref().map(|e| Box::new(instrument_one(registry, e))),
        ),
        StmtKind::While(cond, body) => {
            // Checked once before entry (above), and again after each
            // iteration, before the condition re-evaluates.
            let mut new_body = vec![instrument_one(registry, body)];
            push_checks(&checks, stmt.span, &mut new_body);
            StmtKind::While(cond.clone(), Box::new(Stmt::new(StmtKind::Block(new_body))))
        }
        StmtKind::Instr(_) | StmtKind::Return(_) | StmtKind::Decl(_) => stmt.kind.clone(),
    };
    out.push(Stmt {
        kind,
        span: stmt.span,
    });
}

fn instrument_one(registry: &Registry, stmt: &Stmt) -> Stmt {
    let mut tmp = Vec::new();
    instrument_stmt(registry, stmt, &mut tmp);
    match tmp.len() {
        1 => tmp.pop().expect("len checked"),
        _ => Stmt {
            kind: StmtKind::Block(tmp),
            span: stmt.span,
        },
    }
}

fn push_checks(checks: &[(Symbol, Expr)], span: stq_util::Span, out: &mut Vec<Stmt>) {
    for (q, e) in checks {
        out.push(Stmt {
            kind: StmtKind::Instr(Instr {
                kind: InstrKind::RuntimeCheck(*q, e.clone()),
                span,
            }),
            span,
        });
    }
}

/// Collects (qualifier, inner-expression) pairs for every cast inside
/// `e` to a value-qualified type with a declared invariant, outer casts
/// first.
fn collect(registry: &Registry, e: &Expr, out: &mut Vec<(Symbol, Expr)>) {
    e.walk(&mut |e| {
        if let ExprKind::Cast(ty, inner) = &e.kind {
            for &q in &ty.quals {
                if runtime_invariant(registry, q).is_some() {
                    out.push((q, (**inner).clone()));
                }
            }
        }
    });
}

/// The invariant a run-time check of `q` evaluates: `q`'s declared
/// invariant, if `q` is a value qualifier. A cast to a qualifier without
/// one, or to a reference qualifier, is not checked (§2.2.3).
pub(crate) fn runtime_invariant(registry: &Registry, q: Symbol) -> Option<&InvPred> {
    registry
        .get(q)
        .filter(|def| def.kind == QualKind::Value)?
        .invariant
        .as_ref()
}

/// Returns a copy of `program` with a [`InstrKind::RuntimeCheck`]
/// *observation* after every point where the static discipline claims a
/// value-qualified variable holds: initialized declarations, assignments
/// and call results targeting a qualified variable, function entry (for
/// qualified parameters), and qualified returns (checked before the
/// `return`). Together with [`InvariantChecker`] this turns the paper's
/// §5 soundness property into an executable oracle: a cleanly checked,
/// cast-free program must pass every observation.
///
/// Only directly named variables are observed (not `*p` or field
/// targets), and only declarations *with* initializers — the paper's
/// flow-insensitive system does not claim anything about uninitialized
/// memory (§5 lists it as a known unsoundness source in C).
///
/// # Examples
///
/// ```
/// use stq_qualspec::Registry;
/// use stq_cir::parse::parse_program;
/// use stq_typecheck::observe_program;
///
/// let registry = Registry::builtins();
/// let program = parse_program(
///     "int pos f(int pos x) { int pos y = x + 1; return y; }",
///     &registry.names(),
/// ).unwrap();
/// let observed = observe_program(&registry, &program);
/// // Entry check on x, post-init check on y, pre-return check on y.
/// assert_eq!(observed.funcs[0].body.len(), 5);
/// ```
pub fn observe_program(registry: &Registry, program: &Program) -> Program {
    let mut out = program.clone();
    let globals: HashMap<Symbol, QualType> = program
        .globals
        .iter()
        .map(|g| (g.name, g.ty.clone()))
        .collect();
    for f in &mut out.funcs {
        let mut obs = Observer {
            registry,
            ret: f.sig.ret.clone(),
            scopes: vec![globals.clone()],
        };
        obs.scopes
            .push(f.sig.params.iter().cloned().collect::<HashMap<_, _>>());
        let mut body = Vec::with_capacity(f.body.len() + f.sig.params.len());
        for (name, ty) in &f.sig.params {
            for q in observed_quals(registry, ty) {
                body.push(check_stmt(q, var_expr(*name), f.span));
            }
        }
        for s in &f.body {
            obs.stmt(s, &mut body);
        }
        f.body = body;
    }
    out
}

/// The value qualifiers on `ty` whose declared invariants are dynamically
/// observable.
fn observed_quals(registry: &Registry, ty: &QualType) -> Vec<Symbol> {
    ty.quals
        .iter()
        .copied()
        .filter(|&q| runtime_invariant(registry, q).is_some())
        .collect()
}

fn var_expr(name: Symbol) -> Expr {
    Expr::lval(Lvalue::new(LvalKind::Var(name)))
}

fn check_stmt(qual: Symbol, e: Expr, span: stq_util::Span) -> Stmt {
    Stmt {
        kind: StmtKind::Instr(Instr {
            kind: InstrKind::RuntimeCheck(qual, e),
            span,
        }),
        span,
    }
}

struct Observer<'a> {
    registry: &'a Registry,
    ret: QualType,
    /// Innermost scope last: variable → declared type.
    scopes: Vec<HashMap<Symbol, QualType>>,
}

impl Observer<'_> {
    fn lookup(&self, name: Symbol) -> Option<&QualType> {
        self.scopes.iter().rev().find_map(|s| s.get(&name))
    }

    /// Observation checks for a store into `lv`, if it names a variable.
    fn store_checks(&self, lv: &Lvalue, out: &mut Vec<Stmt>, span: stq_util::Span) {
        if let LvalKind::Var(name) = &lv.kind {
            if let Some(ty) = self.lookup(*name) {
                for q in observed_quals(self.registry, ty) {
                    out.push(check_stmt(q, var_expr(*name), span));
                }
            }
        }
    }

    fn stmt(&mut self, stmt: &Stmt, out: &mut Vec<Stmt>) {
        match &stmt.kind {
            StmtKind::Instr(i) => {
                out.push(stmt.clone());
                match &i.kind {
                    InstrKind::Set(lv, _) | InstrKind::Alloc(lv, _) => {
                        self.store_checks(lv, out, stmt.span);
                    }
                    InstrKind::Call(Some(lv), _, _) => self.store_checks(lv, out, stmt.span),
                    InstrKind::Call(None, _, _) | InstrKind::RuntimeCheck(..) => {}
                }
            }
            StmtKind::Decl(d) => {
                out.push(stmt.clone());
                if d.init.is_some() {
                    for q in observed_quals(self.registry, &d.ty) {
                        out.push(check_stmt(q, var_expr(d.name), stmt.span));
                    }
                }
                self.scopes
                    .last_mut()
                    .expect("observer always has a scope")
                    .insert(d.name, d.ty.clone());
            }
            StmtKind::Return(Some(e)) => {
                for q in observed_quals(self.registry, &self.ret) {
                    out.push(check_stmt(q, e.clone(), stmt.span));
                }
                out.push(stmt.clone());
            }
            StmtKind::Return(None) => out.push(stmt.clone()),
            StmtKind::Block(inner) => {
                self.scopes.push(HashMap::new());
                let mut new_inner = Vec::with_capacity(inner.len());
                for s in inner {
                    self.stmt(s, &mut new_inner);
                }
                self.scopes.pop();
                out.push(Stmt {
                    kind: StmtKind::Block(new_inner),
                    span: stmt.span,
                });
            }
            StmtKind::If(cond, then, els) => {
                let then = Box::new(self.one(then));
                let els = els.as_ref().map(|e| Box::new(self.one(e)));
                out.push(Stmt {
                    kind: StmtKind::If(cond.clone(), then, els),
                    span: stmt.span,
                });
            }
            StmtKind::While(cond, body) => {
                let body = Box::new(self.one(body));
                out.push(Stmt {
                    kind: StmtKind::While(cond.clone(), body),
                    span: stmt.span,
                });
            }
        }
    }

    fn one(&mut self, stmt: &Stmt) -> Stmt {
        self.scopes.push(HashMap::new());
        let mut tmp = Vec::new();
        self.stmt(stmt, &mut tmp);
        self.scopes.pop();
        match tmp.len() {
            1 => tmp.pop().expect("len checked"),
            _ => Stmt {
                kind: StmtKind::Block(tmp),
                span: stmt.span,
            },
        }
    }
}

/// Evaluates value-qualifier invariants dynamically, for executing
/// instrumented programs on the interpreter.
///
/// Only the fragments of the invariant language meaningful for a single
/// value are decided (`value(E)` comparisons against constants and
/// `NULL`); state-dependent parts (`isHeapLoc`, quantifiers) are
/// conservatively accepted.
#[derive(Clone, Debug, Default)]
pub struct InvariantChecker {
    invariants: HashMap<Symbol, InvPred>,
}

impl InvariantChecker {
    /// Builds the checker from every value qualifier with an invariant.
    pub fn new(registry: &Registry) -> InvariantChecker {
        let invariants = registry
            .iter()
            .filter_map(|def| Some((def.name, runtime_invariant(registry, def.name)?.clone())))
            .collect();
        InvariantChecker { invariants }
    }
}

impl QualChecker for InvariantChecker {
    fn holds(&self, qual: Symbol, value: Value) -> bool {
        match self.invariants.get(&qual) {
            None => true,
            Some(inv) => eval_inv(inv, value),
        }
    }
}

fn eval_inv(inv: &InvPred, v: Value) -> bool {
    match inv {
        InvPred::Cmp(op, a, b) => match (term_value(a, v), term_value(b, v)) {
            (Some(x), Some(y)) => match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            },
            // Terms outside the single-value fragment: conservatively true.
            _ => true,
        },
        InvPred::IsHeapLoc(_) => true,
        InvPred::And(a, b) => eval_inv(a, v) && eval_inv(b, v),
        InvPred::Or(a, b) => eval_inv(a, v) || eval_inv(b, v),
        InvPred::Implies(a, b) => !eval_inv(a, v) || eval_inv(b, v),
        InvPred::Not(a) => !eval_inv(a, v),
        InvPred::Forall(..) => true,
    }
}

fn term_value(t: &InvTerm, v: Value) -> Option<i64> {
    match t {
        InvTerm::Value(_) => Some(match v {
            Value::Int(x) => x,
            Value::Ptr(a) => a as i64,
        }),
        InvTerm::Int(k) => Some(*k),
        InvTerm::Null => Some(0),
        InvTerm::Location(_) | InvTerm::Var(_) | InvTerm::DerefVar(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::interp::{run_entry, InterpConfig, RuntimeError};
    use stq_cir::parse::parse_program;

    fn registry() -> Registry {
        Registry::builtins()
    }

    fn run_instrumented(src: &str, entry: &str, args: &[Value]) -> Result<(), RuntimeError> {
        let r = registry();
        let p = parse_program(src, &r.names()).expect("parse");
        let instrumented = instrument_program(&r, &p);
        let checker = InvariantChecker::new(&r);
        run_entry(
            &instrumented,
            entry,
            args,
            &checker,
            InterpConfig::default(),
        )
        .map(|_| ())
    }

    #[test]
    fn passing_cast_is_silent() {
        run_instrumented(
            "int f(int x) { int pos y = (int pos) x; return y; }",
            "f",
            &[Value::Int(5)],
        )
        .unwrap();
    }

    #[test]
    fn failing_cast_is_fatal() {
        let e = run_instrumented(
            "int f(int x) { int pos y = (int pos) x; return y; }",
            "f",
            &[Value::Int(-5)],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::CheckFailed { qual, .. }
            if qual.as_str() == "pos"));
    }

    #[test]
    fn lcm_cast_is_checked_at_runtime() {
        // The paper's lcm example: (int pos)(prod / d) is instrumented;
        // for positive inputs the check passes.
        let src = "
            int pos gcd(int pos n, int pos m) {
                while (m != 0) { int pos t = (int pos) m; m = n % m; n = t; }
                return (int pos) n;
            }
            int pos lcm(int pos a, int pos b) {
                int pos d = gcd(a, b);
                int pos prod = a * b;
                return (int pos) (prod / d);
            }";
        run_instrumented(src, "lcm", &[Value::Int(4), Value::Int(6)]).unwrap();
    }

    #[test]
    fn nonnull_cast_fails_on_null() {
        let e = run_instrumented(
            "int f() {
                int* p = NULL;
                int* nonnull q = (int* nonnull) p;
                return 0;
            }",
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::CheckFailed { qual, .. }
            if qual.as_str() == "nonnull"));
    }

    #[test]
    fn untainted_cast_has_no_check() {
        // untainted has no invariant: the cast is not instrumented, so
        // any value passes (flow soundness comes from subtyping alone).
        run_instrumented(
            "int f(char* buf) {
                char* untainted fmt = (char* untainted) buf;
                return 0;
            }",
            "f",
            &[Value::Ptr(0)],
        )
        .unwrap();
    }

    #[test]
    fn ref_qualifier_casts_are_unchecked() {
        run_instrumented(
            "int f() {
                int* q = NULL;
                int* unique p = (int* unique) q;
                return 0;
            }",
            "f",
            &[],
        )
        .unwrap();
    }

    #[test]
    fn while_condition_checks_each_iteration() {
        // The cast in the while condition is re-checked per iteration; it
        // fails once x drops to 0.
        let e = run_instrumented(
            "int f(int x) {
                while ((int pos) x > 1) { x = x - 1; }
                return x;
            }",
            "f",
            &[Value::Int(3)],
        );
        // x: 3 → 2 → 1; after x = 1 the end-of-body check sees 1 (> 0),
        // passes; loop exits via the condition. No failure.
        e.unwrap();
        let e2 = run_instrumented(
            "int f(int x) {
                while ((int pos) x > 0) { x = x - 1; }
                return x;
            }",
            "f",
            &[Value::Int(2)],
        )
        .unwrap_err();
        assert!(matches!(e2, RuntimeError::CheckFailed { .. }));
    }

    fn run_observed(src: &str, entry: &str, args: &[Value]) -> Result<usize, RuntimeError> {
        let r = registry();
        let p = parse_program(src, &r.names()).expect("parse");
        let observed = observe_program(&r, &p);
        let checker = InvariantChecker::new(&r);
        run_entry(&observed, entry, args, &checker, InterpConfig::default())
            .map(|out| out.checks_passed)
    }

    #[test]
    fn observation_covers_decls_params_sets_and_returns() {
        let n = run_observed(
            "int pos bump(int pos x) {
                 int pos y = x + 1;
                 y = y * 2;
                 return y;
             }",
            "bump",
            &[Value::Int(3)],
        )
        .unwrap();
        // Entry check on x, post-init on y, post-assignment on y,
        // pre-return on the returned expression.
        assert_eq!(n, 4);
    }

    #[test]
    fn observation_catches_a_dynamically_violated_invariant() {
        // Not statically clean (plain x flows into pos y) — the point is
        // that the observer *sees* the violation the checker reported.
        let e = run_observed(
            "int f(int x) { int pos y = x; return y; }",
            "f",
            &[Value::Int(0)],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::CheckFailed { qual, .. }
            if qual.as_str() == "pos"));
    }

    #[test]
    fn observation_skips_uninitialized_declarations() {
        // `int pos y;` reads as 0 until assigned; the flow-insensitive
        // system claims nothing about it, so no observation fires.
        let n = run_observed("int f() { int pos y; return 0; }", "f", &[]).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn observation_respects_block_scoping() {
        // The inner unqualified `v` shadows nothing qualified; the outer
        // qualified `v` is observed on both stores.
        let n = run_observed(
            "int f() {
                 int pos v = 1;
                 { int v2 = 0; v2 = v2 + 1; }
                 v = v + 1;
                 return v;
             }",
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn invariant_checker_decides_builtin_invariants() {
        let r = registry();
        let c = InvariantChecker::new(&r);
        let pos = Symbol::intern("pos");
        let neg = Symbol::intern("neg");
        let nonzero = Symbol::intern("nonzero");
        let nonnull = Symbol::intern("nonnull");
        assert!(c.holds(pos, Value::Int(1)));
        assert!(!c.holds(pos, Value::Int(0)));
        assert!(c.holds(neg, Value::Int(-1)));
        assert!(!c.holds(neg, Value::Int(1)));
        assert!(c.holds(nonzero, Value::Int(-5)));
        assert!(!c.holds(nonzero, Value::Int(0)));
        assert!(c.holds(nonnull, Value::Ptr(44)));
        assert!(!c.holds(nonnull, Value::Ptr(0)));
        // No invariant → always true.
        assert!(c.holds(Symbol::intern("untainted"), Value::Ptr(0)));
    }
}
