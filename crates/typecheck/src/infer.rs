//! Qualifier inference: deciding whether an expression can be given a
//! qualified type, by the paper's `case` introduction rules (§2.1.1).
//!
//! An expression has qualifier `q` if
//!
//! * its static type already carries `q` (declared variables, cast
//!   assertions), or
//! * some `case` clause of `q` matches it: the clause's pattern matches
//!   the expression's shape, the pattern variables' classifiers and type
//!   patterns accept the matched fragments, and the `where` predicate —
//!   which may recursively check qualifiers on subexpressions — holds.
//!
//! Qualifier definitions may be mutually recursive (`pos`/`neg`), so
//! inference computes a least fixed point: a cyclic re-query of the same
//! (expression node, qualifier) pair yields `false`. A query descends to
//! a strictly smaller expression except through `Var` patterns, which
//! re-query the node itself; pattern bindings borrow their fragments
//! from the queried expression, so such a re-query sees the same node,
//! and the cycle guard recognises it by identity. Nothing is memoized:
//! every query is computed.

use crate::env::{StaticTy, TypeEnv};
use std::borrow::Cow;
use stq_cir::ast::*;
use stq_qualspec::{Classifier, Clause, CmpOp, PTerm, Pattern, Pred, TypePat};
use stq_util::Symbol;

/// A program fragment bound to a pattern variable, borrowed from the
/// queried expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound<'e> {
    /// An expression fragment.
    Expr(&'e Expr),
    /// An l-value fragment (`&L` patterns).
    Lval(&'e Lvalue),
}

/// Pattern-variable bindings produced by a successful match. A pattern
/// binds at most two variables (`X bop Y`), so they are held inline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bindings<'e> {
    slots: [Option<(Symbol, Bound<'e>)>; 2],
}

impl<'e> Bindings<'e> {
    fn push(&mut self, var: Symbol, bound: Bound<'e>) {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("a pattern binds at most two variables");
        *slot = Some((var, bound));
    }

    /// The fragment bound to `var`, if the pattern binds it.
    pub fn get(&self, var: Symbol) -> Option<Bound<'e>> {
        self.slots
            .iter()
            .flatten()
            .find(|(v, _)| *v == var)
            .map(|&(_, b)| b)
    }
}

/// The qualifier-inference engine. Holds the cycle-detection state for
/// one root query (or one checking pass — the derivation stack empties
/// itself between root queries).
pub struct Inference<'a> {
    env: &'a TypeEnv<'a>,
    /// The (expression node, qualifier) queries on the derivation stack.
    /// A node is borrowed, so alive at a fixed address, while it is on
    /// the stack; its address identifies it.
    in_progress: Vec<(*const Expr, Symbol)>,
    /// Number of case-clause match attempts (for benchmarks).
    pub match_attempts: u64,
    /// Case clauses that actually fired (pattern matched and the
    /// `where` guard held).
    pub case_applications: u64,
    /// Queries computed: every query but a cycle cut-off (reported as
    /// `CheckStats::memo_misses`).
    pub memo_misses: u64,
}

impl<'a> Inference<'a> {
    /// Creates an engine over an environment.
    pub fn new(env: &'a TypeEnv<'a>) -> Inference<'a> {
        Inference {
            env,
            in_progress: Vec::new(),
            match_attempts: 0,
            case_applications: 0,
            memo_misses: 0,
        }
    }

    /// Whether `e` can be given qualifier `qual`.
    pub fn has_qual(&mut self, e: &Expr, qual: Symbol) -> bool {
        let key = (e as *const Expr, qual);
        if self.in_progress.contains(&key) {
            // Cyclic dependency: least fixed point says no.
            return false;
        }
        self.memo_misses += 1;
        let ty = self.env.expr_type(e);
        // 1. The static type already carries the qualifier (declared
        //    variables and fields; cast assertions). This answer makes
        //    no sub-query, so the query need not go on the stack.
        if ty.known().is_some_and(|t| t.has_qual(qual)) {
            return true;
        }
        self.in_progress.push(key);
        let result = self.derive(e, &ty, qual);
        self.in_progress.pop();
        result
    }

    /// Whether `e`, whose static type `ty` does not carry `qual`, gets
    /// it anyway: through a cast, or by one of `qual`'s `case` rules.
    fn derive(&mut self, e: &Expr, ty: &StaticTy<'_>, qual: Symbol) -> bool {
        let env = self.env;
        // 2. Casts do not erase qualifier knowledge of the inner
        //    expression for checking purposes.
        if let ExprKind::Cast(_, inner) = &e.kind {
            return self.has_qual(inner, qual);
        }
        // 3. Case rules.
        let Some(def) = env.registry.get(qual) else {
            return false;
        };
        // The subject's type pattern gates applicability (pos only
        // applies to int expressions, nonnull only to pointers).
        if !type_pat_accepts(&def.subject.ty, ty) {
            return false;
        }
        for clause in &def.cases {
            if let Some(bindings) = self.match_clause(clause, e) {
                if self.eval_guard(&clause.guard, &bindings) {
                    self.case_applications += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Matches one clause's pattern against an expression; `Some` with
    /// bindings if the shape, classifiers, and type patterns all accept.
    pub fn match_clause<'e>(&mut self, clause: &Clause, e: &'e Expr) -> Option<Bindings<'e>> {
        self.match_attempts += 1;
        let mut bindings = Bindings::default();
        match (&clause.pattern, &e.kind) {
            (Pattern::Var(x), _) => {
                self.bind_expr(clause, *x, e, &mut bindings)?;
            }
            (Pattern::Deref(x), ExprKind::Lval(lv)) => match &lv.kind {
                LvalKind::Deref(inner) => {
                    self.bind_expr(clause, *x, inner, &mut bindings)?;
                }
                _ => return None,
            },
            (Pattern::AddrOf(x), ExprKind::AddrOf(lv)) => {
                self.bind_lval(clause, *x, lv, &mut bindings)?;
            }
            (Pattern::Unop(op, x), ExprKind::Unop(eop, inner)) if op == eop => {
                self.bind_expr(clause, *x, inner, &mut bindings)?;
            }
            (Pattern::Binop(op, x, y), ExprKind::Binop(eop, a, b)) if op == eop => {
                self.bind_expr(clause, *x, a, &mut bindings)?;
                self.bind_expr(clause, *y, b, &mut bindings)?;
            }
            // `new` only matches allocation instructions, which are not
            // expressions.
            _ => return None,
        }
        Some(bindings)
    }

    fn bind_expr<'e>(
        &self,
        clause: &Clause,
        var: Symbol,
        e: &'e Expr,
        bindings: &mut Bindings<'e>,
    ) -> Option<()> {
        let decl = clause.decl(var)?;
        let stripped = e.strip_casts();
        match decl.classifier {
            Classifier::Expr => {}
            Classifier::Const => {
                if !matches!(
                    stripped.kind,
                    ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null
                ) {
                    return None;
                }
            }
            Classifier::LValue => {
                e.as_lval()?;
            }
            Classifier::Var => match e.as_lval() {
                Some(lv) if lv.as_var().is_some() => {}
                _ => return None,
            },
        }
        if !type_pat_accepts(&decl.ty, &self.env.expr_type(e)) {
            return None;
        }
        bindings.push(var, Bound::Expr(e));
        Some(())
    }

    fn bind_lval<'e>(
        &self,
        clause: &Clause,
        var: Symbol,
        lv: &'e Lvalue,
        bindings: &mut Bindings<'e>,
    ) -> Option<()> {
        let decl = clause.decl(var)?;
        match decl.classifier {
            Classifier::LValue => {}
            Classifier::Var => {
                lv.as_var()?;
            }
            // Expression and constant classifiers never bind l-values.
            Classifier::Expr | Classifier::Const => return None,
        }
        if !type_pat_accepts(&decl.ty, &self.env.lval_decl_type(lv)) {
            return None;
        }
        bindings.push(var, Bound::Lval(lv));
        Some(())
    }

    /// Evaluates a clause guard under bindings.
    pub fn eval_guard(&mut self, guard: &Pred, bindings: &Bindings<'_>) -> bool {
        match guard {
            Pred::True => true,
            Pred::And(a, b) => self.eval_guard(a, bindings) && self.eval_guard(b, bindings),
            Pred::Or(a, b) => self.eval_guard(a, bindings) || self.eval_guard(b, bindings),
            Pred::Cmp(op, a, b) => {
                let (Some(va), Some(vb)) = (const_value(a, bindings), const_value(b, bindings))
                else {
                    return false;
                };
                compare(*op, va, vb)
            }
            Pred::QualCheck(q, x) => match bindings.get(*x) {
                Some(Bound::Expr(e)) => self.has_qual(e, *q),
                // An `&L` pattern's L is strictly smaller than the
                // queried node, so its expression form is a fresh node.
                Some(Bound::Lval(lv)) => self.has_qual(&Expr::lval(lv.clone()), *q),
                None => false,
            },
        }
    }
}

/// Whether a type pattern accepts a static type. Type variables match
/// anything; `Unknown` types are accepted permissively (the base type
/// error is reported elsewhere).
pub fn type_pat_accepts(pat: &TypePat, ty: &StaticTy<'_>) -> bool {
    match (pat, ty) {
        (_, StaticTy::Unknown) => true,
        (TypePat::Any(_), _) => true,
        (TypePat::Ptr(_), StaticTy::Null) => true,
        (TypePat::Int | TypePat::Char, StaticTy::Null) => false,
        (TypePat::Int, StaticTy::Known(t)) => matches!(t.ty, Ty::Base(BaseTy::Int)),
        (TypePat::Char, StaticTy::Known(t)) => matches!(t.ty, Ty::Base(BaseTy::Char)),
        (TypePat::Ptr(inner), StaticTy::Known(t)) => match t.pointee() {
            Some(p) => type_pat_accepts(inner, &StaticTy::Known(Cow::Borrowed(p))),
            None => false,
        },
    }
}

/// The constant value of a predicate term, if it denotes one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConstVal {
    Int(i64),
    Str,
}

fn const_value(t: &PTerm, bindings: &Bindings<'_>) -> Option<ConstVal> {
    match t {
        PTerm::Int(v) => Some(ConstVal::Int(*v)),
        PTerm::Null => Some(ConstVal::Int(0)),
        PTerm::Var(x) => match bindings.get(*x)? {
            Bound::Expr(e) => match &e.strip_casts().kind {
                ExprKind::IntLit(v) => Some(ConstVal::Int(*v)),
                ExprKind::Null => Some(ConstVal::Int(0)),
                ExprKind::StrLit(_) => Some(ConstVal::Str),
                _ => None,
            },
            Bound::Lval(_) => None,
        },
    }
}

fn compare(op: CmpOp, a: ConstVal, b: ConstVal) -> bool {
    match (a, b) {
        (ConstVal::Int(x), ConstVal::Int(y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        },
        // A string literal is a nonnull pointer: it differs from every
        // integer (in particular NULL = 0).
        (ConstVal::Str, ConstVal::Int(_)) | (ConstVal::Int(_), ConstVal::Str) => {
            matches!(op, CmpOp::Ne)
        }
        (ConstVal::Str, ConstVal::Str) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::parse::parse_program;
    use stq_qualspec::Registry;

    fn setup(src: &str) -> (Program, Registry) {
        let registry = Registry::builtins();
        let program = parse_program(src, &registry.names()).expect("parse");
        (program, registry)
    }

    fn q(name: &str) -> Symbol {
        Symbol::intern(name)
    }

    #[test]
    fn positive_constant_is_pos() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(&Expr::int(3), q("pos")));
        assert!(!inf.has_qual(&Expr::int(0), q("pos")));
        assert!(!inf.has_qual(&Expr::int(-2), q("pos")));
    }

    #[test]
    fn declared_variable_has_its_qualifier() {
        let (p, r) = setup("int pos x;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(&Expr::var("x"), q("pos")));
        assert!(!inf.has_qual(&Expr::var("x"), q("neg")));
    }

    #[test]
    fn product_of_pos_is_pos() {
        let (p, r) = setup("int pos a; int pos b; int c;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let ab = Expr::binop(BinOp::Mul, Expr::var("a"), Expr::var("b"));
        assert!(inf.has_qual(&ab, q("pos")));
        let ac = Expr::binop(BinOp::Mul, Expr::var("a"), Expr::var("c"));
        assert!(!inf.has_qual(&ac, q("pos")));
        // Full product trees over `p0: pos` are `pos` at every depth;
        // the match attempts count each subtree's query once.
        fn tree(depth: u32) -> Expr {
            if depth == 0 {
                Expr::var("p0")
            } else {
                Expr::binop(BinOp::Mul, tree(depth - 1), tree(depth - 1))
            }
        }
        let (p, r) = setup("int pos p0;");
        let env = TypeEnv::new(&p, &r);
        for (depth, attempts) in [(2, 6), (4, 30), (6, 126), (8, 510)] {
            let mut inf = Inference::new(&env);
            assert!(inf.has_qual(&tree(depth), q("pos")), "depth {depth}");
            assert_eq!(inf.match_attempts, attempts, "depth {depth}");
        }
    }

    #[test]
    fn mutual_recursion_pos_neg() {
        let (p, r) = setup("int neg n; int pos x;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        // -n where n:neg is pos (third case of pos).
        let neg_n = Expr::unop(UnOp::Neg, Expr::var("n"));
        assert!(inf.has_qual(&neg_n, q("pos")));
        // -x where x:pos is neg.
        let neg_x = Expr::unop(UnOp::Neg, Expr::var("x"));
        assert!(inf.has_qual(&neg_x, q("neg")));
        // pos * neg is neg.
        let xn = Expr::binop(BinOp::Mul, Expr::var("x"), Expr::var("n"));
        assert!(inf.has_qual(&xn, q("neg")));
        assert!(!inf.has_qual(&xn, q("pos")));
        // Nested negations of `x` alternate neg, pos, neg, … down a
        // 32-deep chain.
        let mut chain = Expr::var("x");
        for depth in 1..=32 {
            chain = Expr::unop(UnOp::Neg, chain);
            let (is, is_not) = if depth % 2 == 0 {
                ("pos", "neg")
            } else {
                ("neg", "pos")
            };
            let mut inf = Inference::new(&env);
            assert!(inf.has_qual(&chain, q(is)), "depth {depth}");
            assert!(!inf.has_qual(&chain, q(is_not)), "depth {depth}");
        }
    }

    #[test]
    fn cycle_terminates_and_is_false() {
        // A qualifier defined only in terms of itself can never be
        // introduced: the least fixed point is empty.
        let mut r = Registry::new();
        r.add_source(
            "value qualifier selfq(int Expr E)
                case E of
                    decl int Expr E1: -E1, where selfq(E1)",
        )
        .unwrap();
        let p = parse_program("int x;", &r.names()).unwrap();
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let e = Expr::unop(UnOp::Neg, Expr::unop(UnOp::Neg, Expr::var("x")));
        assert!(!inf.has_qual(&e, q("selfq")));
    }

    #[test]
    fn pos_implies_nonzero_via_case() {
        let (p, r) = setup("int pos d;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(&Expr::var("d"), q("nonzero")));
    }

    #[test]
    fn address_of_is_nonnull() {
        let (p, r) = setup("int x;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let e = Expr::addr_of(Lvalue::var("x"));
        assert!(inf.has_qual(&e, q("nonnull")));
    }

    #[test]
    fn null_is_not_nonnull() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(!inf.has_qual(&Expr::null(), q("nonnull")));
    }

    #[test]
    fn subject_type_gates_applicability() {
        // pos applies to int expressions only; a pointer variable cannot
        // be pos even via a bogus case clause.
        let (p, r) = setup("int* ptr;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(!inf.has_qual(&Expr::var("ptr"), q("pos")));
        // nonnull applies to pointers only.
        let (p2, r2) = setup("int i;");
        let env2 = TypeEnv::new(&p2, &r2);
        let mut inf2 = Inference::new(&env2);
        assert!(!inf2.has_qual(&Expr::var("i"), q("nonnull")));
    }

    #[test]
    fn cast_asserts_qualifier() {
        let (p, r) = setup("int y;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let e = Expr::var("y").cast(QualType::int().with_qual("pos"));
        assert!(inf.has_qual(&e, q("pos")));
    }

    #[test]
    fn cast_does_not_erase_inner_knowledge() {
        let (p, r) = setup("int pos x;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let e = Expr::var("x").cast(QualType::int());
        assert!(inf.has_qual(&e, q("pos")));
    }

    #[test]
    fn constants_are_untainted() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let s = Expr::new(ExprKind::StrLit("%s".into()));
        assert!(inf.has_qual(&s, q("untainted")));
        assert!(inf.has_qual(&Expr::int(7), q("untainted")));
        assert!(!inf.has_qual(&Expr::var("unknown"), q("untainted")));
    }

    #[test]
    fn everything_is_tainted() {
        let (p, r) = setup("char* buf;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(&Expr::var("buf"), q("tainted")));
    }

    #[test]
    fn guard_disjunction() {
        let (p, r) = setup("int pos a; int neg b;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        // neg's product rule: (pos && neg) || (neg && pos).
        let ab = Expr::binop(BinOp::Mul, Expr::var("a"), Expr::var("b"));
        let ba = Expr::binop(BinOp::Mul, Expr::var("b"), Expr::var("a"));
        assert!(inf.has_qual(&ab, q("neg")));
        assert!(inf.has_qual(&ba, q("neg")));
    }

    #[test]
    fn string_literal_is_not_null() {
        // Guard `C != 0` should hold for string constants (used when
        // untainted's constant rule meets comparisons).
        let mut r = Registry::new();
        r.add_source(
            "value qualifier strq(T Expr E)
                case E of
                    decl T Const C: C, where C != NULL",
        )
        .unwrap();
        let p = parse_program("", &r.names()).unwrap();
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let s = Expr::new(ExprKind::StrLit("hello".into()));
        assert!(inf.has_qual(&s, Symbol::intern("strq")));
        assert!(!inf.has_qual(&Expr::null(), Symbol::intern("strq")));
    }

    #[test]
    fn deref_pattern_matches() {
        // nonnull's restrict pattern is *F; exercise clause matching
        // directly.
        let (p, r) = setup("int* nonnull np;");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let def = r.get_by_name("nonnull").unwrap();
        let restrict = &def.restricts[0];
        let np = Expr::var("np");
        let deref = Expr::lval(Lvalue::deref(np.clone()));
        let bindings = inf.match_clause(restrict, &deref).expect("must match");
        assert_eq!(bindings.get(q("F")), Some(Bound::Expr(&np)));
        assert!(inf.eval_guard(&restrict.guard, &bindings));
    }
}
