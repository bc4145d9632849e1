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
//! (subject, qualifier) pair yields `false`. A query descends to a
//! strictly smaller expression except through `Var` patterns, which
//! re-query the subject itself; pattern bindings are the ids of the
//! queried nodes, so such a re-query names the same node, and the cycle
//! guard recognises it by its id. Nothing is memoized: every query is
//! computed.

use crate::env::{StaticTy, Subject, TypeEnv};
use std::borrow::Cow;
use stq_cir::ast::*;
use stq_qualspec::{Classifier, Clause, CmpOp, PTerm, Pattern, Pred, TypePat};
use stq_util::Symbol;

/// Pattern-variable bindings produced by a successful match: the
/// subject each variable binds. An `&L` pattern binds `L` as the read
/// of the l-value. A pattern binds at most two variables (`X bop Y`), so
/// they are held inline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Bindings {
    slots: [Option<(Symbol, Subject)>; 2],
}

impl Bindings {
    fn push(&mut self, var: Symbol, bound: Subject) {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("a pattern binds at most two variables");
        *slot = Some((var, bound));
    }

    /// The subject bound to `var`, if the pattern binds it.
    pub fn get(&self, var: Symbol) -> Option<Subject> {
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
    /// The (subject, qualifier) queries on the derivation stack.
    in_progress: Vec<(Subject, Symbol)>,
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

    fn arena(&self) -> &'a Arena {
        let env: &'a TypeEnv<'a> = self.env;
        &env.program.arena
    }

    /// Whether the expression `e` can be given qualifier `qual`.
    pub fn has_qual(&mut self, e: ExprId, qual: Symbol) -> bool {
        self.query(Subject::Expr(e), qual)
    }

    /// Whether `s` can be given qualifier `qual`.
    fn query(&mut self, s: Subject, qual: Symbol) -> bool {
        let key = (s, qual);
        if self.in_progress.contains(&key) {
            // Cyclic dependency: least fixed point says no.
            return false;
        }
        self.memo_misses += 1;
        let ty = self.env.subject_type(s);
        // 1. The static type already carries the qualifier (declared
        //    variables and fields; cast assertions). This answer makes
        //    no sub-query, so the query need not go on the stack.
        if ty.known().is_some_and(|t| t.has_qual(qual)) {
            return true;
        }
        self.in_progress.push(key);
        let result = self.derive(s, &ty, qual);
        self.in_progress.pop();
        result
    }

    /// Whether `s`, whose static type `ty` does not carry `qual`, gets
    /// it anyway: through a cast, or by one of `qual`'s `case` rules.
    fn derive(&mut self, s: Subject, ty: &StaticTy<'_>, qual: Symbol) -> bool {
        let env = self.env;
        // 2. Casts do not erase qualifier knowledge of the inner
        //    expression for checking purposes.
        if let Subject::Expr(e) = s {
            if let ExprKind::Cast(_, inner) = self.arena()[e].kind {
                return self.has_qual(inner, qual);
            }
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
            if let Some(bindings) = self.match_clause(clause, s) {
                if self.eval_guard(&clause.guard, &bindings) {
                    self.case_applications += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Matches one clause's pattern against a subject; `Some` with
    /// bindings if the shape, classifiers, and type patterns all accept.
    pub fn match_clause(&mut self, clause: &Clause, s: Subject) -> Option<Bindings> {
        self.match_attempts += 1;
        let arena = self.arena();
        let mut bindings = Bindings::default();
        match (&clause.pattern, s) {
            (Pattern::Var(x), _) => {
                self.bind_expr(clause, *x, s, &mut bindings)?;
            }
            (Pattern::Deref(x), _) => match arena[s.read_of(arena)?].kind {
                LvalKind::Deref(inner) => {
                    self.bind_expr(clause, *x, Subject::Expr(inner), &mut bindings)?;
                }
                _ => return None,
            },
            (Pattern::AddrOf(x), Subject::Expr(e)) => match arena[e].kind {
                ExprKind::AddrOf(lv) => self.bind_lval(clause, *x, lv, &mut bindings)?,
                _ => return None,
            },
            (Pattern::Unop(op, x), Subject::Expr(e)) => match arena[e].kind {
                ExprKind::Unop(eop, inner) if *op == eop => {
                    self.bind_expr(clause, *x, Subject::Expr(inner), &mut bindings)?;
                }
                _ => return None,
            },
            (Pattern::Binop(op, x, y), Subject::Expr(e)) => match arena[e].kind {
                ExprKind::Binop(eop, a, b) if *op == eop => {
                    self.bind_expr(clause, *x, Subject::Expr(a), &mut bindings)?;
                    self.bind_expr(clause, *y, Subject::Expr(b), &mut bindings)?;
                }
                _ => return None,
            },
            // `new` only matches allocation instructions, which are not
            // expressions; a read matches only `X` and `*X`.
            _ => return None,
        }
        Some(bindings)
    }

    fn bind_expr(
        &self,
        clause: &Clause,
        var: Symbol,
        s: Subject,
        bindings: &mut Bindings,
    ) -> Option<()> {
        let decl = clause.decl(var)?;
        let arena = self.arena();
        let stripped = s.strip_casts(arena);
        match decl.classifier {
            Classifier::Expr => {}
            Classifier::Const => {
                if !matches!(stripped, Subject::Expr(e) if matches!(
                    arena[e].kind,
                    ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null
                )) {
                    return None;
                }
            }
            Classifier::LValue => {
                stripped.read_of(arena)?;
            }
            Classifier::Var => {
                arena.as_var(stripped.read_of(arena)?)?;
            }
        }
        if !type_pat_accepts(&decl.ty, &self.env.subject_type(s)) {
            return None;
        }
        bindings.push(var, s);
        Some(())
    }

    fn bind_lval(
        &self,
        clause: &Clause,
        var: Symbol,
        lv: LvalId,
        bindings: &mut Bindings,
    ) -> Option<()> {
        let decl = clause.decl(var)?;
        match decl.classifier {
            Classifier::LValue => {}
            Classifier::Var => {
                self.arena().as_var(lv)?;
            }
            // Expression and constant classifiers never bind l-values.
            Classifier::Expr | Classifier::Const => return None,
        }
        if !type_pat_accepts(&decl.ty, &self.env.lval_decl_type(lv)) {
            return None;
        }
        bindings.push(var, Subject::Read(lv));
        Some(())
    }

    /// Evaluates a clause guard under bindings.
    pub fn eval_guard(&mut self, guard: &Pred, bindings: &Bindings) -> bool {
        match guard {
            Pred::True => true,
            Pred::And(a, b) => self.eval_guard(a, bindings) && self.eval_guard(b, bindings),
            Pred::Or(a, b) => self.eval_guard(a, bindings) || self.eval_guard(b, bindings),
            Pred::Cmp(op, a, b) => {
                let arena = self.arena();
                let (Some(va), Some(vb)) = (
                    const_value(arena, a, bindings),
                    const_value(arena, b, bindings),
                ) else {
                    return false;
                };
                compare(*op, va, vb)
            }
            Pred::QualCheck(q, x) => match bindings.get(*x) {
                Some(s) => self.query(s, *q),
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

fn const_value(arena: &Arena, t: &PTerm, bindings: &Bindings) -> Option<ConstVal> {
    match t {
        PTerm::Int(v) => Some(ConstVal::Int(*v)),
        PTerm::Null => Some(ConstVal::Int(0)),
        PTerm::Var(x) => match bindings.get(*x)?.strip_casts(arena) {
            Subject::Expr(e) => match arena[e].kind {
                ExprKind::IntLit(v) => Some(ConstVal::Int(v)),
                ExprKind::Null => Some(ConstVal::Int(0)),
                ExprKind::StrLit(_) => Some(ConstVal::Str),
                _ => None,
            },
            Subject::Read(_) => None,
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
    use stq_util::Span;

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
        let (mut p, r) = setup("");
        let (three, zero, minus_two) = (p.arena.int(3), p.arena.int(0), p.arena.int(-2));
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(three, q("pos")));
        assert!(!inf.has_qual(zero, q("pos")));
        assert!(!inf.has_qual(minus_two, q("pos")));
    }

    #[test]
    fn declared_variable_has_its_qualifier() {
        let (mut p, r) = setup("int pos x;");
        let x = p.arena.var("x");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(x, q("pos")));
        assert!(!inf.has_qual(x, q("neg")));
    }

    #[test]
    fn product_of_pos_is_pos() {
        let (mut p, r) = setup("int pos a; int pos b; int c;");
        let (a, b, c) = (p.arena.var("a"), p.arena.var("b"), p.arena.var("c"));
        let ab = p.arena.binop(BinOp::Mul, a, b);
        let ac = p.arena.binop(BinOp::Mul, a, c);
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(ab, q("pos")));
        assert!(!inf.has_qual(ac, q("pos")));
        // Full product trees over `p0: pos` are `pos` at every depth;
        // the match attempts count each subtree's query once.
        fn tree(a: &mut Arena, depth: u32) -> ExprId {
            if depth == 0 {
                a.var("p0")
            } else {
                let (l, r) = (tree(a, depth - 1), tree(a, depth - 1));
                a.binop(BinOp::Mul, l, r)
            }
        }
        let (mut p, r) = setup("int pos p0;");
        let trees = [2, 4, 6, 8].map(|depth| (depth, tree(&mut p.arena, depth)));
        let env = TypeEnv::new(&p, &r);
        for ((depth, e), attempts) in trees.into_iter().zip([6, 30, 126, 510]) {
            let mut inf = Inference::new(&env);
            assert!(inf.has_qual(e, q("pos")), "depth {depth}");
            assert_eq!(inf.match_attempts, attempts, "depth {depth}");
        }
    }

    #[test]
    fn mutual_recursion_pos_neg() {
        let (mut p, r) = setup("int neg n; int pos x;");
        let a = &mut p.arena;
        let (n, x) = (a.var("n"), a.var("x"));
        let neg_n = a.unop(UnOp::Neg, n);
        let neg_x = a.unop(UnOp::Neg, x);
        let xn = a.binop(BinOp::Mul, x, n);
        // Nested negations of `x` alternate neg, pos, neg, … down a
        // 32-deep chain.
        let mut chain = vec![a.var("x")];
        for _ in 1..=32 {
            let last = *chain.last().expect("starts non-empty");
            chain.push(a.unop(UnOp::Neg, last));
        }
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        // -n where n:neg is pos (third case of pos).
        assert!(inf.has_qual(neg_n, q("pos")));
        // -x where x:pos is neg.
        assert!(inf.has_qual(neg_x, q("neg")));
        // pos * neg is neg.
        assert!(inf.has_qual(xn, q("neg")));
        assert!(!inf.has_qual(xn, q("pos")));
        for (depth, &e) in chain.iter().enumerate().skip(1) {
            let (is, is_not) = if depth % 2 == 0 {
                ("pos", "neg")
            } else {
                ("neg", "pos")
            };
            let mut inf = Inference::new(&env);
            assert!(inf.has_qual(e, q(is)), "depth {depth}");
            assert!(!inf.has_qual(e, q(is_not)), "depth {depth}");
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
        let mut p = parse_program("int x;", &r.names()).unwrap();
        let x = p.arena.var("x");
        let neg = p.arena.unop(UnOp::Neg, x);
        let e = p.arena.unop(UnOp::Neg, neg);
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(!inf.has_qual(e, q("selfq")));
    }

    #[test]
    fn pos_implies_nonzero_via_case() {
        let (mut p, r) = setup("int pos d;");
        let d = p.arena.var("d");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(d, q("nonzero")));
    }

    #[test]
    fn address_of_is_nonnull() {
        let (mut p, r) = setup("int x;");
        let x = p.arena.lvar("x");
        let e = p.arena.addr_of(x);
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(e, q("nonnull")));
    }

    #[test]
    fn null_is_not_nonnull() {
        let (mut p, r) = setup("");
        let null = p.arena.null();
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(!inf.has_qual(null, q("nonnull")));
    }

    #[test]
    fn subject_type_gates_applicability() {
        // pos applies to int expressions only; a pointer variable cannot
        // be pos even via a bogus case clause.
        let (mut p, r) = setup("int* ptr;");
        let ptr = p.arena.var("ptr");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(!inf.has_qual(ptr, q("pos")));
        // nonnull applies to pointers only.
        let (mut p2, r2) = setup("int i;");
        let i = p2.arena.var("i");
        let env2 = TypeEnv::new(&p2, &r2);
        let mut inf2 = Inference::new(&env2);
        assert!(!inf2.has_qual(i, q("nonnull")));
    }

    #[test]
    fn cast_asserts_qualifier() {
        let (mut p, r) = setup("int y;");
        let y = p.arena.var("y");
        let e = p.arena.cast(y, QualType::int().with_qual("pos"));
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(e, q("pos")));
    }

    #[test]
    fn cast_does_not_erase_inner_knowledge() {
        let (mut p, r) = setup("int pos x;");
        let x = p.arena.var("x");
        let e = p.arena.cast(x, QualType::int());
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(e, q("pos")));
    }

    #[test]
    fn constants_are_untainted() {
        let (mut p, r) = setup("");
        let s = p.arena.add_expr(ExprKind::StrLit("%s".into()), Span::DUMMY);
        let seven = p.arena.int(7);
        let unknown = p.arena.var("unknown");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(s, q("untainted")));
        assert!(inf.has_qual(seven, q("untainted")));
        assert!(!inf.has_qual(unknown, q("untainted")));
    }

    #[test]
    fn everything_is_tainted() {
        let (mut p, r) = setup("char* buf;");
        let buf = p.arena.var("buf");
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(buf, q("tainted")));
    }

    #[test]
    fn guard_disjunction() {
        let (mut p, r) = setup("int pos a; int neg b;");
        let (a, b) = (p.arena.var("a"), p.arena.var("b"));
        // neg's product rule: (pos && neg) || (neg && pos).
        let ab = p.arena.binop(BinOp::Mul, a, b);
        let ba = p.arena.binop(BinOp::Mul, b, a);
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(ab, q("neg")));
        assert!(inf.has_qual(ba, q("neg")));
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
        let mut p = parse_program("", &r.names()).unwrap();
        let s = p
            .arena
            .add_expr(ExprKind::StrLit("hello".into()), Span::DUMMY);
        let null = p.arena.null();
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(s, Symbol::intern("strq")));
        assert!(!inf.has_qual(null, Symbol::intern("strq")));
    }

    #[test]
    fn deref_pattern_matches() {
        // nonnull's restrict pattern is *F; exercise clause matching
        // directly, on an expression node and on a store target's read.
        let (mut p, r) = setup("int* nonnull np;");
        let np = p.arena.var("np");
        let star_np = p.arena.deref(np);
        let deref = p.arena.read(star_np);
        let env = TypeEnv::new(&p, &r);
        let mut inf = Inference::new(&env);
        let def = r.get_by_name("nonnull").unwrap();
        let restrict = &def.restricts[0];
        for subject in [Subject::Expr(deref), Subject::Read(star_np)] {
            let bindings = inf.match_clause(restrict, subject).expect("must match");
            assert_eq!(bindings.get(q("F")), Some(Subject::Expr(np)));
            assert!(inf.eval_guard(&restrict.guard, &bindings));
        }
    }
}
