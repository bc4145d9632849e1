//! Static type environment: declared types of variables, fields, and
//! functions, and shape-level typing of expressions.
//!
//! The qualifier checker is layered over a light "base" type system (the
//! paper relies on gcc for ordinary C typechecking): we compute enough
//! shape information to drive qualifier rules — in particular the paper's
//! **logical model of memory**, under which `p + i` has the same type as
//! `p` (§3.3), and the **r-type** rule that strips top-level reference
//! qualifiers when an l-value is read (§2.2.1).

use std::borrow::Cow;
use stq_cir::ast::*;
use stq_qualspec::{QualKind, Registry};
use stq_util::Symbol;

/// The static type of an expression, as far as the checker can tell.
///
/// A known type borrows from the program (a declared, parameter, field
/// or cast type) or from the environment (a flow-refined type) wherever
/// it can; a query owns its answer only where it builds a new type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StaticTy<'t> {
    /// A known qualified type.
    Known(Cow<'t, QualType>),
    /// The `NULL` literal: assignable to any pointer type.
    Null,
    /// Unknown (an error was already reported, or the construct is
    /// outside the base type system's reach).
    Unknown,
}

impl StaticTy<'_> {
    /// The known type, if any.
    pub fn known(&self) -> Option<&QualType> {
        match self {
            StaticTy::Known(t) => Some(t),
            _ => None,
        }
    }
}

/// Lexically scoped variable environment over a program.
pub struct TypeEnv<'a> {
    /// The program being checked (signatures, structs, globals).
    pub program: &'a Program,
    /// The qualifier registry (to classify value vs. reference quals).
    pub registry: &'a Registry,
    /// Every variable in scope, innermost declaration last.
    vars: Vec<(Symbol, Cow<'a, QualType>)>,
    /// Where each open scope begins in `vars`.
    scope_starts: Vec<usize>,
}

impl<'a> TypeEnv<'a> {
    /// Creates an environment with one (function-level) scope.
    pub fn new(program: &'a Program, registry: &'a Registry) -> TypeEnv<'a> {
        TypeEnv {
            program,
            registry,
            vars: Vec::new(),
            scope_starts: vec![0],
        }
    }

    /// Enters a nested block scope.
    pub fn push_scope(&mut self) {
        self.scope_starts.push(self.vars.len());
    }

    /// Leaves the innermost scope.
    pub fn pop_scope(&mut self) {
        let start = self
            .scope_starts
            .pop()
            .expect("environment always has a scope");
        self.vars.truncate(start);
    }

    /// Declares a variable in the innermost scope: a type borrowed from
    /// the program, or an owned one built by the checker.
    pub fn declare(&mut self, name: Symbol, ty: Cow<'a, QualType>) {
        self.vars.push((name, ty));
    }

    /// The declared type of a variable in scope, innermost first; `None`
    /// for a global or an unbound name.
    pub(crate) fn lookup_local(&self, name: Symbol) -> Option<&QualType> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, ty)| &**ty)
    }

    /// The declared type of a variable (innermost scope first, then
    /// globals).
    pub fn lookup(&self, name: Symbol) -> Option<&QualType> {
        self.lookup_local(name)
            .or_else(|| self.program.global(name).map(|g| &g.ty))
    }

    /// Whether `q` is a registered reference qualifier. Unregistered
    /// qualifiers count as value qualifiers; the checker reports them
    /// separately.
    fn is_ref_qual(&self, q: Symbol) -> bool {
        self.registry
            .get(q)
            .is_some_and(|d| d.kind == QualKind::Ref)
    }

    /// A type's top-level value qualifiers.
    pub(crate) fn value_quals<'t>(&'t self, ty: &'t QualType) -> impl Iterator<Item = Symbol> + 't {
        ty.quals.iter().copied().filter(|&q| !self.is_ref_qual(q))
    }

    /// A type's top-level reference qualifiers.
    pub(crate) fn ref_quals<'t>(&'t self, ty: &'t QualType) -> impl Iterator<Item = Symbol> + 't {
        ty.quals.iter().copied().filter(|&q| self.is_ref_qual(q))
    }

    /// The *r-type* of an l-value: its declared type with top-level
    /// reference qualifiers stripped (paper §2.2.1). Returns the full
    /// declared type via `lval_decl_type` when the distinction matters.
    pub fn lval_rtype<'s>(&'s self, lv: &'s Lvalue) -> StaticTy<'s> {
        match self.lval_decl_type(lv) {
            StaticTy::Known(ty) if self.ref_quals(&ty).next().is_some() => {
                let mut ty = ty.into_owned();
                ty.quals.retain(|&q| !self.is_ref_qual(q));
                StaticTy::Known(Cow::Owned(ty))
            }
            other => other,
        }
    }

    /// The declared type of an l-value, reference qualifiers included.
    pub fn lval_decl_type<'s>(&'s self, lv: &'s Lvalue) -> StaticTy<'s> {
        match &lv.kind {
            LvalKind::Var(name) => match self.lookup(*name) {
                Some(t) => StaticTy::Known(Cow::Borrowed(t)),
                None => StaticTy::Unknown,
            },
            LvalKind::Deref(e) => match self.expr_type(e) {
                StaticTy::Known(Cow::Borrowed(t)) => match t.pointee() {
                    Some(inner) => StaticTy::Known(Cow::Borrowed(inner)),
                    None => StaticTy::Unknown,
                },
                StaticTy::Known(Cow::Owned(t)) => match t.ty {
                    Ty::Ptr(inner) => StaticTy::Known(Cow::Owned(*inner)),
                    Ty::Base(_) => StaticTy::Unknown,
                },
                _ => StaticTy::Unknown,
            },
            LvalKind::Field(inner, f) => match self.lval_decl_type(inner) {
                StaticTy::Known(t) => match &t.ty {
                    Ty::Base(BaseTy::Struct(tag)) => self
                        .program
                        .struct_def(*tag)
                        .and_then(|s| s.fields.iter().find(|(n, _)| n == f))
                        .map_or(StaticTy::Unknown, |(_, t)| {
                            StaticTy::Known(Cow::Borrowed(t))
                        }),
                    _ => StaticTy::Unknown,
                },
                other => other,
            },
        }
    }

    /// The static type of an expression.
    pub fn expr_type<'s>(&'s self, e: &'s Expr) -> StaticTy<'s> {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::SizeOf(_) => {
                StaticTy::Known(Cow::Owned(QualType::int()))
            }
            ExprKind::StrLit(_) => StaticTy::Known(Cow::Owned(QualType::char_ty().ptr_to())),
            ExprKind::Null => StaticTy::Null,
            ExprKind::Lval(lv) => self.lval_rtype(lv),
            // The pointee of `&lv` is lv's r-type: reference qualifiers
            // pertain to the l-value itself, not to what a pointer to it
            // carries (their protection is the disallow rule instead).
            ExprKind::AddrOf(lv) => match self.lval_rtype(lv) {
                StaticTy::Known(t) => StaticTy::Known(Cow::Owned(t.into_owned().ptr_to())),
                _ => StaticTy::Unknown,
            },
            ExprKind::Unop(_, _) => StaticTy::Known(Cow::Owned(QualType::int())),
            ExprKind::Binop(BinOp::Add | BinOp::Sub, a, _) => {
                // Logical memory model: *pointer* arithmetic preserves the
                // pointer's type (`p + i : typeof(p)`, §3.3). Integer
                // arithmetic yields plain int — qualifiers do not flow
                // through `+`/`-` unless a case rule derives them.
                match self.expr_type(a) {
                    StaticTy::Known(t) if t.is_ptr() => StaticTy::Known(t),
                    _ => StaticTy::Known(Cow::Owned(QualType::int())),
                }
            }
            ExprKind::Binop(..) => StaticTy::Known(Cow::Owned(QualType::int())),
            ExprKind::Cast(ty, _) => StaticTy::Known(Cow::Borrowed(ty)),
        }
    }

    /// Shape compatibility for assignments: identical shapes, `NULL` into
    /// any pointer, `void*` interchangeable with any pointer, and `int`
    /// interchangeable with `char` (both are integral in the subset).
    pub fn shapes_compatible(&self, target: &QualType, source: &StaticTy<'_>) -> bool {
        match source {
            StaticTy::Unknown => true, // already reported elsewhere
            StaticTy::Null => target.is_ptr(),
            StaticTy::Known(src) => shapes_match(target, src),
        }
    }
}

fn shapes_match(a: &QualType, b: &QualType) -> bool {
    match (&a.ty, &b.ty) {
        (Ty::Base(x), Ty::Base(y)) => {
            x == y
                || matches!(
                    (x, y),
                    (BaseTy::Int, BaseTy::Char) | (BaseTy::Char, BaseTy::Int)
                )
        }
        (Ty::Ptr(x), Ty::Ptr(y)) => {
            // void* is the wildcard pointer.
            matches!(x.ty, Ty::Base(BaseTy::Void))
                || matches!(y.ty, Ty::Base(BaseTy::Void))
                || shapes_match(x, y)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::parse::parse_program;

    fn setup(src: &str) -> (Program, Registry) {
        let registry = Registry::builtins();
        let p = parse_program(src, &registry.names()).expect("parse");
        (p, registry)
    }

    #[test]
    fn lookup_prefers_inner_scope() {
        let (p, r) = setup("int g;");
        let mut env = TypeEnv::new(&p, &r);
        assert_eq!(env.lookup(Symbol::intern("g")), Some(&QualType::int()));
        assert_eq!(env.lookup_local(Symbol::intern("g")), None);
        env.push_scope();
        env.declare(
            Symbol::intern("g"),
            Cow::Owned(QualType::int().with_qual("pos")),
        );
        assert!(env
            .lookup(Symbol::intern("g"))
            .unwrap()
            .has_qual(Symbol::intern("pos")));
        env.pop_scope();
        assert_eq!(env.lookup(Symbol::intern("g")), Some(&QualType::int()));
    }

    #[test]
    fn rtype_strips_reference_qualifiers_only() {
        let (p, r) = setup("int * unique u; int pos v;");
        let env = TypeEnv::new(&p, &r);
        let u = Lvalue::var("u");
        match env.lval_rtype(&u) {
            StaticTy::Known(t) => {
                assert!(!t.has_qual(Symbol::intern("unique")));
                assert!(t.is_ptr());
            }
            other => panic!("expected known, got {other:?}"),
        }
        let v = Lvalue::var("v");
        match env.lval_rtype(&v) {
            StaticTy::Known(t) => assert!(t.has_qual(Symbol::intern("pos"))),
            other => panic!("expected known, got {other:?}"),
        }
    }

    #[test]
    fn deref_types_through_pointers() {
        let (p, r) = setup("int pos * q;");
        let env = TypeEnv::new(&p, &r);
        let star_q = Lvalue::deref(Expr::var("q"));
        match env.lval_decl_type(&star_q) {
            StaticTy::Known(t) => assert!(t.has_qual(Symbol::intern("pos"))),
            other => panic!("expected known, got {other:?}"),
        }
    }

    #[test]
    fn field_types_resolve() {
        let (p, r) = setup(
            "struct dfa { int* nonnull trans; int works; };
             struct dfa* d;",
        );
        let env = TypeEnv::new(&p, &r);
        let trans = Lvalue::field(Lvalue::deref(Expr::var("d")), "trans");
        match env.lval_decl_type(&trans) {
            StaticTy::Known(t) => assert!(t.has_qual(Symbol::intern("nonnull"))),
            other => panic!("expected known, got {other:?}"),
        }
    }

    #[test]
    fn pointer_arithmetic_keeps_type() {
        let (p, r) = setup("int pos * a;");
        let env = TypeEnv::new(&p, &r);
        let e = Expr::binop(BinOp::Add, Expr::var("a"), Expr::int(3));
        match env.expr_type(&e) {
            StaticTy::Known(t) => {
                assert!(t.is_ptr());
                assert!(t.pointee().unwrap().has_qual(Symbol::intern("pos")));
            }
            other => panic!("expected known, got {other:?}"),
        }
    }

    #[test]
    fn null_is_pointer_compatible() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        assert!(env.shapes_compatible(&QualType::int().ptr_to(), &StaticTy::Null));
        assert!(!env.shapes_compatible(&QualType::int(), &StaticTy::Null));
    }

    #[test]
    fn void_pointer_is_wildcard() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        let void_ptr = QualType::void().ptr_to();
        let int_ptr = QualType::int().ptr_to();
        assert!(env.shapes_compatible(&int_ptr, &StaticTy::Known(Cow::Borrowed(&void_ptr))));
        assert!(env.shapes_compatible(&void_ptr, &StaticTy::Known(Cow::Owned(int_ptr))));
    }

    #[test]
    fn int_and_char_interchange() {
        let (p, r) = setup("");
        let env = TypeEnv::new(&p, &r);
        let int = StaticTy::Known(Cow::Owned(QualType::int()));
        assert!(env.shapes_compatible(&QualType::char_ty(), &int));
        assert!(!env.shapes_compatible(&QualType::char_ty().ptr_to(), &int));
    }

    #[test]
    fn addr_of_keeps_declared_quals_in_pointee() {
        let (p, r) = setup("int pos x;");
        let env = TypeEnv::new(&p, &r);
        let e = Expr::addr_of(Lvalue::var("x"));
        match env.expr_type(&e) {
            StaticTy::Known(t) => {
                assert!(t.pointee().unwrap().has_qual(Symbol::intern("pos")));
            }
            other => panic!("expected known, got {other:?}"),
        }
    }
}
