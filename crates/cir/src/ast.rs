//! The CIL-like intermediate representation.
//!
//! Following CIL, the representation "cleanly distinguishes expressions,
//! which are side-effect-free, from instructions": [`Expr`] has no calls
//! and no assignments, while [`Instr`] covers assignments, calls, and
//! memory allocation. The qualifier checker in `stq-typecheck` relies on
//! this split — `case` patterns match expressions, `assign` rules govern
//! instructions.
//!
//! Qualifiers are stored directly on types ([`QualType`]), mirroring the
//! paper's use of gcc attributes; the parser attaches postfix qualifier
//! identifiers (e.g. `int pos x`) to the type to their left.

use std::collections::BTreeSet;
use std::fmt;
use stq_util::{Span, Symbol};

/// A base (unqualified, non-pointer) type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaseTy {
    /// `void` — only meaningful as a return type or behind a pointer.
    Void,
    /// `int`.
    Int,
    /// `char`.
    Char,
    /// `struct name`.
    Struct(Symbol),
}

impl fmt::Display for BaseTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseTy::Void => f.write_str("void"),
            BaseTy::Int => f.write_str("int"),
            BaseTy::Char => f.write_str("char"),
            BaseTy::Struct(s) => write!(f, "struct {s}"),
        }
    }
}

/// The shape of a type: a base type or a pointer to a qualified type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// A base type.
    Base(BaseTy),
    /// Pointer to a (possibly qualified) type.
    Ptr(Box<QualType>),
}

/// A type together with its set of user-defined qualifiers.
///
/// Qualifier order is irrelevant (paper §2.1), so the set is a `BTreeSet`.
///
/// # Examples
///
/// ```
/// use stq_cir::ast::{BaseTy, QualType};
///
/// let pos_int = QualType::base(BaseTy::Int).with_qual("pos");
/// assert!(pos_int.has_qual(stq_util::Symbol::intern("pos")));
/// assert_eq!(pos_int.to_string(), "int pos");
///
/// let ptr = pos_int.ptr_to().with_qual("nonnull");
/// assert_eq!(ptr.to_string(), "int pos * nonnull");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct QualType {
    /// The underlying shape.
    pub ty: Ty,
    /// User-defined qualifiers attached at this level.
    pub quals: BTreeSet<Symbol>,
}

impl QualType {
    /// An unqualified base type.
    pub fn base(b: BaseTy) -> QualType {
        QualType {
            ty: Ty::Base(b),
            quals: BTreeSet::new(),
        }
    }

    /// Unqualified `int`.
    pub fn int() -> QualType {
        QualType::base(BaseTy::Int)
    }

    /// Unqualified `char`.
    pub fn char_ty() -> QualType {
        QualType::base(BaseTy::Char)
    }

    /// Unqualified `void`.
    pub fn void() -> QualType {
        QualType::base(BaseTy::Void)
    }

    /// An unqualified pointer to `self`.
    #[must_use]
    pub fn ptr_to(self) -> QualType {
        QualType {
            ty: Ty::Ptr(Box::new(self)),
            quals: BTreeSet::new(),
        }
    }

    /// Adds a qualifier at the top level.
    #[must_use]
    pub fn with_qual(mut self, q: &str) -> QualType {
        self.quals.insert(Symbol::intern(q));
        self
    }

    /// Whether the top level carries qualifier `q`.
    pub fn has_qual(&self, q: Symbol) -> bool {
        self.quals.contains(&q)
    }

    /// The pointee type, if this is a pointer.
    pub fn pointee(&self) -> Option<&QualType> {
        match &self.ty {
            Ty::Ptr(inner) => Some(inner),
            Ty::Base(_) => None,
        }
    }

    /// Whether this is a pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self.ty, Ty::Ptr(_))
    }
}

impl fmt::Display for QualType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ty {
            Ty::Base(b) => write!(f, "{b}")?,
            Ty::Ptr(inner) => write!(f, "{inner} *")?,
        }
        for q in &self.quals {
            write!(f, " {q}")?;
        }
        Ok(())
    }
}

/// Unary operators (side-effect-free).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Bitwise not `~e`.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        })
    }
}

/// Binary operators (side-effect-free).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+` (also pointer arithmetic under the logical memory model).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    And,
    /// `||`.
    Or,
}

impl BinOp {
    /// True for `==`, `!=`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        })
    }
}

/// A side-effect-free expression with its source span.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Expr {
    /// The expression shape.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// The shapes of side-effect-free expressions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// String literal.
    StrLit(String),
    /// The `NULL` constant.
    Null,
    /// Reading an l-value.
    Lval(Box<Lvalue>),
    /// `&lv`.
    AddrOf(Box<Lvalue>),
    /// Unary operation.
    Unop(UnOp, Box<Expr>),
    /// Binary operation.
    Binop(BinOp, Box<Expr>, Box<Expr>),
    /// `(type) e`.
    Cast(QualType, Box<Expr>),
    /// `sizeof(type)` — one word per scalar under the logical memory model.
    SizeOf(QualType),
}

impl Expr {
    /// Builds an expression with a dummy span (for synthesized code).
    pub fn new(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::DUMMY,
        }
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::new(ExprKind::IntLit(v))
    }

    /// The `NULL` constant.
    pub fn null() -> Expr {
        Expr::new(ExprKind::Null)
    }

    /// Reads a variable.
    pub fn var(name: &str) -> Expr {
        Expr::new(ExprKind::Lval(Box::new(Lvalue::var(name))))
    }

    /// Reads an l-value.
    pub fn lval(lv: Lvalue) -> Expr {
        Expr::new(ExprKind::Lval(Box::new(lv)))
    }

    /// `&lv`.
    pub fn addr_of(lv: Lvalue) -> Expr {
        Expr::new(ExprKind::AddrOf(Box::new(lv)))
    }

    /// Binary operation.
    pub fn binop(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::new(ExprKind::Binop(op, Box::new(a), Box::new(b)))
    }

    /// Unary operation.
    pub fn unop(op: UnOp, a: Expr) -> Expr {
        Expr::new(ExprKind::Unop(op, Box::new(a)))
    }

    /// `(ty) self`.
    #[must_use]
    pub fn cast(self, ty: QualType) -> Expr {
        Expr::new(ExprKind::Cast(ty, Box::new(self)))
    }

    /// The expression with top-level casts removed (pattern matching in
    /// qualifier rules looks through casts, paper §2.2.1).
    pub fn strip_casts(&self) -> &Expr {
        match &self.kind {
            ExprKind::Cast(_, inner) => inner.strip_casts(),
            _ => self,
        }
    }

    /// If the expression is (a cast around) an l-value read, that l-value.
    pub fn as_lval(&self) -> Option<&Lvalue> {
        match &self.strip_casts().kind {
            ExprKind::Lval(lv) => Some(lv),
            _ => None,
        }
    }

    /// [`Expr::as_lval`] by value: the l-value moves out of the
    /// expression, so the parser builds `&e`, `e.f` and assignment
    /// targets without copying it.
    pub(crate) fn into_lval(self) -> Option<Lvalue> {
        match self.kind {
            ExprKind::Cast(_, inner) => inner.into_lval(),
            ExprKind::Lval(lv) => Some(*lv),
            _ => None,
        }
    }
}

/// An l-value (assignable location) with its source span.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Lvalue {
    /// The l-value shape.
    pub kind: LvalKind,
    /// Source location.
    pub span: Span,
}

/// The shapes of l-values. `e->f` is normalized to `(*e).f` and `a[i]` to
/// `*(a + i)` during parsing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LvalKind {
    /// A named variable (local, parameter, or global).
    Var(Symbol),
    /// `*e`.
    Deref(Expr),
    /// `lv.f`.
    Field(Box<Lvalue>, Symbol),
}

impl Lvalue {
    /// Builds an l-value with a dummy span.
    pub fn new(kind: LvalKind) -> Lvalue {
        Lvalue {
            kind,
            span: Span::DUMMY,
        }
    }

    /// A named variable.
    pub fn var(name: &str) -> Lvalue {
        Lvalue::new(LvalKind::Var(Symbol::intern(name)))
    }

    /// `*e`.
    pub fn deref(e: Expr) -> Lvalue {
        Lvalue::new(LvalKind::Deref(e))
    }

    /// `lv.f`.
    pub fn field(lv: Lvalue, f: &str) -> Lvalue {
        Lvalue::new(LvalKind::Field(Box::new(lv), Symbol::intern(f)))
    }

    /// The variable name, if this l-value is a plain variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self.kind {
            LvalKind::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// An instruction: the side-effecting atoms of the language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instr {
    /// The instruction shape.
    pub kind: InstrKind,
    /// Source location.
    pub span: Span,
}

/// The shapes of instructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InstrKind {
    /// `lv = e;`
    Set(Lvalue, Expr),
    /// `lv = f(args);` or `f(args);`
    Call(Option<Lvalue>, Symbol, Vec<Expr>),
    /// `lv = malloc(size);` — matched by the `new` pattern in qualifier
    /// definitions. An optional cast type records `(T*)malloc(...)`.
    Alloc(Lvalue, Expr),
    /// A run-time qualifier check inserted by cast instrumentation
    /// (paper §2.1.3): verifies the value of the expression satisfies the
    /// qualifier's invariant, aborting the program otherwise.
    RuntimeCheck(Symbol, Expr),
}

impl Instr {
    /// Builds an instruction with a dummy span.
    pub fn new(kind: InstrKind) -> Instr {
        Instr {
            kind,
            span: Span::DUMMY,
        }
    }
}

/// A local variable declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalDecl {
    /// Variable name.
    pub name: Symbol,
    /// Declared (possibly qualified) type.
    pub ty: QualType,
    /// Optional initializer. Allocation initializers (`malloc`) appear as
    /// a separate [`InstrKind::Alloc`] emitted by the parser instead.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A statement with its source span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Stmt {
    /// The statement shape.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// The shapes of statements.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StmtKind {
    /// An instruction.
    Instr(Instr),
    /// A braced block.
    Block(Vec<Stmt>),
    /// `if (cond) then else?`
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (cond) body`
    While(Expr, Box<Stmt>),
    /// `return e?;`
    Return(Option<Expr>),
    /// A local declaration.
    Decl(LocalDecl),
}

impl Stmt {
    /// Builds a statement with a dummy span.
    pub fn new(kind: StmtKind) -> Stmt {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }

    /// Wraps an instruction.
    pub fn instr(kind: InstrKind) -> Stmt {
        Stmt::new(StmtKind::Instr(Instr::new(kind)))
    }
}

/// A function signature.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncSig {
    /// Parameter names and types.
    pub params: Vec<(Symbol, QualType)>,
    /// Return type.
    pub ret: QualType,
    /// Whether the function is variadic (`...`), like `printf`.
    pub varargs: bool,
}

/// A function definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncDef {
    /// Function name.
    pub name: Symbol,
    /// Signature.
    pub sig: FuncSig,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A function prototype (declaration without a body).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncProto {
    /// Function name.
    pub name: Symbol,
    /// Signature.
    pub sig: FuncSig,
    /// Source location.
    pub span: Span,
}

/// A struct definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    /// Struct tag.
    pub name: Symbol,
    /// Field names and types, in declaration order.
    pub fields: Vec<(Symbol, QualType)>,
    /// Source location.
    pub span: Span,
}

/// A global variable declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: Symbol,
    /// Declared type.
    pub ty: QualType,
    /// Optional constant initializer.
    pub init: Option<Expr>,
    /// Source location.
    pub span: Span,
}

/// A whole translation unit.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<GlobalDecl>,
    /// Function prototypes (externs and forward declarations).
    pub protos: Vec<FuncProto>,
    /// Function definitions.
    pub funcs: Vec<FuncDef>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Looks up a struct definition by tag.
    pub fn struct_def(&self, name: Symbol) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a function definition by name.
    pub fn func(&self, name: Symbol) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a function signature (definition or prototype).
    pub fn signature(&self, name: Symbol) -> Option<&FuncSig> {
        self.funcs
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.sig)
            .or_else(|| self.protos.iter().find(|p| p.name == name).map(|p| &p.sig))
    }

    /// Looks up a global declaration.
    pub fn global(&self, name: Symbol) -> Option<&GlobalDecl> {
        self.globals.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualtype_display_postfix() {
        let t = QualType::int().with_qual("pos");
        assert_eq!(t.to_string(), "int pos");
        let p = t.ptr_to().with_qual("nonnull");
        assert_eq!(p.to_string(), "int pos * nonnull");
    }

    #[test]
    fn qual_order_is_irrelevant() {
        let a = QualType::int().with_qual("pos").with_qual("nonzero");
        let b = QualType::int().with_qual("nonzero").with_qual("pos");
        assert_eq!(a, b);
    }

    #[test]
    fn strip_casts_reaches_core() {
        let e = Expr::int(3)
            .cast(QualType::int().with_qual("pos"))
            .cast(QualType::int());
        assert_eq!(e.strip_casts(), &Expr::int(3));
    }

    #[test]
    fn as_lval_sees_through_casts() {
        let e = Expr::var("x").cast(QualType::int().ptr_to());
        assert_eq!(e.as_lval(), Some(&Lvalue::var("x")));
        assert_eq!(Expr::int(1).as_lval(), None);
    }

    #[test]
    fn program_lookups() {
        let mut p = Program::new();
        p.structs.push(StructDef {
            name: Symbol::intern("dfa"),
            fields: vec![(Symbol::intern("trans"), QualType::int().ptr_to())],
            span: Span::DUMMY,
        });
        p.protos.push(FuncProto {
            name: Symbol::intern("gcd"),
            sig: FuncSig {
                params: vec![],
                ret: QualType::int(),
                varargs: false,
            },
            span: Span::DUMMY,
        });
        assert!(p.struct_def(Symbol::intern("dfa")).is_some());
        assert!(p.signature(Symbol::intern("gcd")).is_some());
        assert!(p.func(Symbol::intern("gcd")).is_none());
        assert!(p.global(Symbol::intern("gcd")).is_none());
    }

    #[test]
    fn binop_comparisons() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }
}
