//! The CIL-like intermediate representation.
//!
//! Following CIL, the representation "cleanly distinguishes expressions,
//! which are side-effect-free, from instructions": [`Expr`] has no calls
//! and no assignments, while [`Instr`] covers assignments, calls, and
//! memory allocation. The qualifier checker in `stq-typecheck` relies on
//! this split — `case` patterns match expressions, `assign` rules govern
//! instructions.
//!
//! Expressions and l-values live in the program's [`Arena`] and refer
//! to each other by id ([`ExprId`], [`LvalId`]); statements, types and
//! declarations hold ids where they hold an expression or an l-value.
//!
//! Qualifiers are stored directly on types ([`QualType`]), mirroring the
//! paper's use of gcc attributes; the parser attaches postfix qualifier
//! identifiers (e.g. `int pos x`) to the type to their left.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Index, IndexMut};
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

/// The id of an expression in its program's [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ExprId(u32);

/// The id of an l-value in its program's [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LvalId(u32);

impl ExprId {
    /// The node's position in its arena: ids are handed out in order.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl LvalId {
    /// The node's position in its arena: ids are handed out in order.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
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

/// The shapes of side-effect-free expressions. Subexpressions and
/// l-values are ids into the program's [`Arena`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// String literal.
    StrLit(String),
    /// The `NULL` constant.
    Null,
    /// Reading an l-value.
    Lval(LvalId),
    /// `&lv`.
    AddrOf(LvalId),
    /// Unary operation.
    Unop(UnOp, ExprId),
    /// Binary operation.
    Binop(BinOp, ExprId, ExprId),
    /// `(type) e`.
    Cast(QualType, ExprId),
    /// `sizeof(type)` — one word per scalar under the logical memory model.
    SizeOf(QualType),
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
    Deref(ExprId),
    /// `lv.f`.
    Field(LvalId, Symbol),
}

/// A program's expressions and l-values, each stored once in a flat
/// vector and named by its id.
///
/// In a program parsed without syntax errors each node has exactly one
/// parent: a statement, a declaration or another node. (A statement the
/// resilient parse gives up on can leave nodes with none.) Dropping the
/// arena frees two vectors, however deep the expressions are.
///
/// # Examples
///
/// ```
/// use stq_cir::ast::{Arena, BinOp, ExprKind};
///
/// let mut arena = Arena::default();
/// let x = arena.var("x");
/// let one = arena.int(1);
/// let sum = arena.binop(BinOp::Add, x, one);
/// assert!(matches!(arena[sum].kind, ExprKind::Binop(BinOp::Add, a, b) if (a, b) == (x, one)));
/// assert_eq!(arena.as_var(arena.as_lval(x).unwrap()).unwrap().as_str(), "x");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Arena {
    exprs: Vec<Expr>,
    lvals: Vec<Lvalue>,
}

impl Arena {
    /// An empty arena with room for `exprs` expressions and `lvals`
    /// l-values.
    pub fn with_capacity(exprs: usize, lvals: usize) -> Arena {
        Arena {
            exprs: Vec::with_capacity(exprs),
            lvals: Vec::with_capacity(lvals),
        }
    }

    /// Adds an expression node.
    pub fn add_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = u32::try_from(self.exprs.len()).expect("fewer than 2^32 expressions");
        self.exprs.push(Expr { kind, span });
        ExprId(id)
    }

    /// Adds an l-value node.
    pub fn add_lval(&mut self, kind: LvalKind, span: Span) -> LvalId {
        let id = u32::try_from(self.lvals.len()).expect("fewer than 2^32 l-values");
        self.lvals.push(Lvalue { kind, span });
        LvalId(id)
    }

    /// Removes the expression `first` and every expression added after
    /// it.
    pub(crate) fn truncate_exprs(&mut self, first: ExprId) {
        self.exprs.truncate(first.index());
    }

    /// Integer literal, with a dummy span (for synthesized code).
    pub fn int(&mut self, v: i64) -> ExprId {
        self.add_expr(ExprKind::IntLit(v), Span::DUMMY)
    }

    /// The `NULL` constant.
    pub fn null(&mut self) -> ExprId {
        self.add_expr(ExprKind::Null, Span::DUMMY)
    }

    /// Reads a variable.
    pub fn var(&mut self, name: &str) -> ExprId {
        let lv = self.lvar(name);
        self.read(lv)
    }

    /// Reads an l-value.
    pub fn read(&mut self, lv: LvalId) -> ExprId {
        self.add_expr(ExprKind::Lval(lv), Span::DUMMY)
    }

    /// `&lv`.
    pub fn addr_of(&mut self, lv: LvalId) -> ExprId {
        self.add_expr(ExprKind::AddrOf(lv), Span::DUMMY)
    }

    /// Binary operation.
    pub fn binop(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        self.add_expr(ExprKind::Binop(op, a, b), Span::DUMMY)
    }

    /// Unary operation.
    pub fn unop(&mut self, op: UnOp, a: ExprId) -> ExprId {
        self.add_expr(ExprKind::Unop(op, a), Span::DUMMY)
    }

    /// `(ty) e`.
    pub fn cast(&mut self, e: ExprId, ty: QualType) -> ExprId {
        self.add_expr(ExprKind::Cast(ty, e), Span::DUMMY)
    }

    /// A named variable as an l-value.
    pub fn lvar(&mut self, name: &str) -> LvalId {
        self.add_lval(LvalKind::Var(Symbol::intern(name)), Span::DUMMY)
    }

    /// `*e`.
    pub fn deref(&mut self, e: ExprId) -> LvalId {
        self.add_lval(LvalKind::Deref(e), Span::DUMMY)
    }

    /// `lv.f`.
    pub fn field(&mut self, lv: LvalId, f: &str) -> LvalId {
        self.add_lval(LvalKind::Field(lv, Symbol::intern(f)), Span::DUMMY)
    }

    /// The expression with top-level casts removed (pattern matching in
    /// qualifier rules looks through casts, paper §2.2.1).
    pub fn strip_casts(&self, mut e: ExprId) -> ExprId {
        while let ExprKind::Cast(_, inner) = self[e].kind {
            e = inner;
        }
        e
    }

    /// If the expression is (a cast around) an l-value read, that l-value.
    pub fn as_lval(&self, e: ExprId) -> Option<LvalId> {
        match self[self.strip_casts(e)].kind {
            ExprKind::Lval(lv) => Some(lv),
            _ => None,
        }
    }

    /// The variable name, if this l-value is a plain variable.
    pub fn as_var(&self, lv: LvalId) -> Option<Symbol> {
        match self[lv].kind {
            LvalKind::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl Index<ExprId> for Arena {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }
}

impl IndexMut<ExprId> for Arena {
    fn index_mut(&mut self, id: ExprId) -> &mut Expr {
        &mut self.exprs[id.index()]
    }
}

impl Index<LvalId> for Arena {
    type Output = Lvalue;

    fn index(&self, id: LvalId) -> &Lvalue {
        &self.lvals[id.index()]
    }
}

impl IndexMut<LvalId> for Arena {
    fn index_mut(&mut self, id: LvalId) -> &mut Lvalue {
        &mut self.lvals[id.index()]
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
    Set(LvalId, ExprId),
    /// `lv = f(args);` or `f(args);`
    Call(Option<LvalId>, Symbol, Vec<ExprId>),
    /// `lv = malloc(size);` — matched by the `new` pattern in qualifier
    /// definitions. An optional cast type records `(T*)malloc(...)`.
    Alloc(LvalId, ExprId),
    /// A run-time qualifier check inserted by cast instrumentation
    /// (paper §2.1.3): verifies the value of the expression satisfies the
    /// qualifier's invariant, aborting the program otherwise.
    RuntimeCheck(Symbol, ExprId),
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
    pub init: Option<ExprId>,
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
    If(ExprId, Box<Stmt>, Option<Box<Stmt>>),
    /// `while (cond) body`
    While(ExprId, Box<Stmt>),
    /// `return e?;`
    Return(Option<ExprId>),
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
    pub init: Option<ExprId>,
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
    /// Every expression and l-value the program holds. The functions'
    /// statements name nodes here, so a function taken from one program
    /// means nothing in another: parse the sources together instead.
    pub arena: Arena,
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
        let mut a = Arena::default();
        let three = a.int(3);
        let pos = a.cast(three, QualType::int().with_qual("pos"));
        let e = a.cast(pos, QualType::int());
        assert_eq!(a.strip_casts(e), three);
        assert_eq!(a.strip_casts(three), three);
    }

    #[test]
    fn as_lval_sees_through_casts() {
        let mut a = Arena::default();
        let x = a.var("x");
        let e = a.cast(x, QualType::int().ptr_to());
        let lv = a.as_lval(e).expect("a read under a cast");
        assert_eq!(a.as_var(lv), Some(Symbol::intern("x")));
        let one = a.int(1);
        assert_eq!(a.as_lval(one), None);
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
    fn a_clean_parse_gives_each_node_one_parent() {
        let p = crate::parse::parse_program(
            "struct s { int f; };
             int g = 1;
             int h(int* p, struct s* q) {
                 int x = 2;
                 int* m = malloc(4);
                 int c = h(p, q);
                 (int pos) x = *p + (int) x;
                 q->f += x;
                 p[1]++;
                 int* a = &(*p);
                 int b = (*q).f;
                 for (int i = 0; i < 3; i++) { if (i) { x = -x; } }
                 return &x == p;
             }",
            &["pos"],
        )
        .unwrap();
        let a = &p.arena;
        let mut exprs = vec![0; a.exprs.len()];
        let mut lvals = vec![0; a.lvals.len()];
        for e in &a.exprs {
            match e.kind {
                ExprKind::Lval(lv) | ExprKind::AddrOf(lv) => lvals[lv.index()] += 1,
                ExprKind::Unop(_, x) | ExprKind::Cast(_, x) => exprs[x.index()] += 1,
                ExprKind::Binop(_, x, y) => {
                    exprs[x.index()] += 1;
                    exprs[y.index()] += 1;
                }
                ExprKind::IntLit(_)
                | ExprKind::StrLit(_)
                | ExprKind::Null
                | ExprKind::SizeOf(_) => {}
            }
        }
        for lv in &a.lvals {
            match lv.kind {
                LvalKind::Var(_) => {}
                LvalKind::Deref(e) => exprs[e.index()] += 1,
                LvalKind::Field(inner, _) => lvals[inner.index()] += 1,
            }
        }
        for e in p.globals.iter().filter_map(|g| g.init) {
            exprs[e.index()] += 1;
        }
        for s in &p.funcs[0].body {
            s.walk(&mut |s| match &s.kind {
                StmtKind::Instr(i) => match &i.kind {
                    InstrKind::Set(lv, e) | InstrKind::Alloc(lv, e) => {
                        lvals[lv.index()] += 1;
                        exprs[e.index()] += 1;
                    }
                    InstrKind::Call(dst, _, args) => {
                        if let Some(lv) = dst {
                            lvals[lv.index()] += 1;
                        }
                        for e in args {
                            exprs[e.index()] += 1;
                        }
                    }
                    InstrKind::RuntimeCheck(_, e) => exprs[e.index()] += 1,
                },
                StmtKind::If(e, ..) | StmtKind::While(e, _) | StmtKind::Return(Some(e)) => {
                    exprs[e.index()] += 1;
                }
                StmtKind::Decl(LocalDecl { init: Some(e), .. }) => exprs[e.index()] += 1,
                StmtKind::Decl(_) | StmtKind::Block(_) | StmtKind::Return(None) => {}
            });
        }
        assert!(
            exprs.iter().all(|&n| n == 1),
            "expression parents: {exprs:?}"
        );
        assert!(lvals.iter().all(|&n| n == 1), "l-value parents: {lvals:?}");
    }

    #[test]
    fn binop_comparisons() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }
}
