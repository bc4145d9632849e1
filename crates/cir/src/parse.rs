//! Recursive-descent parser for the C subset.
//!
//! The parser plays the role of CIL's front end: it produces the
//! normalized intermediate representation directly —
//!
//! * calls and allocations never appear inside expressions; an initializer
//!   like `int* p = malloc(n);` becomes a declaration followed by an
//!   [`InstrKind::Alloc`] instruction,
//! * `a[i]` is normalized to `*(a + i)` and `e->f` to `(*e).f`,
//! * `i++`, `i += e` etc. are desugared to plain assignments,
//! * `for` loops are desugared to `while` loops.
//!
//! Qualifier annotations are postfix identifiers drawn from a caller-
//! provided set of known qualifier names (standing in for the paper's
//! gcc-attribute macros): `int pos x`, `char * untainted fmt`.
//!
//! Nesting is bounded by [`MAX_NESTING`], so that no pass over a parsed
//! program, each of which recurses once per level, can exhaust its
//! thread's stack.

use crate::ast::*;
use crate::lex::{lex, show, Shown, Tok, Token};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;
use stq_util::{Span, Symbol};

/// A parse failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lex::LexError> for ParseError {
    fn from(e: crate::lex::LexError) -> ParseError {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// The deepest nesting a program may have. Each block, `if`/`else`/
/// `while`/`for` body (a `for` counts three, for the block and loop it
/// becomes), parenthesis, bracket, unary operator, cast and pointer
/// level being parsed opens a level, and each expression node sits as
/// many levels deeper as its height: a left-deep chain `a + b + …` or
/// `a.f.g…` is as deep as it is long. Past the limit is a parse error.
///
/// C's minimum translation limits are 63 levels of parentheses and 127
/// of blocks (C11 §5.2.4.1).
pub const MAX_NESTING: u32 = 256;

/// Parses a translation unit.
///
/// `qualifiers` lists the user-defined qualifier names the parser should
/// recognize as postfix type annotations.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error.
///
/// # Examples
///
/// ```
/// use stq_cir::parse::parse_program;
///
/// let src = r#"
///     int pos gcd(int pos n, int pos m);
///     int pos lcm(int pos a, int pos b) {
///         int pos d = gcd(a, b);
///         int pos prod = a * b;
///         return (int pos) (prod / d);
///     }
/// "#;
/// let program = parse_program(src, &["pos"]).unwrap();
/// assert_eq!(program.funcs.len(), 1);
/// assert_eq!(program.protos.len(), 1);
/// ```
pub fn parse_program(src: &str, qualifiers: &[&str]) -> PResult<Program> {
    let (program, errors) = parse_program_resilient(src, qualifiers);
    match errors.into_iter().next() {
        Some(first) => Err(first),
        None => Ok(program),
    }
}

/// Error-resilient variant of [`parse_program`]: instead of stopping at
/// the first syntax error, records it, resynchronizes — inside a block at
/// the next `;` or the enclosing `}`, at top level at the next `;` or
/// balanced `}` — and keeps parsing. Returns the partial [`Program`] (so
/// later declarations still typecheck) together with every diagnostic.
///
/// [`parse_program`] is this parse with only its first error: the same
/// program when the error vector is empty. A lex error is not
/// recoverable (there is no token stream to sync on) and yields an empty
/// program.
pub fn parse_program_resilient(src: &str, qualifiers: &[&str]) -> (Program, Vec<ParseError>) {
    let lexed = match lex(src) {
        Ok(lexed) => lexed,
        Err(e) => return (Program::new(), vec![e.into()]),
    };
    // Sized from the token count, so a parse rarely grows them: the
    // corpus makes up to 0.60 expressions and 0.37 l-values per token.
    let n = lexed.toks.len();
    let (exprs, lvals) = (n * 2 / 3, n * 2 / 5);
    let mut p = Parser {
        arena: Arena::with_capacity(exprs, lvals),
        expr_heights: Vec::with_capacity(exprs),
        lval_heights: Vec::with_capacity(lvals),
        depth: 0,
        toks: lexed.toks,
        strs: lexed.strs,
        kw: keywords(),
        pos: 0,
        quals: qualifiers.iter().map(|q| Symbol::intern(q)).collect(),
        errors: Vec::new(),
    };
    let mut prog = p.program();
    prog.arena = p.arena;
    (prog, p.errors)
}

struct Parser {
    /// The nodes of the program being parsed.
    arena: Arena,
    /// The height of each expression node, by id: 1 for a leaf.
    expr_heights: Vec<u32>,
    /// The height of each l-value node, by id: 1 for a variable.
    lval_heights: Vec<u32>,
    /// The nesting levels open where the parser is (see [`MAX_NESTING`]).
    depth: u32,
    toks: Vec<Token>,
    /// String literals' contents, indexed by [`Tok::Str`]; each moves
    /// into the literal expression that consumes its token.
    strs: Vec<String>,
    kw: &'static Keywords,
    pos: usize,
    quals: HashSet<Symbol>,
    /// Every syntax error so far; the parser resynchronizes after each.
    errors: Vec<ParseError>,
}

/// The words the parser tests identifiers against, each interned once
/// per process, so a test is one comparison of symbols.
struct Keywords {
    int: Symbol,
    char: Symbol,
    void: Symbol,
    struct_: Symbol,
    if_: Symbol,
    else_: Symbol,
    while_: Symbol,
    for_: Symbol,
    return_: Symbol,
    null: Symbol,
    sizeof: Symbol,
    malloc: Symbol,
}

fn keywords() -> &'static Keywords {
    static KEYWORDS: OnceLock<Keywords> = OnceLock::new();
    KEYWORDS.get_or_init(|| Keywords {
        int: Symbol::intern("int"),
        char: Symbol::intern("char"),
        void: Symbol::intern("void"),
        struct_: Symbol::intern("struct"),
        if_: Symbol::intern("if"),
        else_: Symbol::intern("else"),
        while_: Symbol::intern("while"),
        for_: Symbol::intern("for"),
        return_: Symbol::intern("return"),
        null: Symbol::intern("NULL"),
        sizeof: Symbol::intern("sizeof"),
        malloc: Symbol::intern("malloc"),
    })
}

impl Keywords {
    /// Whether `s` starts a type: `int`, `char`, `void` or `struct`.
    fn starts_type(&self, s: Symbol) -> bool {
        s == self.int || s == self.char || s == self.void || s == self.struct_
    }
}

/// The binary operator `tok` spells and its precedence: `||` binds
/// loosest, then `&&`, the comparisons, `+` and `-`, and `*`, `/` and
/// `%` tightest.
fn binop_of(tok: Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::Or, 1),
        Tok::AndAnd => (BinOp::And, 2),
        Tok::EqEq => (BinOp::Eq, 3),
        Tok::Ne => (BinOp::Ne, 3),
        Tok::Lt => (BinOp::Lt, 3),
        Tok::Le => (BinOp::Le, 3),
        Tok::Gt => (BinOp::Gt, 3),
        Tok::Ge => (BinOp::Ge, 3),
        Tok::Plus => (BinOp::Add, 4),
        Tok::Minus => (BinOp::Sub, 4),
        Tok::Star => (BinOp::Mul, 5),
        Tok::Slash => (BinOp::Div, 5),
        Tok::Percent => (BinOp::Mod, 5),
        _ => return None,
    })
}

impl Parser {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn peek_at(&self, n: usize) -> Tok {
        let i = (self.pos + n).min(self.toks.len() - 1);
        self.toks[i].tok
    }

    /// `tok` as a diagnostic quotes it.
    fn show(&self, tok: Tok) -> Shown<'_> {
        show(tok, &self.strs)
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok;
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Opens `levels` nesting levels, or fails past [`MAX_NESTING`].
    fn enter(&mut self, levels: u32) -> PResult<()> {
        self.depth += levels;
        self.within_limit(0)
    }

    fn leave(&mut self, levels: u32) {
        self.depth -= levels;
    }

    /// Whether a node of height `height` fits at the current depth.
    fn within_limit(&self, height: u32) -> PResult<()> {
        if self.depth + height > MAX_NESTING {
            self.err(format!("nesting deeper than {MAX_NESTING} levels"))
        } else {
            Ok(())
        }
    }

    /// Adds an expression node, if its height fits.
    fn expr(&mut self, kind: ExprKind, span: Span) -> PResult<ExprId> {
        let below = match kind {
            ExprKind::Lval(lv) | ExprKind::AddrOf(lv) => self.lval_heights[lv.index()],
            ExprKind::Unop(_, a) | ExprKind::Cast(_, a) => self.expr_heights[a.index()],
            ExprKind::Binop(_, a, b) => {
                self.expr_heights[a.index()].max(self.expr_heights[b.index()])
            }
            ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null | ExprKind::SizeOf(_) => 0,
        };
        self.within_limit(below + 1)?;
        self.expr_heights.push(below + 1);
        Ok(self.arena.add_expr(kind, span))
    }

    /// Adds an l-value node, if its height fits.
    fn lval(&mut self, kind: LvalKind, span: Span) -> PResult<LvalId> {
        let below = match kind {
            LvalKind::Var(_) => 0,
            LvalKind::Deref(e) => self.expr_heights[e.index()],
            LvalKind::Field(lv, _) => self.lval_heights[lv.index()],
        };
        self.within_limit(below + 1)?;
        self.lval_heights.push(below + 1);
        Ok(self.arena.add_lval(kind, span))
    }

    /// A copy of the expression `e` as new nodes, sharing none with it.
    fn copy_expr(&mut self, e: ExprId) -> PResult<ExprId> {
        let Expr { kind, span } = self.arena[e].clone();
        let kind = match kind {
            ExprKind::Lval(lv) => ExprKind::Lval(self.copy_lval(lv)?),
            ExprKind::AddrOf(lv) => ExprKind::AddrOf(self.copy_lval(lv)?),
            ExprKind::Unop(op, a) => ExprKind::Unop(op, self.copy_expr(a)?),
            ExprKind::Binop(op, a, b) => {
                let a = self.copy_expr(a)?;
                ExprKind::Binop(op, a, self.copy_expr(b)?)
            }
            ExprKind::Cast(ty, a) => ExprKind::Cast(ty, self.copy_expr(a)?),
            leaf @ (ExprKind::IntLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::SizeOf(_)) => leaf,
        };
        self.expr(kind, span)
    }

    /// A copy of the l-value `lv` as new nodes, sharing none with it.
    fn copy_lval(&mut self, lv: LvalId) -> PResult<LvalId> {
        let Lvalue { kind, span } = self.arena[lv].clone();
        let kind = match kind {
            LvalKind::Var(v) => LvalKind::Var(v),
            LvalKind::Deref(e) => LvalKind::Deref(self.copy_expr(e)?),
            LvalKind::Field(inner, f) => LvalKind::Field(self.copy_lval(inner)?, f),
        };
        self.lval(kind, span)
    }

    /// The l-value that `e`, the expression just parsed, reads through
    /// any casts. The read and the casts are removed, since the caller
    /// wants the l-value itself and nothing else points to them.
    fn take_lval(&mut self, e: ExprId) -> Option<LvalId> {
        let read = self.arena.strip_casts(e);
        let ExprKind::Lval(lv) = self.arena[read].kind else {
            return None;
        };
        debug_assert_eq!(e.index() + 1, self.expr_heights.len(), "not the last node");
        self.arena.truncate_exprs(read);
        self.expr_heights.truncate(read.index());
        Some(lv)
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            span: self.span(),
        })
    }

    fn expect(&mut self, tok: Tok) -> PResult<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected `{}`, found `{}`",
                self.show(tok),
                self.show(self.peek())
            ))
        }
    }

    fn ident(&mut self) -> PResult<Symbol> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{}`", self.show(other))),
        }
    }

    fn at_kw(&self, kw: Symbol) -> bool {
        self.peek() == Tok::Ident(kw)
    }

    fn eat_kw(&mut self, kw: Symbol) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn type_starts_at(&self, n: usize) -> bool {
        matches!(self.peek_at(n), Tok::Ident(s) if self.kw.starts_type(s))
    }

    // ----- types -----

    fn qual_list(&mut self, ty: &mut QualType) {
        while let Tok::Ident(s) = self.peek() {
            if self.quals.contains(&s) {
                ty.quals.insert(s);
                self.bump();
            } else {
                break;
            }
        }
    }

    fn parse_type(&mut self) -> PResult<QualType> {
        let kw = self.kw;
        let base = match self.peek() {
            Tok::Ident(s) if s == kw.struct_ => {
                self.bump();
                BaseTy::Struct(self.ident()?)
            }
            Tok::Ident(s) if kw.starts_type(s) => {
                self.bump();
                if s == kw.int {
                    BaseTy::Int
                } else if s == kw.char {
                    BaseTy::Char
                } else {
                    BaseTy::Void
                }
            }
            other => return self.err(format!("expected type, found `{}`", self.show(other))),
        };
        let mut ty = QualType::base(base);
        self.qual_list(&mut ty);
        let mut levels = 0;
        while self.peek() == Tok::Star {
            self.bump();
            levels += 1;
            self.within_limit(levels)?;
            ty = ty.ptr_to();
            self.qual_list(&mut ty);
        }
        Ok(ty)
    }

    // ----- top level -----

    fn program(&mut self) -> Program {
        let mut prog = Program::new();
        while self.peek() != Tok::Eof {
            let before = self.pos;
            if let Err(e) = self.top_item(&mut prog) {
                self.errors.push(e);
                self.depth = 0;
                self.recover_top_level();
            }
            // Progress guarantee: a failure that consumed nothing (and a
            // recovery that found no sync token) must not loop forever.
            if self.pos == before {
                self.force_bump();
            }
        }
        prog
    }

    /// One top-level item: a struct definition, a global, a prototype,
    /// or a function definition.
    fn top_item(&mut self, prog: &mut Program) -> PResult<()> {
        if self.at_kw(self.kw.struct_) && self.peek_at(2) == Tok::LBrace {
            prog.structs.push(self.struct_def()?);
            return Ok(());
        }
        let start = self.span();
        let ty = self.parse_type()?;
        let name = self.ident()?;
        if self.peek() == Tok::LParen {
            let (sig, body) = self.func_rest(ty)?;
            let span = start.to(self.prev_span());
            match body {
                None => prog.protos.push(FuncProto { name, sig, span }),
                // The definition is whole, so the parse goes on at the
                // next item; the second body is dropped, and every pass
                // that looks `name` up sees the first.
                Some(_) if prog.func(name).is_some() => self.errors.push(ParseError {
                    message: format!("function `{name}` is defined twice"),
                    span,
                }),
                Some(body) => prog.funcs.push(FuncDef {
                    name,
                    sig,
                    body,
                    span,
                }),
            }
        } else {
            let init = if self.peek() == Tok::Assign {
                self.bump();
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect(Tok::Semi)?;
            prog.globals.push(GlobalDecl {
                name,
                ty,
                init,
                span: start.to(self.prev_span()),
            });
        }
        Ok(())
    }

    // ----- error recovery -----

    /// Advances one token if any remain before the `Eof` sentinel
    /// (unlike [`Parser::bump`], which parks on the last token, this is
    /// the progress guarantee for the recovery loops).
    fn force_bump(&mut self) {
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
    }

    /// After a top-level error: skip to just past the next `;` at brace
    /// depth zero, or just past the `}` closing the brace nest we are
    /// inside (a broken function body), whichever comes first.
    fn recover_top_level(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.force_bump();
                    return;
                }
                Tok::LBrace => {
                    depth += 1;
                    self.force_bump();
                }
                Tok::RBrace => {
                    self.force_bump();
                    if depth <= 1 {
                        // Closed the body we were inside (or a stray `}`).
                        return;
                    }
                    depth -= 1;
                }
                _ => self.force_bump(),
            }
        }
    }

    /// After a statement-level error: skip to just past the next `;` at
    /// nesting depth zero, or to (not past) the `}` that closes the
    /// enclosing block, so the block loop can finish normally.
    fn recover_in_block(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.force_bump();
                    return;
                }
                Tok::LBrace => {
                    depth += 1;
                    self.force_bump();
                }
                Tok::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.force_bump();
                }
                _ => self.force_bump(),
            }
        }
    }

    fn struct_def(&mut self) -> PResult<StructDef> {
        let start = self.span();
        self.expect(Tok::Ident(self.kw.struct_))?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != Tok::RBrace {
            let fty = self.parse_type()?;
            let fname = self.ident()?;
            self.expect(Tok::Semi)?;
            fields.push((fname, fty));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    fn func_rest(&mut self, ret: QualType) -> PResult<(FuncSig, Option<Vec<Stmt>>)> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        let mut varargs = false;
        if self.peek() != Tok::RParen {
            // `(void)` means no parameters.
            if self.at_kw(self.kw.void) && self.peek_at(1) == Tok::RParen {
                self.bump();
            } else {
                loop {
                    if self.peek() == Tok::Ellipsis {
                        self.bump();
                        varargs = true;
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = self.ident()?;
                    params.push((pname, pty));
                    if self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.expect(Tok::RParen)?;
        let sig = FuncSig {
            params,
            ret,
            varargs,
        };
        if self.peek() == Tok::Semi {
            self.bump();
            Ok((sig, None))
        } else {
            let body = self.block_stmts()?;
            Ok((sig, Some(body)))
        }
    }

    // ----- statements -----

    fn block_stmts(&mut self) -> PResult<Vec<Stmt>> {
        self.enter(1)?;
        self.expect(Tok::LBrace)?;
        let depth = self.depth;
        let mut out = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return self.err("unexpected end of input inside block");
            }
            let before = self.pos;
            if let Err(e) = self.stmt_into(&mut out) {
                self.errors.push(e);
                self.depth = depth;
                self.recover_in_block();
                if self.pos == before && self.peek() != Tok::RBrace {
                    self.force_bump();
                }
            }
        }
        self.expect(Tok::RBrace)?;
        self.leave(1);
        Ok(out)
    }

    fn block_as_stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        let stmts = self.block_stmts()?;
        Ok(Stmt {
            kind: StmtKind::Block(stmts),
            span: start.to(self.prev_span()),
        })
    }

    /// Parses one source statement, which can expand to several IR
    /// statements (e.g. `int* p = malloc(n);`).
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let start = self.span();
        let kw = self.kw;
        match self.peek() {
            Tok::LBrace => {
                let b = self.block_as_stmt()?;
                out.push(b);
                Ok(())
            }
            Tok::Semi => {
                self.bump();
                Ok(())
            }
            Tok::Ident(s) if s == kw.if_ => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let then = self.sub_stmt()?;
                let els = if self.eat_kw(kw.else_) {
                    Some(Box::new(self.sub_stmt()?))
                } else {
                    None
                };
                out.push(Stmt {
                    kind: StmtKind::If(cond, Box::new(then), els),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            Tok::Ident(s) if s == kw.while_ => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let body = self.sub_stmt()?;
                out.push(Stmt {
                    kind: StmtKind::While(cond, Box::new(body)),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            Tok::Ident(s) if s == kw.for_ => self.for_stmt(out, start),
            Tok::Ident(s) if s == kw.return_ => {
                self.bump();
                let value = if self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            Tok::Ident(s) if kw.starts_type(s) => {
                self.local_decl(out)?;
                self.expect(Tok::Semi)?;
                Ok(())
            }
            _ => {
                self.expr_stmt(out)?;
                self.expect(Tok::Semi)?;
                Ok(())
            }
        }
    }

    fn sub_stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        let mut tmp = Vec::new();
        self.enter(1)?;
        self.stmt_into(&mut tmp)?;
        self.leave(1);
        Ok(match tmp.len() {
            1 => tmp.pop().expect("len checked"),
            _ => Stmt {
                kind: StmtKind::Block(tmp),
                span: start.to(self.prev_span()),
            },
        })
    }

    fn for_stmt(&mut self, out: &mut Vec<Stmt>, start: Span) -> PResult<()> {
        self.bump();
        // The block and the loop the `for` becomes; its body opens one
        // more.
        self.enter(2)?;
        self.expect(Tok::LParen)?;
        let mut init = Vec::new();
        if self.peek() != Tok::Semi {
            if self.type_starts_at(0) {
                self.local_decl(&mut init)?;
            } else {
                self.expr_stmt(&mut init)?;
            }
        }
        self.expect(Tok::Semi)?;
        let cond = if self.peek() == Tok::Semi {
            self.expr(ExprKind::IntLit(1), Span::DUMMY)?
        } else {
            self.parse_expr()?
        };
        self.expect(Tok::Semi)?;
        let mut step = Vec::new();
        if self.peek() != Tok::RParen {
            self.expr_stmt(&mut step)?;
        }
        self.expect(Tok::RParen)?;
        let body = self.sub_stmt()?;
        let mut loop_body = vec![body];
        loop_body.extend(step);
        let whole = Stmt {
            kind: StmtKind::While(cond, Box::new(Stmt::new(StmtKind::Block(loop_body)))),
            span: start.to(self.prev_span()),
        };
        init.push(whole);
        self.leave(2);
        out.push(Stmt {
            kind: StmtKind::Block(init),
            span: start.to(self.prev_span()),
        });
        Ok(())
    }

    fn local_decl(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let start = self.span();
        let ty = self.parse_type()?;
        let name = self.ident()?;
        let mut decl = LocalDecl {
            name,
            ty,
            init: None,
            span: start.to(self.prev_span()),
        };
        if self.peek() == Tok::Assign {
            self.bump();
            match self.parse_rhs()? {
                Rhs::Expr(e) => {
                    decl.init = Some(e);
                    decl.span = start.to(self.prev_span());
                    out.push(Stmt {
                        kind: StmtKind::Decl(decl),
                        span: start.to(self.prev_span()),
                    });
                    return Ok(());
                }
                Rhs::Call(f, args) => {
                    let lv = self.lval(LvalKind::Var(name), decl.span)?;
                    out.push(Stmt {
                        kind: StmtKind::Decl(decl),
                        span: start.to(self.prev_span()),
                    });
                    out.push(Stmt {
                        kind: StmtKind::Instr(Instr {
                            kind: InstrKind::Call(Some(lv), f, args),
                            span: start.to(self.prev_span()),
                        }),
                        span: start.to(self.prev_span()),
                    });
                    return Ok(());
                }
                Rhs::Alloc(size) => {
                    let lv = self.lval(LvalKind::Var(name), decl.span)?;
                    out.push(Stmt {
                        kind: StmtKind::Decl(decl),
                        span: start.to(self.prev_span()),
                    });
                    out.push(Stmt {
                        kind: StmtKind::Instr(Instr {
                            kind: InstrKind::Alloc(lv, size),
                            span: start.to(self.prev_span()),
                        }),
                        span: start.to(self.prev_span()),
                    });
                    return Ok(());
                }
            }
        }
        out.push(Stmt {
            kind: StmtKind::Decl(decl),
            span: start.to(self.prev_span()),
        });
        Ok(())
    }

    /// Expression statement: a call, an assignment, or an
    /// increment/decrement desugaring.
    fn expr_stmt(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        let start = self.span();
        // Bare call: `f(args);`
        if let Tok::Ident(f) = self.peek() {
            if self.peek_at(1) == Tok::LParen && !self.kw.starts_type(f) {
                self.bump();
                let args = self.call_args()?;
                let span = start.to(self.prev_span());
                if f == self.kw.malloc {
                    return self.err("discarded malloc result");
                }
                out.push(Stmt {
                    kind: StmtKind::Instr(Instr {
                        kind: InstrKind::Call(None, f, args),
                        span,
                    }),
                    span,
                });
                return Ok(());
            }
        }
        // Assignment target.
        let target = self.parse_unary()?;
        let target_span = self.arena[target].span;
        let Some(lv) = self.take_lval(target) else {
            return self.err("expected assignable l-value");
        };
        match self.peek() {
            Tok::Assign => {
                self.bump();
                match self.parse_rhs()? {
                    Rhs::Expr(e) => out.push(Stmt {
                        kind: StmtKind::Instr(Instr {
                            kind: InstrKind::Set(lv, e),
                            span: start.to(self.prev_span()),
                        }),
                        span: start.to(self.prev_span()),
                    }),
                    Rhs::Call(f, args) => out.push(Stmt {
                        kind: StmtKind::Instr(Instr {
                            kind: InstrKind::Call(Some(lv), f, args),
                            span: start.to(self.prev_span()),
                        }),
                        span: start.to(self.prev_span()),
                    }),
                    Rhs::Alloc(size) => out.push(Stmt {
                        kind: StmtKind::Instr(Instr {
                            kind: InstrKind::Alloc(lv, size),
                            span: start.to(self.prev_span()),
                        }),
                        span: start.to(self.prev_span()),
                    }),
                }
                Ok(())
            }
            Tok::PlusPlus | Tok::PlusEq | Tok::MinusMinus | Tok::MinusEq => {
                let op_tok = self.bump();
                let (op, rhs) = match op_tok {
                    Tok::PlusPlus => (BinOp::Add, self.expr(ExprKind::IntLit(1), Span::DUMMY)?),
                    Tok::MinusMinus => (BinOp::Sub, self.expr(ExprKind::IntLit(1), Span::DUMMY)?),
                    Tok::PlusEq => (BinOp::Add, self.parse_expr()?),
                    Tok::MinusEq => (BinOp::Sub, self.parse_expr()?),
                    _ => unreachable!("matched above"),
                };
                // The read half copies the target, so each node keeps one
                // parent.
                let read_lv = self.copy_lval(lv)?;
                let read = self.expr(ExprKind::Lval(read_lv), target_span)?;
                let value = self.expr(ExprKind::Binop(op, read, rhs), Span::DUMMY)?;
                out.push(Stmt {
                    kind: StmtKind::Instr(Instr {
                        kind: InstrKind::Set(lv, value),
                        span: start.to(self.prev_span()),
                    }),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            other => self.err(format!(
                "expected assignment operator, found `{}`",
                self.show(other)
            )),
        }
    }

    fn call_args(&mut self) -> PResult<Vec<ExprId>> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                args.push(self.parse_expr()?);
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    // ----- right-hand sides -----

    fn parse_rhs(&mut self) -> PResult<Rhs> {
        // A cast followed by a call/malloc: `(int*) malloc(n)`. Casts on
        // allocation results are ignored for pattern matching (paper
        // §2.2.1), and CIL's normalization drops them from the instruction.
        if self.peek() == Tok::LParen && self.type_starts_at(1) {
            self.bump();
            let ty = self.parse_type()?;
            self.expect(Tok::RParen)?;
            self.enter(1)?;
            let rhs = self.parse_rhs()?;
            self.leave(1);
            match rhs {
                Rhs::Expr(e) => {
                    let span = self.arena[e].span;
                    return Ok(Rhs::Expr(self.expr(ExprKind::Cast(ty, e), span)?));
                }
                other => return Ok(other),
            }
        }
        if let Tok::Ident(f) = self.peek() {
            if self.peek_at(1) == Tok::LParen && !self.kw.starts_type(f) && f != self.kw.sizeof {
                self.bump();
                let args = self.call_args()?;
                if f == self.kw.malloc {
                    let size = match args.first() {
                        Some(&size) => size,
                        None => self.expr(ExprKind::IntLit(1), Span::DUMMY)?,
                    };
                    return Ok(Rhs::Alloc(size));
                }
                return Ok(Rhs::Call(f, args));
            }
        }
        Ok(Rhs::Expr(self.parse_expr()?))
    }

    // ----- expressions -----

    fn parse_expr(&mut self) -> PResult<ExprId> {
        self.parse_binary(1)
    }

    /// Precedence climbing over the operators of [`binop_of`] that bind
    /// at least as tightly as `min`. Every level is left-associative but
    /// the comparisons', which does not chain: `a < b < c` stops before
    /// the second `<`, where the caller reports it.
    fn parse_binary(&mut self, min: u8) -> PResult<ExprId> {
        let mut lhs = self.parse_unary()?;
        // The loosest operator that may follow `lhs`: the right operand
        // took every operator binding tighter than the one just applied,
        // so one binding tighter still is a chained comparison.
        let mut max = u8::MAX;
        while let Some((op, prec)) = binop_of(self.peek()) {
            if prec < min || prec > max {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = self.arena[lhs].span.to(self.arena[rhs].span);
            lhs = self.expr(ExprKind::Binop(op, lhs, rhs), span)?;
            max = if op.is_comparison() { prec - 1 } else { prec };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<ExprId> {
        let start = self.span();
        match self.peek() {
            tok @ (Tok::Minus | Tok::Not | Tok::Tilde) => {
                let op = match tok {
                    Tok::Minus => UnOp::Neg,
                    Tok::Not => UnOp::Not,
                    _ => UnOp::BitNot,
                };
                self.bump();
                let e = self.operand()?;
                let span = start.to(self.arena[e].span);
                self.expr(ExprKind::Unop(op, e), span)
            }
            Tok::Star => {
                self.bump();
                let e = self.operand()?;
                let span = start.to(self.arena[e].span);
                let lv = self.lval(LvalKind::Deref(e), span)?;
                self.expr(ExprKind::Lval(lv), span)
            }
            Tok::Amp => {
                self.bump();
                let e = self.operand()?;
                let span = start.to(self.arena[e].span);
                match self.take_lval(e) {
                    Some(lv) => self.expr(ExprKind::AddrOf(lv), span),
                    None => self.err("`&` requires an l-value operand"),
                }
            }
            Tok::LParen if self.type_starts_at(1) => {
                // Cast.
                self.bump();
                let ty = self.parse_type()?;
                self.expect(Tok::RParen)?;
                let e = self.operand()?;
                let span = start.to(self.arena[e].span);
                self.expr(ExprKind::Cast(ty, e), span)
            }
            _ => self.parse_postfix(),
        }
    }

    /// The operand of a unary operator or cast, one level deeper.
    fn operand(&mut self) -> PResult<ExprId> {
        self.enter(1)?;
        let e = self.parse_unary()?;
        self.leave(1);
        Ok(e)
    }

    /// A parenthesized or bracketed expression, one level deeper.
    fn nested_expr(&mut self) -> PResult<ExprId> {
        self.enter(1)?;
        let e = self.parse_expr()?;
        self.leave(1);
        Ok(e)
    }

    fn parse_postfix(&mut self) -> PResult<ExprId> {
        let mut e = self.parse_primary()?;
        loop {
            let lv = match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.nested_expr()?;
                    self.expect(Tok::RBracket)?;
                    let span = self.arena[e].span.to(self.prev_span());
                    // a[i] ≡ *(a + i)
                    let sum = self.expr(ExprKind::Binop(BinOp::Add, e, idx), span)?;
                    self.lval(LvalKind::Deref(sum), span)?
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    let span = self.arena[e].span.to(self.prev_span());
                    let Some(lv) = self.take_lval(e) else {
                        return self.err("`.` requires an l-value operand");
                    };
                    self.lval(LvalKind::Field(lv, f), span)?
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    let span = self.arena[e].span.to(self.prev_span());
                    // e->f ≡ (*e).f
                    let deref = self.lval(LvalKind::Deref(e), span)?;
                    self.lval(LvalKind::Field(deref, f), span)?
                }
                _ => break,
            };
            let span = self.arena[lv].span;
            e = self.expr(ExprKind::Lval(lv), span)?;
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> PResult<ExprId> {
        let start = self.span();
        let kw = self.kw;
        let kind = match self.peek() {
            Tok::Int(v) => {
                self.bump();
                ExprKind::IntLit(v)
            }
            Tok::Str(i) => {
                self.bump();
                ExprKind::StrLit(std::mem::take(&mut self.strs[i as usize]))
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested_expr()?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(s) if s == kw.null => {
                self.bump();
                ExprKind::Null
            }
            Tok::Ident(s) if s == kw.sizeof => {
                self.bump();
                self.expect(Tok::LParen)?;
                let ty = self.parse_type()?;
                self.expect(Tok::RParen)?;
                let span = start.to(self.prev_span());
                return self.expr(ExprKind::SizeOf(ty), span);
            }
            Tok::Ident(s) => {
                if self.peek_at(1) == Tok::LParen {
                    return self.err(format!(
                        "call to `{s}` in expression position; calls are instructions in CIR"
                    ));
                }
                self.bump();
                ExprKind::Lval(self.lval(LvalKind::Var(s), start)?)
            }
            other => return self.err(format!("expected expression, found `{}`", self.show(other))),
        };
        self.expr(kind, start)
    }
}

enum Rhs {
    Expr(ExprId),
    Call(Symbol, Vec<ExprId>),
    Alloc(ExprId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(
            src,
            &["pos", "neg", "nonzero", "nonnull", "unique", "untainted"],
        )
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    #[test]
    fn lcm_example_from_the_paper() {
        let p = parse(
            r#"
            int pos gcd(int pos n, int pos m);
            int pos lcm(int pos a, int pos b) {
                int pos d = gcd(a, b);
                int pos prod = a * b;
                return (int pos) (prod / d);
            }
            "#,
        );
        assert_eq!(p.protos.len(), 1);
        assert_eq!(p.funcs.len(), 1);
        let lcm = &p.funcs[0];
        assert_eq!(lcm.sig.params.len(), 2);
        assert!(lcm.sig.ret.has_qual(Symbol::intern("pos")));
        // Body: Decl d, Call d=gcd, Decl prod (with init), Return.
        assert_eq!(lcm.body.len(), 4);
        assert!(matches!(lcm.body[0].kind, StmtKind::Decl(_)));
        assert!(matches!(
            lcm.body[1].kind,
            StmtKind::Instr(Instr {
                kind: InstrKind::Call(Some(_), _, _),
                ..
            })
        ));
        match &lcm.body[3].kind {
            StmtKind::Return(Some(e)) => {
                assert!(matches!(p.arena[*e].kind, ExprKind::Cast(_, _)));
            }
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn make_array_example_from_the_paper() {
        let p = parse(
            r#"
            int * unique array;
            void make_array(int n) {
                array = (int*)malloc(sizeof(int) * n);
                for (int i = 0; i < n; i++)
                    array[i] = i;
            }
            "#,
        );
        assert_eq!(p.globals.len(), 1);
        assert!(p.globals[0].ty.has_qual(Symbol::intern("unique")));
        let f = &p.funcs[0];
        // First statement: Alloc (the cast is dropped).
        assert!(matches!(
            f.body[0].kind,
            StmtKind::Instr(Instr {
                kind: InstrKind::Alloc(_, _),
                ..
            })
        ));
        // Then the desugared for loop.
        match &f.body[1].kind {
            StmtKind::Block(stmts) => {
                assert!(matches!(stmts[0].kind, StmtKind::Decl(_)));
                assert!(matches!(stmts.last().unwrap().kind, StmtKind::While(_, _)));
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn array_indexing_normalizes_to_deref() {
        let p = parse("void f(int* a, int i) { a[i] = 0; }");
        match &p.funcs[0].body[0].kind {
            StmtKind::Instr(Instr {
                kind: InstrKind::Set(lv, _),
                ..
            }) => match &p.arena[*lv].kind {
                LvalKind::Deref(e) => {
                    assert!(matches!(
                        p.arena[*e].kind,
                        ExprKind::Binop(BinOp::Add, _, _)
                    ));
                }
                other => panic!("expected deref, got {other:?}"),
            },
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn arrow_normalizes_to_field_of_deref() {
        let p = parse(
            r#"
            struct dirent { char* d_name; };
            void f(struct dirent* entry, char* out) {
                out = entry->d_name;
            }
            "#,
        );
        match &p.funcs[0].body[0].kind {
            StmtKind::Instr(Instr {
                kind: InstrKind::Set(_, e),
                ..
            }) => match &p.arena[*e].kind {
                ExprKind::Lval(lv) => match &p.arena[*lv].kind {
                    LvalKind::Field(inner, f) => {
                        assert_eq!(f.as_str(), "d_name");
                        assert!(matches!(p.arena[*inner].kind, LvalKind::Deref(_)));
                    }
                    other => panic!("expected field, got {other:?}"),
                },
                other => panic!("expected lval, got {other:?}"),
            },
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn nested_pointer_qualifiers() {
        let p = parse("int pos * nonnull g;");
        let ty = &p.globals[0].ty;
        assert!(ty.has_qual(Symbol::intern("nonnull")));
        assert!(ty.pointee().unwrap().has_qual(Symbol::intern("pos")));
    }

    #[test]
    fn unknown_identifier_is_not_a_qualifier() {
        // `pos` not registered: `int pos x;` parses `pos` as the variable
        // name and errors on `x`.
        let r = parse_program("int pos x;", &[]);
        assert!(r.is_err());
    }

    #[test]
    fn if_else_chain() {
        let p = parse(
            "int sign(int x) { if (x > 0) return 1; else if (x < 0) return -1; else return 0; }",
        );
        match &p.funcs[0].body[0].kind {
            StmtKind::If(_, _, Some(els)) => {
                assert!(matches!(els.kind, StmtKind::If(_, _, Some(_))));
            }
            other => panic!("expected if-else, got {other:?}"),
        }
    }

    #[test]
    fn while_with_null_test() {
        let p = parse("void f(int* t) { while (t != NULL) { t = NULL; } }");
        match &p.funcs[0].body[0].kind {
            StmtKind::While(cond, _) => {
                assert!(matches!(
                    p.arena[*cond].kind,
                    ExprKind::Binop(BinOp::Ne, _, _)
                ));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn increment_desugars() {
        let p = parse("void f(int i) { i++; i += 2; i--; i -= 3; }");
        for stmt in &p.funcs[0].body {
            match &stmt.kind {
                StmtKind::Instr(Instr {
                    kind: InstrKind::Set(lv, e),
                    ..
                }) => {
                    assert_eq!(p.arena.as_var(*lv), Some(Symbol::intern("i")));
                    assert!(matches!(
                        p.arena[*e].kind,
                        ExprKind::Binop(BinOp::Add | BinOp::Sub, _, _)
                    ));
                }
                other => panic!("expected set, got {other:?}"),
            }
        }
    }

    #[test]
    fn varargs_prototype() {
        let p = parse("int printf(char * untainted fmt, ...);");
        assert!(p.protos[0].sig.varargs);
        assert!(p.protos[0].sig.params[0]
            .1
            .has_qual(Symbol::intern("untainted")));
    }

    #[test]
    fn call_in_expression_is_rejected() {
        let r = parse_program("void f() { int x = 1 + g(); }", &[]);
        assert!(r.is_err());
        assert!(r.unwrap_err().message.contains("instruction"));
    }

    #[test]
    fn address_of_rvalue_is_rejected() {
        let r = parse_program("void f() { int* p = &3; }", &[]);
        assert!(r.is_err());
    }

    #[test]
    fn cast_on_string_literal() {
        let p = parse(
            r#"
            int printf(char * untainted fmt, ...);
            void f(char* buf) {
                char * untainted fmt = (char * untainted) "%s";
                printf(fmt, buf);
            }
            "#,
        );
        match &p.funcs[0].body[0].kind {
            StmtKind::Decl(d) => {
                let init = d.init.unwrap();
                assert!(matches!(p.arena[init].kind, ExprKind::Cast(_, _)));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn global_with_initializer() {
        let p = parse("int pos limit = 100;");
        let init = p.globals[0].init.expect("an initializer");
        assert_eq!(p.arena[init].kind, ExprKind::IntLit(100));
    }

    #[test]
    fn void_paramlist() {
        let p = parse("int f(void) { return 0; }");
        assert!(p.funcs[0].sig.params.is_empty());
    }

    #[test]
    fn empty_statement_is_allowed() {
        let p = parse("void f() { ; ; }");
        assert!(p.funcs[0].body.is_empty());
    }

    #[test]
    fn discarded_malloc_is_rejected() {
        assert!(parse_program("void f() { malloc(4); }", &[]).is_err());
    }

    #[test]
    fn a_second_definition_of_a_function_is_an_error_naming_it() {
        let src = "int f(int a) { int b = 1; return b; }
            int f(int c) { int a = 2; a = c; return a; }
            int g = 3;";
        let err = parse_program(src, &[]).expect_err("f is defined twice");
        assert!(err.message.contains("function `f`"), "{err}");
        let second = src.find("int f(int c)").unwrap() as u32;
        assert_eq!(
            err.span.start, second,
            "the error points at the second body"
        );
        // The parse goes on past the duplicate and keeps the first body.
        let (prog, errors) = parse_program_resilient(src, &[]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(prog.funcs.len(), 1);
        assert_eq!(prog.funcs[0].sig.params[0].0.as_str(), "a");
        assert_eq!(prog.globals.len(), 1);
        // A prototype plus one definition, and a repeated global (a C
        // tentative definition), stay legal.
        let legal = parse("int f(int a); int f(int a) { return a; } int g; int g;");
        assert_eq!((legal.protos.len(), legal.funcs.len()), (1, 1));
        assert_eq!(legal.globals.len(), 2);
    }

    #[test]
    fn resilient_parse_of_clean_source_matches_strict() {
        let src = "int g = 1;
            int pos dbl(int pos x) { return (int pos)(x * 2); }
            void h();";
        let strict = parse_program(src, &["pos"]).unwrap();
        let (prog, errors) = parse_program_resilient(src, &["pos"]);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(prog.globals.len(), strict.globals.len());
        assert_eq!(prog.funcs.len(), strict.funcs.len());
        assert_eq!(prog.protos.len(), strict.protos.len());
    }

    #[test]
    fn resilient_parse_recovers_at_semicolons_inside_a_block() {
        // The middle statement is broken; its neighbours must survive.
        let src = "int f() {
                int a = 1;
                int b = * ;
                int c = 2;
                return c;
            }";
        assert!(parse_program(src, &[]).is_err());
        let (prog, errors) = parse_program_resilient(src, &[]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(prog.funcs.len(), 1);
        let body = &prog.funcs[0].body;
        // a's decl+init, c's decl+init, return — the broken b dropped.
        assert!(body.len() >= 3, "{body:?}");
    }

    #[test]
    fn resilient_parse_recovers_past_a_broken_function() {
        let src = "int broken(int x { return x; }
            int fine(int y) { return y; }";
        let (prog, errors) = parse_program_resilient(src, &[]);
        assert!(!errors.is_empty());
        assert_eq!(prog.funcs.len(), 1, "{prog:?}");
        assert_eq!(prog.funcs[0].name.as_str(), "fine");
    }

    #[test]
    fn resilient_parse_recovers_past_a_broken_global() {
        let src = "int bad = ;
            int good = 2;
            int f() { return good; }";
        let (prog, errors) = parse_program_resilient(src, &[]);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(prog.globals.len(), 1);
        assert_eq!(prog.globals[0].name.as_str(), "good");
        assert_eq!(prog.funcs.len(), 1);
    }

    #[test]
    fn resilient_parse_collects_multiple_diagnostics() {
        let src = "int a = ;
            int f() { int x = * ; return 0 }
            int b = 3;";
        let (prog, errors) = parse_program_resilient(src, &[]);
        assert!(errors.len() >= 2, "{errors:?}");
        assert!(prog.globals.iter().any(|g| g.name.as_str() == "b"));
    }

    #[test]
    fn resilient_parse_of_garbage_terminates_with_diagnostics() {
        let (prog, errors) = parse_program_resilient("}}}}((( ;;; ***", &[]);
        assert!(prog.funcs.is_empty());
        assert!(!errors.is_empty());
        let (prog, errors) = parse_program_resilient("", &[]);
        assert!(prog.globals.is_empty() && errors.is_empty());
    }

    #[test]
    fn resilient_parse_reports_unterminated_blocks() {
        let (_, errors) = parse_program_resilient("int f() { int x = 1;", &[]);
        assert!(
            errors.iter().any(|e| e.message.contains("end of input")),
            "{errors:?}"
        );
    }
}
