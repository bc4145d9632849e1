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

use crate::ast::*;
use crate::lex::{lex, Tok, Token};
use std::collections::HashSet;
use std::fmt;
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
    let toks = match lex(src) {
        Ok(toks) => toks,
        Err(e) => return (Program::new(), vec![e.into()]),
    };
    let mut p = Parser {
        toks,
        pos: 0,
        quals: qualifiers.iter().map(|q| Symbol::intern(q)).collect(),
        errors: Vec::new(),
    };
    let prog = p.program();
    (prog, p.errors)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    quals: HashSet<Symbol>,
    /// Every syntax error so far; the parser resynchronizes after each.
    errors: Vec<ParseError>,
}

const TYPE_KEYWORDS: [&str; 4] = ["int", "char", "void", "struct"];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            span: self.span(),
        })
    }

    fn expect(&mut self, tok: &Tok) -> PResult<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{tok}`, found `{}`", self.peek()))
        }
    }

    fn ident(&mut self) -> PResult<Symbol> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.as_str() == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_type_start(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    fn type_starts_at(&self, n: usize) -> bool {
        matches!(self.peek_at(n), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    // ----- types -----

    fn qual_list(&mut self, ty: &mut QualType) {
        while let Tok::Ident(s) = self.peek() {
            if self.quals.contains(s) {
                ty.quals.insert(*s);
                self.bump();
            } else {
                break;
            }
        }
    }

    fn parse_type(&mut self) -> PResult<QualType> {
        let base = match self.peek().clone() {
            Tok::Ident(s) => match s.as_str() {
                "int" => {
                    self.bump();
                    BaseTy::Int
                }
                "char" => {
                    self.bump();
                    BaseTy::Char
                }
                "void" => {
                    self.bump();
                    BaseTy::Void
                }
                "struct" => {
                    self.bump();
                    let tag = self.ident()?;
                    BaseTy::Struct(tag)
                }
                other => return self.err(format!("expected type, found `{other}`")),
            },
            other => return self.err(format!("expected type, found `{other}`")),
        };
        let mut ty = QualType::base(base);
        self.qual_list(&mut ty);
        while self.peek() == &Tok::Star {
            self.bump();
            ty = ty.ptr_to();
            self.qual_list(&mut ty);
        }
        Ok(ty)
    }

    // ----- top level -----

    fn program(&mut self) -> Program {
        let mut prog = Program::new();
        while self.peek() != &Tok::Eof {
            let before = self.pos;
            if let Err(e) = self.top_item(&mut prog) {
                self.errors.push(e);
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
        if self.at_ident("struct") && matches!(self.peek_at(2), Tok::LBrace) {
            prog.structs.push(self.struct_def()?);
            return Ok(());
        }
        let start = self.span();
        let ty = self.parse_type()?;
        let name = self.ident()?;
        if self.peek() == &Tok::LParen {
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
            let init = if self.peek() == &Tok::Assign {
                self.bump();
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
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
        self.expect(&Tok::Ident(Symbol::intern("struct")))?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            let fty = self.parse_type()?;
            let fname = self.ident()?;
            self.expect(&Tok::Semi)?;
            fields.push((fname, fty));
        }
        self.expect(&Tok::RBrace)?;
        self.expect(&Tok::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    fn func_rest(&mut self, ret: QualType) -> PResult<(FuncSig, Option<Vec<Stmt>>)> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        let mut varargs = false;
        if self.peek() != &Tok::RParen {
            // `(void)` means no parameters.
            if self.at_ident("void") && self.peek_at(1) == &Tok::RParen {
                self.bump();
            } else {
                loop {
                    if self.peek() == &Tok::Ellipsis {
                        self.bump();
                        varargs = true;
                        break;
                    }
                    let pty = self.parse_type()?;
                    let pname = self.ident()?;
                    params.push((pname, pty));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let sig = FuncSig {
            params,
            ret,
            varargs,
        };
        if self.peek() == &Tok::Semi {
            self.bump();
            Ok((sig, None))
        } else {
            let body = self.block_stmts()?;
            Ok((sig, Some(body)))
        }
    }

    // ----- statements -----

    fn block_stmts(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(&Tok::LBrace)?;
        let mut out = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return self.err("unexpected end of input inside block");
            }
            let before = self.pos;
            if let Err(e) = self.stmt_into(&mut out) {
                self.errors.push(e);
                self.recover_in_block();
                if self.pos == before && self.peek() != &Tok::RBrace {
                    self.force_bump();
                }
            }
        }
        self.expect(&Tok::RBrace)?;
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
        match self.peek().clone() {
            Tok::LBrace => {
                let b = self.block_as_stmt()?;
                out.push(b);
                Ok(())
            }
            Tok::Semi => {
                self.bump();
                Ok(())
            }
            Tok::Ident(s) if s.as_str() == "if" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.sub_stmt()?;
                let els = if self.eat_ident("else") {
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
            Tok::Ident(s) if s.as_str() == "while" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.sub_stmt()?;
                out.push(Stmt {
                    kind: StmtKind::While(cond, Box::new(body)),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            Tok::Ident(s) if s.as_str() == "for" => self.for_stmt(out, start),
            Tok::Ident(s) if s.as_str() == "return" => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(&Tok::Semi)?;
                out.push(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            _ if self.at_type_start() => {
                self.local_decl(out)?;
                self.expect(&Tok::Semi)?;
                Ok(())
            }
            _ => {
                self.expr_stmt(out)?;
                self.expect(&Tok::Semi)?;
                Ok(())
            }
        }
    }

    fn sub_stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        let mut tmp = Vec::new();
        self.stmt_into(&mut tmp)?;
        Ok(match tmp.len() {
            1 => tmp.pop().expect("len checked"),
            _ => Stmt {
                kind: StmtKind::Block(tmp),
                span: start.to(self.prev_span()),
            },
        })
    }

    fn for_stmt(&mut self, out: &mut Vec<Stmt>, start: Span) -> PResult<()> {
        self.bump(); // for
        self.expect(&Tok::LParen)?;
        let mut init = Vec::new();
        if self.peek() != &Tok::Semi {
            if self.at_type_start() {
                self.local_decl(&mut init)?;
            } else {
                self.expr_stmt(&mut init)?;
            }
        }
        self.expect(&Tok::Semi)?;
        let cond = if self.peek() == &Tok::Semi {
            Expr::int(1)
        } else {
            self.parse_expr()?
        };
        self.expect(&Tok::Semi)?;
        let mut step = Vec::new();
        if self.peek() != &Tok::RParen {
            self.expr_stmt(&mut step)?;
        }
        self.expect(&Tok::RParen)?;
        let body = self.sub_stmt()?;
        let mut loop_body = vec![body];
        loop_body.extend(step);
        let whole = Stmt {
            kind: StmtKind::While(cond, Box::new(Stmt::new(StmtKind::Block(loop_body)))),
            span: start.to(self.prev_span()),
        };
        init.push(whole);
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
        if self.peek() == &Tok::Assign {
            self.bump();
            let lv = Lvalue {
                kind: LvalKind::Var(name),
                span: decl.span,
            };
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
        if let Tok::Ident(f) = self.peek().clone() {
            if self.peek_at(1) == &Tok::LParen && !TYPE_KEYWORDS.contains(&f.as_str()) {
                self.bump();
                let args = self.call_args()?;
                let span = start.to(self.prev_span());
                if f.as_str() == "malloc" {
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
        let target_span = target.span;
        let Some(lv) = target.into_lval() else {
            return self.err("expected assignable l-value");
        };
        match self.peek().clone() {
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
                    Tok::PlusPlus => (BinOp::Add, Expr::int(1)),
                    Tok::MinusMinus => (BinOp::Sub, Expr::int(1)),
                    Tok::PlusEq => (BinOp::Add, self.parse_expr()?),
                    Tok::MinusEq => (BinOp::Sub, self.parse_expr()?),
                    _ => unreachable!("matched above"),
                };
                let read = Expr {
                    kind: ExprKind::Lval(Box::new(lv.clone())),
                    span: target_span,
                };
                let value = Expr::binop(op, read, rhs);
                out.push(Stmt {
                    kind: StmtKind::Instr(Instr {
                        kind: InstrKind::Set(lv, value),
                        span: start.to(self.prev_span()),
                    }),
                    span: start.to(self.prev_span()),
                });
                Ok(())
            }
            other => self.err(format!("expected assignment operator, found `{other}`")),
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.parse_expr()?);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    // ----- right-hand sides -----

    fn parse_rhs(&mut self) -> PResult<Rhs> {
        // A cast followed by a call/malloc: `(int*) malloc(n)`. Casts on
        // allocation results are ignored for pattern matching (paper
        // §2.2.1), and CIL's normalization drops them from the instruction.
        if self.peek() == &Tok::LParen && self.type_starts_at(1) {
            self.bump();
            let ty = self.parse_type()?;
            self.expect(&Tok::RParen)?;
            match self.parse_rhs()? {
                Rhs::Expr(e) => {
                    let span = e.span;
                    return Ok(Rhs::Expr(Expr {
                        kind: ExprKind::Cast(ty, Box::new(e)),
                        span,
                    }));
                }
                other => return Ok(other),
            }
        }
        if let Tok::Ident(f) = self.peek().clone() {
            if self.peek_at(1) == &Tok::LParen
                && !TYPE_KEYWORDS.contains(&f.as_str())
                && f.as_str() != "sizeof"
            {
                self.bump();
                let args = self.call_args()?;
                if f.as_str() == "malloc" {
                    let size = args.into_iter().next().unwrap_or_else(|| Expr::int(1));
                    return Ok(Rhs::Alloc(size));
                }
                return Ok(Rhs::Call(f, args));
            }
        }
        Ok(Rhs::Expr(self.parse_expr()?))
    }

    // ----- expressions -----

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.parse_and()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binop(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.parse_cmp()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binop(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> PResult<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        let span = lhs.span.to(rhs.span);
        Ok(Expr {
            kind: ExprKind::Binop(op, Box::new(lhs), Box::new(rhs)),
            span,
        })
    }

    fn parse_add(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binop(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binop(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unop(UnOp::Neg, Box::new(e)),
                    span,
                })
            }
            Tok::Not => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unop(UnOp::Not, Box::new(e)),
                    span,
                })
            }
            Tok::Tilde => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unop(UnOp::BitNot, Box::new(e)),
                    span,
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Lval(Box::new(Lvalue {
                        kind: LvalKind::Deref(e),
                        span,
                    })),
                    span,
                })
            }
            Tok::Amp => {
                self.bump();
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                match e.into_lval() {
                    Some(lv) => Ok(Expr {
                        kind: ExprKind::AddrOf(Box::new(lv)),
                        span,
                    }),
                    None => self.err("`&` requires an l-value operand"),
                }
            }
            Tok::LParen if self.type_starts_at(1) => {
                // Cast.
                self.bump();
                let ty = self.parse_type()?;
                self.expect(&Tok::RParen)?;
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Cast(ty, Box::new(e)),
                    span,
                })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek().clone() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(&Tok::RBracket)?;
                    let span = e.span.to(self.prev_span());
                    // a[i] ≡ *(a + i)
                    let sum = Expr {
                        kind: ExprKind::Binop(BinOp::Add, Box::new(e), Box::new(idx)),
                        span,
                    };
                    e = Expr {
                        kind: ExprKind::Lval(Box::new(Lvalue {
                            kind: LvalKind::Deref(sum),
                            span,
                        })),
                        span,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    let span = e.span.to(self.prev_span());
                    let Some(lv) = e.into_lval() else {
                        return self.err("`.` requires an l-value operand");
                    };
                    e = Expr {
                        kind: ExprKind::Lval(Box::new(Lvalue {
                            kind: LvalKind::Field(Box::new(lv), f),
                            span,
                        })),
                        span,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    let span = e.span.to(self.prev_span());
                    // e->f ≡ (*e).f
                    let deref = Lvalue {
                        kind: LvalKind::Deref(e),
                        span,
                    };
                    e = Expr {
                        kind: ExprKind::Lval(Box::new(Lvalue {
                            kind: LvalKind::Field(Box::new(deref), f),
                            span,
                        })),
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let start = self.span();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    span: start,
                })
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::StrLit(s),
                    span: start,
                })
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) if s.as_str() == "NULL" => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Null,
                    span: start,
                })
            }
            Tok::Ident(s) if s.as_str() == "sizeof" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let ty = self.parse_type()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr {
                    kind: ExprKind::SizeOf(ty),
                    span: start.to(self.prev_span()),
                })
            }
            Tok::Ident(s) => {
                if self.peek_at(1) == &Tok::LParen {
                    return self.err(format!(
                        "call to `{s}` in expression position; calls are instructions in CIR"
                    ));
                }
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Lval(Box::new(Lvalue {
                        kind: LvalKind::Var(s),
                        span: start,
                    })),
                    span: start,
                })
            }
            other => self.err(format!("expected expression, found `{other}`")),
        }
    }
}

enum Rhs {
    Expr(Expr),
    Call(Symbol, Vec<Expr>),
    Alloc(Expr),
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
                assert!(matches!(e.kind, ExprKind::Cast(_, _)));
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
            }) => match &lv.kind {
                LvalKind::Deref(e) => {
                    assert!(matches!(e.kind, ExprKind::Binop(BinOp::Add, _, _)));
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
            }) => match &e.kind {
                ExprKind::Lval(lv) => match &lv.kind {
                    LvalKind::Field(inner, f) => {
                        assert_eq!(f.as_str(), "d_name");
                        assert!(matches!(inner.kind, LvalKind::Deref(_)));
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
                assert!(matches!(cond.kind, ExprKind::Binop(BinOp::Ne, _, _)));
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
                    assert_eq!(lv.as_var(), Some(Symbol::intern("i")));
                    assert!(matches!(
                        e.kind,
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
                let init = d.init.as_ref().unwrap();
                assert!(matches!(init.kind, ExprKind::Cast(_, _)));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn global_with_initializer() {
        let p = parse("int pos limit = 100;");
        assert_eq!(
            p.globals[0].init,
            Some(Expr {
                kind: ExprKind::IntLit(100),
                span: p.globals[0].init.as_ref().unwrap().span,
            })
        );
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
