//! Parser for the qualifier-definition language.
//!
//! The concrete syntax follows the paper's figures verbatim, e.g. Figure 1:
//!
//! ```text
//! value qualifier pos(int Expr E)
//!     case E of
//!         decl int Const C:
//!             C, where C > 0
//!       | decl int Expr E1, E2:
//!             E1 * E2, where pos(E1) && pos(E2)
//!       | decl int Expr E1:
//!             -E1, where neg(E1)
//!     invariant value(E) > 0
//! ```

use crate::ast::*;
use std::fmt;
use stq_cir::ast::{BinOp, UnOp};
use stq_cir::lex::{lex, Tok, Token};
use stq_util::{Span, Symbol};

/// A parse failure in a qualifier definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qualifier definition error at {}: {}",
            self.span, self.message
        )
    }
}

impl std::error::Error for SpecError {}

type SResult<T> = Result<T, SpecError>;

/// Parses a file of qualifier definitions.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first syntax error.
///
/// # Examples
///
/// ```
/// use stq_qualspec::parse::parse_qualifiers;
///
/// let defs = parse_qualifiers(
///     "value qualifier pos(int Expr E)
///          case E of
///              decl int Const C: C, where C > 0
///          invariant value(E) > 0",
/// ).unwrap();
/// assert_eq!(defs.len(), 1);
/// assert_eq!(defs[0].name.as_str(), "pos");
/// assert_eq!(defs[0].cases.len(), 1);
/// ```
pub fn parse_qualifiers(src: &str) -> SResult<Vec<QualifierDef>> {
    let (defs, errors) = parse_qualifiers_resilient(src);
    match errors.into_iter().next() {
        Some(first) => Err(first),
        None => Ok(defs),
    }
}

/// Error-resilient variant of [`parse_qualifiers`]: instead of stopping
/// at the first syntax error, records it, resynchronizes at the next
/// clause keyword (`case`, `restrict`, `assign`, `disallow`, `ondecl`,
/// `invariant`) or `value`/`ref qualifier` header, and keeps parsing.
/// Returns every definition that survived — possibly with the broken
/// section dropped — alongside every diagnostic, so one typo in a
/// qualifier file no longer hides the rest of the file.
///
/// [`parse_qualifiers`] is this parse with only its first error: the
/// same definitions when the error vector is empty.
pub fn parse_qualifiers_resilient(src: &str) -> (Vec<QualifierDef>, Vec<SpecError>) {
    let toks = match lex(src) {
        Ok(toks) => toks,
        // Lexing is not recoverable (there is no token stream to sync
        // on); report the one error.
        Err(e) => {
            return (
                Vec::new(),
                vec![SpecError {
                    message: e.message,
                    span: e.span,
                }],
            );
        }
    };
    let mut p = P { toks, pos: 0 };
    let mut defs = Vec::new();
    let mut errors = Vec::new();
    while p.peek() != &Tok::Eof {
        if let Some(def) = p.qualifier(&mut errors) {
            defs.push(def);
        }
    }
    (defs, errors)
}

struct P {
    toks: Vec<Token>,
    pos: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
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

    fn err<T>(&self, message: impl Into<String>) -> SResult<T> {
        Err(SpecError {
            message: message.into(),
            span: self.span(),
        })
    }

    fn expect(&mut self, tok: &Tok) -> SResult<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{tok}`, found `{}`", self.peek()))
        }
    }

    fn ident(&mut self) -> SResult<Symbol> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.as_str() == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{}`", self.peek()))
        }
    }

    // ----- top level -----

    /// Parses one definition, recording errors in `errors` and
    /// resynchronizing instead of failing. Returns `None` when the
    /// header itself was unusable; otherwise the (possibly partial)
    /// definition.
    fn qualifier(&mut self, errors: &mut Vec<SpecError>) -> Option<QualifierDef> {
        let start = self.span();
        let mut def = match self.qualifier_header(start) {
            Ok(def) => def,
            Err(e) => {
                errors.push(e);
                self.sync_to_def();
                return None;
            }
        };
        loop {
            match self.qualifier_section(&mut def) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    errors.push(e);
                    // Drop the broken section, keep what already parsed,
                    // and continue at the next section of this definition
                    // (or hand back to the top level at a new one).
                    self.sync_to_section();
                    if !self.at_section_start() {
                        break;
                    }
                }
            }
        }
        def.span = start.to(self.prev_span());
        Some(def)
    }

    /// `value|ref qualifier name(subject)` — everything before the
    /// clause sections.
    fn qualifier_header(&mut self, start: Span) -> SResult<QualifierDef> {
        let kind = if self.eat_kw("value") {
            QualKind::Value
        } else if self.eat_kw("ref") {
            QualKind::Ref
        } else {
            return self.err("expected `value` or `ref`");
        };
        self.expect_kw("qualifier")?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let subject = self.var_decl_single()?;
        self.expect(&Tok::RParen)?;

        Ok(QualifierDef {
            name,
            kind,
            subject,
            cases: Vec::new(),
            restricts: Vec::new(),
            assigns: Vec::new(),
            disallow: Disallow::default(),
            ondecl: false,
            invariant: None,
            span: start,
        })
    }

    /// Parses one clause section into `def`. `Ok(false)` means the next
    /// token starts no section (the definition is complete).
    fn qualifier_section(&mut self, def: &mut QualifierDef) -> SResult<bool> {
        {
            if self.eat_kw("case") {
                let scrutinee = self.ident()?;
                if scrutinee != def.subject.name {
                    return self.err(format!(
                        "case block must scrutinize the subject `{}`",
                        def.subject.name
                    ));
                }
                self.expect_kw("of")?;
                def.cases.extend(self.clause_list()?);
            } else if self.eat_kw("restrict") {
                def.restricts.extend(self.clause_list()?);
            } else if self.eat_kw("assign") {
                let target = self.ident()?;
                if target != def.subject.name {
                    return self.err(format!(
                        "assign block must target the subject `{}`",
                        def.subject.name
                    ));
                }
                loop {
                    def.assigns.push(self.assign_rhs()?);
                    if self.peek() == &Tok::Pipe {
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else if self.eat_kw("disallow") {
                loop {
                    if self.peek() == &Tok::Amp {
                        self.bump();
                        let x = self.ident()?;
                        if x != def.subject.name {
                            return self.err("disallow must mention the subject");
                        }
                        def.disallow.addr_of = true;
                    } else {
                        let x = self.ident()?;
                        if x != def.subject.name {
                            return self.err("disallow must mention the subject");
                        }
                        def.disallow.ref_use = true;
                    }
                    if self.peek() == &Tok::Pipe {
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else if self.at_kw("ondecl") {
                self.bump();
                def.ondecl = true;
            } else if self.eat_kw("invariant") {
                def.invariant = Some(self.inv_pred()?);
            } else {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ----- error recovery -----

    /// True at a token sequence that can begin a qualifier definition.
    /// `value`/`ref` alone is not enough — `value` also occurs inside
    /// invariants (`value(E)`) — so require the following `qualifier`.
    fn at_def_start(&self) -> bool {
        (self.at_kw("value") || self.at_kw("ref"))
            && matches!(
                self.toks.get(self.pos + 1).map(|t| &t.tok),
                Some(Tok::Ident(s)) if s.as_str() == "qualifier"
            )
    }

    /// True at a keyword that begins a clause section.
    fn at_section_start(&self) -> bool {
        [
            "case",
            "restrict",
            "assign",
            "disallow",
            "ondecl",
            "invariant",
        ]
        .iter()
        .any(|k| self.at_kw(k))
    }

    /// Advances one token if any remain before the `Eof` sentinel (unlike
    /// [`P::bump`], which parks on the last token, this is the progress
    /// guarantee for the recovery loops).
    fn force_bump(&mut self) {
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
    }

    /// Skips past the current token to the next definition start or Eof.
    fn sync_to_def(&mut self) {
        self.force_bump();
        while self.peek() != &Tok::Eof && !self.at_def_start() {
            self.force_bump();
        }
    }

    /// Skips past the current token to the next section keyword,
    /// definition start, or Eof.
    fn sync_to_section(&mut self) {
        self.force_bump();
        while self.peek() != &Tok::Eof && !self.at_section_start() && !self.at_def_start() {
            self.force_bump();
        }
    }

    // ----- declarations -----

    fn type_pat(&mut self) -> SResult<TypePat> {
        let base = match self.peek().clone() {
            Tok::Ident(s) => match s.as_str() {
                "int" => {
                    self.bump();
                    TypePat::Int
                }
                "char" => {
                    self.bump();
                    TypePat::Char
                }
                _ => {
                    self.bump();
                    TypePat::Any(s)
                }
            },
            other => return self.err(format!("expected type pattern, found `{other}`")),
        };
        let mut ty = base;
        while self.peek() == &Tok::Star {
            self.bump();
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    fn classifier(&mut self) -> SResult<Classifier> {
        let name = self.ident()?;
        match name.as_str() {
            "Expr" => Ok(Classifier::Expr),
            "Const" => Ok(Classifier::Const),
            "LValue" => Ok(Classifier::LValue),
            "Var" => Ok(Classifier::Var),
            other => self.err(format!(
                "unknown classifier `{other}` (expected Expr, Const, LValue, or Var)"
            )),
        }
    }

    /// A single `type Classifier name` declaration (the subject).
    fn var_decl_single(&mut self) -> SResult<VarDecl> {
        let ty = self.type_pat()?;
        let classifier = self.classifier()?;
        let name = self.ident()?;
        Ok(VarDecl {
            name,
            ty,
            classifier,
        })
    }

    /// A `decl type Classifier n1, n2, …` declaration group.
    fn decl_group(&mut self) -> SResult<Vec<VarDecl>> {
        let ty = self.type_pat()?;
        let classifier = self.classifier()?;
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            out.push(VarDecl {
                name,
                ty: ty.clone(),
                classifier,
            });
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    // ----- clauses -----

    fn clause_list(&mut self) -> SResult<Vec<Clause>> {
        let mut out = vec![self.clause()?];
        while self.peek() == &Tok::Pipe {
            self.bump();
            out.push(self.clause()?);
        }
        Ok(out)
    }

    fn clause(&mut self) -> SResult<Clause> {
        let start = self.span();
        let mut decls = Vec::new();
        if self.eat_kw("decl") {
            decls = self.decl_group()?;
            self.expect(&Tok::Colon)?;
        }
        let pattern = self.pattern()?;
        let guard = if self.peek() == &Tok::Comma {
            self.bump();
            self.expect_kw("where")?;
            self.pred()?
        } else {
            Pred::True
        };
        Ok(Clause {
            decls,
            pattern,
            guard,
            span: start.to(self.prev_span()),
        })
    }

    fn pattern(&mut self) -> SResult<Pattern> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                Ok(Pattern::Unop(UnOp::Neg, self.ident()?))
            }
            Tok::Not => {
                self.bump();
                Ok(Pattern::Unop(UnOp::Not, self.ident()?))
            }
            Tok::Tilde => {
                self.bump();
                Ok(Pattern::Unop(UnOp::BitNot, self.ident()?))
            }
            Tok::Star => {
                self.bump();
                Ok(Pattern::Deref(self.ident()?))
            }
            Tok::Amp => {
                self.bump();
                Ok(Pattern::AddrOf(self.ident()?))
            }
            Tok::Ident(s) if s.as_str() == "new" => {
                self.bump();
                Ok(Pattern::New)
            }
            Tok::Ident(x) => {
                self.bump();
                let op = match self.peek() {
                    Tok::Plus => Some(BinOp::Add),
                    Tok::Minus => Some(BinOp::Sub),
                    Tok::Star => Some(BinOp::Mul),
                    Tok::Slash => Some(BinOp::Div),
                    Tok::Percent => Some(BinOp::Mod),
                    Tok::EqEq => Some(BinOp::Eq),
                    Tok::Ne => Some(BinOp::Ne),
                    Tok::Lt => Some(BinOp::Lt),
                    Tok::Le => Some(BinOp::Le),
                    Tok::Gt => Some(BinOp::Gt),
                    Tok::Ge => Some(BinOp::Ge),
                    Tok::AndAnd => Some(BinOp::And),
                    Tok::OrOr => Some(BinOp::Or),
                    _ => None,
                };
                match op {
                    None => Ok(Pattern::Var(x)),
                    Some(op) => {
                        self.bump();
                        let y = self.ident()?;
                        Ok(Pattern::Binop(op, x, y))
                    }
                }
            }
            other => self.err(format!("expected pattern, found `{other}`")),
        }
    }

    // ----- clause predicates -----

    fn pred(&mut self) -> SResult<Pred> {
        let mut lhs = self.pred_and()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.pred_and()?;
            lhs = Pred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_and(&mut self) -> SResult<Pred> {
        let mut lhs = self.pred_atom()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.pred_atom()?;
            lhs = Pred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pred_atom(&mut self) -> SResult<Pred> {
        if self.peek() == &Tok::LParen {
            self.bump();
            let inner = self.pred()?;
            self.expect(&Tok::RParen)?;
            return Ok(inner);
        }
        // Qualifier check: ident(ident).
        if let Tok::Ident(q) = self.peek().clone() {
            if self.toks[self.pos + 1].tok == Tok::LParen && q.as_str() != "value" {
                self.bump();
                self.expect(&Tok::LParen)?;
                let x = self.ident()?;
                self.expect(&Tok::RParen)?;
                return Ok(Pred::QualCheck(q, x));
            }
        }
        let a = self.pterm()?;
        let op = self.cmp_op()?;
        let b = self.pterm()?;
        Ok(Pred::Cmp(op, a, b))
    }

    fn pterm(&mut self) -> SResult<PTerm> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(PTerm::Int(v))
            }
            Tok::Minus => {
                self.bump();
                match self.bump() {
                    Tok::Int(v) => Ok(PTerm::Int(-v)),
                    other => self.err(format!("expected integer after `-`, found `{other}`")),
                }
            }
            Tok::Ident(s) if s.as_str() == "NULL" => {
                self.bump();
                Ok(PTerm::Null)
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(PTerm::Var(s))
            }
            other => self.err(format!("expected predicate term, found `{other}`")),
        }
    }

    fn cmp_op(&mut self) -> SResult<CmpOp> {
        let op = match self.peek() {
            Tok::EqEq | Tok::Assign => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            other => return self.err(format!("expected comparison operator, found `{other}`")),
        };
        self.bump();
        Ok(op)
    }

    // ----- assign -----

    fn assign_rhs(&mut self) -> SResult<AssignRhs> {
        match self.peek().clone() {
            Tok::Ident(s) if s.as_str() == "NULL" => {
                self.bump();
                Ok(AssignRhs::Null)
            }
            Tok::Ident(s) if s.as_str() == "new" => {
                self.bump();
                Ok(AssignRhs::New)
            }
            Tok::Ident(s) if s.as_str() == "const" => {
                self.bump();
                Ok(AssignRhs::Const)
            }
            other => self.err(format!(
                "expected assign form (NULL, new, or const), found `{other}`"
            )),
        }
    }

    // ----- invariants -----

    fn inv_pred(&mut self) -> SResult<InvPred> {
        let lhs = self.inv_or()?;
        if self.peek() == &Tok::FatArrow {
            self.bump();
            let rhs = self.inv_pred()?; // right associative
            return Ok(InvPred::Implies(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn inv_or(&mut self) -> SResult<InvPred> {
        let mut lhs = self.inv_and()?;
        while self.peek() == &Tok::OrOr {
            self.bump();
            let rhs = self.inv_and()?;
            lhs = InvPred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn inv_and(&mut self) -> SResult<InvPred> {
        let mut lhs = self.inv_atom()?;
        while self.peek() == &Tok::AndAnd {
            self.bump();
            let rhs = self.inv_atom()?;
            lhs = InvPred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn inv_atom(&mut self) -> SResult<InvPred> {
        if self.peek() == &Tok::Not {
            self.bump();
            let inner = self.inv_atom()?;
            return Ok(InvPred::Not(Box::new(inner)));
        }
        if self.peek() == &Tok::LParen {
            self.bump();
            let inner = self.inv_pred()?;
            self.expect(&Tok::RParen)?;
            return Ok(inner);
        }
        if self.at_kw("forall") {
            self.bump();
            let ty = self.type_pat()?;
            let var = self.ident()?;
            self.expect(&Tok::Colon)?;
            let body = self.inv_pred()?;
            return Ok(InvPred::Forall(var, ty, Box::new(body)));
        }
        if self.at_kw("isHeapLoc") {
            self.bump();
            self.expect(&Tok::LParen)?;
            let t = self.inv_term()?;
            self.expect(&Tok::RParen)?;
            return Ok(InvPred::IsHeapLoc(t));
        }
        let a = self.inv_term()?;
        let op = self.cmp_op()?;
        let b = self.inv_term()?;
        Ok(InvPred::Cmp(op, a, b))
    }

    fn inv_term(&mut self) -> SResult<InvTerm> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(InvTerm::Int(v))
            }
            Tok::Minus => {
                self.bump();
                match self.bump() {
                    Tok::Int(v) => Ok(InvTerm::Int(-v)),
                    other => self.err(format!("expected integer after `-`, found `{other}`")),
                }
            }
            Tok::Star => {
                self.bump();
                Ok(InvTerm::DerefVar(self.ident()?))
            }
            Tok::Ident(s) if s.as_str() == "NULL" => {
                self.bump();
                Ok(InvTerm::Null)
            }
            Tok::Ident(s) if s.as_str() == "value" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let x = self.ident()?;
                self.expect(&Tok::RParen)?;
                Ok(InvTerm::Value(x))
            }
            Tok::Ident(s) if s.as_str() == "location" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let x = self.ident()?;
                self.expect(&Tok::RParen)?;
                Ok(InvTerm::Location(x))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(InvTerm::Var(s))
            }
            other => self.err(format!("expected invariant term, found `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> QualifierDef {
        let defs = parse_qualifiers(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"));
        assert_eq!(defs.len(), 1, "expected one definition");
        defs.into_iter().next().expect("len checked")
    }

    #[test]
    fn figure1_pos() {
        let def = one("value qualifier pos(int Expr E)
                case E of
                    decl int Const C:
                        C, where C > 0
                  | decl int Expr E1, E2:
                        E1 * E2, where pos(E1) && pos(E2)
                  | decl int Expr E1:
                        -E1, where neg(E1)
                invariant value(E) > 0");
        assert_eq!(def.name.as_str(), "pos");
        assert_eq!(def.kind, QualKind::Value);
        assert_eq!(def.subject.classifier, Classifier::Expr);
        assert_eq!(def.subject.ty, TypePat::Int);
        assert_eq!(def.cases.len(), 3);
        assert_eq!(def.cases[1].decls.len(), 2);
        assert!(matches!(
            def.cases[1].pattern,
            Pattern::Binop(BinOp::Mul, _, _)
        ));
        assert!(matches!(def.cases[2].pattern, Pattern::Unop(UnOp::Neg, _)));
        assert_eq!(
            def.invariant,
            Some(InvPred::Cmp(
                CmpOp::Gt,
                InvTerm::Value(Symbol::intern("E")),
                InvTerm::Int(0)
            ))
        );
        assert!(def.referenced_qualifiers().contains(&Symbol::intern("neg")));
    }

    #[test]
    fn figure3_nonzero_with_restrict() {
        let def = one("value qualifier nonzero(int Expr E)
                case E of
                    decl int Const C:
                        C, where C != 0
                  | decl int Expr E1:
                        E1, where pos(E1)
                  | decl int Expr E1, E2:
                        E1 * E2, where nonzero(E1) && nonzero(E2)
                restrict decl int Expr E1, E2:
                    E1 / E2, where nonzero(E2)
                invariant value(E) != 0");
        assert_eq!(def.cases.len(), 3);
        assert_eq!(def.restricts.len(), 1);
        assert!(matches!(
            def.restricts[0].pattern,
            Pattern::Binop(BinOp::Div, _, _)
        ));
    }

    #[test]
    fn figure4_taintedness() {
        let defs = parse_qualifiers(
            "value qualifier untainted(T Expr E)
             value qualifier tainted(T Expr E)
                case E of
                    decl T Expr E1:
                        E1",
        )
        .unwrap();
        assert_eq!(defs.len(), 2);
        assert!(defs[0].cases.is_empty());
        assert!(defs[0].invariant.is_none());
        assert_eq!(defs[1].cases.len(), 1);
        assert_eq!(defs[1].cases[0].guard, Pred::True);
        assert_eq!(defs[0].subject.ty, TypePat::Any(Symbol::intern("T")));
    }

    #[test]
    fn figure5_unique() {
        let def = one("ref qualifier unique(T* LValue L)
                assign L NULL | new
                disallow L
                invariant value(L) == NULL ||
                    (isHeapLoc(value(L)) &&
                     forall T** P: *P == value(L) => P == location(L))");
        assert_eq!(def.kind, QualKind::Ref);
        assert_eq!(def.subject.classifier, Classifier::LValue);
        assert_eq!(def.subject.ty, TypePat::Any(Symbol::intern("T")).ptr_to());
        assert_eq!(def.assigns, vec![AssignRhs::Null, AssignRhs::New]);
        assert!(def.disallow.ref_use);
        assert!(!def.disallow.addr_of);
        match def.invariant.unwrap() {
            InvPred::Or(lhs, rhs) => {
                assert!(matches!(*lhs, InvPred::Cmp(CmpOp::Eq, _, InvTerm::Null)));
                match *rhs {
                    InvPred::And(heap, forall) => {
                        assert!(matches!(*heap, InvPred::IsHeapLoc(_)));
                        match *forall {
                            InvPred::Forall(p, ty, body) => {
                                assert_eq!(p.as_str(), "P");
                                assert_eq!(ty, TypePat::Any(Symbol::intern("T")).ptr_to().ptr_to());
                                assert!(matches!(*body, InvPred::Implies(_, _)));
                            }
                            other => panic!("expected forall, got {other:?}"),
                        }
                    }
                    other => panic!("expected and, got {other:?}"),
                }
            }
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn figure5_single_equals_also_parses() {
        // The paper's figure uses single `=` inside the invariant.
        let def = one("ref qualifier unique(T* LValue L)
                assign L NULL | new
                disallow L
                invariant value(L) = NULL ||
                    (isHeapLoc(value(L)) &&
                     forall T** P: *P = value(L) => P = location(L))");
        assert!(def.invariant.is_some());
    }

    #[test]
    fn figure7_unaliased() {
        let def = one("ref qualifier unaliased(T Var X)
                ondecl
                disallow &X
                invariant forall T** P: *P != location(X)");
        assert!(def.ondecl);
        assert!(def.disallow.addr_of);
        assert!(!def.disallow.ref_use);
        assert_eq!(def.subject.classifier, Classifier::Var);
    }

    #[test]
    fn figure12_nonnull() {
        let def = one("value qualifier nonnull(T* Expr E)
                case E of
                    decl T LValue L:
                        &L
                restrict decl T* Expr E:
                    *E, where nonnull(E)
                invariant value(E) != NULL");
        assert!(matches!(def.cases[0].pattern, Pattern::AddrOf(_)));
        assert!(matches!(def.restricts[0].pattern, Pattern::Deref(_)));
        assert_eq!(def.cases[0].decls[0].classifier, Classifier::LValue);
    }

    #[test]
    fn untainted_constants_extension() {
        // §2.1.4: "all constants should be trusted".
        let def = one("value qualifier untainted(T Expr E)
                case E of
                    decl T Const C:
                        C");
        assert_eq!(def.cases.len(), 1);
        assert!(matches!(def.cases[0].pattern, Pattern::Var(_)));
        assert_eq!(def.cases[0].decls[0].classifier, Classifier::Const);
    }

    #[test]
    fn case_must_scrutinize_subject() {
        let r = parse_qualifiers(
            "value qualifier q(int Expr E)
                case F of
                    decl int Const C: C",
        );
        assert!(r.is_err());
    }

    #[test]
    fn unknown_classifier_errors() {
        let r = parse_qualifiers("value qualifier q(int Thing E)");
        assert!(r.is_err());
        assert!(r.unwrap_err().message.contains("classifier"));
    }

    #[test]
    fn disallow_must_mention_subject() {
        let r = parse_qualifiers(
            "ref qualifier q(T* LValue L)
                disallow M",
        );
        assert!(r.is_err());
    }

    #[test]
    fn disjunctive_guard() {
        let def = one("value qualifier q(int Expr E)
                case E of
                    decl int Expr E1, E2:
                        E1 + E2, where (pos(E1) && pos(E2)) || (neg(E1) && neg(E2))");
        assert!(matches!(def.cases[0].guard, Pred::Or(_, _)));
    }

    #[test]
    fn spans_cover_definitions() {
        let src = "value qualifier pos(int Expr E)
            invariant value(E) > 0";
        let def = one(src);
        assert_eq!(def.span.start, 0);
        assert!(def.span.end as usize >= src.len() - 2);
    }

    #[test]
    fn resilient_parse_of_clean_source_matches_strict() {
        let src = "value qualifier pos(int Expr E)
                case E of
                    decl int Const C: C, where C > 0
                invariant value(E) > 0
            ref qualifier u(T* LValue L)
                assign L NULL | new
                invariant value(L) == NULL";
        let strict = parse_qualifiers(src).unwrap();
        let (defs, errors) = parse_qualifiers_resilient(src);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(defs.len(), strict.len());
        assert_eq!(defs[0].name, strict[0].name);
        assert_eq!(defs[1].assigns, strict[1].assigns);
    }

    #[test]
    fn resilient_parse_recovers_at_the_next_definition() {
        // The first definition's header is broken; the second must
        // still parse.
        let src = "value qualifier (int Expr E)
                invariant value(E) > 0
            value qualifier good(int Expr E)
                invariant value(E) > 0";
        assert!(parse_qualifiers(src).is_err());
        let (defs, errors) = parse_qualifiers_resilient(src);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name.as_str(), "good");
    }

    #[test]
    fn resilient_parse_recovers_at_the_next_section() {
        // A broken case clause must not lose the invariant section (or
        // the following definition).
        let src = "value qualifier broken(int Expr E)
                case E of
                    decl int Const C: ;;, where C > 0
                invariant value(E) > 0
            value qualifier fine(int Expr E)
                invariant value(E) > 1";
        let (defs, errors) = parse_qualifiers_resilient(src);
        assert!(!errors.is_empty());
        assert_eq!(defs.len(), 2, "{defs:?}");
        assert_eq!(defs[0].name.as_str(), "broken");
        assert!(defs[0].invariant.is_some(), "later section kept");
        assert_eq!(defs[1].name.as_str(), "fine");
    }

    #[test]
    fn resilient_parse_collects_multiple_diagnostics() {
        let src = "value qualifier a(int Expr E)
                invariant value(E) >
            value qualifier b(int Expr E)
                case E of
                invariant value(E) > 0
            value qualifier c(int Expr E)
                invariant value(E) > 0";
        let (defs, errors) = parse_qualifiers_resilient(src);
        assert!(errors.len() >= 2, "{errors:?}");
        assert!(defs.iter().any(|d| d.name.as_str() == "c"));
    }

    #[test]
    fn resilient_parse_of_garbage_terminates_with_diagnostics() {
        let (defs, errors) = parse_qualifiers_resilient("((((( ,,, |||");
        assert!(defs.is_empty());
        assert!(!errors.is_empty());
        let (defs, errors) = parse_qualifiers_resilient("");
        assert!(defs.is_empty() && errors.is_empty());
    }
}
