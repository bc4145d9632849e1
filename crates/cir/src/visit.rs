//! Structural traversal: which node of the tree holds which children.
//!
//! The shapes of [`crate::ast`] are spelled out once, here, for every
//! pass that only needs to reach nodes: each statement of a body, each
//! expression a statement holds, each subexpression of an expression.
//! Every walk is pre-order and in source order, and takes a callback, so
//! none allocates. Expressions are reached as ids into the program's
//! [`Arena`]; a pass that rewrites one finds its id with a walk, then
//! edits the arena. [`Stmt::walk_mut`] calls its callback on a statement
//! before descending into whatever the callback left there, so a
//! callback may rewrite the statement it is handed and the walk goes on
//! below the rewritten statement.
//!
//! The walks decide nothing. A pass that treats each shape differently —
//! the checker, the interpreter, the printer, the rebuilders that
//! instrument a program — keeps its own `match`.

use crate::ast::*;

impl Stmt {
    /// Calls `f` on this statement, then on every statement nested in
    /// it: block members, `if` branches and `while` bodies, pre-order, in
    /// source order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Block(stmts) => {
                for s in stmts {
                    s.walk(f);
                }
            }
            StmtKind::If(_, then, els) => {
                then.walk(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            StmtKind::While(_, body) => body.walk(f),
            StmtKind::Instr(_) | StmtKind::Return(_) | StmtKind::Decl(_) => {}
        }
    }

    /// [`Stmt::walk`] with mutable access. `f` sees each statement
    /// before the walk descends into the statements it holds once `f`
    /// returns.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Stmt)) {
        f(self);
        match &mut self.kind {
            StmtKind::Block(stmts) => {
                for s in stmts {
                    s.walk_mut(f);
                }
            }
            StmtKind::If(_, then, els) => {
                then.walk_mut(f);
                if let Some(e) = els {
                    e.walk_mut(f);
                }
            }
            StmtKind::While(_, body) => body.walk_mut(f),
            StmtKind::Instr(_) | StmtKind::Return(_) | StmtKind::Decl(_) => {}
        }
    }

    /// Calls `f` on each expression this statement holds itself — not
    /// those of the statements nested in it — in source order: an
    /// instruction's target first (the expressions its l-value
    /// dereferences, see [`Arena::lval_exprs`]), then its operands; a
    /// condition, a returned value or an initializer. A run-time check's
    /// expression counts too. `arena` is the program's.
    pub fn exprs(&self, arena: &Arena, f: &mut impl FnMut(ExprId)) {
        match &self.kind {
            StmtKind::Instr(i) => match &i.kind {
                InstrKind::Set(lv, e) | InstrKind::Alloc(lv, e) => {
                    arena.lval_exprs(*lv, f);
                    f(*e);
                }
                InstrKind::Call(dst, _, args) => {
                    if let Some(lv) = dst {
                        arena.lval_exprs(*lv, f);
                    }
                    for &a in args {
                        f(a);
                    }
                }
                InstrKind::RuntimeCheck(_, e) => f(*e),
            },
            StmtKind::If(cond, ..) | StmtKind::While(cond, _) => f(*cond),
            StmtKind::Return(Some(e)) => f(*e),
            StmtKind::Decl(d) => {
                if let Some(e) = d.init {
                    f(e);
                }
            }
            StmtKind::Block(_) | StmtKind::Return(None) => {}
        }
    }
}

impl Arena {
    /// Calls `f` on the expression `e`, then on every subexpression,
    /// pre-order, in source order — through l-values to the pointers
    /// they dereference (`p` in `p->f`, `a + i` in `a[i]`).
    pub fn walk_expr(&self, e: ExprId, f: &mut impl FnMut(ExprId)) {
        f(e);
        match self[e].kind {
            ExprKind::Unop(_, a) | ExprKind::Cast(_, a) => self.walk_expr(a, f),
            ExprKind::Binop(_, a, b) => {
                self.walk_expr(a, f);
                self.walk_expr(b, f);
            }
            ExprKind::Lval(lv) | ExprKind::AddrOf(lv) => {
                self.lval_exprs(lv, &mut |e| self.walk_expr(e, f));
            }
            ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null | ExprKind::SizeOf(_) => {}
        }
    }

    /// Calls `f` on the expression the l-value `lv` dereferences, if
    /// any: `e` in `*e` and in `(*e).f.g`; nothing for a variable or its
    /// fields. Walk it with [`Arena::walk_expr`] to reach the l-values
    /// nested inside.
    pub fn lval_exprs(&self, mut lv: LvalId, f: &mut impl FnMut(ExprId)) {
        loop {
            match self[lv].kind {
                LvalKind::Var(_) => return,
                LvalKind::Deref(e) => return f(e),
                LvalKind::Field(inner, _) => lv = inner,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parse::parse_program;
    use crate::pretty::expr_to_string;

    fn parse(src: &str) -> Program {
        parse_program(src, &["pos"]).expect("parses")
    }

    /// Every expression of the last function's body, pre-order, printed.
    fn all_exprs(p: &Program) -> Vec<String> {
        let a = &p.arena;
        let mut out = Vec::new();
        for s in &p.funcs.last().expect("one function").body {
            s.walk(&mut |s| {
                s.exprs(a, &mut |e| {
                    a.walk_expr(e, &mut |e| out.push(expr_to_string(a, e)))
                })
            });
        }
        out
    }

    #[test]
    fn statements_are_walked_pre_order_in_source_order() {
        let p = parse(
            "int f(int x) {
                 if (x) { x = 1; } else { while (x) x = 2; }
                 return x;
             }",
        );
        let mut kinds = Vec::new();
        for s in &p.funcs[0].body {
            s.walk(&mut |s| {
                kinds.push(match &s.kind {
                    StmtKind::Instr(_) => "instr",
                    StmtKind::Block(_) => "block",
                    StmtKind::If(..) => "if",
                    StmtKind::While(..) => "while",
                    StmtKind::Return(_) => "return",
                    StmtKind::Decl(_) => "decl",
                })
            });
        }
        assert_eq!(
            kinds,
            ["if", "block", "instr", "block", "while", "instr", "return"]
        );
    }

    #[test]
    fn a_target_comes_before_the_right_hand_side() {
        let p = parse("int f(int* p, int k) { *(p + k) = (int pos) k; return 0; }");
        assert_eq!(all_exprs(&p), ["p + k", "p", "k", "(int pos) k", "k", "0"]);
    }

    #[test]
    fn expressions_are_reached_through_l_values() {
        let p = parse("int f(int** pp) { int* q = &(*(*pp)).x; return 0; }");
        assert_eq!(all_exprs(&p), ["&*pp->x", "*pp", "pp", "0"]);
    }

    #[test]
    fn walk_mut_descends_into_what_the_callback_left() {
        // Replacing a statement walks the replacement's nested statements.
        let mut p = parse("int f(int x) { if (x) { while (x) x = 0; } return x; }");
        let mut seen = 0;
        for s in &mut p.funcs[0].body {
            s.walk_mut(&mut |s| {
                seen += 1;
                if let StmtKind::If(_, then, _) = &mut s.kind {
                    let hoisted =
                        std::mem::replace(&mut **then, Stmt::new(StmtKind::Block(vec![])));
                    *s = hoisted;
                }
            });
        }
        // The `if`, which became its block; the `while` and `x = 0` in
        // that block; the return.
        assert_eq!(seen, 4);
    }
}
