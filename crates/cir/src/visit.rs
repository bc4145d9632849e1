//! Structural traversal: which node of the tree holds which children.
//!
//! The shapes of [`crate::ast`] are spelled out once, here, for every
//! pass that only needs to reach nodes: each statement of a body, each
//! expression a statement holds, each subexpression of an expression.
//! Every walk is pre-order and in source order, and takes a callback, so
//! none allocates. Each has a `&mut` twin that calls the callback on a
//! node before descending into whatever the callback left there, so a
//! callback may rewrite the node it is handed and the walk goes on below
//! the rewritten node.
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
    /// dereferences, see [`Lvalue::exprs`]), then its operands; a
    /// condition, a returned value or an initializer. A run-time check's
    /// expression counts too.
    pub fn exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Instr(i) => match &i.kind {
                InstrKind::Set(lv, e) | InstrKind::Alloc(lv, e) => {
                    lv.exprs(f);
                    f(e);
                }
                InstrKind::Call(dst, _, args) => {
                    if let Some(lv) = dst {
                        lv.exprs(f);
                    }
                    for a in args {
                        f(a);
                    }
                }
                InstrKind::RuntimeCheck(_, e) => f(e),
            },
            StmtKind::If(cond, ..) | StmtKind::While(cond, _) => f(cond),
            StmtKind::Return(Some(e)) => f(e),
            StmtKind::Decl(d) => {
                if let Some(e) = &d.init {
                    f(e);
                }
            }
            StmtKind::Block(_) | StmtKind::Return(None) => {}
        }
    }

    /// [`Stmt::exprs`] with mutable access.
    pub fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match &mut self.kind {
            StmtKind::Instr(i) => match &mut i.kind {
                InstrKind::Set(lv, e) | InstrKind::Alloc(lv, e) => {
                    lv.exprs_mut(f);
                    f(e);
                }
                InstrKind::Call(dst, _, args) => {
                    if let Some(lv) = dst {
                        lv.exprs_mut(f);
                    }
                    for a in args {
                        f(a);
                    }
                }
                InstrKind::RuntimeCheck(_, e) => f(e),
            },
            StmtKind::If(cond, ..) | StmtKind::While(cond, _) => f(cond),
            StmtKind::Return(Some(e)) => f(e),
            StmtKind::Decl(d) => {
                if let Some(e) = &mut d.init {
                    f(e);
                }
            }
            StmtKind::Block(_) | StmtKind::Return(None) => {}
        }
    }
}

impl Expr {
    /// Calls `f` on this expression, then on every subexpression,
    /// pre-order, in source order — through l-values to the pointers
    /// they dereference (`p` in `p->f`, `a + i` in `a[i]`).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unop(_, a) | ExprKind::Cast(_, a) => a.walk(f),
            ExprKind::Binop(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Lval(lv) | ExprKind::AddrOf(lv) => lv.exprs(&mut |e| e.walk(f)),
            ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null | ExprKind::SizeOf(_) => {}
        }
    }

    /// [`Expr::walk`] with mutable access. `f` sees each expression
    /// before the walk descends into the subexpressions it holds once
    /// `f` returns.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match &mut self.kind {
            ExprKind::Unop(_, a) | ExprKind::Cast(_, a) => a.walk_mut(f),
            ExprKind::Binop(_, a, b) => {
                a.walk_mut(f);
                b.walk_mut(f);
            }
            ExprKind::Lval(lv) | ExprKind::AddrOf(lv) => lv.exprs_mut(&mut |e| e.walk_mut(f)),
            ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null | ExprKind::SizeOf(_) => {}
        }
    }
}

impl Lvalue {
    /// Calls `f` on the expression this l-value dereferences, if any:
    /// `e` in `*e` and in `(*e).f.g`; nothing for a variable or its
    /// fields. Walk it with [`Expr::walk`] to reach the l-values nested
    /// inside.
    pub fn exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            LvalKind::Var(_) => {}
            LvalKind::Deref(e) => f(e),
            LvalKind::Field(inner, _) => inner.exprs(f),
        }
    }

    /// [`Lvalue::exprs`] with mutable access.
    pub fn exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match &mut self.kind {
            LvalKind::Var(_) => {}
            LvalKind::Deref(e) => f(e),
            LvalKind::Field(inner, _) => inner.exprs_mut(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parse::parse_program;
    use crate::pretty::expr_to_string;

    fn body(src: &str) -> Vec<Stmt> {
        let mut p = parse_program(src, &["pos"]).expect("parses");
        p.funcs.pop().expect("one function").body
    }

    /// Every expression of `stmts`, pre-order, printed.
    fn all_exprs(stmts: &[Stmt]) -> Vec<String> {
        let mut out = Vec::new();
        for s in stmts {
            s.walk(&mut |s| s.exprs(&mut |e| e.walk(&mut |e| out.push(expr_to_string(e)))));
        }
        out
    }

    #[test]
    fn statements_are_walked_pre_order_in_source_order() {
        let b = body(
            "int f(int x) {
                 if (x) { x = 1; } else { while (x) x = 2; }
                 return x;
             }",
        );
        let mut kinds = Vec::new();
        for s in &b {
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
        let b = body("int f(int* p, int k) { *(p + k) = (int pos) k; return 0; }");
        assert_eq!(all_exprs(&b), ["p + k", "p", "k", "(int pos) k", "k", "0"]);
    }

    #[test]
    fn expressions_are_reached_through_l_values() {
        let b = body("int f(int** pp) { int* q = &(*(*pp)).x; return 0; }");
        assert_eq!(all_exprs(&b), ["&*pp->x", "*pp", "pp", "0"]);
    }

    #[test]
    fn walk_mut_descends_into_what_the_callback_left() {
        // Swapping every binary operation's operands: the walk reaches
        // the operands in their swapped order.
        let mut b = body("int f(int a, int b, int c) { return (a - b) / c; }");
        let mut leaves = Vec::new();
        for s in &mut b {
            s.exprs_mut(&mut |e| {
                e.walk_mut(&mut |e| match &mut e.kind {
                    ExprKind::Binop(_, l, r) => std::mem::swap(l, r),
                    _ => leaves.push(expr_to_string(e)),
                })
            });
        }
        assert_eq!(leaves, ["c", "b", "a"]);
        let mut printed = Vec::new();
        for s in &b {
            s.exprs(&mut |e| printed.push(expr_to_string(e)));
        }
        assert_eq!(printed, ["c / (b - a)"]);

        // Replacing a statement walks the replacement's nested statements.
        let mut b = body("int f(int x) { if (x) { while (x) x = 0; } return x; }");
        let mut seen = 0;
        for s in &mut b {
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
