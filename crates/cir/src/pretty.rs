//! Pretty-printer: renders the IR back to C-subset source.
//!
//! Used by the experiment harness to materialize the synthetic corpora
//! (the paper counts "non-blank, non-comment lines of code", which we
//! measure over this printer's output) and by diagnostics.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program as C-subset source text.
///
/// The output round-trips through [`crate::parse::parse_program`] provided
/// the same qualifier set is supplied (run-time check instructions print
/// as `__stq_check_<qual>(e)` calls and do not round-trip).
pub fn program_to_string(p: &Program) -> String {
    let a = &p.arena;
    let mut out = String::new();
    for s in &p.structs {
        let _ = writeln!(out, "struct {} {{", s.name);
        for (name, ty) in &s.fields {
            let _ = writeln!(out, "    {ty} {name};");
        }
        let _ = writeln!(out, "}};");
    }
    for g in &p.globals {
        match g.init {
            Some(e) => {
                let _ = writeln!(out, "{} {} = {};", g.ty, g.name, expr_to_string(a, e));
            }
            None => {
                let _ = writeln!(out, "{} {};", g.ty, g.name);
            }
        }
    }
    for proto in &p.protos {
        let _ = writeln!(
            out,
            "{} {}({});",
            proto.sig.ret,
            proto.name,
            params_to_string(&proto.sig)
        );
    }
    for f in &p.funcs {
        let _ = writeln!(
            out,
            "{} {}({}) {{",
            f.sig.ret,
            f.name,
            params_to_string(&f.sig)
        );
        for stmt in &f.body {
            write_stmt(&mut out, a, stmt, 1);
        }
        let _ = writeln!(out, "}}");
    }
    out
}

fn params_to_string(sig: &FuncSig) -> String {
    let mut parts: Vec<String> = sig
        .params
        .iter()
        .map(|(name, ty)| format!("{ty} {name}"))
        .collect();
    if sig.varargs {
        parts.push("...".to_owned());
    }
    if parts.is_empty() {
        "void".to_owned()
    } else {
        parts.join(", ")
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_stmt(out: &mut String, a: &Arena, stmt: &Stmt, level: usize) {
    match &stmt.kind {
        StmtKind::Instr(i) => {
            indent(out, level);
            let _ = writeln!(out, "{}", instr_to_string(a, i));
        }
        StmtKind::Block(stmts) => {
            indent(out, level);
            out.push_str("{\n");
            for s in stmts {
                write_stmt(out, a, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::If(cond, then, els) => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) {{", expr_to_string(a, *cond));
            write_body(out, a, then, level);
            match els {
                None => {
                    indent(out, level);
                    out.push_str("}\n");
                }
                Some(e) => {
                    indent(out, level);
                    out.push_str("} else {\n");
                    write_body(out, a, e, level);
                    indent(out, level);
                    out.push_str("}\n");
                }
            }
        }
        StmtKind::While(cond, body) => {
            indent(out, level);
            let _ = writeln!(out, "while ({}) {{", expr_to_string(a, *cond));
            write_body(out, a, body, level);
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Return(None) => {
            indent(out, level);
            out.push_str("return;\n");
        }
        StmtKind::Return(Some(e)) => {
            indent(out, level);
            let _ = writeln!(out, "return {};", expr_to_string(a, *e));
        }
        StmtKind::Decl(d) => {
            indent(out, level);
            match d.init {
                Some(e) => {
                    let _ = writeln!(out, "{} {} = {};", d.ty, d.name, expr_to_string(a, e));
                }
                None => {
                    let _ = writeln!(out, "{} {};", d.ty, d.name);
                }
            }
        }
    }
}

/// Writes the inside of an `if`/`while` body (flattening a block).
fn write_body(out: &mut String, a: &Arena, stmt: &Stmt, level: usize) {
    match &stmt.kind {
        StmtKind::Block(stmts) => {
            for s in stmts {
                write_stmt(out, a, s, level + 1);
            }
        }
        _ => write_stmt(out, a, stmt, level + 1),
    }
}

/// Renders a single instruction; `a` is its program's arena.
pub fn instr_to_string(a: &Arena, i: &Instr) -> String {
    match &i.kind {
        InstrKind::Set(lv, e) => {
            format!("{} = {};", lval_to_string(a, *lv), expr_to_string(a, *e))
        }
        InstrKind::Call(None, f, args) => format!("{f}({});", args_to_string(a, args)),
        InstrKind::Call(Some(lv), f, args) => {
            format!(
                "{} = {f}({});",
                lval_to_string(a, *lv),
                args_to_string(a, args)
            )
        }
        InstrKind::Alloc(lv, size) => {
            format!(
                "{} = malloc({});",
                lval_to_string(a, *lv),
                expr_to_string(a, *size)
            )
        }
        InstrKind::RuntimeCheck(q, e) => {
            format!("__stq_check_{q}({});", expr_to_string(a, *e))
        }
    }
}

fn args_to_string(a: &Arena, args: &[ExprId]) -> String {
    args.iter()
        .map(|&e| expr_to_string(a, e))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders an expression (fully parenthesized where precedence matters).
pub fn expr_to_string(a: &Arena, e: ExprId) -> String {
    match &a[e].kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::StrLit(s) => format!("{:?}", s),
        ExprKind::Null => "NULL".to_owned(),
        ExprKind::Lval(lv) => lval_to_string(a, *lv),
        ExprKind::AddrOf(lv) => format!("&{}", lval_to_string(a, *lv)),
        ExprKind::Unop(op, x) => {
            // A negative-literal operand renders starting with `-`; left
            // bare it would fuse with a `-` operator into an unparseable
            // `--` token (found by `stqc fuzz`'s round-trip oracle).
            let inner = atom(a, *x);
            if inner.starts_with('-') {
                format!("{op}({inner})")
            } else {
                format!("{op}{inner}")
            }
        }
        ExprKind::Binop(op, x, y) => format!("{} {op} {}", atom(a, *x), atom(a, *y)),
        ExprKind::Cast(ty, x) => format!("({ty}) {}", atom(a, *x)),
        ExprKind::SizeOf(ty) => format!("sizeof({ty})"),
    }
}

/// Renders an expression, parenthesizing anything compound.
fn atom(a: &Arena, e: ExprId) -> String {
    match &a[e].kind {
        ExprKind::IntLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Null
        | ExprKind::Lval(_)
        | ExprKind::SizeOf(_)
        | ExprKind::AddrOf(_) => expr_to_string(a, e),
        _ => format!("({})", expr_to_string(a, e)),
    }
}

/// Renders an l-value.
pub fn lval_to_string(a: &Arena, lv: LvalId) -> String {
    match &a[lv].kind {
        LvalKind::Var(v) => v.to_string(),
        LvalKind::Deref(e) => format!("*{}", atom(a, *e)),
        LvalKind::Field(inner, f) => match &a[*inner].kind {
            // Print (*e).f back as e->f for readability.
            LvalKind::Deref(e) => format!("{}->{f}", atom(a, *e)),
            _ => format!("{}.{f}", lval_to_string(a, *inner)),
        },
    }
}

/// Counts non-blank lines in rendered source (the paper's "non-blank,
/// non-comment lines"; the printer emits no comments).
pub fn count_lines(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    const QUALS: &[&str] = &["pos", "nonnull", "unique", "untainted"];

    fn round_trip(src: &str) {
        let p1 = parse_program(src, QUALS).expect("first parse");
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed, QUALS)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        let printed2 = program_to_string(&p2);
        assert_eq!(printed, printed2, "printer not idempotent");
    }

    #[test]
    fn round_trip_lcm() {
        round_trip(
            r#"
            int pos gcd(int pos n, int pos m);
            int pos lcm(int pos a, int pos b) {
                int pos d = gcd(a, b);
                int pos prod = a * b;
                return (int pos) (prod / d);
            }
            "#,
        );
    }

    #[test]
    fn round_trip_structs_and_loops() {
        round_trip(
            r#"
            struct dfa { int* trans; int works; };
            struct dfa* unique d;
            void build(int n) {
                d = malloc(sizeof(struct dfa));
                for (int i = 0; i < n; i++) {
                    if (d->trans != NULL) {
                        d->works = i;
                    } else {
                        d->works = 0 - 1;
                    }
                }
            }
            "#,
        );
    }

    #[test]
    fn round_trip_strings_and_calls() {
        round_trip(
            r#"
            int printf(char * untainted fmt, ...);
            void f(char* buf) {
                char * untainted fmt = (char * untainted) "%s\n";
                printf(fmt, buf);
            }
            "#,
        );
    }

    #[test]
    fn runtime_check_prints() {
        let mut a = Arena::default();
        let x = a.var("x");
        let i = Instr::new(InstrKind::RuntimeCheck(stq_util::Symbol::intern("pos"), x));
        assert_eq!(instr_to_string(&a, &i), "__stq_check_pos(x);");
    }

    #[test]
    fn expr_precedence_is_parenthesized() {
        let mut a = Arena::default();
        let (x, y, z) = (a.var("a"), a.var("b"), a.var("c"));
        let sum = a.binop(BinOp::Add, x, y);
        let e = a.binop(BinOp::Mul, sum, z);
        assert_eq!(expr_to_string(&a, e), "(a + b) * c");
    }

    #[test]
    fn arrow_field_prints_back() {
        let mut a = Arena::default();
        let e = a.var("e");
        let deref = a.deref(e);
        let lv = a.field(deref, "d_name");
        assert_eq!(lval_to_string(&a, lv), "e->d_name");
    }

    #[test]
    fn count_lines_skips_blanks() {
        assert_eq!(count_lines("a\n\n  \nb\n"), 2);
        assert_eq!(count_lines(""), 0);
    }
}
