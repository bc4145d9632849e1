//! Operator precedence and associativity, pinned as a table.
//!
//! Each row is one C expression, returned from a function, and either
//! its printed form or the exact parse error it gets. The printer
//! parenthesizes every compound operand, so the printed form shows the
//! tree the parser built. Comparisons are non-associative: a chained
//! comparison is an error at its second operator.

use stq_cir::parse::parse_program;
use stq_cir::pretty::program_to_string;

const PREFIX: &str = "int t(int a, int b, int c, int d, int e, int f, int x) { return ";

/// Parses `expr` as a returned expression: `Ok` with its printed form,
/// or `Err` with the parse error as it displays.
fn parse_returned(expr: &str) -> Result<String, String> {
    let src = format!("{PREFIX}{expr}; }}");
    let program = parse_program(&src, &["pos"]).map_err(|e| e.to_string())?;
    let printed = program_to_string(&program);
    let line = printed
        .lines()
        .find_map(|l| l.trim().strip_prefix("return "))
        .unwrap_or_else(|| panic!("no return in\n{printed}"));
    Ok(line.trim_end_matches(';').to_owned())
}

#[test]
fn precedence_and_associativity_table() {
    let rows: &[(&str, Result<&str, &str>)] = &[
        // Left-associative chains.
        ("a - b - c", Ok("(a - b) - c")),
        ("a / b % c", Ok("(a / b) % c")),
        ("a + b - c + d", Ok("((a + b) - c) + d")),
        ("a || b || c", Ok("(a || b) || c")),
        // `*` over `+`, `&&` over `||`.
        ("a + b * c", Ok("a + (b * c)")),
        ("a * b + c", Ok("(a * b) + c")),
        ("a || b && c", Ok("a || (b && c)")),
        ("a && b || c", Ok("(a && b) || c")),
        // Unary operators and casts bind tighter than `*`.
        ("-a * b", Ok("(-a) * b")),
        ("!a * b", Ok("(!a) * b")),
        ("(int pos) a + b", Ok("((int pos) a) + b")),
        ("(int pos) a * -b", Ok("((int pos) a) * (-b)")),
        // Comparisons sit between `+` and `&&`.
        (
            "a < b && c >= d || e != f",
            Ok("((a < b) && (c >= d)) || (e != f)"),
        ),
        ("a + b < c * d", Ok("(a + b) < (c * d)")),
        // A parenthesized comparison is an ordinary operand.
        ("(a < b) < c", Ok("(a < b) < c")),
        ("a + (b < c)", Ok("a + (b < c)")),
        ("a == (b == c)", Ok("a == (b == c)")),
        // Chained comparisons are errors, at the second comparison.
        (
            "a < b < c",
            Err("parse error at 70..71: expected `;`, found `<`"),
        ),
        (
            "a == b == c",
            Err("parse error at 71..73: expected `;`, found `==`"),
        ),
        (
            "x && a < b < c",
            Err("parse error at 75..76: expected `;`, found `<`"),
        ),
        (
            "a < b + c < d",
            Err("parse error at 74..75: expected `;`, found `<`"),
        ),
    ];
    let mut wrong = Vec::new();
    for (expr, want) in rows {
        let got = parse_returned(expr);
        let want = want.map(str::to_owned).map_err(str::to_owned);
        if got != want {
            wrong.push(format!("{expr}: got {got:?}, want {want:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
