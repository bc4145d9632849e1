//! Property tests over randomly generated C-subset programs:
//!
//! * the pretty-printer's output re-parses, and printing is idempotent
//!   (print ∘ parse ∘ print = print);
//! * the interpreter is deterministic and never panics — it either
//!   completes or reports a structured runtime error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use stq_cir::interp::{run_entry, InterpConfig, NoChecks, Value};
use stq_cir::parse::parse_program;
use stq_cir::pretty::program_to_string;
use stq_util::Symbol;

const QUALS: &[&str] = &["pos", "neg", "nonzero", "nonnull", "untainted"];

/// Generates a random but *parseable* program as source text. The
/// generator emits well-scoped variables; it does not try to be
/// well-typed, only syntactically valid.
fn random_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let n_funcs = rng.gen_range(1..4);
    for f in 0..n_funcs {
        let n_params = rng.gen_range(0..3usize);
        let params: Vec<String> = (0..n_params)
            .map(|i| format!("{} p{i}", random_type(&mut rng)))
            .collect();
        let _ = writeln!(
            out,
            "int f{f}({}) {{",
            if params.is_empty() {
                "void".to_owned()
            } else {
                params.join(", ")
            }
        );
        let mut locals: Vec<String> = (0..n_params).map(|i| format!("p{i}")).collect();
        let n_stmts = rng.gen_range(1..8);
        for s in 0..n_stmts {
            emit_stmt(&mut rng, &mut out, &mut locals, s, 1);
        }
        let _ = writeln!(out, "    return 0;");
        let _ = writeln!(out, "}}");
    }
    out
}

fn random_type(rng: &mut StdRng) -> String {
    let base = if rng.gen_bool(0.8) { "int" } else { "char" };
    let stars = if rng.gen_bool(0.3) { "*" } else { "" };
    let qual = if rng.gen_bool(0.2) {
        format!(" {}", QUALS[rng.gen_range(0..QUALS.len())])
    } else {
        String::new()
    };
    format!("{base}{stars}{qual}")
}

fn emit_stmt(
    rng: &mut StdRng,
    out: &mut String,
    locals: &mut Vec<String>,
    idx: usize,
    depth: usize,
) {
    let pad = "    ".repeat(depth);
    match rng.gen_range(0..5) {
        0 => {
            let name = format!("v{depth}_{idx}");
            let _ = writeln!(
                out,
                "{pad}int {name} = {};",
                random_int_expr(rng, locals, 2)
            );
            locals.push(name);
        }
        1 if !locals.is_empty() => {
            let target = &locals[rng.gen_range(0..locals.len())];
            let _ = writeln!(out, "{pad}{target} = {};", random_int_expr(rng, locals, 2));
        }
        2 => {
            let _ = writeln!(out, "{pad}if ({}) {{", random_int_expr(rng, locals, 1));
            let mut inner = locals.clone();
            emit_stmt(rng, out, &mut inner, idx, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        3 => {
            // A bounded loop: always terminates.
            let name = format!("i{depth}_{idx}");
            let _ = writeln!(
                out,
                "{pad}for (int {name} = 0; {name} < {}; {name}++) {{",
                rng.gen_range(1..5)
            );
            let mut inner = locals.clone();
            inner.push(name);
            emit_stmt(rng, out, &mut inner, idx, depth + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        _ => {
            let name = format!("w{depth}_{idx}");
            let _ = writeln!(out, "{pad}int {name};");
            locals.push(name);
        }
    }
}

fn random_int_expr(rng: &mut StdRng, locals: &[String], depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.4) {
        if !locals.is_empty() && rng.gen_bool(0.5) {
            return locals[rng.gen_range(0..locals.len())].clone();
        }
        return rng.gen_range(-9i64..=9).to_string();
    }
    let a = random_int_expr(rng, locals, depth - 1);
    let b = random_int_expr(rng, locals, depth - 1);
    let op = ["+", "-", "*", "==", "!=", "<", ">"][rng.gen_range(0..7usize)];
    format!("({a} {op} {b})")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn printing_round_trips(seed in any::<u64>()) {
        let src = random_source(seed);
        let p1 = parse_program(&src, QUALS)
            .unwrap_or_else(|e| panic!("generated source failed to parse: {e}\n{src}"));
        let printed = program_to_string(&p1);
        let p2 = parse_program(&printed, QUALS)
            .unwrap_or_else(|e| panic!("printed source failed to re-parse: {e}\n{printed}"));
        prop_assert_eq!(
            &printed,
            &program_to_string(&p2),
            "printing is not idempotent"
        );
    }

    #[test]
    fn interpreter_is_deterministic_and_total(seed in any::<u64>()) {
        let src = random_source(seed);
        let program = parse_program(&src, QUALS).expect("generated source parses");
        let config = InterpConfig { max_steps: 50_000, ..InterpConfig::default() };
        let f0 = program.func(Symbol::intern("f0")).expect("the generator defines f0");
        let args = &[Value::Int(1), Value::Int(2), Value::Int(3)][..f0.sig.params.len()];
        let run = || run_entry(&program, "f0", args, &NoChecks, config);
        let a = run();
        let b = run();
        for outcome in [&a, &b] {
            if let Err(e) = outcome {
                prop_assert!(!e.is_entry_error(), "f0 was not run: {e}");
            }
        }
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.ret, y.ret);
                prop_assert_eq!(&x.stdout, &y.stdout);
            }
            (Err(x), Err(y)) => prop_assert_eq!(x, y),
            other => prop_assert!(false, "nondeterministic outcome: {other:?}"),
        }
    }
}
