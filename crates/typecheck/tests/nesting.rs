//! The nesting limit keeps every pass within its thread's stack.
//!
//! Each shape below is built at the deepest nesting the parser accepts.
//! Parsing, checking (plain and flow-sensitive) and dropping it must fit
//! a daemon request worker's stack; instrumenting, observing, annotation
//! inference, running and printing it must fit the CLI's main thread.
//! One level deeper is a parse error that names the limit.

use std::thread;
use stq_cir::interp::{run_entry, InterpConfig, Value};
use stq_cir::parse::{parse_program_resilient, MAX_NESTING};
use stq_cir::pretty::program_to_string;
use stq_qualspec::Registry;
use stq_typecheck::{
    check_program_with, infer_annotations, instrument_program, observe_program, CheckOptions,
    InvariantChecker,
};
use stq_util::Symbol;

/// A request worker's stack: std's default for a spawned thread.
const WORKER_STACK: usize = 2 << 20;

/// The CLI's main thread stack.
const MAIN_STACK: usize = 8 << 20;

/// A function `f(x)` whose body nests `n` steps of one shape.
type Shape = fn(usize) -> String;

fn parens(n: usize) -> String {
    format!(
        "int pos f(int pos x) {{ return {}x{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

fn sum(n: usize) -> String {
    format!(
        "int pos f(int pos x) {{ return x{}; }}",
        " + x".repeat(n - 1)
    )
}

/// `pos` derives a product from its factors, so checking the return
/// recurses down the whole chain.
fn product(n: usize) -> String {
    format!(
        "int pos f(int pos x) {{ return x{}; }}",
        " * x".repeat(n - 1)
    )
}

/// `nonzero` derives a negation through `pos` and `neg` alternately,
/// down the whole chain.
fn negations(n: usize) -> String {
    format!("int nonzero f(int pos x) {{ return {}x; }}", "- ".repeat(n))
}

fn casts(n: usize) -> String {
    format!("int f(int pos x) {{ return {}x; }}", "(int pos) ".repeat(n))
}

fn blocks(n: usize) -> String {
    format!(
        "int f(int x) {{ {} x = 1; {} return x; }}",
        "{".repeat(n),
        "}".repeat(n)
    )
}

fn ifs(n: usize) -> String {
    format!(
        "int f(int x) {{ {} x = 1; return x; }}",
        "if (x) ".repeat(n)
    )
}

fn whiles(n: usize) -> String {
    format!(
        "int f(int x) {{ {} x = 0; return x; }}",
        "while (x) ".repeat(n)
    )
}

/// Each `for` is three levels: the block and the loop it becomes, and
/// its body.
fn fors(n: usize) -> String {
    format!(
        "int f(int x) {{ {} x = 0; return x; }}",
        "for (; x; x = x) ".repeat(n)
    )
}

fn pointers(n: usize) -> String {
    format!("int f(int x) {{ int {}p; return x; }}", "* ".repeat(n))
}

/// Each shape with the levels one step of it opens.
const SHAPES: [(&str, Shape, usize); 10] = [
    ("parentheses", parens, 1),
    ("sum", sum, 1),
    ("product", product, 1),
    ("negations", negations, 1),
    ("casts", casts, 1),
    ("blocks", blocks, 1),
    ("ifs", ifs, 1),
    ("whiles", whiles, 1),
    ("fors", fors, 3),
    ("pointer levels", pointers, 1),
];

/// Runs `f` on a thread with a stack of `stack` bytes. A pass that
/// overflows it aborts the test binary.
fn on_stack<T: Send + 'static>(stack: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::Builder::new()
        .stack_size(stack)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the pass returns")
}

/// The parse errors of `src`, parsed on a worker's stack.
fn errors(src: String) -> Vec<String> {
    on_stack(WORKER_STACK, move || {
        let registry = Registry::builtins();
        let (_, errors) = parse_program_resilient(&src, &registry.names());
        errors.iter().map(ToString::to_string).collect()
    })
}

/// The deepest `n` at which `shape` parses cleanly.
fn deepest(shape: Shape) -> usize {
    let (mut lo, mut hi) = (1, MAX_NESTING as usize + 1);
    assert!(errors(shape(lo)).is_empty());
    assert!(!errors(shape(hi)).is_empty());
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if errors(shape(mid)).is_empty() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[test]
fn every_pass_fits_its_stack_at_the_nesting_limit() {
    for (name, shape, levels) in SHAPES {
        let n = deepest(shape);
        // The limit counts the function body, and a read of `x` is two
        // nodes deep, so a shape reaches a few levels short of it.
        assert!(
            n * levels + 8 >= MAX_NESTING as usize,
            "{name}: only {n} steps parse"
        );
        let past = errors(shape(n + 1));
        assert!(
            past.first()
                .is_some_and(|e| e.contains(&format!("nesting deeper than {MAX_NESTING} levels"))),
            "{name} at {}: {past:?}",
            n + 1
        );

        let src = shape(n);
        let worker_src = src.clone();
        on_stack(WORKER_STACK, move || {
            let registry = Registry::builtins();
            let (program, errors) = parse_program_resilient(&worker_src, &registry.names());
            assert!(errors.is_empty(), "{errors:?}");
            for flow_sensitive in [false, true] {
                let options = CheckOptions { flow_sensitive };
                check_program_with(&registry, &program, options);
            }
            drop(program);
        });
        on_stack(MAIN_STACK, move || {
            let registry = Registry::builtins();
            let (program, _) = parse_program_resilient(&src, &registry.names());
            let checker = InvariantChecker::new(&registry);
            for run in [
                instrument_program(&registry, &program),
                observe_program(&registry, &program),
            ] {
                let out = run_entry(
                    &run,
                    "f",
                    &[Value::Int(1)],
                    &checker,
                    InterpConfig::default(),
                );
                assert!(out.is_ok(), "{name}: {out:?}");
            }
            infer_annotations(&registry, &program, Symbol::intern("pos"));
            assert!(!program_to_string(&program).is_empty());
        });
    }
}
