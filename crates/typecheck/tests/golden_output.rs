//! Golden output of the passes that walk the C tree: cast
//! instrumentation (`instrument_program`), observation
//! (`observe_program`) and annotation inference (`infer_annotations` for
//! `pos`, `nonzero` and `nonnull`).
//!
//! The inputs are the regression corpus (`tests/corpus/*.c` at the
//! repository root) and [`SHAPES`], a program that uses every statement,
//! source-instruction, expression and l-value shape. `golden_output.txt`
//! holds one line per printed line of each pass's output, prefixed with
//! the input and the pass, so a mismatch names what moved: where a
//! run-time check goes, which variable an observation watches, or which
//! site inference keeps. A mismatch prints the actual lines; re-capture
//! a row only when a change is meant to alter it.

use std::fs;
use std::path::PathBuf;
use stq_cir::ast::{InstrKind, Program, StmtKind};
use stq_cir::parse::parse_program;
use stq_cir::pretty::program_to_string;
use stq_qualspec::Registry;
use stq_typecheck::{infer_annotations, instrument_program, observe_program};
use stq_util::Symbol;

/// The expected lines, in input order.
const GOLDEN: &str = include_str!("golden_output.txt");

/// Every shape of the tree: the six statements (instruction, block,
/// `if`, `while`, `return`, declaration), the three source instructions
/// (assignment, call, allocation), the nine expressions (integer, string,
/// `NULL`, l-value read, `&`, unary, binary, cast, `sizeof`) and the three
/// l-values (variable, `*e`, `.f`). It casts in a `while` condition and on
/// both sides of a store, stores through `*p` and `p->f`, takes `&x.f`,
/// allocates, and calls a prototype and a definition.
const SHAPES: &str = "struct node {
    int val;
    struct node* next;
};
int limit = 10;
int* cursor;
int pos getnum(void);
int* getptr(void);
void log_msg(char* fmt, int v);
int pos twice(int pos x) {
    return (int pos) (x * 2);
}
int walk(struct node* n, int k) {
    struct node s;
    int* p = malloc(sizeof(int));
    int* q = &s.val;
    int neg m = -1;
    int z = ~k;
    *((int* nonnull) p) = (int pos) k;
    n->val = (int nonzero) (k + 1);
    s.next = NULL;
    cursor = &limit;
    if (p != NULL && !(k == 0)) {
        int y = *p / (int nonzero) k;
        k = y;
    } else {
        k = twice(1);
    }
    while ((int pos) k > 1) {
        k = k - 1;
    }
    log_msg(\"count %d\", k);
    int t = getnum();
    int* u = getptr();
    {
        int w = t % 3;
        z = w;
    }
    return *q + s.val + m + z;
}
";

/// `(name, source)` of every input: the corpus files sorted by name,
/// then [`SHAPES`].
fn inputs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy();
            let src = fs::read_to_string(p).expect("corpus file is readable");
            (name.into_owned(), src)
        })
        .collect();
    out.push(("shapes".to_owned(), SHAPES.to_owned()));
    out
}

/// Every pass's output for one input, one prefixed line per printed line.
fn output_lines(registry: &Registry, name: &str, program: &Program) -> Vec<String> {
    let mut out = Vec::new();
    let mut push_program = |pass: &str, p: &Program| {
        for line in program_to_string(p).lines() {
            out.push(format!("{name} {pass} | {line}"));
        }
    };
    push_program("instrument", &instrument_program(registry, program));
    push_program("observe", &observe_program(registry, program));
    for qual in ["pos", "nonzero", "nonnull"] {
        let r = infer_annotations(registry, program, Symbol::intern(qual));
        for site in &r.inferred {
            out.push(format!("{name} infer {qual} | + {site}"));
        }
        for site in &r.rejected {
            out.push(format!("{name} infer {qual} | - {site}"));
        }
    }
    out
}

#[test]
fn instrumentation_observation_and_inference_match_the_golden_table() {
    let registry = Registry::builtins();
    let mut got = Vec::new();
    for (name, src) in inputs() {
        let program = parse_program(&src, &registry.names())
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        got.extend(output_lines(&registry, &name, &program));
    }
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual: Vec<&String> = if got.len() == want.len() {
        got.iter()
            .zip(&want)
            .filter(|(g, w)| g != w)
            .map(|(g, _)| g)
            .collect()
    } else {
        got.iter().collect()
    };
    assert!(
        actual.is_empty(),
        "{} line(s) of {} differ from golden_output.txt ({} expected); actual:\n{}",
        actual.len(),
        got.len(),
        want.len(),
        actual
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn instrumentation_adds_no_check_for_a_check_already_in_the_program() {
    // The first pass turns the nested cast into two checks, the outer one
    // over `(int nonzero) x`. A second pass checks the cast statement
    // again, but not the casts inside the checks the first pass made.
    let registry = Registry::builtins();
    let program = parse_program(
        "int f(int x) { int pos y = (int pos) (int nonzero) x; return y; }",
        &registry.names(),
    )
    .expect("parses");
    let once = instrument_program(&registry, &program);
    let twice = instrument_program(&registry, &once);
    let checks = |p: &Program| {
        p.funcs[0]
            .body
            .iter()
            .filter(|s| {
                matches!(&s.kind, StmtKind::Instr(i) if matches!(i.kind, InstrKind::RuntimeCheck(..)))
            })
            .count()
    };
    assert_eq!(checks(&once), 2);
    assert_eq!(checks(&twice), 4, "{}", program_to_string(&twice));
}
