//! Fuzz tests for the error-resilient C-subset parser.
//!
//! The resilient entry point must be *total*: for any input — raw byte
//! soup, random token streams, or a valid program with a corrupted
//! region — it returns a (possibly partial) AST plus diagnostics and
//! never panics. The strict entry point must agree with it: the same
//! AST when it reports no errors, its first error otherwise.

use proptest::prelude::*;
use stq_cir::parse::{parse_program, parse_program_resilient};

const QUALS: &[&str] = &["pos", "nonnull", "untainted"];

/// Fragments the lexer knows, so token soup exercises the parser's
/// recovery logic rather than dying at the first lex error.
const VOCAB: &[&str] = &[
    "int", "char", "void", "struct", "if", "else", "while", "for", "return", "break", "continue",
    "NULL", "pos", "nonnull", "x", "y", "f", "buf", "(", ")", "{", "}", ";", ",", "*", "&", "+",
    "-", "=", "==", "!=", "<", ">", "[", "]", ".", "0", "1", "42", "\"s\"",
];

fn tokens_to_source(idxs: &[usize]) -> String {
    idxs.iter()
        .map(|i| VOCAB[i % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A well-formed program used as the seed for corruption tests.
const VALID: &str = "struct pair { int a; int b; };\n\
                     int g;\n\
                     int pos dbl(int pos x) { return (int pos)(x * 2); }\n\
                     int f(int* nonnull p) { int v = *p; if (v < 0) { return 0; } return v; }";

/// The totality property shared by every generator: parsing never
/// panics (the harness would report the panic as a test failure), and
/// the strict parser agrees with the resilient one. A silent resilient
/// parse means the input really was well-formed, so the strict parser
/// must build the same AST; otherwise it must stop at the resilient
/// parse's first error.
fn assert_total(src: &str) {
    let (program, errors) = parse_program_resilient(src, QUALS);
    match (parse_program(src, QUALS), errors.first()) {
        (Ok(strict), None) => assert_eq!(
            strict, program,
            "silent resilient parse disagrees with strict parse on:\n{src}"
        ),
        (Err(e), Some(first)) => assert_eq!(
            &e, first,
            "strict error differs from the first resilient error on:\n{src}"
        ),
        (Ok(_), Some(first)) => {
            panic!("strict parse succeeded but resilient parse reported {first} on:\n{src}")
        }
        (Err(e), None) => {
            panic!("resilient parse was silent but strict parse failed ({e}) on:\n{src}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&src);
    }

    #[test]
    fn token_soup_never_panics(idxs in prop::collection::vec(any::<usize>(), 0..96)) {
        let src = tokens_to_source(&idxs);
        assert_total(&src);
    }

    #[test]
    fn corrupted_valid_source_still_yields_diagnostics_or_an_ast(
        at in any::<usize>(),
        garbage in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        // Splice garbage into the middle of a valid program at a
        // char boundary; the parser must either recover around it or
        // report what it saw — never unwind.
        let mut pos = at % (VALID.len() + 1);
        while !VALID.is_char_boundary(pos) {
            pos -= 1;
        }
        let mut src = String::new();
        src.push_str(&VALID[..pos]);
        src.push_str(&String::from_utf8_lossy(&garbage));
        src.push_str(&VALID[pos..]);
        assert_total(&src);
    }

    #[test]
    fn truncated_valid_source_never_panics(at in any::<usize>()) {
        let mut pos = at % (VALID.len() + 1);
        while !VALID.is_char_boundary(pos) {
            pos -= 1;
        }
        assert_total(&VALID[..pos]);
    }
}
