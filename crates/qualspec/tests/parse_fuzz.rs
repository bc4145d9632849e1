//! Fuzz tests for the error-resilient qualifier-definition parser.
//!
//! Mirrors `stq-cir`'s `parse_fuzz`: the resilient entry point must be
//! total over arbitrary byte soup, token soup drawn from the DSL's
//! vocabulary, and corrupted-but-plausible definition files. The strict
//! entry point must agree with it: the same definitions after a silent
//! parse (no diagnostics), its first error otherwise.

use proptest::prelude::*;
use stq_qualspec::parse::{parse_qualifiers, parse_qualifiers_resilient};

/// Fragments the DSL lexer knows, biased toward the keywords that
/// drive clause recovery.
const VOCAB: &[&str] = &[
    "value",
    "ref",
    "qualifier",
    "case",
    "restrict",
    "assign",
    "disallow",
    "ondecl",
    "invariant",
    "of",
    "decl",
    "where",
    "int",
    "char",
    "Expr",
    "Const",
    "Var",
    "E",
    "E1",
    "E2",
    "C",
    "L",
    "pos",
    "taint",
    "value(E)",
    "(",
    ")",
    ",",
    ":",
    ";",
    "+",
    "*",
    "==",
    "!=",
    ">",
    "&&",
    "||",
    "0",
    "1",
];

fn tokens_to_source(idxs: &[usize]) -> String {
    idxs.iter()
        .map(|i| VOCAB[i % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A well-formed two-definition file used as the corruption seed.
const VALID: &str = "value qualifier pos(int Expr E)
    case E of
        decl int Const C: C, where C > 0
    invariant value(E) > 0

ref qualifier watched(int Var L)
    disallow &L";

/// Totality: never a panic, and the strict parser agrees with the
/// resilient one — the same definitions after a silent parse, the first
/// resilient error otherwise.
fn assert_total(src: &str) {
    let (defs, errors) = parse_qualifiers_resilient(src);
    match (parse_qualifiers(src), errors.first()) {
        (Ok(strict), None) => assert_eq!(
            strict, defs,
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
    fn corrupted_valid_source_still_yields_diagnostics_or_defs(
        at in any::<usize>(),
        garbage in prop::collection::vec(any::<u8>(), 1..8),
    ) {
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
