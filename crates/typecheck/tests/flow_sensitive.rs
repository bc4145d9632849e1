//! Tests for the flow-sensitive extension (the paper's §8 plan): branch
//! conditions refine variable types inside dominated branches.

use stq_cir::parse::parse_program;
use stq_qualspec::Registry;
use stq_typecheck::{
    check_program, check_program_with, infer_annotations, CheckOptions, CheckResult,
};
use stq_util::{Severity, Symbol};

fn check_fs(src: &str) -> CheckResult {
    let registry = Registry::builtins();
    let program = parse_program(src, &registry.names())
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"));
    check_program_with(
        &registry,
        &program,
        CheckOptions {
            flow_sensitive: true,
        },
    )
}

fn check_fi(src: &str) -> CheckResult {
    let registry = Registry::builtins();
    let program = parse_program(src, &registry.names()).expect("parses");
    check_program_with(&registry, &program, CheckOptions::default())
}

#[test]
fn null_guard_discharges_the_dereference() {
    // The §6.1 grep idiom, without the cast.
    let src = "int f(int* t, int works) {
                   if (t != NULL) {
                       return t[works];
                   }
                   return 0 - 1;
               }";
    assert_eq!(check_fi(src).stats.qualifier_errors, 1);
    let fs = check_fs(src);
    assert_eq!(fs.stats.qualifier_errors, 0, "{}", fs.diags);
}

#[test]
fn positivity_guard_discharges_pos() {
    let src = "int pos abs_or_one(int x) {
                   if (x > 0) {
                       return x;
                   }
                   if (x < 0) {
                       return -x;
                   }
                   return 1;
               }";
    assert_eq!(check_fi(src).stats.qualifier_errors, 2);
    let fs = check_fs(src);
    assert_eq!(fs.stats.qualifier_errors, 0, "{}", fs.diags);
}

#[test]
fn zero_guard_discharges_division() {
    let src = "int safe_div(int a, int d) {
                   if (d != 0) {
                       return a / d;
                   }
                   return 0;
               }";
    assert_eq!(check_fi(src).stats.qualifier_errors, 1);
    assert_eq!(check_fs(src).stats.qualifier_errors, 0);
}

#[test]
fn else_branch_of_equality_is_refined() {
    let src = "int safe_div(int a, int d) {
                   if (d == 0) {
                       return 0;
                   } else {
                       return a / d;
                   }
               }";
    assert_eq!(check_fi(src).stats.qualifier_errors, 1);
    assert_eq!(check_fs(src).stats.qualifier_errors, 0);
}

#[test]
fn assignment_in_branch_invalidates_the_refinement() {
    // t is reassigned inside the branch; the refinement must not apply.
    let src = "int f(int* t, int* u) {
                   if (t != NULL) {
                       t = u;
                       return *t;
                   }
                   return 0;
               }";
    assert_eq!(check_fs(src).stats.qualifier_errors, 1);
}

#[test]
fn address_taken_in_branch_invalidates_the_refinement() {
    let src = "void blank(int** pp);
               int f(int* t) {
                   if (t != NULL) {
                       blank(&t);
                       return *t;
                   }
                   return 0;
               }";
    assert_eq!(check_fs(src).stats.qualifier_errors, 1);
}

/// Asserts that `src`, checked flow-sensitively, gets exactly one
/// qualifier violation: `nonnull`'s restrict warning at the dereference
/// `*{var}` in the statement `int y = *{var};`.
fn assert_unrefined_dereference(src: &str, var: &str) {
    let result = check_fs(src);
    assert_eq!(result.stats.qualifier_errors, 1, "{}", result.diags);
    assert!(!result.is_clean());
    let d = result.diags.iter().next().expect("one diagnostic");
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        d.message.starts_with(&format!(
            "`*{var}` violates the restrict rule of qualifier `nonnull`"
        )),
        "{}",
        d.message
    );
    let deref = format!("*{var}");
    let at = src
        .find(&format!("int y = {deref};"))
        .expect("the dereference")
        + "int y = ".len();
    let (start, end) = (d.span.start as usize, d.span.end as usize);
    assert_eq!((start, &src[start..end]), (at, deref.as_str()));
}

#[test]
fn a_call_in_the_branch_can_change_a_global() {
    // `reset` nulls `g` after the test: a global is never refined.
    let src = "int x;
               int* g;
               void reset() { g = NULL; }
               int f() {
                   g = &x;
                   if (g != NULL) {
                       reset();
                       int y = *g;
                   }
                   return 0;
               }";
    assert_unrefined_dereference(src, "g");
}

#[test]
fn an_alias_made_before_the_branch_can_change_a_local() {
    // `pp` points at `p` before the test and nulls it inside the branch:
    // a local whose address the function takes is never refined.
    let src = "int x;
               int f() {
                   int* p = &x;
                   int** nonnull pp = &p;
                   if (p != NULL) {
                       *pp = NULL;
                       int y = *p;
                   }
                   return 0;
               }";
    assert_unrefined_dereference(src, "p");
}

#[test]
fn while_conditions_refine_the_body() {
    let src = "int sum(int* p) {
                   int s = 0;
                   while (p != NULL) {
                       s = s + *p;
                       p = NULL;
                   }
                   return s;
               }";
    // p is assigned in the body, so the refinement is dropped and the
    // dereference still errors — conservative but sound.
    assert_eq!(check_fs(src).stats.qualifier_errors, 1);
    // With no reassignment the body is refined (and diverges, but the
    // checker doesn't care).
    let src2 = "int spin(int* p) {
                    int s = 0;
                    while (p != NULL) {
                        s = s + *p;
                    }
                    return s;
                }";
    assert_eq!(check_fs(src2).stats.qualifier_errors, 0);
}

#[test]
fn refinements_do_not_leak_out_of_the_branch() {
    let src = "int f(int* t) {
                   if (t != NULL) {
                       int x = 0;
                   }
                   return *t;
               }";
    assert_eq!(check_fs(src).stats.qualifier_errors, 1);
}

#[test]
fn conjunction_refines_both() {
    let src = "int f(int* a, int* b) {
                   if (a != NULL && b != NULL) {
                       return *a + *b;
                   }
                   return 0;
               }";
    assert_eq!(check_fi(src).stats.qualifier_errors, 2);
    assert_eq!(check_fs(src).stats.qualifier_errors, 0);
}

#[test]
fn disjunction_is_not_misused() {
    // a != NULL || b != NULL justifies neither dereference.
    let src = "int f(int* a, int* b) {
                   if (a != NULL || b != NULL) {
                       return *a + *b;
                   }
                   return 0;
               }";
    assert_eq!(check_fs(src).stats.qualifier_errors, 2);
}

#[test]
fn flow_insensitive_remains_the_default() {
    let registry = Registry::builtins();
    let program = parse_program(
        "int f(int* t) { if (t != NULL) { return *t; } return 0; }",
        &registry.names(),
    )
    .unwrap();
    let result = stq_typecheck::check_program(&registry, &program);
    assert_eq!(result.stats.qualifier_errors, 1);
}

#[test]
fn ablation_on_the_grep_corpus() {
    // The §6.1 imprecision, quantified: the cast-free corpus has 59
    // violations flow-insensitively and none flow-sensitively.
    let registry = Registry::builtins();
    let full = Registry::builtins();
    let mut nonnull_only = Registry::new();
    nonnull_only
        .add(full.get_by_name("nonnull").unwrap().clone())
        .unwrap();
    let src = stq_corpus::grep::grep_dfa_source_direct();
    let program = parse_program(&src, &nonnull_only.names()).expect("parses");
    let _ = registry;
    let fi = check_program_with(&nonnull_only, &program, CheckOptions::default());
    assert_eq!(fi.stats.qualifier_errors, 59);
    assert_eq!(fi.stats.casts, 0);
    let fs = check_program_with(
        &nonnull_only,
        &program,
        CheckOptions {
            flow_sensitive: true,
        },
    );
    assert_eq!(fs.stats.qualifier_errors, 0, "{}", fs.diags);
}

#[test]
fn inference_discharges_the_unannotated_grep_corpus() {
    // §8's other extension, as `examples/inference.rs` runs it: strip
    // every hand annotation from the cast-free corpus, and inference
    // puts back 106 that leave no violation.
    let registry = Registry::builtins();
    let src = stq_corpus::grep::grep_dfa_source_direct().replace("* nonnull", "*");
    let program = parse_program(&src, &registry.names()).expect("parses");
    assert_eq!(
        check_program(&registry, &program).stats.qualifier_errors,
        1072
    );
    let inferred = infer_annotations(&registry, &program, Symbol::intern("nonnull"));
    assert_eq!(inferred.inferred.len(), 106);
    let after = check_program(&registry, &inferred.annotated);
    assert_eq!(after.stats.qualifier_errors, 0, "{}", after.diags);
}
