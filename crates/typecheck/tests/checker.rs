//! End-to-end checker tests over the paper's example programs.

use stq_cir::parse::parse_program;
use stq_qualspec::Registry;
use stq_typecheck::{check_program, CheckResult};

fn check(src: &str) -> CheckResult {
    let registry = Registry::builtins();
    let program = parse_program(src, &registry.names())
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"));
    check_program(&registry, &program)
}

/// Checks with only a subset of the builtin qualifiers registered (the
/// paper's experiments run one qualifier discipline at a time).
fn check_subset(src: &str, quals: &[&str]) -> CheckResult {
    let full = Registry::builtins();
    let mut registry = Registry::new();
    for q in quals {
        registry
            .add(full.get_by_name(q).expect("builtin").clone())
            .expect("no duplicates");
    }
    let program = parse_program(src, &registry.names())
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"));
    check_program(&registry, &program)
}

fn assert_clean(src: &str) {
    let r = check(src);
    assert!(
        r.stats.qualifier_errors == 0 && !r.diags.has_errors(),
        "expected clean, got:\n{}",
        r.diags
    );
}

fn assert_violations(src: &str, n: usize) {
    let r = check(src);
    assert_eq!(
        r.stats.qualifier_errors, n,
        "expected {n} violations, got {}:\n{}",
        r.stats.qualifier_errors, r.diags
    );
}

// ----- pos / figure 2 -----

#[test]
fn lcm_from_figure_2_typechecks() {
    assert_clean(
        "int pos gcd(int pos n, int pos m);
         int pos lcm(int pos a, int pos b) {
             int pos d = gcd(a, b);
             int pos prod = a * b;
             return (int pos) (prod / d);
         }",
    );
}

#[test]
fn lcm_without_the_cast_fails() {
    // The type rules for pos cannot derive int pos for prod / d.
    assert_violations(
        "int pos gcd(int pos n, int pos m);
         int pos lcm(int pos a, int pos b) {
             int pos d = gcd(a, b);
             int pos prod = a * b;
             return prod / d;
         }",
        1,
    );
}

#[test]
fn product_rule_derives_pos() {
    assert_clean("void f(int pos a, int pos b) { int pos p = a * b; }");
}

#[test]
fn sum_of_pos_is_not_derivable() {
    // No case rule covers addition.
    assert_violations("void f(int pos a, int pos b) { int pos p = a + b; }", 1);
}

#[test]
fn negation_of_neg_is_pos() {
    assert_clean("void f(int neg n) { int pos p = -n; }");
}

#[test]
fn positive_constant_initializer() {
    assert_clean("int pos limit = 100;");
}

#[test]
fn zero_constant_is_not_pos() {
    assert_violations("int pos zero = 0;", 1);
}

// ----- subtyping (§2.1.2) -----

#[test]
fn value_qualified_is_subtype_of_unqualified() {
    assert_clean(
        "void f() {
             int pos x = 3;
             int y = x;
         }",
    );
}

#[test]
fn unqualified_is_not_subtype_of_qualified() {
    assert_violations(
        "void f(int y) {
             int pos x = y;
         }",
        1,
    );
}

#[test]
fn pointer_types_are_invariant_in_pointee_quals() {
    // The paper's unsoundness example: int pos* must NOT convert to int*.
    assert_violations(
        "void f() {
             int pos x = 3;
             int* p = &x;
         }",
        1,
    );
}

#[test]
fn matching_pointee_quals_are_fine() {
    assert_clean(
        "void f() {
             int pos x = 3;
             int pos* p = &x;
         }",
    );
}

// ----- nonzero / figure 3 -----

#[test]
fn division_by_nonzero_passes_restrict() {
    assert_clean("int f(int a, int nonzero d) { return a / d; }");
}

#[test]
fn division_by_plain_int_fails_restrict() {
    assert_violations("int f(int a, int d) { return a / d; }", 1);
}

#[test]
fn pos_is_nonzero_via_case_rule() {
    // The paper: d is pos, so the division restrict succeeds.
    assert_clean("int f(int a, int pos d) { return a / d; }");
}

#[test]
fn division_by_literal_constant() {
    assert_clean("int f(int a) { return a / 2; }");
}

#[test]
fn division_by_zero_literal_fails() {
    assert_violations("int f(int a) { return a / 0; }", 1);
}

// ----- nonnull / figure 12 -----

#[test]
fn deref_of_nonnull_is_allowed() {
    assert_clean("int f(int* nonnull p) { return *p; }");
}

#[test]
fn deref_of_plain_pointer_fails_restrict() {
    assert_violations("int f(int* p) { return *p; }", 1);
}

#[test]
fn address_of_is_nonnull() {
    assert_clean(
        "void f() {
             int x;
             int* nonnull p = &x;
             *p = 3;
         }",
    );
}

#[test]
fn null_guard_is_invisible_to_flow_insensitive_checking() {
    // The grep idiom from §6.1: the guard does not help; a cast is needed.
    assert_violations(
        "int f(int* t) {
             if (t != NULL) {
                 return *t;
             }
             return 0;
         }",
        1,
    );
    assert_clean(
        "int f(int* t) {
             if (t != NULL) {
                 int* nonnull u = (int* nonnull) t;
                 return *u;
             }
             return 0;
         }",
    );
}

#[test]
fn writes_through_pointers_are_also_dereferences() {
    assert_violations("void f(int* p) { *p = 1; }", 1);
    assert_clean("void f(int* nonnull p) { *p = 1; }");
}

#[test]
fn struct_fields_can_be_nonnull() {
    assert_clean(
        "struct dfa { int* nonnull trans; };
         int f(struct dfa* nonnull d) {
             return *(d->trans);
         }",
    );
}

// ----- tainted / untainted (figure 4 and §6.3) -----

#[test]
fn printf_with_constant_format_is_clean() {
    // §6.3: the constants rule obviates casts entirely.
    assert_clean(
        "int printf(char* untainted fmt, ...);
         void f(char* buf) {
             printf(\"%s\", buf);
         }",
    );
}

#[test]
fn printf_with_tainted_buffer_fails() {
    // The bftpd-style vulnerability: an arbitrary buffer as format string.
    assert_violations(
        "int printf(char* untainted fmt, ...);
         void f(char* buf) {
             printf(buf);
         }",
        1,
    );
}

#[test]
fn untainted_flows_to_untainted() {
    assert_clean(
        "int printf(char* untainted fmt, ...);
         void f(char* untainted fmt) {
             printf(fmt);
         }",
    );
}

#[test]
fn untainted_flows_to_plain() {
    // T untainted ≤ T.
    assert_clean(
        "void g(char* s);
         void f(char* untainted fmt) {
             g(fmt);
         }",
    );
}

#[test]
fn cast_to_untainted_marks_trust() {
    assert_clean(
        "int printf(char* untainted fmt, ...);
         void f(char* buf) {
             char* untainted fmt = (char* untainted) buf;
             printf(fmt, buf);
         }",
    );
}

// ----- unique / figure 5, figure 6 -----

#[test]
fn make_array_from_figure_6_typechecks() {
    // Checked under the unique discipline alone, as in §2.2 (with nonnull
    // also registered, the array[i] dereference would additionally demand
    // a nonnull pointer).
    let r = check_subset(
        "int* unique array;
         void make_array(int n) {
             array = (int*) malloc(sizeof(int) * n);
             for (int i = 0; i < n; i++)
                 array[i] = i;
         }",
        &["unique"],
    );
    assert_eq!(r.stats.qualifier_errors, 0, "{}", r.diags);
    assert!(!r.diags.has_errors(), "{}", r.diags);
}

#[test]
fn unique_accepts_null_assignment() {
    assert_clean(
        "int* unique p;
         void f() { p = NULL; }",
    );
}

#[test]
fn unique_rejects_pointer_copy_assignment() {
    // q = p would duplicate the reference... and assigning q into a
    // unique p is also not NULL/new.
    assert_violations(
        "void f(int* q) {
             int* unique p = q;
         }",
        1,
    );
}

#[test]
fn reading_unique_on_rhs_violates_disallow() {
    // int* q = p; — the paper's aliasing example.
    assert_violations(
        "int* unique p;
         void f() {
             int* q = p;
         }",
        1,
    );
}

#[test]
fn dereferencing_unique_is_allowed() {
    // int i = *p; is "perfectly safe" — but the deref needs nonnull,
    // so use a registry-independent shape: assignment through deref.
    let r = check(
        "int* unique p;
         void f() {
             int i = *p;
         }",
    );
    // One nonnull restrict violation (p not known nonnull), but NO
    // disallow violation for unique.
    assert_eq!(r.stats.qualifier_errors, 1, "{}", r.diags);
    let msgs: Vec<String> = r.diags.iter().map(|d| d.message.clone()).collect();
    assert!(msgs.iter().all(|m| !m.contains("unique")), "{msgs:?}");
}

#[test]
fn assignments_through_unique_deref_are_unrestricted() {
    let r = check(
        "int* unique array;
         void f(int i) {
             array[i] = i;
         }",
    );
    let msgs: Vec<String> = r.diags.iter().map(|d| d.message.clone()).collect();
    assert!(msgs.iter().all(|m| !m.contains("unique")), "{msgs:?}");
}

#[test]
fn passing_unique_global_to_function_violates_disallow() {
    // §6.2: "this idiom is a violation of uniqueness".
    assert_violations(
        "int* unique g;
         void use(int* p);
         void f() {
             use(g);
         }",
        1,
    );
}

#[test]
fn call_result_into_unique_requires_cast() {
    // §6.2: dfa is initialized from the parser module; the assign rules
    // are insufficient and a cast is required.
    assert_violations(
        "int* make();
         int* unique d;
         void f() {
             d = make();
         }",
        1,
    );
    assert_clean(
        "int* make();
         int* unique d;
         void f() {
             int* t;
             t = make();
             d = (int* unique) t;
         }",
    );
}

// ----- unaliased / figure 7 -----

#[test]
fn unaliased_variable_accepts_any_value() {
    assert_clean(
        "void f(int x) {
             int unaliased y = x;
             y = x * 2;
         }",
    );
}

#[test]
fn taking_address_of_unaliased_fails() {
    assert_violations(
        "void f() {
             int unaliased y = 0;
             int* p = &y;
         }",
        1,
    );
}

#[test]
fn reading_unaliased_is_fine() {
    assert_clean(
        "void f() {
             int unaliased y = 1;
             int z = y;
         }",
    );
}

// ----- calls and returns -----

#[test]
fn return_type_qualifiers_are_checked() {
    assert_violations("int pos f(int x) { return x; }", 1);
    assert_clean("int pos f(int pos x) { return x; }");
}

#[test]
fn argument_qualifiers_are_checked() {
    assert_violations(
        "void g(int pos x);
         void f(int y) { g(y); }",
        1,
    );
    assert_clean(
        "void g(int pos x);
         void f(int pos y) { g(y); }",
    );
}

#[test]
fn call_results_carry_declared_qualifiers() {
    assert_clean(
        "int pos g();
         void f() { int pos x; x = g(); }",
    );
    assert_violations(
        "int g();
         void f() { int pos x; x = g(); }",
        1,
    );
}

#[test]
fn arity_mismatch_is_an_error() {
    let r = check(
        "void g(int x);
         void f() { g(1, 2); }",
    );
    assert!(r.diags.has_errors());
}

// ----- statistics -----

#[test]
fn stats_count_dereferences_annotations_casts() {
    let r = check(
        "int* nonnull g;
         int f(int* nonnull p, int* q) {
             int a = *p;
             int b = *(int* nonnull) q;
             *g = a;
             return b;
         }",
    );
    assert_eq!(r.stats.dereferences, 3);
    // g, p annotated (q and locals are not).
    assert_eq!(r.stats.annotations, 2);
    assert_eq!(r.stats.casts, 1);
    assert_eq!(r.stats.qualifier_errors, 0, "{}", r.diags);
}

#[test]
fn stats_count_printf_calls() {
    let r = check(
        "int printf(char* untainted fmt, ...);
         void f() {
             printf(\"a\");
             printf(\"b %d\", 1);
         }",
    );
    assert_eq!(r.stats.printf_calls, 2);
}

// ----- base-type errors -----

#[test]
fn unbound_variable_is_an_error() {
    let r = check("void f() { x = 3; }");
    assert!(r.diags.has_errors());
}

#[test]
fn shape_mismatch_is_an_error() {
    let r = check("void f(int* p) { int x = p; }");
    assert!(r.diags.has_errors());
}

#[test]
fn null_into_int_is_an_error() {
    let r = check("void f() { int x = NULL; }");
    assert!(r.diags.has_errors());
}

// ----- a custom qualifier end-to-end -----

#[test]
fn user_defined_even_qualifier() {
    let mut registry = Registry::builtins();
    registry
        .add_source(
            "value qualifier even(int Expr E)
                case E of
                    decl int Expr E1, E2:
                        E1 + E2, where even(E1) && even(E2)
                  | decl int Expr E1, E2:
                        E1 * E2, where even(E1) || even(E2)
                invariant value(E) > -1",
        )
        .unwrap();
    let src = "void f(int even a, int even b, int c) {
                   int even s = a + b;
                   int even p = a * c;
                   int even q = c;
               }";
    let program = parse_program(src, &registry.names()).unwrap();
    let result = check_program(&registry, &program);
    // Only the last declaration violates.
    assert_eq!(result.stats.qualifier_errors, 1, "{}", result.diags);
}

// ----- qualified struct fields (§3.3) -----

#[test]
fn qualified_field_writes_are_checked() {
    // "The types of struct fields may be qualified, and our qualifier
    // checker will check that they obey the user-defined type rules."
    assert_violations(
        "struct counter { int pos ticks; };
         void reset(struct counter* nonnull c) {
             c->ticks = 0;
         }",
        1,
    );
    assert_clean(
        "struct counter { int pos ticks; };
         void bump(struct counter* nonnull c) {
             c->ticks = c->ticks * 2;
         }",
    );
}

#[test]
fn qualified_field_reads_carry_their_qualifier() {
    assert_clean(
        "struct counter { int pos ticks; };
         int pos snapshot(struct counter* nonnull c) {
             return c->ticks;
         }",
    );
}

#[test]
fn direct_struct_variables_work_too() {
    assert_violations(
        "struct pair { int pos a; int b; };
         void f() {
             struct pair p;
             p.a = -1;
             p.b = -1;
         }",
        1,
    );
}

#[test]
fn field_annotations_count_in_stats() {
    let r = check("struct s { int pos a; int b; int* nonnull c; };");
    assert_eq!(r.stats.annotations, 2);
}

// ----- misc coverage -----

#[test]
fn mod_expression_is_not_pos() {
    // No case rule covers %, even for pos operands.
    assert_violations("void f(int pos a, int pos b) { int pos m = a % b; }", 1);
}

#[test]
fn chains_of_qualifiers_compose() {
    // pos implies nonzero; both demanded at once.
    assert_clean(
        "void f(int pos x) {
             int pos nonzero y = x * x;
         }",
    );
    assert_violations(
        "void f(int neg x) {
             int pos nonzero y = x * x;
         }",
        1,
    );
}

#[test]
fn cast_asserted_ref_qualifier_in_declarations() {
    // The cast exemption applies uniformly to declarations with
    // initializers, not just plain assignments.
    assert_clean(
        "int* make();
         void f() {
             int* t;
             t = make();
             int* unique p = (int* unique) t;
         }",
    );
    // Without the cast the initializer violates the assign rules.
    assert_violations(
        "int* make();
         void f() {
             int* t;
             t = make();
             int* unique p = t;
         }",
        1,
    );
}

// ----- cycles through `Var` patterns -----

#[test]
fn a_same_node_cycle_between_two_qualifiers_is_cut_off_as_false() {
    // `qa` and `qb` re-query the same expression node through their `E1`
    // patterns, so `qa(3)` asks `qb(3)`, which asks `qa(3)` again: the
    // cycle guard must answer that re-query `false` instead of recursing
    // until the stack overflows. `7` still gets both qualifiers through
    // `qa`'s constant rule.
    let mut registry = Registry::new();
    registry
        .add_source(
            "value qualifier qa(int Expr E)
                case E of
                    decl int Const C: C, where C > 5
                  | decl int Expr E1: E1, where qb(E1)
             value qualifier qb(int Expr E)
                case E of
                    decl int Expr E1: E1, where qa(E1)",
        )
        .unwrap();
    let check = |src: &str| {
        let program = parse_program(src, &registry.names()).expect("parses");
        check_program(&registry, &program)
    };
    let clean = check("int qa a = 7; int qb b = 7;");
    assert!(clean.is_clean(), "{}", clean.diags);
    let warned = check("int y; int qa c = 3; int qb d = y;");
    assert_eq!(warned.stats.qualifier_errors, 2, "{}", warned.diags);
    assert!(!warned.diags.has_errors(), "{}", warned.diags);
}
