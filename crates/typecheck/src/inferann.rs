//! Whole-program qualifier inference — the paper's §8 plan ("support for
//! qualifier inference to decrease the annotation burden"), in the style
//! of CQUAL's inference.
//!
//! Given a program and one value qualifier `q`, inference computes the
//! **greatest consistent annotation set**: it optimistically assumes `q`
//! on every declaration site whose type fits the qualifier's subject,
//! then repeatedly removes the assumption from any site that receives a
//! value not derivable as `q` under the current assumptions (an explicit
//! assignment, an initializer, an allocation, a call argument flowing
//! into a parameter, a call result flowing from a return site, or a
//! `return` flowing into the function's return type). An allocation
//! justifies `q` only through a `new` case rule, as the checker requires,
//! and a call to a function that has only a prototype is justified by
//! the prototype's return type. The iteration is monotone decreasing, so
//! it terminates at a fixpoint; what survives is sound to annotate.
//!
//! Like all whole-program inference, parameters of functions that are
//! never called keep their optimistic assumption (there is no caller to
//! contradict it) — the result is the most permissive annotation of the
//! *closed* program.

use crate::check::new_introducible;
use crate::env::StaticTy;
use crate::env::TypeEnv;
use crate::infer::{type_pat_accepts, Inference};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use stq_cir::ast::*;
use stq_qualspec::{QualKind, Registry};
use stq_util::Symbol;

/// A declaration site that can carry an inferred qualifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Site {
    /// A global variable.
    Global(Symbol),
    /// A parameter `(function, name)`.
    Param(Symbol, Symbol),
    /// A local variable `(function, name)`. Shadowed locals share a
    /// site (a conservative merge).
    Local(Symbol, Symbol),
    /// A function's return type.
    Ret(Symbol),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Global(g) => write!(f, "global {g}"),
            Site::Param(func, p) => write!(f, "parameter {p} of {func}"),
            Site::Local(func, l) => write!(f, "local {l} of {func}"),
            Site::Ret(func) => write!(f, "return type of {func}"),
        }
    }
}

/// What flows into a site.
#[derive(Clone, Debug)]
enum Incoming {
    /// An expression of the program, evaluated in the given function's
    /// environment (`None` = global initializer context).
    Expr(ExprId, Option<Symbol>),
    /// The return site of a called function.
    FromRet(Symbol),
    /// An allocation result.
    New,
}

/// The result of annotation inference.
#[derive(Clone, Debug)]
pub struct AnnotationInference {
    /// The qualifier inferred.
    pub qualifier: Symbol,
    /// Sites that can soundly carry the qualifier, beyond those already
    /// annotated in the input.
    pub inferred: Vec<Site>,
    /// Sites that had to give up the optimistic assumption.
    pub rejected: Vec<Site>,
    /// The program with the inferred annotations applied.
    pub annotated: Program,
    /// Fixpoint iterations performed.
    pub iterations: usize,
}

/// Infers `qual` annotations for `program` (see the module docs).
///
/// # Panics
///
/// Panics if `qual` is not a registered *value* qualifier.
pub fn infer_annotations(
    registry: &Registry,
    program: &Program,
    qual: Symbol,
) -> AnnotationInference {
    let def = registry
        .get(qual)
        .unwrap_or_else(|| panic!("unknown qualifier `{qual}`"));
    assert_eq!(
        def.kind,
        QualKind::Value,
        "annotation inference targets value qualifiers"
    );

    // Candidate sites: declared type's shape fits the subject.
    let mut candidates: BTreeSet<Site> = BTreeSet::new();
    let mut site_types: HashMap<Site, QualType> = HashMap::new();
    let fits =
        |ty: &QualType| type_pat_accepts(&def.subject.ty, &StaticTy::Known(Cow::Borrowed(ty)));
    for g in &program.globals {
        if fits(&g.ty) {
            candidates.insert(Site::Global(g.name));
            site_types.insert(Site::Global(g.name), g.ty.clone());
        }
    }
    for f in &program.funcs {
        for (p, ty) in &f.sig.params {
            if fits(ty) {
                candidates.insert(Site::Param(f.name, *p));
                site_types.insert(Site::Param(f.name, *p), ty.clone());
            }
        }
        if fits(&f.sig.ret) {
            candidates.insert(Site::Ret(f.name));
            site_types.insert(Site::Ret(f.name), f.sig.ret.clone());
        }
        for_each_decl(&f.body, |d| {
            if fits(&d.ty) {
                candidates.insert(Site::Local(f.name, d.name));
                site_types.insert(Site::Local(f.name, d.name), d.ty.clone());
            }
        });
    }

    // Incoming-flow constraints.
    let constraints = collect_constraints(program);

    // The greatest fixpoint: start from everything, remove until stable.
    let mut assumed: BTreeSet<Site> = candidates.clone();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let annotated = apply_assumptions(program, qual, &assumed);
        let mut removed = Vec::new();
        for site in assumed.iter().copied() {
            let Some(incoming) = constraints.get(&site) else {
                continue; // nothing flows in: the assumption stands
            };
            let justified = incoming.iter().all(|inc| match inc {
                Incoming::FromRet(f) => {
                    assumed.contains(&Site::Ret(*f))
                        || annotated
                            .signature(*f)
                            .is_some_and(|sig| sig.ret.has_qual(qual))
                }
                Incoming::New => new_introducible(registry, qual),
                Incoming::Expr(e, ctx) => {
                    let env = env_for(&annotated, registry, *ctx);
                    let mut inf = Inference::new(&env);
                    inf.has_qual(*e, qual)
                }
            });
            if !justified {
                removed.push(site);
            }
        }
        if removed.is_empty() {
            let originally: BTreeSet<Site> = candidates
                .iter()
                .copied()
                .filter(|s| site_types.get(s).is_some_and(|t| t.has_qual(qual)))
                .collect();
            let inferred: Vec<Site> = assumed
                .iter()
                .copied()
                .filter(|s| !originally.contains(s))
                .collect();
            let rejected: Vec<Site> = candidates
                .iter()
                .copied()
                .filter(|s| !assumed.contains(s))
                .collect();
            return AnnotationInference {
                qualifier: qual,
                inferred,
                rejected,
                annotated,
                iterations,
            };
        }
        for site in removed {
            assumed.remove(&site);
        }
    }
}

/// Calls `f` on every local declaration in `body`, in any scope.
fn for_each_decl<'a>(body: &'a [Stmt], mut f: impl FnMut(&'a LocalDecl)) {
    for s in body {
        s.walk(&mut |s| {
            if let StmtKind::Decl(d) = &s.kind {
                f(d);
            }
        });
    }
}

fn collect_constraints(program: &Program) -> HashMap<Site, Vec<Incoming>> {
    let arena = &program.arena;
    let mut out: HashMap<Site, Vec<Incoming>> = HashMap::new();
    let mut push = |site: Site, inc: Incoming| out.entry(site).or_default().push(inc);

    for g in &program.globals {
        if let Some(init) = g.init {
            push(Site::Global(g.name), Incoming::Expr(init, None));
        }
    }
    for f in &program.funcs {
        let func = f.name;
        // Resolving a variable name to a site within `func`: a local if the
        // function declares it or a parameter, otherwise a global.
        let site_of = |name: Symbol| -> Site {
            let f = program.func(func).expect("walking a defined function");
            if f.sig.params.iter().any(|(p, _)| *p == name) {
                return Site::Param(func, name);
            }
            let mut declared = false;
            for_each_decl(&f.body, |d| declared |= d.name == name);
            if declared {
                return Site::Local(func, name);
            }
            Site::Global(name)
        };
        for s in &f.body {
            s.walk(&mut |s| match &s.kind {
                StmtKind::Decl(d) => {
                    if let Some(init) = d.init {
                        push(Site::Local(func, d.name), Incoming::Expr(init, Some(func)));
                    }
                }
                StmtKind::Instr(i) => match i.kind {
                    InstrKind::Set(lv, e) => {
                        if let Some(name) = arena.as_var(lv) {
                            push(site_of(name), Incoming::Expr(e, Some(func)));
                        }
                    }
                    InstrKind::Alloc(lv, _) => {
                        if let Some(name) = arena.as_var(lv) {
                            push(site_of(name), Incoming::New);
                        }
                    }
                    InstrKind::RuntimeCheck(..) => {}
                    InstrKind::Call(dst, g, ref args) => {
                        // A prototype's return type decides as a
                        // definition's does; a callee with neither is
                        // unchecked, like the checker leaves it.
                        if let Some(sig) = program.signature(g) {
                            for ((p, _), &arg) in sig.params.iter().zip(args) {
                                push(Site::Param(g, *p), Incoming::Expr(arg, Some(func)));
                            }
                            if let Some(name) = dst.and_then(|lv| arena.as_var(lv)) {
                                push(site_of(name), Incoming::FromRet(g));
                            }
                        }
                    }
                },
                StmtKind::Return(Some(e)) => {
                    push(Site::Ret(func), Incoming::Expr(*e, Some(func)));
                }
                _ => {}
            });
        }
    }
    out
}

/// Applies an assumption set: a copy of the program with `qual` added to
/// every assumed site's declared type.
pub fn apply_assumptions(program: &Program, qual: Symbol, assumed: &BTreeSet<Site>) -> Program {
    let mut out = program.clone();
    for g in &mut out.globals {
        if assumed.contains(&Site::Global(g.name)) {
            g.ty.quals.insert(qual);
        }
    }
    for f in &mut out.funcs {
        let fname = f.name;
        for (p, ty) in &mut f.sig.params {
            if assumed.contains(&Site::Param(fname, *p)) {
                ty.quals.insert(qual);
            }
        }
        if assumed.contains(&Site::Ret(fname)) {
            f.sig.ret.quals.insert(qual);
        }
        for s in &mut f.body {
            s.walk_mut(&mut |s| {
                if let StmtKind::Decl(d) = &mut s.kind {
                    if assumed.contains(&Site::Local(fname, d.name)) {
                        d.ty.quals.insert(qual);
                    }
                }
            });
        }
    }
    out
}

fn env_for<'a>(program: &'a Program, registry: &'a Registry, func: Option<Symbol>) -> TypeEnv<'a> {
    let mut env = TypeEnv::new(program, registry);
    if let Some(fname) = func {
        if let Some(f) = program.func(fname) {
            env.push_scope();
            for (p, ty) in &f.sig.params {
                env.declare(*p, Cow::Borrowed(ty));
            }
            for_each_decl(&f.body, |d| env.declare(d.name, Cow::Borrowed(&d.ty)));
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::parse::parse_program;

    fn infer(src: &str, qual: &str) -> AnnotationInference {
        let registry = Registry::builtins();
        let program = parse_program(src, &registry.names()).expect("parses");
        infer_annotations(&registry, &program, Symbol::intern(qual))
    }

    #[test]
    fn constants_justify_pos_globals() {
        let r = infer("int limit = 100; int zero = 0;", "pos");
        assert!(r.inferred.contains(&Site::Global(Symbol::intern("limit"))));
        assert!(r.rejected.contains(&Site::Global(Symbol::intern("zero"))));
    }

    #[test]
    fn flows_propagate_through_calls() {
        let r = infer(
            "int source() { return 5; }
             int relay() { int x; x = source(); return x; }",
            "pos",
        );
        assert!(r.inferred.contains(&Site::Ret(Symbol::intern("source"))));
        assert!(r
            .inferred
            .contains(&Site::Local(Symbol::intern("relay"), Symbol::intern("x"))));
        assert!(r.inferred.contains(&Site::Ret(Symbol::intern("relay"))));
    }

    #[test]
    fn one_bad_caller_poisons_a_parameter() {
        let r = infer(
            "void take(int v) { }
             void good() { take(3); }
             void bad() { take(0); }",
            "pos",
        );
        assert!(r
            .rejected
            .contains(&Site::Param(Symbol::intern("take"), Symbol::intern("v"))));
    }

    #[test]
    fn uncalled_parameters_keep_the_optimistic_assumption() {
        let r = infer("int id(int v) { return v; }", "pos");
        assert!(r
            .inferred
            .contains(&Site::Param(Symbol::intern("id"), Symbol::intern("v"))));
        // And the return follows from the parameter.
        assert!(r.inferred.contains(&Site::Ret(Symbol::intern("id"))));
    }

    #[test]
    fn mutual_dependence_resolves_to_the_greatest_fixpoint() {
        // a and b copy each other and are seeded with a constant: both
        // stay pos. c is seeded with 0: both c and d fall.
        let r = infer(
            "void f() {
                 int a = 1;
                 int b = a;
                 a = b;
                 int c = 0;
                 int d = c;
                 c = d;
             }",
            "pos",
        );
        let f = Symbol::intern("f");
        assert!(r.inferred.contains(&Site::Local(f, Symbol::intern("a"))));
        assert!(r.inferred.contains(&Site::Local(f, Symbol::intern("b"))));
        assert!(r.rejected.contains(&Site::Local(f, Symbol::intern("c"))));
        assert!(r.rejected.contains(&Site::Local(f, Symbol::intern("d"))));
    }

    #[test]
    fn derived_expressions_count() {
        let r = infer(
            "void f(int pos seed) {
                 int p = seed * seed;
                 int q = seed + seed;
             }",
            "pos",
        );
        let f = Symbol::intern("f");
        // Products of pos are pos; sums are not derivable.
        assert!(r.inferred.contains(&Site::Local(f, Symbol::intern("p"))));
        assert!(r.rejected.contains(&Site::Local(f, Symbol::intern("q"))));
    }

    #[test]
    fn nonnull_inference_on_pointers() {
        let r = infer(
            "int g;
             void f() {
                 int* p = &g;
                 int* q = NULL;
             }",
            "nonnull",
        );
        let f = Symbol::intern("f");
        assert!(r.inferred.contains(&Site::Local(f, Symbol::intern("p"))));
        assert!(r.rejected.contains(&Site::Local(f, Symbol::intern("q"))));
        // The int global is not a candidate for a pointer qualifier.
        assert!(!r
            .inferred
            .iter()
            .chain(&r.rejected)
            .any(|s| *s == Site::Global(Symbol::intern("g"))));
    }

    #[test]
    fn annotated_program_typechecks_cleaner() {
        // Inference discovers nonnull for p, which then licenses the
        // dereference — the annotation burden drops to zero.
        let registry = Registry::builtins();
        let src = "int g;
                   int f() {
                       int* p = &g;
                       return *p;
                   }";
        let program = parse_program(src, &registry.names()).expect("parses");
        let before = crate::check::check_program(&registry, &program);
        assert_eq!(before.stats.qualifier_errors, 1);
        let inferred = infer_annotations(&registry, &program, Symbol::intern("nonnull"));
        let after = crate::check::check_program(&registry, &inferred.annotated);
        assert_eq!(after.stats.qualifier_errors, 0, "{}", after.diags);
    }

    /// Infers `qual` for `src`, asserts it rejects local `var` of `f`, and
    /// returns the check of the annotated program.
    fn assert_local_rejected(src: &str, qual: &str, var: &str) -> crate::CheckResult {
        let registry = Registry::builtins();
        let program = parse_program(src, &registry.names()).expect("parses");
        let r = infer_annotations(&registry, &program, Symbol::intern(qual));
        let site = Site::Local(Symbol::intern("f"), Symbol::intern(var));
        assert!(
            r.rejected.contains(&site),
            "{site} kept {qual}; inferred {:?}",
            r.inferred
        );
        crate::check::check_program(&registry, &r.annotated)
    }

    #[test]
    fn an_allocation_justifies_only_a_qualifier_with_a_new_rule() {
        let checked = assert_local_rejected(
            "int f() { int* p = malloc(4); *p = 1; return 0; }",
            "nonnull",
            "p",
        );
        assert!(
            !checked.diags.to_string().contains("no `new` case rule"),
            "{}",
            checked.diags
        );
    }

    #[test]
    fn a_prototype_return_type_decides_a_call_result() {
        let checked = assert_local_rejected(
            "int* getptr();
             int f() { int* p = getptr(); int y = *p; return y; }",
            "nonnull",
            "p",
        );
        assert!(
            !checked.diags.to_string().contains("lacks qualifier"),
            "{}",
            checked.diags
        );
    }

    #[test]
    fn a_prototype_call_result_does_not_silence_a_division_restrict() {
        let checked = assert_local_rejected(
            "int read_int();
             int f() { int x = read_int(); int y = 10 / x; return y; }",
            "nonzero",
            "x",
        );
        assert_eq!(checked.stats.qualifier_errors, 1, "{}", checked.diags);
    }

    #[test]
    fn existing_annotations_are_not_reported_as_inferred() {
        let r = infer("int pos limit = 10;", "pos");
        assert!(r.inferred.is_empty());
        assert!(r.rejected.is_empty());
    }

    #[test]
    fn iterations_are_bounded() {
        // A long chain needs one iteration per link at worst.
        let r = infer(
            "void f() {
                 int a = 0;
                 int b = a;
                 int c = b;
                 int d = c;
             }",
            "pos",
        );
        assert!(r.iterations <= 6, "{} iterations", r.iterations);
        assert_eq!(r.inferred.len(), 0);
        assert_eq!(r.rejected.len(), 4);
    }

    #[test]
    #[should_panic(expected = "value qualifiers")]
    fn reference_qualifiers_are_rejected() {
        let registry = Registry::builtins();
        let program = parse_program("", &registry.names()).unwrap();
        let _ = infer_annotations(&registry, &program, Symbol::intern("unique"));
    }
}
