//! The extensible typechecker (paper §3): walks a program applying the
//! standard rules for assignments, calls, and returns, augmented with the
//! user-defined qualifier rules from the registry.
//!
//! * **Value qualifiers** flow through the subtype relation `τ q ≤ τ`:
//!   an assignment target's value qualifiers must each be derivable for
//!   the right-hand side (declared type, cast assertion, or `case` rule).
//!   Types under pointers are invariant (`ref τ ≤ ref τ` only), so nested
//!   qualifier sets must match exactly.
//! * **`restrict` rules** are enforced on every (sub)expression of the
//!   program: wherever a clause's pattern matches, its predicate must hold.
//! * **Reference qualifiers** are enforced on assignments (explicit and
//!   implicit): the right-hand-side form must be licensed by the
//!   qualifier's `assign` block (or `ondecl`), and the `disallow` block
//!   restricts reads and address-taking of qualified l-values on
//!   right-hand sides.
//!
//! Qualifier violations are reported as **warnings** ("compilation is
//! allowed to continue"); base-type problems (unbound variables, shape
//! mismatches) are errors.

use crate::env::{StaticTy, TypeEnv};
use crate::infer::Inference;
use crate::instrument::runtime_invariant;
use std::borrow::Cow;
use stq_cir::ast::*;
use stq_cir::pretty::{expr_to_string, lval_to_string};
use stq_qualspec::{AssignRhs, Pattern, QualKind, Registry};
use stq_util::{Diagnostics, Span, Symbol};

/// Counters the experiment harness reports (the columns of Tables 1 and 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Pointer dereferences encountered (reads and writes).
    pub dereferences: usize,
    /// Declaration sites whose type mentions a registered qualifier.
    pub annotations: usize,
    /// Casts to types mentioning a registered qualifier.
    pub casts: usize,
    /// Qualifier violations reported (warnings).
    pub qualifier_errors: usize,
    /// `printf`-family calls encountered.
    pub printf_calls: usize,
    /// Restrict-clause pattern matches checked.
    pub restrict_checks: usize,
    /// Case-clause match attempts performed by inference.
    pub match_attempts: u64,
    /// Expression nodes walked by the checker.
    pub exprs_visited: u64,
    /// Case clauses that fired (pattern matched, guard held).
    pub case_applications: u64,
    /// Always 0: inference keeps no memo table. The counter stays so the
    /// telemetry schema does not change.
    pub memo_hits: u64,
    /// Inference queries computed.
    pub memo_misses: u64,
    /// Cast sites that run-time instrumentation would check (casts to a
    /// value qualifier with a declared invariant, per qualifier).
    pub casts_instrumented: usize,
}

/// The outcome of checking a program.
#[derive(Clone, Debug, Default)]
pub struct CheckResult {
    /// All diagnostics, in source order of discovery.
    pub diags: Diagnostics,
    /// Experiment counters.
    pub stats: CheckStats,
}

impl CheckResult {
    /// True if no qualifier violations or errors were found.
    pub fn is_clean(&self) -> bool {
        !self.diags.has_problems()
    }
}

const PRINTF_FAMILY: [&str; 7] = [
    "printf", "fprintf", "sprintf", "snprintf", "syslog", "vsyslog", "vprintf",
];

/// Options controlling the checking pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckOptions {
    /// Enable the flow-sensitive extension (paper §8's planned
    /// extension): branch conditions refine the types of unaddressed
    /// locals and parameters inside the branches they dominate (see
    /// [`crate::flow`]). Off by default — the paper's system is
    /// flow-insensitive.
    pub flow_sensitive: bool,
}

/// Typechecks `program` against the qualifier rules in `registry`.
///
/// # Examples
///
/// ```
/// use stq_qualspec::Registry;
/// use stq_cir::parse::parse_program;
/// use stq_typecheck::check_program;
///
/// let registry = Registry::builtins();
/// let program = parse_program(
///     "int pos gcd(int pos n, int pos m);
///      int pos lcm(int pos a, int pos b) {
///          int pos d = gcd(a, b);
///          int pos prod = a * b;
///          return (int pos) (prod / d);
///      }",
///     &registry.names(),
/// ).unwrap();
/// let result = check_program(&registry, &program);
/// assert!(result.is_clean());
/// assert_eq!(result.stats.casts, 1);
/// ```
pub fn check_program(registry: &Registry, program: &Program) -> CheckResult {
    check_program_with(registry, program, CheckOptions::default())
}

/// Typechecks with explicit [`CheckOptions`].
pub fn check_program_with(
    registry: &Registry,
    program: &Program,
    options: CheckOptions,
) -> CheckResult {
    let mut env = TypeEnv::new(program, registry);
    let mut checker = Checker {
        registry,
        program,
        options,
        diags: Diagnostics::new(),
        stats: CheckStats::default(),
        address_taken: Vec::new(),
    };

    // Annotation counting over declaration sites.
    for s in &program.structs {
        for (_, ty) in &s.fields {
            checker.count_annotation(ty);
        }
    }
    for g in &program.globals {
        checker.count_annotation(&g.ty);
    }
    for f in &program.funcs {
        checker.count_annotation(&f.sig.ret);
        for (_, ty) in &f.sig.params {
            checker.count_annotation(ty);
        }
    }
    for proto in &program.protos {
        if program.func(proto.name).is_none() {
            checker.count_annotation(&proto.sig.ret);
            for (_, ty) in &proto.sig.params {
                checker.count_annotation(ty);
            }
        }
    }

    // Globals: initializers behave like assignments.
    for g in &program.globals {
        if let Some(init) = &g.init {
            checker.walk_expr(&env, init, Ctx::rhs());
            checker.check_value_assign(&env, &g.ty, init, g.span);
            checker.check_ref_assign(&env, &g.ty, rhs_form_of_expr(init), g.span);
        }
    }

    // Functions.
    for f in &program.funcs {
        if options.flow_sensitive {
            checker.address_taken = crate::flow::address_taken(&f.body);
        }
        env.push_scope();
        for (name, ty) in &f.sig.params {
            env.declare(*name, Cow::Borrowed(ty));
        }
        checker.walk_stmts(&mut env, &f.body, &f.sig.ret);
        env.pop_scope();
    }

    CheckResult {
        diags: checker.diags,
        stats: checker.stats,
    }
}

/// Whether an allocation result may carry qualifier `q`: `q` has a `new`
/// case rule whose guard holds.
pub(crate) fn new_introducible(registry: &Registry, q: Symbol) -> bool {
    let Some(def) = registry.get(q) else {
        return false;
    };
    def.cases
        .iter()
        .any(|c| matches!(c.pattern, Pattern::New) && matches!(c.guard, stq_qualspec::Pred::True))
}

/// Expression-walk context for `disallow` enforcement.
#[derive(Clone, Copy, Debug)]
struct Ctx {
    /// Whether this expression flows into an (explicit or implicit)
    /// assignment's right-hand side.
    rhs: bool,
    /// Whether the current subexpression feeds a dereference (reads of
    /// reference-qualified l-values are permitted there).
    under_deref: bool,
}

impl Ctx {
    fn rhs() -> Ctx {
        Ctx {
            rhs: true,
            under_deref: false,
        }
    }

    fn condition() -> Ctx {
        Ctx {
            rhs: false,
            under_deref: false,
        }
    }
}

/// Classification of an assignment right-hand side against `assign` rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RhsForm {
    Null,
    Const,
    New,
    Call,
    Other,
}

fn rhs_form_of_expr(e: &Expr) -> RhsForm {
    match &e.kind {
        ExprKind::Null => RhsForm::Null,
        ExprKind::IntLit(_) | ExprKind::StrLit(_) => RhsForm::Const,
        _ => RhsForm::Other,
    }
}

struct Checker<'a> {
    registry: &'a Registry,
    program: &'a Program,
    options: CheckOptions,
    diags: Diagnostics,
    stats: CheckStats,
    /// Under flow sensitivity: the variables whose address the function
    /// being checked takes anywhere in its body.
    address_taken: Vec<Symbol>,
}

impl<'a> Checker<'a> {
    /// Folds one inference engine's telemetry into the pass counters.
    fn absorb_inference(&mut self, inf: &Inference<'_>) {
        self.stats.match_attempts += inf.match_attempts;
        self.stats.case_applications += inf.case_applications;
        self.stats.memo_misses += inf.memo_misses;
    }

    fn qual_violation(&mut self, span: Span, msg: String) {
        self.stats.qualifier_errors += 1;
        self.diags.warning(span, msg);
    }

    fn mentions_registered_qual(&self, ty: &QualType) -> bool {
        if ty.quals.iter().any(|q| self.registry.get(*q).is_some()) {
            return true;
        }
        ty.pointee()
            .is_some_and(|p| self.mentions_registered_qual(p))
    }

    fn count_annotation(&mut self, ty: &QualType) {
        if self.mentions_registered_qual(ty) {
            self.stats.annotations += 1;
        }
    }

    // ----- statements -----

    fn walk_stmts(&mut self, env: &mut TypeEnv<'a>, stmts: &'a [Stmt], ret: &QualType) {
        env.push_scope();
        for s in stmts {
            self.walk_stmt(env, s, ret);
        }
        env.pop_scope();
    }

    fn walk_stmt(&mut self, env: &mut TypeEnv<'a>, stmt: &'a Stmt, ret: &QualType) {
        match &stmt.kind {
            StmtKind::Instr(i) => self.walk_instr(env, i),
            StmtKind::Block(stmts) => self.walk_stmts(env, stmts, ret),
            StmtKind::If(cond, then, els) => {
                self.walk_expr(env, cond, Ctx::condition());
                let refinements = self
                    .options
                    .flow_sensitive
                    .then(|| crate::flow::refinements(self.registry, cond));
                self.walk_refined(
                    env,
                    then,
                    ret,
                    refinements.as_ref().map(|r| r.then_branch.as_slice()),
                );
                if let Some(e) = els {
                    self.walk_refined(
                        env,
                        e,
                        ret,
                        refinements.as_ref().map(|r| r.else_branch.as_slice()),
                    );
                }
            }
            StmtKind::While(cond, body) => {
                self.walk_expr(env, cond, Ctx::condition());
                let refinements = self
                    .options
                    .flow_sensitive
                    .then(|| crate::flow::refinements(self.registry, cond));
                self.walk_refined(
                    env,
                    body,
                    ret,
                    refinements.as_ref().map(|r| r.then_branch.as_slice()),
                );
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    self.walk_expr(env, e, Ctx::rhs());
                    self.check_value_assign(env, ret, e, stmt.span);
                }
            }
            StmtKind::Decl(d) => {
                self.count_annotation(&d.ty);
                env.declare(d.name, Cow::Borrowed(&d.ty));
                if let Some(init) = &d.init {
                    self.walk_expr(env, init, Ctx::rhs());
                    self.check_assignment(env, &d.ty, init, d.span);
                }
            }
        }
    }

    /// Walks a branch with optional flow-sensitive refinements: each
    /// refined variable gets its declared type augmented with the
    /// qualifiers the dominating condition implies, provided it is a
    /// local or parameter whose address the function never takes, the
    /// branch does not assign it, and the qualifier's subject type
    /// pattern accepts its type.
    fn walk_refined(
        &mut self,
        env: &mut TypeEnv<'a>,
        branch: &'a Stmt,
        ret: &QualType,
        refinements: Option<&[(Symbol, std::collections::BTreeSet<Symbol>)]>,
    ) {
        match refinements {
            None | Some([]) => self.walk_stmt(env, branch, ret),
            Some(refs) => {
                env.push_scope();
                for (var, quals) in refs {
                    if self.address_taken.contains(var) || crate::flow::assigns(branch, *var) {
                        continue;
                    }
                    // A global is never refined: a call can change it.
                    let Some(mut ty) = env.lookup_local(*var).cloned() else {
                        continue;
                    };
                    for &q in quals {
                        let subject_fits = self.registry.get(q).is_some_and(|def| {
                            crate::infer::type_pat_accepts(
                                &def.subject.ty,
                                &StaticTy::Known(Cow::Borrowed(&ty)),
                            )
                        });
                        if subject_fits {
                            ty.quals.insert(q);
                        }
                    }
                    env.declare(*var, Cow::Owned(ty));
                }
                self.walk_stmt(env, branch, ret);
                env.pop_scope();
            }
        }
    }

    /// The shared checking for `target = e` (explicit `Set` instructions
    /// and declarations with initializers): value-qualifier assignability
    /// plus reference-qualifier assign rules, with cast-asserted
    /// reference qualifiers accepted unchecked like any C cast (§2.2.3).
    fn check_assignment(&mut self, env: &TypeEnv<'a>, target: &QualType, e: &Expr, span: Span) {
        self.check_value_assign(env, target, e, span);
        // Reference qualifiers asserted by a top-level cast are exempt
        // from the assign rules.
        let mut exempt: Vec<Symbol> = Vec::new();
        if let ExprKind::Cast(ty, _) = &e.kind {
            exempt.extend(ty.quals.iter().copied().filter(|q| {
                self.registry
                    .get(*q)
                    .is_some_and(|d| d.kind == QualKind::Ref)
                    && target.has_qual(*q)
            }));
        }
        self.check_ref_assign_exempt(env, target, rhs_form_of_expr(e), &exempt, span);
    }

    fn walk_instr(&mut self, env: &TypeEnv<'a>, instr: &Instr) {
        match &instr.kind {
            InstrKind::Set(lv, e) => {
                self.walk_lvalue(env, lv, instr.span);
                self.walk_expr(env, e, Ctx::rhs());
                if let Some(target) = self.lval_target_type(env, lv, instr.span) {
                    self.check_assignment(env, &target, e, instr.span);
                }
            }
            InstrKind::Alloc(lv, size) => {
                self.walk_lvalue(env, lv, instr.span);
                self.walk_expr(env, size, Ctx::rhs());
                if let Some(target) = self.lval_target_type(env, lv, instr.span) {
                    // Value qualifiers on the target require a `new` case
                    // rule.
                    for q in env.value_quals(&target) {
                        if !new_introducible(self.registry, q) {
                            self.qual_violation(
                                instr.span,
                                format!(
                                    "allocation result may not have qualifier `{q}` \
                                     (no `new` case rule)"
                                ),
                            );
                        }
                    }
                    self.check_ref_assign(env, &target, RhsForm::New, instr.span);
                }
            }
            InstrKind::Call(dst, fname, args) => {
                if PRINTF_FAMILY.contains(&fname.as_str()) {
                    self.stats.printf_calls += 1;
                }
                for a in args {
                    self.walk_expr(env, a, Ctx::rhs());
                }
                match self.program.signature(*fname) {
                    None => {
                        if !matches!(fname.as_str(), "free" | "abort" | "exit") {
                            self.diags.note(
                                instr.span,
                                format!(
                                    "call to `{fname}` without a prototype; \
                                     arguments unchecked"
                                ),
                            );
                        }
                        if let Some(lv) = dst {
                            self.walk_lvalue(env, lv, instr.span);
                        }
                    }
                    Some(sig) => {
                        if args.len() < sig.params.len()
                            || (!sig.varargs && args.len() > sig.params.len())
                        {
                            self.diags.error(
                                instr.span,
                                format!(
                                    "`{fname}` expects {} argument(s), got {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                            );
                        }
                        // Arguments are implicit assignments to parameters.
                        for ((_, pty), arg) in sig.params.iter().zip(args) {
                            self.check_value_assign(env, pty, arg, instr.span);
                            self.check_ref_assign(env, pty, rhs_form_of_expr(arg), instr.span);
                        }
                        // The destination is an implicit assignment from
                        // the return type.
                        if let Some(lv) = dst {
                            self.walk_lvalue(env, lv, instr.span);
                            if let Some(target) = self.lval_target_type(env, lv, instr.span) {
                                self.check_call_result_assign(
                                    env, &target, &sig.ret, *fname, instr.span,
                                );
                            }
                        }
                    }
                }
            }
            InstrKind::RuntimeCheck(_, e) => {
                self.walk_expr(env, e, Ctx::condition());
            }
        }
    }

    fn lval_target_type<'s>(
        &mut self,
        env: &'s TypeEnv<'a>,
        lv: &'s Lvalue,
        span: Span,
    ) -> Option<Cow<'s, QualType>> {
        match env.lval_decl_type(lv) {
            StaticTy::Known(t) => Some(t),
            _ => {
                if let LvalKind::Var(name) = &lv.kind {
                    if env.lookup(*name).is_none() {
                        self.diags.error(span, format!("unbound variable `{name}`"));
                    }
                }
                None
            }
        }
    }

    // ----- assignment checking -----

    /// Value-qualifier and nested-type checking for `target = e`.
    fn check_value_assign(&mut self, env: &TypeEnv<'a>, target: &QualType, e: &Expr, span: Span) {
        let src_ty = env.expr_type(e);
        if !env.shapes_compatible(target, &src_ty) {
            self.diags.error(
                span,
                format!(
                    "type mismatch: cannot assign `{}` to `{target}`",
                    expr_to_string(e)
                ),
            );
            return;
        }
        // Top-level value qualifiers: each must be derivable for e.
        for q in env.value_quals(target) {
            let mut inf = Inference::new(env);
            let ok = inf.has_qual(e, q);
            self.absorb_inference(&inf);
            if !ok {
                self.qual_violation(
                    span,
                    format!(
                        "expression `{}` may not satisfy qualifier `{q}` required here",
                        expr_to_string(e)
                    ),
                );
            }
        }
        // Nested qualifiers are invariant.
        if let StaticTy::Known(src) = &src_ty {
            if !matches!(e.kind, ExprKind::Null) {
                self.check_nested_invariance(target, src, span);
            }
        }
    }

    /// Call-result assignment: `case` rules cannot apply (calls are not
    /// expressions), so the return type must carry every required value
    /// qualifier syntactically.
    fn check_call_result_assign(
        &mut self,
        env: &TypeEnv<'a>,
        target: &QualType,
        ret: &QualType,
        fname: Symbol,
        span: Span,
    ) {
        if !env.shapes_compatible(target, &StaticTy::Known(Cow::Borrowed(ret))) {
            self.diags.error(
                span,
                format!("type mismatch: `{fname}` returns `{ret}`, target is `{target}`"),
            );
            return;
        }
        for q in env.value_quals(target) {
            if !ret.has_qual(q) {
                self.qual_violation(
                    span,
                    format!(
                        "return type of `{fname}` lacks qualifier `{q}` required \
                         by the assignment target"
                    ),
                );
            }
        }
        self.check_nested_invariance(target, ret, span);
        // A call result is never NULL/new/const: reference-qualified
        // targets reject it unless the qualifier allows arbitrary values.
        self.check_ref_assign(env, target, RhsForm::Call, span);
    }

    /// Nested (under-pointer) qualifier sets must match exactly: there is
    /// no subtyping under `ref` (paper §2.1.2 and Fig. 9).
    fn check_nested_invariance(&mut self, target: &QualType, src: &QualType, span: Span) {
        if let (Some(tp), Some(sp)) = (target.pointee(), src.pointee()) {
            // void* is the wildcard; allocation results and generic
            // pointers are exempt.
            if matches!(tp.ty, Ty::Base(BaseTy::Void)) || matches!(sp.ty, Ty::Base(BaseTy::Void)) {
                return;
            }
            let registered = |q: &&Symbol| self.registry.get(**q).is_some();
            if !tp
                .quals
                .iter()
                .filter(registered)
                .eq(sp.quals.iter().filter(registered))
            {
                self.qual_violation(
                    span,
                    format!(
                        "pointer types are invariant in their pointee qualifiers: \
                         `{src}` is not interchangeable with `{target}`"
                    ),
                );
            }
            self.check_nested_invariance(tp, sp, span);
        }
    }

    /// Reference-qualifier `assign` rule checking for `target = <form>`.
    fn check_ref_assign(
        &mut self,
        env: &TypeEnv<'a>,
        target: &QualType,
        form: RhsForm,
        span: Span,
    ) {
        self.check_ref_assign_exempt(env, target, form, &[], span);
    }

    /// As [`Checker::check_ref_assign`], skipping qualifiers asserted by
    /// an explicit cast.
    fn check_ref_assign_exempt(
        &mut self,
        env: &TypeEnv<'a>,
        target: &QualType,
        form: RhsForm,
        exempt: &[Symbol],
        span: Span,
    ) {
        for q in env.ref_quals(target) {
            if exempt.contains(&q) {
                continue;
            }
            let Some(def) = self.registry.get(q) else {
                continue;
            };
            // ondecl qualifiers accept any type-correct value (§2.2.1).
            if def.ondecl {
                continue;
            }
            let allowed = def.assigns.iter().any(|a| match a {
                AssignRhs::Null => form == RhsForm::Null,
                AssignRhs::New => form == RhsForm::New,
                AssignRhs::Const => matches!(form, RhsForm::Const | RhsForm::Null),
            });
            if !allowed {
                self.qual_violation(
                    span,
                    format!(
                        "assignment to `{q}`-qualified l-value must match its \
                         assign rules ({}); this right-hand side does not",
                        def.assigns
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(" | ")
                    ),
                );
            }
        }
    }

    // ----- expression walking: restrict, disallow, counting -----

    fn walk_lvalue(&mut self, env: &TypeEnv<'a>, lv: &Lvalue, span: Span) {
        match &lv.kind {
            LvalKind::Var(name) => {
                if env.lookup(*name).is_none() {
                    self.diags.error(span, format!("unbound variable `{name}`"));
                }
            }
            LvalKind::Deref(e) => {
                self.stats.dereferences += 1;
                self.apply_restricts(env, &Expr::lval(lv.clone()), span);
                self.walk_expr(
                    env,
                    e,
                    Ctx {
                        rhs: true,
                        under_deref: true,
                    },
                );
            }
            LvalKind::Field(inner, _) => self.walk_lvalue(env, inner, span),
        }
    }

    fn walk_expr(&mut self, env: &TypeEnv<'a>, e: &Expr, ctx: Ctx) {
        self.stats.exprs_visited += 1;
        self.apply_restricts(env, e, e.span);
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::StrLit(_) | ExprKind::Null | ExprKind::SizeOf(_) => {}
            ExprKind::Lval(lv) => {
                // disallow: reading a reference-qualified l-value on a
                // right-hand side (outside a dereference).
                if ctx.rhs && !ctx.under_deref {
                    self.check_disallow_read(env, lv, e.span);
                }
                self.walk_lvalue_in_expr(env, lv, ctx, e.span);
            }
            ExprKind::AddrOf(lv) => {
                if ctx.rhs {
                    self.check_disallow_addr(env, lv, e.span);
                }
                self.walk_lvalue_in_expr(
                    env,
                    lv,
                    Ctx {
                        rhs: ctx.rhs,
                        under_deref: false,
                    },
                    e.span,
                );
            }
            ExprKind::Unop(_, a) => self.walk_expr(env, a, ctx),
            ExprKind::Binop(_, a, b) => {
                self.walk_expr(env, a, ctx);
                self.walk_expr(env, b, ctx);
            }
            ExprKind::Cast(ty, inner) => {
                if self.mentions_registered_qual(ty) {
                    self.stats.casts += 1;
                }
                // Mirrors `instrument_program`: one run-time check per
                // qualifier the cast asserts that has a run-time invariant.
                self.stats.casts_instrumented += ty
                    .quals
                    .iter()
                    .filter(|&&q| runtime_invariant(self.registry, q).is_some())
                    .count();
                self.walk_expr(env, inner, ctx);
            }
        }
    }

    fn walk_lvalue_in_expr(&mut self, env: &TypeEnv<'a>, lv: &Lvalue, ctx: Ctx, span: Span) {
        match &lv.kind {
            LvalKind::Var(name) => {
                if env.lookup(*name).is_none() {
                    self.diags.error(span, format!("unbound variable `{name}`"));
                }
            }
            LvalKind::Deref(e) => {
                self.stats.dereferences += 1;
                self.walk_expr(
                    env,
                    e,
                    Ctx {
                        rhs: ctx.rhs,
                        under_deref: true,
                    },
                );
            }
            LvalKind::Field(inner, _) => self.walk_lvalue_in_expr(env, inner, ctx, span),
        }
    }

    fn check_disallow_read(&mut self, env: &TypeEnv<'a>, lv: &Lvalue, span: Span) {
        if let StaticTy::Known(t) = env.lval_decl_type(lv) {
            for &q in &t.quals {
                if let Some(def) = self.registry.get(q) {
                    if def.kind == QualKind::Ref && def.disallow.ref_use {
                        self.qual_violation(
                            span,
                            format!(
                                "`{}` has qualifier `{q}`, which disallows referring \
                                 to it on a right-hand side",
                                lval_to_string(lv)
                            ),
                        );
                    }
                }
            }
        }
    }

    fn check_disallow_addr(&mut self, env: &TypeEnv<'a>, lv: &Lvalue, span: Span) {
        if let StaticTy::Known(t) = env.lval_decl_type(lv) {
            for &q in &t.quals {
                if let Some(def) = self.registry.get(q) {
                    if def.kind == QualKind::Ref && def.disallow.addr_of {
                        self.qual_violation(
                            span,
                            format!(
                                "`&{}` takes the address of a `{q}`-qualified \
                                 l-value, which its disallow rule forbids",
                                lval_to_string(lv)
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Applies every registered `restrict` clause whose pattern matches.
    fn apply_restricts(&mut self, env: &TypeEnv<'a>, e: &Expr, span: Span) {
        let registry = self.registry;
        for def in registry.iter() {
            for clause in &def.restricts {
                let mut inf = Inference::new(env);
                if let Some(bindings) = inf.match_clause(clause, e) {
                    self.stats.restrict_checks += 1;
                    let ok = inf.eval_guard(&clause.guard, &bindings);
                    self.absorb_inference(&inf);
                    if !ok {
                        self.qual_violation(
                            span,
                            format!(
                                "`{}` violates the restrict rule of qualifier \
                                 `{}` (pattern `{}` requires `{}`)",
                                expr_to_string(e),
                                def.name,
                                clause.pattern,
                                clause.guard
                            ),
                        );
                    }
                } else {
                    self.absorb_inference(&inf);
                }
            }
        }
    }
}
