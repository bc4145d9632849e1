//! Seeded generation of statically clean C-subset programs.
//!
//! The port of the `crates/lambda` generator idea to the full C subset:
//! programs are clean *by construction* because every expression that
//! flows into a qualified position is built from exactly the derivation
//! rules of the builtin qualifier library (`pos` is a positive literal, a
//! product of two `pos` expressions, or a negated `neg` expression — and
//! nothing else), every dereference goes through a `nonnull` pointer,
//! every division and modulo gets a `nonzero`-derivable denominator,
//! loops are counter-bounded, and the call graph is acyclic.
//!
//! The generator emits *source text*, not an AST: the front end is part
//! of the pipeline under test, so every generated program also exercises
//! the lexer and parser.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stq_cir::ast::Program;
use stq_cir::interp::Value;

/// Generator limits.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of functions per program (the last one is the entry).
    pub max_fns: usize,
    /// Maximum statements per block.
    pub max_block: usize,
    /// Maximum expression and block nesting depth.
    pub max_depth: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_fns: 3,
            max_block: 4,
            max_depth: 3,
        }
    }
}

/// The value-qualifier sets the generator knows how to derive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Quals {
    Plain,
    Pos,
    Neg,
    Nonzero,
    PosNonzero,
    NegNonzero,
}

impl Quals {
    fn render(self) -> &'static str {
        match self {
            Quals::Plain => "int",
            Quals::Pos => "int pos",
            Quals::Neg => "int neg",
            Quals::Nonzero => "int nonzero",
            Quals::PosNonzero => "int nonzero pos",
            Quals::NegNonzero => "int neg nonzero",
        }
    }

    /// Whether a variable declared with `self` can stand where `req` is
    /// required (mirrors the case rules: `pos(E)` or `neg(E)` implies
    /// `nonzero(E)`).
    fn satisfies(self, req: Quals) -> bool {
        match req {
            Quals::Plain => true,
            Quals::Pos => matches!(self, Quals::Pos | Quals::PosNonzero),
            Quals::Neg => matches!(self, Quals::Neg | Quals::NegNonzero),
            Quals::Nonzero => self != Quals::Plain,
            Quals::PosNonzero | Quals::NegNonzero => unreachable!("compound reqs are lowered"),
        }
    }
}

#[derive(Clone, Debug)]
enum VTy {
    Int(Quals),
    Ptr { nonnull: bool },
}

#[derive(Clone, Debug)]
struct Var {
    name: String,
    ty: VTy,
    /// Loop counters are read-only for generated assignments: the loop
    /// header owns the increment, which is what bounds the loop.
    assignable: bool,
}

#[derive(Clone, Debug)]
struct FnInfo {
    name: String,
    ret: Quals,
    params: Vec<Quals>,
}

/// Generates a statically clean program from a seed. Same seed and
/// config always produce byte-identical source.
pub fn generate_source(seed: u64, config: &GenConfig) -> String {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg: *config,
        fresh: 0,
        fns: Vec::new(),
        out: String::new(),
    };
    gen.program();
    gen.out
}

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    fresh: u32,
    fns: Vec<FnInfo>,
    out: String,
}

impl Gen {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn quals(&mut self) -> Quals {
        match self.rng.gen_range(0u32..8) {
            0..=2 => Quals::Plain,
            3 => Quals::Pos,
            4 => Quals::Neg,
            5 => Quals::Nonzero,
            6 => Quals::PosNonzero,
            _ => Quals::NegNonzero,
        }
    }

    /// Lowers a compound requirement to the rule family that derives it.
    fn lower(req: Quals) -> Quals {
        match req {
            Quals::PosNonzero => Quals::Pos,
            Quals::NegNonzero => Quals::Neg,
            other => other,
        }
    }

    fn int_vars<'a>(&self, scope: &'a [Var], req: Quals) -> Vec<&'a Var> {
        scope
            .iter()
            .filter(|v| matches!(&v.ty, VTy::Int(q) if q.satisfies(req)))
            .collect()
    }

    fn int_expr(&mut self, depth: u32, req: Quals, scope: &[Var]) -> String {
        match Self::lower(req) {
            Quals::Pos => self.pos_expr(depth, scope),
            Quals::Neg => self.neg_expr(depth, scope),
            Quals::Nonzero => self.nonzero_expr(depth, scope),
            _ => self.plain_expr(depth, scope),
        }
    }

    fn pos_expr(&mut self, depth: u32, scope: &[Var]) -> String {
        let vars = self.int_vars(scope, Quals::Pos);
        let max = if depth == 0 { 2 } else { 4 };
        match self.rng.gen_range(0u32..max) {
            0 => self.rng.gen_range(1i64..=9).to_string(),
            1 if !vars.is_empty() => vars[self.rng.gen_range(0..vars.len())].name.clone(),
            1 => self.rng.gen_range(1i64..=9).to_string(),
            2 => format!(
                "({} * {})",
                self.pos_expr(depth - 1, scope),
                self.pos_expr(depth - 1, scope)
            ),
            _ => format!("(-{})", self.neg_expr(depth - 1, scope)),
        }
    }

    fn neg_expr(&mut self, depth: u32, scope: &[Var]) -> String {
        let vars = self.int_vars(scope, Quals::Neg);
        let max = if depth == 0 { 2 } else { 4 };
        match self.rng.gen_range(0u32..max) {
            // `(0 - k)` has no derivation rule; a negative literal does.
            0 => format!("(-{})", self.rng.gen_range(1i64..=9)),
            1 if !vars.is_empty() => vars[self.rng.gen_range(0..vars.len())].name.clone(),
            1 => format!("(-{})", self.rng.gen_range(1i64..=9)),
            2 => {
                let (a, b) = (
                    self.pos_expr(depth - 1, scope),
                    self.neg_expr(depth - 1, scope),
                );
                if self.rng.gen_bool(0.5) {
                    format!("({a} * {b})")
                } else {
                    format!("({b} * {a})")
                }
            }
            _ => format!("(-{})", self.pos_expr(depth - 1, scope)),
        }
    }

    fn nonzero_expr(&mut self, depth: u32, scope: &[Var]) -> String {
        let vars = self.int_vars(scope, Quals::Nonzero);
        let max = if depth == 0 { 2 } else { 5 };
        match self.rng.gen_range(0u32..max) {
            0 if !vars.is_empty() => vars[self.rng.gen_range(0..vars.len())].name.clone(),
            0 | 1 => {
                let k = self.rng.gen_range(1i64..=9);
                if self.rng.gen_bool(0.5) {
                    k.to_string()
                } else {
                    format!("(-{k})")
                }
            }
            2 => self.pos_expr(depth - 1, scope),
            3 => self.neg_expr(depth - 1, scope),
            _ => format!(
                "({} * {})",
                self.nonzero_expr(depth - 1, scope),
                self.nonzero_expr(depth - 1, scope)
            ),
        }
    }

    fn plain_expr(&mut self, depth: u32, scope: &[Var]) -> String {
        let vars = self.int_vars(scope, Quals::Plain);
        let derefable: Vec<&Var> = scope
            .iter()
            .filter(|v| matches!(v.ty, VTy::Ptr { nonnull: true }))
            .collect();
        let max = if depth == 0 { 2 } else { 7 };
        match self.rng.gen_range(0u32..max) {
            0 => self.rng.gen_range(-9i64..=9).to_string(),
            1 if !vars.is_empty() => vars[self.rng.gen_range(0..vars.len())].name.clone(),
            1 => self.rng.gen_range(-9i64..=9).to_string(),
            2 => {
                let op = ["+", "-", "*"][self.rng.gen_range(0..3usize)];
                format!(
                    "({} {op} {})",
                    self.plain_expr(depth - 1, scope),
                    self.plain_expr(depth - 1, scope)
                )
            }
            3 => {
                // Guarded division / modulo: the denominator is derived
                // by the nonzero rules, so the `/` restrict is satisfied
                // statically and neither operator can trap dynamically.
                let op = if self.rng.gen_bool(0.5) { "/" } else { "%" };
                format!(
                    "({} {op} {})",
                    self.plain_expr(depth - 1, scope),
                    self.nonzero_expr(depth - 1, scope)
                )
            }
            4 => {
                let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
                format!(
                    "({} {op} {})",
                    self.plain_expr(depth - 1, scope),
                    self.plain_expr(depth - 1, scope)
                )
            }
            5 if !derefable.is_empty() => {
                format!(
                    "(*{})",
                    derefable[self.rng.gen_range(0..derefable.len())].name
                )
            }
            // The inner expression can be a bare negative literal, so it
            // must be parenthesized or `-` + `-9` fuses into `--`.
            _ => format!("(-({}))", self.plain_expr(depth - 1, scope)),
        }
    }

    /// A pointer expression. `nonnull` requires either a plain-int
    /// variable to take the address of (the `&L` case rule) or a nonnull
    /// pointer variable already in scope; the caller checks
    /// [`Gen::can_make_nonnull`] first.
    fn ptr_expr(&mut self, nonnull: bool, scope: &[Var]) -> String {
        // Loop counters are excluded (`assignable`): a store through a
        // pointer aliasing the counter could unbound the loop.
        let addressable: Vec<&Var> = scope
            .iter()
            .filter(|v| v.assignable && matches!(v.ty, VTy::Int(Quals::Plain)))
            .collect();
        let nonnull_ptrs: Vec<&Var> = scope
            .iter()
            .filter(|v| matches!(v.ty, VTy::Ptr { nonnull: true }))
            .collect();
        if nonnull {
            let use_addr = if nonnull_ptrs.is_empty() {
                true
            } else if addressable.is_empty() {
                false
            } else {
                self.rng.gen_bool(0.7)
            };
            if use_addr {
                format!(
                    "(&{})",
                    addressable[self.rng.gen_range(0..addressable.len())].name
                )
            } else {
                nonnull_ptrs[self.rng.gen_range(0..nonnull_ptrs.len())]
                    .name
                    .clone()
            }
        } else {
            let any_ptrs: Vec<&Var> = scope
                .iter()
                .filter(|v| matches!(v.ty, VTy::Ptr { .. }))
                .collect();
            match self.rng.gen_range(0u32..3) {
                0 if !any_ptrs.is_empty() => {
                    any_ptrs[self.rng.gen_range(0..any_ptrs.len())].name.clone()
                }
                1 if !addressable.is_empty() => {
                    format!(
                        "(&{})",
                        addressable[self.rng.gen_range(0..addressable.len())].name
                    )
                }
                _ => "NULL".to_owned(),
            }
        }
    }

    fn can_make_nonnull(&self, scope: &[Var]) -> bool {
        scope.iter().any(|v| {
            (v.assignable && matches!(v.ty, VTy::Int(Quals::Plain)))
                || matches!(v.ty, VTy::Ptr { nonnull: true })
        })
    }

    fn cond_expr(&mut self, depth: u32, scope: &[Var]) -> String {
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
        format!(
            "({} {op} {})",
            self.plain_expr(depth, scope),
            self.plain_expr(depth, scope)
        )
    }

    fn line(&mut self, indent: usize, text: &str) {
        for _ in 0..indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block(&mut self, depth: u32, indent: usize, scope: &mut Vec<Var>) {
        let n = self.rng.gen_range(1..=self.cfg.max_block);
        let mark = scope.len();
        for _ in 0..n {
            self.stmt(depth, indent, scope);
        }
        scope.truncate(mark);
    }

    fn stmt(&mut self, depth: u32, indent: usize, scope: &mut Vec<Var>) {
        let choice = if depth == 0 {
            self.rng.gen_range(0u32..5)
        } else {
            self.rng.gen_range(0u32..10)
        };
        match choice {
            // Qualified (or plain) int declaration with a conforming
            // initializer.
            0 | 1 => {
                let q = self.quals();
                let name = self.fresh("v");
                let init = self.int_expr(depth, q, scope);
                self.line(indent, &format!("{} {name} = {init};", q.render()));
                scope.push(Var {
                    name,
                    ty: VTy::Int(q),
                    assignable: true,
                });
            }
            // Pointer declaration (plain, nonnull, or malloc-backed).
            2 => {
                let name = self.fresh("p");
                match self.rng.gen_range(0u32..3) {
                    0 if self.can_make_nonnull(scope) => {
                        let init = self.ptr_expr(true, scope);
                        self.line(indent, &format!("int* nonnull {name} = {init};"));
                        scope.push(Var {
                            name,
                            ty: VTy::Ptr { nonnull: true },
                            assignable: true,
                        });
                    }
                    1 => {
                        let cells = self.rng.gen_range(1i64..=8);
                        self.line(indent, &format!("int* {name} = malloc({cells});"));
                        scope.push(Var {
                            name,
                            ty: VTy::Ptr { nonnull: false },
                            assignable: true,
                        });
                    }
                    _ => {
                        let init = self.ptr_expr(false, scope);
                        self.line(indent, &format!("int* {name} = {init};"));
                        scope.push(Var {
                            name,
                            ty: VTy::Ptr { nonnull: false },
                            assignable: true,
                        });
                    }
                }
            }
            // Assignment to an int variable, conforming to its quals.
            3 | 4 => {
                let targets: Vec<(String, Quals)> = scope
                    .iter()
                    .filter(|v| v.assignable)
                    .filter_map(|v| match &v.ty {
                        VTy::Int(q) => Some((v.name.clone(), *q)),
                        VTy::Ptr { .. } => None,
                    })
                    .collect();
                if targets.is_empty() {
                    return self.stmt_fallback(depth, indent, scope);
                }
                let (name, q) = targets[self.rng.gen_range(0..targets.len())].clone();
                let rhs = self.int_expr(depth, q, scope);
                self.line(indent, &format!("{name} = {rhs};"));
            }
            // Assignment to a pointer variable.
            5 => {
                let targets: Vec<(String, bool)> = scope
                    .iter()
                    .filter(|v| v.assignable)
                    .filter_map(|v| match v.ty {
                        VTy::Ptr { nonnull } => Some((v.name.clone(), nonnull)),
                        VTy::Int(_) => None,
                    })
                    .collect();
                if targets.is_empty() {
                    return self.stmt_fallback(depth, indent, scope);
                }
                let (name, nonnull) = targets[self.rng.gen_range(0..targets.len())].clone();
                if nonnull && !self.can_make_nonnull(scope) {
                    return self.stmt_fallback(depth, indent, scope);
                }
                let rhs = self.ptr_expr(nonnull, scope);
                self.line(indent, &format!("{name} = {rhs};"));
            }
            // Store through a nonnull pointer (pointee is plain int).
            6 => {
                let ptrs: Vec<String> = scope
                    .iter()
                    .filter(|v| matches!(v.ty, VTy::Ptr { nonnull: true }))
                    .map(|v| v.name.clone())
                    .collect();
                if ptrs.is_empty() {
                    return self.stmt_fallback(depth, indent, scope);
                }
                let p = ptrs[self.rng.gen_range(0..ptrs.len())].clone();
                let rhs = self.plain_expr(depth, scope);
                self.line(indent, &format!("*{p} = {rhs};"));
            }
            // Branch.
            7 => {
                let cond = self.cond_expr(depth - 1, scope);
                self.line(indent, &format!("if ({cond}) {{"));
                self.block(depth - 1, indent + 1, scope);
                if self.rng.gen_bool(0.4) {
                    self.line(indent, "} else {");
                    self.block(depth - 1, indent + 1, scope);
                }
                self.line(indent, "}");
            }
            // Counter-bounded loop: the generator owns the increment, so
            // termination is by construction.
            8 => {
                let i = self.fresh("i");
                let bound = self.rng.gen_range(1i64..=4);
                self.line(indent, &format!("int {i} = 0;"));
                self.line(indent, &format!("while ({i} < {bound}) {{"));
                scope.push(Var {
                    name: i.clone(),
                    ty: VTy::Int(Quals::Plain),
                    assignable: false,
                });
                self.block(depth - 1, indent + 1, scope);
                scope.pop();
                self.line(indent + 1, &format!("{i} = {i} + 1;"));
                self.line(indent, "}");
            }
            // Call an earlier function (the call graph is acyclic) or
            // printf with a matched-arity format string.
            _ => {
                if self.fns.is_empty() || self.rng.gen_bool(0.3) {
                    let arg = self.plain_expr(depth.saturating_sub(1), scope);
                    self.line(indent, &format!("printf(\"t %d\", {arg});"));
                    return;
                }
                let f = self.fns[self.rng.gen_range(0..self.fns.len())].clone();
                let args: Vec<String> = f
                    .params
                    .iter()
                    .map(|q| self.int_expr(depth.saturating_sub(1), *q, scope))
                    .collect();
                let call = format!("{}({})", f.name, args.join(", "));
                if self.rng.gen_bool(0.7) {
                    // A qualified result target requires the callee's
                    // return type to carry the quals syntactically; use
                    // either exactly those quals or none.
                    let q = if self.rng.gen_bool(0.5) {
                        f.ret
                    } else {
                        Quals::Plain
                    };
                    let name = self.fresh("v");
                    self.line(indent, &format!("{} {name} = {call};", q.render()));
                    scope.push(Var {
                        name,
                        ty: VTy::Int(q),
                        assignable: true,
                    });
                } else {
                    self.line(indent, &format!("{call};"));
                }
            }
        }
    }

    /// Fallback when the chosen statement kind has no viable target: a
    /// plain declaration, which is always possible.
    fn stmt_fallback(&mut self, depth: u32, indent: usize, scope: &mut Vec<Var>) {
        let name = self.fresh("v");
        let init = self.plain_expr(depth, scope);
        self.line(indent, &format!("int {name} = {init};"));
        scope.push(Var {
            name,
            ty: VTy::Int(Quals::Plain),
            assignable: true,
        });
    }

    fn program(&mut self) {
        let nfns = self.rng.gen_range(1..=self.cfg.max_fns);
        for _ in 0..nfns {
            let name = self.fresh("f");
            let ret = self.quals();
            let nparams = self.rng.gen_range(0..=2usize);
            let params: Vec<(String, Quals)> = (0..nparams)
                .map(|_| {
                    let q = self.quals();
                    (self.fresh("a"), q)
                })
                .collect();
            let rendered: Vec<String> = params
                .iter()
                .map(|(n, q)| format!("{} {n}", q.render()))
                .collect();
            self.line(
                0,
                &format!("{} {name}({}) {{", ret.render(), rendered.join(", ")),
            );
            let mut scope: Vec<Var> = params
                .iter()
                .map(|(n, q)| Var {
                    name: n.clone(),
                    ty: VTy::Int(*q),
                    assignable: true,
                })
                .collect();
            // Guarantee an addressable plain int for `&L` derivations.
            let seed_var = self.fresh("v");
            let seed_init = self.rng.gen_range(-9i64..=9);
            self.line(1, &format!("int {seed_var} = {seed_init};"));
            scope.push(Var {
                name: seed_var,
                ty: VTy::Int(Quals::Plain),
                assignable: true,
            });
            self.block(self.cfg.max_depth, 1, &mut scope);
            let ret_expr = self.int_expr(self.cfg.max_depth.min(2), ret, &scope);
            self.line(1, &format!("return {ret_expr};"));
            self.line(0, "}");
            self.fns.push(FnInfo {
                name,
                ret,
                params: params.into_iter().map(|(_, q)| q).collect(),
            });
        }
    }
}

/// The entry function of a generated (or corpus) program: the last
/// definition, which in generated programs can reach every other
/// function through the acyclic call graph.
pub fn entry_name(program: &Program) -> Option<String> {
    program.funcs.last().map(|f| f.name.as_str().to_owned())
}

/// Deterministically derives entry arguments satisfying the
/// *conjunction* of the entry's declared parameter qualifiers:
/// `pos`-qualified parameters get a positive value, `neg` a negative
/// one, bare `nonzero` a nonzero one, plain ints a small value, and
/// plain pointers `NULL`. Returns `None` when a parameter's qualifiers
/// cannot be satisfied from outside — a `nonnull` pointer has no
/// portable address value, `pos neg` is unsatisfiable (no statically
/// clean caller exists, so the soundness claim says nothing about such
/// a call), and an unrecognized qualifier's invariant is unknown here —
/// in which case the dynamic oracles are skipped.
pub fn entry_args(program: &Program) -> Option<Vec<Value>> {
    let f = program.funcs.last()?;
    let mut args = Vec::with_capacity(f.sig.params.len());
    for (i, (_, ty)) in f.sig.params.iter().enumerate() {
        let quals: Vec<&str> = ty.quals.iter().map(|q| q.as_str()).collect();
        let v = if ty.pointee().is_some() {
            // `nonnull` has no fabricable address; any other pointer
            // qualifier (`unique`, `unaliased`, …) constrains the heap
            // in ways a synthetic argument cannot honour.
            if !quals.is_empty() {
                return None;
            }
            Value::NULL
        } else {
            let pos = quals.contains(&"pos");
            let neg = quals.contains(&"neg");
            if quals
                .iter()
                .any(|q| !matches!(*q, "pos" | "neg" | "nonzero"))
            {
                return None;
            }
            if pos && neg {
                // Unsatisfiable conjunction: no value is both positive
                // and negative, and no derivation rule can prove one, so
                // no well-typed call site can reach this function.
                return None;
            }
            if pos {
                Value::Int(7 + i as i64)
            } else if neg {
                Value::Int(-(7 + i as i64))
            } else if quals.contains(&"nonzero") {
                Value::Int(5 + i as i64)
            } else {
                Value::Int(i as i64)
            }
        };
        args.push(v);
    }
    Some(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_core::Session;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in [0, 1, 42, 1000] {
            assert_eq!(generate_source(seed, &cfg), generate_source(seed, &cfg));
        }
    }

    #[test]
    fn generation_varies_with_seed() {
        let cfg = GenConfig::default();
        let distinct: std::collections::HashSet<String> =
            (0..50).map(|s| generate_source(s, &cfg)).collect();
        assert!(
            distinct.len() > 40,
            "only {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn generated_programs_parse_and_check_clean() {
        let session = Session::with_builtins();
        let cfg = GenConfig::default();
        for seed in 0..300 {
            let src = generate_source(seed, &cfg);
            let program = session
                .parse(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{src}"));
            let result = session.check(&program);
            assert!(
                result.is_clean(),
                "seed {seed}: not clean:\n{}\n{src}",
                result.diags
            );
        }
    }

    #[test]
    fn entry_args_satisfy_declared_quals() {
        let session = Session::with_builtins();
        let p = session
            .parse("int f(int pos a, int neg b, int nonzero c, int d) { return d; }")
            .unwrap();
        let args = entry_args(&p).unwrap();
        assert!(matches!(args[0], Value::Int(x) if x > 0));
        assert!(matches!(args[1], Value::Int(x) if x < 0));
        assert!(matches!(args[2], Value::Int(x) if x != 0));
        assert_eq!(args.len(), 4);
    }

    #[test]
    fn entry_args_refuse_nonnull_pointer_params() {
        let session = Session::with_builtins();
        let p = session
            .parse("int f(int* nonnull p) { return *p; }")
            .unwrap();
        assert_eq!(entry_args(&p), None);
    }
}
