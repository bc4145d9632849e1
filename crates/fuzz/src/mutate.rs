//! Qualifier-aware program mutations.
//!
//! Mutations run on the parsed AST (between generation and the oracle
//! pipeline) and deliberately step *outside* the clean-by-construction
//! space: a cast insertion keeps the program accepted but adds run-time
//! checks (driving the instrumentation oracle), an annotation flip may
//! make it rejected (driving verdict round-tripping), and an operand
//! swap changes semantics under the same syntax shapes.

use rand::rngs::StdRng;
use rand::Rng;
use stq_cir::ast::*;
use stq_util::Symbol;

/// Value qualifiers used for int-shaped mutation targets.
const INT_QUALS: [&str; 3] = ["pos", "neg", "nonzero"];

/// Applies 1–3 random mutations and returns a description of each (empty
/// when no mutation site exists).
pub fn mutate(program: &mut Program, rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(1..=3u32);
    let mut applied = Vec::new();
    for _ in 0..n {
        let done = match rng.gen_range(0u32..3) {
            0 => cast_insert(program, rng),
            1 => annotation_flip(program, rng),
            _ => operand_swap(program, rng),
        };
        if let Some(desc) = done {
            applied.push(desc);
        }
    }
    applied
}

/// Whether a cast/flip qualifier can be picked for this type shape.
fn flip_qual(ty: &QualType, pick: usize) -> Option<&'static str> {
    match &ty.ty {
        Ty::Ptr(_) => Some("nonnull"),
        Ty::Base(BaseTy::Int | BaseTy::Char) => Some(INT_QUALS[pick % INT_QUALS.len()]),
        Ty::Base(BaseTy::Void | BaseTy::Struct(_)) => None,
    }
}

// ----- statement walking -----

fn for_each_stmt_mut(funcs: &mut [FuncDef], f: &mut impl FnMut(&mut Stmt, &QualType)) {
    for func in funcs {
        let ret = &func.sig.ret;
        for s in &mut func.body {
            s.walk_mut(&mut |s| f(s, ret));
        }
    }
}

// ----- cast insertion -----

fn cast_insert(p: &mut Program, rng: &mut StdRng) -> Option<String> {
    let pick = rng.gen_range(0..INT_QUALS.len());
    let mut count = 0usize;
    for_each_stmt_mut(&mut p.funcs, &mut |s, ret| match &mut s.kind {
        StmtKind::Decl(d) if d.init.is_some() && flip_qual(&d.ty, 0).is_some() => count += 1,
        StmtKind::Return(Some(_)) if flip_qual(ret, 0).is_some() => count += 1,
        _ => {}
    });
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    let mut i = 0usize;
    let mut desc = None;
    let arena = &mut p.arena;
    for_each_stmt_mut(&mut p.funcs, &mut |s, ret| match &mut s.kind {
        StmtKind::Decl(d) if d.init.is_some() && flip_qual(&d.ty, 0).is_some() => {
            if i == target && desc.is_none() {
                let q = flip_qual(&d.ty, pick).expect("shape checked");
                let ty = d.ty.clone().with_qual(q);
                let e = d.init.expect("init checked");
                d.init = Some(arena.cast(e, ty));
                desc = Some(format!("cast-insert {q} on decl {}", d.name));
            }
            i += 1;
        }
        StmtKind::Return(Some(e)) if flip_qual(ret, 0).is_some() => {
            if i == target && desc.is_none() {
                let q = flip_qual(ret, pick).expect("shape checked");
                let ty = ret.clone().with_qual(q);
                *e = arena.cast(*e, ty);
                desc = Some(format!("cast-insert {q} on return"));
            }
            i += 1;
        }
        _ => {}
    });
    desc
}

// ----- annotation flips -----

fn annotation_flip(p: &mut Program, rng: &mut StdRng) -> Option<String> {
    let pick = rng.gen_range(0..INT_QUALS.len());
    // Sites: every local declaration, parameter, and return type whose
    // shape supports a value qualifier.
    let mut decl_count = 0usize;
    for_each_stmt_mut(&mut p.funcs, &mut |s, _| {
        if let StmtKind::Decl(d) = &mut s.kind {
            if flip_qual(&d.ty, 0).is_some() {
                decl_count += 1;
            }
        }
    });
    let mut sig_sites = 0usize;
    for func in &p.funcs {
        if flip_qual(&func.sig.ret, 0).is_some() {
            sig_sites += 1;
        }
        for (_, ty) in &func.sig.params {
            if flip_qual(ty, 0).is_some() {
                sig_sites += 1;
            }
        }
    }
    let total = decl_count + sig_sites;
    if total == 0 {
        return None;
    }
    let target = rng.gen_range(0..total);
    if target < decl_count {
        let mut i = 0usize;
        let mut desc = None;
        for_each_stmt_mut(&mut p.funcs, &mut |s, _| {
            if let StmtKind::Decl(d) = &mut s.kind {
                if flip_qual(&d.ty, 0).is_some() {
                    if i == target && desc.is_none() {
                        desc = Some(toggle(&mut d.ty, pick, &format!("decl {}", d.name)));
                    }
                    i += 1;
                }
            }
        });
        desc
    } else {
        let mut i = decl_count;
        for func in &mut p.funcs {
            if flip_qual(&func.sig.ret, 0).is_some() {
                if i == target {
                    let name = func.name;
                    return Some(toggle(&mut func.sig.ret, pick, &format!("ret of {name}")));
                }
                i += 1;
            }
            for (pname, ty) in &mut func.sig.params {
                if flip_qual(ty, 0).is_some() {
                    if i == target {
                        return Some(toggle(ty, pick, &format!("param {pname}")));
                    }
                    i += 1;
                }
            }
        }
        None
    }
}

fn toggle(ty: &mut QualType, pick: usize, site: &str) -> String {
    let q = flip_qual(ty, pick).expect("caller checked shape");
    let sym = Symbol::intern(q);
    if ty.quals.remove(&sym) {
        format!("flip: drop {q} on {site}")
    } else {
        ty.quals.insert(sym);
        format!("flip: add {q} on {site}")
    }
}

// ----- operand swaps -----

/// Calls `f` on every expression of every function body, pre-order, in
/// source order.
pub(crate) fn for_each_expr(p: &Program, f: &mut impl FnMut(ExprId)) {
    let a = &p.arena;
    for func in &p.funcs {
        for s in &func.body {
            s.walk(&mut |s| s.exprs(a, &mut |e| a.walk_expr(e, f)));
        }
    }
}

fn operand_swap(p: &mut Program, rng: &mut StdRng) -> Option<String> {
    let mut binops = Vec::new();
    for_each_expr(p, &mut |e| {
        if matches!(p.arena[e].kind, ExprKind::Binop(..)) {
            binops.push(e);
        }
    });
    if binops.is_empty() {
        return None;
    }
    let target = binops[rng.gen_range(0..binops.len())];
    let ExprKind::Binop(op, a, b) = &mut p.arena[target].kind else {
        unreachable!("collected as a binary operation")
    };
    std::mem::swap(a, b);
    Some(format!("operand-swap around {op}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stq_cir::parse::parse_program;
    use stq_cir::pretty::program_to_string;

    const QUALS: [&str; 4] = ["pos", "neg", "nonzero", "nonnull"];

    #[test]
    fn mutations_keep_programs_printable_and_parseable() {
        let src = "int pos f(int pos a) {
            int pos x = a * 2;
            int* p = NULL;
            if (x > 3) { x = 7; }
            return x;
        }";
        for seed in 0..40 {
            let mut p = parse_program(src, &QUALS).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let applied = mutate(&mut p, &mut rng);
            assert!(!applied.is_empty(), "seed {seed}: no mutation applied");
            let printed = program_to_string(&p);
            parse_program(&printed, &QUALS).unwrap_or_else(|e| {
                panic!("seed {seed}: mutated program unparseable: {e}\n{printed}")
            });
        }
    }

    #[test]
    fn mutations_are_deterministic() {
        let src = "int f(int a) { int x = a + 1; return x; }";
        let render = |seed| {
            let mut p = parse_program(src, &QUALS).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let d = mutate(&mut p, &mut rng);
            (d, program_to_string(&p))
        };
        assert_eq!(render(9), render(9));
    }
}
