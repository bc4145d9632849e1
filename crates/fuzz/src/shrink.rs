//! Delta-debugging shrinker for divergence witnesses.
//!
//! Greedy structural minimization to a fixpoint: drop whole non-entry
//! functions, drop struct/global/proto definitions, then remove or
//! unwrap individual statements, keeping each edit only if the candidate
//! still reproduces the target (same oracle kind, or still panics). The
//! predicate count is bounded so a pathological witness cannot stall a
//! fuzz run; the witness found so far is returned when the budget runs
//! out.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stq_cir::ast::{Program, Stmt, StmtKind};
use stq_core::Session;

use crate::oracle::{run_oracles, Oracle, Outcome};

/// What a shrunk candidate must keep reproducing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// The oracle battery reports a divergence from this oracle.
    Diverges(Oracle),
    /// The pipeline panics on the program.
    Panics,
}

/// Whether `program` still exhibits `target`. Panics inside the oracle
/// battery are contained here, so a shrinker probing a panicking witness
/// never takes the fuzz worker down with it.
pub fn reproduces(session: &Session, program: &Program, target: Target) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| run_oracles(session, program)));
    match (target, result) {
        (Target::Panics, Err(_)) => true,
        (Target::Diverges(oracle), Ok(r)) => {
            matches!(r.outcome, Outcome::Diverged(ref d) if d.oracle == oracle)
        }
        _ => false,
    }
}

/// Minimizes `program` while preserving `target`, spending at most
/// `budget` predicate evaluations.
pub fn shrink(session: &Session, program: &Program, target: Target, budget: usize) -> Program {
    shrink_with(program, &mut |p| reproduces(session, p, target), budget)
}

/// Minimizes `program` while `keep` stays true — the generic core, also
/// used by tests with synthetic predicates.
pub fn shrink_with(
    program: &Program,
    keep: &mut dyn FnMut(&Program) -> bool,
    mut budget: usize,
) -> Program {
    let mut best = program.clone();
    loop {
        let mut progressed = false;

        // Pass 1: drop whole definitions. The last function is the entry
        // point, so it is never a candidate.
        let funcs = best.funcs.len();
        for i in 0..funcs.saturating_sub(1) {
            if budget == 0 {
                return best;
            }
            let mut cand = best.clone();
            cand.funcs.remove(i);
            budget -= 1;
            if keep(&cand) {
                best = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            for (list_len, remove) in [
                (best.structs.len(), 0usize),
                (best.globals.len(), 1),
                (best.protos.len(), 2),
            ] {
                for i in 0..list_len {
                    if budget == 0 {
                        return best;
                    }
                    let mut cand = best.clone();
                    match remove {
                        0 => {
                            cand.structs.remove(i);
                        }
                        1 => {
                            cand.globals.remove(i);
                        }
                        _ => {
                            cand.protos.remove(i);
                        }
                    }
                    budget -= 1;
                    if keep(&cand) {
                        best = cand;
                        progressed = true;
                        break;
                    }
                }
                if progressed {
                    break;
                }
            }
        }

        // Pass 2: per-statement edits, pre-order. `Remove` empties the
        // statement (then `cleanup` splices out empty blocks); `Unwrap`
        // hoists an `if`/`while` body over its control structure.
        if !progressed {
            'stmts: for k in 0..stmt_count(&best) {
                for action in [Action::Remove, Action::Unwrap] {
                    if budget == 0 {
                        return best;
                    }
                    let mut cand = best.clone();
                    if !apply_edit(&mut cand, k, action) {
                        continue;
                    }
                    cleanup(&mut cand);
                    budget -= 1;
                    if keep(&cand) {
                        best = cand;
                        progressed = true;
                        break 'stmts;
                    }
                }
            }
        }

        if !progressed {
            return best;
        }
    }
}

#[derive(Clone, Copy)]
enum Action {
    Remove,
    Unwrap,
}

fn stmt_count(p: &Program) -> usize {
    let mut n = 0;
    for s in p.funcs.iter().flat_map(|f| &f.body) {
        s.walk(&mut |_| n += 1);
    }
    n
}

/// Applies `action` to the `target`-th statement in pre-order. Returns
/// false when the action does not apply to that statement's shape.
fn apply_edit(p: &mut Program, target: usize, action: Action) -> bool {
    let mut n = 0usize;
    let mut applied = false;
    for s in p.funcs.iter_mut().flat_map(|f| &mut f.body) {
        s.walk_mut(&mut |s| {
            if n == target {
                applied = match (action, &mut s.kind) {
                    (Action::Remove, _) => {
                        s.kind = StmtKind::Block(Vec::new());
                        true
                    }
                    (Action::Unwrap, StmtKind::If(_, body, _) | StmtKind::While(_, body)) => {
                        *s = (**body).clone();
                        true
                    }
                    (Action::Unwrap, _) => false,
                };
            }
            n += 1;
        });
    }
    applied
}

/// Splices out empty blocks left behind by `Action::Remove`.
fn cleanup(p: &mut Program) {
    fn is_empty_block(s: &Stmt) -> bool {
        matches!(&s.kind, StmtKind::Block(v) if v.is_empty())
    }
    fn clean_stmt(s: &mut Stmt) {
        match &mut s.kind {
            StmtKind::Block(stmts) => clean_vec(stmts),
            StmtKind::If(_, then, els) => {
                clean_stmt(then);
                if let Some(e) = els.as_deref_mut() {
                    clean_stmt(e);
                }
            }
            StmtKind::While(_, body) => clean_stmt(body),
            _ => {}
        }
    }
    fn clean_vec(stmts: &mut Vec<Stmt>) {
        for s in stmts.iter_mut() {
            clean_stmt(s);
        }
        stmts.retain(|s| !is_empty_block(s));
    }
    for func in &mut p.funcs {
        clean_vec(&mut func.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_cir::ast::ExprKind;
    use stq_cir::parse::parse_program;
    use stq_cir::pretty::program_to_string;

    const QUALS: [&str; 4] = ["pos", "neg", "nonzero", "nonnull"];

    fn has_division(p: &Program) -> bool {
        let mut found = false;
        crate::mutate::for_each_expr(p, &mut |e| {
            if matches!(
                p.arena[e].kind,
                ExprKind::Binop(stq_cir::ast::BinOp::Div, ..)
            ) {
                found = true;
            }
        });
        found
    }

    #[test]
    fn shrink_strips_everything_irrelevant_to_the_predicate() {
        let src = "int helper(int a) { int t = a * 2; return t; }
            int f(int a) {
                int x = a + 1;
                int y = 2;
                if (x > 0) { int z = x / 3; x = z; }
                while (y > 0) { y = y - 1; }
                return x;
            }";
        let program = parse_program(src, &QUALS).unwrap();
        assert!(has_division(&program));
        let small = shrink_with(&program, &mut has_division, 500);
        assert!(has_division(&small), "predicate must be preserved");
        assert_eq!(small.funcs.len(), 1, "helper should be dropped");
        let before = stmt_count(&program);
        let after = stmt_count(&small);
        assert!(
            after < before / 2,
            "expected substantial shrink, got {after} of {before}:\n{}",
            program_to_string(&small)
        );
    }

    #[test]
    fn shrink_respects_the_budget() {
        let src = "int f(int a) { int x = a; int y = x; return y; }";
        let program = parse_program(src, &QUALS).unwrap();
        // Zero budget: nothing may change.
        let same = shrink_with(&program, &mut |_| true, 0);
        assert_eq!(program_to_string(&same), program_to_string(&program));
    }
}
