//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! * **E-matching round budget** — the reference-qualifier preservation
//!   proofs need multiple instantiation rounds (store axioms expose new
//!   `select` terms that the freshness and invariant quantifiers then
//!   match). A budget of 1 round fails to prove them; the default
//!   converges. This quantifies the cost of each extra round.
//! * **Recursive qualifier inference depth** — `case` rules recurse into
//!   subexpressions; deep product trees measure how inference cost grows
//!   with expression depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use stq_cir::ast::{BinOp, Expr};
use stq_cir::parse::parse_program;
use stq_qualspec::Registry;
use stq_soundness::{build_obligation, obligation_specs};
use stq_typecheck::{Inference, TypeEnv};
use stq_util::Symbol;

fn bench_round_budget(c: &mut Criterion) {
    let registry = Registry::builtins();
    let def = registry.get_by_name("unique").expect("builtin");
    let obligations = || {
        obligation_specs(def)
            .into_iter()
            .map(|spec| build_obligation(&registry, def, &spec))
    };
    let mut group = c.benchmark_group("ematch_round_budget");
    group.sample_size(20);
    for rounds in [1usize, 2, 4, 8] {
        // The prover is deterministic, so one untimed pass reports the
        // quantifier effort this budget buys (instantiations, not just
        // wall time).
        let mut instantiations = 0u64;
        let mut decisions = 0u64;
        let mut proved = 0usize;
        for mut ob in obligations() {
            ob.problem.config.max_rounds = rounds;
            let outcome = ob.problem.prove();
            instantiations += outcome.stats().instantiations as u64;
            decisions += outcome.stats().decisions;
            proved += usize::from(outcome.is_proved());
        }
        println!(
            "ematch_round_budget/{rounds}: {proved}/6 proved, \
             {instantiations} instantiation(s), {decisions} decision(s)"
        );
        group.throughput(Throughput::Elements(instantiations));
        group.bench_with_input(
            BenchmarkId::from_parameter(rounds),
            &rounds,
            |b, &rounds| {
                b.iter(|| {
                    let mut proved = 0;
                    for mut ob in obligations() {
                        ob.problem.config.max_rounds = rounds;
                        if ob.problem.prove().is_proved() {
                            proved += 1;
                        }
                    }
                    // All six obligations need ≥2 rounds; with a budget
                    // of 1 some preservation cases cannot finish.
                    if rounds >= 4 {
                        assert_eq!(proved, 6);
                    }
                    proved
                })
            },
        );
    }
    group.finish();
}

fn product_tree(depth: u32) -> Expr {
    if depth == 0 {
        Expr::var("p0")
    } else {
        Expr::binop(BinOp::Mul, product_tree(depth - 1), product_tree(depth - 1))
    }
}

fn bench_inference_depth(c: &mut Criterion) {
    let registry = Registry::builtins();
    let program = parse_program("int pos p0;", &registry.names()).expect("parses");
    let mut group = c.benchmark_group("inference_depth");
    for depth in [2u32, 4, 6, 8] {
        let expr = product_tree(depth);
        let env = TypeEnv::new(&program, &registry);
        let mut inf = Inference::new(&env);
        assert!(inf.has_qual(&expr, Symbol::intern("pos")));
        println!(
            "inference_depth/{depth}: {} match attempt(s), {} quer(ies) computed",
            inf.match_attempts, inf.memo_misses
        );
        group.bench_with_input(BenchmarkId::from_parameter(depth), &expr, |b, e| {
            b.iter(|| {
                let env = TypeEnv::new(&program, &registry);
                let mut inf = Inference::new(&env);
                let ok = inf.has_qual(black_box(e), Symbol::intern("pos"));
                assert!(ok);
                inf.match_attempts
            })
        });
    }
    group.finish();
}

fn bench_mutual_recursion(c: &mut Criterion) {
    // pos/neg mutual recursion on alternating negation chains.
    let registry = Registry::builtins();
    let program = parse_program("int pos p0;", &registry.names()).expect("parses");
    let mut group = c.benchmark_group("mutual_recursion_chain");
    for depth in [4u32, 8, 16, 32] {
        let mut e = Expr::var("p0");
        for _ in 0..depth {
            e = Expr::unop(stq_cir::ast::UnOp::Neg, e);
        }
        let want = if depth % 2 == 0 { "pos" } else { "neg" };
        group.bench_with_input(BenchmarkId::from_parameter(depth), &e, |b, e| {
            b.iter(|| {
                let env = TypeEnv::new(&program, &registry);
                let mut inf = Inference::new(&env);
                assert!(inf.has_qual(black_box(e), Symbol::intern(want)));
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_budget,
    bench_inference_depth,
    bench_mutual_recursion
);
criterion_main!(benches);
