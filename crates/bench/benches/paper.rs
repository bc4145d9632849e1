//! The paper's evaluation as one record, `BENCH_paper.json` at the
//! repository root: one entry per row of EXPERIMENTS.md. The docs cite
//! its keys as `paper:KEY`, a dotted path into the document, and
//! `tests/docs.rs` checks every citation against the committed file.
//!
//! * `tables` — Tables 1 and 2 and the §6.2 row, column by column;
//! * `prove.<qualifier>` — §4: each builtin's verdict, obligation count
//!   and median `check_qualifier` time against the paper's bound (1 s
//!   for value qualifiers, 30 s for reference qualifiers);
//! * `check.<program>` — §6: the median `check_program` time of each
//!   corpus program against the paper's 1 s;
//! * `negative.<name>` — the four erroneous definitions the checker
//!   rejects, with the obligations that fail;
//! * `extensions` — §8's flow sensitivity and inference, in violations;
//! * `ematch_round_budget` — `unique` and `unaliased` under 1, 2, 3, 4
//!   and 8 E-matching rounds.
//!
//! The bench asserts every verdict, and every timing against its bound.
//! It records counts without re-asserting them: `tests/paper_claims.rs`
//! holds the code to the paper's counts. Every timing is the median of
//! [`RUNS`] runs after one uncounted warm-up.

use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};
use stq_cir::parse::parse_program;
use stq_core::reportjson::{millis, verdict_slug};
use stq_corpus::tables::{registry_subset, row_columns, table1, table2, unique_experiment};
use stq_corpus::{grep, taint, uniq};
use stq_qualspec::{QualKind, Registry};
use stq_soundness::{build_obligation, check_qualifier, obligation_specs, Verdict};
use stq_typecheck::{check_program, check_program_with, infer_annotations, CheckOptions};
use stq_util::json::Json;
use stq_util::Symbol;

/// Timed runs per measurement.
const RUNS: usize = 21;

/// The median wall time of [`RUNS`] calls of `f`, after one uncounted
/// warm-up call.
fn median_time<T>(mut f: impl FnMut() -> T) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[RUNS / 2]
}

/// The `median_ms`, `runs` and `bound_ms` fields of a timing the paper
/// bounds. Panics when the median is over the bound.
fn bounded(what: &str, median: Duration, bound: Duration) -> [(&'static str, Json); 3] {
    assert!(
        median < bound,
        "{what}: median {median:?} is over the paper's bound of {bound:?}"
    );
    [
        ("median_ms", millis(median)),
        ("runs", RUNS.into()),
        ("bound_ms", millis(bound)),
    ]
}

/// Tables 1 and 2 (§6.1, §6.3) and the §6.2 uniqueness row.
fn tables() -> Json {
    let (unique_row, references) = unique_experiment();
    Json::obj([
        ("table1", Json::obj(row_columns(&table1()))),
        (
            "table2",
            Json::obj(
                table2()
                    .iter()
                    .map(|row| (row.program.clone(), Json::obj(row_columns(row)))),
            ),
        ),
        (
            "unique",
            Json::obj(
                row_columns(&unique_row)
                    .into_iter()
                    .chain([("references", references.into())]),
            ),
        ),
    ])
}

/// §4: every builtin proves sound (or has no invariant to prove) within
/// the paper's bound for its kind.
fn prove(registry: &Registry) -> Json {
    Json::obj(registry.iter().map(|def| {
        let report = check_qualifier(registry, def);
        let want = if def.invariant.is_some() {
            Verdict::Sound
        } else {
            Verdict::NoInvariant
        };
        assert_eq!(report.verdict, want, "{report}");
        let bound = match def.kind {
            QualKind::Value => Duration::from_secs(1),
            QualKind::Ref => Duration::from_secs(30),
        };
        let median = median_time(|| check_qualifier(registry, black_box(def)));
        let name = def.name.as_str();
        let fields = [
            ("verdict", verdict_slug(report.verdict).into()),
            ("obligations", report.obligations.len().into()),
        ];
        (
            name,
            Json::obj(fields.into_iter().chain(bounded(name, median, bound))),
        )
    }))
}

/// §6: checking each corpus program, parsed once, takes under a second.
fn check() -> Json {
    let programs = [
        ("grep_dfa", grep::grep_dfa_source(), &["nonnull"][..]),
        ("bftpd", taint::bftpd_source(), &["untainted", "tainted"]),
        (
            "mingetty",
            taint::mingetty_source(),
            &["untainted", "tainted"],
        ),
        ("identd", taint::identd_source(), &["untainted", "tainted"]),
        ("grep_dfa_global", uniq::grep_unique_source(), &["unique"]),
    ];
    Json::obj(programs.map(|(name, source, quals)| {
        let registry = registry_subset(quals);
        let program = parse_program(&source, &registry.names()).expect("corpus program parses");
        let median = median_time(|| check_program(&registry, black_box(&program)));
        (
            name,
            Json::obj(bounded(name, median, Duration::from_secs(1))),
        )
    }))
}

/// The erroneous definitions of EXPERIMENTS.md's negative results, each
/// proved on its own.
const NEGATIVE: [(&str, &str); 4] = [
    (
        // §2.1.3: `E1 - E2` where Figure 1 has `E1 * E2`.
        "pos_minus",
        "value qualifier pos(int Expr E)
            case E of
                decl int Const C: C, where C > 0
              | decl int Expr E1, E2: E1 - E2, where pos(E1) && pos(E2)
            invariant value(E) > 0",
    ),
    (
        // §2.2.3: Figure 5 without `disallow L`.
        "unique_without_disallow",
        "ref qualifier unique(T* LValue L)
            assign L NULL | new
            invariant value(L) == NULL ||
                (isHeapLoc(value(L)) &&
                 forall T** P: *P == value(L) => P == location(L))",
    ),
    (
        // Figure 7 without `disallow &X`.
        "unaliased_without_disallow",
        "ref qualifier unaliased(T Var X)
            ondecl
            invariant forall T** P: *P != location(X)",
    ),
    (
        // Figure 5 with constants assignable.
        "unique_const_assign",
        "ref qualifier unique(T* LValue L)
            assign L NULL | new | const
            disallow L
            invariant value(L) == NULL ||
                (isHeapLoc(value(L)) &&
                 forall T** P: *P == value(L) => P == location(L))",
    ),
];

/// The soundness checker rejects each erroneous definition, naming the
/// obligations that fail.
fn negative() -> Json {
    Json::obj(NEGATIVE.map(|(name, source)| {
        let mut registry = Registry::new();
        registry.add_source(source).expect("definition parses");
        let def = registry.iter().next().expect("one definition");
        let report = check_qualifier(&registry, def);
        assert_eq!(report.verdict, Verdict::Unsound, "{name}: {report}");
        let failing: Json = report
            .failures()
            .map(|o| Json::from(o.description.as_str()))
            .collect();
        let entry = Json::obj([
            ("verdict", verdict_slug(report.verdict).into()),
            ("failing", failing),
        ]);
        (name, entry)
    }))
}

/// §8's two extensions on the grep corpus: flow-sensitive checking of
/// the cast-free variant, and `nonnull` inference on the unannotated
/// one (as `examples/inference.rs` runs it).
fn extensions() -> Json {
    let nonnull = registry_subset(&["nonnull"]);
    let direct_source = grep::grep_dfa_source_direct();
    let direct = parse_program(&direct_source, &nonnull.names()).expect("corpus parses");
    let insensitive = check_program_with(&nonnull, &direct, CheckOptions::default());
    let sensitive = check_program_with(
        &nonnull,
        &direct,
        CheckOptions {
            flow_sensitive: true,
        },
    );

    let builtins = Registry::builtins();
    let unannotated = direct_source.replace("* nonnull", "*");
    let program = parse_program(&unannotated, &builtins.names()).expect("corpus parses");
    let inference = infer_annotations(&builtins, &program, Symbol::intern("nonnull"));
    let before = check_program(&builtins, &program).stats.qualifier_errors;
    let after = check_program(&builtins, &inference.annotated)
        .stats
        .qualifier_errors;

    Json::obj([
        (
            "flow_sensitivity",
            Json::obj([
                (
                    "violations_before",
                    insensitive.stats.qualifier_errors.into(),
                ),
                ("violations_after", sensitive.stats.qualifier_errors.into()),
                ("casts", sensitive.stats.casts.into()),
            ]),
        ),
        (
            "inference",
            Json::obj([
                ("violations_before", before.into()),
                ("inferred_annotations", inference.inferred.len().into()),
                ("violations_after", after.into()),
            ]),
        ),
    ])
}

/// The reference qualifiers' obligations under each E-matching round
/// budget: how many prove, the quantifier and search effort, and the
/// median time to discharge them all.
fn ematch_round_budget(registry: &Registry) -> Json {
    Json::obj(["unique", "unaliased"].map(|name| {
        let def = registry.get_by_name(name).expect("builtin");
        let specs = obligation_specs(def);
        let rows = [1usize, 2, 3, 4, 8].map(|rounds| {
            let prove_all = || {
                specs
                    .iter()
                    .map(|spec| {
                        let mut ob = build_obligation(registry, def, spec);
                        ob.problem.config.max_rounds = rounds;
                        ob.problem.prove()
                    })
                    .collect::<Vec<_>>()
            };
            let outcomes = prove_all();
            let median = median_time(prove_all);
            let row = Json::obj([
                (
                    "proved",
                    outcomes.iter().filter(|o| o.is_proved()).count().into(),
                ),
                (
                    "instantiations",
                    outcomes
                        .iter()
                        .map(|o| o.stats().instantiations)
                        .sum::<usize>()
                        .into(),
                ),
                (
                    "decisions",
                    outcomes
                        .iter()
                        .map(|o| o.stats().decisions)
                        .sum::<u64>()
                        .into(),
                ),
                ("median_ms", millis(median)),
                ("runs", RUNS.into()),
            ]);
            (rounds.to_string(), row)
        });
        (name, Json::obj(rows))
    }))
}

fn main() {
    let registry = Registry::builtins();
    let doc = Json::obj([
        ("bench", "paper".into()),
        ("runs", RUNS.into()),
        ("tables", tables()),
        ("prove", prove(&registry)),
        ("check", check()),
        ("negative", negative()),
        ("extensions", extensions()),
        ("ematch_round_budget", ematch_round_budget(&registry)),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    fs::write(out, format!("{doc}\n")).expect("write BENCH_paper.json");
    println!("{doc}");
    println!("wrote {out}");
}
