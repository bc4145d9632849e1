//! Integration tests for the `stqc` command-line tool.

mod scratch;

use scratch::Scratch;
use std::process::Command;
use stq_util::json::Json;

fn stqc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args(args)
        .output()
        .expect("stqc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// As [`stqc`], but returning the numeric exit code for tests that
/// check the documented exit-code taxonomy (see `docs/robustness.md`).
fn stqc_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args(args)
        .output()
        .expect("stqc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A path inside a scratch directory of its own, which goes when the
/// test drops the path.
struct TempPath {
    path: std::path::PathBuf,
    _dir: Scratch,
}

impl std::ops::Deref for TempPath {
    type Target = std::path::Path;
    fn deref(&self) -> &std::path::Path {
        &self.path
    }
}

impl AsRef<std::path::Path> for TempPath {
    fn as_ref(&self) -> &std::path::Path {
        &self.path
    }
}

/// A file named `name` holding `contents`.
fn temp_file(name: &str, contents: &str) -> TempPath {
    let dir = Scratch::new(&format!("test-{name}"));
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    TempPath { path, _dir: dir }
}

#[test]
fn prove_all_builtins_succeeds() {
    let (stdout, _, ok) = stqc(&["prove"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("qualifier `pos`: sound"));
    assert!(stdout.contains("qualifier `unique`: sound"));
}

#[test]
fn prove_single_qualifier() {
    let (stdout, _, ok) = stqc(&["prove", "nonnull"]);
    assert!(ok);
    assert!(stdout.contains("nonnull"));
    assert!(stdout.contains("sound"));
}

#[test]
fn prove_unknown_qualifier_fails() {
    let (_, stderr, ok) = stqc(&["prove", "ghost"]);
    assert!(!ok);
    assert!(stderr.contains("unknown qualifier"));
}

#[test]
fn check_reports_stats_and_exit_codes() {
    let clean = temp_file("clean.c", "int pos x = 3;");
    let (stdout, _, ok) = stqc(&["check", clean.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 qualifier error(s)"));

    let dirty = temp_file("dirty.c", "int f(int* p) { return *p; }");
    let (stdout, stderr, ok) = stqc(&["check", dirty.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("1 qualifier error(s)"), "{stdout}");
    assert!(stderr.contains("restrict"), "{stderr}");
}

#[test]
fn check_flow_sensitive_flag() {
    let guarded = temp_file(
        "guarded.c",
        "int f(int* t) { if (t != NULL) { return *t; } return 0; }",
    );
    let path = guarded.to_str().unwrap();
    let (_, _, ok) = stqc(&["check", path]);
    assert!(!ok);
    let (_, _, ok) = stqc(&["check", "--flow-sensitive", path]);
    assert!(ok);
}

#[test]
fn run_executes_with_checks() {
    let src = temp_file(
        "run.c",
        "int pos dbl(int pos x) { return (int pos)(x * 2); }",
    );
    let (stdout, _, ok) = stqc(&["run", "--entry", "dbl", src.to_str().unwrap(), "21"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("=> 42"));
    assert!(stdout.contains("1 run-time qualifier check(s) passed"));
}

#[test]
fn run_surfaces_failed_checks() {
    let src = temp_file("runbad.c", "int pos trust(int x) { return (int pos) x; }");
    let (_, stderr, ok) = stqc(&["run", "--entry", "trust", src.to_str().unwrap(), "0"]);
    assert!(!ok);
    assert!(stderr.contains("run-time check"), "{stderr}");
}

#[test]
fn infer_lists_sites() {
    let src = temp_file("inf.c", "int g; int f() { int* p = &g; return *p; }");
    let (stdout, _, ok) = stqc(&["infer", "--qual", "nonnull", src.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("+ local p of f"), "{stdout}");
}

#[test]
fn tables_regenerate() {
    let (stdout, _, ok) = stqc(&["tables"]);
    assert!(ok);
    assert!(stdout.contains("1072"));
    assert!(stdout.contains("bftpd"));
}

#[test]
fn user_qualifier_file_is_loaded() {
    let quals = temp_file(
        "even.q",
        "value qualifier answer(int Expr E)
             case E of
                 decl int Const C: C, where C == 42
             invariant value(E) == 42",
    );
    let prog = temp_file("answer.c", "int answer a = 42; int answer b = 7;");
    let (stdout, stderr, ok) = stqc(&[
        "check",
        "--quals",
        quals.to_str().unwrap(),
        prog.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(
        stdout.contains("1 qualifier error(s)"),
        "{stdout}\n{stderr}"
    );
}

#[test]
fn bad_usage_is_reported() {
    let (_, stderr, ok) = stqc(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn unknown_subcommand_is_named_in_the_diagnostic() {
    let (_, stderr, ok) = stqc(&["frobnicate"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage"));
}

#[test]
fn unreadable_file_is_a_clean_failure() {
    for sub in [
        &["check", "/nonexistent/missing.c"][..],
        &["run", "/nonexistent/missing.c"],
        &["prove", "--quals", "/nonexistent/missing.q"],
    ] {
        let (_, stderr, ok) = stqc(sub);
        assert!(!ok, "{sub:?}");
        assert!(stderr.contains("cannot read"), "{sub:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sub:?}: {stderr}");
    }
}

#[test]
fn prove_stats_prints_totals() {
    let (stdout, _, ok) = stqc(&["prove", "--stats", "pos"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("stats:"), "{stdout}");
    assert!(stdout.contains("totals:"), "{stdout}");
    assert!(stdout.contains("insts="), "{stdout}");
}

#[test]
fn prove_json_covers_all_eight_builtins() {
    let (stdout, _, ok) = stqc(&["prove", "--stats", "--json"]);
    assert!(ok, "{stdout}");
    // Machine-readable per-obligation stats for every builtin,
    // including the no-obligation flow qualifiers.
    for name in [
        "pos",
        "neg",
        "nonzero",
        "nonnull",
        "untainted",
        "tainted",
        "unique",
        "unaliased",
    ] {
        assert!(stdout.contains(&format!("\"name\":\"{name}\"")), "{stdout}");
    }
    assert!(stdout.contains("\"verdict\":\"no-invariant\""), "{stdout}");
    assert!(stdout.contains("\"instantiations\":"), "{stdout}");
    assert!(stdout.contains("\"decisions\":"), "{stdout}");
    assert!(stdout.contains("\"wall_ms\":"), "{stdout}");
    assert!(
        stdout.contains("\"instantiations_by_trigger\":"),
        "{stdout}"
    );
    // One JSON document on one line of stdout.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn starved_budget_reports_resource_out_and_fails() {
    let (stdout, _, ok) = stqc(&[
        "prove",
        "--max-rounds",
        "1",
        "--max-instantiations",
        "1",
        "unique",
    ]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("OUT OF BUDGET"), "{stdout}");
    assert!(stdout.contains("resource budget exhausted"), "{stdout}");
}

#[test]
fn budget_flags_reject_garbage() {
    let (_, stderr, ok) = stqc(&["prove", "--max-rounds", "many"]);
    assert!(!ok);
    assert!(stderr.contains("not a number"), "{stderr}");
}

#[test]
fn check_stats_and_json() {
    let src = temp_file(
        "stats.c",
        "int pos dbl(int pos x) { return (int pos)(x * 2); }",
    );
    let path = src.to_str().unwrap();
    let (stdout, _, ok) = stqc(&["check", "--stats", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("expr(s) visited"), "{stdout}");
    assert!(stdout.contains("instrumented cast(s)"), "{stdout}");
    let (stdout, _, ok) = stqc(&["check", "--json", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"clean\":true"), "{stdout}");
    assert!(stdout.contains("\"exprs_visited\":"), "{stdout}");
    assert!(stdout.contains("\"casts_instrumented\":1"), "{stdout}");
}

#[test]
fn tables_json_carries_checker_telemetry() {
    let (stdout, _, ok) = stqc(&["tables", "--json"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"table1\":"), "{stdout}");
    assert!(stdout.contains("\"table2\":"), "{stdout}");
    assert!(stdout.contains("\"memo_misses\":"), "{stdout}");
    assert!(stdout.contains("bftpd"), "{stdout}");
    // Table 2's own columns: `printf`'s library prototype is not a user
    // annotation, so bftpd/mingetty/identd carry 2/1/0 as in the paper.
    let doc = Json::parse(stdout.trim()).expect("one JSON document");
    let column = |name: &str| -> Vec<u64> {
        doc.get("table2")
            .and_then(Json::as_array)
            .expect("table2 rows")
            .iter()
            .map(|row| row.get(name).and_then(Json::as_u64).expect(name))
            .collect()
    };
    assert_eq!(column("annotations"), [2, 1, 0], "{stdout}");
    assert_eq!(column("printf_calls"), [134, 23, 21], "{stdout}");
    assert_eq!(column("errors"), [1, 0, 0], "{stdout}");
    let table1 = doc.get("table1").expect("table1 row");
    assert_eq!(
        table1.get("dereferences").and_then(Json::as_u64),
        Some(1072)
    );
    assert_eq!(table1.get("casts").and_then(Json::as_u64), Some(59));
}

#[test]
fn show_prints_definitions() {
    let (stdout, _, ok) = stqc(&["show", "pos"]);
    assert!(ok);
    assert!(stdout.contains("value qualifier pos(int Expr E)"));
    assert!(stdout.contains("invariant value(E) > 0"));
    let (stdout, _, ok) = stqc(&["show"]);
    assert!(ok);
    assert!(stdout.contains("ref qualifier unique"));
}

// ----- the structured exit-code taxonomy (docs/robustness.md) -----

#[test]
fn exit_0_on_success() {
    let (stdout, _, code) = stqc_code(&["prove", "nonnull"]);
    assert_eq!(code, Some(0), "{stdout}");
}

#[test]
fn exit_1_on_unsound_qualifier() {
    // `broken` admits C == 1 but claims value(E) > 1: refutable.
    let quals = temp_file(
        "broken.q",
        "value qualifier broken(int Expr E)
             case E of
                 decl int Const C: C, where C > 0
             invariant value(E) > 1",
    );
    let (stdout, _, code) = stqc_code(&["prove", "--quals", quals.to_str().unwrap(), "broken"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("NOT proven sound"), "{stdout}");
    assert!(stdout.contains("countermodel"), "{stdout}");
}

#[test]
fn exit_1_on_qualifier_errors_from_check() {
    let dirty = temp_file("exit1.c", "int f(int* p) { return *p; }");
    let (_, _, code) = stqc_code(&["check", dirty.to_str().unwrap()]);
    assert_eq!(code, Some(1));
}

#[test]
fn exit_2_on_usage_errors() {
    let (_, stderr, code) = stqc_code(&["prove", "--max-rounds", "many"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (_, _, code) = stqc_code(&["frobnicate"]);
    assert_eq!(code, Some(2));
    let (_, _, code) = stqc_code(&["check"]);
    assert_eq!(code, Some(2));
    let (_, _, code) = stqc_code(&["prove", "--retry", "lots"]);
    assert_eq!(code, Some(2));
}

#[test]
fn exit_3_on_input_errors() {
    let (_, stderr, code) = stqc_code(&["check", "/nonexistent/missing.c"]);
    assert_eq!(code, Some(3), "{stderr}");
    let (_, _, code) = stqc_code(&["prove", "ghost"]);
    assert_eq!(code, Some(3));
    let garbled = temp_file("exit3.c", "int a = ;");
    let (_, _, code) = stqc_code(&["check", garbled.to_str().unwrap()]);
    assert_eq!(code, Some(3));
    // A second body for one function is a parse error naming it.
    let twice = temp_file(
        "twice.c",
        "int f(int a) { int b = 1; return b; } int f(int c) { int a = 2; a = c; return a; }",
    );
    let twice = twice.to_str().unwrap();
    for args in [
        vec!["check", twice],
        vec!["run", "--entry", "f", twice, "1"],
        vec!["infer", "--qual", "pos", twice],
    ] {
        let (stdout, stderr, code) = stqc_code(&args);
        assert_eq!(code, Some(3), "{args:?}: {stdout}{stderr}");
        assert!(stderr.contains("function `f` is defined twice"), "{stderr}");
    }
    // Nesting past the parser's limit is a parse error, not a crash.
    let deep = temp_file(
        "deep.c",
        &format!(
            "int f(int x) {{ return {}x{}; }}",
            "(".repeat(20_000),
            ")".repeat(20_000)
        ),
    );
    let deep = deep.to_str().unwrap();
    for args in [
        vec!["check", deep],
        vec!["run", "--entry", "f", deep, "1"],
        vec!["infer", "--qual", "pos", deep],
    ] {
        let (stdout, stderr, code) = stqc_code(&args);
        assert_eq!(code, Some(3), "{args:?}: {stdout}{stderr}");
        assert!(
            stderr.contains("nesting deeper than 256 levels"),
            "{stderr}"
        );
    }
    // `run` calls its entry only with the arguments it takes, and
    // runs nothing otherwise.
    let entry = temp_file("entry.c", "int main(int a) { return a; }");
    let entry = entry.to_str().unwrap();
    for (args, want) in [
        (
            vec!["run", entry],
            "entry function `main` takes 1 argument(s), 0 given",
        ),
        (
            vec!["run", entry, "1", "2"],
            "entry function `main` takes 1 argument(s), 2 given",
        ),
        (
            vec!["run", "--entry", "nosuch", entry],
            "no entry function `nosuch`",
        ),
    ] {
        let (stdout, stderr, code) = stqc_code(&args);
        assert_eq!(code, Some(3), "{args:?}: {stdout}{stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn exit_4_on_contained_crash_or_starved_budget() {
    let (stdout, _, code) = stqc_code(&["prove", "--fault-panic-at", "0"]);
    assert_eq!(code, Some(4), "{stdout}");
    assert!(stdout.contains("CRASHED"), "{stdout}");
    let (stdout, _, code) = stqc_code(&[
        "prove",
        "--max-rounds",
        "1",
        "--max-instantiations",
        "1",
        "unique",
    ]);
    assert_eq!(code, Some(4), "{stdout}");
}

#[test]
fn retry_ladder_recovers_an_injected_resource_out() {
    // Acceptance case: the forced first-attempt ResourceOut is retried
    // under an escalated budget and proves on attempt 2, restoring a
    // clean exit.
    let (stdout, _, code) = stqc_code(&[
        "prove",
        "--json",
        "--retry",
        "3",
        "--fault-resource-out-at",
        "0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"attempts\":2"), "{stdout}");
    assert!(
        stdout.contains("\"retry\":{\"max_attempts\":3,\"factor\":2}"),
        "{stdout}"
    );
}

#[test]
fn keep_going_check_recovers_past_syntax_errors() {
    let src = temp_file("resume.c", "int a = ;\nint pos ok(int pos x) { return x; }");
    let path = src.to_str().unwrap();
    // Strict mode aborts at the syntax error…
    let (_, stderr, code) = stqc_code(&["check", path]);
    assert_eq!(code, Some(3), "{stderr}");
    // …keep-going still reports it (exit 3) but checks what parsed.
    let (stdout, stderr, code) = stqc_code(&["check", "--keep-going", path]);
    assert_eq!(code, Some(3), "{stdout}\n{stderr}");
    assert!(stdout.contains("0 qualifier error(s)"), "{stdout}");
    let (stdout, _, _) = stqc_code(&["check", "--keep-going", "--json", path]);
    assert!(stdout.contains("\"syntax_errors\":[\""), "{stdout}");
    assert!(stdout.contains("\"clean\":false"), "{stdout}");
}

#[test]
fn prove_without_keep_going_stops_at_the_first_crash() {
    let (stdout, stderr, code) = stqc_code(&["prove", "--json", "--fault-panic-at", "0"]);
    assert_eq!(code, Some(4), "{stdout}");
    assert_eq!(stdout.matches("\"verdict\":\"crashed\"").count(), 1);
    assert!(
        stdout.matches("\"verdict\":").count() < 8,
        "without --keep-going the run stops early: {stdout}"
    );
    assert!(stderr.contains("--keep-going"), "{stderr}");
}

#[test]
fn shipped_extra_qualifiers_prove_sound() {
    let quals = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/qualifiers/extra.q");
    let (stdout, stderr, ok) = stqc(&["prove", "--quals", quals]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("qualifier `nonneg`: sound"));
    assert!(stdout.contains("qualifier `digit`: sound"));
    assert!(stdout.contains("qualifier `kernel`: sound"));
}

// ----- parallel + incremental pipeline (docs/performance.md) -----

/// A directory path that does not exist yet, for a cache to create.
fn temp_dir(name: &str) -> TempPath {
    let dir = Scratch::new(&format!("test-dir-{name}"));
    TempPath {
        path: dir.join("cache"),
        _dir: dir,
    }
}

#[test]
fn prove_with_jobs_reports_the_same_verdicts_as_sequential() {
    let (seq, _, ok) = stqc(&["prove", "--jobs", "1", "--json"]);
    assert!(ok, "{seq}");
    let (par, _, ok) = stqc(&["prove", "--jobs", "4", "--json"]);
    assert!(ok, "{par}");
    assert!(seq.contains("\"jobs\":1"), "{seq}");
    assert!(par.contains("\"jobs\":4"), "{par}");
    // Same qualifiers, same order, same verdicts — scheduling never
    // changes the report.
    let extract = |s: &str| -> Vec<String> {
        s.split("\"name\":\"")
            .skip(1)
            .map(|chunk| {
                let name = chunk.split('"').next().unwrap().to_owned();
                let verdict = chunk
                    .split("\"verdict\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
                    .to_owned();
                format!("{name}={verdict}")
            })
            .collect()
    };
    assert_eq!(extract(&seq), extract(&par));
}

/// `doc` without its `wall_ms` and `jobs` members, at every depth.
fn without_wall_and_jobs(doc: Json) -> Json {
    match doc {
        Json::Obj(members) => Json::obj(
            members
                .into_iter()
                .filter(|(k, _)| k != "wall_ms" && k != "jobs")
                .map(|(k, v)| (k, without_wall_and_jobs(v))),
        ),
        Json::Arr(items) => items.into_iter().map(without_wall_and_jobs).collect(),
        other => other,
    }
}

#[test]
fn countermodels_do_not_depend_on_jobs_across_fresh_processes() {
    // The paper's two mutants (§2.1.3's `E1 - E2` and §2.2.3's `unique`
    // without `disallow L`) both refute with countermodels containing
    // equality atoms. Each process interns symbols in its own order, so
    // an id-ordered atom would print differently at --jobs 1 and 4.
    let quals = temp_file(
        "mutants.q",
        "value qualifier pos_sub(int Expr E)
             case E of
                 decl int Const C: C, where C > 0
               | decl int Expr E1, E2: E1 - E2, where pos_sub(E1) && pos_sub(E2)
               | decl int Expr E1: -E1, where neg(E1)
             invariant value(E) > 0
         ref qualifier unique_leak(T* LValue L)
             assign L NULL | new
             invariant value(L) == NULL ||
                 (isHeapLoc(value(L)) &&
                  forall T** P: *P == value(L) => P == location(L))",
    );
    let quals = quals.to_str().unwrap();
    let docs: Vec<Json> = ["1", "4"]
        .iter()
        .map(|jobs| {
            let (stdout, _, code) = stqc_code(&[
                "prove",
                "--quals",
                quals,
                "--jobs",
                jobs,
                "--json",
                "pos_sub",
                "unique_leak",
            ]);
            assert_eq!(code, Some(1), "jobs={jobs}: {stdout}");
            assert!(stdout.contains("\"countermodel\":[\""), "{stdout}");
            without_wall_and_jobs(Json::parse(stdout.trim()).expect("one JSON document"))
        })
        .collect();
    assert_eq!(docs[0].to_string(), docs[1].to_string());
}

#[test]
fn prove_json_documents_jobs_and_cache_fields() {
    let (stdout, _, ok) = stqc(&["prove", "nonnull", "--jobs", "2", "--json"]);
    assert!(ok, "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "single-line JSON");
    assert!(stdout.contains("\"jobs\":2"), "{stdout}");
    assert!(stdout.contains("\"cache\":null"), "{stdout}");
    assert!(stdout.contains("\"cache_hits\":0"), "{stdout}");
}

#[test]
fn jobs_zero_means_auto() {
    let (stdout, stderr, ok) = stqc(&["prove", "nonnull", "--jobs", "0", "--json"]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("\"jobs\":"), "{stdout}");
}

#[test]
fn cache_dir_cold_run_misses_and_warm_run_hits_everything() {
    let dir = temp_dir("cold-warm");
    let dir_s = dir.to_str().unwrap();
    let (cold, stderr, ok) = stqc(&["prove", "--cache-dir", dir_s, "--json"]);
    assert!(ok, "{cold}\n{stderr}");
    assert!(cold.contains("\"hits\":0"), "{cold}");
    assert!(!cold.contains("\"misses\":0"), "cold run must miss: {cold}");
    assert!(dir.join("proofs.stqcache").exists(), "cache persisted");

    let (warm, stderr, ok) = stqc(&["prove", "--cache-dir", dir_s, "--json"]);
    assert!(ok, "{warm}\n{stderr}");
    assert!(
        warm.contains("\"misses\":0"),
        "warm run re-proves nothing: {warm}"
    );
    assert!(!warm.contains("\"hits\":0"), "{warm}");
    // Every obligation came from the cache: zero attempts anywhere.
    assert!(!warm.contains("\"attempts\":1"), "{warm}");
    let (stats, _, ok) = stqc(&["prove", "--cache-dir", dir_s, "--stats"]);
    assert!(ok);
    assert!(stats.contains("cache:"), "{stats}");
    assert!(stats.contains(" 0 miss(es)"), "{stats}");
}

#[test]
fn cache_key_includes_the_retry_ladder_and_interacts_with_keep_going() {
    let dir = temp_dir("retry-key");
    let dir_s = dir.to_str().unwrap();
    let (_, _, ok) = stqc(&[
        "prove",
        "--cache-dir",
        dir_s,
        "--retry",
        "3",
        "--keep-going",
    ]);
    assert!(ok);
    // Same ladder: pure hits.
    let (warm, _, ok) = stqc(&[
        "prove",
        "--cache-dir",
        dir_s,
        "--retry",
        "3",
        "--keep-going",
        "--stats",
    ]);
    assert!(ok);
    assert!(warm.contains(" 0 miss(es)"), "{warm}");
    // A different ladder is a different fingerprint: everything misses.
    let (other, _, ok) = stqc(&["prove", "--cache-dir", dir_s, "--retry", "4", "--stats"]);
    assert!(ok);
    assert!(other.contains(" 0 hit(s)"), "{other}");
}

#[test]
fn stale_cache_from_another_prover_version_is_invalidated() {
    let dir = temp_dir("stale");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("proofs.stqcache"),
        "stq-proof-cache v1 stq-prover-0.0.0-r0\nabc123\tP\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = stqc(&["prove", "--cache-dir", dir.to_str().unwrap(), "--json"]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("\"invalidations\":1"), "{stdout}");
    assert!(
        stdout.contains("\"hits\":0"),
        "stale entries never hit: {stdout}"
    );
}

#[test]
fn cached_refutation_still_exits_unsound() {
    let quals = temp_file(
        "bad.q",
        "value qualifier bad(int Expr E)
            case E of
                decl int Const C: C, where C >= 0
            invariant value(E) > 0",
    );
    let dir = temp_dir("refuted");
    let args = [
        "prove",
        "bad",
        "--quals",
        quals.to_str().unwrap(),
        "--cache-dir",
        dir.to_str().unwrap(),
    ];
    let (cold, _, code) = stqc_code(&args);
    assert_eq!(code, Some(1), "{cold}");
    assert!(cold.contains("countermodel"), "{cold}");
    // The cached replay keeps the verdict, the countermodel, and the
    // exit code.
    let (warm, _, code) = stqc_code(&args);
    assert_eq!(code, Some(1), "{warm}");
    assert!(warm.contains("countermodel"), "{warm}");
    assert!(warm.contains("(cached)"), "{warm}");
}

#[test]
fn fault_injection_under_parallel_jobs_crashes_exactly_one_obligation() {
    let (stdout, _, code) = stqc_code(&[
        "prove",
        "--fault-panic-at",
        "3",
        "--jobs",
        "4",
        "--keep-going",
        "--json",
    ]);
    assert_eq!(code, Some(4), "{stdout}");
    assert_eq!(stdout.matches("\"verdict\":\"crashed\"").count(), 1);
    assert_eq!(stdout.matches("injected panic").count(), 1);
    // All eight qualifiers still reported under --keep-going.
    assert_eq!(stdout.matches("\"verdict\":").count(), 8);
}

#[test]
fn fault_injection_without_explicit_jobs_stays_sequential() {
    // Deterministic fault targeting: entry 0 is pos's first obligation.
    let (stdout, _, code) = stqc_code(&["prove", "pos", "--json", "--fault-panic-at", "0"]);
    assert_eq!(code, Some(4), "{stdout}");
    assert!(stdout.contains("\"jobs\":1"), "{stdout}");
}

// ----- deadlines, cancellation, and interrupted-run resume -----

/// A family of `unique`-style qualifiers whose invariants differ only by
/// a vacuous numeric conjunct. The conjunct gives every qualifier a
/// distinct proof-obligation fingerprint (so nothing aliases in the
/// cache) while keeping each one sound, and the aggregate is heavy
/// enough that a debug-build run lasts long enough to interrupt.
fn heavy_quals(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "ref qualifier uniq{i}(T* LValue L)
                     assign L NULL | new
                     disallow L
                     invariant (value(L) == NULL ||
                         (isHeapLoc(value(L)) &&
                          forall T** P: *P == value(L) => P == location(L))) && {i} < {}\n",
                i + 1
            )
        })
        .collect()
}

#[test]
fn exit_5_on_expired_deadline() {
    // A zero deadline has already expired at startup: every obligation is
    // skipped, the report is explicitly partial, and the dedicated exit
    // code distinguishes "never ran" from "ran and failed".
    let (stdout, stderr, code) = stqc_code(&["prove", "--deadline-ms", "0"]);
    assert_eq!(code, Some(5), "{stdout}\n{stderr}");
    assert!(stdout.contains("[SKIPPED]"), "{stdout}");
    assert!(stdout.contains("run interrupted"), "{stdout}");
    assert!(stderr.contains("interrupted"), "{stderr}");
}

#[test]
fn deadline_json_reports_interruption() {
    let (stdout, _, code) = stqc_code(&["prove", "pos", "--deadline-ms", "0", "--json"]);
    assert_eq!(code, Some(5), "{stdout}");
    assert!(stdout.contains("\"deadline_ms\":0"), "{stdout}");
    assert!(stdout.contains("\"interrupted\":true"), "{stdout}");
    assert!(stdout.contains("\"verdict\":\"interrupted\""), "{stdout}");
    assert!(stdout.contains("\"skipped\":true"), "{stdout}");
    // Skipped obligations never ran: zero attempts everywhere.
    assert!(!stdout.contains("\"attempts\":1"), "{stdout}");
}

#[test]
fn deadline_never_hangs_on_adversarial_input() {
    // A 10ms deadline must cut a run of these qualifiers short at the
    // next safepoint instead of hanging. The library doubles until its
    // run outlasts the deadline, so the test does not depend on how fast
    // the prover is. Allow generous wall-clock slack for a loaded CI
    // machine — the point is "bounded", not "instant".
    let mut n = 12;
    loop {
        let quals = temp_file(&format!("heavy-deadline-{n}.q"), &heavy_quals(n));
        let start = std::time::Instant::now();
        let (stdout, _, code) = stqc_code(&[
            "prove",
            "--quals",
            quals.to_str().unwrap(),
            "--deadline-ms",
            "10",
        ]);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "deadline must bound the run"
        );
        // Exit 0: the whole library was proved inside the deadline.
        if code == Some(0) && n < 4096 {
            n *= 2;
            continue;
        }
        assert_eq!(code, Some(5), "{n} qualifiers: {stdout}");
        break;
    }
}

#[test]
fn interrupted_run_does_not_poison_the_cache() {
    // An interrupted run persists only conclusive verdicts (here: none),
    // so a later full run over the same cache directory completes
    // normally and converts the cache from cold to warm.
    let dir = temp_dir("interrupted-cache");
    let dir_s = dir.to_str().unwrap();
    let (first, _, code) = stqc_code(&["prove", "--cache-dir", dir_s, "--deadline-ms", "0"]);
    assert_eq!(code, Some(5), "{first}");
    let (full, stderr, code) = stqc_code(&["prove", "--cache-dir", dir_s, "--stats"]);
    assert_eq!(code, Some(0), "{full}\n{stderr}");
    let (warm, _, code) = stqc_code(&["prove", "--cache-dir", dir_s, "--stats"]);
    assert_eq!(code, Some(0), "{warm}");
    assert!(warm.contains(" 0 miss(es)"), "{warm}");
}

#[cfg(unix)]
#[test]
fn sigint_yields_partial_report_and_resume_hits_the_cache() {
    use std::process::Stdio;

    // The signal goes out at a fixed time, so a fast prover can finish
    // the whole library first. The library doubles until a run is still
    // going when the signal lands: the test does not depend on how fast
    // the prover is.
    let mut n = 64;
    let (args, _quals, _dir, out) = loop {
        let quals = temp_file(&format!("heavy-sigint-{n}.q"), &heavy_quals(n));
        let dir = temp_dir(&format!("sigint-resume-{n}"));
        let args: Vec<String> = ["prove", "--quals", quals.to_str().unwrap()]
            .into_iter()
            .chain(["--cache-dir", dir.to_str().unwrap(), "--stats"])
            .map(str::to_owned)
            .collect();
        let child = Command::new(env!("CARGO_BIN_EXE_stqc"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("stqc spawns");
        // Long enough for the handler to be installed and a few
        // obligations to finish.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let sent = Command::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .expect("kill runs")
            .success();
        assert!(sent, "SIGINT delivered");
        let out = child.wait_with_output().expect("stqc exits");
        if out.status.code() != Some(0) || n >= 4096 {
            break (args, quals, dir, out);
        }
        // The run finished before the signal landed.
        n *= 2;
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(5),
        "{n} qualifiers: {stdout}\n{stderr}"
    );
    assert!(stdout.contains("run interrupted"), "{stdout}");
    assert!(stderr.contains("interrupted"), "{stderr}");

    // The conclusive prefix was flushed before exit, so the resumed run
    // starts from the cache instead of from scratch.
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (resumed, stderr, code) = stqc_code(&args);
    assert_eq!(code, Some(0), "{resumed}\n{stderr}");
    assert!(resumed.contains("cache:"), "{resumed}");
    assert!(!resumed.contains(" 0 hit(s)"), "resume must hit: {resumed}");
}

#[test]
fn fuzz_deadline_exits_interrupted() {
    let (stdout, _, code) = stqc_code(&["fuzz", "--count", "10", "--deadline-ms", "0", "--json"]);
    assert_eq!(code, Some(5), "{stdout}");
    assert!(stdout.contains("\"interrupted\":true"), "{stdout}");
    assert!(stdout.contains("\"skipped\":10"), "{stdout}");
}

#[test]
fn fuzz_text_mode_reports_case_boundary_interruption() {
    let (stdout, stderr, code) = stqc_code(&["fuzz", "--count", "4", "--deadline-ms", "0"]);
    assert_eq!(code, Some(5), "{stdout}\n{stderr}");
    assert!(stderr.contains("case boundary"), "{stderr}");
}

#[test]
fn misspelled_flags_are_usage_errors_naming_the_flag() {
    let src = temp_file("typo.c", "int pos one() { return (int pos) 1; }\n");
    let path = src.to_str().unwrap();
    // Each row's first flag is one the subcommand does not take: a
    // misspelling, or a real flag of another subcommand, which must not
    // be silently ignored.
    for args in [
        vec!["check", "--josn", path],
        vec!["prove", "--jsno", "pos"],
        vec!["tables", "--jsn"],
        vec!["show", "--bogus"],
        vec!["check", "--deadline-ms", "0", path],
        vec!["check", "--fault-panic-at", "0", path],
        vec!["show", "--cache-dir", "/nonexistent", "pos"],
        vec!["run", "--timeout-ms", "1", "--entry", "one", path],
        vec!["infer", "--retry", "9", "--qual", "pos", path],
        vec!["serve", "--fault-panic-at", "0", "--stdio"],
        vec!["fuzz", "--bogus"],
        vec!["fuzz", "--quals", path],
        vec!["check", "--seed", "1", path],
        vec!["tables", "--max-depth", "2"],
        vec!["prove", "--connect-timeout-ms", "1"],
        vec!["serve", "--retries", "1", "--stdio"],
        vec![
            "call",
            "--max-queue",
            "1",
            "--socket",
            "/nonexistent.sock",
            "health",
        ],
        vec!["show", "--stdio"],
        vec!["check", "--pid-file", "p", path],
    ] {
        let flag = args[1];
        let (stdout, stderr, code) = stqc_code(&args);
        assert_eq!(
            code,
            Some(2),
            "{args:?} must be a usage error: {stdout}{stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr must name {flag}: {stderr}"
        );
        assert!(
            stdout.is_empty(),
            "{args:?} printed a report anyway: {stdout}"
        );
    }
    // A usage error wins over a `--quals` file that cannot be read.
    let (_, stderr, code) = stqc_code(&["check", "--quals", "/nonexistent/q.stq", "--bogus", path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
    // The flags each subcommand does take still work.
    let (_, _, code) = stqc_code(&["check", "--json", "--stats", "--keep-going", path]);
    assert_eq!(code, Some(0));
    // A single-valued flag given twice takes its last value.
    let (stdout, _, code) = stqc_code(&["run", "--entry", "main", "--entry", "one", path]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("=> 1"), "{stdout}");
}

#[test]
fn extra_positional_arguments_are_usage_errors_naming_them() {
    let good = temp_file("extra-good.c", "int pos f(int pos x) { return x; }\n");
    let bad = temp_file("extra-bad.c", "int pos x = 0;\n");
    let main = temp_file("extra-main.c", "int main(int a) { return a; }\n");
    let (good, bad, main) = (
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
        main.to_str().unwrap(),
    );
    for (args, extra) in [
        (vec!["check", good, bad], bad),
        (vec!["show", "pos", "neg"], "neg"),
        (vec!["infer", "--qual", "pos", good, bad], bad),
        (vec!["tables", "extra"], "extra"),
        (vec!["run", main, "foo"], "foo"),
        (vec!["run", "--entry", "main", main, "7", "foo"], "foo"),
        (vec!["fuzz", "x"], "x"),
        (vec!["serve", "--stdio", "x"], "x"),
        // Named before any daemon is dialed: this socket does not exist.
        (
            vec![
                "call",
                "--socket",
                "/nonexistent/stqc.sock",
                "check",
                "{\"source\":\"int x = 1;\"}",
                "junk",
                "more",
            ],
            "junk",
        ),
    ] {
        let (stdout, stderr, code) = stqc_code(&args);
        assert_eq!(
            code,
            Some(2),
            "{args:?} must be a usage error: {stdout}{stderr}"
        );
        assert!(
            stderr.contains(&format!("unexpected argument `{extra}`")),
            "{args:?}: stderr must name {extra}: {stderr}"
        );
        assert!(
            stdout.is_empty(),
            "{args:?} printed a report anyway: {stdout}"
        );
    }
    // The values of `--qual NAME` and `--entry NAME` are not positional.
    let (stdout, _, code) = stqc_code(&["infer", "--qual", "pos", good]);
    assert_eq!(code, Some(0), "{stdout}");
    let (stdout, _, code) = stqc_code(&["run", "--entry", "main", main, "7"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("=> 7"), "{stdout}");
}

#[test]
fn prove_json_reports_every_named_qualifier() {
    let (stdout, stderr, code) = stqc_code(&["prove", "pos", "neg", "--json"]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let doc = stq_util::json::Json::parse(stdout.trim()).expect("one JSON document");
    let names: Vec<&str> = doc
        .get("qualifiers")
        .and_then(|q| q.as_array())
        .expect("qualifiers array")
        .iter()
        .map(|q| q.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    assert_eq!(names, ["pos", "neg"]);
}
