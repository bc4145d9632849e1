//! `stqc` — the semantic-type-qualifiers command-line tool.
//!
//! `stqc --help` prints the command and flag reference ([`HELP`]);
//! `docs/robustness.md` explains the exit codes and the run deadline,
//! `docs/performance.md` the `--jobs` and `--cache-dir` flags, and
//! `docs/serving.md` the `serve` daemon and its `call` client.
//!
//! Every subcommand reads its command line the same way: [`scan`]
//! checks it against the one flag table, [`FLAGS`], before any file is
//! read or any daemon is dialed. A flag the subcommand does not take, a
//! flag's missing or non-numeric value, or a positional argument past
//! the subcommand's limit is a usage error (exit 2) naming it. A flag
//! given twice takes its last value, except `--quals`, the
//! fault-injection flags, and `call`'s `--socket` and `--tcp`, which
//! keep every value in order.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use stq_cir::Program;
use stq_core::reportjson::{
    budget_json, cache_json, check_json, check_stats_json, millis, prove_json, retry_json,
    verdict_slug, with_lead,
};
use stq_core::{
    fault, Budget, CancelToken, CheckOptions, FaultKind, FaultPlan, PersistOutcome, ProofCache,
    RetryPolicy, Session, SoundnessReport, Verdict,
};
use stq_util::json::Json;

const USAGE: &str = "usage: stqc <prove|check|run|infer|tables|show|fuzz|serve|call> [options]\n\
     run `stqc --help` for the full command and flag reference";

/// The complete CLI surface. `tests/docs.rs` cross-checks every
/// subcommand and flag mentioned anywhere under `docs/` against this
/// text, so it must stay exhaustive.
const HELP: &str = "\
stqc — semantic type qualifiers: checker, prover, and serving daemon

subcommands:
  stqc prove [NAME..]       prove qualifier soundness (all, or each NAME)
  stqc check FILE.c         qualifier-check a C-subset program
  stqc run FILE.c [INT..]   instrument casts and execute under the interpreter
  stqc infer --qual NAME FILE.c
                            infer which sites can carry qualifier NAME
  stqc tables               regenerate the paper's Tables 1 and 2
  stqc show [NAME]          print qualifier definitions (all, or one)
  stqc fuzz                 differential fuzzing across three oracles
  stqc serve                long-running checking daemon (socket or stdio)
  stqc call METHOD [PARAMS] send one request to a running serve daemon

qualifier and report flags (prove, check, run, infer, show, serve):
  --quals FILE              define qualifiers from FILE on top of the builtins
  --stats                   print prover/checker telemetry (prove, check, tables)
  --json                    machine-readable report (prove, check, tables, fuzz;
                            schema: docs/telemetry.md)
  --flow-sensitive          enable the flow-sensitive checking extension (check)
  --entry NAME              entry function for `run` (default main)
  --qual NAME               qualifier to infer annotations for (infer)

prover budget flags (prove, serve; per obligation):
  --max-rounds N            matching rounds before ResourceOut
  --max-instantiations N    quantifier instantiations before ResourceOut
  --max-decisions N         case splits before ResourceOut
  --max-clauses N           clauses (background + instances) before ResourceOut
  --timeout-ms N            per-obligation wall-clock budget (cache-keyed)

performance flags (prove, serve; see docs/performance.md):
  --jobs N                  worker threads (0 = available parallelism);
                            for serve: request workers serving the queue
  --cache-dir DIR           persistent fingerprinted proof cache in DIR

robustness flags (see docs/robustness.md):
  --retry N                 retry ResourceOut up to N attempts (prove, serve)
  --retry-factor F          geometric budget escalation (prove, serve)
  --deadline-ms N           whole-run deadline (prove, fuzz, serve lifetime;
                            for `call`: per-request deadline, not cache-keyed)
  --keep-going              continue past crashed qualifiers / syntax errors
  --fault-panic-at N        inject a panic at solver entry N (prove)
  --fault-resource-out-at N inject ResourceOut at solver entry N (prove)
  --fault-theory-at N       inject a theory error at solver entry N (prove)

fuzzing flags (fuzz; see docs/testing.md):
  --seed N                  campaign seed (deterministic per seed/count)
  --count N                 number of generated cases
  --max-depth N             expression depth bound for generated programs
  --replay DIR              replay every .c witness under DIR

serving flags (serve, call; see docs/serving.md):
  --socket PATH             Unix socket to serve on / connect to
  --tcp HOST:PORT           TCP address to serve on / connect to (serve may
                            combine --socket and --tcp; port 0 picks a free
                            port, reported on stderr and via --addr-file;
                            call repeats both: endpoints tried in order)
  --addr-file PATH          write the bound TCP address (or socket path) to
                            PATH once listening (serve; atomic temp+rename)
  --json                    wrap the response with client-side retry and
                            failover counters (call)
  --stdio                   serve one session over stdin/stdout (testing)
  --max-inflight N          per-connection in-flight request cap (serve)
  --max-queue N             global request queue bound before shedding (serve)
  --pid-file PATH           record the daemon's pid in PATH once listening
                            (serve; atomic temp+rename)
  --max-line-bytes N        reject request lines longer than N bytes with a
                            structured `input` error (serve; default 1048576)
  --connect-timeout-ms N    keep redialing a refused socket for N ms (call)
  --call-deadline-ms N      client-side budget for the whole call, covering
                            every retry (call; omitted = wait indefinitely)
  --retries N               re-attempts after retryable failures (call)

exit codes: 0 success/sound, 1 unsound or qualifier errors, 2 usage,
3 input errors, 4 crash or resource-out, 5 interrupted (partial report),
6 daemon unreachable or no attributed answer within the call budget (call).

`stqc --help` (or `-h`) prints this reference.
";

/// The subcommands: each one's name, the most positional arguments it
/// takes, and its body, which runs on the scanned command line.
type Body = fn(Args) -> Result<ExitCode, CliError>;
const COMMANDS: [(&str, usize, Body); 9] = [
    ("prove", usize::MAX, prove),
    ("check", 1, check),
    ("run", usize::MAX, run),
    ("infer", 1, infer),
    ("tables", 0, tables),
    ("show", 1, show),
    ("fuzz", 0, fuzz),
    ("serve", 0, serve),
    ("call", 2, call),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    if first == "--help" || first == "-h" {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let Some((cmd, max_positional, body)) = COMMANDS.iter().find(|(cmd, ..)| cmd == first) else {
        eprintln!("stqc: unknown subcommand `{first}`");
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    match scan(cmd, *max_positional, &args[1..]).and_then(body) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("stqc: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// Exit code for unsound qualifiers, refuted obligations, and
/// qualifier errors found by `check`.
const EXIT_UNSOUND: u8 = 1;
/// Exit code for command-line usage errors.
const EXIT_USAGE: u8 = 2;
/// Exit code for input errors: unreadable or unparseable files,
/// unknown qualifier names.
const EXIT_INPUT: u8 = 3;
/// Exit code when a proof attempt crashed (panic contained by the
/// isolation layer) or ran out of budget even after the retry ladder.
const EXIT_CRASH: u8 = 4;
/// Exit code when the run was interrupted — `--deadline-ms` lapsed or a
/// SIGINT arrived — and the emitted report is partial: conclusive
/// verdicts are trustworthy, unreached work is marked skipped, and
/// anything conclusive was persisted to the cache for resumption.
const EXIT_INTERRUPTED: u8 = 5;
/// Exit code when `call` could not obtain an attributed answer at all:
/// the daemon was unreachable, or the connect/call/retry budget ran
/// out on transport-level failures. Distinct from input errors (3) so
/// scripts can tell "the daemon is down" from "my request was bad".
#[cfg(unix)]
const EXIT_UNREACHABLE: u8 = 6;

/// Cooperative SIGINT handling: the first Ctrl-C cancels the run's
/// [`CancelToken`] (workers drain at the next safepoint, the partial
/// report and cache flush still happen); a second Ctrl-C exits
/// immediately with the conventional 128+SIGINT code.
#[cfg(unix)]
mod interrupt {
    use std::sync::OnceLock;
    use stq_core::CancelToken;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_sigint(_sig: i32) {
        // Only async-signal-safe operations here: atomic loads/stores
        // and `_exit`.
        match TOKEN.get() {
            Some(token) if !token.is_cancelled() => token.cancel(),
            _ => unsafe { _exit(130) },
        }
    }

    /// Registers `token` as the one SIGINT cancels and installs the
    /// handler.
    pub fn install(token: &CancelToken) {
        let _ = TOKEN.set(token.clone());
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod interrupt {
    use stq_core::CancelToken;

    /// No signal wiring off unix; `--deadline-ms` still works.
    pub fn install(_token: &CancelToken) {}
}

/// A diagnosed failure paired with the exit code class it belongs to.
struct CliError {
    code: u8,
    msg: String,
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_USAGE,
        msg: msg.into(),
    }
}

fn input_err(msg: impl Into<String>) -> CliError {
    CliError {
        code: EXIT_INPUT,
        msg: msg.into(),
    }
}

// ----- the command line -----

/// What a flag takes after it.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// A non-negative integer.
    Number,
    /// A number that sets the named [`Budget`] field.
    Limit(&'static str),
    /// A number that sets the named [`RetryPolicy`] field.
    Retry(&'static str),
    /// A solver entry number at which to inject a fault of this kind.
    Fault(FaultKind),
    /// Text, described in the error a missing value gets
    /// (`--quals needs a file`).
    Text(&'static str),
}

/// One row of [`FLAGS`]: a flag, what it takes, and the names of the
/// subcommands that take it, separated by spaces.
struct Flag {
    name: &'static str,
    takes: Takes,
    commands: &'static str,
}

const fn flag(name: &'static str, takes: Takes, commands: &'static str) -> Flag {
    Flag {
        name,
        takes,
        commands,
    }
}

/// The subcommands that load qualifier definitions.
const SESSION: &str = "prove check run infer show serve";
/// The subcommands that run the prover.
const PROVER: &str = "prove serve";

use FaultKind::{Panic, ResourceOut, TheoryError};
use Takes::{Fault, Limit, Nothing, Number, Retry, Text};

/// Every flag of every subcommand, each listed once; [`HELP`] documents
/// the same set.
#[rustfmt::skip]
const FLAGS: [Flag; 35] = [
    flag("--quals",                 Text("a file"),              SESSION),
    flag("--keep-going",            Nothing,                     SESSION),
    flag("--stats",                 Nothing,                     "prove check tables"),
    flag("--json",                  Nothing,                     "prove check tables fuzz call"),
    flag("--flow-sensitive",        Nothing,                     "check"),
    flag("--entry",                 Text("a name"),              "run"),
    flag("--qual",                  Text("a name"),              "infer"),
    flag("--max-rounds",            Limit("max_rounds"),         PROVER),
    flag("--max-instantiations",    Limit("max_instantiations"), PROVER),
    flag("--max-decisions",         Limit("max_decisions"),      PROVER),
    flag("--max-clauses",           Limit("max_clauses"),        PROVER),
    flag("--timeout-ms",            Limit("timeout_ms"),         PROVER),
    flag("--jobs",                  Number,                      "prove serve fuzz"),
    flag("--cache-dir",             Text("a directory"),         PROVER),
    flag("--retry",                 Retry("max_attempts"),       PROVER),
    flag("--retry-factor",          Retry("factor"),             PROVER),
    flag("--deadline-ms",           Number,                      "prove fuzz serve call"),
    flag("--fault-panic-at",        Fault(Panic),                "prove"),
    flag("--fault-resource-out-at", Fault(ResourceOut),          "prove"),
    flag("--fault-theory-at",       Fault(TheoryError),          "prove"),
    flag("--seed",                  Number,                      "fuzz"),
    flag("--count",                 Number,                      "fuzz"),
    flag("--max-depth",             Number,                      "fuzz"),
    flag("--replay",                Text("a directory"),         "fuzz"),
    flag("--socket",                Text("a path"),              "serve call"),
    flag("--tcp",                   Text("HOST:PORT"),           "serve call"),
    flag("--addr-file",             Text("a path"),              "serve"),
    flag("--stdio",                 Nothing,                     "serve"),
    flag("--max-inflight",          Number,                      "serve"),
    flag("--max-queue",             Number,                      "serve"),
    flag("--pid-file",              Text("a path"),              "serve"),
    flag("--max-line-bytes",        Number,                      "serve"),
    flag("--connect-timeout-ms",    Number,                      "call"),
    flag("--call-deadline-ms",      Number,                      "call"),
    flag("--retries",               Number,                      "call"),
];

/// A flag's value as [`scan`] checked it.
enum Value {
    Switch,
    Num(u64),
    Text(String),
}

/// A scanned command line.
struct Args {
    /// Every flag given, with its value, in command-line order.
    flags: Vec<(&'static Flag, Value)>,
    positional: Vec<String>,
}

impl Args {
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f.name == name)
    }

    /// Every text value of the `name` flag, in command-line order.
    fn texts<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter_map(move |(f, v)| match v {
            Value::Text(s) if f.name == name => Some(s.as_str()),
            _ => None,
        })
    }

    /// The last text value of the `name` flag.
    fn text<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.texts(name).last()
    }

    /// The last numeric value of the `name` flag.
    fn num(&self, name: &str) -> Option<u64> {
        self.flags.iter().rev().find_map(|(f, v)| match v {
            Value::Num(n) if f.name == name => Some(*n),
            _ => None,
        })
    }
}

/// Scans the arguments of subcommand `cmd`, which takes at most
/// `max_positional` positional arguments. Every word that starts with
/// `--` is a flag, and the word after a valued flag is its value
/// whatever it looks like. Errors, all usage errors, come in
/// command-line order, a positional argument past the limit last.
fn scan(cmd: &str, max_positional: usize, args: &[String]) -> Result<Args, CliError> {
    let mut scanned = Args {
        flags: Vec::new(),
        positional: Vec::new(),
    };
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            scanned.positional.push(word.clone());
            continue;
        }
        let Some(flag) = FLAGS
            .iter()
            .find(|f| f.name == word && f.commands.split(' ').any(|c| c == cmd))
        else {
            return Err(usage_err(format!(
                "unknown flag `{word}` (run `stqc --help` for the flag reference)"
            )));
        };
        let needs = match flag.takes {
            Nothing => {
                scanned.flags.push((flag, Value::Switch));
                continue;
            }
            Text(what) => what,
            _ => "a number",
        };
        let Some(value) = words.next() else {
            return Err(usage_err(format!("{word} needs {needs}")));
        };
        let value = match flag.takes {
            Text(_) => Value::Text(value.clone()),
            _ => Value::Num(
                value
                    .parse()
                    .map_err(|_| usage_err(format!("{word}: `{value}` is not a number")))?,
            ),
        };
        scanned.flags.push((flag, value));
    }
    if let Some(extra) = scanned.positional.get(max_positional) {
        return Err(usage_err(format!("{cmd}: unexpected argument `{extra}`")));
    }
    Ok(scanned)
}

/// The builtins plus the definitions of every `--quals` file, in order,
/// checked for well-formedness. Under `--keep-going` a file's
/// definitions that do not parse are reported and skipped.
fn session(args: &Args) -> Result<Session, CliError> {
    let mut session = Session::with_builtins();
    for path in args.texts("--quals") {
        let src = read(path)?;
        if args.has("--keep-going") {
            let (_, errors) = session.define_qualifiers_resilient(&src);
            for e in &errors {
                eprintln!("stqc: {path}: {e}");
            }
        } else {
            session
                .define_qualifiers(&src)
                .map_err(|e| input_err(format!("{path}: {e}")))?;
        }
    }
    let wf = session.check_well_formed();
    if wf.has_errors() {
        return Err(input_err(format!(
            "ill-formed qualifier definitions:\n{wf}"
        )));
    }
    Ok(session)
}

/// Installs the `--fault-*` flags' [`FaultPlan`] for this thread and
/// returns the worker count: `--jobs N`, where `0` or no flag means the
/// machine's available parallelism, except that a fault-injected run
/// without `--jobs` stays single-threaded, so the faulted solver entry
/// is the Nth obligation deterministically, not whichever a worker
/// reaches.
fn jobs(args: &Args) -> usize {
    let mut plan = FaultPlan::new();
    for (flag, value) in &args.flags {
        if let (Fault(kind), Value::Num(n)) = (flag.takes, value) {
            plan = plan.inject(*n, kind);
        }
    }
    let fault_injected = !plan.is_empty();
    if fault_injected {
        fault::install(plan);
    }
    match args.num("--jobs") {
        Some(n) if n >= 1 => n.min(256) as usize,
        None if fault_injected => 1,
        _ => stq_util::pool::default_jobs(),
    }
}

/// The prover budget and retry ladder, from their defaults and the
/// budget and retry flags in command-line order.
fn budget(args: &Args) -> (Budget, RetryPolicy) {
    let mut budget = Budget::default();
    let mut retry = RetryPolicy::none();
    for (flag, value) in &args.flags {
        match (flag.takes, value) {
            (Limit(field), Value::Num(n)) => budget.set(field, *n),
            (Retry(field), Value::Num(n)) => retry.set(field, *n),
            _ => continue,
        };
    }
    (budget, retry)
}

/// The run's cancellation token: carries the `--deadline-ms` deadline
/// when one was given, and is wired to SIGINT either way.
fn run_token(args: &Args) -> CancelToken {
    let token = match args.num("--deadline-ms") {
        Some(ms) => CancelToken::deadline_in(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    interrupt::install(&token);
    token
}

fn read(path: impl AsRef<Path>) -> Result<String, CliError> {
    let path = path.as_ref();
    fs::read_to_string(path).map_err(|e| input_err(format!("cannot read {}: {e}", path.display())))
}

/// The path in the first positional argument and the source it holds;
/// the error names `cmd` when there is none.
fn source<'a>(cmd: &str, args: &'a Args) -> Result<(&'a str, String), CliError> {
    let Some(path) = args.positional.first() else {
        return Err(usage_err(format!("{cmd} needs a source file")));
    };
    Ok((path, read(path)?))
}

fn parse(session: &Session, path: &str, source: &str) -> Result<Program, CliError> {
    session
        .parse(source)
        .map_err(|e| input_err(format!("{path}: {e}")))
}

/// The exit code of a prove run, given whether any qualifier has a
/// verdict and whether the run was interrupted: `stqc prove` and
/// `stqc call … prove` both exit with it. A refutation always wins; an
/// interruption outranks a crash or resource-out because those may be
/// artifacts of the truncated run.
fn prove_exit(has: impl Fn(Verdict) -> bool, interrupted: bool) -> ExitCode {
    if has(Verdict::Unsound) {
        ExitCode::from(EXIT_UNSOUND)
    } else if interrupted {
        ExitCode::from(EXIT_INTERRUPTED)
    } else if has(Verdict::Crashed) || has(Verdict::ResourceOut) {
        ExitCode::from(EXIT_CRASH)
    } else {
        ExitCode::SUCCESS
    }
}

// ----- subcommands -----

fn prove(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    let jobs = jobs(&args);
    let (budget, retry) = budget(&args);
    let cache_dir = args.text("--cache-dir");
    let deadline_ms = args.num("--deadline-ms");
    let cancel = run_token(&args);
    let cache = match cache_dir {
        Some(dir) => Some(
            ProofCache::at_dir(dir)
                .map_err(|e| input_err(format!("cannot open cache dir {dir}: {e}")))?,
        ),
        None => None,
    };
    let names: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let names = (!names.is_empty()).then_some(names.as_slice());
    let mut report = session
        .prove(names, budget, retry, jobs, cache.as_ref(), &cancel)
        .map_err(input_err)?;
    // Without --keep-going the report stops at the first crashed
    // qualifier; its totals then cover exactly the qualifiers reported.
    let first_crash = report
        .reports
        .iter()
        .position(|r| r.verdict == Verdict::Crashed)
        .filter(|_| !args.has("--keep-going"));
    if let Some(pos) = first_crash {
        eprintln!(
            "stqc: qualifier `{}` crashed; stopping (pass --keep-going to check the rest)",
            report.reports[pos].qualifier
        );
        report.reports.truncate(pos + 1);
        let SoundnessReport {
            reports, duration, ..
        } = report;
        report = SoundnessReport::new(reports, budget, retry, jobs, cache.as_ref(), duration);
    }
    // Persist even (especially) on an interrupted run: conclusive
    // verdicts reached before the stop are what lets a re-run with the
    // same --cache-dir resume instead of starting over.
    let mut persisted: Option<PersistOutcome> = None;
    if let Some(cache) = &cache {
        match cache.persist() {
            Ok(outcome) => persisted = Some(outcome),
            Err(e) => eprintln!("stqc: warning: could not persist the proof cache: {e}"),
        }
    }
    let interrupted = report.interrupted();
    let skipped = report.skipped_count();
    if args.has("--json") {
        let cache_doc = match &cache {
            Some(c) => {
                let (persist, persisted_entries) = match persisted {
                    Some(PersistOutcome::Skipped) => ("skipped", 0),
                    Some(PersistOutcome::Appended(n)) => ("appended", n),
                    Some(PersistOutcome::Compacted(n)) => ("compacted", n),
                    None => ("failed", 0),
                };
                with_lead(
                    [
                        ("dir", cache_dir.unwrap_or_default().into()),
                        ("persist", persist.into()),
                        ("persisted_entries", persisted_entries.into()),
                    ],
                    cache_json(c),
                )
            }
            None => Json::Null,
        };
        let doc = with_lead(
            [
                ("command", "prove".into()),
                ("budget", budget_json(&budget)),
                ("retry", retry_json(retry)),
                ("jobs", jobs.into()),
                ("deadline_ms", deadline_ms.into()),
            ],
            prove_json(&report, cache_doc),
        );
        println!("{doc}");
    } else {
        for r in &report.reports {
            print!("{r}");
            if args.has("--stats") {
                println!("  stats: {}", r.totals());
            }
        }
        if interrupted {
            eprintln!(
                "stqc: run interrupted: partial report ({skipped} obligation(s) skipped, \
                 {} stopped mid-search){}",
                report.cancelled_count(),
                if cache.is_some() {
                    "; conclusive verdicts were persisted — re-run with the same \
                     --cache-dir to resume"
                } else {
                    ""
                }
            );
        }
        if args.has("--stats") {
            println!("totals: {} (jobs={jobs})", report.totals);
            println!(
                "outcomes: {} timed out (wall clock), {} out of steps, {skipped} skipped",
                report.timed_out_count(),
                report.step_out_count(),
            );
            if let Some(c) = &cache {
                println!(
                    "cache: {} hit(s), {} miss(es), {} invalidation(s), {} entrie(s), \
                     {} persist skip(s)",
                    c.hits(),
                    c.misses(),
                    c.invalidations(),
                    c.len(),
                    c.persist_skips(),
                );
            }
        }
    }
    let has = |v: Verdict| report.reports.iter().any(|r| r.verdict == v);
    Ok(prove_exit(has, interrupted))
}

fn check(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    let (path, source) = source("check", &args)?;
    let (program, syntax_errors) = if args.has("--keep-going") {
        session.parse_resilient(&source)
    } else {
        (parse(&session, path, &source)?, Vec::new())
    };
    for e in &syntax_errors {
        eprintln!("{path}: {e}");
    }
    let options = CheckOptions {
        flow_sensitive: args.has("--flow-sensitive"),
    };
    let result = session.check_with(&program, options);
    if args.has("--json") {
        let doc = with_lead(
            [("command", "check".into()), ("file", path.into())],
            check_json(&result, &syntax_errors, &source),
        );
        println!("{doc}");
    } else {
        for d in result.diags.iter() {
            eprintln!("{path}:{}", d.render(&source));
        }
        println!(
            "{path}: {} dereference(s), {} annotation(s), {} cast(s), {} qualifier error(s)",
            result.stats.dereferences,
            result.stats.annotations,
            result.stats.casts,
            result.stats.qualifier_errors
        );
        if args.has("--stats") {
            println!(
                "{path}: {} expr(s) visited, {} case application(s), \
                 {} memo hit(s)/{} miss(es), {} restrict check(s), \
                 {} instrumented cast(s)",
                result.stats.exprs_visited,
                result.stats.case_applications,
                result.stats.memo_hits,
                result.stats.memo_misses,
                result.stats.restrict_checks,
                result.stats.casts_instrumented
            );
        }
    }
    Ok(if !syntax_errors.is_empty() {
        ExitCode::from(EXIT_INPUT)
    } else if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_UNSOUND)
    })
}

fn run(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    let ints = args.positional.get(1..).unwrap_or_default();
    let call_args = ints
        .iter()
        .map(|arg| {
            arg.parse()
                .map(stq_core::Value::Int)
                .map_err(|_| usage_err(format!("run: unexpected argument `{arg}`")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (path, source) = source("run", &args)?;
    let program = parse(&session, path, &source)?;
    let entry = args.text("--entry").unwrap_or("main");
    let out = session
        .run_instrumented(&program, entry, &call_args)
        .map_err(|e| {
            if e.is_entry_error() {
                input_err(format!("run: {e}"))
            } else {
                CliError {
                    code: EXIT_UNSOUND,
                    msg: format!("runtime error: {e}"),
                }
            }
        })?;
    print!("{}", out.stdout);
    if let Some(v) = out.ret {
        println!("=> {v}");
    }
    println!("({} run-time qualifier check(s) passed)", out.checks_passed);
    Ok(ExitCode::SUCCESS)
}

fn infer(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    let qual = args
        .text("--qual")
        .ok_or_else(|| usage_err("infer needs --qual NAME"))?;
    let (path, source) = source("infer", &args)?;
    let program = parse(&session, path, &source)?;
    let result = session
        .try_infer_annotations(&program, qual)
        .map_err(input_err)?;
    println!(
        "{} site(s) can carry `{qual}` ({} iteration(s)):",
        result.inferred.len(),
        result.iterations
    );
    for site in &result.inferred {
        println!("  + {site}");
    }
    for site in &result.rejected {
        println!("  - {site}");
    }
    Ok(ExitCode::SUCCESS)
}

fn show(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    match args.positional.first() {
        Some(name) => {
            let def = session
                .registry()
                .get_by_name(name)
                .ok_or_else(|| input_err(format!("unknown qualifier `{name}`")))?;
            print!("{}", stq_qualspec::def_to_source(def));
        }
        None => {
            for def in session.registry().iter() {
                print!("{}", stq_qualspec::def_to_source(def));
                println!();
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ----- fuzz -----

/// `stqc fuzz`: run a differential fuzzing campaign (see
/// `docs/testing.md`), or with `--replay DIR` re-run every `.c` witness
/// in a corpus directory through the oracle battery. Exit codes: 0 all
/// oracles agreed, 1 a divergence was found, 2 usage, 4 a host panic
/// escaped the pipeline.
fn fuzz(args: Args) -> Result<ExitCode, CliError> {
    use stq_fuzz::{run_fuzz_cancellable, FuzzConfig, Outcome};

    let mut config = FuzzConfig {
        count: 200,
        jobs: jobs(&args),
        ..FuzzConfig::default()
    };
    if let Some(n) = args.num("--seed") {
        config.seed = n;
    }
    if let Some(n) = args.num("--count") {
        config.count = n as usize;
    }
    if let Some(n) = args.num("--max-depth") {
        config.gen.max_depth = n.min(8) as u32;
    }
    let json = args.has("--json");
    let cancel = run_token(&args);

    if let Some(dir) = args.text("--replay") {
        return fuzz_replay(dir, json, &cancel);
    }

    let report = run_fuzz_cancellable(&config, &cancel);
    let mut panicked = false;
    if json {
        let failures = report.failures.iter().map(|f| {
            let (kind, detail, source) = match &f.outcome {
                Outcome::Diverged(d) => (d.oracle.to_string(), &d.detail, &d.source),
                Outcome::Panicked { message, source } => ("panic".to_owned(), message, source),
                Outcome::Pass => unreachable!("passes are not failures"),
            };
            Json::obj([
                ("index", f.index.into()),
                ("kind", kind.into()),
                ("detail", detail.as_str().into()),
                (
                    "mutations",
                    f.mutations.iter().map(String::as_str).collect(),
                ),
                ("source", source.as_str().into()),
            ])
        });
        let doc = Json::obj([
            ("command", "fuzz".into()),
            ("seed", config.seed.into()),
            ("count", config.count.into()),
            ("executed", report.executed.into()),
            ("passes", report.passes.into()),
            ("clean", report.clean.into()),
            ("mutated", report.mutated.into()),
            ("skipped", report.skipped.into()),
            ("interrupted", report.interrupted.into()),
            ("failures", failures.collect()),
        ]);
        println!("{doc}");
    } else {
        println!(
            "fuzz: seed {}, {} case(s): {} pass(es), {} clean, {} mutated, {} failure(s)",
            config.seed,
            report.executed,
            report.passes,
            report.clean,
            report.mutated,
            report.failures.len(),
        );
        if report.interrupted {
            eprintln!(
                "stqc: fuzz campaign interrupted at a case boundary: \
                 {} of {} case(s) never ran; the summary covers the executed prefix",
                report.skipped, config.count
            );
        }
    }
    for f in &report.failures {
        match &f.outcome {
            Outcome::Diverged(d) => {
                eprintln!(
                    "stqc: case {}: {} oracle diverged: {}\n--- minimized witness ---\n{}",
                    f.index, d.oracle, d.detail, d.source
                );
            }
            Outcome::Panicked { message, source } => {
                panicked = true;
                eprintln!(
                    "stqc: case {}: host panic: {message}\n--- witness ---\n{source}",
                    f.index
                );
            }
            Outcome::Pass => {}
        }
    }
    Ok(if panicked {
        ExitCode::from(EXIT_CRASH)
    } else if !report.failures.is_empty() {
        ExitCode::from(EXIT_UNSOUND)
    } else if report.interrupted {
        ExitCode::from(EXIT_INTERRUPTED)
    } else {
        ExitCode::SUCCESS
    })
}

/// Replays every `*.c` file under `dir` (sorted by name, so output order
/// is stable) through the oracle battery. The [`CancelToken`] is polled
/// between files: a fired token (Ctrl-C or `--deadline-ms`) ends the
/// replay at a case boundary with a partial summary and exit code 5.
fn fuzz_replay(dir: &str, json: bool, cancel: &CancelToken) -> Result<ExitCode, CliError> {
    use stq_fuzz::{replay_source, Outcome};

    let mut files: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect(),
        Err(e) => return Err(input_err(format!("cannot read {dir}: {e}"))),
    };
    files.sort();
    if files.is_empty() {
        return Err(input_err(format!("no .c files under {dir}")));
    }
    let mut diverged = 0usize;
    let mut panicked = 0usize;
    let mut replayed = 0usize;
    let mut rows = Vec::new();
    for path in &files {
        if cancel.should_stop() {
            break;
        }
        replayed += 1;
        let name = path.file_name().map_or_else(
            || path.display().to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        let result = replay_source(&read(path)?);
        let verdict = match &result.outcome {
            Outcome::Pass => "pass".to_owned(),
            Outcome::Diverged(d) => {
                diverged += 1;
                eprintln!("stqc: {name}: {} oracle diverged: {}", d.oracle, d.detail);
                format!("{} divergence", d.oracle)
            }
            Outcome::Panicked { message, .. } => {
                panicked += 1;
                eprintln!("stqc: {name}: host panic: {message}");
                "panic".to_owned()
            }
        };
        if json {
            rows.push(Json::obj([
                ("file", name.into()),
                ("verdict", verdict.into()),
                ("clean", result.clean.into()),
                ("casts", result.casts.into()),
            ]));
        } else {
            println!("{name}: {verdict}");
        }
    }
    let skipped = files.len() - replayed;
    if json {
        let doc = Json::obj([
            ("command", "fuzz-replay".into()),
            ("dir", dir.into()),
            ("cases", replayed.into()),
            ("divergences", diverged.into()),
            ("panics", panicked.into()),
            ("skipped", skipped.into()),
            ("interrupted", (skipped > 0).into()),
            ("results", Json::Arr(rows)),
        ]);
        println!("{doc}");
    } else {
        println!("replay: {replayed} case(s), {diverged} divergence(s), {panicked} panic(s)");
        if skipped > 0 {
            eprintln!(
                "stqc: replay interrupted: {skipped} of {} file(s) never ran",
                files.len()
            );
        }
    }
    Ok(if panicked > 0 {
        ExitCode::from(EXIT_CRASH)
    } else if diverged > 0 {
        ExitCode::from(EXIT_UNSOUND)
    } else if skipped > 0 {
        ExitCode::from(EXIT_INTERRUPTED)
    } else {
        ExitCode::SUCCESS
    })
}

fn row_json(row: &stq_corpus::tables::Row) -> Json {
    Json::obj(stq_corpus::tables::row_columns(row).into_iter().chain([
        ("check_time_ms", millis(row.check_time)),
        ("stats", check_stats_json(&row.stats)),
    ]))
}

fn tables(args: Args) -> Result<ExitCode, CliError> {
    let row = stq_corpus::tables::table1();
    let rows = stq_corpus::tables::table2();
    if args.has("--json") {
        let doc = Json::obj([
            ("command", "tables".into()),
            ("table1", row_json(&row)),
            ("table2", rows.iter().map(row_json).collect()),
        ]);
        println!("{doc}");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{}", stq_corpus::tables::render_table1(&row));
    println!("{}", stq_corpus::tables::render_table2(&rows));
    if args.has("--stats") {
        for r in std::iter::once(&row).chain(rows.iter()) {
            println!(
                "{}: {} expr(s) visited, {} case application(s), \
                 {} memo hit(s)/{} miss(es), {} restrict check(s)",
                r.program,
                r.stats.exprs_visited,
                r.stats.case_applications,
                r.stats.memo_hits,
                r.stats.memo_misses,
                r.stats.restrict_checks
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ----- checking as a service -----

/// Writes a small coordination file (`--pid-file`, `--addr-file`) via a
/// same-directory temp file plus `rename`, so a reader polling for it
/// only ever observes the file as absent or complete — never empty or
/// torn mid-write.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let mut tmp = target.to_path_buf();
    let name = target
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_owned());
    tmp.set_file_name(format!(".{name}.tmp.{}", std::process::id()));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, target).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// `stqc serve`: the resident checking daemon (see `docs/serving.md`).
/// `--deadline-ms` bounds the daemon's whole lifetime; SIGINT (or the
/// lapsed deadline) drains in-flight work cooperatively, persists the
/// cache, and exits 5. A client `shutdown` request exits 0.
fn serve(args: Args) -> Result<ExitCode, CliError> {
    let session = session(&args)?;
    let (socket, tcp) = (args.text("--socket"), args.text("--tcp"));
    let stdio = args.has("--stdio");
    if socket.is_none() && tcp.is_none() && !stdio {
        return Err(usage_err(
            "serve needs --socket PATH, --tcp HOST:PORT, or --stdio",
        ));
    }
    if stdio && (socket.is_some() || tcp.is_some()) {
        return Err(usage_err("--stdio excludes --socket and --tcp"));
    }
    let (budget, retry) = budget(&args);
    let defaults = stq_core::ServeConfig::default();
    let limit = |name, default| args.num(name).map_or(default, |n| n as usize);
    let cfg = stq_core::ServeConfig {
        jobs: jobs(&args),
        max_inflight: limit("--max-inflight", defaults.max_inflight),
        max_queue: limit("--max-queue", defaults.max_queue),
        cache_dir: args.text("--cache-dir").map(PathBuf::from),
        budget,
        retry,
        max_line_bytes: limit("--max-line-bytes", defaults.max_line_bytes),
        qual_files: args.texts("--quals").map(PathBuf::from).collect(),
    };
    let cancel = run_token(&args);
    let server = match stq_core::Server::new(session, cfg, cancel) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => return Err(input_err(format!("cannot start server: {e}"))),
    };
    // Bind every listener before publishing anything, so a daemon that
    // cannot start never overwrites a running daemon's `--pid-file`.
    // `--tcp 127.0.0.1:0` learns its kernel-assigned port here; it goes
    // to stderr and, for scripts, to `--addr-file`.
    #[cfg(unix)]
    let listeners = if stdio {
        None
    } else {
        Some(
            stq_core::server::Listeners::bind(socket.map(Path::new), tcp)
                .map_err(|e| input_err(format!("serve: {e}")))?,
        )
    };
    #[cfg(not(unix))]
    if !stdio {
        return Err(usage_err("--socket/--tcp require unix; use --stdio"));
    }
    if let Some(pid_file) = args.text("--pid-file") {
        write_atomic(pid_file, &format!("{}\n", std::process::id()))
            .map_err(|e| input_err(format!("cannot write {pid_file}: {e}")))?;
    }
    #[cfg(unix)]
    let kind = match listeners {
        None => server.run_stdio(),
        Some(listeners) => {
            let tcp = listeners.tcp_addr();
            if let Some(addr_file) = args.text("--addr-file") {
                let bound = tcp
                    .map(|a| a.to_string())
                    .or_else(|| socket.map(str::to_owned))
                    .unwrap_or_default();
                write_atomic(addr_file, &format!("{bound}\n"))
                    .map_err(|e| input_err(format!("cannot write {addr_file}: {e}")))?;
            }
            let endpoints: Vec<String> = socket
                .map(str::to_owned)
                .into_iter()
                .chain(tcp.map(|a| format!("tcp:{a}")))
                .collect();
            eprintln!("stqc: serving on {}", endpoints.join(" and "));
            server
                .run_multi(listeners)
                .map_err(|e| input_err(format!("serve: {e}")))?
        }
    };
    #[cfg(not(unix))]
    let kind = server.run_stdio();
    Ok(match kind {
        stq_core::ShutdownKind::Requested => ExitCode::SUCCESS,
        stq_core::ShutdownKind::Interrupted => ExitCode::from(EXIT_INTERRUPTED),
    })
}

/// `stqc call`: one request to a serve daemon over the self-healing
/// [`stq_core::Client`]. The raw attributed response line is printed to
/// stdout; the exit code mirrors the one-shot commands (see
/// `docs/serving.md` for the mapping). Every `--socket` and `--tcp`
/// joins the endpoint list in command-line order. By default the
/// historical thin behavior is preserved — one connect attempt, no
/// retries, no client-side deadline; `--connect-timeout-ms`,
/// `--retries`, and `--call-deadline-ms` opt into healing. An
/// unreachable daemon (or an exhausted budget with no attributed
/// answer) exits 6.
#[cfg(unix)]
fn call(args: Args) -> Result<ExitCode, CliError> {
    let endpoints: Vec<stq_core::Endpoint> = args
        .flags
        .iter()
        .filter_map(|(flag, value)| match (flag.name, value) {
            ("--socket", Value::Text(path)) => Some(stq_core::Endpoint::Unix(path.into())),
            ("--tcp", Value::Text(addr)) => Some(stq_core::Endpoint::Tcp(addr.clone())),
            _ => None,
        })
        .collect();
    if endpoints.is_empty() {
        return Err(usage_err(
            "call needs at least one of --socket PATH or --tcp HOST:PORT",
        ));
    }
    let tried = endpoints
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let Some(method) = args.positional.first() else {
        return Err(usage_err(
            "call needs a METHOD (check, prove, reload, stats, health, shutdown)",
        ));
    };
    let params = match args.positional.get(1) {
        Some(raw) => match Json::parse(raw) {
            Ok(p @ Json::Obj(_)) => Some(p),
            Ok(_) => return Err(usage_err("PARAMS must be a JSON object")),
            Err(e) => return Err(usage_err(format!("PARAMS is not valid JSON: {e}"))),
        },
        None => None,
    };
    let mut client = stq_core::Client::new(stq_core::ClientConfig {
        endpoints,
        connect_timeout: Duration::from_millis(args.num("--connect-timeout-ms").unwrap_or(0)),
        call_deadline: args.num("--call-deadline-ms").map(Duration::from_millis),
        max_retries: args
            .num("--retries")
            .map_or(0, |n| n.min(u64::from(u32::MAX)) as u32),
        ..stq_core::ClientConfig::default()
    });
    let outcome = match client.call(method, params.as_ref(), args.num("--deadline-ms")) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("stqc: call: {e}");
            eprintln!(
                "stqc: is the daemon running? endpoint(s) tried: {tried}; start one with \
                 `stqc serve --socket PATH` (or `stqc serve --tcp HOST:PORT`)"
            );
            return Ok(ExitCode::from(EXIT_UNREACHABLE));
        }
    };
    if args.has("--json") {
        let s = client.stats();
        let counters = Json::obj([
            ("retries", s.retries.into()),
            ("reconnects", s.reconnects.into()),
            ("resends", s.resends.into()),
            ("failovers", s.failovers.into()),
            ("endpoints_tried", s.endpoints_tried.into()),
            ("alien_dropped", s.alien_dropped.into()),
            ("corrupt_lines", s.corrupt_lines.into()),
        ]);
        let doc = Json::obj([("response", outcome.doc.clone()), ("client", counters)]);
        println!("{doc}");
    } else {
        println!("{}", outcome.raw);
    }
    let doc = outcome.doc;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("invalid");
        return Ok(ExitCode::from(match code {
            "input" => EXIT_INPUT,
            "overloaded" => EXIT_CRASH,
            "shutting-down" => {
                // The whole endpoint list was exhausted while every
                // daemon drained: nothing is left to answer, which is
                // the unreachable contract (exit 6), not a generic 4.
                eprintln!(
                    "stqc: call: every endpoint is shutting down; endpoint(s) tried: {tried}"
                );
                EXIT_UNREACHABLE
            }
            _ => EXIT_USAGE,
        }));
    }
    let result = doc.get("result");
    let field = |name: &str| result.and_then(|r| r.get(name));
    Ok(match method.as_str() {
        "prove" => {
            let qualifiers = field("qualifiers")
                .and_then(Json::as_array)
                .unwrap_or_default();
            let has = |v: Verdict| {
                qualifiers
                    .iter()
                    .any(|q| q.get("verdict").and_then(Json::as_str) == Some(verdict_slug(v)))
            };
            prove_exit(
                has,
                field("interrupted").and_then(Json::as_bool) == Some(true),
            )
        }
        "check" if field("clean").and_then(Json::as_bool) == Some(false) => {
            ExitCode::from(EXIT_UNSOUND)
        }
        _ => ExitCode::SUCCESS,
    })
}

#[cfg(not(unix))]
fn call(_args: Args) -> Result<ExitCode, CliError> {
    Err(usage_err("call requires unix sockets"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` words of `text`, trimmed of trailing punctuation.
    fn flag_words(text: &str) -> std::collections::BTreeSet<&str> {
        text.split_whitespace()
            .map(|w| w.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect()
    }

    #[test]
    fn help_documents_exactly_the_flag_table() {
        let mut documented = flag_words(HELP);
        assert!(documented.remove("--help"), "HELP names `--help`");
        let table: std::collections::BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
        assert_eq!(table.len(), FLAGS.len(), "a flag is listed twice");
        assert_eq!(documented, table);
    }

    #[test]
    fn every_flag_belongs_to_a_subcommand_and_sets_a_known_field() {
        for flag in &FLAGS {
            assert!(
                flag.commands
                    .split(' ')
                    .all(|cmd| COMMANDS.iter().any(|(name, ..)| *name == cmd)),
                "{}",
                flag.name
            );
            match flag.takes {
                Limit(field) => assert!(Budget::default().set(field, 1), "{field}"),
                Retry(field) => assert!(RetryPolicy::none().set(field, 1), "{field}"),
                _ => {}
            }
        }
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn scan_keeps_every_value_in_order_and_checks_each() {
        let args = scan(
            "call",
            2,
            &words("--tcp A --socket B --retries 1 --retries 2 prove {}"),
        )
        .ok()
        .expect("a valid call line");
        let endpoints: Vec<&str> = args
            .flags
            .iter()
            .filter_map(|(_, v)| match v {
                Value::Text(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(endpoints, ["A", "B"]);
        assert_eq!(args.num("--retries"), Some(2));
        assert_eq!(args.positional, ["prove", "{}"]);
        for (cmd, line, msg) in [
            ("check", "--jobs 1 f.c", "unknown flag `--jobs`"),
            ("prove", "--max-rounds", "--max-rounds needs a number"),
            ("prove", "--retry lots", "--retry: `lots` is not a number"),
            ("serve", "--socket", "--socket needs a path"),
            (
                "call",
                "--socket s m {} junk",
                "call: unexpected argument `junk`",
            ),
            ("fuzz", "x --bogus", "unknown flag `--bogus`"),
        ] {
            let err = scan(cmd, usize::from(cmd == "call") * 2, &words(line))
                .err()
                .expect("a usage error");
            assert_eq!(err.code, EXIT_USAGE);
            assert!(err.msg.starts_with(msg), "{cmd} {line}: {}", err.msg);
        }
    }
}
