//! `stqc` — the semantic-type-qualifiers command-line tool.
//!
//! ```text
//! stqc prove [--quals FILE] [--stats] [--json] [BUDGET..] [NAME..]
//!                                        prove qualifier soundness
//! stqc check [--quals FILE] [--flow-sensitive] [--stats] [--json] FILE.c
//!                                        qualifier-check a program
//! stqc run [--entry NAME] FILE.c [INT..] instrument and execute
//! stqc infer --qual NAME FILE.c          infer annotations
//! stqc tables [--stats] [--json]         regenerate Tables 1 and 2
//! stqc show [--quals FILE] [NAME]        print qualifier definitions
//! stqc fuzz [--seed N] [--count N] [--jobs N] [--max-depth N] [--json]
//!           [--deadline-ms N] [--replay DIR]
//!                                        differential fuzzing
//! stqc serve (--socket PATH | --tcp HOST:PORT | --stdio) [--jobs N]
//!           [--cache-dir DIR] [--addr-file PATH]
//!           [--quals FILE] [--max-inflight N] [--max-queue N]
//!           [--pid-file PATH] [--max-line-bytes N] [BUDGET..]
//!                                        checking-as-a-service daemon
//! stqc call (--socket PATH | --tcp HOST:PORT)..
//!           [--deadline-ms N] [--connect-timeout-ms N]
//!           [--call-deadline-ms N] [--retries N] [--json] METHOD [PARAMS]
//!                                        one request to a serve daemon
//! ```
//!
//! Budget flags (`prove` and `serve`) bound the prover so a
//! pathological obligation terminates with a `ResourceOut` verdict
//! instead of diverging: `--max-rounds N`, `--max-instantiations N`,
//! `--max-decisions N`, `--max-clauses N`, `--timeout-ms N`. A flag the
//! subcommand does not use is a usage error, never silently ignored.
//!
//! Performance flags (see `docs/performance.md`):
//!
//! * `--jobs N` proves obligations on up to `N` worker threads
//!   (`0` or omitted = available parallelism; verdicts and report order
//!   are independent of `N`). When a fault-injection flag is present and
//!   `--jobs` is not, the run is single-threaded so the faulted solver
//!   entry is deterministic.
//! * `--cache-dir DIR` keeps a fingerprinted proof cache in `DIR`:
//!   unchanged obligations (same rules, invariant, budget, retry ladder,
//!   and prover version) are replayed from the cache instead of
//!   re-proved.
//!
//! Robustness flags (see `docs/robustness.md`):
//!
//! * `--retry N` re-runs `ResourceOut` obligations up to `N` attempts
//!   under geometrically escalated budgets (`--retry-factor F`,
//!   default 2);
//! * `--deadline-ms N` bounds the *whole run* (`prove` and `fuzz`):
//!   when the deadline lapses, in-flight work stops at the next
//!   safepoint, unreached obligations/cases are marked skipped, and the
//!   partial report is emitted with exit code 5. `--timeout-ms` by
//!   contrast is a per-obligation prover budget (and part of the proof-
//!   cache key; the run deadline is not, so an interrupted run resumes
//!   from the same cache).
//! * Ctrl-C (SIGINT) requests the same cooperative stop: conclusive
//!   verdicts reached so far are reported, the proof cache is persisted,
//!   and the exit code is 5. A second Ctrl-C exits immediately (130).
//! * `--keep-going` continues past crashed qualifiers (`prove`) and
//!   past syntax errors (`check`, via the error-resilient parser);
//! * `--fault-panic-at N` / `--fault-resource-out-at N` /
//!   `--fault-theory-at N` (`prove` only) inject a deterministic fault
//!   at the `N`th solver entry — testing hooks for the fault-injection
//!   harness.
//!
//! Exit codes are structured: 0 success, 1 unsound/refuted (or
//! qualifier errors from `check`), 2 usage errors, 3 input errors
//! (unreadable or unparseable files), 4 a proof attempt crashed or ran
//! out of budget even after retries, 5 the run was interrupted
//! (deadline or Ctrl-C) and the report is partial.
//!
//! `--stats` prints prover/checker telemetry; `--json` switches the
//! report to a machine-readable JSON document on stdout (the schema is
//! documented in `docs/telemetry.md`). Qualifier definitions from
//! `--quals` are added on top of the paper's builtin library.

use std::fs;
use std::process::ExitCode;
use std::time::Duration;
use stq_core::reportjson::{
    budget_json, cache_json, check_json, check_stats_json, millis, prove_json, retry_json,
    with_lead,
};
use stq_core::{
    fault, Budget, CancelToken, CheckOptions, FaultKind, FaultPlan, PersistOutcome, ProofCache,
    RetryPolicy, Session, SoundnessReport, Value, Verdict,
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("prove") => prove(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("infer") => infer(&args[1..]),
        Some("tables") => tables(&args[1..]),
        Some("show") => show(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("call") => call(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("stqc: unknown subcommand `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
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

fn fail(e: CliError) -> ExitCode {
    eprintln!("stqc: {}", e.msg);
    ExitCode::from(e.code)
}

/// Everything the option scan produces: the session (builtins plus any
/// `--quals` definitions), positional arguments, bare `--flag`s, the
/// prover budget, and the retry ladder.
struct Cli {
    session: Session,
    rest: Vec<String>,
    flags: Vec<String>,
    /// The NAME of the subcommand's `--entry` (`run`) or `--qual`
    /// (`infer`) flag.
    name: Option<String>,
    /// `--keep-going`: continue past crashed qualifiers (`prove`) and
    /// syntax errors (`check`, and `--quals` files everywhere).
    keep_going: bool,
    budget: Budget,
    retry: RetryPolicy,
    jobs: usize,
    cache_dir: Option<String>,
    deadline_ms: Option<u64>,
    /// The `--quals` files, in order — what `stqc serve` hands the
    /// server as its reloadable library list.
    qual_files: Vec<std::path::PathBuf>,
}

/// A `--flag` the subcommand does not take: a usage error naming it, so
/// a misspelled flag fails instead of being silently ignored.
fn unknown_flag(flag: &str) -> CliError {
    usage_err(format!(
        "unknown flag `{flag}` (run `stqc --help` for the flag reference)"
    ))
}

/// The valued flags `prove` and `serve` share: the proof cache, the
/// five budget flags, the run deadline, the retry ladder and workers.
const PROVER_FLAGS: [&str; 10] = [
    "--cache-dir",
    "--max-rounds",
    "--max-instantiations",
    "--max-decisions",
    "--max-clauses",
    "--timeout-ms",
    "--deadline-ms",
    "--retry",
    "--retry-factor",
    "--jobs",
];

/// Builds a session from builtins plus any `--quals FILE` definitions
/// and scans the common option set. `own` lists every other flag the
/// subcommand takes: bare ones, the valued ones it uses, `--entry NAME`
/// and `--qual NAME`. Any other `--flag` is a usage error, as is a
/// positional argument past the first `max_args`. Fault-injection flags
/// install their [`FaultPlan`] for this thread as a side effect.
fn session_from(
    cmd: &str,
    args: &[String],
    own: &[&str],
    max_args: usize,
) -> Result<Cli, CliError> {
    let keep_going = args.iter().any(|a| a == "--keep-going");
    let mut session = Session::with_builtins();
    let mut rest = Vec::new();
    let mut flags = Vec::new();
    let mut name: Option<String> = None;
    let mut budget = Budget::default();
    let mut retry = RetryPolicy::none();
    let mut plan = FaultPlan::new();
    let mut jobs: Option<u64> = None;
    let mut cache_dir: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut qual_files: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quals" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--quals needs a file"))?;
                qual_files.push(std::path::PathBuf::from(path));
                let src = fs::read_to_string(path)
                    .map_err(|e| input_err(format!("cannot read {path}: {e}")))?;
                if keep_going {
                    let (_, errors) = session.define_qualifiers_resilient(&src);
                    for e in &errors {
                        eprintln!("stqc: {path}: {e}");
                    }
                } else {
                    session
                        .define_qualifiers(&src)
                        .map_err(|e| input_err(format!("{path}: {e}")))?;
                }
                i += 2;
            }
            "--keep-going" => i += 1,
            flag if !own.contains(&flag) && flag.starts_with("--") => {
                return Err(unknown_flag(flag));
            }
            "--cache-dir" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--cache-dir needs a directory"))?;
                cache_dir = Some(path.clone());
                i += 2;
            }
            flag @ ("--max-rounds" | "--max-instantiations" | "--max-decisions"
            | "--max-clauses" | "--timeout-ms" | "--deadline-ms" | "--retry" | "--retry-factor"
            | "--jobs" | "--fault-panic-at" | "--fault-resource-out-at" | "--fault-theory-at") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err(format!("{flag} needs a number")))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| usage_err(format!("{flag}: `{value}` is not a number")))?;
                match flag {
                    "--max-rounds" => budget.max_rounds = n as usize,
                    "--max-instantiations" => budget.max_instantiations = n as usize,
                    "--max-clauses" => budget.max_clauses = n as usize,
                    "--max-decisions" => budget.max_decisions = n,
                    "--timeout-ms" => budget.timeout = Some(Duration::from_millis(n)),
                    "--deadline-ms" => deadline_ms = Some(n),
                    "--retry" => retry.max_attempts = n.min(u64::from(u32::MAX)) as u32,
                    "--retry-factor" => retry.factor = n.min(u64::from(u32::MAX)) as u32,
                    "--jobs" => jobs = Some(n),
                    "--fault-panic-at" => plan = plan.inject(n, FaultKind::Panic),
                    "--fault-resource-out-at" => plan = plan.inject(n, FaultKind::ResourceOut),
                    _ => plan = plan.inject(n, FaultKind::TheoryError),
                }
                i += 2;
            }
            flag @ ("--entry" | "--qual") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err(format!("{flag} needs a name")))?;
                name.get_or_insert_with(|| value.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => {
                flags.push(flag.to_owned());
                i += 1;
            }
            other => {
                rest.push(other.to_owned());
                i += 1;
            }
        }
    }
    if let Some(extra) = rest.get(max_args) {
        return Err(usage_err(format!("{cmd}: unexpected argument `{extra}`")));
    }
    let fault_injected = !plan.is_empty();
    if fault_injected {
        fault::install(plan);
    }
    // `--jobs 0` (or no flag) means "auto": the machine's available
    // parallelism — except under fault injection, where an unforced run
    // stays single-threaded so the faulted solver entry is the Nth
    // obligation deterministically, not whichever a worker reaches.
    let jobs = match jobs {
        Some(n) if n >= 1 => n.min(256) as usize,
        Some(_) => stq_util::pool::default_jobs(),
        None if fault_injected => 1,
        None => stq_util::pool::default_jobs(),
    };
    let wf = session.check_well_formed();
    if wf.has_errors() {
        return Err(input_err(format!("ill-formed qualifier definitions:\n{wf}")));
    }
    Ok(Cli {
        session,
        rest,
        flags,
        name,
        keep_going,
        budget,
        retry,
        jobs,
        cache_dir,
        deadline_ms,
        qual_files,
    })
}

/// The run's cancellation token: carries the `--deadline-ms` deadline
/// when one was given, and is wired to SIGINT either way.
fn run_token(deadline_ms: Option<u64>) -> CancelToken {
    let token = match deadline_ms {
        Some(ms) => CancelToken::deadline_in(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    interrupt::install(&token);
    token
}

fn has_flag(flags: &[String], name: &str) -> bool {
    flags.iter().any(|f| f == name)
}

// ----- subcommands -----

fn prove(args: &[String]) -> ExitCode {
    let faults = [
        "--fault-panic-at",
        "--fault-resource-out-at",
        "--fault-theory-at",
    ];
    let own = [&PROVER_FLAGS[..], &faults, &["--stats", "--json"]].concat();
    let Cli {
        session,
        rest,
        flags,
        keep_going,
        budget,
        retry,
        jobs,
        cache_dir,
        deadline_ms,
        ..
    } = match session_from("prove", args, &own, usize::MAX) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let cancel = run_token(deadline_ms);
    let cache = match &cache_dir {
        Some(dir) => match ProofCache::at_dir(dir) {
            Ok(c) => Some(c),
            Err(e) => return fail(input_err(format!("cannot open cache dir {dir}: {e}"))),
        },
        None => None,
    };
    let names: Vec<&str> = rest.iter().map(String::as_str).collect();
    let names = (!names.is_empty()).then_some(names.as_slice());
    let mut report = match session.prove(names, budget, retry, jobs, cache.as_ref(), &cancel) {
        Ok(report) => report,
        Err(e) => return fail(input_err(e)),
    };
    // Without --keep-going the report stops at the first crashed
    // qualifier; its totals then cover exactly the qualifiers reported.
    let first_crash = report
        .reports
        .iter()
        .position(|r| r.verdict == Verdict::Crashed)
        .filter(|_| !keep_going);
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
    if has_flag(&flags, "--json") {
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
            if has_flag(&flags, "--stats") {
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
        if has_flag(&flags, "--stats") {
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
    // Precedence: a definite refutation always wins; an interruption
    // outranks crash/resource-out because those may simply be artifacts
    // of the truncated run.
    let verdict = |v: Verdict| report.reports.iter().any(|r| r.verdict == v);
    if verdict(Verdict::Unsound) {
        ExitCode::from(EXIT_UNSOUND)
    } else if interrupted {
        ExitCode::from(EXIT_INTERRUPTED)
    } else if verdict(Verdict::Crashed) || verdict(Verdict::ResourceOut) {
        ExitCode::from(EXIT_CRASH)
    } else {
        ExitCode::SUCCESS
    }
}

fn check(args: &[String]) -> ExitCode {
    let Cli {
        session,
        rest,
        flags,
        keep_going,
        ..
    } = match session_from("check", args, &["--stats", "--json", "--flow-sensitive"], 1) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let Some(path) = rest.first() else {
        return fail(usage_err("check needs a source file"));
    };
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(input_err(format!("cannot read {path}: {e}"))),
    };
    let (program, syntax_errors) = if keep_going {
        session.parse_resilient(&source)
    } else {
        match session.parse(&source) {
            Ok(p) => (p, Vec::new()),
            Err(e) => return fail(input_err(format!("{path}: {e}"))),
        }
    };
    for e in &syntax_errors {
        eprintln!("{path}: {e}");
    }
    let options = CheckOptions {
        flow_sensitive: has_flag(&flags, "--flow-sensitive"),
    };
    let result = session.check_with(&program, options);
    if has_flag(&flags, "--json") {
        let doc = with_lead(
            [("command", "check".into()), ("file", path.as_str().into())],
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
        if has_flag(&flags, "--stats") {
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
    if !syntax_errors.is_empty() {
        ExitCode::from(EXIT_INPUT)
    } else if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_UNSOUND)
    }
}

fn run(args: &[String]) -> ExitCode {
    let cli = match session_from("run", args, &["--entry"], usize::MAX) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let Some((path, ints)) = cli.rest.split_first() else {
        return fail(usage_err("run needs a source file"));
    };
    let mut call_args = Vec::with_capacity(ints.len());
    for arg in ints {
        match arg.parse::<i64>() {
            Ok(n) => call_args.push(Value::Int(n)),
            Err(_) => return fail(usage_err(format!("run: unexpected argument `{arg}`"))),
        }
    }
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(input_err(format!("cannot read {path}: {e}"))),
    };
    let program = match cli.session.parse(&source) {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("{path}: {e}"))),
    };
    let entry = cli.name.as_deref().unwrap_or("main");
    match cli.session.run_instrumented(&program, entry, &call_args) {
        Ok(out) => {
            print!("{}", out.stdout);
            if let Some(v) = out.ret {
                println!("=> {v}");
            }
            println!("({} run-time qualifier check(s) passed)", out.checks_passed);
            ExitCode::SUCCESS
        }
        Err(e) => fail(CliError {
            code: EXIT_UNSOUND,
            msg: format!("runtime error: {e}"),
        }),
    }
}

fn infer(args: &[String]) -> ExitCode {
    let cli = match session_from("infer", args, &["--qual"], 1) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let Some(qual) = &cli.name else {
        return fail(usage_err("infer needs --qual NAME"));
    };
    let Some(path) = cli.rest.first() else {
        return fail(usage_err("infer needs a source file"));
    };
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(input_err(format!("cannot read {path}: {e}"))),
    };
    let program = match cli.session.parse(&source) {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("{path}: {e}"))),
    };
    let result = match cli.session.try_infer_annotations(&program, qual) {
        Ok(r) => r,
        Err(e) => return fail(input_err(e)),
    };
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
    ExitCode::SUCCESS
}

fn show(args: &[String]) -> ExitCode {
    let Cli { session, rest, .. } = match session_from("show", args, &[], 1) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    match rest.first() {
        Some(name) => match session.registry().get_by_name(name) {
            Some(def) => {
                print!("{}", stq_qualspec::def_to_source(def));
                ExitCode::SUCCESS
            }
            None => fail(input_err(format!("unknown qualifier `{name}`"))),
        },
        None => {
            for def in session.registry().iter() {
                print!("{}", stq_qualspec::def_to_source(def));
                println!();
            }
            ExitCode::SUCCESS
        }
    }
}

// ----- fuzz -----

/// `stqc fuzz`: run a differential fuzzing campaign (see
/// `docs/testing.md`), or with `--replay DIR` re-run every `.c` witness
/// in a corpus directory through the oracle battery. Exit codes: 0 all
/// oracles agreed, 1 a divergence was found, 2 usage, 4 a host panic
/// escaped the pipeline.
fn fuzz(args: &[String]) -> ExitCode {
    use stq_fuzz::{run_fuzz_cancellable, FuzzConfig, Outcome};

    let mut config = FuzzConfig {
        count: 200,
        jobs: stq_util::pool::default_jobs(),
        ..FuzzConfig::default()
    };
    let mut json = false;
    let mut replay_dir: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--replay" => {
                let Some(dir) = args.get(i + 1) else {
                    return fail(usage_err("--replay needs a directory"));
                };
                replay_dir = Some(dir.clone());
                i += 2;
            }
            flag @ ("--seed" | "--count" | "--jobs" | "--max-depth" | "--deadline-ms") => {
                let Some(value) = args.get(i + 1) else {
                    return fail(usage_err(format!("{flag} needs a number")));
                };
                let Ok(n) = value.parse::<u64>() else {
                    return fail(usage_err(format!("{flag}: `{value}` is not a number")));
                };
                match flag {
                    "--seed" => config.seed = n,
                    "--count" => config.count = n as usize,
                    "--jobs" => {
                        config.jobs = if n == 0 {
                            stq_util::pool::default_jobs()
                        } else {
                            n.min(256) as usize
                        }
                    }
                    "--deadline-ms" => deadline_ms = Some(n),
                    _ => config.gen.max_depth = n.min(8) as u32,
                }
                i += 2;
            }
            other => {
                return fail(usage_err(format!("fuzz: unknown argument `{other}`")));
            }
        }
    }
    let cancel = run_token(deadline_ms);

    if let Some(dir) = replay_dir {
        return fuzz_replay(&dir, json, &cancel);
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
    if panicked {
        ExitCode::from(EXIT_CRASH)
    } else if !report.failures.is_empty() {
        ExitCode::from(EXIT_UNSOUND)
    } else if report.interrupted {
        ExitCode::from(EXIT_INTERRUPTED)
    } else {
        ExitCode::SUCCESS
    }
}

/// Replays every `*.c` file under `dir` (sorted by name, so output order
/// is stable) through the oracle battery. The [`CancelToken`] is polled
/// between files: a fired token (Ctrl-C or `--deadline-ms`) ends the
/// replay at a case boundary with a partial summary and exit code 5.
fn fuzz_replay(dir: &str, json: bool, cancel: &CancelToken) -> ExitCode {
    use stq_fuzz::{replay_source, Outcome};

    let mut files: Vec<std::path::PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .collect(),
        Err(e) => return fail(input_err(format!("cannot read {dir}: {e}"))),
    };
    files.sort();
    if files.is_empty() {
        return fail(input_err(format!("no .c files under {dir}")));
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
        let source = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => return fail(input_err(format!("cannot read {}: {e}", path.display()))),
        };
        let result = replay_source(&source);
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
        println!(
            "replay: {replayed} case(s), {diverged} divergence(s), {panicked} panic(s)"
        );
        if skipped > 0 {
            eprintln!(
                "stqc: replay interrupted: {skipped} of {} file(s) never ran",
                files.len()
            );
        }
    }
    if panicked > 0 {
        ExitCode::from(EXIT_CRASH)
    } else if diverged > 0 {
        ExitCode::from(EXIT_UNSOUND)
    } else if skipped > 0 {
        ExitCode::from(EXIT_INTERRUPTED)
    } else {
        ExitCode::SUCCESS
    }
}

fn row_json(row: &stq_corpus::tables::Row) -> Json {
    Json::obj(stq_corpus::tables::row_columns(row).into_iter().chain([
        ("check_time_ms", millis(row.check_time)),
        ("stats", check_stats_json(&row.stats)),
    ]))
}

fn tables(args: &[String]) -> ExitCode {
    let flags: Vec<String> = args
        .iter()
        .filter(|a| a.starts_with("--"))
        .cloned()
        .collect();
    if let Some(flag) = flags
        .iter()
        .find(|f| !matches!(f.as_str(), "--json" | "--stats"))
    {
        return fail(unknown_flag(flag));
    }
    if let Some(extra) = args.iter().find(|a| !a.starts_with("--")) {
        return fail(usage_err(format!("tables: unexpected argument `{extra}`")));
    }
    let row = stq_corpus::tables::table1();
    let rows = stq_corpus::tables::table2();
    if has_flag(&flags, "--json") {
        let doc = Json::obj([
            ("command", "tables".into()),
            ("table1", row_json(&row)),
            ("table2", rows.iter().map(row_json).collect()),
        ]);
        println!("{doc}");
        return ExitCode::SUCCESS;
    }
    println!("{}", stq_corpus::tables::render_table1(&row));
    println!("{}", stq_corpus::tables::render_table2(&rows));
    if has_flag(&flags, "--stats") {
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
    ExitCode::SUCCESS
}

// ----- checking as a service -----

/// Strips serve-specific flags (`--socket PATH`, `--tcp HOST:PORT`,
/// `--addr-file PATH`, `--stdio`, `--max-inflight N`, `--max-queue N`,
/// `--pid-file PATH`, …) out of `args` so the remainder can go through
/// the common [`session_from`] scan.
struct ServeArgs {
    socket: Option<String>,
    tcp: Option<String>,
    addr_file: Option<String>,
    stdio: bool,
    max_inflight: usize,
    max_queue: usize,
    pid_file: Option<String>,
    max_line_bytes: usize,
    rest: Vec<String>,
}

fn split_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs {
        socket: None,
        tcp: None,
        addr_file: None,
        stdio: false,
        max_inflight: 32,
        max_queue: 1024,
        pid_file: None,
        max_line_bytes: 1 << 20,
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--socket needs a path"))?;
                out.socket = Some(path.clone());
                i += 2;
            }
            "--tcp" => {
                let addr = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--tcp needs HOST:PORT"))?;
                out.tcp = Some(addr.clone());
                i += 2;
            }
            "--addr-file" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--addr-file needs a path"))?;
                out.addr_file = Some(path.clone());
                i += 2;
            }
            "--stdio" => {
                out.stdio = true;
                i += 1;
            }
            "--pid-file" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--pid-file needs a path"))?;
                out.pid_file = Some(path.clone());
                i += 2;
            }
            flag @ ("--max-inflight" | "--max-queue" | "--max-line-bytes") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err(format!("{flag} needs a number")))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| usage_err(format!("{flag}: `{value}` is not a number")))?;
                match flag {
                    "--max-inflight" => out.max_inflight = n as usize,
                    "--max-queue" => out.max_queue = n as usize,
                    _ => out.max_line_bytes = n as usize,
                }
                i += 2;
            }
            other => {
                out.rest.push(other.to_owned());
                i += 1;
            }
        }
    }
    Ok(out)
}

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
fn serve(args: &[String]) -> ExitCode {
    let serve_args = match split_serve_args(args) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    let Cli {
        session,
        budget,
        retry,
        jobs,
        cache_dir,
        deadline_ms,
        qual_files,
        ..
    } = match session_from("serve", &serve_args.rest, &PROVER_FLAGS, 0) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    if serve_args.socket.is_none() && serve_args.tcp.is_none() && !serve_args.stdio {
        return fail(usage_err("serve needs --socket PATH, --tcp HOST:PORT, or --stdio"));
    }
    if serve_args.stdio && (serve_args.socket.is_some() || serve_args.tcp.is_some()) {
        return fail(usage_err("--stdio excludes --socket and --tcp"));
    }
    let cancel = run_token(deadline_ms);
    let cfg = stq_core::ServeConfig {
        jobs,
        max_inflight: serve_args.max_inflight,
        max_queue: serve_args.max_queue,
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        budget,
        retry,
        max_line_bytes: serve_args.max_line_bytes,
        qual_files,
    };
    let server = match stq_core::Server::new(session, cfg, cancel) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => return fail(input_err(format!("cannot start server: {e}"))),
    };
    // Bind every listener before publishing anything, so a daemon that
    // cannot start never overwrites a running daemon's `--pid-file`.
    // `--tcp 127.0.0.1:0` learns its kernel-assigned port here; it goes
    // to stderr and, for scripts, to `--addr-file`.
    #[cfg(unix)]
    let listeners = if serve_args.stdio {
        None
    } else {
        let socket = serve_args.socket.as_deref().map(std::path::Path::new);
        match stq_core::server::Listeners::bind(socket, serve_args.tcp.as_deref()) {
            Ok(l) => Some(l),
            Err(e) => return fail(input_err(format!("serve: {e}"))),
        }
    };
    #[cfg(not(unix))]
    if !serve_args.stdio {
        return fail(usage_err("--socket/--tcp require unix; use --stdio"));
    }
    if let Some(pid_file) = &serve_args.pid_file {
        if let Err(e) = write_atomic(pid_file, &format!("{}\n", std::process::id())) {
            return fail(input_err(format!("cannot write {pid_file}: {e}")));
        }
    }
    #[cfg(unix)]
    let kind = match listeners {
        None => server.run_stdio(),
        Some(listeners) => {
            let tcp = listeners.tcp_addr();
            if let Some(addr_file) = &serve_args.addr_file {
                let bound = tcp
                    .map(|a| a.to_string())
                    .or_else(|| serve_args.socket.clone())
                    .unwrap_or_default();
                if let Err(e) = write_atomic(addr_file, &format!("{bound}\n")) {
                    return fail(input_err(format!("cannot write {addr_file}: {e}")));
                }
            }
            let endpoints: Vec<String> = serve_args
                .socket
                .iter()
                .cloned()
                .chain(tcp.map(|a| format!("tcp:{a}")))
                .collect();
            eprintln!("stqc: serving on {}", endpoints.join(" and "));
            match server.run_multi(listeners) {
                Ok(kind) => kind,
                Err(e) => return fail(input_err(format!("serve: {e}"))),
            }
        }
    };
    #[cfg(not(unix))]
    let kind = server.run_stdio();
    match kind {
        stq_core::ShutdownKind::Requested => ExitCode::SUCCESS,
        stq_core::ShutdownKind::Interrupted => ExitCode::from(EXIT_INTERRUPTED),
    }
}

/// `stqc call`: one request to a serve daemon over the self-healing
/// [`stq_core::Client`]. The raw attributed response line is printed to
/// stdout; the exit code mirrors the one-shot commands (see
/// `docs/serving.md` for the mapping). By default the historical thin
/// behavior is preserved — one connect attempt, no retries, no
/// client-side deadline; `--connect-timeout-ms`, `--retries`, and
/// `--call-deadline-ms` opt into healing. An unreachable daemon (or an
/// exhausted budget with no attributed answer) exits 6.
#[cfg(unix)]
fn call(args: &[String]) -> ExitCode {
    let mut endpoints: Vec<stq_core::Endpoint> = Vec::new();
    let mut deadline_ms: Option<u64> = None;
    let mut connect_timeout_ms = 0u64;
    let mut call_deadline_ms: Option<u64> = None;
    let mut retries = 0u32;
    let mut json_out = false;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => {
                let Some(path) = args.get(i + 1) else {
                    return fail(usage_err("--socket needs a path"));
                };
                endpoints.push(stq_core::Endpoint::Unix(path.into()));
                i += 2;
            }
            "--tcp" => {
                let Some(addr) = args.get(i + 1) else {
                    return fail(usage_err("--tcp needs HOST:PORT"));
                };
                endpoints.push(stq_core::Endpoint::Tcp(addr.clone()));
                i += 2;
            }
            "--json" => {
                json_out = true;
                i += 1;
            }
            flag @ ("--deadline-ms" | "--connect-timeout-ms" | "--call-deadline-ms"
            | "--retries") => {
                let Some(value) = args.get(i + 1) else {
                    return fail(usage_err(format!("{flag} needs a number")));
                };
                let Ok(n) = value.parse::<u64>() else {
                    return fail(usage_err(format!("{flag}: `{value}` is not a number")));
                };
                match flag {
                    "--deadline-ms" => deadline_ms = Some(n),
                    "--connect-timeout-ms" => connect_timeout_ms = n,
                    "--call-deadline-ms" => call_deadline_ms = Some(n),
                    _ => retries = n.min(u64::from(u32::MAX)) as u32,
                }
                i += 2;
            }
            flag if flag.starts_with("--") => return fail(unknown_flag(flag)),
            other => {
                positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    if endpoints.is_empty() {
        return fail(usage_err(
            "call needs at least one of --socket PATH or --tcp HOST:PORT",
        ));
    }
    let tried = endpoints
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let Some(method) = positional.first() else {
        return fail(usage_err(
            "call needs a METHOD (check, prove, reload, stats, health, shutdown)",
        ));
    };
    let params = match positional.get(1) {
        Some(raw) => match Json::parse(raw) {
            Ok(p @ Json::Obj(_)) => Some(p),
            Ok(_) => return fail(usage_err("PARAMS must be a JSON object")),
            Err(e) => return fail(usage_err(format!("PARAMS is not valid JSON: {e}"))),
        },
        None => None,
    };
    let mut client = stq_core::Client::new(stq_core::ClientConfig {
        endpoints,
        connect_timeout: Duration::from_millis(connect_timeout_ms),
        call_deadline: call_deadline_ms.map(Duration::from_millis),
        max_retries: retries,
        ..stq_core::ClientConfig::default()
    });
    let emit = |outcome: &stq_core::CallOutcome, client: &stq_core::Client| {
        if json_out {
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
    };
    let outcome = match client.call(method, params.as_ref(), deadline_ms) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("stqc: call: {e}");
            eprintln!(
                "stqc: is the daemon running? endpoint(s) tried: {tried}; start one with \
                 `stqc serve --socket PATH` (or `stqc serve --tcp HOST:PORT`)"
            );
            return ExitCode::from(EXIT_UNREACHABLE);
        }
    };
    emit(&outcome, &client);
    let doc = outcome.doc;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("invalid");
        return ExitCode::from(match code {
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
        });
    }
    let result = doc.get("result");
    let field = |name: &str| result.and_then(|r| r.get(name)).and_then(Json::as_bool);
    match method.as_str() {
        "prove" if field("interrupted") == Some(true) => ExitCode::from(EXIT_INTERRUPTED),
        "prove" if field("all_sound") == Some(false) => ExitCode::from(EXIT_UNSOUND),
        "check" if field("clean") == Some(false) => ExitCode::from(EXIT_UNSOUND),
        _ => ExitCode::SUCCESS,
    }
}

#[cfg(not(unix))]
fn call(_args: &[String]) -> ExitCode {
    fail(usage_err("call requires unix sockets"))
}
