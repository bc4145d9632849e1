//! `stqc` — the semantic-type-qualifiers command-line tool.
//!
//! ```text
//! stqc prove [--quals FILE] [--stats] [--json] [BUDGET..] [NAME]
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
//!           [--quals FILE] [--watch-libs] [--max-inflight N] [--max-queue N]
//!           [--supervise] [--pid-file PATH] [--idle-timeout-ms N]
//!           [--max-line-bytes N] [--net-fault-seed N] [BUDGET..]
//!                                        checking-as-a-service daemon
//! stqc call (--socket PATH | --tcp HOST:PORT | --endpoint SPEC)..
//!           [--deadline-ms N] [--connect-timeout-ms N]
//!           [--call-deadline-ms N] [--retries N] [--json] METHOD [PARAMS]
//!                                        one request to a serve daemon
//! stqc chaos-serve [--seed N] [--count N] [--clients N] [--kill-worker]
//!           [--daemons N] [--kill-daemon]
//!           [--out FILE]                 chaos soak against a faulted daemon
//! ```
//!
//! Budget flags (`prove` only) bound the prover so a pathological
//! obligation terminates with a `ResourceOut` verdict instead of
//! diverging: `--max-rounds N`, `--max-instantiations N`,
//! `--max-decisions N`, `--max-clauses N`, `--timeout-ms N`.
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
//!   `--fault-theory-at N` inject a deterministic fault at the `N`th
//!   solver entry — testing hooks for the fault-injection harness.
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
use std::time::{Duration, Instant};
use stq_core::reportjson::{
    budget_json, cache_json, check_json, check_stats_json, decimals, millis, prove_json,
    retry_json, with_lead,
};
use stq_core::{
    fault, Budget, CancelToken, CheckOptions, FaultKind, FaultPlan, PersistOutcome, ProofCache,
    QualReport, RetryPolicy, Session, SoundnessReport, Value, Verdict,
};
use stq_util::json::Json;

const USAGE: &str =
    "usage: stqc <prove|check|run|infer|tables|show|fuzz|serve|call|chaos-serve> \
     [options]\n\
     run `stqc --help` for the full command and flag reference";

/// The complete CLI surface. `tests/docs.rs` cross-checks every
/// subcommand and flag mentioned anywhere under `docs/` against this
/// text, so it must stay exhaustive.
const HELP: &str = "\
stqc — semantic type qualifiers: checker, prover, and serving daemon

subcommands:
  stqc prove [NAME]         prove qualifier soundness (all, or one by NAME)
  stqc check FILE.c         qualifier-check a C-subset program
  stqc run FILE.c [INT..]   instrument casts and execute under the interpreter
  stqc infer --qual NAME FILE.c
                            infer which sites can carry qualifier NAME
  stqc tables               regenerate the paper's Tables 1 and 2
  stqc show [NAME]          print qualifier definitions (all, or one)
  stqc fuzz                 differential fuzzing across three oracles
  stqc serve                long-running checking daemon (socket or stdio)
  stqc call METHOD [PARAMS] send one request to a running serve daemon
  stqc chaos-serve          chaos soak: faulted daemon vs fault-free baseline

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
  --max-clauses N           learned clauses before ResourceOut
  --timeout-ms N            per-obligation wall-clock budget (cache-keyed)

performance flags (prove, serve; see docs/performance.md):
  --jobs N                  worker threads (0 = available parallelism);
                            for serve: request workers serving the queue
  --cache-dir DIR           persistent fingerprinted proof cache in DIR

robustness flags (see docs/robustness.md):
  --retry N                 retry ResourceOut obligations up to N attempts
  --retry-factor F          geometric budget escalation between attempts
  --deadline-ms N           whole-run deadline (prove, fuzz, serve lifetime;
                            for `call`: per-request deadline, not cache-keyed)
  --keep-going              continue past crashed qualifiers / syntax errors
  --fault-panic-at N        inject a panic at the Nth solver entry
  --fault-resource-out-at N inject ResourceOut at the Nth solver entry
  --fault-theory-at N       inject a theory error at the Nth solver entry

fuzzing flags (fuzz; see docs/testing.md):
  --seed N                  campaign seed (deterministic per seed/count)
  --count N                 number of generated cases
  --max-depth N             expression depth bound for generated programs
  --replay DIR              replay every .c witness under DIR

serving flags (serve, call; see docs/serving.md):
  --socket PATH             Unix socket to serve on / connect to
  --tcp HOST:PORT           TCP address to serve on / connect to (serve may
                            combine --socket and --tcp; port 0 picks a free
                            port, reported on stderr and via --addr-file)
  --addr-file PATH          write the bound TCP address (or socket path) to
                            PATH once listening (serve; atomic temp+rename)
  --endpoint SPEC           extra endpoint to try, in order (call; repeatable;
                            `unix:PATH`, `tcp:HOST:PORT`, or a bare path /
                            HOST:PORT; --socket and --tcp also repeat)
  --json                    wrap the response with client-side retry and
                            failover counters (call)
  --watch-libs              poll the --quals files and hot-reload qualifier
                            libraries when they change (serve)
  --stdio                   serve one session over stdin/stdout (testing)
  --max-inflight N          per-connection in-flight request cap (serve)
  --max-queue N             global request queue bound before shedding (serve)
  --supervise               run the worker as a supervised child; restart it
                            on crashes, with restart-rate limiting (serve)
  --pid-file PATH           record the current worker pid in PATH (serve)
  --idle-timeout-ms N       close connections idle for N ms with no in-flight
                            work (serve; 0 or omitted = never)
  --max-line-bytes N        reject request lines longer than N bytes with a
                            structured `input` error (serve; default 1048576)
  --connect-timeout-ms N    keep redialing a refused socket for N ms (call)
  --call-deadline-ms N      client-side budget for the whole call, covering
                            every retry (call; omitted = wait indefinitely)
  --retries N               re-attempts after retryable failures (call)
  --clients N               concurrent clients (chaos-serve)
  --out FILE                report path (chaos-serve; default BENCH_chaos.json)

wire-fault flags (serve, chaos-serve; see docs/robustness.md):
  --net-fault-seed N        arm deterministic response-path wire faults
                            seeded with N (drops, torn/interleaved lines,
                            garbage bytes, short writes, stalls)
  --net-fault-count N       how many faults the plan schedules (default 32)
  --net-fault-span N        spread faults over the first N writes (default 256)
  --kill-worker             SIGKILL the supervised worker mid-campaign and
                            require a warm recovery (chaos-serve)
  --daemons N               spawn N daemons sharing one proof-cache journal;
                            clients fail over between them (chaos-serve)
  --kill-daemon             SIGKILL a whole daemon mid-campaign; survivors
                            must answer its proofs warm via journal follow
                            (chaos-serve; needs --daemons >= 2)

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
        Some("chaos-serve") => chaos_serve(&args[1..]),
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

/// Raw signal sending for the supervisor (forwarding SIGINT to the
/// worker) and the chaos harness (SIGKILLing it mid-campaign). Same
/// no-libc-crate idiom as [`interrupt`].
#[cfg(unix)]
mod sig {
    pub const SIGINT: i32 = 2;
    pub const SIGKILL: i32 = 9;

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    /// Sends `signum` to `pid`; false if the process is gone.
    pub fn send(pid: u32, signum: i32) -> bool {
        pid <= i32::MAX as u32 && unsafe { kill(pid as i32, signum) } == 0
    }
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

/// Builds a session from builtins plus any `--quals FILE` definitions
/// and scans the common option set; `bare` lists the subcommand's own
/// value-less flags, and any other `--flag` is a usage error.
/// Fault-injection flags install their [`FaultPlan`] for this thread as
/// a side effect.
fn session_from(args: &[String], bare: &[&str]) -> Result<Cli, CliError> {
    let keep_going = args.iter().any(|a| a == "--keep-going");
    let mut session = Session::with_builtins();
    let mut rest = Vec::new();
    let mut flags = Vec::new();
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
            "--cache-dir" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--cache-dir needs a directory"))?;
                cache_dir = Some(path.clone());
                i += 2;
            }
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
            "--keep-going" => i += 1,
            flag if flag.starts_with("--") => {
                if !bare.contains(&flag) {
                    return Err(unknown_flag(flag));
                }
                flags.push(flag.to_owned());
                i += 1;
            }
            other => {
                rest.push(other.to_owned());
                i += 1;
            }
        }
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
    } = match session_from(args, &["--stats", "--json"]) {
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
    let started = Instant::now();
    let mut reports: Vec<QualReport> = Vec::new();
    match rest.first() {
        Some(name) => {
            match session.prove_named_cancellable(
                &[name.as_str()],
                budget,
                retry,
                jobs,
                cache.as_ref(),
                &cancel,
            ) {
                Ok(report) => reports.extend(report.reports),
                Err(e) => return fail(input_err(e)),
            }
        }
        None if keep_going || jobs > 1 => {
            // The pipeline proves everything; without --keep-going the
            // report is truncated after the first crashed qualifier so
            // the output contract matches the sequential early stop.
            let report =
                session.prove_all_sound_cancellable(budget, retry, jobs, cache.as_ref(), &cancel);
            reports = report.reports;
            if !keep_going {
                if let Some(pos) = reports.iter().position(|r| r.verdict == Verdict::Crashed) {
                    eprintln!(
                        "stqc: qualifier `{}` crashed; stopping \
                         (pass --keep-going to check the rest)",
                        reports[pos].qualifier
                    );
                    reports.truncate(pos + 1);
                }
            }
        }
        None => {
            // Sequential without --keep-going: stop at the first crash
            // before spending budget on the remaining qualifiers. A
            // fired token doesn't break the loop: the remaining
            // qualifiers come back as skipped placeholders, so the
            // partial report still names everything it didn't reach.
            let names: Vec<String> = session
                .registry()
                .iter()
                .map(|d| d.name.to_string())
                .collect();
            for name in &names {
                let Ok(report) = session.prove_named_cancellable(
                    &[name.as_str()],
                    budget,
                    retry,
                    1,
                    cache.as_ref(),
                    &cancel,
                ) else {
                    continue;
                };
                let Some(r) = report.reports.into_iter().next() else {
                    continue;
                };
                let crashed = r.verdict == Verdict::Crashed;
                reports.push(r);
                if crashed {
                    eprintln!(
                        "stqc: qualifier `{name}` crashed; stopping \
                         (pass --keep-going to check the rest)"
                    );
                    break;
                }
            }
        }
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
    // One report for all three ways of proving: its totals and counters
    // cover exactly the qualifiers reported.
    let report = SoundnessReport::new(
        reports,
        budget,
        retry,
        jobs,
        cache.as_ref(),
        started.elapsed(),
    );
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
    } = match session_from(args, &["--stats", "--json", "--flow-sensitive"]) {
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
    let Cli {
        session, mut rest, ..
    } = match session_from(args, &["--entry"]) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    // `--entry NAME`: session_from left NAME in rest; pull it back out.
    let mut entry_name = "main".to_owned();
    if let Some(pos) = args.iter().position(|a| a == "--entry") {
        if let Some(name) = args.get(pos + 1) {
            entry_name = name.clone();
            if let Some(i) = rest.iter().position(|r| r == name) {
                rest.remove(i);
            }
        }
    }
    let Some(path) = rest.first().cloned() else {
        return fail(usage_err("run needs a source file"));
    };
    let source = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail(input_err(format!("cannot read {path}: {e}"))),
    };
    let program = match session.parse(&source) {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("{path}: {e}"))),
    };
    let call_args: Vec<Value> = rest[1..]
        .iter()
        .filter_map(|a| a.parse::<i64>().ok().map(Value::Int))
        .collect();
    match session.run_instrumented(&program, &entry_name, &call_args) {
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
    let Cli { session, rest, .. } = match session_from(args, &["--qual"]) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    // `infer --qual NAME FILE` — the qual name lands in rest after the
    // flag-stripping; expect [NAME, FILE] with --qual marking NAME.
    let (qual, path) = match args.iter().position(|a| a == "--qual") {
        Some(pos) => {
            let Some(name) = args.get(pos + 1) else {
                return fail(usage_err("--qual needs a name"));
            };
            let Some(path) = rest.iter().find(|r| *r != name) else {
                return fail(usage_err("infer needs a source file"));
            };
            (name.clone(), path.clone())
        }
        None => return fail(usage_err("infer needs --qual NAME")),
    };
    let source = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail(input_err(format!("cannot read {path}: {e}"))),
    };
    let program = match session.parse(&source) {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("{path}: {e}"))),
    };
    let result = match session.try_infer_annotations(&program, &qual) {
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
    let Cli { session, rest, .. } = match session_from(args, &[]) {
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
    Json::obj([
        ("program", row.program.as_str().into()),
        ("lines", row.lines.into()),
        ("check_time_ms", millis(row.check_time)),
        ("stats", check_stats_json(&row.stats)),
    ])
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
/// the supervision and wire-fault flags) out of `args` so the
/// remainder can go through the common [`session_from`] scan.
struct ServeArgs {
    socket: Option<String>,
    tcp: Option<String>,
    addr_file: Option<String>,
    stdio: bool,
    max_inflight: usize,
    max_queue: usize,
    supervise: bool,
    pid_file: Option<String>,
    watch_libs: bool,
    idle_timeout_ms: u64,
    max_line_bytes: usize,
    net_fault_seed: Option<u64>,
    net_fault_count: u64,
    net_fault_span: u64,
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
        supervise: false,
        pid_file: None,
        watch_libs: false,
        idle_timeout_ms: 0,
        max_line_bytes: 1 << 20,
        net_fault_seed: None,
        net_fault_count: 32,
        net_fault_span: 256,
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
            "--supervise" => {
                out.supervise = true;
                i += 1;
            }
            "--watch-libs" => {
                out.watch_libs = true;
                i += 1;
            }
            "--pid-file" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err("--pid-file needs a path"))?;
                out.pid_file = Some(path.clone());
                i += 2;
            }
            flag @ ("--max-inflight" | "--max-queue" | "--idle-timeout-ms"
            | "--max-line-bytes" | "--net-fault-seed" | "--net-fault-count"
            | "--net-fault-span") => {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage_err(format!("{flag} needs a number")))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| usage_err(format!("{flag}: `{value}` is not a number")))?;
                match flag {
                    "--max-inflight" => out.max_inflight = n as usize,
                    "--max-queue" => out.max_queue = n as usize,
                    "--idle-timeout-ms" => out.idle_timeout_ms = n,
                    "--max-line-bytes" => out.max_line_bytes = n as usize,
                    "--net-fault-seed" => out.net_fault_seed = Some(n),
                    "--net-fault-count" => out.net_fault_count = n,
                    _ => out.net_fault_span = n,
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
    if serve_args.supervise {
        #[cfg(unix)]
        {
            return supervise(args, &serve_args);
        }
        #[cfg(not(unix))]
        {
            return fail(usage_err("--supervise requires unix"));
        }
    }
    let Cli {
        session,
        rest,
        budget,
        retry,
        jobs,
        cache_dir,
        deadline_ms,
        qual_files,
        ..
    } = match session_from(&serve_args.rest, &[]) {
        Ok(x) => x,
        Err(e) => return fail(e),
    };
    if let Some(stray) = rest.first() {
        return fail(usage_err(format!("serve: unexpected argument `{stray}`")));
    }
    if serve_args.socket.is_none() && serve_args.tcp.is_none() && !serve_args.stdio {
        return fail(usage_err("serve needs --socket PATH, --tcp HOST:PORT, or --stdio"));
    }
    if serve_args.stdio && (serve_args.socket.is_some() || serve_args.tcp.is_some()) {
        return fail(usage_err("--stdio excludes --socket and --tcp"));
    }
    if let Some(pid_file) = &serve_args.pid_file {
        if let Err(e) = write_atomic(pid_file, &format!("{}\n", std::process::id())) {
            return fail(input_err(format!("cannot write {pid_file}: {e}")));
        }
    }
    let cancel = run_token(deadline_ms);
    let cfg = stq_core::ServeConfig {
        jobs,
        max_inflight: serve_args.max_inflight,
        max_queue: serve_args.max_queue,
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        budget,
        retry,
        idle_timeout: match serve_args.idle_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        max_line_bytes: serve_args.max_line_bytes,
        netfault: serve_args.net_fault_seed.map(|seed| {
            stq_util::netfault::NetFaultPlan::seeded(
                seed,
                serve_args.net_fault_count as usize,
                serve_args.net_fault_span,
            )
        }),
        qual_files,
        watch_libs: serve_args.watch_libs,
    };
    let server = match stq_core::Server::new(session, cfg, cancel) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => return fail(input_err(format!("cannot start server: {e}"))),
    };
    let _watcher = server.spawn_lib_watcher();
    let kind = if serve_args.stdio {
        server.run_stdio()
    } else {
        #[cfg(unix)]
        {
            // Bind TCP here (not in the server) so `--tcp 127.0.0.1:0`
            // can report the kernel-assigned port before serving; the
            // bound address goes to stderr and, for scripts, to
            // `--addr-file`.
            let tcp_listener = match &serve_args.tcp {
                Some(addr) => match std::net::TcpListener::bind(addr.as_str()) {
                    Ok(l) => Some(l),
                    Err(e) => return fail(input_err(format!("serve: cannot bind {addr}: {e}"))),
                },
                None => None,
            };
            let mut endpoints: Vec<String> = Vec::new();
            if let Some(path) = &serve_args.socket {
                endpoints.push(path.clone());
            }
            if let Some(listener) = &tcp_listener {
                match listener.local_addr() {
                    Ok(addr) => endpoints.push(format!("tcp:{addr}")),
                    Err(e) => return fail(input_err(format!("serve: tcp addr: {e}"))),
                }
            }
            eprintln!("stqc: serving on {}", endpoints.join(" and "));
            if let Some(addr_file) = &serve_args.addr_file {
                let bound = tcp_listener
                    .as_ref()
                    .and_then(|l| l.local_addr().ok())
                    .map(|a| a.to_string())
                    .or_else(|| serve_args.socket.clone())
                    .unwrap_or_default();
                if let Err(e) = write_atomic(addr_file, &format!("{bound}\n")) {
                    return fail(input_err(format!("cannot write {addr_file}: {e}")));
                }
            }
            let socket_path = serve_args.socket.as_ref().map(std::path::Path::new);
            match server.run_multi(socket_path, tcp_listener) {
                Ok(kind) => kind,
                Err(e) => return fail(input_err(format!("serve: {e}"))),
            }
        }
        #[cfg(not(unix))]
        {
            return fail(usage_err("--socket/--tcp require unix; use --stdio"));
        }
    };
    match kind {
        stq_core::ShutdownKind::Requested => ExitCode::SUCCESS,
        stq_core::ShutdownKind::Interrupted => ExitCode::from(EXIT_INTERRUPTED),
    }
}

/// `stqc serve --supervise`: runs the worker daemon as a child process
/// and restarts it when it dies abnormally (crash, SIGKILL, panic).
/// Deliberate exits — requested shutdown (0), interrupted (5), usage or
/// input errors (2, 3) — propagate instead of restarting. Restarts are
/// rate-limited: each quick death (under 5s) doubles a backoff capped
/// at 2s, and five consecutive quick deaths give up with exit 4.
///
/// A `--cache-dir` worker persists every conclusive verdict eagerly, so
/// the restarted worker reloads a warm cache (see `docs/robustness.md`).
#[cfg(unix)]
fn supervise(args: &[String], serve_args: &ServeArgs) -> ExitCode {
    use std::time::Instant;

    if serve_args.stdio {
        return fail(usage_err("--supervise needs --socket, not --stdio"));
    }
    if serve_args.socket.is_none() {
        return fail(usage_err("--supervise needs --socket PATH"));
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("cannot locate stqc: {e}"))),
    };
    let worker_args: Vec<&String> = args.iter().filter(|a| *a != "--supervise").collect();
    let cancel = CancelToken::new();
    interrupt::install(&cancel);
    let mut quick_deaths = 0u32;
    let mut restarts = 0u64;
    loop {
        let mut child = match std::process::Command::new(&exe)
            .arg("serve")
            .args(&worker_args)
            .spawn()
        {
            Ok(c) => c,
            Err(e) => return fail(input_err(format!("cannot spawn worker: {e}"))),
        };
        if let Some(pid_file) = &serve_args.pid_file {
            if let Err(e) = write_atomic(pid_file, &format!("{}\n", child.id())) {
                eprintln!("stqc: supervisor: cannot write {pid_file}: {e}");
            }
        }
        let born = Instant::now();
        let mut forwarded = false;
        // Poll rather than block so SIGINT can be forwarded promptly.
        let status = loop {
            if cancel.is_cancelled() && !forwarded {
                forwarded = true;
                sig::send(child.id(), sig::SIGINT);
            }
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => return fail(input_err(format!("supervisor wait failed: {e}"))),
            }
        };
        match status.code() {
            Some(0) => return ExitCode::SUCCESS,
            Some(code @ (2 | 3)) => {
                eprintln!("stqc: supervisor: worker config error (exit {code}); not restarting");
                return ExitCode::from(code as u8);
            }
            Some(5) => return ExitCode::from(EXIT_INTERRUPTED),
            _ if forwarded => return ExitCode::from(EXIT_INTERRUPTED),
            abnormal => {
                restarts += 1;
                if born.elapsed() < Duration::from_secs(5) {
                    quick_deaths += 1;
                } else {
                    quick_deaths = 0;
                }
                if quick_deaths >= 5 {
                    eprintln!(
                        "stqc: supervisor: worker died {quick_deaths} times in quick \
                         succession; giving up"
                    );
                    return ExitCode::from(EXIT_CRASH);
                }
                let how = match abnormal {
                    Some(code) => format!("exit {code}"),
                    None => "killed by a signal".to_owned(),
                };
                let backoff =
                    Duration::from_millis(100 * (1 << quick_deaths.min(4))).min(Duration::from_secs(2));
                eprintln!(
                    "stqc: supervisor: worker died ({how}); restart #{restarts} in {}ms",
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
            }
        }
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
            "--endpoint" => {
                let Some(spec) = args.get(i + 1) else {
                    return fail(usage_err(
                        "--endpoint needs a socket path or [tcp:]HOST:PORT",
                    ));
                };
                endpoints.push(stq_core::Endpoint::parse(spec));
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
            "call needs at least one of --socket PATH, --tcp HOST:PORT, or --endpoint SPEC",
        ));
    }
    let tried = endpoints
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let Some(method) = positional.first() else {
        return fail(usage_err(
            "call needs a METHOD (define_qualifiers, check, prove, reload, stats, health, \
             shutdown)",
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
        Err(e @ stq_core::CallError::Ambiguous(_)) => {
            eprintln!("stqc: call: {e}");
            return ExitCode::from(EXIT_CRASH);
        }
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

/// One entry of the chaos campaign's deterministic request schedule.
#[cfg(unix)]
struct ChaosRequest {
    method: &'static str,
    params: Option<Json>,
}

/// Generates the seeded request schedule: full and named proves, clean
/// and faulty checks, stats/health probes. Every method is idempotent
/// and read-only, so the canonical answers are independent of request
/// interleaving — which is what lets N concurrent clients be compared
/// against a sequential fault-free baseline.
#[cfg(unix)]
fn chaos_schedule(seed: u64, count: usize) -> Vec<ChaosRequest> {
    const NAMES: [&str; 8] = [
        "pos", "neg", "nonzero", "nonnull", "untainted", "tainted", "unique", "unaliased",
    ];
    const CLEAN: &str = "int pos f() { return 7; }";
    const UNCLEAN: &str = "int pos f(int a) { return a; }";
    const BROKEN: &str = "int f( {";
    let prove = |names: &[&str]| ChaosRequest {
        method: "prove",
        params: Some(Json::obj([("names", names.iter().copied().collect())])),
    };
    let check = |source: &str| ChaosRequest {
        method: "check",
        params: Some(Json::obj([("source", source.into())])),
    };
    let mut state = seed ^ 0xC4A0_5057;
    (0..count)
        .map(|_| {
            state = stq_util::splitmix64(state);
            let r = state;
            let name = |shift: u64| NAMES[(r >> shift) as usize % NAMES.len()];
            match r % 8 {
                0 | 1 => ChaosRequest { method: "prove", params: None },
                2 => prove(&[name(8)]),
                3 => prove(&[name(8), name(16)]),
                4 => check(CLEAN),
                5 => check(UNCLEAN),
                6 => check(BROKEN),
                _ => ChaosRequest {
                    method: if (r >> 8) & 1 == 0 { "stats" } else { "health" },
                    params: None,
                },
            }
        })
        .collect()
}

/// Canonicalizes one response for baseline comparison: only the
/// semantic payload (verdicts, cleanliness, error class) — never
/// timings, counters, or cache telemetry, which legitimately differ
/// between the baseline and the chaos phase.
#[cfg(unix)]
fn chaos_canon(method: &str, doc: &Json) -> String {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("?");
        return format!("error:{code}");
    }
    let result = doc.get("result");
    let arr_len = |name: &str| -> usize {
        match result.and_then(|r| r.get(name)) {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        }
    };
    match method {
        "prove" => {
            let all_sound = result.and_then(|r| r.get("all_sound")).and_then(Json::as_bool);
            let quals = match result.and_then(|r| r.get("qualifiers")) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|q| {
                        format!(
                            "{}={}",
                            q.get("name").and_then(Json::as_str).unwrap_or("?"),
                            q.get("verdict").and_then(Json::as_str).unwrap_or("?"),
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(","),
                _ => String::new(),
            };
            format!("prove:all_sound={all_sound:?};{quals}")
        }
        "check" => format!(
            "check:clean={:?};syntax={};diags={}",
            result.and_then(|r| r.get("clean")).and_then(Json::as_bool),
            arr_len("syntax_errors"),
            arr_len("diagnostics"),
        ),
        _ => "ok".to_owned(),
    }
}

/// The self-healing client every chaos phase uses: generous connect and
/// call budgets, many retries, and fast backoff whose jitter is seeded
/// by `seed ^ salt`.
#[cfg(unix)]
fn chaos_client(seed: u64, salt: u64, endpoints: Vec<stq_core::Endpoint>) -> stq_core::Client {
    stq_core::Client::new(stq_core::ClientConfig {
        endpoints,
        connect_timeout: Duration::from_secs(20),
        call_deadline: Some(Duration::from_secs(300)),
        max_retries: 64,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        seed: seed ^ salt,
    })
}

#[cfg(unix)]
fn unix_endpoint(socket: &std::path::Path) -> Vec<stq_core::Endpoint> {
    vec![stq_core::Endpoint::Unix(socket.to_path_buf())]
}

/// A mid-campaign assassination: runs once half the schedule has
/// resolved and returns the restarts it observed.
#[cfg(unix)]
type Kill = Box<dyn FnOnce() -> Result<u64, String> + Send>;

/// What one concurrent chaos campaign produced.
#[cfg(unix)]
struct Campaign {
    /// Canonical answer per schedule index; `None` if never resolved.
    answers: Vec<Option<String>>,
    /// Every campaign client's recovery counters, summed.
    client: stq_core::ClientStats,
    elapsed: Duration,
    /// What the [`Kill`], if any, returned.
    restarts: u64,
}

/// Runs `schedule` through `clients` concurrent self-healing clients:
/// client `c` owns indices c, c+N, c+2N, … and dials `endpoints(c)`.
/// Once half the requests have resolved, `kill` runs on its own thread.
#[cfg(unix)]
fn chaos_campaign(
    seed: u64,
    schedule: &std::sync::Arc<Vec<ChaosRequest>>,
    clients: usize,
    endpoints: impl Fn(usize) -> Vec<stq_core::Endpoint>,
    kill: Option<Kill>,
) -> Result<Campaign, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let resolved = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    type ClientRun = Result<(Vec<(usize, String)>, stq_core::ClientStats), String>;
    let workers: Vec<std::thread::JoinHandle<ClientRun>> = (0..clients)
        .map(|c| {
            let schedule = Arc::clone(schedule);
            let resolved = Arc::clone(&resolved);
            let mut client = chaos_client(seed, 0xC0_0000 + c as u64, endpoints(c));
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                for idx in (c..schedule.len()).step_by(clients) {
                    let req = &schedule[idx];
                    let outcome = client
                        .call(req.method, req.params.as_ref(), None)
                        .map_err(|e| format!("request #{idx} ({}): {e}", req.method))?;
                    answers.push((idx, chaos_canon(req.method, &outcome.doc)));
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
                Ok((answers, client.stats()))
            })
        })
        .collect();
    let killer = kill.map(|kill| {
        let resolved = Arc::clone(&resolved);
        let half = (schedule.len() / 2).max(1) as u64;
        std::thread::spawn(move || {
            while resolved.load(Ordering::Relaxed) < half {
                std::thread::sleep(Duration::from_millis(5));
            }
            kill()
        })
    });

    let mut campaign = Campaign {
        answers: vec![None; schedule.len()],
        client: stq_core::ClientStats::default(),
        elapsed: Duration::ZERO,
        restarts: 0,
    };
    let mut failure: Option<String> = None;
    for handle in workers {
        match handle.join() {
            Ok(Ok((answers, s))) => {
                for (idx, canon) in answers {
                    campaign.answers[idx] = Some(canon);
                }
                let sum = &mut campaign.client;
                sum.retries += s.retries;
                sum.reconnects += s.reconnects;
                sum.resends += s.resends;
                sum.failovers += s.failovers;
                sum.endpoints_tried += s.endpoints_tried;
                sum.alien_dropped += s.alien_dropped;
                sum.corrupt_lines += s.corrupt_lines;
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some("a chaos client panicked".to_owned()),
        }
    }
    campaign.elapsed = started.elapsed();
    match killer.map(std::thread::JoinHandle::join) {
        None => {}
        Some(Ok(Ok(restarts))) => campaign.restarts = restarts,
        Some(Ok(Err(e))) => {
            failure.get_or_insert(e);
        }
        Some(Err(_)) => {
            failure.get_or_insert("the killer thread panicked".to_owned());
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(campaign),
    }
}

/// One chaos drill's results: everything `BENCH_chaos.json` records
/// beyond the campaign itself.
#[cfg(unix)]
struct ChaosReport {
    seed: u64,
    clients: usize,
    daemons: usize,
    daemon_killed: bool,
    /// Wire faults the daemon's plan held, and how many fired.
    net_faults: (u64, u64),
    warm_cache_miss_delta: u64,
    follow_hits: u64,
    reloads: u64,
    worker_killed: bool,
    worker_restarts: u64,
    clean_shutdown: bool,
}

#[cfg(unix)]
impl ChaosReport {
    /// Writes the `BENCH_chaos.json` document to `out` and stdout, then
    /// judges the oracle: every answer matches the fault-free `baseline`
    /// (else exit 1), every request resolved, and each of the drill's
    /// own `checks` — a failure condition with its message — holds
    /// (else exit 4). `summary` goes to stderr once the report is out.
    fn finish(
        &self,
        campaign: &Campaign,
        baseline: &[String],
        out: &str,
        summary: &str,
        checks: &[(bool, String)],
    ) -> ExitCode {
        let count = baseline.len();
        let resolved = campaign.answers.iter().filter(|a| a.is_some()).count();
        let mismatches: Vec<usize> = (0..count)
            .filter(|&i| campaign.answers[i].as_deref() != Some(baseline[i].as_str()))
            .collect();
        for &i in mismatches.iter().take(5) {
            eprintln!(
                "chaos-serve: request #{i} diverged:\n  baseline: {}\n  chaos:    {}",
                baseline[i],
                campaign.answers[i].as_deref().unwrap_or("<unresolved>"),
            );
        }
        let c = &campaign.client;
        let report = Json::obj([
            ("bench", "chaos-serve".into()),
            ("seed", self.seed.into()),
            ("count", count.into()),
            ("clients", self.clients.into()),
            ("daemons", self.daemons.into()),
            ("daemon_killed", self.daemon_killed.into()),
            (
                "net_faults",
                Json::obj([
                    ("planned", self.net_faults.0.into()),
                    ("injected", self.net_faults.1.into()),
                ]),
            ),
            ("requests_resolved", resolved.into()),
            ("verdict_mismatches", mismatches.len().into()),
            (
                "client",
                Json::obj([
                    ("retries", c.retries.into()),
                    ("reconnects", c.reconnects.into()),
                    ("resends", c.resends.into()),
                    ("failovers", c.failovers.into()),
                    ("endpoints_tried", c.endpoints_tried.into()),
                    ("alien_lines_dropped", c.alien_dropped.into()),
                    ("corrupt_lines", c.corrupt_lines.into()),
                ]),
            ),
            ("warm_cache_miss_delta", self.warm_cache_miss_delta.into()),
            ("follow_hits", self.follow_hits.into()),
            ("reloads", self.reloads.into()),
            ("worker_killed", self.worker_killed.into()),
            ("worker_restarts", self.worker_restarts.into()),
            ("clean_shutdown", self.clean_shutdown.into()),
            ("elapsed_ms", millis(campaign.elapsed)),
            (
                "requests_per_sec",
                decimals(count as f64 / campaign.elapsed.as_secs_f64(), 2),
            ),
        ]);
        if fs::write(out, report.to_string() + "\n").is_err() {
            return fail(input_err(format!("cannot write {out}")));
        }
        println!("{report}");
        eprintln!(
            "chaos-serve: {resolved}/{count} resolved, {} mismatch(es){summary}",
            mismatches.len()
        );
        if !mismatches.is_empty() {
            eprintln!("stqc: chaos-serve: answers diverged from the fault-free baseline");
            return ExitCode::from(EXIT_UNSOUND);
        }
        let not_resolved = (
            resolved != count,
            "not every request resolved to an attributed answer".to_owned(),
        );
        match std::iter::once(&not_resolved)
            .chain(checks)
            .find(|(failed, _)| *failed)
        {
            Some((_, message)) => {
                eprintln!("stqc: chaos-serve: {message}");
                ExitCode::from(EXIT_CRASH)
            }
            None => ExitCode::SUCCESS,
        }
    }
}

/// `stqc chaos-serve`: the chaos soak oracle (see `docs/robustness.md`).
///
/// Phase 1 computes a fault-free baseline: a seeded request schedule is
/// run sequentially against an in-process daemon, and every answer is
/// canonicalized. Phase 2 spawns a *supervised* daemon with wire-fault
/// injection armed and drives the same schedule through N self-healing
/// clients concurrently (optionally SIGKILLing the worker mid-campaign
/// with `--kill-worker`). The oracle holds iff every request resolves
/// to exactly one attributed answer, every canonical answer matches the
/// baseline, and the warm proof cache never misses — across faults,
/// retries, and worker restarts. Results land in `BENCH_chaos.json`.
///
/// With `--daemons N` (N >= 2) the campaign instead runs against a
/// fleet of daemon processes sharing one proof-cache journal, and
/// `--kill-daemon` SIGKILLs a whole daemon mid-campaign — see
/// [`chaos_serve_multi`].
#[cfg(unix)]
fn chaos_serve(args: &[String]) -> ExitCode {
    use std::sync::Arc;

    let mut seed = 7u64;
    let mut count = 200usize;
    let mut clients = 4usize;
    let mut daemons = 1usize;
    let mut kill_worker = false;
    let mut kill_daemon = false;
    let mut out = "BENCH_chaos.json".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--kill-worker" => {
                kill_worker = true;
                i += 1;
            }
            "--kill-daemon" => {
                kill_daemon = true;
                i += 1;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    return fail(usage_err("--out needs a path"));
                };
                out = path.clone();
                i += 2;
            }
            flag @ ("--seed" | "--count" | "--clients" | "--daemons") => {
                let Some(value) = args.get(i + 1) else {
                    return fail(usage_err(format!("{flag} needs a number")));
                };
                let Ok(n) = value.parse::<u64>() else {
                    return fail(usage_err(format!("{flag}: `{value}` is not a number")));
                };
                match flag {
                    "--seed" => seed = n,
                    "--count" => count = (n as usize).clamp(1, 100_000),
                    "--daemons" => daemons = (n as usize).clamp(1, 8),
                    _ => clients = (n as usize).clamp(1, 64),
                }
                i += 2;
            }
            other => {
                return fail(usage_err(format!("chaos-serve: unknown argument `{other}`")));
            }
        }
    }
    if kill_daemon && daemons < 2 {
        return fail(usage_err("--kill-daemon needs --daemons 2 or more"));
    }
    if kill_worker && daemons >= 2 {
        return fail(usage_err("--kill-worker applies to the single-daemon mode; use --kill-daemon"));
    }

    let schedule = Arc::new(chaos_schedule(seed, count));
    let scratch = std::env::temp_dir().join(format!("stqc-chaos-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        return fail(input_err(format!("cannot create {}: {e}", scratch.display())));
    }

    // ----- phase 1: the fault-free baseline -----
    eprintln!("chaos-serve: baseline over {count} request(s)...");
    let base_socket = scratch.join("baseline.sock");
    let _ = fs::remove_file(&base_socket);
    let base_server = match stq_core::Server::new(
        Session::with_builtins(),
        stq_core::ServeConfig::default(),
        CancelToken::new(),
    ) {
        Ok(s) => Arc::new(s),
        Err(e) => return fail(input_err(format!("cannot start baseline server: {e}"))),
    };
    let base_thread = {
        let server = Arc::clone(&base_server);
        let socket = base_socket.clone();
        std::thread::spawn(move || server.run_unix(&socket))
    };
    let mut baseline: Vec<String> = Vec::with_capacity(count);
    {
        let mut client = chaos_client(seed, 0xBA5E, unix_endpoint(&base_socket));
        for req in schedule.iter() {
            match client.call(req.method, req.params.as_ref(), None) {
                Ok(outcome) => baseline.push(chaos_canon(req.method, &outcome.doc)),
                Err(e) => return fail(input_err(format!("baseline request failed: {e}"))),
            }
        }
        if client.call("shutdown", None, None).is_err() {
            return fail(input_err("baseline shutdown failed"));
        }
    }
    let _ = base_thread.join();

    let code = if daemons >= 2 {
        chaos_serve_multi(
            seed,
            clients,
            daemons,
            kill_daemon,
            &out,
            &schedule,
            &baseline,
            &scratch,
        )
    } else {
        chaos_serve_single(
            seed,
            clients,
            kill_worker,
            &out,
            &schedule,
            &baseline,
            &scratch,
        )
    };
    let _ = fs::remove_dir_all(&scratch);
    code
}

/// The single-daemon leg of `stqc chaos-serve`: a supervised daemon with
/// wire faults armed, optionally SIGKILLing its worker mid-campaign
/// (`--kill-worker`) and requiring a warm recovery.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn chaos_serve_single(
    seed: u64,
    clients: usize,
    kill_worker: bool,
    out: &str,
    schedule: &std::sync::Arc<Vec<ChaosRequest>>,
    baseline: &[String],
    scratch: &std::path::Path,
) -> ExitCode {
    let count = schedule.len();
    let socket = scratch.join("chaos.sock");
    let pid_file = scratch.join("worker.pid");
    let cache_dir = scratch.join("cache");
    let _ = fs::remove_file(&socket);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("cannot locate stqc: {e}"))),
    };
    let nf_count = (count / 3).max(8);
    let nf_span = (count as u64).max(64);
    eprintln!(
        "chaos-serve: supervised daemon with {nf_count} fault(s) planned over \
         the first {nf_span} response write(s)..."
    );
    let mut daemon = match std::process::Command::new(&exe)
        .args(["serve", "--supervise"])
        .arg("--socket")
        .arg(&socket)
        .arg("--pid-file")
        .arg(&pid_file)
        .arg("--cache-dir")
        .arg(&cache_dir)
        .args(["--jobs", "2"])
        .args(["--net-fault-seed", &seed.to_string()])
        .args(["--net-fault-count", &nf_count.to_string()])
        .args(["--net-fault-span", &nf_span.to_string()])
        .stderr(std::process::Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return fail(input_err(format!("cannot spawn supervised daemon: {e}"))),
    };
    // Everything from here on must kill the daemon on the way out.
    let give_up = |daemon: &mut std::process::Child, err: CliError| -> ExitCode {
        sig::send(daemon.id(), sig::SIGINT);
        let _ = daemon.wait();
        fail(err)
    };

    // Warm the worker's cache with one full prove; every conclusive
    // verdict is persisted eagerly, so from this point the journal on
    // disk is complete and a SIGKILL can never lose warm state.
    let mut warm_client = chaos_client(seed, 0x3A4, unix_endpoint(&socket));
    if let Err(e) = warm_client.call("prove", None, None) {
        return give_up(&mut daemon, input_err(format!("warmup prove failed: {e}")));
    }
    let warm_misses = match warm_client.call("stats", None, None) {
        Ok(outcome) => stats_counter(&outcome.doc, &["cache", "misses"], u64::MAX),
        Err(e) => return give_up(&mut daemon, input_err(format!("warmup stats failed: {e}"))),
    };

    // Mid-campaign worker assassination: SIGKILL the current worker and
    // wait for the supervisor to install a successor (observed as a
    // pid-file change).
    let kill: Option<Kill> = kill_worker.then(|| {
        let pid_file = pid_file.clone();
        Box::new(move || -> Result<u64, String> {
            let err = |e: String| format!("kill-worker: {e}");
            let old = fs::read_to_string(&pid_file)
                .map_err(|e| err(format!("cannot read {}: {e}", pid_file.display())))?;
            let pid: u32 = old
                .trim()
                .parse()
                .map_err(|_| err(format!("{} does not hold a pid", pid_file.display())))?;
            if !sig::send(pid, sig::SIGKILL) {
                return Err(err(format!("cannot SIGKILL worker {pid}")));
            }
            let respawned_by = Instant::now() + Duration::from_secs(30);
            loop {
                if let Ok(now) = fs::read_to_string(&pid_file) {
                    if !now.trim().is_empty() && now.trim() != old.trim() {
                        return Ok(1);
                    }
                }
                if Instant::now() > respawned_by {
                    return Err(err(
                        "the supervisor never restarted the killed worker".to_owned()
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }) as Kill
    });
    let campaign = match chaos_campaign(seed, schedule, clients, |_| unix_endpoint(&socket), kill) {
        Ok(c) => c,
        Err(e) => {
            return give_up(
                &mut daemon,
                input_err(format!("chaos campaign failed: {e}")),
            )
        }
    };

    // Post-campaign ledger: cache misses and fault counters from the
    // (possibly restarted) worker, then a clean shutdown through the
    // supervisor.
    let mut final_client = chaos_client(seed, 0xF1A7, unix_endpoint(&socket));
    let stats = match final_client.call("stats", None, None) {
        Ok(outcome) => outcome.doc,
        Err(e) => return give_up(&mut daemon, input_err(format!("final stats failed: {e}"))),
    };
    let final_misses = stats_counter(&stats, &["cache", "misses"], u64::MAX);
    let injected = stats_counter(&stats, &["netfault", "injected"], 0);
    // The shutdown *response* can itself be eaten by an armed wire
    // fault after the worker has already committed to exiting — so the
    // ack is best-effort; the daemon's own clean exit is the contract.
    let _ = final_client.call("shutdown", None, None);
    let clean_exit = {
        let exit_by = Instant::now() + Duration::from_secs(60);
        loop {
            match daemon.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < exit_by => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    sig::send(daemon.id(), sig::SIGINT);
                    let _ = daemon.wait();
                    break false;
                }
            }
        }
    };

    // A restarted worker starts a fresh miss counter over the persisted
    // journal, so the warm rule is "zero misses since restart"; an
    // unkilled worker must add zero over its warm sample.
    let worker_restarts = campaign.restarts;
    let warm_cache_miss_delta = if worker_restarts > 0 {
        final_misses
    } else {
        final_misses.saturating_sub(warm_misses)
    };
    let report = ChaosReport {
        seed,
        clients,
        daemons: 1,
        daemon_killed: false,
        net_faults: (nf_count as u64, injected),
        warm_cache_miss_delta,
        follow_hits: stats_counter(&stats, &["cache", "follow_hits"], 0),
        reloads: stats_counter(&stats, &["reloads"], 0),
        worker_killed: kill_worker,
        worker_restarts,
        clean_shutdown: clean_exit,
    };
    let c = &campaign.client;
    let summary = format!(
        ", {injected} fault(s) injected, {} retry(ies), {} reconnect(s), \
         warm misses +{warm_cache_miss_delta}{}",
        c.retries,
        c.reconnects,
        if kill_worker {
            format!(", worker killed and restarted {worker_restarts} time(s)")
        } else {
            String::new()
        },
    );
    report.finish(
        &campaign,
        baseline,
        out,
        &summary,
        &[
            (
                warm_cache_miss_delta > 0,
                format!("the warm proof cache missed {warm_cache_miss_delta} time(s)"),
            ),
            (
                worker_restarts == 0 && injected == 0,
                "no faults were injected; the soak proved nothing".to_owned(),
            ),
            (
                kill_worker && worker_restarts == 0,
                "the worker was never restarted".to_owned(),
            ),
            (
                !clean_exit,
                "the supervised daemon did not exit cleanly".to_owned(),
            ),
        ],
    )
}

/// Pulls one `u64` counter out of a `stats` response document, walking
/// `result.<path...>`. `missing` is returned when the field is absent —
/// pick it so an absent counter fails the oracle rather than passing it.
#[cfg(unix)]
fn stats_counter(doc: &Json, path: &[&str], missing: u64) -> u64 {
    let mut cur = doc.get("result");
    for key in path {
        cur = cur.and_then(|j| j.get(key));
    }
    cur.and_then(Json::as_u64).unwrap_or(missing)
}

/// The multi-daemon leg of `stqc chaos-serve` (`--daemons N`): a fleet
/// of independent daemon processes shares one proof-cache journal, every
/// campaign client carries the whole fleet in its endpoint list (rotated
/// so primaries spread across daemons), and `--kill-daemon` SIGKILLs
/// daemon #0 outright mid-campaign — no supervisor, no restart; recovery
/// is the *clients'* job. The oracle demands what high availability
/// actually means: every request still resolves exactly once with
/// baseline-identical answers, a survivor serves the dead daemon's
/// proofs warm by following the shared journal (zero misses,
/// `follow_hits > 0`), a hot `reload` succeeds on the survivor, and
/// every surviving daemon shuts down cleanly.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn chaos_serve_multi(
    seed: u64,
    clients: usize,
    daemons: usize,
    kill_daemon: bool,
    out: &str,
    schedule: &std::sync::Arc<Vec<ChaosRequest>>,
    baseline: &[String],
    scratch: &std::path::Path,
) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(input_err(format!("cannot locate stqc: {e}"))),
    };
    let cache_dir = scratch.join("cache");
    eprintln!(
        "chaos-serve: {daemons} daemons sharing one journal{}...",
        if kill_daemon { "; daemon #0 marked for assassination" } else { "" },
    );
    let mut sockets: Vec<std::path::PathBuf> = Vec::with_capacity(daemons);
    let mut fleet: Vec<std::process::Child> = Vec::with_capacity(daemons);
    let give_up = |fleet: &mut Vec<std::process::Child>, err: CliError| -> ExitCode {
        for child in fleet.iter_mut() {
            sig::send(child.id(), sig::SIGINT);
            let _ = child.wait();
        }
        fail(err)
    };
    for d in 0..daemons {
        let socket = scratch.join(format!("d{d}.sock"));
        let _ = fs::remove_file(&socket);
        let spawned = std::process::Command::new(&exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .args(["--jobs", "2"])
            .stderr(std::process::Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => {
                sockets.push(socket);
                fleet.push(child);
            }
            Err(e) => {
                return give_up(
                    &mut fleet,
                    input_err(format!("cannot spawn daemon #{d}: {e}")),
                );
            }
        }
    }

    // Warm daemon #0 — and only daemon #0 — with one full prove. Every
    // conclusive verdict persists eagerly, so once this call returns the
    // shared journal on disk is complete; the other daemons were never
    // proved at and can only answer warm by *following* that journal.
    let mut warm_client = chaos_client(seed, 0x3A4, unix_endpoint(&sockets[0]));
    if let Err(e) = warm_client.call("prove", None, None) {
        return give_up(&mut fleet, input_err(format!("warmup prove failed: {e}")));
    }

    // Every client carries the whole fleet in its endpoint list, rotated
    // so the primaries differ across clients; the kill SIGKILLs daemon
    // #0 — the daemon that computed every proof.
    let victim_pid = fleet[0].id();
    let kill: Option<Kill> = kill_daemon.then(|| {
        Box::new(move || -> Result<u64, String> {
            if sig::send(victim_pid, sig::SIGKILL) {
                Ok(0)
            } else {
                Err(format!("kill-daemon: cannot SIGKILL daemon {victim_pid}"))
            }
        }) as Kill
    });
    let endpoints = |c: usize| {
        (0..daemons)
            .map(|k| stq_core::Endpoint::Unix(sockets[(c + k) % daemons].clone()))
            .collect()
    };
    let campaign = match chaos_campaign(seed, schedule, clients, endpoints, kill) {
        Ok(c) => c,
        Err(e) => return give_up(&mut fleet, input_err(format!("chaos campaign failed: {e}"))),
    };

    // The survivor's ledger: its cache counters first (so a reload that
    // re-validates libraries cannot perturb the miss count under test),
    // then a hot reload — the fleet must serve across qualifier-library
    // swaps, not just crashes — then the reload counter.
    let mut final_client = chaos_client(seed, 0xF1A7, unix_endpoint(&sockets[1]));
    let (survivor_misses, follow_hits) = match final_client.call("stats", None, None) {
        Ok(outcome) => (
            stats_counter(&outcome.doc, &["cache", "misses"], u64::MAX),
            stats_counter(&outcome.doc, &["cache", "follow_hits"], 0),
        ),
        Err(e) => return give_up(&mut fleet, input_err(format!("survivor stats failed: {e}"))),
    };
    if let Err(e) = final_client.call("reload", None, None) {
        return give_up(&mut fleet, input_err(format!("survivor reload failed: {e}")));
    }
    let reloads = match final_client.call("stats", None, None) {
        Ok(outcome) => stats_counter(&outcome.doc, &["reloads"], 0),
        Err(e) => return give_up(&mut fleet, input_err(format!("survivor stats failed: {e}"))),
    };

    // Shut the survivors down through the protocol; the killed daemon's
    // non-clean exit is the whole point, so only reap it.
    let mut clean_shutdowns = true;
    for (d, child) in fleet.iter_mut().enumerate() {
        if kill_daemon && d == 0 {
            let _ = child.wait();
            continue;
        }
        let mut client = chaos_client(seed, 0x0FF0 + d as u64, unix_endpoint(&sockets[d]));
        if client.call("shutdown", None, None).is_err() {
            clean_shutdowns = false;
        }
        if !child.wait().ok().is_some_and(|s| s.success()) {
            clean_shutdowns = false;
        }
    }

    let report = ChaosReport {
        seed,
        clients,
        daemons,
        daemon_killed: kill_daemon,
        net_faults: (0, 0),
        warm_cache_miss_delta: survivor_misses,
        follow_hits,
        reloads,
        worker_killed: false,
        worker_restarts: 0,
        clean_shutdown: clean_shutdowns,
    };
    let failovers = campaign.client.failovers;
    let summary = format!(
        " across {daemons} daemon(s), {failovers} failover(s), {follow_hits} follow hit(s), \
         {reloads} reload(s){}",
        if kill_daemon { ", daemon #0 killed" } else { "" },
    );
    report.finish(
        &campaign,
        baseline,
        out,
        &summary,
        &[
            (
                survivor_misses != 0,
                format!(
                    "the surviving daemon missed {survivor_misses} time(s); \
                     the shared journal did not keep it warm"
                ),
            ),
            (
                follow_hits == 0,
                "the survivor never adopted a peer journal entry".to_owned(),
            ),
            (
                reloads == 0,
                "the survivor never completed a hot reload".to_owned(),
            ),
            (
                kill_daemon && failovers == 0,
                "the daemon died but no client ever failed over".to_owned(),
            ),
            (
                !clean_shutdowns,
                "a surviving daemon did not exit cleanly".to_owned(),
            ),
        ],
    )
}

#[cfg(not(unix))]
fn chaos_serve(_args: &[String]) -> ExitCode {
    fail(usage_err("chaos-serve requires unix sockets"))
}
