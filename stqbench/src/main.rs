//! stqbench: one seeded, traced benchmark of the four ways the system is
//! used — checking programs in-process (`check_corpus`), proving a fresh
//! qualifier registry cold (`prove_cold`), a daemon under mixed open-loop
//! traffic (`serve_mixed`), and the one-shot CLI (`oneshot_cli`). Every
//! answer is checked against known answers from the paper. Run it from
//! the repository root after `cargo build --release`; see README.md.

mod inproc;
mod inputs;
mod oneshot;
mod oracle;
mod report;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;

use report::{Outcome, Spec};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use stq_util::json::Json;

const USAGE: &str = "\
usage:
  stqbench [--seed N] [--runs N] [--trace] [--out FILE] [--seconds S]
      run every workload, each in a fresh child process, --runs times,
      and print one JSON document: every metric's median and quartiles
      (with --trace, also one traced run: the per-layer metrics)
  stqbench --workload NAME --seed N --seconds S --trace 0|1 [--max-rate]
      run one workload; the last line printed is its result. A traced
      run (--trace 1) traces all four workloads, a quarter of S each.
  stqbench compare A.json B.json
      judge B against A, per end-to-end metric per workload, with the
      bounds of BENCHMARK.json
workloads: check_corpus prove_cold serve_mixed oneshot_cli";

/// How long each workload measures in the full suite, in seconds: the
/// serve phase at the nominal rate is followed by the max-rate search.
fn suite_seconds(workload: &str) -> f64 {
    if workload == serve::SERVE_MIXED {
        12.0
    } else {
        20.0
    }
}

/// Parsed command-line flags.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    seed: u64,
    runs: usize,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    workload: Option<String>,
    dir: Option<PathBuf>,
    max_rate: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        runs: 1,
        ..Args::default()
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--seed" => args.seed = number(&value("a number")?)?,
            "--runs" => args.runs = number(&value("a number")?)?,
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
                args.seconds = Some(s);
            }
            "--out" => args.out = Some(value("a file")?.into()),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--dir" => args.dir = Some(value("a directory")?.into()),
            "--max-rate" => args.max_rate = true,
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                args.trace = argv
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("compare") => compare(&args),
        Some("worker") => worker(&args),
        Some("startup-probe") => {
            oneshot::startup_probe();
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None if args.workload.is_some() => single(&args),
        None => suite(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The in-process child of `check_corpus` and `prove_cold`.
fn worker(args: &Args) -> Result<bool, String> {
    let workload = args.positional.get(1).ok_or("worker needs a workload")?;
    let dir = args.dir.clone().unwrap_or_default();
    let seconds = args.seconds.ok_or("worker needs --seconds")?;
    inproc::worker(workload, args.seed, seconds, args.trace, &dir)?;
    Ok(true)
}

/// Runs one workload, untraced.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    max_rate: bool,
) -> Result<Outcome, String> {
    match workload {
        inproc::CHECK_CORPUS | inproc::PROVE_COLD => inproc::run(workload, seed, seconds, false),
        serve::SERVE_MIXED => serve::run(seed, seconds, false, max_rate),
        oneshot::ONESHOT_CLI => oneshot::run(seed, seconds, false),
        _ => Err(format!("unknown workload `{workload}`\n{USAGE}")),
    }
}

/// The traced run: every workload for a quarter of `seconds`, so each
/// per-layer metric is measured on the workload that exercises its layer.
fn run_traced(seed: u64, seconds: f64) -> Result<Vec<Outcome>, String> {
    let quarter = seconds / 4.0;
    Ok(vec![
        inproc::run(inproc::CHECK_CORPUS, seed, quarter, true)?,
        inproc::run(inproc::PROVE_COLD, seed, quarter, true)?,
        serve::run(seed, quarter, true, false)?,
        oneshot::run(seed, quarter, true)?,
    ])
}

/// Single-workload mode: prints the outcomes on one line, then the
/// result line with exactly the declared metrics.
fn single(args: &Args) -> Result<bool, String> {
    let spec = report::spec();
    let workload = args
        .workload
        .as_deref()
        .expect("single mode has a workload");
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let outcomes = if args.trace {
        run_traced(args.seed, seconds)?
    } else {
        vec![run_workload(workload, args.seed, seconds, args.max_rate)?]
    };
    let detail = Json::Arr(outcomes.iter().map(Outcome::to_json).collect());
    println!("{}", report::obj(vec![("outcomes", detail)]));
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report::result_line(&outcomes, declared)?);
    let mut correct = true;
    for o in &outcomes {
        for f in &o.failures {
            eprintln!("stqbench: {}: {f}", o.workload);
        }
        correct &= o.correct();
    }
    Ok(correct)
}

/// Runs a child `stqbench` in single-workload mode; returns its outcomes,
/// and whether it exited cleanly.
fn child_outcomes(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Vec<Outcome>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if workload == serve::SERVE_MIXED && !trace {
        cmd.arg("--max-rate");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning stqbench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with(r#"{"outcomes":"#))
        .ok_or_else(|| format!("the {workload} run printed no outcomes"))?;
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    let outcomes = doc
        .get("outcomes")
        .and_then(Json::as_array)
        .ok_or("no outcomes")?
        .iter()
        .map(Outcome::from_json)
        .collect::<Result<_, _>>()?;
    Ok((outcomes, output.status.success()))
}

/// The full suite: every workload in a fresh child process, `--runs`
/// times, then with `--trace` one traced run.
fn suite(args: &Args) -> Result<bool, String> {
    let spec = report::spec();
    let mut ok = true;
    let mut runs = Vec::with_capacity(args.runs);
    for run in 1..=args.runs {
        let mut outcomes = Vec::new();
        for workload in &spec.workloads {
            let seconds = args.seconds.unwrap_or_else(|| suite_seconds(workload));
            let (mut o, clean) = child_outcomes(workload, args.seed, seconds, false)?;
            ok &= clean;
            let o = o.pop().ok_or("a workload run returned no outcome")?;
            eprintln!("stqbench: run {run}/{}: {}", args.runs, summary(&o));
            outcomes.push(o);
        }
        runs.push(outcomes);
    }
    let mut traced = Vec::new();
    if args.trace {
        let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
        let (outcomes, clean) = child_outcomes(&spec.workloads[0], args.seed, seconds, true)?;
        ok &= clean;
        traced = outcomes;
        add_trace_overhead(&mut traced, &runs);
    }
    let doc = report::suite_document(args.seed, &runs, &traced, &spec, ok);
    let text = doc.to_string();
    println!("{text}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{text}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// Traced p50 latency over the untraced median, per workload.
fn add_trace_overhead(traced: &mut [Outcome], runs: &[Vec<Outcome>]) {
    for t in traced {
        let untraced: Vec<f64> = runs
            .iter()
            .flatten()
            .filter(|o| o.workload == t.workload)
            .filter_map(|o| o.get("latency_ms_p50").map(|m| m.value))
            .collect();
        let traced_p50 = t.get("latency_ms_p50").map(|m| m.value);
        if let (Some(p50), false) = (traced_p50, untraced.is_empty()) {
            let (_, median, _) = stats::quartiles(&untraced);
            let ratio = p50 / median;
            t.add("trace_overhead", ratio, "ratio", report::Better::Lower);
        }
    }
}

/// One progress line per workload run.
fn summary(o: &Outcome) -> String {
    let mut parts = vec![o.workload.clone()];
    for m in &o.metrics {
        if !m.name.contains('.') {
            parts.push(format!("{}={:.4} {}", m.name, m.value, m.unit));
        }
    }
    parts.push(format!("failed={}/{}", o.failed, o.attempted));
    parts.join(" ")
}

fn compare(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(format!("compare needs two documents\n{USAGE}"));
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let spec: Spec = report::spec();
    print!("{}", report::compare(&read(a)?, &read(b)?, &spec)?);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        parse_args(line.split_whitespace().map(str::to_owned)).unwrap()
    }

    #[test]
    fn both_trace_spellings_parse() {
        let single = parse("--workload serve_mixed --seed 3 --seconds 20 --trace 1");
        assert!(single.trace);
        assert_eq!(single.seed, 3);
        assert_eq!(single.seconds, Some(20.0));
        assert!(!parse("--workload x --trace 0 --seed 2").trace);
        let suite = parse("--seed 1 --trace --runs 5");
        assert!(suite.trace);
        assert_eq!(suite.runs, 5);
        assert!(parse_args(["--seconds".to_owned(), "0".to_owned()].into_iter()).is_err());
        assert!(parse_args(["--bogus".to_owned()].into_iter()).is_err());
    }
}
