//! `oneshot_cli`: what CI and build integrations pay per file. Each
//! operation spawns `stqc check FILE` or `stqc prove [--quals gen.q]
//! NAME` and waits for its exit code, in a closed loop with one caller.

use crate::inproc::{add_latencies, closed_loop, ms_since, MIN_SAMPLES, SETUP_STARTS};
use crate::inputs::{self, CorpusFile};
use crate::oracle;
use crate::report::{Better, Outcome};
use crate::rng::{Deck, Rng};
use crate::stats::Samples;
use crate::sys;
use crate::trace::{self, Tracer};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use stq_util::json::Json;

pub const ONESHOT_CLI: &str = "oneshot_cli";

/// `stqc --help` spawns whose median is the process floor.
const SPAWN_PROBES: usize = 21;
/// Fresh `startup-probe` children whose medians time first calls.
const STARTUP_PROBES: usize = 9;
const LIBRARY_FILE: &str = "gen.q";

/// One `stqc` invocation.
enum Op<'a> {
    Check(&'a CorpusFile),
    Prove(&'a str),
}

impl Op<'_> {
    fn span(&self) -> &'static str {
        match self {
            Op::Check(_) => "process.check",
            Op::Prove(_) => "process.prove",
        }
    }

    /// The exit code the oracle expects.
    fn expected_exit(&self) -> Option<i32> {
        match self {
            Op::Check(file) => oracle::check_exit(file.name),
            Op::Prove(name) => oracle::expected_verdict(name).map(oracle::Expect::exit_code),
        }
    }

    /// Runs `stqc` in `dir` and checks its exit code.
    fn run(&self, stqc: &Path, dir: &Path) -> Result<(), String> {
        let mut cmd = Command::new(stqc);
        cmd.current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match self {
            Op::Check(file) => {
                cmd.arg("check");
                if file.flow_sensitive {
                    cmd.arg("--flow-sensitive");
                }
                cmd.arg(format!("{}.c", file.name));
            }
            Op::Prove(name) => {
                cmd.arg("prove");
                if !inputs::BUILTINS.contains(name) {
                    cmd.args(["--quals", LIBRARY_FILE]);
                }
                cmd.arg(name);
            }
        }
        let code = cmd
            .status()
            .map_err(|e| format!("spawning stqc: {e}"))?
            .code();
        let want = self.expected_exit();
        if code.is_some() && code == want {
            Ok(())
        } else {
            let what = match self {
                Op::Check(file) => format!("check {}", file.name),
                Op::Prove(name) => format!("prove {name}"),
            };
            Err(format!("stqc {what} exited {code:?}, want {want:?}"))
        }
    }
}

/// Runs `oneshot_cli`. A one-shot process has no set-up of its own, so a
/// fresh start is one uncounted warm-up check of the paper-scale dfa in a
/// new directory of inputs: the time to a first answer.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let stqc = std::fs::canonicalize(sys::stqc()?).map_err(|e| e.to_string())?;
    let files = inputs::corpus();
    oracle::verify_corpus(&files)?;
    let ks = inputs::thresholds(&mut Rng::new(seed, "oneshot_cli.thresholds"), 4);
    let library = inputs::library(&ks);
    let names = inputs::library_names(&ks);
    let work = sys::WorkDir::new(ONESHOT_CLI)?;
    let root = work.path();
    let starts = if traced { 1 } else { SETUP_STARTS };
    let mut setup = Vec::with_capacity(starts);
    let mut dir = root.to_path_buf();
    for start in 0..starts {
        dir = root.join(format!("start{start}"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| inputs::write_corpus(&dir, &files))
            .and_then(|()| std::fs::write(dir.join(LIBRARY_FILE), &library))
            .map_err(|e| format!("writing inputs: {e}"))?;
        let t0 = Instant::now();
        Op::Check(&files[inputs::DFA_1X]).run(&stqc, &dir)?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    let tracer = Tracer::new(traced);
    let mut out = Outcome::new(ONESHOT_CLI);
    let draw = |label: &str, weights: &[u32]| Deck::new(Rng::new(seed, label), weights);
    let mut kinds = draw("oneshot_cli.kinds", &[1, 1]);
    let mut checks = draw("oneshot_cli.files", &inputs::ONESHOT_CHECK_WEIGHTS);
    let mut proves = draw("oneshot_cli.names", &vec![1; names.len()]);
    let min_ops = if traced { 0 } else { MIN_SAMPLES };
    let latencies = closed_loop(seconds, min_ops, |req| {
        let op = if kinds.deal() == 0 {
            Op::Check(&files[checks.deal()])
        } else {
            Op::Prove(&names[proves.deal()])
        };
        let t0 = Instant::now();
        let result = tracer.span(op.span(), None, req, |_| op.run(&stqc, &dir));
        let ms = ms_since(t0);
        out.check(result);
        ms
    });
    add_latencies(&mut out, latencies, traced)?;
    if traced {
        let floor: Vec<f64> = (0..SPAWN_PROBES)
            .map(|i| {
                let t0 = Instant::now();
                tracer.span("process.spawn_floor", None, i as u64, |_| {
                    Command::new(&stqc)
                        .arg("--help")
                        .stdout(Stdio::null())
                        .status()
                        .map_err(|e| e.to_string())
                })?;
                Ok(ms_since(t0))
            })
            .collect::<Result<_, String>>()?;
        out.add(
            "process.spawn_floor_ms",
            Samples::new(floor).p50(),
            "ms",
            Better::Lower,
        );
        let (builtins, theory) = startup_probes()?;
        out.add("qualspec.builtins_ms", builtins, "ms", Better::Lower);
        out.add("soundness.theory_prep_ms", theory, "ms", Better::Lower);
        trace::write_jsonl(&sys::trace_path(ONESHOT_CLI), &tracer.take())
            .map_err(|e| format!("trace: {e}"))?;
    } else {
        let rss = sys::children_maxrss_mb().ok_or("cannot read the children's peak RSS")?;
        out.add("peak_rss_mb", rss, "MiB", Better::Lower);
        out.add("setup_s", Samples::new(setup).p50(), "s", Better::Lower);
        out.add_failed_share();
    }
    Ok(out)
}

/// Medians over fresh processes of the first `Registry::builtins()` and
/// the first `background_theory()` call, in milliseconds.
fn startup_probes() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut builtins, mut theory) = (Vec::new(), Vec::new());
    for _ in 0..STARTUP_PROBES {
        let output = Command::new(&exe)
            .arg("startup-probe")
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("startup probe: {e}"))?;
        let doc = Json::parse(String::from_utf8_lossy(&output.stdout).trim())
            .map_err(|e| format!("startup probe: {e}"))?;
        let ms = |key| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or("startup probe output")
        };
        builtins.push(ms("builtins_ms")?);
        theory.push(ms("theory_prep_ms")?);
    }
    Ok((Samples::new(builtins).p50(), Samples::new(theory).p50()))
}

/// The child side of [`startup_probes`]: times the first calls a one-shot
/// process makes before any qualifier work.
pub fn startup_probe() {
    let t0 = Instant::now();
    std::hint::black_box(stq_qualspec::Registry::builtins());
    let builtins = ms_since(t0);
    let t1 = Instant::now();
    std::hint::black_box(stq_soundness::background_theory());
    let theory = ms_since(t1);
    println!(r#"{{"builtins_ms":{builtins},"theory_prep_ms":{theory}}}"#);
}
