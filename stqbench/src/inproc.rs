//! The in-process workloads, `check_corpus` and `prove_cold`. Each run
//! happens in a fresh child process (this binary's `worker` mode) that
//! calls the library in a closed loop with one caller.

use crate::inputs::{self, CorpusFile};
use crate::oracle::{self, Observed};
use crate::report::{Better, Outcome};
use crate::rng::{Deck, Rng};
use crate::stats::Samples;
use crate::sys::{self, Reaped};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use stq_core::{
    Budget, CheckOptions, CheckStats, ProofCache, ProverStats, QualReport, RetryPolicy, Session,
    SoundnessReport, Verdict,
};
use stq_logic::Outcome as Proof;
use stq_qualspec::{QualifierDef, Registry};
use stq_soundness::{
    background_theory, build_obligation, obligation_specs, CachedProof, ObligationResult,
    ObligationSpec, SolverWorker,
};
use stq_util::json::Json;
use stq_util::CancelToken;

pub const CHECK_CORPUS: &str = "check_corpus";
pub const PROVE_COLD: &str = "prove_cold";

/// Fresh starts per run; set-up time is their median.
pub const SETUP_STARTS: usize = 9;
/// An untraced phase runs at least this many operations, so that ten
/// samples lie beyond p99.
pub const MIN_SAMPLES: usize = 1000;
/// Prover worker threads in `prove_cold`.
const JOBS: usize = 2;

/// Runs one in-process workload: `SETUP_STARTS` fresh children each set
/// up and run one warm-up operation; the last one then measures. A traced
/// run starts one child.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let work = sys::WorkDir::new(workload)?;
    let dir = work.path();
    if workload == CHECK_CORPUS {
        let files = inputs::corpus();
        oracle::verify_corpus(&files)?;
        inputs::write_corpus(dir, &files).map_err(|e| format!("corpus: {e}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let starts = if traced { 1 } else { SETUP_STARTS };
    let mut setup = Vec::with_capacity(starts);
    let mut outcome = None;
    for start in 0..starts {
        let t0 = Instant::now();
        let mut child = Reaped::spawn_piped(
            Command::new(&exe)
                .args(["worker", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }, "--dir"])
                .arg(dir),
        )
        .map_err(|e| format!("spawning the {workload} worker: {e}"))?;
        let ready = child.read_line().map_err(|e| e.to_string())?;
        if ready.as_deref() != Some("ready") {
            return Err(format!("the {workload} worker failed during set-up"));
        }
        setup.push(t0.elapsed().as_secs_f64());
        let io_err = |e: io::Error| format!("{workload} worker: {e}");
        if start + 1 < starts {
            child.write_line("exit").map_err(io_err)?;
            child.wait().map_err(io_err)?;
            continue;
        }
        child.write_line("go").map_err(io_err)?;
        let line = child.read_line().map_err(io_err)?;
        let code = child.wait().map_err(io_err)?;
        let line = line
            .filter(|_| code == Some(0))
            .ok_or_else(|| format!("the {workload} worker failed (exit {code:?})"))?;
        let doc = Json::parse(&line).map_err(|e| format!("worker result: {e}"))?;
        outcome = Some(Outcome::from_json(&doc)?);
    }
    let mut outcome = outcome.expect("the last start measures");
    if !traced {
        outcome.add("setup_s", Samples::new(setup).p50(), "s", Better::Lower);
    }
    Ok(outcome)
}

/// The child side of [`run`]: sets up, runs one uncounted warm-up
/// operation, reports `ready`, and measures if told `go`.
pub fn worker(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<(), String> {
    let tracer = Tracer::new(traced);
    let outcome = match workload {
        CHECK_CORPUS => check_corpus(dir, seed, seconds, &tracer)?,
        PROVE_COLD => prove_cold(seed, seconds, &tracer)?,
        _ => return Err(format!("`{workload}` is not an in-process workload")),
    };
    if let Some(outcome) = outcome {
        println!("{}", outcome.to_json());
    }
    Ok(())
}

/// Tells the parent set-up is done; true when it says to measure.
fn ready() -> Result<bool, String> {
    let mut out = io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    Ok(line.trim() == "go")
}

/// Calls `op` with consecutive operation numbers until `seconds` have
/// passed and at least `min_ops` operations have run, or a minute more
/// has passed. Returns each call's latency.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(u64) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    loop {
        let t = start.elapsed().as_secs_f64();
        if (t >= seconds && latencies.len() >= min_ops) || t >= seconds + 60.0 {
            return latencies;
        }
        latencies.push(op(latencies.len() as u64));
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Latency percentiles, plus the count of samples behind them. An
/// untraced phase must reach p99.
pub fn add_latencies(out: &mut Outcome, latencies: Vec<f64>, traced: bool) -> Result<(), String> {
    let s = Samples::new(latencies);
    let n = Some(s.len() as u64);
    if s.is_empty() {
        return Err("no operation completed".to_owned());
    }
    out.add_counted("latency_ms_p50", s.p50(), "ms", Better::Lower, n);
    if !traced {
        let p99 = s
            .p99()
            .ok_or_else(|| format!("{} samples cannot support p99", s.len()))?;
        out.add_counted("latency_ms_p99", p99, "ms", Better::Lower, n);
    }
    Ok(())
}

/// Per-operation self time of each layer, and the share of traced time
/// the layers cover (the rest is the benchmark's own glue: `glue` spans).
fn add_self_times(
    out: &mut Outcome,
    workload: &str,
    tracer: &Tracer,
    ops: usize,
    glue: &[&str],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let spans = tracer.take();
    trace::write_jsonl(&sys::trace_path(workload), &spans).map_err(|e| format!("trace: {e}"))?;
    let own = trace::self_by_name(&spans);
    let total: f64 = own.values().sum();
    let mut layers = 0.0;
    for (name, us) in &own {
        if !glue.contains(name) {
            layers += us;
            let per_op = us / 1e3 / ops.max(1) as f64;
            out.add(&format!("{name}.self_ms"), per_op, "ms", Better::Lower);
        }
    }
    let coverage = layers / total;
    if coverage < 0.95 {
        eprintln!(
            "stqbench: {workload}: layer spans cover only {:.1}% of traced time",
            coverage * 100.0
        );
    }
    out.add("trace.coverage", coverage, "ratio", Better::Higher);
    let mut durations = BTreeMap::new();
    for s in &spans {
        *durations.entry(s.name).or_insert(0.0) += s.duration_us();
    }
    Ok(durations)
}

/// `check_corpus`: parse, check, and instrument one seeded corpus file
/// per operation, against the builtin qualifiers.
fn check_corpus(
    dir: &Path,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Option<Outcome>, String> {
    let files = inputs::load_corpus(dir).map_err(|e| format!("corpus: {e}"))?;
    let session = Session::with_builtins();
    let check = |file: &CorpusFile, req: u64| -> (f64, Observed, CheckStats) {
        let t0 = Instant::now();
        let (syntax_errors, stats) = tracer.span("op", None, req, |op| {
            let (program, syntax) = tracer.span("cir.parse", op, req, |_| {
                session.parse_resilient(&file.source)
            });
            let options = CheckOptions {
                flow_sensitive: file.flow_sensitive,
            };
            let stats = tracer.span("typecheck.check", op, req, |_| {
                session.check_with(&program, options).stats
            });
            tracer.span("typecheck.instrument", op, req, |_| {
                black_box(session.instrument(&program));
            });
            tracer.span("cir.drop", op, req, |_| drop(program));
            (syntax.len(), stats)
        });
        let ms = ms_since(t0);
        let observed = Observed {
            syntax_errors,
            ..Observed::from(&stats)
        };
        (ms, observed, stats)
    };

    let warm_up = &files[inputs::DFA_1X];
    let (_, observed, _) = check(warm_up, 0);
    oracle::verify_check(warm_up.name, &observed)?;
    tracer.take();
    if !ready()? {
        return Ok(None);
    }

    let mut out = Outcome::new(CHECK_CORPUS);
    let mut draw = Deck::new(Rng::new(seed, "check_corpus.draw"), &inputs::CHECK_WEIGHTS);
    let mut lines = 0usize;
    let mut totals = CheckTotals::default();
    let min_ops = if tracer.enabled() { 0 } else { MIN_SAMPLES };
    let latencies = closed_loop(seconds, min_ops, |req| {
        let file = &files[draw.deal()];
        let (ms, observed, stats) = check(file, req);
        out.check(oracle::verify_check(file.name, &observed));
        lines += file.lines;
        totals.add(&stats);
        ms
    });
    let ops = latencies.len();
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    add_latencies(&mut out, latencies, tracer.enabled())?;
    if tracer.enabled() {
        add_self_times(&mut out, CHECK_CORPUS, tracer, ops, &["op"])?;
        let parse_ms = out.get("cir.parse.self_ms").map_or(0.0, |m| m.value);
        let parse_s = parse_ms * ops as f64 / 1e3;
        out.add(
            "cir.parse.lines_per_s",
            lines as f64 / parse_s,
            "lines/s",
            Better::Higher,
        );
        totals.report(&mut out, ops);
    } else {
        out.add_counted(
            "lines_per_s",
            lines as f64 / busy_s,
            "lines/s",
            Better::Higher,
            Some(ops as u64),
        );
        add_peak_rss(&mut out)?;
        out.add_failed_share();
    }
    Ok(Some(out))
}

fn add_peak_rss(out: &mut Outcome) -> Result<(), String> {
    let mb = sys::vm_hwm_mb(None).ok_or("cannot read VmHWM")?;
    out.add("peak_rss_mb", mb, "MiB", Better::Lower);
    Ok(())
}

/// Sums of the checker's work counters.
#[derive(Default)]
struct CheckTotals {
    exprs_visited: u64,
    match_attempts: u64,
    memo_hits: u64,
    memo_misses: u64,
    restrict_checks: u64,
    case_applications: u64,
    casts_instrumented: u64,
}

impl CheckTotals {
    fn add(&mut self, s: &CheckStats) {
        self.exprs_visited += s.exprs_visited;
        self.match_attempts += s.match_attempts;
        self.memo_hits += s.memo_hits;
        self.memo_misses += s.memo_misses;
        self.restrict_checks += s.restrict_checks as u64;
        self.case_applications += s.case_applications;
        self.casts_instrumented += s.casts_instrumented as u64;
    }

    fn report(&self, out: &mut Outcome, ops: usize) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let counts = [
            ("typecheck.exprs_visited", self.exprs_visited),
            ("typecheck.match_attempts", self.match_attempts),
            ("typecheck.restrict_checks", self.restrict_checks),
            ("typecheck.case_applications", self.case_applications),
            ("typecheck.casts_instrumented", self.casts_instrumented),
        ];
        for (name, v) in counts {
            out.add(name, per_op(v), "count", Better::Lower);
        }
        let lookups = (self.memo_hits + self.memo_misses).max(1);
        let ratio = self.memo_hits as f64 / lookups as f64;
        out.add("typecheck.memo_hit_ratio", ratio, "ratio", Better::Higher);
    }
}

/// `prove_cold`: prove a fresh registry — the builtins, `extra.q`, four
/// seeded `atleast` definitions, and the two paper mutants — with a new
/// in-memory proof cache and two prover threads.
fn prove_cold(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Option<Outcome>, String> {
    let prove = |ks: &[i64], req: u64| -> (f64, Result<SoundnessReport, String>) {
        let library = inputs::library(ks);
        let names = inputs::library_names(ks);
        let t0 = Instant::now();
        let report = if tracer.enabled() {
            prove_traced(&library, req, tracer)
        } else {
            prove_session(&library)
        };
        let ms = ms_since(t0);
        let checked = report.and_then(|r| oracle::verify_soundness(&r, &names).map(|()| r));
        (ms, checked)
    };

    prove(&[0, -1, 1, -2], 0).1?;
    tracer.take();
    if !ready()? {
        return Ok(None);
    }
    let mut out = Outcome::new(PROVE_COLD);
    let mut totals = ProveTotals::default();
    let mut draw = Rng::new(seed, "prove_cold.thresholds");
    let min_ops = if tracer.enabled() { 0 } else { MIN_SAMPLES };
    let latencies = closed_loop(seconds, min_ops, |req| {
        let (ms, checked) = prove(&inputs::thresholds(&mut draw, 4), req);
        if let Ok(report) = &checked {
            totals.add(report);
        }
        out.check(checked.map(|_| ()));
        ms
    });
    let ops = latencies.len();
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    add_latencies(&mut out, latencies, tracer.enabled())?;
    if tracer.enabled() {
        let durations = add_self_times(&mut out, PROVE_COLD, tracer, ops, &["op", "obligation"])?;
        let busy = durations.get("obligation").copied().unwrap_or(0.0);
        let wall = durations.get("op").copied().unwrap_or(0.0) * JOBS as f64;
        out.add(
            "soundness.pool.utilization",
            busy / wall,
            "ratio",
            Better::Higher,
        );
        totals.report(&mut out, ops);
    } else {
        let rate = totals.obligations as f64 / busy_s;
        out.add_counted(
            "obligations_per_s",
            rate,
            "1/s",
            Better::Higher,
            Some(ops as u64),
        );
        add_peak_rss(&mut out)?;
        out.add_failed_share();
    }
    Ok(Some(out))
}

/// The untraced operation: one public call on a fresh session.
fn prove_session(library: &str) -> Result<SoundnessReport, String> {
    let mut session = Session::with_builtins();
    session
        .define_qualifiers(library)
        .map_err(|e| format!("defining the library: {e}"))?;
    let cache = ProofCache::in_memory();
    Ok(
        session.prove_all_sound_pipeline(
            Budget::default(),
            RetryPolicy::none(),
            JOBS,
            Some(&cache),
        ),
    )
}

/// Prover work summed over a phase.
#[derive(Default)]
struct ProveTotals {
    stats: ProverStats,
    obligations: u64,
    refutations: u64,
    resource_outs: u64,
}

impl ProveTotals {
    fn add(&mut self, report: &SoundnessReport) {
        self.stats.absorb(&report.totals);
        for o in report.reports.iter().flat_map(|r| &r.obligations) {
            self.obligations += 1;
            if o.resource.is_some() {
                self.resource_outs += 1;
            } else if !o.proved && o.crashed.is_none() {
                self.refutations += 1;
            }
        }
    }

    fn report(&self, out: &mut Outcome, ops: usize) {
        let per_op = |v: f64| v / ops.max(1) as f64;
        let s = &self.stats;
        let counts = [
            ("logic.decisions", s.decisions as f64),
            ("logic.propagations", s.propagations as f64),
            ("logic.conflicts", s.conflicts as f64),
            ("logic.theory_checks", s.theory_checks as f64),
            ("logic.rounds", s.rounds as f64),
            ("logic.instantiations", s.instantiations as f64),
            ("logic.ematch_candidates", s.ematch_candidates as f64),
            ("logic.merges", s.merges as f64),
            ("logic.fm_eliminations", s.fm_eliminations as f64),
            ("logic.refutations", self.refutations as f64),
            ("logic.resource_outs", self.resource_outs as f64),
            ("soundness.cache.hits", s.cache_hits as f64),
        ];
        for (name, v) in counts {
            out.add(name, per_op(v), "count", Better::Lower);
        }
        out.add(
            "logic.max_clauses",
            s.max_clauses as f64,
            "count",
            Better::Lower,
        );
        let candidates = (s.ematch_candidates as f64).max(1.0);
        let yield_ = s.instantiations as f64 / candidates;
        out.add("logic.ematch_yield", yield_, "ratio", Better::Higher);
    }
}

/// `prove_cold`'s operation with a span around each layer call: the
/// checking pipeline rebuilt from the public pieces it is made of —
/// registry definition, obligation generation, cache lookup, the prover,
/// cache recording, report assembly — on the same worker pool.
fn prove_traced(library: &str, req: u64, tracer: &Tracer) -> Result<SoundnessReport, String> {
    tracer.span("op", None, req, |op| {
        let start = Instant::now();
        let registry = tracer.span("qualspec.define", op, req, |_| {
            let mut registry = Registry::builtins();
            registry.add_source(library).map(|()| registry)
        });
        let registry = registry.map_err(|e| format!("defining the library: {e}"))?;
        let defs: Vec<&QualifierDef> = registry.iter().collect();
        let tasks: Vec<(usize, ObligationSpec)> =
            tracer.span("soundness.obligations", op, req, |_| {
                defs.iter()
                    .enumerate()
                    .flat_map(|(qi, def)| obligation_specs(def).into_iter().map(move |s| (qi, s)))
                    .collect()
            });
        let cache = ProofCache::in_memory();
        let (budget, retry) = (Budget::default(), RetryPolicy::none());
        let slots = tracer.span("util.pool", op, req, |pool| {
            stq_util::pool::run_indexed_stateful_cancellable(
                JOBS,
                tasks,
                &CancelToken::new(),
                || {
                    tracer.span("logic.solver", pool, req, |_| {
                        SolverWorker::new(background_theory())
                    })
                },
                |worker, _, (qi, spec)| {
                    tracer.span("obligation", pool, req, |ob| {
                        let t0 = Instant::now();
                        let mut obligation = tracer.span("soundness.obligations", ob, req, |_| {
                            build_obligation(&registry, defs[qi], &spec)
                        });
                        let (fp, hit) = tracer.span("soundness.cache", ob, req, |_| {
                            obligation.problem.config = budget;
                            let fp = obligation.problem.fingerprint(retry);
                            (fp, cache.lookup(fp))
                        });
                        let description = obligation.description;
                        let result = match hit {
                            Some(proof) => cached_result(description, proof),
                            None => {
                                let proof = tracer.span("logic.solver", ob, req, |_| {
                                    worker.prove_isolated(&obligation.problem)
                                });
                                tracer
                                    .span("soundness.cache", ob, req, |_| cache.record(fp, &proof));
                                proved_result(description, proof)
                            }
                        };
                        (
                            qi,
                            ObligationResult {
                                duration: t0.elapsed(),
                                ..result
                            },
                        )
                    })
                },
            )
        });
        tracer.span("soundness.report", op, req, |_| {
            let mut per_def: Vec<Vec<ObligationResult>> = defs.iter().map(|_| Vec::new()).collect();
            for slot in slots {
                let (qi, result) = slot.ok_or("an obligation never ran")?;
                per_def[qi].push(result);
            }
            let reports: Vec<QualReport> = defs
                .iter()
                .zip(per_def)
                .map(|(def, obligations)| QualReport {
                    qualifier: def.name,
                    verdict: if def.invariant.is_some() {
                        verdict_of(&obligations)
                    } else {
                        Verdict::NoInvariant
                    },
                    duration: obligations.iter().map(|o| o.duration).sum(),
                    obligations,
                })
                .collect();
            let mut totals = ProverStats::default();
            for r in &reports {
                totals.absorb(&r.totals());
            }
            Ok(SoundnessReport {
                reports,
                budget,
                retry,
                totals,
                duration: start.elapsed(),
                jobs: JOBS,
            })
        })
    })
}

/// An obligation answered from the proof cache.
fn cached_result(description: String, proof: CachedProof) -> ObligationResult {
    let (proved, countermodel) = match proof {
        CachedProof::Proved => (true, Vec::new()),
        CachedProof::Refuted { model } => (false, model),
    };
    ObligationResult {
        description,
        proved,
        countermodel,
        resource: None,
        crashed: None,
        skipped: false,
        attempts: 0,
        stats: ProverStats {
            cache_hits: 1,
            ..ProverStats::default()
        },
        duration: Duration::ZERO,
    }
}

/// An obligation the prover ran once, with a cache that missed.
fn proved_result(description: String, proof: Proof) -> ObligationResult {
    let mut stats = proof.stats().clone();
    stats.cache_misses += 1;
    let proved = proof.is_proved();
    let (countermodel, resource, crashed) = match proof {
        Proof::Proved { .. } => (Vec::new(), None, None),
        Proof::Refuted { model, .. } => (model, None, None),
        Proof::ResourceOut { resource, .. } => (Vec::new(), Some(resource), None),
        Proof::Crashed { message, .. } => (Vec::new(), None, Some(message)),
    };
    ObligationResult {
        description,
        proved,
        countermodel,
        resource,
        crashed,
        skipped: false,
        attempts: 1,
        stats,
        duration: Duration::ZERO,
    }
}

/// The checker's verdict precedence: a refutation outranks a crash
/// outranks a budget exhaustion outranks soundness.
fn verdict_of(results: &[ObligationResult]) -> Verdict {
    let any = |f: fn(&ObligationResult) -> bool| results.iter().any(f);
    if any(|o| !o.proved && o.crashed.is_none() && o.resource.is_none()) {
        Verdict::Unsound
    } else if any(|o| o.crashed.is_some()) {
        Verdict::Crashed
    } else if any(|o| o.resource.is_some()) {
        Verdict::ResourceOut
    } else {
        Verdict::Sound
    }
}
