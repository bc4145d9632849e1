//! `serve_mixed`: a real `stqc serve --jobs 2` daemon on one Unix
//! connection, fed seeded Poisson traffic in an open loop. One sender
//! thread writes each request when it is due; one receiver thread
//! matches responses by `id`. Every request is timed from its due time,
//! so a stall also counts against the requests queued behind it.

use crate::inputs::{self, CorpusFile};
use crate::oracle::{self, Observed};
use crate::report::{Better, Outcome};
use crate::rng::{Deck, Rng};
use crate::stats::Samples;
use crate::sys::{self, Reaped};
use crate::trace::{self, Span, Tracer};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stq_core::{Budget, CheckOptions, ProofCache, RetryPolicy, Session};
use stq_util::json::{escape, Json};

pub const SERVE_MIXED: &str = "serve_mixed";

/// The nominal arrival rate, requests per second.
pub const NOMINAL_RPS: f64 = 100.0;
/// Open-loop traffic before the measured phase, uncounted in latency.
const WARM_UP_S: f64 = 3.0;
/// Length of one step of the max-rate search (longer at low rates, so a
/// step still collects 1000 samples).
const STEP_S: f64 = 5.0;
/// A rate is sustained when p99 stays within this, nothing fails, and the
/// generator keeps its schedule.
const LIMIT_P99_MS: f64 = 150.0;
const LIMIT_LATENESS_MS: f64 = 5.0;
const BISECTIONS: usize = 4;
/// Fresh daemon starts per run; set-up time is their median.
const SETUP_STARTS: usize = 9;
/// How long to wait for outstanding responses after the last send.
const DRAIN: Duration = Duration::from_secs(30);
/// The generated `atleast` definitions a library keeps; a reload drops
/// older ones, so the registry stays the same size.
const WINDOW: usize = 8;
/// Requests per class replayed in-process for the per-layer reference.
const REFERENCE_SAMPLES: usize = 20;
const LIBRARY_FILE: &str = "lib.q";
/// Ids of requests sent outside a phase, above any id a plan draws.
const SYNC_ID: u64 = 1 << 40;

/// A request class of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    CheckSmall,
    CheckLarge,
    ProveWarm,
    Stats,
    ReloadProve,
}

pub const CLASSES: [Class; 5] = [
    Class::CheckSmall,
    Class::CheckLarge,
    Class::ProveWarm,
    Class::Stats,
    Class::ReloadProve,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::CheckSmall => "check_small",
            Class::CheckLarge => "check_large",
            Class::ProveWarm => "prove_warm",
            Class::Stats => "stats",
            Class::ReloadProve => "reload_prove",
        }
    }
}

/// Each class's share of requests, per 20, in [`CLASSES`] order: 55%
/// `check` of a Table 2 file, 5% `check` of the paper-scale dfa, 30% warm
/// `prove` of two builtins, 5% `stats`, 5% library rewrite + `reload` +
/// cold `prove`.
const MIX: [u32; 5] = [11, 1, 6, 1, 1];

/// What a request's answer must be.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    /// A check of this corpus file.
    Check(usize),
    /// Proofs of these qualifiers.
    Prove(Vec<String>),
    Stats,
}

/// The second half of a `reload_prove` request.
#[derive(Clone, Debug, PartialEq)]
struct Reload {
    /// Written to the library file before the `reload` is sent.
    library: String,
    /// Sent once the `reload` is answered.
    prove_id: u64,
    prove_line: String,
}

/// One planned request, rendered before timing starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Seconds after the phase starts.
    due_s: f64,
    class: Class,
    id: u64,
    line: String,
    reload: Option<Reload>,
    expect: Expect,
}

/// Draws requests from the seed: classes, files, qualifier names, gaps,
/// and `atleast` thresholds, each new until all of them have been drawn.
pub struct Planner {
    mix: Rng,
    classes: Deck,
    small_files: Deck,
    arrivals: Rng,
    pool: Vec<i64>,
    window: VecDeque<i64>,
    next_id: u64,
}

impl Planner {
    pub fn new(seed: u64) -> Planner {
        Planner {
            mix: Rng::new(seed, "serve_mixed.mix"),
            classes: Deck::new(Rng::new(seed, "serve_mixed.classes"), &MIX),
            small_files: Deck::new(
                Rng::new(seed, "serve_mixed.files"),
                &[1; inputs::TABLE2.len()],
            ),
            arrivals: Rng::new(seed, "serve_mixed.arrivals"),
            pool: inputs::threshold_pool(&mut Rng::new(seed, "serve_mixed.thresholds")),
            window: VecDeque::new(),
            next_id: 1,
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Requests arriving at `rate` per second for `seconds`, and at least
    /// `min` of them.
    pub fn plan(
        &mut self,
        files: &[CorpusFile],
        rate: f64,
        seconds: f64,
        min: usize,
    ) -> Vec<Request> {
        let mut out = Vec::new();
        let mut t = self.arrivals.exp(1.0 / rate);
        while t < seconds || out.len() < min {
            let class = CLASSES[self.classes.deal()];
            out.push(self.request(files, class, t));
            t += self.arrivals.exp(1.0 / rate);
        }
        out
    }

    fn request(&mut self, files: &[CorpusFile], class: Class, due_s: f64) -> Request {
        let id = self.id();
        let check = |file: usize| {
            let source = escape(&files[file].source);
            let line =
                format!(r#"{{"id":{id},"method":"check","params":{{"source":"{source}"}}}}"#);
            (line, Expect::Check(file))
        };
        let prove = |id: u64, names: &[String]| {
            let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            let list = quoted.join(",");
            format!(r#"{{"id":{id},"method":"prove","params":{{"names":[{list}]}}}}"#)
        };
        let mut reload = None;
        let (line, expect) = match class {
            Class::CheckSmall => check(inputs::TABLE2[self.small_files.deal()]),
            Class::CheckLarge => check(inputs::DFA_1X),
            Class::ProveWarm => {
                let n = inputs::BUILTINS.len();
                let first = self.mix.below(n);
                let second = (first + 1 + self.mix.below(n - 1)) % n;
                let names = vec![
                    inputs::BUILTINS[first].to_owned(),
                    inputs::BUILTINS[second].to_owned(),
                ];
                (prove(id, &names), Expect::Prove(names))
            }
            Class::Stats => (format!(r#"{{"id":{id},"method":"stats"}}"#), Expect::Stats),
            Class::ReloadProve => {
                let k = loop {
                    if self.pool.is_empty() {
                        self.pool = inputs::threshold_pool(&mut self.mix);
                    }
                    let k = self.pool.pop().expect("a refilled pool");
                    if !self.window.contains(&k) {
                        break k;
                    }
                };
                self.window.push_back(k);
                if self.window.len() > WINDOW {
                    self.window.pop_front();
                }
                let ks: Vec<i64> = self.window.iter().copied().collect();
                let names = vec![inputs::atleast_name(k)];
                let prove_id = self.id();
                reload = Some(Reload {
                    library: inputs::atleast_library(&ks),
                    prove_id,
                    prove_line: prove(prove_id, &names),
                });
                (
                    format!(r#"{{"id":{id},"method":"reload"}}"#),
                    Expect::Prove(names),
                )
            }
        };
        Request {
            due_s,
            class,
            id,
            line,
            reload,
            expect,
        }
    }
}

/// Reads response lines, tolerating read timeouts mid-line.
struct Lines {
    reader: BufReader<UnixStream>,
    partial: Vec<u8>,
}

impl Lines {
    /// The next complete line, or `None` if none arrived before the read
    /// timeout.
    fn next(&mut self) -> io::Result<Option<String>> {
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) if self.partial.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.partial).trim_end().to_owned();
                self.partial.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// One connection to the daemon.
struct Conn {
    writer: Mutex<UnixStream>,
    lines: Lines,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Conn {
            writer: Mutex::new(stream),
            lines: Lines {
                reader: BufReader::new(reader),
                partial: Vec::new(),
            },
        })
    }

    fn send(&self, line: &str) -> io::Result<()> {
        let mut w = self.writer.lock().expect("writer lock");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")
    }

    /// One request, answered before the next is sent. Late answers to
    /// earlier requests are skipped.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line).map_err(|e| format!("sending: {e}"))?;
        let id = response_id(line);
        let start = Instant::now();
        while start.elapsed() < DRAIN {
            let next = self.lines.next().map_err(|e| format!("reading: {e}"))?;
            if let Some(response) = next.filter(|r| response_id(r) == id) {
                let doc = Json::parse(&response).map_err(|e| format!("response: {e}"))?;
                if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("request failed: {response}"));
                }
                return Ok(doc);
            }
        }
        Err("no response".to_owned())
    }
}

/// A running daemon and the benchmark's connection to it; the process
/// is killed if dropped before [`Daemon::shutdown`].
struct Daemon {
    process: Reaped,
    conn: Conn,
}

impl Daemon {
    /// Starts a daemon in `dir` and waits until it answers `health`;
    /// returns it with the time that took.
    fn start(stqc: &Path, dir: &Path, tag: usize) -> Result<(Daemon, f64), String> {
        let name = format!("d{tag}.sock");
        let t0 = Instant::now();
        let process = Reaped::spawn(
            Command::new(stqc)
                .current_dir(dir)
                .args([
                    "serve",
                    "--socket",
                    &name,
                    "--jobs",
                    "2",
                    "--quals",
                    LIBRARY_FILE,
                ])
                // A daemon outlives no benchmark run, even an aborted one.
                .args(["--deadline-ms", "600000"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )
        .map_err(|e| format!("starting stqc serve: {e}"))?;
        let socket = dir.join(name);
        let mut conn = loop {
            match Conn::open(&socket) {
                Ok(conn) => break conn,
                Err(_) if t0.elapsed() < DRAIN => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("the daemon never listened: {e}")),
            }
        };
        let health = conn.call(r#"{"id":1,"method":"health"}"#)?;
        let status = health.get("result").and_then(|r| r.get("status"));
        if status.and_then(Json::as_str) != Some("ok") {
            return Err(format!("unhealthy daemon: {health}"));
        }
        Ok((Daemon { process, conn }, t0.elapsed().as_secs_f64()))
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.conn.call(r#"{"id":0,"method":"shutdown"}"#)?;
        match self.process.wait_or_kill(DRAIN) {
            Ok(Some(0)) => Ok(()),
            other => Err(format!("daemon shutdown ended with {other:?}")),
        }
    }
}

/// The id a response line answers, read without parsing the whole line.
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix(r#"{"id":"#)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// One request's timeline, in seconds since the phase started.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timing {
    /// When the sender began writing the request.
    pub sent_s: Option<f64>,
    /// When the final response arrived.
    pub received_s: Option<f64>,
}

impl Timing {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self, due_s: f64) -> Option<f64> {
        self.received_s.map(|r| (r - due_s) * 1e3)
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lateness_ms(&self, due_s: f64) -> Option<f64> {
        self.sent_s.map(|s| (s - due_s) * 1e3)
    }
}

/// Sends each request when it is due, through `send`, until `abort`
/// fires. Returns when each request was sent, in seconds after `t0`.
pub fn send_on_schedule(
    t0: Instant,
    due_s: &[f64],
    abort: &AtomicBool,
    mut send: impl FnMut(usize),
) -> Vec<Option<f64>> {
    let mut sent = vec![None; due_s.len()];
    for (i, &due) in due_s.iter().enumerate() {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let wait = Duration::from_secs_f64(due).saturating_sub(t0.elapsed());
        std::thread::sleep(wait);
        sent[i] = Some(t0.elapsed().as_secs_f64());
        send(i);
    }
    sent
}

/// A finished phase: per request, its timeline and raw responses (the
/// `reload` answer first for a `reload_prove`).
struct Phase {
    timings: Vec<Timing>,
    responses: Vec<Vec<String>>,
}

/// Runs one open-loop phase on `conn`. With `limit_ms`, the phase stops
/// sending once more than 1% of its requests have missed that latency
/// or failed, or the sender falls a second behind schedule.
fn run_phase(conn: &mut Conn, dir: &Path, plan: &[Request], limit_ms: Option<f64>) -> Phase {
    let index: HashMap<u64, usize> = plan
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            std::iter::once((r.id, i)).chain(r.reload.as_ref().map(|x| (x.prove_id, i)))
        })
        .collect();
    let due: Vec<f64> = plan.iter().map(|r| r.due_s).collect();
    let sent_count = AtomicUsize::new(0);
    // Reloads unanswered so far. A library is rewritten only once the last
    // reload was answered: the daemon does not order concurrent reloads,
    // so an older one can finish last and swap its registry over a newer
    // one.
    let reloads_out = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let budget = plan.len() / 100;
    // Give both threads a moment to start before the first due time.
    let t0 = Instant::now() + Duration::from_millis(20);
    let Conn { writer, lines } = conn;
    let writer = &*writer;
    let send = |line: &str| {
        let mut w = writer.lock().expect("writer lock");
        // A failed write leaves the request unanswered, which counts.
        let _ = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"));
    };
    let (sent, (received, responses)) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut received = vec![None; plan.len()];
            let mut responses = vec![Vec::new(); plan.len()];
            let (mut answered, mut bad) = (0usize, 0usize);
            let mut idle_since: Option<Instant> = None;
            loop {
                let sent_now = sent_count.load(Ordering::Acquire);
                if done.load(Ordering::Acquire) && answered >= sent_now {
                    break;
                }
                let line = match lines.next() {
                    Ok(Some(line)) => line,
                    Ok(None) => {
                        if done.load(Ordering::Acquire) {
                            let since = *idle_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > DRAIN {
                                break;
                            }
                        }
                        continue;
                    }
                    Err(_) => break,
                };
                idle_since = None;
                let now = t0.elapsed().as_secs_f64();
                let Some(&i) = response_id(&line).and_then(|id| index.get(&id)) else {
                    continue;
                };
                let request = &plan[i];
                let is_reload = request
                    .reload
                    .as_ref()
                    .is_some_and(|_| responses[i].is_empty());
                responses[i].push(line);
                if is_reload {
                    reloads_out.fetch_sub(1, Ordering::AcqRel);
                    send(&request.reload.as_ref().expect("reload").prove_line);
                    continue;
                }
                received[i] = Some(now);
                answered += 1;
                if let Some(limit) = limit_ms {
                    let failed = !responses[i].iter().all(|r| r.contains(r#""ok":true"#));
                    if failed || (now - request.due_s) * 1e3 > limit {
                        bad += 1;
                        if bad > budget {
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
            (received, responses)
        });
        let sent = send_on_schedule(t0, &due, &abort, |i| {
            let request = &plan[i];
            if let Some(reload) = &request.reload {
                let waiting = Instant::now();
                while reloads_out.load(Ordering::Acquire) > 0 && waiting.elapsed() < DRAIN {
                    std::thread::sleep(Duration::from_micros(100));
                }
                reloads_out.fetch_add(1, Ordering::AcqRel);
                let tmp = dir.join(format!("{LIBRARY_FILE}.tmp"));
                let written = std::fs::write(&tmp, &reload.library)
                    .and_then(|()| std::fs::rename(&tmp, dir.join(LIBRARY_FILE)));
                // The reload still goes out; its prove then fails and counts.
                if let Err(e) = written {
                    eprintln!("stqbench: writing the library: {e}");
                }
            }
            send(&request.line);
            sent_count.store(i + 1, Ordering::Release);
            if limit_ms.is_some() && t0.elapsed().as_secs_f64() - request.due_s > 1.0 {
                abort.store(true, Ordering::Relaxed);
            }
        });
        done.store(true, Ordering::Release);
        (sent, receiver.join().expect("receiver thread"))
    });
    let timings = sent
        .into_iter()
        .zip(received)
        .map(|(sent_s, received_s)| Timing { sent_s, received_s })
        .collect();
    Phase { timings, responses }
}

/// How one request's answer compares with the oracle.
enum Judged {
    Right,
    /// Shed, unanswered, or cut off: no answer to judge.
    Refused(String),
    Wrong(String),
}

fn judge(request: &Request, responses: &[String], files: &[CorpusFile]) -> Judged {
    let expected_parts = 1 + usize::from(request.reload.is_some());
    if responses.len() < expected_parts {
        return Judged::Refused(format!(
            "{} {}: no response",
            request.class.name(),
            request.id
        ));
    }
    let mut docs = Vec::new();
    for r in responses {
        let Ok(doc) = Json::parse(r) else {
            return Judged::Wrong(format!("unparseable response {r}"));
        };
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            let message = format!("{} {}: {r}", request.class.name(), request.id);
            return match code {
                Some("overloaded" | "shutting-down") => Judged::Refused(message),
                _ => Judged::Wrong(message),
            };
        }
        docs.push(doc);
    }
    let result = |doc: &Json| doc.get("result").cloned().unwrap_or(Json::Null);
    if request.reload.is_some()
        && result(&docs[0]).get("reloaded").and_then(Json::as_bool) != Some(true)
    {
        return Judged::Wrong(format!("reload {}: {}", request.id, responses[0]));
    }
    let last = result(docs.last().expect("at least one response"));
    let checked = match &request.expect {
        Expect::Check(file) => verify_check_result(&files[*file], &last),
        Expect::Prove(names) => verify_prove_result(names, &last),
        Expect::Stats => last
            .get("uptime_ms")
            .map(|_| ())
            .ok_or_else(|| format!("stats without uptime: {last}")),
    };
    match checked {
        Ok(()) => Judged::Right,
        Err(e) => Judged::Wrong(format!("{} {}: {e}", request.class.name(), request.id)),
    }
}

fn verify_check_result(file: &CorpusFile, result: &Json) -> Result<(), String> {
    let stats = result.get("stats").ok_or("check result without stats")?;
    let n = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("stats lack `{key}`"))
    };
    let syntax = result
        .get("syntax_errors")
        .and_then(Json::as_array)
        .ok_or("no syntax_errors")?;
    let observed = Observed {
        syntax_errors: syntax.len(),
        errors: n("qualifier_errors")?,
        dereferences: n("dereferences")?,
        annotations: n("annotations")?,
        casts: n("casts")?,
        printf_calls: n("printf_calls")?,
    };
    oracle::verify_check(file.name, &observed)?;
    let clean = result.get("clean").and_then(Json::as_bool);
    if clean != Some(observed.errors == 0) {
        return Err(format!(
            "`clean` is {clean:?} with {} errors",
            observed.errors
        ));
    }
    Ok(())
}

fn verify_prove_result(names: &[String], result: &Json) -> Result<(), String> {
    let quals = result
        .get("qualifiers")
        .and_then(Json::as_array)
        .ok_or("no qualifiers")?;
    if quals.len() != names.len() {
        return Err(format!("{} reports for {names:?}", quals.len()));
    }
    for (q, name) in quals.iter().zip(names) {
        if q.get("name").and_then(Json::as_str) != Some(name) {
            return Err(format!("report {q} where `{name}` was expected"));
        }
        let verdict = q.get("verdict").and_then(Json::as_str).unwrap_or("");
        let obligations = q.get("obligations").and_then(Json::as_array).unwrap_or(&[]);
        let failed: Vec<&str> = obligations
            .iter()
            .filter(|o| o.get("proved").and_then(Json::as_bool) != Some(true))
            .filter_map(|o| o.get("description").and_then(Json::as_str))
            .collect();
        oracle::verify_report(name, verdict, obligations.len(), &failed)?;
    }
    Ok(())
}

/// Counts every request of a phase into `out`.
fn account(out: &mut Outcome, plan: &[Request], phase: &Phase, files: &[CorpusFile]) {
    for (request, responses) in plan.iter().zip(&phase.responses) {
        match judge(request, responses, files) {
            Judged::Right => out.check(Ok(())),
            Judged::Wrong(e) => out.check(Err(e)),
            Judged::Refused(e) => out.refused(e),
        }
    }
}

/// Whether a phase sustained its rate, and the wrong answers it got.
fn holds(plan: &[Request], phase: &Phase, files: &[CorpusFile]) -> (bool, Vec<String>) {
    let mut failures = 0;
    let mut wrong = Vec::new();
    for (request, responses) in plan.iter().zip(&phase.responses) {
        match judge(request, responses, files) {
            Judged::Right => {}
            Judged::Refused(_) => failures += 1,
            Judged::Wrong(e) => {
                failures += 1;
                wrong.push(e);
            }
        }
    }
    let latencies: Vec<f64> = plan
        .iter()
        .zip(&phase.timings)
        .filter_map(|(r, t)| t.latency_ms(r.due_s))
        .collect();
    let lateness: Vec<f64> = plan
        .iter()
        .zip(&phase.timings)
        .filter_map(|(r, t)| t.lateness_ms(r.due_s))
        .collect();
    if failures > 0 || latencies.len() < plan.len() || lateness.is_empty() {
        return (false, wrong);
    }
    let p99 = |v: Vec<f64>| Samples::new(v).at(99.0);
    (
        p99(latencies) <= LIMIT_P99_MS && p99(lateness) < LIMIT_LATENESS_MS,
        wrong,
    )
}

/// Daemon counters from a `stats` response.
fn counters(stats: &Json) -> HashMap<&'static str, f64> {
    let r = stats.get("result").cloned().unwrap_or(Json::Null);
    let n = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    HashMap::from([
        ("shed", n(r.get("shed"))),
        ("errors", n(r.get("errors"))),
        ("dedup_hits", n(r.get("dedup_hits"))),
        ("reloads", n(r.get("reloads"))),
        (
            "reactor_polls",
            n(r.get("reactor").and_then(|x| x.get("polls"))),
        ),
        ("cache_hits", n(r.get("cache").and_then(|x| x.get("hits")))),
        (
            "cache_misses",
            n(r.get("cache").and_then(|x| x.get("misses"))),
        ),
    ])
}

/// Runs `serve_mixed`: set-up over fresh daemon starts, warm-up, the
/// nominal phase, and, with `search`, the max-rate search. A traced run
/// adds the in-process reference timings of the same public calls.
pub fn run(seed: u64, seconds: f64, traced: bool, search: bool) -> Result<Outcome, String> {
    let stqc = std::fs::canonicalize(sys::stqc()?).map_err(|e| e.to_string())?;
    let work = sys::WorkDir::new(SERVE_MIXED)?;
    let dir = work.path();
    let files = inputs::corpus();
    oracle::verify_corpus(&files)?;
    std::fs::write(dir.join(LIBRARY_FILE), "").map_err(|e| e.to_string())?;
    let tracer = Tracer::new(traced);
    let mut out = Outcome::new(SERVE_MIXED);
    let mut planner = Planner::new(seed);

    let starts = if traced { 1 } else { SETUP_STARTS };
    let mut setup = Vec::new();
    let mut daemon = None;
    for tag in 0..starts {
        let (d, ready_s) = Daemon::start(&stqc, dir, tag)?;
        setup.push(ready_s);
        if tag + 1 < starts {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("the last start serves");
    let conn = &mut daemon.conn;

    // Fill the warm cache, then run warm-up traffic.
    for (i, name) in inputs::BUILTINS.iter().enumerate() {
        let id = SYNC_ID + i as u64;
        conn.call(&format!(
            r#"{{"id":{id},"method":"prove","params":{{"names":["{name}"]}}}}"#
        ))?;
    }
    let warm_up = planner.plan(&files, NOMINAL_RPS, WARM_UP_S, 0);
    let phase = run_phase(conn, dir, &warm_up, None);
    account(&mut out, &warm_up, &phase, &files);

    let stats = format!(r#"{{"id":{SYNC_ID},"method":"stats"}}"#);
    let before = counters(&conn.call(&stats)?);
    let min = if traced {
        0
    } else {
        crate::inproc::MIN_SAMPLES
    };
    let plan = planner.plan(&files, NOMINAL_RPS, seconds, min);
    let origin_us = tracer.now_us() + 20e3;
    let phase = run_phase(conn, dir, &plan, None);
    let after = counters(&conn.call(&stats)?);
    account(&mut out, &plan, &phase, &files);
    report_nominal(&mut out, &plan, &phase, traced)?;
    let delta = |k: &str| after[k] - before[k];
    for name in ["shed", "errors", "dedup_hits", "reloads", "reactor_polls"] {
        out.add(
            &format!("core.server.{name}"),
            delta(name),
            "count",
            Better::Lower,
        );
    }
    let lookups = (delta("cache_hits") + delta("cache_misses")).max(1.0);
    out.add(
        "soundness.cache.hit_ratio",
        delta("cache_hits") / lookups,
        "ratio",
        Better::Higher,
    );

    if traced {
        for (r, t) in plan.iter().zip(&phase.timings) {
            if let Some(end) = t.received_s {
                tracer.record(Span {
                    id: tracer.next_id(),
                    parent: None,
                    name: r.class.name(),
                    req: r.id,
                    thread: 0,
                    start_us: origin_us + r.due_s * 1e6,
                    end_us: origin_us + end * 1e6,
                });
            }
        }
        let library = std::fs::read_to_string(dir.join(LIBRARY_FILE)).map_err(|e| e.to_string())?;
        reference(&mut out, &plan, &library, &tracer)?;
        trace::write_jsonl(&sys::trace_path(SERVE_MIXED), &tracer.take())
            .map_err(|e| format!("trace: {e}"))?;
    }
    if search {
        let (nominal_holds, _) = holds(&plan, &phase, &files);
        let rate = max_rate(conn, dir, &mut planner, &files, &mut out, nominal_holds);
        out.add("max_rate_rps", rate, "1/s", Better::Higher);
    }
    if !traced {
        let rss =
            sys::vm_hwm_mb(Some(daemon.process.id())).ok_or("cannot read the daemon's VmHWM")?;
        out.add("peak_rss_mb", rss, "MiB", Better::Lower);
        out.add("setup_s", Samples::new(setup).p50(), "s", Better::Lower);
        out.add_failed_share();
    }
    daemon.shutdown()?;
    Ok(out)
}

/// End-to-end latency at the nominal rate, per-class latency, and how
/// late the generator ran.
fn report_nominal(
    out: &mut Outcome,
    plan: &[Request],
    phase: &Phase,
    traced: bool,
) -> Result<(), String> {
    let latency = |class: Option<Class>| -> Vec<f64> {
        plan.iter()
            .zip(&phase.timings)
            .filter(|(r, _)| class.is_none_or(|c| r.class == c))
            .filter_map(|(r, t)| t.latency_ms(r.due_s))
            .collect()
    };
    let all = Samples::new(latency(None));
    if all.is_empty() {
        return Err("no request was answered".to_owned());
    }
    let n = Some(all.len() as u64);
    out.add_counted("latency_ms_p50", all.p50(), "ms", Better::Lower, n);
    if !traced {
        let p99 = all
            .p99()
            .ok_or_else(|| format!("{} samples cannot support p99", all.len()))?;
        out.add_counted("latency_ms_p99", p99, "ms", Better::Lower, n);
    }
    for class in CLASSES {
        let s = Samples::new(latency(Some(class)));
        let n = Some(s.len() as u64);
        let name = class.name();
        if s.is_empty() {
            return Err(format!("no {name} request was answered"));
        }
        out.add_counted(
            &format!("serve.{name}.p50_ms"),
            s.p50(),
            "ms",
            Better::Lower,
            n,
        );
        out.add_counted(
            &format!("serve.{name}.tail_ms"),
            s.tail(),
            "ms",
            Better::Lower,
            n,
        );
    }
    let lateness = Samples::new(
        plan.iter()
            .zip(&phase.timings)
            .filter_map(|(r, t)| t.lateness_ms(r.due_s))
            .collect(),
    );
    let late = lateness.p99().unwrap_or_else(|| lateness.tail());
    out.add_counted(
        "gen.lateness_ms_p99",
        late,
        "ms",
        Better::Lower,
        Some(lateness.len() as u64),
    );
    Ok(())
}

/// The highest rate that holds the limits: doubling from the nominal rate
/// until a step fails, then bisecting.
fn max_rate(
    conn: &mut Conn,
    dir: &Path,
    planner: &mut Planner,
    files: &[CorpusFile],
    out: &mut Outcome,
    nominal_holds: bool,
) -> f64 {
    let mut step = |rate: f64| {
        let plan = planner.plan(files, rate, STEP_S, crate::inproc::MIN_SAMPLES);
        let phase = run_phase(conn, dir, &plan, Some(LIMIT_P99_MS));
        // Shed or late requests only fail the step; a wrong answer still
        // counts against the run.
        let (held, wrong) = holds(&plan, &phase, files);
        for e in wrong {
            out.check(Err(e));
        }
        held
    };
    let (mut held, mut missed) = if nominal_holds {
        (NOMINAL_RPS, None)
    } else {
        (0.0, Some(NOMINAL_RPS))
    };
    while missed.is_none() && held < 100.0 * NOMINAL_RPS {
        let rate = 2.0 * held;
        if step(rate) {
            held = rate;
        } else {
            missed = Some(rate);
        }
    }
    let Some(mut missed) = missed else {
        return held;
    };
    for _ in 0..BISECTIONS {
        let rate = (held + missed) / 2.0;
        if step(rate) {
            held = rate;
        } else {
            missed = rate;
        }
    }
    held
}

/// Replays up to [`REFERENCE_SAMPLES`] sent lines per class in-process:
/// `Json::parse` of the exact line, then the public calls the daemon
/// makes for it. The wire round trip minus this is the server overhead.
fn reference(
    out: &mut Outcome,
    plan: &[Request],
    library: &str,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut session = Session::with_builtins();
    session
        .define_qualifiers(library)
        .map_err(|e| e.to_string())?;
    let warm = ProofCache::in_memory();
    let (budget, retry) = (Budget::default(), RetryPolicy::none());
    session.prove_named_pipeline(&inputs::BUILTINS, budget, retry, 1, Some(&warm))?;
    for class in CLASSES {
        let sample: Vec<&Request> = plan
            .iter()
            .filter(|r| r.class == class)
            .take(REFERENCE_SAMPLES)
            .collect();
        let (mut parse_ms, mut total_ms) = (Vec::new(), Vec::new());
        for r in sample {
            let t0 = Instant::now();
            tracer.span("reference", None, r.id, |root| -> Result<(), String> {
                let parsed = tracer.span("util.json.parse", root, r.id, |_| {
                    let mut docs = vec![Json::parse(&r.line)];
                    if let Some(reload) = &r.reload {
                        docs.push(Json::parse(&reload.prove_line));
                    }
                    docs
                });
                parse_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let params = parsed[0]
                    .as_ref()
                    .map_err(|e| e.to_string())?
                    .get("params")
                    .cloned();
                match (&r.expect, r.reload.is_some()) {
                    (Expect::Check(_), _) => {
                        let source = params
                            .as_ref()
                            .and_then(|p| p.get("source"))
                            .and_then(Json::as_str)
                            .unwrap_or("");
                        let (program, _) = tracer
                            .span("cir.parse", root, r.id, |_| session.parse_resilient(source));
                        tracer.span("typecheck.check", root, r.id, |_| {
                            session.check_with(&program, CheckOptions::default()).stats
                        });
                    }
                    (Expect::Prove(names), false) => {
                        let names: Vec<&str> = names.iter().map(String::as_str).collect();
                        tracer.span("soundness.prove", root, r.id, |_| {
                            session.prove_named_pipeline(&names, budget, retry, 1, Some(&warm))
                        })?;
                    }
                    (Expect::Prove(names), true) => {
                        let reload = r.reload.as_ref().expect("reload");
                        let fresh = tracer
                            .span("qualspec.define", root, r.id, |_| {
                                let mut s = Session::with_builtins();
                                s.define_qualifiers(&reload.library).map(|_| s)
                            })
                            .map_err(|e| e.to_string())?;
                        let names: Vec<&str> = names.iter().map(String::as_str).collect();
                        tracer.span("soundness.prove", root, r.id, |_| {
                            fresh.prove_named_pipeline(&names, budget, retry, 1, Some(&warm))
                        })?;
                    }
                    (Expect::Stats, _) => {}
                }
                Ok(())
            })?;
            total_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let name = class.name();
        let wire = out.get(&format!("serve.{name}.p50_ms")).map(|m| m.value);
        let (Some(wire), false) = (wire, total_ms.is_empty()) else {
            return Err(format!("no {name} request to replay"));
        };
        let parse = Samples::new(parse_ms).p50();
        out.add(
            &format!("util.json.parse_ms.{name}"),
            parse,
            "ms",
            Better::Lower,
        );
        let local = Samples::new(total_ms).p50();
        out.add(
            &format!("core.server.overhead_ms.{name}"),
            wire - local,
            "ms",
            Better::Lower,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_a_stall_delays_later_requests() {
        // Request 0 stalls the sender for 60 ms; request 1 was due 10 ms
        // after it, so it goes out ~50 ms late, and its latency includes
        // that wait even though the send itself was instant.
        let due = [0.0, 0.010, 0.200];
        let t0 = Instant::now();
        let sent = send_on_schedule(t0, &due, &AtomicBool::new(false), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let timing = |i: usize| Timing {
            sent_s: sent[i],
            received_s: sent[i].map(|s| s + 0.001),
        };
        let late1 = timing(1).lateness_ms(due[1]).unwrap();
        assert!(late1 >= 49.0, "request 1 was {late1} ms late");
        let latency1 = timing(1).latency_ms(due[1]).unwrap();
        assert!(
            latency1 >= late1 + 1.0 - 1e-9,
            "latency {latency1} includes lateness {late1}"
        );
        // The schedule recovers: request 2 goes out on time.
        assert!(timing(2).lateness_ms(due[2]).unwrap() < 20.0);
        assert!(sent[2].unwrap() >= due[2]);
    }

    #[test]
    fn an_aborted_schedule_stops_sending() {
        let abort = AtomicBool::new(true);
        let sent = send_on_schedule(Instant::now(), &[0.0, 0.0], &abort, |_| panic!("sent"));
        assert_eq!(sent, vec![None, None]);
        let unanswered = Timing {
            sent_s: Some(1.0),
            received_s: None,
        };
        assert_eq!(unanswered.latency_ms(0.5), None);
    }

    #[test]
    fn the_same_seed_plans_byte_identical_requests() {
        let files = inputs::corpus();
        let lines = |seed| {
            let mut p = Planner::new(seed);
            let plan = p.plan(&files, NOMINAL_RPS, 5.0, 0);
            plan.iter()
                .map(|r| {
                    let reload = r
                        .reload
                        .as_ref()
                        .map_or(String::new(), |x| x.library.clone() + &x.prove_line);
                    format!("{} {} {reload}", r.due_s, r.line)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
    }

    #[test]
    fn the_mix_has_the_planned_shares() {
        let files = inputs::corpus();
        let plan = Planner::new(1).plan(&files, 1000.0, 20.0, 0);
        let share = |c| plan.iter().filter(|r| r.class == c).count() as f64 / plan.len() as f64;
        for (class, want) in CLASSES.into_iter().zip([0.55, 0.05, 0.30, 0.05, 0.05]) {
            assert!(
                (share(class) - want).abs() < 0.01,
                "{} {}",
                class.name(),
                share(class)
            );
        }
        let rate = plan.len() as f64 / plan.last().unwrap().due_s;
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn response_ids_are_read_from_the_line_prefix() {
        assert_eq!(response_id(r#"{"id":42,"ok":true}"#), Some(42));
        assert_eq!(response_id(r#"{"id":null,"ok":false}"#), None);
    }
}
