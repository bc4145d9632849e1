//! The chaos drills. A seeded schedule of idempotent requests is
//! answered twice: sequentially by a fault-free in-process daemon (the
//! baseline), then by real `stqc serve` processes through concurrent
//! self-healing clients while the drill attacks them. Each drill returns
//! its `BENCH_chaos.json` report once its oracle holds: every request
//! resolves to exactly one attributed answer, every answer matches the
//! baseline, and the warm proof cache never misses.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stq_core::reportjson::{decimals, millis};
use stq_core::{
    CancelToken, Client, ClientConfig, ClientStats, Endpoint, ServeConfig, Server, Session,
};
use stq_util::json::Json;

use crate::proxy::{Plan, Proxy};

/// A scratch directory, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("stqc-chaos-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One `stqc serve` child, SIGKILLed when dropped so a failed drill
/// leaves no daemon behind.
pub struct Daemon {
    pub endpoint: Endpoint,
    args: Vec<OsString>,
    child: Mutex<Child>,
}

fn start(args: &[OsString]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_stqc"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("stqc serve spawns")
}

impl Daemon {
    /// `stqc serve --socket SOCKET --cache-dir CACHE_DIR --jobs 2`.
    pub fn unix(socket: PathBuf, cache_dir: &Path) -> Daemon {
        let args: Vec<OsString> = vec![
            "--socket".into(),
            socket.clone().into(),
            "--cache-dir".into(),
            cache_dir.into(),
            "--jobs".into(),
            "2".into(),
        ];
        let child = Mutex::new(start(&args));
        Daemon {
            endpoint: Endpoint::Unix(socket),
            args,
            child,
        }
    }

    /// `stqc serve --tcp 127.0.0.1:0`, addressed through its `--addr-file`.
    pub fn tcp(scratch: &Scratch) -> Daemon {
        let addr_file = scratch.join("addr");
        let args: Vec<OsString> = vec![
            "--tcp".into(),
            "127.0.0.1:0".into(),
            "--addr-file".into(),
            addr_file.clone().into(),
        ];
        let child = Mutex::new(start(&args));
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                break text.trim().to_owned();
            }
            assert!(
                Instant::now() < deadline,
                "the daemon never wrote --addr-file"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        Daemon {
            endpoint: Endpoint::Tcp(addr),
            args,
            child,
        }
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill(&self) {
        let mut child = self.child.lock().expect("no drill thread panicked");
        child.kill().expect("SIGKILL delivered");
        let _ = child.wait();
    }

    /// SIGKILLs the daemon and starts a fresh one with the same arguments,
    /// so on the same socket and cache dir: what a `Restart=on-failure`
    /// unit does.
    pub fn restart(&self) {
        self.kill();
        *self.child.lock().expect("no drill thread panicked") = start(&self.args);
    }

    /// Requests a shutdown over the protocol; true if it was acknowledged
    /// and the daemon exited 0 within a minute.
    pub fn shutdown(&self, seed: u64) -> bool {
        let acked = client(seed, 0x0FF0, vec![self.endpoint.clone()]).call("shutdown", None, None);
        let mut child = self.child.lock().expect("no drill thread panicked");
        let exit_by = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return acked.is_ok() && status.success(),
                Ok(None) if Instant::now() < exit_by => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return false,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let child = self.child.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// One entry of the request schedule.
pub struct Request {
    method: &'static str,
    params: Option<Json>,
}

/// The seeded request schedule: full and named proves, clean and faulty
/// checks, stats/health probes. Every method is idempotent and
/// read-only, so the canonical answers do not depend on interleaving,
/// which is what lets concurrent clients be compared against a
/// sequential baseline.
pub fn schedule(seed: u64, count: usize) -> Vec<Request> {
    const NAMES: [&str; 8] = [
        "pos",
        "neg",
        "nonzero",
        "nonnull",
        "untainted",
        "tainted",
        "unique",
        "unaliased",
    ];
    let prove = |names: &[&str]| Request {
        method: "prove",
        params: Some(Json::obj([("names", names.iter().copied().collect())])),
    };
    let check = |source: &str| Request {
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
                0 | 1 => Request {
                    method: "prove",
                    params: None,
                },
                2 => prove(&[name(8)]),
                3 => prove(&[name(8), name(16)]),
                4 => check("int pos f() { return 7; }"),
                5 => check("int pos f(int a) { return a; }"),
                6 => check("int f( {"),
                _ => Request {
                    method: if (r >> 8) & 1 == 0 { "stats" } else { "health" },
                    params: None,
                },
            }
        })
        .collect()
}

/// The semantic payload of one response: verdicts, cleanliness, error
/// class; never timings, counters or cache telemetry, which differ
/// between the baseline and the drill.
pub fn canon(method: &str, doc: &Json) -> String {
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        return format!("error:{}", code.unwrap_or("?"));
    }
    let result = doc.get("result");
    let field = |name: &str| result.and_then(|r| r.get(name));
    let arr_len = |name: &str| {
        field(name)
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len)
    };
    match method {
        "prove" => {
            let quals = field("qualifiers").and_then(Json::as_array).unwrap_or(&[]);
            let verdicts: Vec<String> = quals
                .iter()
                .map(|q| {
                    let text = |key: &str| q.get(key).and_then(Json::as_str).unwrap_or("?");
                    format!("{}={}", text("name"), text("verdict"))
                })
                .collect();
            let all_sound = field("all_sound").and_then(Json::as_bool);
            format!("prove:all_sound={all_sound:?};{}", verdicts.join(","))
        }
        "check" => format!(
            "check:clean={:?};syntax={};diags={}",
            field("clean").and_then(Json::as_bool),
            arr_len("syntax_errors"),
            arr_len("diagnostics"),
        ),
        _ => "ok".to_owned(),
    }
}

/// The self-healing client every phase uses: generous connect and call
/// budgets, many retries, fast backoff jittered by `seed ^ salt`.
pub fn client(seed: u64, salt: u64, endpoints: Vec<Endpoint>) -> Client {
    Client::new(ClientConfig {
        endpoints,
        connect_timeout: Duration::from_secs(20),
        call_deadline: Some(Duration::from_secs(300)),
        max_retries: 64,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(50),
        seed: seed ^ salt,
    })
}

/// The number at `path` in `doc`.
pub fn number(doc: &Json, path: &[&str]) -> u64 {
    let found = path.iter().try_fold(doc, |j, key| j.get(key));
    found
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no number at {path:?}: {doc}"))
}

/// The result of a `stats` call that must succeed.
fn stats(client: &mut Client) -> Json {
    let doc = client
        .call("stats", None, None)
        .expect("stats answered")
        .doc;
    doc.get("result").cloned().expect("stats result")
}

/// The canonical fault-free answers, from a sequential client of an
/// in-process daemon with the default configuration.
fn baseline(seed: u64, schedule: &[Request], scratch: &Scratch) -> Vec<String> {
    let socket = scratch.join("baseline.sock");
    let server = Server::new(
        Session::with_builtins(),
        ServeConfig::default(),
        CancelToken::new(),
    );
    let server = Arc::new(server.expect("baseline server"));
    let run = {
        let (server, socket) = (Arc::clone(&server), socket.clone());
        std::thread::spawn(move || server.run_unix(&socket))
    };
    let mut caller = client(seed, 0xBA5E, vec![Endpoint::Unix(socket)]);
    let answers = schedule
        .iter()
        .map(|req| {
            let outcome = caller.call(req.method, req.params.as_ref(), None);
            canon(req.method, &outcome.expect("baseline request answered").doc)
        })
        .collect();
    caller
        .call("shutdown", None, None)
        .expect("baseline shutdown");
    run.join()
        .expect("baseline thread")
        .expect("baseline server ran");
    answers
}

/// What one campaign produced.
struct Campaign {
    /// Canonical answer per schedule index.
    answers: Vec<Option<String>>,
    /// Every campaign client's recovery counters, summed.
    client: ClientStats,
    elapsed: Duration,
}

/// Runs `schedule` through `clients` concurrent clients: client `c` owns
/// indices c, c+N, c+2N, … and dials `endpoints(c)`. Once half the
/// requests have resolved, `kill` runs; each client holds its last
/// request until then, so every client meets the kill's aftermath.
fn campaign(
    seed: u64,
    schedule: &[Request],
    clients: usize,
    endpoints: impl Fn(usize) -> Vec<Endpoint>,
    kill: Option<&dyn Fn()>,
) -> Campaign {
    let (resolved, held) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let killed = AtomicBool::new(kill.is_none());
    let started = Instant::now();
    let mut campaign = Campaign {
        answers: vec![None; schedule.len()],
        client: ClientStats::default(),
        elapsed: Duration::ZERO,
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let mut caller = client(seed, 0xC0_0000 + c as u64, endpoints(c));
                let (resolved, held, killed) = (&resolved, &held, &killed);
                scope.spawn(move || {
                    let answers: Vec<(usize, String)> = (c..schedule.len())
                        .step_by(clients)
                        .map(|idx| {
                            if idx + clients >= schedule.len() {
                                held.fetch_add(1, Ordering::SeqCst);
                                while !killed.load(Ordering::SeqCst) {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                            }
                            let req = &schedule[idx];
                            let outcome = caller.call(req.method, req.params.as_ref(), None);
                            let outcome = outcome.unwrap_or_else(|e| {
                                panic!("request #{idx} ({}) unresolved: {e}", req.method)
                            });
                            resolved.fetch_add(1, Ordering::SeqCst);
                            (idx, canon(req.method, &outcome.doc))
                        })
                        .collect();
                    (answers, caller.stats())
                })
            })
            .collect();
        if let Some(kill) = kill {
            let half = (schedule.len() / 2).max(1);
            let active = clients.min(schedule.len());
            while resolved.load(Ordering::SeqCst) < half
                && held.load(Ordering::SeqCst) < active
                && !workers.iter().any(|w| w.is_finished())
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Release the held clients even if the kill panics, or the
            // scope would wait for them forever.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(kill));
            killed.store(true, Ordering::SeqCst);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
        for worker in workers {
            let (answers, s) = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
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
    });
    campaign.elapsed = started.elapsed();
    campaign
}

/// One drill's results beyond the campaign itself.
struct Outcome {
    seed: u64,
    clients: usize,
    daemons: usize,
    daemon_killed: bool,
    /// Wire faults planned and injected.
    net_faults: (u64, u64),
    warm_cache_miss_delta: u64,
    follow_hits: u64,
    reloads: u64,
    worker_killed: bool,
    worker_restarts: u64,
    clean_shutdown: bool,
}

/// Judges the oracle and returns the `BENCH_chaos.json` report: every
/// answer matches the `baseline`, every request resolved, and none of
/// the drill's own `failures` (a condition with its message) holds.
fn judge(o: &Outcome, campaign: &Campaign, baseline: &[String], failures: &[(bool, &str)]) -> Json {
    let count = baseline.len();
    let resolved = campaign.answers.iter().filter(|a| a.is_some()).count();
    let mismatches: Vec<String> = (0..count)
        .filter(|&i| campaign.answers[i].as_deref() != Some(baseline[i].as_str()))
        .map(|i| {
            format!(
                "#{i}: baseline {}, drill {:?}",
                baseline[i], campaign.answers[i]
            )
        })
        .collect();
    let c = &campaign.client;
    let report = Json::obj([
        ("bench", "chaos-serve".into()),
        ("seed", o.seed.into()),
        ("count", count.into()),
        ("clients", o.clients.into()),
        ("daemons", o.daemons.into()),
        ("daemon_killed", o.daemon_killed.into()),
        (
            "net_faults",
            Json::obj([
                ("planned", o.net_faults.0.into()),
                ("injected", o.net_faults.1.into()),
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
        ("warm_cache_miss_delta", o.warm_cache_miss_delta.into()),
        ("follow_hits", o.follow_hits.into()),
        ("reloads", o.reloads.into()),
        ("worker_killed", o.worker_killed.into()),
        ("worker_restarts", o.worker_restarts.into()),
        ("clean_shutdown", o.clean_shutdown.into()),
        ("elapsed_ms", millis(campaign.elapsed)),
        (
            "requests_per_sec",
            decimals(count as f64 / campaign.elapsed.as_secs_f64(), 2),
        ),
    ]);
    println!("{report}");
    assert!(
        mismatches.is_empty(),
        "answers diverged from the baseline: {mismatches:?}"
    );
    assert_eq!(resolved, count, "not every request resolved: {report}");
    for (failed, message) in failures {
        assert!(!failed, "{message}: {report}");
    }
    report
}

/// The single-daemon leg: a plain `stqc serve` behind the fault proxy.
/// With `kill_worker`, once half the schedule has resolved the daemon is
/// SIGKILLed and a fresh one started on the same socket and cache dir;
/// the warm cache must survive that, by the journal alone.
pub fn single_daemon(seed: u64, count: usize, clients: usize, kill_worker: bool) -> Json {
    let scratch = Scratch::new("single");
    let schedule = schedule(seed, count);
    let baseline = baseline(seed, &schedule, &scratch);
    let daemon = Daemon::unix(scratch.join("daemon.sock"), &scratch.join("cache"));
    let plan = Plan::seeded(seed, (count / 3).max(8), (count as u64).max(64));
    let planned = plan.len() as u64;
    let proxy = Proxy::start(
        Endpoint::Unix(scratch.join("proxy.sock")),
        daemon.endpoint.clone(),
        plan,
    );

    // Warm the cache with one full prove. Every conclusive verdict
    // persists eagerly, so from here on the journal on disk is complete
    // and a SIGKILL cannot lose warm state.
    let mut warm = client(seed, 0x3A4, vec![proxy.endpoint()]);
    warm.call("prove", None, None).expect("warmup prove");
    let warm_misses = number(&stats(&mut warm), &["cache", "misses"]);
    let restart = || daemon.restart();
    let kill = kill_worker.then_some(&restart as &dyn Fn());
    let campaign = campaign(seed, &schedule, clients, |_| vec![proxy.endpoint()], kill);

    // The ledger comes from the daemon itself, past the proxy. A
    // restarted daemon counts misses from zero over the reloaded
    // journal, so the warm rule is "no misses since the restart".
    let mut ledger = client(seed, 0xF1A7, vec![daemon.endpoint.clone()]);
    let stats = stats(&mut ledger);
    let misses = number(&stats, &["cache", "misses"]);
    let warm_cache_miss_delta = if kill_worker {
        misses
    } else {
        misses.saturating_sub(warm_misses)
    };
    let injected = proxy.injected();
    let outcome = Outcome {
        seed,
        clients,
        daemons: 1,
        daemon_killed: false,
        net_faults: (planned, injected),
        warm_cache_miss_delta,
        follow_hits: number(&stats, &["cache", "follow_hits"]),
        reloads: number(&stats, &["reloads"]),
        worker_killed: kill_worker,
        worker_restarts: u64::from(kill_worker),
        clean_shutdown: daemon.shutdown(seed),
    };
    judge(
        &outcome,
        &campaign,
        &baseline,
        &[
            (warm_cache_miss_delta > 0, "the warm proof cache missed"),
            (
                !kill_worker && injected == 0,
                "no faults were injected; the soak proved nothing",
            ),
            (!outcome.clean_shutdown, "the daemon did not exit cleanly"),
        ],
    )
}

/// Daemons in the fleet leg.
const FLEET: usize = 2;

/// The fleet leg: two daemons share one proof-cache journal, every
/// client holds both endpoints (rotated so primaries differ), and daemon
/// 0, the only one ever proved at directly, is SIGKILLed mid-campaign
/// with nothing to restart it. Clients must fail over; the survivor must
/// answer the dead daemon's proofs warm by following the journal, take
/// a hot reload, and shut down cleanly.
pub fn fleet(seed: u64, count: usize, clients: usize) -> Json {
    let scratch = Scratch::new("fleet");
    let schedule = schedule(seed, count);
    let baseline = baseline(seed, &schedule, &scratch);
    let cache_dir = scratch.join("cache");
    let fleet: Vec<Daemon> = (0..FLEET)
        .map(|d| Daemon::unix(scratch.join(format!("d{d}.sock")), &cache_dir))
        .collect();

    // Only daemon 0 is warmed; the others can get warm only by
    // following the journal it writes.
    let mut warm = client(seed, 0x3A4, vec![fleet[0].endpoint.clone()]);
    warm.call("prove", None, None).expect("warmup prove");
    let endpoints = |c: usize| {
        (0..FLEET)
            .map(|k| fleet[(c + k) % FLEET].endpoint.clone())
            .collect()
    };
    let kill = || fleet[0].kill();
    let campaign = campaign(seed, &schedule, clients, endpoints, Some(&kill));

    // The survivor's cache counters first, so the reload's revalidation
    // cannot move the miss count under test; then a hot reload.
    let mut survivor = client(seed, 0xF1A7, vec![fleet[1].endpoint.clone()]);
    let before = stats(&mut survivor);
    let misses = number(&before, &["cache", "misses"]);
    let follow_hits = number(&before, &["cache", "follow_hits"]);
    survivor
        .call("reload", None, None)
        .expect("survivor reload");
    let reloads = number(&stats(&mut survivor), &["reloads"]);
    let clean_shutdown = fleet[1..].iter().filter(|d| !d.shutdown(seed)).count() == 0;
    let failovers = campaign.client.failovers;
    let outcome = Outcome {
        seed,
        clients,
        daemons: FLEET,
        daemon_killed: true,
        net_faults: (0, 0),
        warm_cache_miss_delta: misses,
        follow_hits,
        reloads,
        worker_killed: false,
        worker_restarts: 0,
        clean_shutdown,
    };
    judge(
        &outcome,
        &campaign,
        &baseline,
        &[
            (
                misses != 0,
                "the survivor missed; the shared journal did not keep it warm",
            ),
            (
                follow_hits == 0,
                "the survivor never adopted a peer journal entry",
            ),
            (reloads == 0, "the survivor never completed a hot reload"),
            (failovers == 0, "a daemon died but no client failed over"),
            (!clean_shutdown, "a surviving daemon did not exit cleanly"),
        ],
    )
}
