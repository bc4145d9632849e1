//! Protocol-level tests for `stqc serve` — the daemon is driven as a
//! real child process over `--stdio` and over a Unix socket, exactly as
//! clients use it (wire protocol: `docs/serving.md`).

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use stq_util::json::Json;

/// Runs `stqc serve --stdio` with `input` piped in (plus `extra` args),
/// returning the parsed response lines and the exit code. EOF on stdin
/// is the batch contract: every request written before the close must
/// still be answered.
fn serve_stdio(extra: &[&str], input: &str) -> (Vec<Json>, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .arg("serve")
        .arg("--stdio")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("stqc serve --stdio spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut stdout)
        .expect("responses read");
    let code = child.wait().expect("serve exits").code();
    let responses = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line `{l}`: {e}")))
        .collect();
    (responses, code)
}

fn response_with_id(responses: &[Json], id: u64) -> &Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id}: {responses:?}"))
}

#[test]
fn stdio_malformed_json_gets_a_structured_error_not_a_crash() {
    let (responses, code) = serve_stdio(
        &[],
        "this is not json\n\
         {\"method\":\"stats\"}\n\
         {\"id\":3,\"method\":\"stats\"}\n",
    );
    assert_eq!(code, Some(0), "the daemon must survive garbage input");
    assert_eq!(responses.len(), 3);
    // Unattributable lines get id null and a structured error code.
    assert!(responses[0].get("id").is_some_and(Json::is_null));
    assert_eq!(
        responses[0]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("parse")
    );
    assert_eq!(
        responses[1]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("invalid")
    );
    // And the connection still works afterwards.
    let ok = response_with_id(&responses, 3);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn stdio_interleaved_requests_all_get_matching_ids() {
    // A batch mixing methods; --jobs 2 lets proves overlap, so response
    // order is not request order — ids are what attribute them.
    let (responses, code) = serve_stdio(
        &["--jobs", "2"],
        "{\"id\":10,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}\n\
         {\"id\":11,\"method\":\"check\",\"params\":{\"source\":\"int pos x = 3;\"}}\n\
         {\"id\":12,\"method\":\"prove\",\"params\":{\"names\":[\"nonnull\"]}}\n\
         {\"id\":13,\"method\":\"stats\"}\n",
    );
    assert_eq!(code, Some(0));
    assert_eq!(responses.len(), 4);
    for id in [10, 11, 12, 13] {
        let r = response_with_id(&responses, id);
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "id {id}: {r}"
        );
    }
    let check = response_with_id(&responses, 11);
    assert_eq!(
        check
            .get("result")
            .and_then(|r| r.get("clean"))
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn stdio_deadline_interrupts_without_poisoning_the_shared_cache() {
    // One worker serializes the two proves. The first is strangled by a
    // 0ms per-request deadline; the second, sharing the resident cache,
    // must still prove everything sound — an interrupted request must
    // never leave junk behind for its neighbours.
    let (responses, code) = serve_stdio(
        &["--jobs", "1"],
        "{\"id\":1,\"method\":\"prove\",\"deadline_ms\":0,\"params\":{\"cache\":false}}\n\
         {\"id\":2,\"method\":\"prove\"}\n",
    );
    assert_eq!(code, Some(0));
    let rushed = response_with_id(&responses, 1);
    assert_eq!(
        rushed
            .get("result")
            .and_then(|r| r.get("interrupted"))
            .and_then(Json::as_bool),
        Some(true),
        "a 0ms deadline must interrupt: {rushed}"
    );
    let calm = response_with_id(&responses, 2);
    let result = calm.get("result").expect("result");
    assert_eq!(
        result.get("interrupted").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        result.get("all_sound").and_then(Json::as_bool),
        Some(true),
        "the follow-up prove saw a poisoned cache: {result}"
    );
}

#[test]
fn stdio_shutdown_request_drains_and_exits_zero() {
    let (responses, code) = serve_stdio(
        &[],
        "{\"id\":1,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}\n\
         {\"id\":2,\"method\":\"shutdown\"}\n",
    );
    assert_eq!(code, Some(0), "requested shutdown is a clean exit");
    let bye = response_with_id(&responses, 2);
    assert_eq!(
        bye.get("result")
            .and_then(|r| r.get("stopping"))
            .and_then(Json::as_bool),
        Some(true)
    );
    // The prove accepted before the shutdown was still answered.
    let proved = response_with_id(&responses, 1);
    assert_eq!(proved.get("ok").and_then(Json::as_bool), Some(true));
}

// ----- socket transport -----

/// A `stqc serve` child, killed and reaped when dropped, so a test that
/// panics before its shutdown leaves no daemon behind.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

struct Daemon {
    child: KillOnDrop,
    socket: std::path::PathBuf,
}

impl Daemon {
    /// Spawns `stqc serve --socket` on a fresh temp path and waits for
    /// it to accept connections.
    fn spawn(name: &str, extra: &[&str]) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("stqc-serve-{name}-{}.sock", std::process::id()));
        Daemon::spawn_at(name, socket, extra)
    }

    /// Like [`Daemon::spawn`], but on a caller-chosen socket path.
    fn spawn_at(_name: &str, socket: std::path::PathBuf, extra: &[&str]) -> Daemon {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_stqc"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("stqc serve spawns");
        let daemon = Daemon {
            child: KillOnDrop(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while std::os::unix::net::UnixStream::connect(&daemon.socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    fn connect(&self) -> Client {
        let stream =
            std::os::unix::net::UnixStream::connect(&self.socket).expect("daemon reachable");
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        Client { stream, reader }
    }

    /// Spawns a daemon serving both transports at once (`--socket` plus
    /// `--tcp 127.0.0.1:0`), returning it and the kernel-assigned TCP
    /// address read back through `--addr-file`.
    fn spawn_dual(name: &str, extra: &[&str]) -> (Daemon, String) {
        let pid = std::process::id();
        let socket = std::env::temp_dir().join(format!("stqc-serve-{name}-{pid}.sock"));
        let addr_file = std::env::temp_dir().join(format!("stqc-serve-{name}-{pid}.addr"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_stqc"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--tcp")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("stqc serve spawns");
        let daemon = Daemon {
            child: KillOnDrop(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.trim().contains(':') {
                    break text.trim().to_owned();
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its TCP address"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        while std::os::unix::net::UnixStream::connect(&daemon.socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = std::fs::remove_file(&addr_file);
        (daemon, addr)
    }

    fn connect_tcp(addr: &str) -> Client<std::net::TcpStream> {
        let stream = std::net::TcpStream::connect(addr).expect("tcp daemon reachable");
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        Client { stream, reader }
    }

    fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// Requests shutdown and asserts the daemon exits 0.
    fn shutdown(mut self) {
        let mut client = self.connect();
        let bye = client.roundtrip("{\"id\":0,\"method\":\"shutdown\"}");
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        let code = self.child.0.wait().expect("daemon exits").code();
        assert_eq!(code, Some(0), "requested shutdown must exit 0");
        assert!(!self.socket.exists(), "socket file must be removed on exit");
    }
}

/// A line-delimited client over a Unix socket or TCP — the wire
/// protocol is transport-agnostic, and so is this harness.
struct Client<S: Read + Write = std::os::unix::net::UnixStream> {
    stream: S,
    reader: BufReader<S>,
}

impl<S: Read + Write> Client<S> {
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response read");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn stat_u64(stats: &Json, name: &str) -> u64 {
    stats
        .get("result")
        .and_then(|r| r.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {name} missing: {stats}"))
}

#[test]
fn socket_serves_two_clients_concurrently() {
    let daemon = Daemon::spawn("two-clients", &[]);
    let mut a = daemon.connect();
    let mut b = daemon.connect();
    // Interleave: both requests in flight before either response is
    // read.
    a.send("{\"id\":100,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}");
    b.send("{\"id\":200,\"method\":\"check\",\"params\":{\"source\":\"int pos x = 3;\"}}");
    let ra = a.recv();
    let rb = b.recv();
    assert_eq!(ra.get("id").and_then(Json::as_u64), Some(100));
    assert_eq!(ra.get("ok").and_then(Json::as_bool), Some(true), "{ra}");
    assert_eq!(rb.get("id").and_then(Json::as_u64), Some(200));
    assert_eq!(rb.get("ok").and_then(Json::as_bool), Some(true), "{rb}");
    drop(a);
    drop(b);
    daemon.shutdown();
}

#[test]
fn socket_client_disconnect_cancels_its_pending_work() {
    // One worker; a client floods it with slow (cache-off) proves and
    // vanishes without reading anything. The daemon must cancel that
    // client's backlog instead of proving into the void — observable in
    // `stats` as a disconnect plus cancelled jobs — while another
    // client's identical prove, queued behind the flood, still gets a
    // conclusive answer of its own.
    let daemon = Daemon::spawn("disconnect", &["--jobs", "1"]);
    let prove =
        |i: u64| format!("{{\"id\":{i},\"method\":\"prove\",\"params\":{{\"cache\":false}}}}");
    let mut survivor = daemon.connect();
    {
        let mut doomed = daemon.connect();
        for i in 0..4 {
            doomed.send(&prove(i));
        }
        survivor.send(&prove(200));
        // Dropped here: both the reader and writer halves close.
    }
    let mut observer = daemon.connect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = observer.roundtrip("{\"id\":1,\"method\":\"stats\"}");
        let result = stats.get("result").expect("stats result");
        let disconnects = result
            .get("disconnects")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let cancelled = result.get("cancelled").and_then(Json::as_u64).unwrap_or(0);
        if disconnects >= 1 && cancelled >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never cancelled the orphaned backlog: {result}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let answer = survivor.recv();
    assert_eq!(answer.get("id").and_then(Json::as_u64), Some(200));
    let result = answer.get("result").expect("prove result");
    assert_eq!(
        result.get("interrupted").and_then(Json::as_bool),
        Some(false),
        "another client's disconnect must not interrupt this one: {answer}"
    );
    assert_eq!(
        result.get("all_sound").and_then(Json::as_bool),
        Some(true),
        "{answer}"
    );
    drop(survivor);
    drop(observer);
    daemon.shutdown();
}

#[test]
fn call_to_absent_daemon_exits_6_with_an_actionable_message() {
    let socket = std::env::temp_dir().join(format!("stqc-no-daemon-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args([
            "call",
            "--socket",
            socket.to_str().expect("utf8 path"),
            "stats",
        ])
        .output()
        .expect("stqc call runs");
    assert_eq!(
        out.status.code(),
        Some(6),
        "an unreachable daemon is its own exit code: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("is the daemon running"),
        "the failure must tell the user what to do next: {stderr}"
    );
    assert!(
        stderr.contains("stqc serve --socket"),
        "the failure must show the start command: {stderr}"
    );
}

#[test]
fn call_connect_timeout_waits_out_a_slow_daemon_start() {
    // The client dials before the daemon exists; --connect-timeout-ms
    // keeps redialing until the late-bound socket appears.
    let socket = std::env::temp_dir().join(format!("stqc-late-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let call = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            Command::new(env!("CARGO_BIN_EXE_stqc"))
                .args([
                    "call",
                    "--socket",
                    socket.to_str().expect("utf8 path"),
                    "--connect-timeout-ms",
                    "20000",
                    "health",
                ])
                .output()
                .expect("stqc call runs")
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let daemon = Daemon::spawn_at("late", socket, &[]);
    let out = call.join().expect("call thread");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let response =
        Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("call prints the response");
    assert_eq!(
        response
            .get("result")
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str),
        Some("ok")
    );
    daemon.shutdown();
}

#[test]
fn max_queue_shedding_is_retryable_and_the_daemon_stays_responsive() {
    // One worker, a one-slot queue: a burst of slow (cache-off) proves
    // must shed with retryable `overloaded` errors instead of queueing
    // without bound — and `stats`, answered inline on the reader
    // thread, must keep working throughout.
    let daemon = Daemon::spawn("shed", &["--jobs", "1", "--max-queue", "1"]);
    let mut flood = daemon.connect();
    let names = ["pos", "neg", "nonzero", "nonnull", "untainted", "tainted"];
    for (i, name) in names.iter().enumerate() {
        flood.send(&format!(
            "{{\"id\":{i},\"method\":\"prove\",\"params\":{{\"names\":[\"{name}\"],\"cache\":false}}}}"
        ));
    }
    let mut shed = 0;
    let mut served = 0;
    for _ in 0..6 {
        let r = flood.recv();
        if r.get("ok").and_then(Json::as_bool) == Some(true) {
            served += 1;
        } else {
            let error = r.get("error").expect("error object");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("overloaded"),
                "shed requests draw the retryable overload code: {r}"
            );
            assert_eq!(
                error.get("retryable").and_then(Json::as_bool),
                Some(true),
                "overload must be marked retryable: {r}"
            );
            shed += 1;
        }
    }
    assert!(shed >= 1, "a one-slot queue must shed part of a 6-burst");
    assert!(served >= 1, "accepted work must still complete");
    // The daemon remains responsive to monitoring while loaded.
    let mut observer = daemon.connect();
    let stats = observer.roundtrip("{\"id\":900,\"method\":\"stats\"}");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let result = stats.get("result").expect("stats result");
    assert!(
        result.get("shed").and_then(Json::as_u64).unwrap_or(0) >= shed,
        "shed requests must be counted: {result}"
    );
    drop(flood);
    drop(observer);
    daemon.shutdown();
}

// ----- TCP transport -----

/// The resident cache's cumulative miss count in a `prove` or `stats`
/// response.
fn cache_misses(response: &Json) -> u64 {
    response
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("cache misses missing: {response}"))
}

/// What a prove body decides, without how it got there: each
/// qualifier's name and verdict, and each obligation's description and
/// proved/skipped flags. A warm replay shares these with a cold run;
/// timings and solver counters it need not.
fn verdicts(prove: &Json) -> Vec<String> {
    let field = |v: &Json, name: &str| v.get(name).map(ToString::to_string).unwrap_or_default();
    let qualifiers = prove.get("qualifiers").and_then(Json::as_array);
    qualifiers
        .unwrap_or_else(|| panic!("no qualifiers: {prove}"))
        .iter()
        .flat_map(|q| {
            let head = format!("{} {}", field(q, "name"), field(q, "verdict"));
            let obligations = q.get("obligations").and_then(Json::as_array).unwrap_or(&[]);
            std::iter::once(head).chain(obligations.iter().map(|o| {
                let flags = [
                    field(o, "description"),
                    field(o, "proved"),
                    field(o, "skipped"),
                ];
                flags.join(" ")
            }))
        })
        .collect()
}

/// Pipelines `rounds` full proves on `client` and returns the last
/// answer, having checked that each one succeeded. Only the last answer
/// is parsed, so the client spends little of the CPU the daemon is
/// being timed on.
fn prove_rounds<S: Read + Write>(mut client: Client<S>, rounds: usize) -> Json {
    let batch: String = (0..rounds)
        .map(|i| format!("{{\"id\":{i},\"method\":\"prove\"}}\n"))
        .collect();
    client
        .stream
        .write_all(batch.as_bytes())
        .expect("requests written");
    let mut line = String::new();
    for _ in 0..rounds {
        line.clear();
        client.reader.read_line(&mut line).expect("response read");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
}

/// CPU clock ticks from a `/proc/<pid>/stat` line: `utime + stime`,
/// the process's own time, or with `children`, `cutime + cstime`, the
/// time of the children it has reaped.
#[cfg(target_os = "linux")]
fn cpu_ticks(stat: &str, children: bool) -> u64 {
    // Field 2, the command name, is parenthesised and may hold spaces;
    // the fields after it are numbered from 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let first = if children { 16 } else { 14 };
    let tick = |n: usize| fields[n - 3].parse::<u64>().expect("numeric stat field");
    tick(first) + tick(first + 1)
}

/// The CPU ticks that `processes` parallel one-shot `stqc prove` runs
/// use, read as their parent shell's children's time once it has
/// reaped them all.
#[cfg(target_os = "linux")]
fn oneshot_ticks(processes: u64) -> u64 {
    let script = format!(
        "pids=; i=0; while [ $i -lt {processes} ]; do \
           \"$0\" prove >/dev/null & pids=\"$pids $!\"; i=$((i + 1)); \
         done; \
         for p in $pids; do wait $p || exit 1; done; cat /proc/$$/stat"
    );
    let out = Command::new("sh")
        .args(["-c", &script, env!("CARGO_BIN_EXE_stqc")])
        .output()
        .expect("sh runs");
    assert!(
        out.status.success(),
        "a one-shot stqc prove failed: {out:?}"
    );
    cpu_ticks(&String::from_utf8_lossy(&out.stdout), true)
}

#[test]
fn tcp_and_unix_clients_are_served_concurrently_by_one_daemon() {
    let (daemon, addr) = Daemon::spawn_dual("mixed", &["--jobs", "2"]);
    let mut unix = daemon.connect();
    let mut tcp = Daemon::connect_tcp(&addr);
    // Interleave: all four requests in flight before any response read.
    unix.send("{\"id\":100,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}");
    tcp.send("{\"id\":200,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}");
    unix.send("{\"id\":101,\"method\":\"check\",\"params\":{\"source\":\"int pos x = 3;\"}}");
    tcp.send("{\"id\":201,\"method\":\"check\",\"params\":{\"source\":\"int pos x = 3;\"}}");
    // `--jobs 2` lets each connection's pair overlap, so per-connection
    // response order is not send order — ids attribute them.
    let unix_responses = [unix.recv(), unix.recv()];
    let tcp_responses = [tcp.recv(), tcp.recv()];
    for (ids, responses) in [([100, 101], unix_responses), ([200, 201], tcp_responses)] {
        for id in ids {
            let r = responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
                .unwrap_or_else(|| panic!("no response with id {id}: {responses:?}"));
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }
    }

    // Warm the cache with one full prove. Then two clients on each
    // transport replay it concurrently: no new cache misses, the
    // verdicts of a one-shot `stqc prove --json`, and at least five
    // times the requests per second of parallel one-shot `stqc prove`
    // processes. Both sides keep every core busy, so that rate ratio is
    // their ratio of CPU time per prove, which is what is compared:
    // unlike wall time, it does not depend on what neighbouring tests
    // run meanwhile.
    let warm = unix.roundtrip("{\"id\":102,\"method\":\"prove\"}");
    let warm_misses = cache_misses(&warm);
    // Pipelined, within the default per-connection in-flight cap.
    let (clients, rounds) = (4, 25);
    #[cfg(target_os = "linux")]
    let daemon_ticks = || {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", daemon.pid()));
        cpu_ticks(&stat.expect("daemon stat readable"), false)
    };
    #[cfg(target_os = "linux")]
    let ticks_before = daemon_ticks();
    let replays: Vec<_> = (0..clients)
        .map(|i| {
            if i % 2 == 0 {
                let client = daemon.connect();
                (
                    "unix",
                    std::thread::spawn(move || prove_rounds(client, rounds)),
                )
            } else {
                let client = Daemon::connect_tcp(&addr);
                (
                    "tcp",
                    std::thread::spawn(move || prove_rounds(client, rounds)),
                )
            }
        })
        .collect();
    let answers: Vec<_> = replays
        .into_iter()
        .map(|(transport, replay)| (transport, replay.join().expect("replay client")))
        .collect();
    #[cfg(target_os = "linux")]
    {
        let served = daemon_ticks() - ticks_before;
        let processes = 16;
        let oneshot = oneshot_ticks(processes);
        let proves = (clients * rounds) as u64;
        assert!(
            oneshot * proves >= 5 * processes * served,
            "a warm daemon must serve at least 5x the one-shot request rate: \
             {served} CPU ticks for {proves} proves vs {oneshot} for {processes} processes"
        );
    }
    let stats = unix.roundtrip("{\"id\":103,\"method\":\"stats\"}");
    assert_eq!(
        cache_misses(&stats),
        warm_misses,
        "the warm replay missed: {stats}"
    );
    let oneshot = verdicts(&stqc_json(&["prove", "--json"]));
    for (transport, answer) in &answers {
        let result = answer.get("result").expect("prove result");
        assert_eq!(
            verdicts(result),
            oneshot,
            "{transport} verdicts differ from one-shot"
        );
    }

    // Shutdown over TCP works exactly like over the socket, and still
    // removes the Unix socket file on the way out.
    let bye = tcp.roundtrip("{\"id\":9,\"method\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true), "{bye}");
    let mut daemon = daemon;
    let code = daemon.child.0.wait().expect("daemon exits").code();
    assert_eq!(code, Some(0), "requested shutdown must exit 0");
    assert!(
        !daemon.socket.exists(),
        "socket file must be removed on exit"
    );
}

#[test]
fn tcp_call_subcommand_round_trips() {
    let (daemon, addr) = Daemon::spawn_dual("tcp-call", &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args(["call", "--tcp", &addr, "prove", "{\"names\":[\"pos\"]}"])
        .output()
        .expect("stqc call runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let response =
        Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("call prints the response");
    assert_eq!(
        response
            .get("result")
            .and_then(|r| r.get("all_sound"))
            .and_then(Json::as_bool),
        Some(true)
    );
    daemon.shutdown();
}

// ----- reactor resource accounting -----

#[test]
fn connection_teardown_releases_resources_promptly() {
    // Regression for the accept-loop JoinHandle leak: the daemon's
    // open-connection gauge must fall back to the observer alone as
    // soon as clients hang up — not at shutdown.
    let daemon = Daemon::spawn("teardown", &[]);
    let mut observer = daemon.connect();
    let mut clients: Vec<Client> = (0..8).map(|_| daemon.connect()).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let r = c.roundtrip(&format!("{{\"id\":{i},\"method\":\"health\"}}"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    }
    let held = observer.roundtrip("{\"id\":1,\"method\":\"stats\"}");
    assert_eq!(
        stat_u64(&held, "open_connections"),
        9,
        "eight clients plus the observer: {held}"
    );
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = observer.roundtrip("{\"id\":2,\"method\":\"stats\"}");
        if stat_u64(&now, "open_connections") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "closed connections were never released: {now}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(observer);
    daemon.shutdown();
}

#[test]
fn reactor_serves_64_mixed_connections_from_a_bounded_thread_count() {
    // The acceptance drill: 64 held-open connections (half Unix, half
    // TCP) plus active clients, while the daemon's thread count stays
    // O(workers), not O(clients) — the reactor multiplexes them all.
    let (daemon, addr) = Daemon::spawn_dual("many-conns", &["--jobs", "2"]);
    let mut idle_unix = Vec::new();
    let mut idle_tcp = Vec::new();
    for i in 0..64 {
        if i % 2 == 0 {
            idle_unix.push(
                std::os::unix::net::UnixStream::connect(&daemon.socket).expect("idle connect"),
            );
        } else {
            idle_tcp.push(std::net::TcpStream::connect(addr.as_str()).expect("idle tcp connect"));
        }
    }
    // Active traffic on top of the idle herd, over both transports.
    let mut unix = daemon.connect();
    let mut tcp = Daemon::connect_tcp(&addr);
    let ru = unix.roundtrip("{\"id\":1,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}");
    assert_eq!(ru.get("ok").and_then(Json::as_bool), Some(true), "{ru}");
    let rt = tcp.roundtrip("{\"id\":2,\"method\":\"prove\",\"params\":{\"names\":[\"pos\"]}}");
    assert_eq!(rt.get("ok").and_then(Json::as_bool), Some(true), "{rt}");
    let stats = unix.roundtrip("{\"id\":3,\"method\":\"stats\"}");
    assert!(
        stat_u64(&stats, "open_connections") >= 66,
        "the idle herd must all be held open: {stats}"
    );
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.pid()))
            .expect("proc status readable");
        let threads: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads line")
            .trim()
            .parse()
            .expect("thread count");
        assert!(
            threads <= 16,
            "66 connections must not cost 66 threads (got {threads}):\n{status}"
        );
    }
    drop(idle_unix);
    drop(idle_tcp);
    drop(unix);
    drop(tcp);
    daemon.shutdown();
}

#[test]
fn idle_daemon_blocks_in_poll_instead_of_spinning() {
    // Regression for the 10ms-per-WouldBlock accept loop: half a second
    // of quiet must cost at most a handful of poll(2) returns (the
    // observer's own stats round-trips), never a timeout-driven spin.
    let daemon = Daemon::spawn("no-spin", &[]);
    let mut observer = daemon.connect();
    let before = observer.roundtrip("{\"id\":1,\"method\":\"stats\"}");
    let polls_before = before
        .get("result")
        .and_then(|r| r.get("reactor"))
        .and_then(|r| r.get("polls"))
        .and_then(Json::as_u64)
        .expect("reactor polls in stats");
    std::thread::sleep(Duration::from_millis(500));
    let after = observer.roundtrip("{\"id\":2,\"method\":\"stats\"}");
    let polls_after = after
        .get("result")
        .and_then(|r| r.get("reactor"))
        .and_then(|r| r.get("polls"))
        .and_then(Json::as_u64)
        .expect("reactor polls in stats");
    let churn = polls_after - polls_before;
    assert!(
        churn <= 5,
        "an idle daemon must block in poll, not spin: {churn} poll returns in 500ms"
    );
    drop(observer);
    daemon.shutdown();
}

#[test]
fn a_large_request_line_does_not_stall_other_connections() {
    // A `check` line just under the default 1 MiB --max-line-bytes is
    // framed and decoded on the reactor thread; that must take so little
    // time that a `stats` on another connection still answers promptly.
    let daemon = Daemon::spawn("large-line", &["--jobs", "1"]);
    let prefix =
        r#"{"id":1,"method":"check","params":{"source":"int pos one() { return (int pos) 1; }\n/*"#;
    let suffix = r#"*/\n"}}"#;
    let filler = r#"padding with \"quotes\", \\ backslashes,\ttabs and newlines\n"#;
    let room = (1 << 20) - prefix.len() - suffix.len();
    let line = format!("{prefix}{}{suffix}", filler.repeat(room / filler.len()));
    assert!(line.len() > (1 << 20) - filler.len() && line.len() <= 1 << 20);

    let mut big = daemon.connect();
    let mut observer = daemon.connect();
    let warm = observer.roundtrip("{\"id\":1,\"method\":\"stats\"}");
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));

    big.send(&line);
    let start = Instant::now();
    let stats = observer.roundtrip("{\"id\":2,\"method\":\"stats\"}");
    let waited = start.elapsed();
    assert_eq!(stats.get("id").and_then(Json::as_u64), Some(2), "{stats}");
    assert!(
        waited < Duration::from_millis(500),
        "stats waited {waited:?} behind a {}-byte request line",
        line.len()
    );

    let checked = big.recv();
    assert_eq!(checked.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(
        checked.get("ok").and_then(Json::as_bool),
        Some(true),
        "{checked}"
    );
    drop(big);
    drop(observer);
    daemon.shutdown();
}

/// `n` reference qualifiers, each sound and each with its own
/// invariant, so no two share a cached proof: a registry whose
/// cache-off prove runs for a while.
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
fn stats_and_health_answer_while_a_reload_waits_behind_a_running_prove() {
    // `stats` and `health` are answered on the reactor thread. A
    // `reload` sent while a long prove runs must not make them wait for
    // that prove: the registry swap it queues for may not block the
    // reactor's own read of the registry. Both must answer promptly,
    // and well before the prove does. The library doubles until its
    // prove outlasts both probes, so the test does not depend on how
    // fast the prover is.
    let mut n = 200;
    loop {
        let lib = std::env::temp_dir().join(format!("stqc-heavy-{}-{n}.stq", std::process::id()));
        std::fs::write(&lib, heavy_quals(n)).expect("library written");
        let daemon = Daemon::spawn(
            &format!("swap-stall-{n}"),
            &["--jobs", "2", "--quals", lib.to_str().expect("utf8 path")],
        );
        let mut prover = daemon.connect();
        prover.send("{\"id\":1,\"method\":\"prove\",\"params\":{\"cache\":false}}");
        let proved = std::thread::spawn(move || {
            let answer = prover.recv();
            (Instant::now(), answer)
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut reloader = daemon.connect();
        reloader.send("{\"id\":2,\"method\":\"reload\"}");
        std::thread::sleep(Duration::from_millis(50));
        let probe = |method: &str| {
            let sent = Instant::now();
            let answer = daemon
                .connect()
                .roundtrip(&format!("{{\"id\":3,\"method\":\"{method}\"}}"));
            assert_eq!(
                answer.get("ok").and_then(Json::as_bool),
                Some(true),
                "{answer}"
            );
            let waited = sent.elapsed();
            assert!(
                waited < Duration::from_millis(500),
                "{method} waited {waited:?}"
            );
            Instant::now()
        };
        let stats_at = probe("stats");
        std::thread::sleep(Duration::from_millis(20));
        let health_at = probe("health");
        let (proved_at, proof) = proved.join().expect("prove reader");
        assert_eq!(
            proof.get("ok").and_then(Json::as_bool),
            Some(true),
            "{proof}"
        );
        let reloaded = reloader.recv();
        assert_eq!(
            reloaded.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reloaded}"
        );
        drop(reloader);
        daemon.shutdown();
        let _ = std::fs::remove_file(&lib);
        if proved_at < health_at && n < 6400 {
            // The prove finished before the probes went out.
            n *= 2;
            continue;
        }
        assert!(
            stats_at < proved_at,
            "{n} qualifiers: stats answered after the prove"
        );
        assert!(
            health_at < proved_at,
            "{n} qualifiers: health answered after the prove"
        );
        break;
    }
}

// ----- high availability: failover, shared journal, hot reload -----

/// Scratch directory for one HA test, removed on success.
fn ha_scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("stqc-ha-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

#[test]
fn call_json_wraps_the_response_with_client_counters() {
    let daemon = Daemon::spawn("call-json", &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args([
            "call",
            "--json",
            "--socket",
            daemon.socket.to_str().expect("utf8 path"),
            "health",
        ])
        .output()
        .expect("stqc call runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let doc = Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("--json output parses as one JSON document");
    assert_eq!(
        doc.get("response")
            .and_then(|r| r.get("result"))
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str),
        Some("ok"),
        "the raw response nests under `response`: {doc}"
    );
    let client = doc.get("client").expect("client counters object");
    for key in [
        "retries",
        "reconnects",
        "resends",
        "failovers",
        "endpoints_tried",
        "alien_dropped",
        "corrupt_lines",
    ] {
        assert!(
            client.get(key).and_then(Json::as_u64).is_some(),
            "client counter `{key}` missing: {doc}"
        );
    }
    assert_eq!(
        client.get("endpoints_tried").and_then(Json::as_u64),
        Some(1),
        "a clean single-endpoint call dials exactly one endpoint: {doc}"
    );
    assert_eq!(
        client.get("failovers").and_then(Json::as_u64),
        Some(0),
        "{doc}"
    );
    daemon.shutdown();
}

#[test]
fn call_fails_over_from_a_dead_endpoint_to_a_live_one() {
    // First endpoint: nobody home. Second: a live daemon. The call must
    // succeed by failing over, and `--json` must show it happened.
    let daemon = Daemon::spawn("failover", &[]);
    let dead = std::env::temp_dir().join(format!("stqc-dead-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&dead);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args([
            "call",
            "--json",
            "--socket",
            dead.to_str().expect("utf8 path"),
            "--socket",
            daemon.socket.to_str().expect("utf8 path"),
            "health",
        ])
        .output()
        .expect("stqc call runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "failover must rescue the call: {out:?}"
    );
    let doc = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("json output");
    let client = doc.get("client").expect("client counters");
    assert_eq!(
        client.get("endpoints_tried").and_then(Json::as_u64),
        Some(2),
        "both endpoints were dialed: {doc}"
    );
    // A first connection — even to a non-primary endpoint — is not a
    // failover; that counter tracks switches away from an endpoint the
    // client had already been talking to.
    assert_eq!(
        client.get("failovers").and_then(Json::as_u64),
        Some(0),
        "{doc}"
    );
    daemon.shutdown();
}

#[test]
fn call_exhausting_every_endpoint_exits_6_and_names_them_all() {
    let pid = std::process::id();
    let dead_a = std::env::temp_dir().join(format!("stqc-dead-a-{pid}.sock"));
    let dead_b = std::env::temp_dir().join(format!("stqc-dead-b-{pid}.sock"));
    let _ = std::fs::remove_file(&dead_a);
    let _ = std::fs::remove_file(&dead_b);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args([
            "call",
            "--socket",
            dead_a.to_str().expect("utf8 path"),
            "--socket",
            dead_b.to_str().expect("utf8 path"),
            "stats",
        ])
        .output()
        .expect("stqc call runs");
    assert_eq!(
        out.status.code(),
        Some(6),
        "exhaustion is the unreachable exit: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for dead in [&dead_a, &dead_b] {
        assert!(
            stderr.contains(dead.to_str().expect("utf8 path")),
            "the hint must name every endpoint tried: {stderr}"
        );
    }
}

#[test]
fn addr_and_pid_files_appear_atomically_for_startup_pollers() {
    // Regression for torn coordination files: a script polling for
    // `--addr-file` (or `--pid-file`) races the daemon's write. With
    // temp+rename the file is only ever observed absent or complete —
    // the very first successful read must already hold a full line.
    let scratch = ha_scratch("atomic-files");
    let addr_file = scratch.join("addr");
    let pid_file = scratch.join("pid");
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_stqc"))
            .arg("serve")
            .args(["--tcp", "127.0.0.1:0"])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--pid-file")
            .arg(&pid_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("stqc serve spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut addr = None;
    let mut pid = None;
    // Poll as tight as the OS allows; every observation must be
    // all-or-nothing.
    while (addr.is_none() || pid.is_none()) && Instant::now() < deadline {
        if addr.is_none() {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                assert!(
                    text.ends_with('\n') && text.trim().contains(':'),
                    "addr-file observed torn: {text:?}"
                );
                addr = Some(text.trim().to_owned());
            }
        }
        if pid.is_none() {
            if let Ok(text) = std::fs::read_to_string(&pid_file) {
                assert!(
                    text.ends_with('\n') && text.trim().parse::<u32>().is_ok(),
                    "pid-file observed torn: {text:?}"
                );
                pid = Some(text.trim().to_owned());
            }
        }
    }
    let addr = addr.expect("daemon wrote its TCP address");
    assert_eq!(pid.as_deref(), Some(child.0.id().to_string().as_str()));
    // No temp-file litter left beside the real files.
    let litter: Vec<String> = std::fs::read_dir(&scratch)
        .expect("scratch listable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");
    let mut client = Daemon::connect_tcp(&addr);
    let bye = client.roundtrip("{\"id\":0,\"method\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(child.0.wait().expect("daemon exits").code(), Some(0));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_daemon_that_cannot_bind_publishes_neither_pid_nor_addr_file() {
    // Binding comes before publishing. A second daemon on a served socket
    // must not take over the first one's `--pid-file`, and a daemon that
    // cannot bind at all must leave no coordination file behind.
    let scratch = ha_scratch("failed-start");
    let pid_file = scratch.join("pid");
    let pid_arg = pid_file.to_str().expect("utf8 path");
    let first = Daemon::spawn_at(
        "failed-start",
        scratch.join("s.sock"),
        &["--pid-file", pid_arg],
    );
    let published = || std::fs::read_to_string(&pid_file).unwrap_or_default();
    let deadline = Instant::now() + Duration::from_secs(20);
    while published().trim() != first.pid().to_string() {
        assert!(
            Instant::now() < deadline,
            "the daemon never wrote its pid: {:?}",
            published()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let serve = |socket: &std::path::Path, pid: &std::path::Path, addr: &[&std::path::Path]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stqc"));
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--pid-file")
            .arg(pid);
        for addr_file in addr {
            cmd.arg("--addr-file").arg(addr_file);
        }
        cmd.output().expect("stqc serve runs")
    };
    let second = serve(&first.socket, &pid_file, &[]);
    assert_eq!(second.status.code(), Some(3), "{second:?}");
    assert_eq!(
        published().trim(),
        first.pid().to_string(),
        "the running daemon's pid was replaced"
    );

    let (pid2, addr2) = (scratch.join("pid2"), scratch.join("addr2"));
    let unbindable = serve(
        &scratch.join("no-such-dir").join("s.sock"),
        &pid2,
        &[&addr2],
    );
    assert_eq!(unbindable.status.code(), Some(3), "{unbindable:?}");
    assert!(
        !pid2.exists() && !addr2.exists(),
        "a daemon that never bound published files"
    );
    assert!(
        !String::from_utf8_lossy(&unbindable.stderr).contains("serving on"),
        "a daemon that never bound claimed to serve: {unbindable:?}"
    );
    first.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn two_daemon_processes_share_one_journal_without_losing_entries() {
    // True multi-process contention over one proof-cache journal: two
    // daemons split the builtin qualifiers between them and persist
    // concurrently-held appends into the same file; a third daemon then
    // proves everything from that journal alone — zero misses means
    // neither writer clobbered the other's batch.
    let scratch = ha_scratch("shared-journal");
    let cache_dir = scratch.join("cache");
    let cache = cache_dir.to_str().expect("utf8 path");
    let a = Daemon::spawn_at("journal-a", scratch.join("a.sock"), &["--cache-dir", cache]);
    let b = Daemon::spawn_at("journal-b", scratch.join("b.sock"), &["--cache-dir", cache]);
    let mut ca = a.connect();
    let mut cb = b.connect();
    // Interleave the two proves so both daemons hold dirty batches at
    // once; each persist must fold the other's tail, not overwrite it.
    ca.send(
        "{\"id\":1,\"method\":\"prove\",\"params\":{\"names\":[\"pos\",\"neg\",\"nonzero\",\"nonnull\"]}}",
    );
    cb.send(
        "{\"id\":2,\"method\":\"prove\",\"params\":{\"names\":[\"untainted\",\"tainted\",\"unique\",\"unaliased\"]}}",
    );
    assert_eq!(ca.recv().get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(cb.recv().get("ok").and_then(Json::as_bool), Some(true));
    drop(ca);
    drop(cb);
    a.shutdown();
    b.shutdown();

    // The heir proves the full builtin set from the merged journal.
    let c = Daemon::spawn_at("journal-c", scratch.join("c.sock"), &["--cache-dir", cache]);
    let mut cc = c.connect();
    let proved = cc.roundtrip("{\"id\":3,\"method\":\"prove\"}");
    assert_eq!(
        proved.get("ok").and_then(Json::as_bool),
        Some(true),
        "{proved}"
    );
    let misses = proved
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|x| x.get("misses"))
        .and_then(Json::as_u64);
    assert_eq!(
        misses,
        Some(0),
        "an entry written by one daemon was lost to the other: {proved}"
    );
    drop(cc);
    c.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn peer_daemon_serves_follow_hits_from_a_journal_it_never_wrote() {
    // The warm-failover contract: daemon A computes every proof; daemon
    // B — same cache dir, never proved at — must answer the same proofs
    // warm by following the journal, counting them as follow hits.
    let scratch = ha_scratch("follow");
    let cache_dir = scratch.join("cache");
    let cache = cache_dir.to_str().expect("utf8 path");
    let a = Daemon::spawn_at("follow-a", scratch.join("a.sock"), &["--cache-dir", cache]);
    let b = Daemon::spawn_at("follow-b", scratch.join("b.sock"), &["--cache-dir", cache]);
    let mut ca = a.connect();
    let warm = ca.roundtrip("{\"id\":1,\"method\":\"prove\"}");
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true), "{warm}");

    let mut cb = b.connect();
    let failed_over = cb.roundtrip("{\"id\":2,\"method\":\"prove\"}");
    assert_eq!(
        failed_over.get("ok").and_then(Json::as_bool),
        Some(true),
        "{failed_over}"
    );
    let cache_obj = failed_over
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache ledger");
    assert_eq!(
        cache_obj.get("misses").and_then(Json::as_u64),
        Some(0),
        "B re-proved what A already journaled: {failed_over}"
    );
    assert!(
        cache_obj
            .get("follow_hits")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "warm answers on B must be attributed to journal follow: {failed_over}"
    );
    drop(ca);
    drop(cb);
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn reload_of_a_broken_library_rolls_back_in_a_real_daemon() {
    // The acceptance drill from the issue, end to end in a child
    // process: a daemon serving a qualifier library keeps serving the
    // old definitions when the library breaks on disk, and the failed
    // reload reports a structured, non-fatal `input` error.
    let scratch = ha_scratch("reload-rollback");
    let lib = scratch.join("quals.stq");
    let good = "value qualifier nonneg(int Expr E)\n\
         case E of\n\
             decl int Const C: C, where C >= 0\n\
           | decl int Expr E1, E2: E1 + E2, where nonneg(E1) && nonneg(E2)\n\
         invariant value(E) >= 0";
    std::fs::write(&lib, good).expect("library written");
    let daemon = Daemon::spawn_at(
        "reload",
        scratch.join("d.sock"),
        &["--quals", lib.to_str().expect("utf8 path")],
    );
    let mut client = daemon.connect();
    let before =
        client.roundtrip("{\"id\":1,\"method\":\"prove\",\"params\":{\"names\":[\"nonneg\"]}}");
    assert_eq!(
        before.get("ok").and_then(Json::as_bool),
        Some(true),
        "{before}"
    );

    // Break the library on disk; the reload must roll back.
    std::fs::write(&lib, "value qualifier broken(").expect("library broken");
    let rejected = client.roundtrip("{\"id\":2,\"method\":\"reload\"}");
    assert_eq!(
        rejected.get("ok").and_then(Json::as_bool),
        Some(false),
        "{rejected}"
    );
    let error = rejected.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("input"),
        "{rejected}"
    );
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("rolled back"),
        "the error must say the swap was rolled back: {rejected}"
    );

    // The old registry still serves.
    let after =
        client.roundtrip("{\"id\":3,\"method\":\"prove\",\"params\":{\"names\":[\"nonneg\"]}}");
    assert_eq!(
        after.get("ok").and_then(Json::as_bool),
        Some(true),
        "{after}"
    );

    // Fix the file; the next reload swaps and bumps the epoch.
    std::fs::write(&lib, good).expect("library repaired");
    let accepted = client.roundtrip("{\"id\":4,\"method\":\"reload\"}");
    assert_eq!(
        accepted.get("ok").and_then(Json::as_bool),
        Some(true),
        "{accepted}"
    );
    assert_eq!(
        accepted
            .get("result")
            .and_then(|r| r.get("reloaded"))
            .and_then(Json::as_bool),
        Some(true),
        "{accepted}"
    );
    let stats = client.roundtrip("{\"id\":5,\"method\":\"stats\"}");
    assert_eq!(stat_u64(&stats, "reloads"), 1, "{stats}");
    assert_eq!(stat_u64(&stats, "reload_failures"), 1, "{stats}");
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn socket_call_subcommand_round_trips() {
    let daemon = Daemon::spawn("call", &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args([
            "call",
            "--socket",
            daemon.socket.to_str().expect("utf8 path"),
            "prove",
            "{\"names\":[\"pos\"]}",
        ])
        .output()
        .expect("stqc call runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let response =
        Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("call prints the response");
    assert_eq!(
        response
            .get("result")
            .and_then(|r| r.get("all_sound"))
            .and_then(Json::as_bool),
        Some(true)
    );
    daemon.shutdown();
}

/// `v` without its `*_ms` members, at any depth: the only fields two
/// runs of the same work may disagree on.
fn without_timings(v: &Json) -> Json {
    match v {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| !k.ends_with("_ms"))
                .map(|(k, v)| (k.clone(), without_timings(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_timings).collect()),
        other => other.clone(),
    }
}

/// The members of `doc` other than `drop`.
fn without(doc: &Json, drop: &[&str]) -> Json {
    let Json::Obj(members) = doc else {
        panic!("not an object: {doc}")
    };
    Json::Obj(
        members
            .iter()
            .filter(|(k, _)| !drop.contains(&k.as_str()))
            .cloned()
            .collect(),
    )
}

fn stqc_json(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_stqc"))
        .args(args)
        .output()
        .expect("stqc runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}: {stdout}"))
}

#[test]
fn check_json_is_the_daemon_check_result_plus_command_and_file() {
    let source = "int pos f(int a) { int pos y = (int pos)(a * 2); return a; }\nint g(int *p) { return *p; }\n";
    let path = std::env::temp_dir().join(format!("stqc-schema-{}.c", std::process::id()));
    std::fs::write(&path, source).expect("source written");
    let cli = stqc_json(&["check", "--json", path.to_str().unwrap()]);
    let request = Json::obj([
        ("id", Json::from(1u64)),
        ("method", "check".into()),
        ("params", Json::obj([("source", source.into())])),
    ]);
    let (responses, _) = serve_stdio(&[], &format!("{request}\n"));
    let daemon = response_with_id(&responses, 1)
        .get("result")
        .expect("check result");
    assert_eq!(cli.get("command").and_then(Json::as_str), Some("check"));
    assert_eq!(cli.get("file").and_then(Json::as_str), path.to_str());
    assert!(cli
        .get("diagnostics")
        .and_then(Json::as_array)
        .is_some_and(|d| !d.is_empty()));
    assert_eq!(&without(&cli, &["command", "file"]), daemon);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn prove_json_qualifiers_match_an_uncached_daemon_prove() {
    for name in ["pos", "tainted", "unique"] {
        let cli = stqc_json(&["prove", "--json", name]);
        let params = Json::obj([
            ("names", [name].into_iter().collect()),
            ("cache", false.into()),
        ]);
        let request = Json::obj([
            ("id", Json::from(1u64)),
            ("method", "prove".into()),
            ("params", params),
        ]);
        let (responses, _) = serve_stdio(&[], &format!("{request}\n"));
        let daemon = response_with_id(&responses, 1)
            .get("result")
            .expect("prove result");
        assert_eq!(
            without_timings(cli.get("qualifiers").expect("cli qualifiers")),
            without_timings(daemon.get("qualifiers").expect("daemon qualifiers")),
            "{name}"
        );
        // One prove body: the command line adds only its invocation
        // fields, and the daemon's uncached run totals the same work.
        // (`cache` differs by design: null without `--cache-dir`, the
        // daemon's resident counters otherwise.)
        let lead = ["command", "budget", "retry", "jobs", "deadline_ms", "cache"];
        assert_eq!(
            without_timings(&without(&cli, &lead)),
            without_timings(&without(daemon, &["cache"])),
            "{name}"
        );
        // A cache-off prove leaves the resident cache ledger untouched.
        let cache = daemon.get("cache").expect("daemon cache ledger");
        for counter in ["entries", "hits", "misses"] {
            assert_eq!(
                cache.get(counter).and_then(Json::as_u64),
                Some(0),
                "{name}: {cache}"
            );
        }
    }
}
