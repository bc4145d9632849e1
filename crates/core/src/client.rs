//! A self-healing client for the serve daemon.
//!
//! `stqc call` began as a thin one-request wrapper: connect, write one
//! line, read one line. That is exactly the client the chaos drills
//! (`tests/chaos/`) break: responses arrive torn, corrupted, interleaved
//! with stray lines, or not at all because the connection was reset or
//! the daemon was killed and restarted. This module is the client that
//! survives all of it — and the reusable plumbing `stqc call` now sits
//! on. It takes an **ordered list of endpoints**
//! ([`ClientConfig::endpoints`]), each a Unix socket or a TCP address,
//! and speaks the identical healing contract over both transports
//! (`docs/serving.md` has the transport matrix and the HA topology).
//!
//! The healing contract (`docs/serving.md` has the retry-semantics
//! table):
//!
//! * **Reconnect.** Connection loss (reset, EOF, refused while a
//!   crashed daemon is restarted) re-establishes the connection,
//!   retrying `connect` within [`ClientConfig::connect_timeout`].
//! * **Failover.** With more than one endpoint configured, a connect
//!   failure, a mid-call severance, or a `shutting-down` rejection
//!   moves on to the next endpoint in the ring — under exactly the
//!   same safe-resend rules as a same-endpoint reconnect. The connect
//!   loop scans the whole ring (preferring the current endpoint) every
//!   pass, so a dead daemon is skipped and a revived one is found
//!   again. [`ClientStats::failovers`] counts successful switches;
//!   [`ClientStats::endpoints_tried`] counts distinct endpoints ever
//!   dialed.
//! * **Bounded backoff + jitter.** Retryable failures — the server's
//!   `overloaded` and `shutting-down` errors, plus transport loss —
//!   back off exponentially from [`ClientConfig::backoff_base`] up to
//!   [`ClientConfig::backoff_max`], with seeded jitter so colliding
//!   clients spread out deterministically per seed.
//! * **Budgets.** At most [`ClientConfig::max_retries`] re-attempts per
//!   call, all inside [`ClientConfig::call_deadline`] when one is set.
//! * **Re-send under a fresh id.** Every protocol method is idempotent
//!   (the daemon's only registry writer, `reload`, converges on the
//!   files on disk), so a request whose answer was lost is simply sent
//!   again. Every attempt uses a fresh request id, and responses are
//!   attributed strictly by id: stray lines with unknown ids are
//!   dropped, unparseable lines are treated as transport corruption.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stq_util::json::Json;
use stq_util::splitmix64;

use crate::stream::Stream;

/// One place a daemon might be listening: a Unix socket path or a TCP
/// `HOST:PORT` address. Both carry the identical wire protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP `HOST:PORT` address.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Knobs for [`Client`]; defaults mirror the historical thin client
/// (one connect attempt, no retries, no deadline).
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Ordered daemon endpoints. The first is preferred; the rest are
    /// failover targets, tried in ring order on connect failure,
    /// severance, or a `shutting-down` rejection.
    pub endpoints: Vec<Endpoint>,
    /// Total budget for establishing a connection, including retries
    /// while every endpoint is refused/absent (a daemon being
    /// restarted). Zero means a single pass over the ring.
    pub connect_timeout: Duration,
    /// Overall wall-clock budget for one `call`, covering every retry;
    /// `None` waits indefinitely (the pre-chaos behavior).
    pub call_deadline: Option<Duration>,
    /// Re-attempts allowed per call after recoverable failures.
    pub max_retries: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Jitter seed (splitmix64): the same seed yields the same jitter
    /// sequence, keeping chaos campaigns reproducible.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            endpoints: Vec::new(),
            connect_timeout: Duration::ZERO,
            call_deadline: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl ClientConfig {
    /// A thin-client config for a single Unix-socket endpoint.
    pub fn unix(socket: impl Into<PathBuf>) -> ClientConfig {
        ClientConfig {
            endpoints: vec![Endpoint::Unix(socket.into())],
            ..ClientConfig::default()
        }
    }

    /// A thin-client config for a single TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> ClientConfig {
        ClientConfig {
            endpoints: vec![Endpoint::Tcp(addr.into())],
            ..ClientConfig::default()
        }
    }
}

/// Self-healing telemetry, accumulated across every call on one
/// [`Client`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Retryable server errors (`overloaded`, `shutting-down`)
    /// answered with a backoff and a re-sent request.
    pub retries: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// Connections established to a *different* endpoint than the
    /// previous one — successful failovers within the endpoint ring.
    pub failovers: u64,
    /// Distinct endpoints this client has ever dialed (successfully or
    /// not). 1 for a healthy single-daemon setup.
    pub endpoints_tried: u64,
    /// Requests re-sent under a fresh id after transport trouble
    /// (corrupt line, connection loss, id-`null` parse error).
    pub resends: u64,
    /// Well-formed response lines dropped because their id belongs to
    /// no outstanding request (injected/interleaved strays).
    pub alien_dropped: u64,
    /// Response lines discarded as unparseable (torn or
    /// garbage-corrupted).
    pub corrupt_lines: u64,
}

/// Why a call gave up. Server-level errors (`input`, `invalid`, …) are
/// *not* here: those come back as the response document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallError {
    /// No connection could be established within the connect budget.
    Unreachable(String),
    /// The call deadline lapsed before an attributed answer arrived.
    DeadlineExhausted(String),
    /// The retry budget ran out on recoverable *transport* failures
    /// (an attributed retryable error on the final attempt is returned
    /// as the outcome instead).
    RetriesExhausted(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Unreachable(m) => write!(f, "daemon unreachable: {m}"),
            CallError::DeadlineExhausted(m) => write!(f, "call deadline exhausted: {m}"),
            CallError::RetriesExhausted(m) => write!(f, "retry budget exhausted: {m}"),
        }
    }
}

impl std::error::Error for CallError {}

/// The attributed response to one call: the raw wire line plus its
/// parsed form. `ok:false` responses with terminal codes land here too
/// — only transport-level failures become [`CallError`].
#[derive(Clone, Debug)]
pub struct CallOutcome {
    pub raw: String,
    pub doc: Json,
}

struct Conn {
    stream: Stream,
    reader: BufReader<Stream>,
}

enum Recv {
    Line(String),
    Corrupt,
    Eof,
    TimedOut,
}

/// A reconnecting, retrying, failing-over client for a tier of serve
/// daemons (one endpoint is simply a tier of one).
pub struct Client {
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    rng: u64,
    ever_connected: bool,
    /// Index of the endpoint to prefer on the next dial.
    endpoint_idx: usize,
    /// Endpoint of the most recent successful connection; a later
    /// connection elsewhere is a failover.
    last_connected_idx: Option<usize>,
    /// Which endpoints have ever been dialed (for `endpoints_tried`).
    tried: Vec<bool>,
    stats: ClientStats,
}

impl Client {
    pub fn new(cfg: ClientConfig) -> Client {
        let rng = splitmix64(cfg.seed ^ 0xC1A0_5EED);
        let tried = vec![false; cfg.endpoints.len()];
        Client {
            cfg,
            conn: None,
            next_id: 0,
            rng,
            ever_connected: false,
            endpoint_idx: 0,
            last_connected_idx: None,
            tried,
            stats: ClientStats::default(),
        }
    }

    /// Self-healing counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Sleeps one backoff step (exponential in `attempt`, jittered,
    /// clipped to the remaining deadline).
    fn backoff(&mut self, attempt: u32, overall: Option<Instant>) {
        let exp = attempt.min(16);
        let base = self.cfg.backoff_base.as_secs_f64() * f64::from(1u32 << exp);
        let capped = base.min(self.cfg.backoff_max.as_secs_f64());
        self.rng = splitmix64(self.rng);
        let jitter = 0.5 + (self.rng >> 11) as f64 / 9_007_199_254_740_992.0;
        let mut sleep = Duration::from_secs_f64(capped * jitter);
        if let Some(deadline) = overall {
            sleep = sleep.min(deadline.saturating_duration_since(Instant::now()));
        }
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }

    /// Marks endpoint `idx` as dialed, updating `endpoints_tried`.
    fn mark_tried(&mut self, idx: usize) {
        if !self.tried[idx] {
            self.tried[idx] = true;
            self.stats.endpoints_tried += 1;
        }
    }

    /// Ensures a live connection, scanning the endpoint ring (starting
    /// at the preferred index) within the connect budget and the call
    /// deadline, when tighter. On total failure the error names every
    /// endpoint with the last reason each one refused.
    fn ensure_connected(&mut self, overall: Option<Instant>) -> Result<(), CallError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let n = self.cfg.endpoints.len();
        if n == 0 {
            return Err(CallError::Unreachable("no endpoints configured".to_owned()));
        }
        let mut give_up = Instant::now() + self.cfg.connect_timeout;
        if let Some(deadline) = overall {
            give_up = give_up.min(deadline);
        }
        loop {
            let mut errors: Vec<String> = Vec::with_capacity(n);
            for step in 0..n {
                let idx = (self.endpoint_idx + step) % n;
                let endpoint = self.cfg.endpoints[idx].clone();
                self.mark_tried(idx);
                let dialed = match &endpoint {
                    Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
                    Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
                };
                match dialed {
                    Ok(stream) => {
                        if let Stream::Tcp(s) = &stream {
                            // Request lines are tiny; trading batching
                            // for latency matches the Unix-socket
                            // behavior.
                            let _ = s.set_nodelay(true);
                        }
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                        let reader = BufReader::new(stream.try_clone().map_err(|e| {
                            CallError::Unreachable(format!("{endpoint}: {e}"))
                        })?);
                        if self.ever_connected {
                            self.stats.reconnects += 1;
                        }
                        if self.last_connected_idx.is_some_and(|prev| prev != idx) {
                            self.stats.failovers += 1;
                        }
                        self.ever_connected = true;
                        self.last_connected_idx = Some(idx);
                        self.endpoint_idx = idx;
                        self.conn = Some(Conn { stream, reader });
                        return Ok(());
                    }
                    Err(e) => errors.push(format!("{endpoint}: {e}")),
                }
            }
            if Instant::now() >= give_up {
                return Err(CallError::Unreachable(errors.join("; ")));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// Prefers the next endpoint in the ring on the upcoming dial —
    /// the failover half of a severance or `shutting-down` recovery.
    /// A single-endpoint ring is unchanged (plain reconnect).
    fn advance_endpoint(&mut self) {
        let n = self.cfg.endpoints.len();
        if n > 1 {
            self.endpoint_idx = (self.endpoint_idx + 1) % n;
        }
    }

    /// Reads the next response line, surviving read-timeout polls (a
    /// partial line persists in the reader's buffer across polls).
    fn recv(&mut self, overall: Option<Instant>) -> Recv {
        let Some(conn) = self.conn.as_mut() else {
            return Recv::Eof;
        };
        let mut buf: Vec<u8> = Vec::new();
        loop {
            match conn.reader.read_until(b'\n', &mut buf) {
                Ok(0) => return Recv::Eof,
                Ok(_) => {
                    if buf.last() != Some(&b'\n') {
                        // EOF mid-line: a torn final line.
                        return if buf.iter().all(|b| b.is_ascii_whitespace()) {
                            Recv::Eof
                        } else {
                            Recv::Corrupt
                        };
                    }
                    let Ok(text) = String::from_utf8(buf) else {
                        return Recv::Corrupt;
                    };
                    if text.trim().is_empty() {
                        buf = Vec::new();
                        continue;
                    }
                    return Recv::Line(text.trim().to_owned());
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if let Some(deadline) = overall {
                        if Instant::now() >= deadline {
                            return Recv::TimedOut;
                        }
                    }
                }
                Err(_) => return Recv::Eof,
            }
        }
    }

    /// One request, healed end-to-end: returns the single attributed
    /// response, or a [`CallError`] describing why no trustworthy
    /// answer could be obtained.
    ///
    /// `params` is the request's parameter object; `deadline_ms` is the
    /// *wire* per-request deadline forwarded to the server (distinct
    /// from the client-side [`ClientConfig::call_deadline`]).
    ///
    /// # Errors
    ///
    /// [`CallError`] — unreachable daemon or exhausted deadline/retry
    /// budget.
    pub fn call(
        &mut self,
        method: &str,
        params: Option<&Json>,
        deadline_ms: Option<u64>,
    ) -> Result<CallOutcome, CallError> {
        let overall = self.cfg.call_deadline.map(|d| Instant::now() + d);
        let mut attempts_left = u64::from(self.cfg.max_retries) + 1;
        let mut backoff_step = 0u32;
        loop {
            if attempts_left == 0 {
                return Err(CallError::RetriesExhausted(format!(
                    "`{method}` failed after {} attempt(s)",
                    u64::from(self.cfg.max_retries) + 1
                )));
            }
            attempts_left -= 1;
            if let Some(deadline) = overall {
                if Instant::now() >= deadline {
                    return Err(CallError::DeadlineExhausted(format!(
                        "`{method}` got no attributed answer in time"
                    )));
                }
            }
            self.ensure_connected(overall)?;
            self.next_id += 1;
            let id = self.next_id;
            let mut fields = vec![("id", Json::from(id)), ("method", method.into())];
            fields.extend(deadline_ms.map(|ms| ("deadline_ms", ms.into())));
            fields.extend(params.map(|p| ("params", p.clone())));
            let mut request = Json::obj(fields).to_string();
            request.push('\n');
            let sent = {
                let conn = self.conn.as_mut().expect("ensured above");
                conn.stream
                    .write_all(request.as_bytes())
                    .and_then(|()| conn.stream.flush())
                    .is_ok()
            };
            if !sent {
                self.drop_conn();
                self.advance_endpoint();
                self.stats.resends += 1;
                continue;
            }
            // Read until a line attributed to `id` (or this attempt
            // dies and the outer loop re-sends under a fresh id).
            'read: loop {
                match self.recv(overall) {
                    Recv::TimedOut => {
                        return Err(CallError::DeadlineExhausted(format!(
                            "`{method}` got no attributed answer in time"
                        )));
                    }
                    Recv::Eof => {
                        self.drop_conn();
                        self.advance_endpoint();
                        self.stats.resends += 1;
                        break 'read;
                    }
                    Recv::Corrupt => {
                        // The corrupted line may have been our answer;
                        // nothing else may ever come. Re-send under a
                        // fresh id.
                        self.stats.corrupt_lines += 1;
                        self.stats.resends += 1;
                        break 'read;
                    }
                    Recv::Line(raw) => {
                        let Ok(doc) = Json::parse(&raw) else {
                            self.stats.corrupt_lines += 1;
                            self.stats.resends += 1;
                            break 'read;
                        };
                        let line_id = doc.get("id").cloned().unwrap_or(Json::Null);
                        if line_id.as_u64() != Some(id) {
                            let code = doc
                                .get("error")
                                .and_then(|e| e.get("code"))
                                .and_then(Json::as_str);
                            if line_id.is_null() && code == Some("parse") {
                                // The server read garbage where our
                                // request should have been: it never
                                // ran, so send it again.
                                self.stats.resends += 1;
                                break 'read;
                            }
                            // A stray line for an id we never sent (or
                            // retired): drop it, keep listening.
                            self.stats.alien_dropped += 1;
                            continue 'read;
                        }
                        // Attributed. Retryable server errors loop;
                        // everything else is the answer.
                        let code = doc
                            .get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Json::as_str);
                        match code {
                            Some("overloaded") => {
                                // Rejected before execution: re-send
                                // after a backoff. With no attempts
                                // left the rejection itself is the
                                // answer (the caller sees the raw error
                                // document, as a retry-less client
                                // always did).
                                if attempts_left == 0 {
                                    return Ok(CallOutcome { raw, doc });
                                }
                                self.stats.retries += 1;
                                self.backoff(backoff_step, overall);
                                backoff_step += 1;
                                break 'read;
                            }
                            Some("shutting-down") => {
                                // Rejected before execution; the daemon
                                // (or its current worker) is going
                                // away. Fail over to the next endpoint
                                // after a backoff.
                                if attempts_left == 0 {
                                    return Ok(CallOutcome { raw, doc });
                                }
                                self.drop_conn();
                                self.advance_endpoint();
                                self.stats.retries += 1;
                                self.backoff(backoff_step, overall);
                                backoff_step += 1;
                                break 'read;
                            }
                            _ => return Ok(CallOutcome { raw, doc }),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;
    use std::path::Path;

    fn temp_socket(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("stqc-client-{name}-{}.sock", std::process::id()))
    }

    fn cfg(socket: &Path) -> ClientConfig {
        cfg_multi(vec![Endpoint::Unix(socket.to_path_buf())])
    }

    fn cfg_multi(endpoints: Vec<Endpoint>) -> ClientConfig {
        ClientConfig {
            endpoints,
            connect_timeout: Duration::from_secs(5),
            call_deadline: Some(Duration::from_secs(10)),
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(10),
            seed: 7,
        }
    }

    /// A scripted fake daemon: accepts connections, reads one line per
    /// scripted response, writes the scripted bytes, moves on.
    fn scripted_daemon(
        socket: &Path,
        scripts: Vec<Vec<&'static str>>,
    ) -> std::thread::JoinHandle<()> {
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket).expect("bind scripted daemon");
        std::thread::spawn(move || {
            for script in scripts {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                for response in script {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let doc = Json::parse(line.trim()).expect("request is json");
                    let id = doc.get("id").and_then(Json::as_u64).expect("request id");
                    let rendered = response.replace("$ID", &id.to_string());
                    stream.write_all(rendered.as_bytes()).expect("write");
                    stream.flush().expect("flush");
                }
                // Connection drops here (stream out of scope).
            }
        })
    }

    #[test]
    fn clean_round_trip_attributes_by_id() {
        let socket = temp_socket("clean");
        let daemon = scripted_daemon(
            &socket,
            vec![vec!["{\"id\":$ID,\"ok\":true,\"result\":{\"x\":1}}\n"]],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client.call("stats", None, None).expect("clean call");
        assert_eq!(out.doc.get("ok").and_then(Json::as_bool), Some(true));
        let expected = ClientStats { endpoints_tried: 1, ..ClientStats::default() };
        assert_eq!(client.stats(), expected);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn strays_are_dropped_and_the_real_answer_is_found() {
        let socket = temp_socket("stray");
        let daemon = scripted_daemon(
            &socket,
            vec![vec![
                "{\"id\":\"stray-alien\",\"ok\":true,\"result\":{}}\n\
                 {\"id\":$ID,\"ok\":true,\"result\":{\"real\":true}}\n",
            ]],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client.call("stats", None, None).expect("healed call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("real"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(client.stats().alien_dropped, 1);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn disconnect_before_answer_reconnects_and_resends() {
        let socket = temp_socket("drop");
        // First connection: answers nothing (the script is empty), so
        // the accept loop immediately drops it. Second: answers.
        let daemon = scripted_daemon(
            &socket,
            vec![
                vec![],
                vec!["{\"id\":$ID,\"ok\":true,\"result\":{\"healed\":true}}\n"],
            ],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client.call("prove", None, None).expect("healed call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("healed"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let stats = client.stats();
        assert_eq!(stats.reconnects, 1);
        assert!(stats.resends >= 1);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn corrupt_line_triggers_a_fresh_id_resend() {
        let socket = temp_socket("corrupt");
        let daemon = scripted_daemon(
            &socket,
            vec![vec![
                "\u{fffd}garbage not json\n",
                "{\"id\":$ID,\"ok\":true,\"result\":{\"second\":true}}\n",
            ]],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client.call("check", None, None).expect("healed call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("second"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let stats = client.stats();
        assert_eq!(stats.corrupt_lines, 1);
        assert_eq!(stats.resends, 1);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn overloaded_backs_off_and_retries() {
        let socket = temp_socket("overloaded");
        let daemon = scripted_daemon(
            &socket,
            vec![vec![
                "{\"id\":$ID,\"ok\":false,\"error\":{\"code\":\"overloaded\",\"message\":\"full\"}}\n",
                "{\"id\":$ID,\"ok\":true,\"result\":{\"done\":true}}\n",
            ]],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client.call("prove", None, None).expect("healed call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("done"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(client.stats().retries, 1);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn id_null_parse_error_is_resent_under_a_fresh_id() {
        let socket = temp_socket("parse-null");
        let daemon = scripted_daemon(
            &socket,
            vec![vec![
                "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"parse\",\"message\":\"bad\"}}\n",
                "{\"id\":$ID,\"ok\":true,\"result\":{\"clean\":true}}\n",
            ]],
        );
        let mut client = Client::new(cfg(&socket));
        let out = client
            .call("check", Some(&Json::obj([("source", "".into())])), None)
            .expect("a request the daemon never ran is re-sent");
        assert_eq!(out.doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(client.stats().resends, 1);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn unreachable_socket_fails_fast_with_zero_connect_budget() {
        let socket = temp_socket("refused");
        let _ = std::fs::remove_file(&socket);
        let mut client = Client::new(ClientConfig::unix(&socket));
        let err = client.call("stats", None, None).expect_err("no daemon");
        assert!(matches!(err, CallError::Unreachable(_)), "{err:?}");
    }

    #[test]
    fn tcp_round_trip_attributes_by_id() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind tcp");
        let addr = listener.local_addr().expect("addr").to_string();
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read request");
            let doc = Json::parse(line.trim()).expect("request is json");
            let id = doc.get("id").and_then(Json::as_u64).expect("request id");
            let response = format!("{{\"id\":{id},\"ok\":true,\"result\":{{\"tcp\":true}}}}\n");
            stream.write_all(response.as_bytes()).expect("write");
        });
        let mut client = Client::new(cfg_multi(vec![Endpoint::Tcp(addr)]));
        let out = client.call("stats", None, None).expect("tcp call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("tcp"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let expected = ClientStats { endpoints_tried: 1, ..ClientStats::default() };
        assert_eq!(client.stats(), expected);
        daemon.join().expect("daemon thread");
    }

    #[test]
    fn retry_budget_is_bounded() {
        let socket = temp_socket("budget");
        let daemon = scripted_daemon(
            &socket,
            vec![vec![
                "{\"id\":$ID,\"ok\":false,\"error\":{\"code\":\"overloaded\",\"message\":\"full\"}}\n";
                3
            ]],
        );
        let mut client = Client::new(ClientConfig {
            max_retries: 2,
            ..cfg(&socket)
        });
        let out = client
            .call("prove", None, None)
            .expect("the final rejection is returned as the answer");
        assert_eq!(
            out.doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded"),
            "the caller sees the last raw rejection"
        );
        assert_eq!(client.stats().retries, 2, "two backoff-and-retry rounds");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&socket);
    }

    #[test]
    fn connect_failure_fails_over_to_the_next_endpoint() {
        let dead = temp_socket("failover-dead");
        let _ = std::fs::remove_file(&dead);
        let live = temp_socket("failover-live");
        let daemon = scripted_daemon(
            &live,
            vec![vec!["{\"id\":$ID,\"ok\":true,\"result\":{\"b\":true}}\n"]],
        );
        let mut client = Client::new(cfg_multi(vec![
            Endpoint::Unix(dead.clone()),
            Endpoint::Unix(live.clone()),
        ]));
        let out = client.call("stats", None, None).expect("failed over");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("b"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let stats = client.stats();
        assert_eq!(stats.endpoints_tried, 2, "both endpoints were dialed");
        assert_eq!(stats.failovers, 0, "first connection is not a failover");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_file(&live);
    }

    #[test]
    fn severance_mid_call_fails_over_and_resends() {
        let a = temp_socket("sever-a");
        let b = temp_socket("sever-b");
        // Daemon A accepts once and hangs up without answering; after
        // its single script it is gone (connection refused thereafter).
        let daemon_a = scripted_daemon(&a, vec![vec![]]);
        let daemon_b = scripted_daemon(
            &b,
            vec![vec!["{\"id\":$ID,\"ok\":true,\"result\":{\"survivor\":true}}\n"]],
        );
        let mut client = Client::new(cfg_multi(vec![
            Endpoint::Unix(a.clone()),
            Endpoint::Unix(b.clone()),
        ]));
        let out = client.call("prove", None, None).expect("healed call");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("survivor"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let stats = client.stats();
        assert_eq!(stats.failovers, 1, "one switch from A to B");
        assert_eq!(stats.reconnects, 1);
        assert!(stats.resends >= 1);
        assert_eq!(stats.endpoints_tried, 2);
        daemon_a.join().expect("daemon a");
        daemon_b.join().expect("daemon b");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn shutting_down_rejection_fails_over_to_the_next_endpoint() {
        let a = temp_socket("drain-a");
        let b = temp_socket("drain-b");
        let daemon_a = scripted_daemon(
            &a,
            vec![vec![
                "{\"id\":$ID,\"ok\":false,\"error\":{\"code\":\"shutting-down\",\
                 \"message\":\"draining\",\"retryable\":true}}\n",
            ]],
        );
        let daemon_b = scripted_daemon(
            &b,
            vec![vec!["{\"id\":$ID,\"ok\":true,\"result\":{\"next\":true}}\n"]],
        );
        let mut client = Client::new(cfg_multi(vec![
            Endpoint::Unix(a.clone()),
            Endpoint::Unix(b.clone()),
        ]));
        let out = client.call("check", None, None).expect("failed over");
        assert_eq!(
            out.doc
                .get("result")
                .and_then(|r| r.get("next"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let stats = client.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.retries, 1, "the rejection consumed one retry");
        daemon_a.join().expect("daemon a");
        daemon_b.join().expect("daemon b");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn exhausting_every_endpoint_names_them_all() {
        let a = temp_socket("exhaust-a");
        let b = temp_socket("exhaust-b");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        // A port that was just free: nothing listens there any more.
        let tcp = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port")
            .to_string();
        let mut client = Client::new(ClientConfig {
            endpoints: vec![
                Endpoint::Unix(a.clone()),
                Endpoint::Unix(b.clone()),
                Endpoint::Tcp(tcp.clone()),
            ],
            ..ClientConfig::default()
        });
        let err = client.call("stats", None, None).expect_err("all dead");
        let CallError::Unreachable(msg) = &err else {
            panic!("expected Unreachable, got {err:?}");
        };
        assert!(msg.contains(a.to_str().unwrap()), "{msg}");
        assert!(msg.contains(b.to_str().unwrap()), "{msg}");
        assert!(msg.contains(&format!("tcp:{tcp}: ")), "{msg}");
        assert_eq!(client.stats().endpoints_tried, 3);
    }
}
