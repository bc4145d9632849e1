//! Checking-as-a-service: the resident server behind `stqc serve`.
//!
//! A one-shot `stqc` invocation pays the full startup bill every time —
//! re-parsing the builtin qualifier library, re-deriving obligations,
//! re-opening the proof cache — and then throws the warm state away.
//! This module keeps all of it resident: one [`Server`] holds the
//! interner (process-global), the qualifier [`Session`], and a warm
//! [`ProofCache`], and multiplexes many concurrent requests onto a
//! bounded worker pool (`stq_util::serve::Scheduler`). The wire
//! protocol — line-delimited JSON over a Unix socket, TCP, or
//! stdin/stdout in `--stdio` mode — is documented end-to-end in
//! `docs/serving.md`.
//!
//! The concurrency/robustness contract, in brief:
//!
//! * **Per-request isolation.** Every request runs under its own
//!   [`CancelToken`], a child of its connection's token, itself a child
//!   of the server's token — so a per-request `deadline_ms` interrupts
//!   exactly that request, a client disconnect cancels exactly that
//!   client's in-flight work, and SIGINT winds down everything, in all
//!   cases cooperatively at prover safepoints with conclusive verdicts
//!   kept (and cached).
//! * **Fairness.** Each connection may have at most
//!   [`ServeConfig::max_inflight`] requests submitted-but-unfinished;
//!   excess requests are refused immediately with an `overloaded`
//!   error, so one chatty client cannot starve the rest.
//! * **Shedding.** The global queue is bounded
//!   ([`ServeConfig::max_queue`]); when it is full the server answers
//!   `overloaded` rather than building unbounded backlog.
//! * **Graceful shutdown.** A `shutdown` request (or SIGINT) stops
//!   accepting work, drains what is queued and in flight, persists the
//!   proof cache, and exits — `docs/robustness.md` has the exit-code
//!   taxonomy.
//! * **Multiplexed connections.** The daemon's connection layer is an
//!   event-driven reactor (`stq_util::reactor`): one thread blocks in
//!   `poll(2)` over every accepted socket — Unix-domain and TCP alike —
//!   so an idle connection costs a buffer and a table entry, not a
//!   thread, and the thread count is `1 + workers` regardless of how
//!   many clients are attached. Only `--stdio` keeps a blocking reader.
//! * **One registry writer.** The registry is a function of the
//!   daemon's files: the builtins plus the `--quals` libraries it was
//!   started with ([`ServeConfig::qual_files`]). Only the `reload`
//!   method replaces it, by a transactional build-validate-swap:
//!   in-flight requests answer under the old registry, the epoch bumps
//!   on swap, and a broken library rolls back without touching the
//!   resident session. The session is an `Arc` swapped under a lock
//!   held only for the swap, so a pending swap never stalls the
//!   reactor's inline `stats`. Every method is idempotent.
//! * **Shared warm cache.** Several daemons may point at one
//!   `--cache-dir`: journal appends are flock-serialized, and each
//!   daemon *follows* the journal tail on a cache miss, adopting proofs
//!   its peers persisted (`follow_hits` under `cache` in `stats`) — the
//!   substrate of the multi-daemon failover story in
//!   `docs/robustness.md`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use stq_soundness::{Budget, BudgetOverride, ProofCache, RetryPolicy};
#[cfg(unix)]
use stq_util::flock::FileLock;
use stq_util::json::Json;
use stq_util::serve::{Rejected, Scheduler};
use stq_util::CancelToken;

use crate::reportjson::{cache_json, check_json, millis, prove_json};
#[cfg(unix)]
use crate::stream::Stream;
use crate::Session;

/// How a server run ended; the CLI maps this onto its exit codes
/// (0 for a requested shutdown, 5 for an interruption).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownKind {
    /// A client sent `shutdown` (or stdio input ended): the drain was
    /// orderly and every accepted request was answered.
    Requested,
    /// SIGINT (or an external cancel): in-flight work was cooperatively
    /// cancelled, partial results were still answered and cached.
    Interrupted,
}

/// Server configuration; every knob has a production-shaped default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub jobs: usize,
    /// Per-connection cap on submitted-but-unfinished requests.
    pub max_inflight: usize,
    /// Global cap on queued requests before shedding.
    pub max_queue: usize,
    /// Proof-cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Base prover budget; requests may override fields per call.
    pub budget: Budget,
    /// Base retry ladder for `ResourceOut` obligations.
    pub retry: RetryPolicy,
    /// Longest request line accepted before the reader answers a
    /// structured `input` error and discards to the next newline
    /// (`0` disables the guard). Without this, one newline-less client
    /// could buffer the reader thread into the ground.
    pub max_line_bytes: usize,
    /// The qualifier-library files (`--quals`) this server was started
    /// with, in load order — what the `reload` method re-parses.
    pub qual_files: Vec<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            jobs: stq_util::pool::default_jobs(),
            max_inflight: 32,
            max_queue: 1024,
            cache_dir: None,
            budget: Budget::default(),
            retry: RetryPolicy::none(),
            max_line_bytes: 1 << 20,
            qual_files: Vec::new(),
        }
    }
}

/// Monotonic serve-lifetime counters, reported by the `stats` method.
#[derive(Debug)]
pub struct ServeStats {
    started: Instant,
    connections: AtomicU64,
    disconnects: AtomicU64,
    check: AtomicU64,
    prove: AtomicU64,
    stats: AtomicU64,
    health: AtomicU64,
    shutdown: AtomicU64,
    /// `reload` requests received.
    reload: AtomicU64,
    /// Successful library reloads, each one a completed
    /// build-validate-swap and epoch bump.
    reloads: AtomicU64,
    /// Reload attempts that rolled back (unreadable or ill-formed
    /// library); the resident registry was left untouched.
    reload_failures: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    interrupted: AtomicU64,
    inflight: AtomicU64,
    oversized: AtomicU64,
    bad_utf8: AtomicU64,
    /// Currently-open connections (gauge, not a counter) — maintained by
    /// the reactor and by the `--stdio` path alike, so tests
    /// can assert teardown releases resources promptly.
    open_connections: AtomicU64,
    /// Mirrors of the reactor's `poll(2)`-return / wake-pipe-drain
    /// counters, refreshed each loop iteration; 0 outside reactor mode.
    reactor_polls: AtomicU64,
    reactor_wakeups: AtomicU64,
}

impl ServeStats {
    fn new() -> ServeStats {
        ServeStats {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            check: AtomicU64::new(0),
            prove: AtomicU64::new(0),
            stats: AtomicU64::new(0),
            health: AtomicU64::new(0),
            shutdown: AtomicU64::new(0),
            reload: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            interrupted: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            bad_utf8: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            reactor_polls: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
        }
    }
}

/// One client connection: its cancel token (a child of the server's),
/// its serialized write half, and its fairness accounting.
struct Conn {
    token: CancelToken,
    writer: Mutex<Box<dyn Write + Send>>,
    /// Cleared on disconnect; queued jobs for a vanished client are
    /// skipped instead of run.
    alive: AtomicBool,
    inflight: AtomicU64,
}

impl Conn {
    fn new(token: CancelToken, writer: Box<dyn Write + Send>) -> Conn {
        Conn {
            token,
            writer: Mutex::new(writer),
            alive: AtomicBool::new(true),
            inflight: AtomicU64::new(0),
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Writes one response line. A failed write means the client is
    /// gone; the connection is marked dead so later jobs skip.
    fn send(&self, response: &Json) {
        let mut line = response.to_string();
        line.push('\n');
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let ok = w
            .write_all(line.as_bytes())
            .and_then(|()| w.flush())
            .is_ok();
        if !ok {
            self.alive.store(false, Ordering::Release);
        }
    }
}

/// A structured protocol error: `(code, message)`. Codes are stable API
/// (`docs/serving.md`): `parse`, `invalid`, `unknown-method`, `input`,
/// `overloaded`, `shutting-down`.
type ServeError = (&'static str, String);

/// The success envelope around a method's `result`.
fn ok_response(id: &Json, result: Json) -> Json {
    Json::obj([("id", id.clone()), ("ok", true.into()), ("result", result)])
}

/// The error envelope. `retryable` tells clients which rejections are
/// safe to re-send after a backoff: the request was provably never
/// executed (see the retry-semantics table in docs/serving.md).
fn err_response(id: &Json, code: &str, message: &str) -> Json {
    let error = Json::obj([
        ("code", code.into()),
        ("message", message.into()),
        (
            "retryable",
            matches!(code, "overloaded" | "shutting-down").into(),
        ),
    ]);
    Json::obj([("id", id.clone()), ("ok", false.into()), ("error", error)])
}

/// The advisory lock file guarding the socket-path lifecycle:
/// `<socket>.lock`.
///
/// Stale-socket reclaim used to be a TOCTOU race: two daemons started at
/// the same moment could both connect-probe the stale path, both
/// `remove_file` it, and one would silently steal the socket the other
/// had just bound. The whole probe → unlink → bind sequence now runs
/// while holding this file's `flock(2)` lock exclusively (the proof
/// cache's journal lock is the same [`FileLock`]), and the winning
/// daemon keeps holding it for its lifetime, so a concurrent starter
/// fails fast with `AddrInUse` instead of racing.
///
/// The lock file itself is never unlinked: removing it would reintroduce
/// the race one level up (a daemon locking an unlinked inode while a new
/// starter locks a fresh file at the same path). A leftover empty
/// `.lock` file is harmless.
#[cfg(unix)]
fn socket_lock_path(socket: &std::path::Path) -> PathBuf {
    let mut os = socket.as_os_str().to_owned();
    os.push(".lock");
    PathBuf::from(os)
}

/// Takes the socket-path lock without waiting; a held lock means
/// another daemon is starting or serving on this path.
#[cfg(unix)]
fn lock_socket(socket: &std::path::Path) -> io::Result<FileLock> {
    let path = socket_lock_path(socket);
    FileLock::try_exclusive(&path).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock => io::Error::new(
            io::ErrorKind::AddrInUse,
            format!(
                "another daemon is starting or serving on this path \
                 (socket lock {} is held)",
                path.display()
            ),
        ),
        _ => e,
    })
}

/// A daemon's bound endpoints: a Unix socket held under its path lock,
/// a TCP listener, or both. Binding is separate from serving
/// ([`Server::run_multi`]) so `stqc serve` publishes `--pid-file` and
/// `--addr-file` only once it owns every endpoint. Dropping the
/// listeners removes the socket file, then releases the lock.
#[cfg(unix)]
pub struct Listeners {
    unix: Option<(std::os::unix::net::UnixListener, PathBuf, FileLock)>,
    tcp: Option<std::net::TcpListener>,
}

#[cfg(unix)]
impl Listeners {
    /// Binds `tcp` (`HOST:PORT`; port 0 picks a free port), then
    /// `socket`. A stale socket file left by a dead daemon is reclaimed —
    /// the probe → unlink → rebind sequence runs under the exclusive
    /// `lock_socket` lock, so two daemons racing for one path cannot both
    /// reclaim it — and a *live* daemon on the path is an `AddrInUse`
    /// error.
    ///
    /// # Errors
    ///
    /// A listener could not be bound.
    pub fn bind(socket: Option<&std::path::Path>, tcp: Option<&str>) -> io::Result<Listeners> {
        use std::os::unix::net::{UnixListener, UnixStream};

        let tcp = match tcp {
            Some(addr) => {
                let listener = std::net::TcpListener::bind(addr)
                    .map_err(|e| io::Error::new(e.kind(), format!("cannot bind {addr}: {e}")))?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let unix = match socket {
            Some(path) => {
                let guard = lock_socket(path)?;
                let listener = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                        if UnixStream::connect(path).is_ok() {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("a daemon is already serving {}", path.display()),
                            ));
                        }
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                listener.set_nonblocking(true)?;
                Some((listener, path.to_path_buf(), guard))
            }
            None => None,
        };
        Ok(Listeners { unix, tcp })
    }

    /// The bound TCP address (the kernel's choice for port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }
}

#[cfg(unix)]
impl Drop for Listeners {
    fn drop(&mut self) {
        if let Some((_, path, _)) = &self.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// How long a worker will wait for a stalled peer to drain its socket
/// before declaring the connection dead (reactor transports only; the
/// write waits on `POLLOUT` instead of blocking the descriptor).
#[cfg(unix)]
const WRITE_STALL: Duration = Duration::from_secs(10);

/// Write half of a reactor connection. The fd is nonblocking (it is the
/// same socket the reactor polls for reads), so a worker writing a large
/// response parks in `poll(POLLOUT)` on `WouldBlock` — bounded by
/// [`WRITE_STALL`] — rather than spinning or blocking the reactor.
#[cfg(unix)]
struct PollWriter {
    inner: Stream,
    stall: Duration,
}

#[cfg(unix)]
impl Write for PollWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        use std::os::unix::io::AsRawFd;
        loop {
            match self.inner.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !stq_util::reactor::wait_writable(self.inner.as_raw_fd(), self.stall)? {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stopped draining its responses",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Per-connection reactor state: the readable stream and its framing
/// buffer.
#[cfg(unix)]
struct ConnState {
    conn: Arc<Conn>,
    stream: Stream,
    framer: Framer,
}

#[cfg(unix)]
enum ConnVerdict {
    /// Still open; nothing more to read right now.
    Keep,
    /// Peer hung up (EOF or hard error): tear the connection down.
    Closed,
    /// A `shutdown` request was routed; the serve loop should drain.
    Stopping,
}

/// Line-framing state shared by the blocking `--stdio` reader
/// ([`Server::run_stdio`]) and the reactor: the partial-line buffer plus
/// the oversized-discard flag, so both get identical reader-defense
/// behavior.
///
/// Framing is linear in the bytes received: `scanned` remembers how
/// much of `pending` is already known to hold no newline, so a long
/// line arriving in many reads is searched once, and complete lines are
/// handed out as slices of the buffer, which is compacted once per
/// [`Framer::ingest`].
struct Framer {
    pending: Vec<u8>,
    scanned: usize,
    discarding: bool,
}

/// What [`Framer::ingest`] found in the byte stream.
#[derive(Debug, PartialEq)]
enum Frame<'a> {
    /// A complete, non-blank line, whitespace-trimmed.
    Line(&'a str),
    /// A complete line that is not valid UTF-8.
    BadUtf8,
    /// A partial line grew past the cap; it is dropped through its
    /// newline.
    Oversized,
}

impl Framer {
    fn new() -> Framer {
        Framer {
            pending: Vec::new(),
            scanned: 0,
            discarding: false,
        }
    }

    /// Ingests freshly-read bytes, passing every frame to `sink` in
    /// stream order. A line longer than `max_line_bytes` (0: no cap)
    /// is reported once as [`Frame::Oversized`] when still incomplete
    /// at the end of a read. Returns true, leaving the rest unread, as
    /// soon as `sink` does (a `shutdown` was handled).
    fn ingest(
        &mut self,
        bytes: &[u8],
        max_line_bytes: usize,
        mut sink: impl FnMut(Frame<'_>) -> bool,
    ) -> bool {
        self.pending.extend_from_slice(bytes);
        // `start` is the first byte of the line not yet framed.
        let mut start = 0;
        let mut stopped = false;
        while let Some(off) = self.pending[self.scanned..]
            .iter()
            .position(|b| *b == b'\n')
        {
            let eol = self.scanned + off;
            let line = &self.pending[start..eol];
            start = eol + 1;
            self.scanned = start;
            if self.discarding {
                // The tail of a line already rejected as oversized.
                self.discarding = false;
                continue;
            }
            let frame = match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => Frame::Line(text.trim()),
                Err(_) => Frame::BadUtf8,
            };
            if sink(frame) {
                stopped = true;
                break;
            }
        }
        if !stopped {
            self.scanned = self.pending.len();
            if self.discarding {
                // Nothing of a discarded line is ever framed.
                start = self.pending.len();
            } else if max_line_bytes > 0 && self.pending.len() - start > max_line_bytes {
                sink(Frame::Oversized);
                start = self.pending.len();
                self.discarding = true;
            }
        }
        self.pending.drain(..start);
        self.scanned -= start;
        stopped
    }
}

/// The resident checking server. Construct once, share behind an
/// [`Arc`], and drive with [`Server::run_unix`], [`Server::run_multi`]
/// over [`Listeners`], or [`Server::run_stdio`].
pub struct Server {
    /// The resident registry. Readers clone the `Arc` and release the
    /// lock at once; a reload builds a new session on the side and holds
    /// the write lock only to swap it in. No lock holder ever waits on
    /// a running request, so neither does the reactor's inline `stats`.
    session: RwLock<Arc<Session>>,
    cache: ProofCache,
    sched: Scheduler,
    stats: ServeStats,
    cancel: CancelToken,
    stopping: AtomicBool,
    /// Bumped on every registry swap (a reload), so clients can tell
    /// which registry answered.
    epoch: AtomicU64,
    /// Serializes reloads' read-build-swap: a reload that read the
    /// libraries earlier can never swap over a later, acknowledged one.
    swap_lock: Mutex<()>,
    cfg: ServeConfig,
}

impl Server {
    /// Builds a server over `session` (typically
    /// [`Session::with_builtins`] plus `--quals` definitions).
    ///
    /// # Errors
    ///
    /// Opening `cache_dir` failed.
    pub fn new(session: Session, cfg: ServeConfig, cancel: CancelToken) -> io::Result<Server> {
        let cache = match &cfg.cache_dir {
            Some(dir) => ProofCache::at_dir(dir)?,
            None => ProofCache::in_memory(),
        };
        Ok(Server {
            session: RwLock::new(Arc::new(session)),
            cache,
            sched: Scheduler::new(cfg.jobs, cfg.max_queue),
            stats: ServeStats::new(),
            cancel,
            stopping: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            swap_lock: Mutex::new(()),
            cfg,
        })
    }

    /// The current registry, for the duration of one request.
    fn session(&self) -> Arc<Session> {
        Arc::clone(&self.session.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// True once a shutdown request or an external cancel arrived.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire) || self.cancel.is_cancelled()
    }

    /// Stops accepting work, drains queued + in-flight requests, and
    /// persists the proof cache (when it has a directory). Returns how
    /// the run ended.
    fn finish(&self) -> ShutdownKind {
        self.sched.close_and_drain();
        if self.cfg.cache_dir.is_some() {
            let _ = self.cache.persist();
        }
        if self.cancel.is_cancelled() {
            ShutdownKind::Interrupted
        } else {
            ShutdownKind::Requested
        }
    }

    /// Serves a single session over stdin/stdout — the `--stdio`
    /// testing mode. End-of-input is *batch* semantics, not a
    /// disconnect: every request read before EOF is still answered
    /// (so `printf '...requests...' | stqc serve --stdio` works), then
    /// the drain runs and the daemon exits. The blocking read frames
    /// lines like the reactor does.
    pub fn run_stdio(self: &Arc<Server>) -> ShutdownKind {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats.open_connections.fetch_add(1, Ordering::AcqRel);
        let conn = Arc::new(Conn::new(self.cancel.child(), Box::new(io::stdout())));
        let mut stdin = io::stdin();
        let mut framer = Framer::new();
        let mut chunk = [0u8; 4096];
        while !self.stopping() {
            match stdin.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    if self.ingest(&mut framer, &conn, &chunk[..n]) {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let kind = self.finish();
        self.stats.open_connections.fetch_sub(1, Ordering::AcqRel);
        kind
    }

    /// Binds `socket_path` and serves until shutdown; see
    /// [`Listeners::bind`] and [`run_multi`](Self::run_multi).
    #[cfg(unix)]
    pub fn run_unix(self: &Arc<Server>, socket_path: &std::path::Path) -> io::Result<ShutdownKind> {
        self.run_multi(Listeners::bind(Some(socket_path), None)?)
    }

    /// The reactor-driven serving loop: one thread multiplexes the bound
    /// [`Listeners`] — a Unix socket, a TCP listener, or both — and every
    /// accepted connection through `poll(2)` (`stq_util::reactor`),
    /// handing parsed requests to the worker pool. Thread count is
    /// `1 + cfg.jobs`, independent of client count; an idle daemon
    /// blocks in the kernel with no timer churn (the poll timeout exists
    /// only when the root deadline needs it). Returns how the run
    /// ended; the socket file goes with the listeners.
    #[cfg(unix)]
    pub fn run_multi(self: &Arc<Server>, listeners: Listeners) -> io::Result<ShutdownKind> {
        use std::os::unix::io::AsRawFd;
        use stq_util::reactor::{Interest, Reactor};

        let unix_listener = listeners.unix.as_ref().map(|(l, _, _)| l);
        let tcp = listeners.tcp.as_ref();

        const UNIX_LISTENER_TOKEN: usize = 0;
        const TCP_LISTENER_TOKEN: usize = 1;
        const FIRST_CONN_TOKEN: usize = 2;

        let mut reactor = Reactor::new()?;
        // A SIGINT — or any external cancel of the root token — must
        // interrupt a poll(2) blocked with no timeout: `cancel()` rings
        // the reactor's wake pipe (async-signal-safely).
        self.cancel.set_wake_fd(reactor.waker().raw_fd());
        if let Some(l) = unix_listener {
            reactor.register(l.as_raw_fd(), UNIX_LISTENER_TOKEN, Interest::READABLE);
        }
        if let Some(l) = tcp {
            reactor.register(l.as_raw_fd(), TCP_LISTENER_TOKEN, Interest::READABLE);
        }

        let mut conns: HashMap<usize, ConnState> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events = Vec::new();
        let mut chunk = [0u8; 4096];

        let result: io::Result<()> = loop {
            if self.stopping() {
                break Ok(());
            }
            // Sleep exactly until something can happen: readiness on a
            // socket, the wake pipe, or the root deadline. Without a
            // deadline the poll blocks indefinitely — zero wakeups on an
            // idle daemon.
            let timeout = self
                .cancel
                .deadline()
                .map(|d| d.saturating_duration_since(Instant::now()));
            if let Err(e) = reactor.poll_events(timeout, &mut events) {
                break Err(e);
            }
            self.stats
                .reactor_polls
                .store(reactor.polls(), Ordering::Relaxed);
            self.stats
                .reactor_wakeups
                .store(reactor.wakeups(), Ordering::Relaxed);
            for event in &events {
                match event.token {
                    UNIX_LISTENER_TOKEN => {
                        if let Some(l) = unix_listener {
                            loop {
                                match l.accept() {
                                    Ok((stream, _)) => self.admit(
                                        Stream::Unix(stream),
                                        &mut reactor,
                                        &mut conns,
                                        &mut next_token,
                                    ),
                                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    TCP_LISTENER_TOKEN => {
                        if let Some(l) = tcp {
                            loop {
                                match l.accept() {
                                    Ok((stream, _)) => self.admit(
                                        Stream::Tcp(stream),
                                        &mut reactor,
                                        &mut conns,
                                        &mut next_token,
                                    ),
                                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    token => {
                        let Some(state) = conns.get_mut(&token) else {
                            continue;
                        };
                        match self.drive_conn(state, &mut chunk) {
                            ConnVerdict::Keep => {}
                            ConnVerdict::Stopping => {}
                            ConnVerdict::Closed => {
                                let state = conns.remove(&token).expect("conn state");
                                reactor.deregister(token);
                                self.retire(&state.conn);
                            }
                        }
                    }
                }
            }
        };
        self.cancel.set_wake_fd(-1);
        result?;
        // Drain before teardown: queued and in-flight requests still
        // write their responses through the live connections.
        let kind = self.finish();
        for (token, state) in conns.drain() {
            reactor.deregister(token);
            self.stats.open_connections.fetch_sub(1, Ordering::AcqRel);
            drop(state);
        }
        Ok(kind)
    }

    /// Sets up one accepted connection on the reactor: nonblocking
    /// stream, write half behind a [`PollWriter`], a child cancel token,
    /// and a read registration.
    #[cfg(unix)]
    fn admit(
        self: &Arc<Server>,
        stream: Stream,
        reactor: &mut stq_util::reactor::Reactor,
        conns: &mut HashMap<usize, ConnState>,
        next_token: &mut usize,
    ) {
        use std::os::unix::io::AsRawFd;

        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let writer = Box::new(PollWriter {
            inner: write_half,
            stall: WRITE_STALL,
        });
        let conn = Arc::new(Conn::new(self.cancel.child(), writer));
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats.open_connections.fetch_add(1, Ordering::AcqRel);
        let token = *next_token;
        *next_token += 1;
        reactor.register(
            stream.as_raw_fd(),
            token,
            stq_util::reactor::Interest::READABLE,
        );
        conns.insert(
            token,
            ConnState {
                conn,
                stream,
                framer: Framer::new(),
            },
        );
    }

    /// Reads everything currently available on one reactor connection.
    #[cfg(unix)]
    fn drive_conn(self: &Arc<Server>, state: &mut ConnState, chunk: &mut [u8]) -> ConnVerdict {
        loop {
            match state.stream.read(chunk) {
                Ok(0) => return ConnVerdict::Closed,
                Ok(n) => {
                    if self.ingest(&mut state.framer, &state.conn, &chunk[..n]) {
                        return ConnVerdict::Stopping;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnVerdict::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ConnVerdict::Closed,
            }
        }
    }

    /// Marks a reactor connection gone: cancel its request subtree so
    /// queued and in-flight work winds down, and release the gauge.
    fn retire(&self, conn: &Conn) {
        conn.alive.store(false, Ordering::Release);
        conn.token.cancel();
        self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        self.stats.open_connections.fetch_sub(1, Ordering::AcqRel);
    }

    /// Frames freshly-read bytes and routes every complete line straight
    /// out of the framer's buffer. The reader defends itself: a line
    /// longer than [`ServeConfig::max_line_bytes`] is answered with one
    /// structured `input` error and discarded up to its newline instead
    /// of being buffered without bound, and invalid UTF-8 gets the same
    /// structured rejection. Returns true when the connection should
    /// stop reading (`shutdown` was handled).
    fn ingest(self: &Arc<Server>, framer: &mut Framer, conn: &Arc<Conn>, bytes: &[u8]) -> bool {
        framer.ingest(bytes, self.cfg.max_line_bytes, |frame| match frame {
            Frame::Line(text) => self.route(conn, text),
            Frame::BadUtf8 => {
                self.stats.bad_utf8.fetch_add(1, Ordering::Relaxed);
                self.respond_err(
                    conn,
                    &Json::Null,
                    "input",
                    "request line is not valid UTF-8",
                );
                false
            }
            Frame::Oversized => {
                self.stats.oversized.fetch_add(1, Ordering::Relaxed);
                self.respond_err(
                    conn,
                    &Json::Null,
                    "input",
                    &format!(
                        "request line exceeds {} bytes; discarding \
                         through the next newline",
                        self.cfg.max_line_bytes
                    ),
                );
                false
            }
        })
    }

    /// Parses and dispatches one request line on the reader thread.
    /// Returns true when the connection should stop reading (a
    /// `shutdown` request was handled).
    fn route(self: &Arc<Server>, conn: &Arc<Conn>, line: &str) -> bool {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                self.respond_err(conn, &Json::Null, "parse", &e.to_string());
                return false;
            }
        };
        // The id is echoed verbatim; it must exist and be a string or
        // number so responses are always attributable.
        let id = match doc.get("id") {
            Some(v @ (Json::Num(_) | Json::Str(_))) => v.clone(),
            _ => {
                self.respond_err(
                    conn,
                    &Json::Null,
                    "invalid",
                    "request needs an `id` (string or number)",
                );
                return false;
            }
        };
        let Some(method) = doc.get("method").and_then(Json::as_str) else {
            self.respond_err(conn, &id, "invalid", "request needs a string `method`");
            return false;
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => match v.as_u64() {
                Some(ms) => Some(ms),
                None => {
                    self.respond_err(
                        conn,
                        &id,
                        "invalid",
                        "`deadline_ms` must be a non-negative integer",
                    );
                    return false;
                }
            },
        };
        // Cloned, not moved out of `doc`: the copy costs microseconds
        // even for a megabyte `source`, while handing the parser's own
        // allocation to a worker thread raised the daemon's peak RSS by
        // about 1 MiB under mixed traffic (glibc per-thread arenas).
        let params = match doc.get("params") {
            None | Some(Json::Null) => Json::Obj(Vec::new()),
            Some(obj @ Json::Obj(_)) => obj.clone(),
            Some(_) => {
                self.respond_err(conn, &id, "invalid", "`params` must be an object");
                return false;
            }
        };
        match method {
            "shutdown" => {
                self.stats.shutdown.fetch_add(1, Ordering::Relaxed);
                conn.send(&ok_response(&id, Json::obj([("stopping", true.into())])));
                self.stopping.store(true, Ordering::Release);
                true
            }
            // `stats` answers inline on the reader thread: it must stay
            // responsive for monitoring even when every worker is busy.
            "stats" => {
                self.stats.stats.fetch_add(1, Ordering::Relaxed);
                conn.send(&ok_response(&id, self.stats_result()));
                false
            }
            // `health` is the supervisor/load-balancer probe: a small,
            // fixed-shape liveness summary, answered inline like
            // `stats` so it works even under full saturation.
            "health" => {
                self.stats.health.fetch_add(1, Ordering::Relaxed);
                conn.send(&ok_response(&id, self.health_result()));
                false
            }
            "check" | "prove" => {
                self.enqueue(conn, id, method.to_owned(), params, deadline_ms);
                false
            }
            // `reload`, the one registry writer, takes the worker queue:
            // the rebuild happens off the reader thread, and in-flight
            // requests ahead of it answer under the old registry.
            "reload" => {
                self.stats.reload.fetch_add(1, Ordering::Relaxed);
                self.enqueue(conn, id, method.to_owned(), params, deadline_ms);
                false
            }
            other => {
                self.respond_err(
                    conn,
                    &id,
                    "unknown-method",
                    &format!(
                        "unknown method `{other}` (expected check, prove, reload, \
                         stats, health, or shutdown)"
                    ),
                );
                false
            }
        }
    }

    /// Fairness + shedding gate, then hand the request to a worker.
    fn enqueue(
        self: &Arc<Server>,
        conn: &Arc<Conn>,
        id: Json,
        method: String,
        params: Json,
        deadline_ms: Option<u64>,
    ) {
        if self.stopping() {
            self.respond_err(conn, &id, "shutting-down", "the server is draining");
            return;
        }
        if self.cfg.max_inflight > 0
            && conn.inflight.load(Ordering::Acquire) >= self.cfg.max_inflight as u64
        {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            self.respond_err(
                conn,
                &id,
                "overloaded",
                &format!(
                    "this connection already has {} request(s) in flight (limit {})",
                    conn.inflight.load(Ordering::Relaxed),
                    self.cfg.max_inflight
                ),
            );
            return;
        }
        conn.inflight.fetch_add(1, Ordering::AcqRel);
        self.stats.inflight.fetch_add(1, Ordering::AcqRel);
        let server = Arc::clone(self);
        let conn_job = Arc::clone(conn);
        let job_id = id.clone();
        let submitted = self.sched.submit(Box::new(move || {
            server.execute(&conn_job, &job_id, &method, &params, deadline_ms);
            conn_job.inflight.fetch_sub(1, Ordering::AcqRel);
            server.stats.inflight.fetch_sub(1, Ordering::AcqRel);
        }));
        if let Err(rejected) = submitted {
            conn.inflight.fetch_sub(1, Ordering::AcqRel);
            self.stats.inflight.fetch_sub(1, Ordering::AcqRel);
            let (code, message) = match rejected {
                Rejected::Overloaded => {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    ("overloaded", "the server's request queue is full")
                }
                Rejected::Closed => ("shutting-down", "the server is draining"),
            };
            self.respond_err(conn, &id, code, message);
        }
    }

    /// Runs one request on a worker thread.
    fn execute(
        self: &Arc<Server>,
        conn: &Arc<Conn>,
        id: &Json,
        method: &str,
        params: &Json,
        deadline_ms: Option<u64>,
    ) {
        // The client vanished while this job sat in the queue: its
        // token is cancelled, nobody is listening — skip the work.
        if !conn.alive() {
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let token = match deadline_ms {
            Some(ms) => conn.token.child_with_deadline_in(Duration::from_millis(ms)),
            None => conn.token.child(),
        };
        let outcome = match method {
            "check" => self.do_check(params),
            "reload" => self.do_reload(),
            "prove" => self.do_prove(params, &token),
            _ => Err((
                "invalid",
                format!("method `{method}` is not a worker method"),
            )),
        };
        match outcome {
            Ok(result) => conn.send(&ok_response(id, result)),
            Err((code, message)) => self.respond_err(conn, id, code, &message),
        }
    }

    fn respond_err(&self, conn: &Conn, id: &Json, code: &str, message: &str) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        conn.send(&err_response(id, code, message));
    }

    // ----- method handlers -----

    /// `reload {}`: re-parse the qualifier libraries this server was
    /// started with (`--quals`, [`ServeConfig::qual_files`]),
    /// transactionally. The fresh session — builtins plus every
    /// library, in load order — is built and validated on the side, so
    /// in-flight requests keep answering under the old registry; the
    /// swap bumps the epoch. Any failure (unreadable file, parse error,
    /// ill-formed definitions) rolls back: the resident registry is
    /// untouched, `reload_failures` ticks, and the client gets a
    /// structured `input` error.
    ///
    /// Reloads are serialized end to end by `swap_lock`: each reads
    /// the files, builds, and swaps before the next one starts, so
    /// concurrent reloads apply in the order they take the lock and the
    /// registry always ends on the newest files any of them read.
    fn do_reload(&self) -> Result<Json, ServeError> {
        let _serial = self.swap_lock.lock().unwrap_or_else(|e| e.into_inner());
        let built = (|| -> Result<(Session, Vec<String>), String> {
            let mut next = Session::with_builtins();
            let mut files = Vec::new();
            for path in &self.cfg.qual_files {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                next.define_qualifiers(&source)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                files.push(path.display().to_string());
            }
            let wf = next.check_well_formed();
            if wf.has_errors() {
                return Err(format!("ill-formed qualifier definitions:\n{wf}"));
            }
            Ok((next, files))
        })();
        match built {
            Ok((next, files)) => {
                let qualifiers = next.registry().iter().count();
                *self.session.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
                let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
                self.stats.reloads.fetch_add(1, Ordering::Relaxed);
                Ok(Json::obj([
                    ("reloaded", true.into()),
                    ("files", files.into_iter().collect()),
                    ("qualifiers", qualifiers.into()),
                    ("epoch", epoch.into()),
                ]))
            }
            Err(message) => {
                self.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                Err(("input", format!("reload rolled back: {message}")))
            }
        }
    }

    /// `check {source, flow_sensitive?}`: parse (error-resilient, so a
    /// typo still yields diagnostics for later declarations) and
    /// typecheck against the resident registry.
    fn do_check(&self, params: &Json) -> Result<Json, ServeError> {
        let Some(source) = params.get("source").and_then(Json::as_str) else {
            return Err(("invalid", "check needs a string `source`".into()));
        };
        let flow_sensitive = match params.get("flow_sensitive") {
            None | Some(Json::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or(("invalid", "`flow_sensitive` must be a boolean".to_owned()))?,
        };
        self.stats.check.fetch_add(1, Ordering::Relaxed);
        let session = self.session();
        let (program, syntax_errors) = session.parse_resilient(source);
        let result = session.check_with(&program, crate::CheckOptions { flow_sensitive });
        Ok(check_json(&result, &syntax_errors, source))
    }

    /// `prove {names?, budget?, retry?, jobs?, cache?}` under the
    /// request token. Interrupted runs (deadline, disconnect, SIGINT)
    /// return a *partial* report with `"interrupted":true`; conclusive
    /// verdicts reached before the stop are kept and cached. `jobs`
    /// (obligation-level parallelism within the request) defaults to 1:
    /// requests already multiplex across the workers.
    fn do_prove(&self, params: &Json, token: &CancelToken) -> Result<Json, ServeError> {
        let names: Option<Vec<&str>> = match params.get("names") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_array()
                    .and_then(|items| items.iter().map(Json::as_str).collect())
                    .ok_or(("invalid", "`names` must be an array of strings".to_owned()))?,
            ),
        };
        let budget = self
            .cfg
            .budget
            .overridden(budget_override(params.get("budget"))?);
        let retry = retry_override(self.cfg.retry, params.get("retry"))?;
        let jobs = match params.get("jobs") {
            None | Some(Json::Null) => 1,
            Some(v) => v
                .as_u64()
                .filter(|n| *n >= 1)
                .ok_or(("invalid", "`jobs` must be a positive integer".to_owned()))?
                .min(256) as usize,
        };
        let use_cache = match params.get("cache") {
            None | Some(Json::Null) => true,
            Some(v) => v
                .as_bool()
                .ok_or(("invalid", "`cache` must be a boolean".to_owned()))?,
        };
        self.stats.prove.fetch_add(1, Ordering::Relaxed);
        let cache = use_cache.then_some(&self.cache);
        let session = self.session();
        let report = session
            .prove(names.as_deref(), budget, retry, jobs, cache, token)
            .map_err(|e| ("input", e))?;
        if report.interrupted() {
            self.stats.interrupted.fetch_add(1, Ordering::Relaxed);
        }
        // Persist conclusive verdicts eagerly, not just at shutdown: a
        // crashed (or SIGKILLed) daemon restarted on the same cache dir
        // then reloads a warm journal, as does a fleet peer following
        // it. `persist_skips` makes the nothing-dirty case cheap.
        if self.cfg.cache_dir.is_some() {
            let _ = self.cache.persist();
        }
        Ok(prove_json(&report, cache_json(&self.cache)))
    }

    fn stats_result(&self) -> Json {
        let s = &self.stats;
        let count = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let qualifiers = self.session().registry().iter().count();
        let methods = [
            ("check", &s.check),
            ("prove", &s.prove),
            ("reload", &s.reload),
            ("stats", &s.stats),
            ("health", &s.health),
            ("shutdown", &s.shutdown),
        ];
        let total: u64 = methods.iter().map(|(_, c)| c.load(Ordering::Relaxed)).sum();
        let requests = std::iter::once(("total", total.into()))
            .chain(methods.iter().map(|(name, c)| (*name, count(c))));
        Json::obj([
            ("uptime_ms", millis(s.started.elapsed())),
            ("jobs", self.cfg.jobs.into()),
            ("qualifiers", qualifiers.into()),
            ("connections", count(&s.connections)),
            ("disconnects", count(&s.disconnects)),
            ("open_connections", count(&s.open_connections)),
            ("requests", Json::obj(requests)),
            ("reloads", count(&s.reloads)),
            ("reload_failures", count(&s.reload_failures)),
            ("epoch", self.epoch.load(Ordering::Acquire).into()),
            ("inflight", count(&s.inflight)),
            ("queued", self.sched.queued().into()),
            ("shed", count(&s.shed)),
            ("cancelled", count(&s.cancelled)),
            ("interrupted", count(&s.interrupted)),
            ("errors", count(&s.errors)),
            ("panics", self.sched.panics().into()),
            ("oversized", count(&s.oversized)),
            ("bad_utf8", count(&s.bad_utf8)),
            (
                "reactor",
                Json::obj([
                    ("polls", count(&s.reactor_polls)),
                    ("wakeups", count(&s.reactor_wakeups)),
                ]),
            ),
            ("cache", cache_json(&self.cache)),
        ])
    }

    /// The `health` response: a small fixed-shape liveness summary for
    /// supervisors and probes. Deliberately cheaper and more stable
    /// than `stats` — no per-method counters, no qualifier registry
    /// walk.
    fn health_result(&self) -> Json {
        Json::obj([
            ("status", "ok".into()),
            ("uptime_ms", millis(self.stats.started.elapsed())),
            ("workers", self.cfg.jobs.into()),
            ("queued", self.sched.queued().into()),
            (
                "inflight",
                self.stats.inflight.load(Ordering::Relaxed).into(),
            ),
            ("stopping", self.stopping().into()),
            ("cache", cache_json(&self.cache)),
        ])
    }
}

fn budget_override(v: Option<&Json>) -> Result<BudgetOverride, ServeError> {
    let mut over = BudgetOverride::default();
    let Some(obj) = v else { return Ok(over) };
    if obj.is_null() {
        return Ok(over);
    }
    let Json::Obj(members) = obj else {
        return Err(("invalid", "`budget` must be an object".to_owned()));
    };
    for (key, value) in members {
        let n = value.as_u64().ok_or((
            "invalid",
            format!("budget field `{key}` must be a non-negative integer"),
        ))?;
        match key.as_str() {
            "max_rounds" => over.max_rounds = Some(n as usize),
            "max_instantiations" => over.max_instantiations = Some(n as usize),
            "max_clauses" => over.max_clauses = Some(n as usize),
            "max_decisions" => over.max_decisions = Some(n),
            "timeout_ms" => over.timeout = Some(Duration::from_millis(n)),
            other => {
                return Err(("invalid", format!("unknown budget field `{other}`")));
            }
        }
    }
    Ok(over)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    fn spawn_server(cfg: ServeConfig) -> (Arc<Server>, CancelToken) {
        let cancel = CancelToken::new();
        let server = Arc::new(
            Server::new(Session::with_builtins(), cfg, cancel.clone()).expect("in-memory server"),
        );
        (server, cancel)
    }

    /// A server running the production reactor ([`Server::run_unix`])
    /// on a fresh temp socket.
    struct Daemon {
        server: Arc<Server>,
        cancel: CancelToken,
        socket: PathBuf,
        run: std::thread::JoinHandle<io::Result<ShutdownKind>>,
    }

    impl Daemon {
        fn start(cfg: ServeConfig) -> Daemon {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let socket = std::env::temp_dir().join(format!(
                "stqc-server-test-{}-{}.sock",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&socket);
            let (server, cancel) = spawn_server(cfg);
            let run = {
                let server = Arc::clone(&server);
                let socket = socket.clone();
                std::thread::spawn(move || server.run_unix(&socket))
            };
            Daemon {
                server,
                cancel,
                socket,
                run,
            }
        }

        /// A client connection plus a line reader over it, dialed until
        /// the run thread has bound the socket (a probe connection would
        /// show up in the counters the tests assert on).
        fn connect(&self) -> (UnixStream, BufReader<UnixStream>) {
            let deadline = Instant::now() + Duration::from_secs(10);
            let client = loop {
                match UnixStream::connect(&self.socket) {
                    Ok(client) => break client,
                    Err(e) => assert!(Instant::now() < deadline, "server never bound: {e}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            let reader = BufReader::new(client.try_clone().expect("clone"));
            (client, reader)
        }

        /// Waits, bounded, until `done` holds of the server.
        fn await_until(&self, what: &str, done: impl Fn(&Server) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done(&self.server) {
                assert!(Instant::now() < deadline, "timed out waiting until {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        /// Waits for the run to end on its own (a `shutdown` request).
        fn join(self) -> ShutdownKind {
            let kind = self.run.join().expect("run thread").expect("run result");
            let _ = std::fs::remove_file(socket_lock_path(&self.socket));
            kind
        }

        /// Cancels the server and waits for its run to end.
        fn stop(self) {
            self.cancel.cancel();
            self.join();
        }
    }

    fn roundtrip(client: &mut UnixStream, reader: &mut impl BufRead, line: &str) -> Json {
        client
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response read");
        Json::parse(response.trim()).expect("response is json")
    }

    #[test]
    fn prove_round_trip_hits_cache_on_repeat() {
        let daemon = Daemon::start(ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        });
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        let first = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":1,"method":"prove","params":{"names":["pos"]}}"#,
        );
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        let result = first.get("result").expect("result");
        assert_eq!(result.get("all_sound").and_then(Json::as_bool), Some(true));
        assert_eq!(
            result.get("interrupted").and_then(Json::as_bool),
            Some(false)
        );

        // The same obligations again: every proof must come from the
        // resident cache (zero new misses).
        let misses_before = server.cache.misses();
        let second = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":2,"method":"prove","params":{"names":["pos"]}}"#,
        );
        assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(server.cache.misses(), misses_before, "warm repeat missed");
        assert!(server.cache.hits() > 0, "warm repeat never hit the cache");

        daemon.stop();
    }

    #[test]
    fn malformed_and_invalid_requests_get_structured_errors() {
        let daemon = Daemon::start(ServeConfig::default());
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        let parse = roundtrip(&mut client, &mut reader, "{not json");
        assert_eq!(parse.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parse
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("parse")
        );

        let noid = roundtrip(&mut client, &mut reader, r#"{"method":"stats"}"#);
        assert_eq!(
            noid.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("invalid")
        );

        let unknown = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":7,"method":"frobnicate"}"#,
        );
        assert_eq!(unknown.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            unknown
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unknown-method")
        );

        // The registry is the daemon's files: no request defines
        // qualifiers.
        let define = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":8,"method":"define_qualifiers","params":{"source":""}}"#,
        );
        let error = define.get("error").expect("an error envelope");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("unknown-method")
        );
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some(
                "unknown method `define_qualifiers` (expected check, prove, reload, \
                 stats, health, or shutdown)"
            )
        );

        // The connection (and server) survived all four.
        let stats = roundtrip(&mut client, &mut reader, r#"{"id":9,"method":"stats"}"#);
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(server.stats.errors.load(Ordering::Relaxed), 4);

        daemon.stop();
    }

    const GOOD_LIB: &str = "value qualifier nonneg(int Expr E)\n\
         case E of\n\
             decl int Const C: C, where C >= 0\n\
           | decl int Expr E1, E2: E1 + E2, where nonneg(E1) && nonneg(E2)\n\
         invariant value(E) >= 0";

    fn lib_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stq-reload-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("lib dir");
        d
    }

    #[test]
    fn reload_reparses_libraries_and_bumps_the_epoch() {
        let dir = lib_dir("swap");
        let lib = dir.join("quals.stq");
        std::fs::write(&lib, GOOD_LIB).unwrap();
        let daemon = Daemon::start(ServeConfig {
            qual_files: vec![lib.clone()],
            ..ServeConfig::default()
        });
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        let quals = |server: &Arc<Server>| {
            server
                .stats_result()
                .get("qualifiers")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        let baseline = quals(&server);

        let first = roundtrip(&mut client, &mut reader, r#"{"id":1,"method":"reload"}"#);
        assert_eq!(
            first.get("ok").and_then(Json::as_bool),
            Some(true),
            "{first}"
        );
        let result = first.get("result").expect("result");
        assert_eq!(result.get("reloaded").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("epoch").and_then(Json::as_u64), Some(1));
        // The library was not loaded at startup here, so the reload
        // *added* nonneg over the builtins.
        assert_eq!(quals(&server), baseline + 1);

        // The library grows a second qualifier; the next reload picks
        // it up and bumps the epoch again.
        std::fs::write(
            &lib,
            format!(
                "{GOOD_LIB}\nvalue qualifier gtzero(int Expr E) \
                 case E of decl int Const C: C, where C > 0 invariant value(E) > 0"
            ),
        )
        .unwrap();
        let second = roundtrip(&mut client, &mut reader, r#"{"id":2,"method":"reload"}"#);
        assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            second
                .get("result")
                .and_then(|r| r.get("epoch"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(quals(&server), baseline + 2);

        let stats = server.stats_result();
        assert_eq!(stats.get("reloads").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("reload_failures").and_then(Json::as_u64), Some(0));

        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_of_a_broken_library_rolls_back() {
        let dir = lib_dir("rollback");
        let lib = dir.join("quals.stq");
        std::fs::write(&lib, GOOD_LIB).unwrap();
        let daemon = Daemon::start(ServeConfig {
            qual_files: vec![lib.clone()],
            ..ServeConfig::default()
        });
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        let good = roundtrip(&mut client, &mut reader, r#"{"id":1,"method":"reload"}"#);
        assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));
        let registry_before = server.stats_result().get("qualifiers").unwrap().as_u64();

        // The library breaks on disk; the reload must answer a
        // structured `input` error and leave the registry (and epoch)
        // exactly as they were.
        std::fs::write(&lib, "value qualifier broken(").unwrap();
        let bad = roundtrip(&mut client, &mut reader, r#"{"id":2,"method":"reload"}"#);
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("input")
        );
        let message = bad
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("");
        assert!(message.contains("rolled back"), "{message}");

        let stats = server.stats_result();
        assert_eq!(stats.get("qualifiers").unwrap().as_u64(), registry_before);
        assert_eq!(stats.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("reloads").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("reload_failures").and_then(Json::as_u64), Some(1));

        // The old registry still serves: nonneg (from the first reload)
        // proves warm.
        let prove = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":3,"method":"prove","params":{"names":["nonneg"]}}"#,
        );
        assert_eq!(prove.get("ok").and_then(Json::as_bool), Some(true));

        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_reloads_end_on_the_last_written_library() {
        let dir = lib_dir("race");
        let lib = dir.join("quals.stq");
        let qualifier = |name: &str| {
            format!(
                "\nvalue qualifier {name}(int Expr E) \
                 case E of decl int Const C: C, where C > 0 invariant value(E) > 0"
            )
        };
        // Odd versions are padded so they take far longer to build than
        // even ones: a reload that read an odd version would finish (and,
        // unserialized, swap) after one that read the next even version.
        let version = |v: usize| {
            let mut lib = GOOD_LIB.to_owned() + &qualifier(&format!("gen{v}"));
            if v % 2 == 1 {
                for i in 0..200 {
                    lib += &qualifier(&format!("pad{i}"));
                }
            }
            lib
        };
        // Each version lands atomically, so a reload never reads a torn
        // file and every failure here is an ordering failure.
        let publish = |v: usize| {
            let tmp = dir.join("quals.tmp");
            std::fs::write(&tmp, version(v)).unwrap();
            std::fs::rename(&tmp, &lib).unwrap();
        };
        publish(0);
        let (server, _cancel) = spawn_server(ServeConfig {
            qual_files: vec![lib.clone()],
            ..ServeConfig::default()
        });
        let has = |server: &Server, name: &str| {
            let session = server.session.read().unwrap_or_else(|e| e.into_inner());
            session.registry().names().contains(&name)
        };
        for v in 1..=20 {
            // Racers start while version v-1 is still on disk; the
            // acknowledged reload below reads version v. The pause only
            // gives racers a head start so an unserialized reload would
            // lose the race; the assertions hold for any interleaving.
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let server = Arc::clone(&server);
                    std::thread::spawn(move || {
                        server.do_reload().expect("a reload of a good library");
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(5));
            publish(v);
            server.do_reload().expect("acknowledged reload");
            // Once a reload that read version v is acknowledged, no
            // racer may swap an older version back in.
            let latest = format!("gen{v}");
            assert!(has(&server, &latest), "round {v}: {latest} was overwritten");
            for racer in racers {
                racer.join().expect("racing reload thread");
            }
            assert!(
                has(&server, &latest),
                "round {v}: {latest} was overwritten late"
            );
        }
        assert!(!has(&server, "gen19") && !has(&server, "pad0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_deadline_interrupts_without_poisoning_the_cache() {
        let daemon = Daemon::start(ServeConfig::default());
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        let rushed = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":1,"method":"prove","deadline_ms":0,"params":{"names":["pos"]}}"#,
        );
        assert_eq!(rushed.get("ok").and_then(Json::as_bool), Some(true));
        let result = rushed.get("result").expect("result");
        assert_eq!(
            result.get("interrupted").and_then(Json::as_bool),
            Some(true),
            "a 0ms deadline must interrupt: {result}"
        );

        // The interrupted run must not have recorded junk: a follow-up
        // *without* a deadline proves soundly from scratch.
        let calm = roundtrip(
            &mut client,
            &mut reader,
            r#"{"id":2,"method":"prove","params":{"names":["pos"]}}"#,
        );
        let result = calm.get("result").expect("result");
        assert_eq!(result.get("all_sound").and_then(Json::as_bool), Some(true));
        assert_eq!(
            result.get("interrupted").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(server.stats.interrupted.load(Ordering::Relaxed), 1);

        daemon.stop();
    }

    #[test]
    fn per_connection_inflight_cap_sheds_excess_requests() {
        // One worker and a cap of 1 in-flight request per connection:
        // submitting two slow proves back-to-back must shed the second.
        let daemon = Daemon::start(ServeConfig {
            jobs: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        });
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();

        // `cache:false` keeps the first prove slow enough to still be
        // running (or queued) when the second arrives.
        client
            .write_all(
                b"{\"id\":1,\"method\":\"prove\",\"params\":{\"cache\":false}}\n\
                  {\"id\":2,\"method\":\"prove\",\"params\":{\"cache\":false}}\n",
            )
            .expect("requests written");
        let mut shed = None;
        let mut completed = 0;
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            let response = Json::parse(line.trim()).expect("json");
            if response.get("ok").and_then(Json::as_bool) == Some(false) {
                shed = Some(response);
            } else {
                completed += 1;
            }
        }
        let shed = shed.expect("one of the two must be shed");
        assert_eq!(shed.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(
            shed.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(completed, 1);
        assert_eq!(server.stats.shed.load(Ordering::Relaxed), 1);

        daemon.stop();
    }

    #[test]
    fn disconnect_cancels_queued_work() {
        // A single worker pinned by a slow request, plus queued work
        // from a client that vanishes: the queued jobs are skipped.
        let daemon = Daemon::start(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        });
        let server = Arc::clone(&daemon.server);
        let mut client = daemon.connect().0;
        client
            .write_all(
                b"{\"id\":1,\"method\":\"prove\",\"params\":{\"cache\":false}}\n\
                  {\"id\":2,\"method\":\"prove\",\"params\":{\"cache\":false}}\n\
                  {\"id\":3,\"method\":\"prove\",\"params\":{\"cache\":false}}\n",
            )
            .expect("requests written");
        // Hang up without reading a single response.
        drop(client);
        daemon.await_until("the hangup is seen", |s| {
            s.stats.disconnects.load(Ordering::Relaxed) == 1
        });
        server.sched.close_and_drain();
        assert!(
            server.stats.cancelled.load(Ordering::Relaxed) > 0,
            "no queued job noticed the disconnect"
        );
        assert_eq!(server.stats.disconnects.load(Ordering::Relaxed), 1);
        daemon.stop();
    }

    #[test]
    fn shutdown_request_stops_the_connection() {
        let daemon = Daemon::start(ServeConfig::default());
        let server = Arc::clone(&daemon.server);
        let (mut client, mut reader) = daemon.connect();
        let bye = roundtrip(&mut client, &mut reader, r#"{"id":9,"method":"shutdown"}"#);
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            bye.get("result")
                .and_then(|r| r.get("stopping"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(daemon.join(), ShutdownKind::Requested);
        assert!(server.stopping());
    }

    #[test]
    fn health_answers_inline_with_a_fixed_shape() {
        let daemon = Daemon::start(ServeConfig::default());
        let (mut client, mut reader) = daemon.connect();
        let health = roundtrip(&mut client, &mut reader, r#"{"id":1,"method":"health"}"#);
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        let result = health.get("result").expect("result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("ok"),
            "health reports ok while serving"
        );
        assert_eq!(result.get("stopping").and_then(Json::as_bool), Some(false));
        assert!(result.get("uptime_ms").is_some());
        assert!(result.get("workers").and_then(Json::as_u64).is_some());
        assert!(result.get("cache").is_some());
        // And the probe is counted in `stats`.
        let stats = roundtrip(&mut client, &mut reader, r#"{"id":2,"method":"stats"}"#);
        let requests = stats
            .get("result")
            .and_then(|r| r.get("requests"))
            .expect("requests");
        assert_eq!(requests.get("health").and_then(Json::as_u64), Some(1));
        daemon.stop();
    }

    #[test]
    fn oversized_line_is_rejected_and_the_connection_survives() {
        let daemon = Daemon::start(ServeConfig {
            max_line_bytes: 64,
            ..ServeConfig::default()
        });
        let (mut client, mut reader) = daemon.connect();
        // One giant line, well past the cap, then a legitimate request.
        let huge = format!("{{\"id\":1,\"method\":\"{}\"}}", "x".repeat(4096));
        let err = roundtrip(&mut client, &mut reader, &huge);
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("input"),
            "oversized lines draw a structured `input` error: {err}"
        );
        let after = roundtrip(&mut client, &mut reader, r#"{"id":2,"method":"stats"}"#);
        assert_eq!(after.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            after.get("id").and_then(Json::as_u64),
            Some(2),
            "connection survives"
        );
        assert_eq!(
            after
                .get("result")
                .and_then(|r| r.get("oversized"))
                .and_then(Json::as_u64),
            Some(1)
        );
        daemon.stop();
    }

    #[test]
    fn invalid_utf8_line_is_rejected_and_the_connection_survives() {
        let daemon = Daemon::start(ServeConfig::default());
        let (mut client, mut reader) = daemon.connect();
        client
            .write_all(b"{\"id\":1,\"method\":\"stats\xFF\xFE\"}\n")
            .expect("bytes written");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response read");
        let err = Json::parse(response.trim()).expect("response is json");
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("input"),
            "invalid UTF-8 draws a structured `input` error: {err}"
        );
        let after = roundtrip(&mut client, &mut reader, r#"{"id":2,"method":"stats"}"#);
        assert_eq!(
            after.get("id").and_then(Json::as_u64),
            Some(2),
            "connection survives"
        );
        assert_eq!(
            after
                .get("result")
                .and_then(|r| r.get("bad_utf8"))
                .and_then(Json::as_u64),
            Some(1)
        );
        daemon.stop();
    }

    /// An owned copy of a [`Frame`], for recording what a framer saw.
    #[derive(Debug, PartialEq)]
    enum Framed {
        Line(String),
        BadUtf8,
        Oversized,
    }

    /// Feeds `stream` to a [`Framer`] in `chunk`-byte reads; the line
    /// `shutdown` stops reading, as a routed `shutdown` request does.
    fn frame_all(stream: &[u8], chunk: usize, max_line_bytes: usize) -> Vec<Framed> {
        let mut framer = Framer::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            let stopped = framer.ingest(piece, max_line_bytes, |frame| {
                let stop = frame == Frame::Line("shutdown");
                out.push(match frame {
                    Frame::Line(text) => Framed::Line(text.to_owned()),
                    Frame::BadUtf8 => Framed::BadUtf8,
                    Frame::Oversized => Framed::Oversized,
                });
                stop
            });
            if stopped {
                break;
            }
        }
        out
    }

    /// The framing contract written the plain quadratic way (rescan the
    /// whole buffer from byte 0 on every read, copy each line out), as
    /// the oracle [`Framer`] must agree with.
    fn reference_frames(stream: &[u8], chunk: usize, max_line_bytes: usize) -> Vec<Framed> {
        let (mut pending, mut discarding, mut out) = (Vec::new(), false, Vec::new());
        'read: for piece in stream.chunks(chunk) {
            pending.extend_from_slice(piece);
            while let Some(eol) = pending.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = pending.drain(..=eol).collect();
                if discarding {
                    discarding = false;
                    continue;
                }
                match std::str::from_utf8(&line[..eol]) {
                    Ok(text) if text.trim().is_empty() => {}
                    Ok(text) => {
                        out.push(Framed::Line(text.trim().to_owned()));
                        if text.trim() == "shutdown" {
                            break 'read;
                        }
                    }
                    Err(_) => out.push(Framed::BadUtf8),
                }
            }
            if !discarding && max_line_bytes > 0 && pending.len() > max_line_bytes {
                out.push(Framed::Oversized);
                pending.clear();
                discarding = true;
            }
        }
        out
    }

    #[test]
    fn framer_routes_the_same_lines_in_the_same_order_for_any_chunking() {
        let request = r#"{"id":1,"method":"stats"}"#;
        let one = format!("{request}\n");
        for chunk in [1, 2, 3] {
            assert_eq!(
                frame_all(one.as_bytes(), chunk, 0),
                [Framed::Line(request.into())]
            );
        }

        let pipelined = b"{\"id\":1}\n\n   \r\n{\"id\":2}\r\n{\"id\":3,\xFF}\n {\"id\":4} \n";
        assert_eq!(
            frame_all(pipelined, pipelined.len(), 0),
            [
                Framed::Line(r#"{"id":1}"#.into()),
                Framed::Line(r#"{"id":2}"#.into()),
                Framed::BadUtf8,
                Framed::Line(r#"{"id":4}"#.into()),
            ]
        );

        let oversized = format!("{{\"id\":1,\"pad\":\"{}\"}}\n{request}\n", "x".repeat(200));
        for chunk in [1, 16, 64, 65] {
            assert_eq!(
                frame_all(oversized.as_bytes(), chunk, 64),
                [Framed::Oversized, Framed::Line(request.into())],
                "chunk {chunk}"
            );
        }

        // Everything together, against the reference framing, for every
        // chunking and with and without a cap: a line arriving whole in
        // one read is never judged oversized, and nothing after a
        // `shutdown` is framed.
        let stream = [
            one.as_bytes(),
            pipelined,
            oversized.as_bytes(),
            &[b'y'; 300],
            b"\n{\"id\":9}\nshutdown\n{\"id\":10}\n",
        ]
        .concat();
        for max in [0, 64, 299, 300] {
            for chunk in [1, 2, 3, 5, 63, 64, 65, 257, 4096, stream.len()] {
                assert_eq!(
                    frame_all(&stream, chunk, max),
                    reference_frames(&stream, chunk, max),
                    "chunk {chunk}, max {max}"
                );
            }
        }
    }

    /// Waits until something is listening on `socket`.
    fn await_bind(socket: &std::path::Path) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::os::unix::net::UnixStream::connect(socket).is_err() {
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn socket_lock_excludes_concurrent_daemons_on_one_path() {
        let socket =
            std::env::temp_dir().join(format!("stqc-socklock-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_file(socket_lock_path(&socket));
        let (server, cancel) = spawn_server(ServeConfig::default());
        let run = {
            let server = Arc::clone(&server);
            let socket = socket.clone();
            std::thread::spawn(move || server.run_unix(&socket))
        };
        await_bind(&socket);

        // While the daemon serves, the lock is held: a rival cannot take
        // it, so the probe → unlink → rebind reclaim sequence can never
        // start against a live socket.
        let contended = lock_socket(&socket);
        assert!(
            contended.is_err(),
            "a serving daemon must hold its socket lock exclusively"
        );
        // And a full second daemon on the same path fails outright.
        let (rival, _rival_cancel) = spawn_server(ServeConfig::default());
        assert!(
            rival.run_unix(&socket).is_err(),
            "two daemons must not serve one socket path"
        );

        cancel.cancel();
        run.join().expect("run thread").expect("clean shutdown");
        // The lock is released with the daemon; the path is reusable.
        let reacquired = lock_socket(&socket);
        assert!(reacquired.is_ok(), "lock must be free after shutdown");
        drop(reacquired);
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }

    #[test]
    fn stale_socket_file_is_reclaimed_under_the_lock() {
        let socket =
            std::env::temp_dir().join(format!("stqc-stale-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        // A dead daemon's leftovers: bind then drop the listener, which
        // leaves the socket file on disk with nothing answering it.
        drop(std::os::unix::net::UnixListener::bind(&socket).expect("stale bind"));
        assert!(socket.exists(), "stale socket file is the precondition");

        let (server, cancel) = spawn_server(ServeConfig::default());
        let run = {
            let server = Arc::clone(&server);
            let socket = socket.clone();
            std::thread::spawn(move || server.run_unix(&socket))
        };
        await_bind(&socket);
        let mut client = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        let health = roundtrip(&mut client, &mut reader, r#"{"id":1,"method":"health"}"#);
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

        cancel.cancel();
        run.join()
            .expect("run thread")
            .expect("reclaim then clean shutdown");
        assert!(!socket.exists(), "socket file is removed on the way out");
        // The lock file deliberately outlives the daemon (unlinking it
        // would reopen the reclaim race one level up).
        assert!(socket_lock_path(&socket).exists());
        let _ = std::fs::remove_file(socket_lock_path(&socket));
    }
}

fn retry_override(base: RetryPolicy, v: Option<&Json>) -> Result<RetryPolicy, ServeError> {
    let mut retry = base;
    let Some(obj) = v else { return Ok(retry) };
    if obj.is_null() {
        return Ok(retry);
    }
    let Json::Obj(members) = obj else {
        return Err(("invalid", "`retry` must be an object".to_owned()));
    };
    for (key, value) in members {
        let n = value.as_u64().ok_or((
            "invalid",
            format!("retry field `{key}` must be a non-negative integer"),
        ))?;
        match key.as_str() {
            "max_attempts" => retry.max_attempts = n.min(u64::from(u32::MAX)) as u32,
            "factor" => retry.factor = n.min(u64::from(u32::MAX)) as u32,
            other => return Err(("invalid", format!("unknown retry field `{other}`"))),
        }
    }
    Ok(retry)
}
