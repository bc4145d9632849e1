//! Readiness-based I/O multiplexing over nonblocking file descriptors.
//!
//! This is the event-notification core behind the `stqc serve` daemon's
//! connection layer ([`serving.md`]): one thread blocks in `poll(2)` over
//! every registered socket plus a self-pipe, and wakes only when a peer
//! has bytes for us, a peer hung up, or another thread rang the [`Waker`].
//! Idle connections therefore cost a table entry and a kernel wait slot —
//! not a thread, and not a sleep/retry loop.
//!
//! Like the rest of the workspace the module is dependency-free: `poll(2)`
//! is reached through a hand-declared `extern "C"` shim (the same idiom as
//! the `flock(2)` lock in `stq-soundness::cache` and the signal shims in
//! `stqc`), and the self-pipe is a nonblocking [`UnixStream::pair`] so no
//! `pipe(2)`/`fcntl(2)` declarations are needed. The [`Waker`] write is a
//! single raw `write(2)` on a pre-registered descriptor, which keeps it
//! async-signal-safe — `CancelToken::cancel` uses exactly this path to
//! interrupt a blocked reactor from a SIGINT handler (see
//! `stq_util::cancel`).
//!
//! The reactor is deliberately minimal: registration is keyed by a caller
//! chosen `usize` token, readiness is level-triggered (exactly `poll(2)`
//! semantics), and the caller owns all descriptor lifecycles. Two counters
//! ([`Reactor::polls`], [`Reactor::wakeups`]) exist so tests and the
//! daemon's `stats` can prove the loop blocks instead of spinning.
//!
//! [`serving.md`]: https://example.invalid/docs/serving.md

use std::io::{self, Read};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`; layout is identical on every libc the
/// workspace targets.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Which readiness directions a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn events(self) -> i16 {
        let mut e = 0;
        if self.readable {
            e |= POLLIN;
        }
        if self.writable {
            e |= POLLOUT;
        }
        e
    }
}

/// One readiness notification out of [`Reactor::poll_events`].
///
/// `hangup` covers `POLLHUP`/`POLLERR`/`POLLNVAL`; callers should treat it
/// as "read until EOF/error and tear the registration down".
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

struct Entry {
    fd: RawFd,
    token: usize,
    interest: Interest,
}

/// A cloneable, thread-safe handle that interrupts a blocked
/// [`Reactor::poll_events`] call.
///
/// [`Waker::wake`] writes one byte to the reactor's self-pipe through a raw
/// `write(2)` — no allocation, no locks — so it is safe from worker
/// threads and from signal handlers alike. The pipe is nonblocking; a full
/// pipe means a wakeup is already pending, so a failed write is ignored.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    pub fn wake(&self) {
        let b = [b'!'];
        // Raw write(2): async-signal-safe, and EAGAIN (pipe already full =>
        // a wakeup is already queued) is exactly as good as success.
        unsafe {
            let _ = write(self.tx.as_raw_fd(), b.as_ptr(), 1);
        }
    }

    /// The raw descriptor behind [`wake`](Self::wake), for callers that
    /// must ring the pipe from contexts where even holding an `Arc` is off
    /// the table (e.g. `CancelToken`'s signal-handler path stores it in an
    /// atomic).
    pub fn raw_fd(&self) -> RawFd {
        self.tx.as_raw_fd()
    }
}

/// A `poll(2)`-backed readiness multiplexer.
///
/// Single-threaded by design: one owner registers descriptors and calls
/// [`poll_events`](Self::poll_events) in a loop; other threads communicate
/// through the [`Waker`]. Registrations are keyed by caller-chosen tokens
/// (any `usize` except [`WAKE_TOKEN`]).
pub struct Reactor {
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    entries: Vec<Entry>,
    polls: Arc<AtomicU64>,
    wakeups: Arc<AtomicU64>,
}

/// Reserved token for the internal self-pipe; never returned in an
/// [`Event`] and rejected by [`Reactor::register`].
pub const WAKE_TOKEN: usize = usize::MAX;

impl Reactor {
    pub fn new() -> io::Result<Reactor> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Reactor {
            wake_rx: rx,
            wake_tx: Arc::new(tx),
            entries: Vec::new(),
            polls: Arc::new(AtomicU64::new(0)),
            wakeups: Arc::new(AtomicU64::new(0)),
        })
    }

    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.wake_tx),
        }
    }

    /// Register `fd` under `token`. The caller keeps ownership of the
    /// descriptor and must [`deregister`](Self::deregister) before closing
    /// it. Re-registering a live token replaces its interest and fd.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) {
        assert!(
            token != WAKE_TOKEN,
            "token {token} is reserved for the reactor"
        );
        if let Some(e) = self.entries.iter_mut().find(|e| e.token == token) {
            e.fd = fd;
            e.interest = interest;
        } else {
            self.entries.push(Entry {
                fd,
                token,
                interest,
            });
        }
    }

    pub fn deregister(&mut self, token: usize) {
        self.entries.retain(|e| e.token != token);
    }

    /// Number of live registrations (self-pipe excluded).
    pub fn registered(&self) -> usize {
        self.entries.len()
    }

    /// How many times `poll(2)` has returned. An idle daemon's count stays
    /// flat — the loop blocks, it does not spin (the accept loop it
    /// replaced woke 100×/sec).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// How many self-pipe drains have happened (one per batch of
    /// [`Waker::wake`] calls noticed).
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Block until at least one registered descriptor is ready, the
    /// [`Waker`] rings, or `timeout` lapses. Events are appended to
    /// `events` (cleared first); the return value is the number of
    /// *descriptor* events — a pure wakeup or timeout returns `Ok(0)`.
    ///
    /// `None` means block indefinitely; a signal (`EINTR`) returns
    /// `Ok(0)` so the caller can re-check its cancellation token.
    pub fn poll_events(
        &mut self,
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        events.clear();
        let mut fds = Vec::with_capacity(self.entries.len() + 1);
        fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for e in &self.entries {
            fds.push(PollFd {
                fd: e.fd,
                events: e.interest.events(),
                revents: 0,
            });
        }
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs deadline does not become a busy loop of
            // zero-timeout polls.
            Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        self.polls.fetch_add(1, Ordering::Relaxed);
        if rc == 0 {
            return Ok(0);
        }
        if fds[0].revents != 0 {
            self.drain_wake_pipe();
        }
        let mut n = 0;
        for (slot, entry) in fds[1..].iter().zip(self.entries.iter()) {
            let r = slot.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token: entry.token,
                readable: r & POLLIN != 0,
                writable: r & POLLOUT != 0,
                hangup: r & (POLLHUP | POLLERR | POLLNVAL) != 0,
            });
            n += 1;
        }
        Ok(n)
    }

    fn drain_wake_pipe(&mut self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        let mut buf = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

/// Block until `fd` is writable or `timeout` lapses; `Ok(true)` means
/// writable (or in an error state the next `write` will surface).
///
/// Worker threads use this to back-pressure on a nonblocking response
/// socket without taking the descriptor away from the reactor: `poll(2)`
/// on the same fd from two threads is well-defined, and the worker only
/// waits for `POLLOUT` while it holds the connection's write lock.
pub fn wait_writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    wait_for(fd, POLLOUT, timeout)
}

/// Block until `fd` is readable or `timeout` lapses.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    wait_for(fd, POLLIN, timeout)
}

fn wait_for(fd: RawFd, want: i16, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: want,
        revents: 0,
    };
    let ms = timeout.as_millis().saturating_add(1).min(i32::MAX as u128) as i32;
    let rc = unsafe { poll(&mut pfd, 1, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(false);
        }
        return Err(err);
    }
    // POLLERR/POLLHUP also count: the pending write will fail fast with a
    // real error instead of the caller stalling to its timeout.
    Ok(rc > 0 && pfd.revents & (want | POLLERR | POLLHUP | POLLNVAL) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    #[test]
    fn readable_event_fires_for_registered_stream() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(b.as_raw_fd(), 7, Interest::READABLE);
        let mut events = Vec::new();
        // Nothing pending yet: a bounded poll times out with zero events.
        let n = r
            .poll_events(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert_eq!(n, 0);
        a.write_all(b"hello\n").unwrap();
        let n = r
            .poll_events(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn hangup_reported_when_peer_closes() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(b.as_raw_fd(), 3, Interest::READABLE);
        drop(a);
        let mut events = Vec::new();
        let n = r
            .poll_events(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].hangup || events[0].readable);
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let mut r = Reactor::new().unwrap();
        let waker = r.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        // Blocks indefinitely until the waker fires from the other thread.
        let n = r.poll_events(None, &mut events).unwrap();
        handle.join().unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(r.wakeups(), 1);
    }

    #[test]
    fn multiple_wakes_coalesce_into_one_drain() {
        let mut r = Reactor::new().unwrap();
        let waker = r.waker();
        for _ in 0..10 {
            waker.wake();
        }
        let mut events = Vec::new();
        r.poll_events(Some(Duration::from_millis(100)), &mut events)
            .unwrap();
        assert_eq!(r.wakeups(), 1);
        // Pipe fully drained: the next bounded poll sees nothing.
        let n = r
            .poll_events(Some(Duration::from_millis(5)), &mut events)
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(r.wakeups(), 1);
    }

    #[test]
    fn deregister_stops_events() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(b.as_raw_fd(), 1, Interest::READABLE);
        assert_eq!(r.registered(), 1);
        r.deregister(1);
        assert_eq!(r.registered(), 0);
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = r
            .poll_events(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn idle_poll_blocks_instead_of_spinning() {
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut r = Reactor::new().unwrap();
        r.register(b.as_raw_fd(), 1, Interest::READABLE);
        let mut events = Vec::new();
        let start = Instant::now();
        let n = r
            .poll_events(Some(Duration::from_millis(120)), &mut events)
            .unwrap();
        assert_eq!(n, 0);
        // One poll(2) call covered the whole idle window.
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert_eq!(r.polls(), 1);
    }

    #[test]
    fn wait_writable_is_immediate_on_fresh_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        assert!(wait_writable(a.as_raw_fd(), Duration::from_millis(500)).unwrap());
    }

    #[test]
    fn wait_readable_times_out_without_data() {
        let (a, _b) = UnixStream::pair().unwrap();
        assert!(!wait_readable(a.as_raw_fd(), Duration::from_millis(20)).unwrap());
    }
}
