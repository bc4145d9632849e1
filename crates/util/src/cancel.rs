//! Cooperative cancellation tokens with optional wall-clock deadlines.
//!
//! A [`CancelToken`] is the one mechanism by which long-running work in
//! this workspace — the prover's DPLL search, E-matching rounds, the
//! soundness checker's obligation pipeline, fuzz campaigns — is asked to
//! stop early. It carries two independent stop conditions:
//!
//! * an **external cancel flag**, set by [`CancelToken::cancel`] (e.g.
//!   from a SIGINT handler; the method is a single atomic store and is
//!   async-signal-safe), and
//! * an optional **deadline**, a wall-clock instant after which
//!   [`CancelToken::stop_reason`] reports [`CancelReason::DeadlineExpired`].
//!
//! Cancellation is strictly *cooperative*: nothing is interrupted
//! preemptively. Work polls the token at its natural safepoints (solver
//! decision batches, round boundaries, pool task boundaries) and winds
//! down with partial results. Tokens are cheap `Arc` handles — clone one
//! per worker; every clone observes the same flag and deadline.
//!
//! The default token ([`CancelToken::default`] / [`CancelToken::new`])
//! never fires, so code paths that thread a token through unconditionally
//! pay one relaxed atomic load per poll when no deadline or cancel is in
//! play — the property the determinism guarantee (`--jobs 1/4/8` yield
//! byte-identical verdicts when deadlines are disabled) rests on.
//!
//! # Examples
//!
//! ```
//! use stq_util::cancel::{CancelReason, CancelToken};
//!
//! let token = CancelToken::new();
//! assert!(token.stop_reason().is_none());
//!
//! token.cancel();
//! assert_eq!(token.stop_reason(), Some(CancelReason::Cancelled));
//!
//! let expired = CancelToken::deadline_in(std::time::Duration::ZERO);
//! assert_eq!(expired.stop_reason(), Some(CancelReason::DeadlineExpired));
//! ```

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
extern "C" {
    /// Raw `write(2)`, used by [`CancelToken::cancel`] to ring a reactor's
    /// wake pipe. Async-signal-safe per POSIX, which is the whole point —
    /// the libc crate is not a dependency of this workspace.
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// Sentinel for "no wake fd registered".
const NO_WAKE_FD: i32 = -1;

/// Why a token asked its holders to stop.
///
/// The distinction is load-bearing downstream: a deadline expiry becomes
/// a *timed-out* prover outcome (`Resource::Time` — wall-clock
/// exhaustion, same as a per-obligation `timeout`), while an external
/// cancel becomes a *cancelled* outcome (`Resource::Cancelled`) and marks
/// the whole run as interrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (SIGINT, caller abort, ...).
    Cancelled,
    /// The token's wall-clock deadline has passed.
    DeadlineExpired,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Linked-token support ([`CancelToken::child`]): a child observes
    /// its parent's cancel flag and deadline in addition to its own, so
    /// firing a parent stops a whole tree of in-flight work, while
    /// cancelling a child (one request) leaves siblings untouched.
    parent: Option<Arc<Inner>>,
    /// Descriptor to write one byte to on [`CancelToken::cancel`]
    /// ([`NO_WAKE_FD`] when unset). A reactor-driven daemon registers its
    /// wake pipe here so a cancel landing on *any* thread — including a
    /// signal handler — interrupts a `poll(2)` blocked with no timeout.
    wake_fd: AtomicI32,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            cancelled: AtomicBool::new(false),
            deadline: None,
            parent: None,
            wake_fd: AtomicI32::new(NO_WAKE_FD),
        }
    }
}

impl Inner {
    fn cancelled_anywhere(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        self.parent
            .as_deref()
            .is_some_and(Inner::cancelled_anywhere)
    }

    /// The earliest deadline along the parent chain, if any.
    fn effective_deadline(&self) -> Option<Instant> {
        let inherited = self.parent.as_deref().and_then(Inner::effective_deadline);
        match (self.deadline, inherited) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A cloneable, thread-safe handle asking cooperative work to stop.
///
/// See the [module docs](self) for the protocol. `Clone` shares the
/// underlying state: cancelling any clone cancels them all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never fires on its own (no deadline, not cancelled).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once the wall clock reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(deadline),
                ..Inner::default()
            }),
        }
    }

    /// A token that fires `from_now` after this call.
    pub fn deadline_in(from_now: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + from_now)
    }

    /// A *linked* child token: it fires whenever this token fires (flag
    /// or deadline), and additionally when cancelled itself. Cancelling
    /// the child does **not** propagate upward — this is the per-request
    /// isolation the serve daemon rests on: server-shutdown →
    /// connection → request tokens form a tree, and a client
    /// disconnecting cancels exactly its own subtree.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                parent: Some(Arc::clone(&self.inner)),
                ..Inner::default()
            }),
        }
    }

    /// A linked child (see [`CancelToken::child`]) with its own
    /// deadline on top: the effective deadline is the earliest along
    /// the chain, so a per-request deadline can only tighten a
    /// server-wide one.
    pub fn child_with_deadline(&self, deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some(deadline),
                parent: Some(Arc::clone(&self.inner)),
                ..Inner::default()
            }),
        }
    }

    /// [`CancelToken::child_with_deadline`], `from_now` after this call.
    pub fn child_with_deadline_in(&self, from_now: Duration) -> CancelToken {
        self.child_with_deadline(Instant::now() + from_now)
    }

    /// Requests cancellation. Idempotent, and safe to call from a signal
    /// handler: the body is an atomic store plus, when a wake fd is
    /// registered ([`set_wake_fd`](CancelToken::set_wake_fd)), one raw
    /// `write(2)` — both async-signal-safe; no locks, no allocation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
        #[cfg(unix)]
        {
            let fd = self.inner.wake_fd.load(Ordering::Acquire);
            if fd != NO_WAKE_FD {
                let byte = [b'!'];
                // EAGAIN (wake pipe already full) is as good as success;
                // EBADF after a reactor shut down is harmless too.
                unsafe {
                    let _ = write(fd, byte.as_ptr(), 1);
                }
            }
        }
    }

    /// Registers a descriptor (typically a reactor's
    /// [`Waker`](crate::reactor::Waker) pipe) to be written on
    /// [`cancel`](CancelToken::cancel), so a cancel interrupts a
    /// `poll(2)` blocked with no timeout. Shared by every clone of this
    /// token (but **not** by parents or children — register on the token
    /// the signal handler holds). Pass a negative fd to clear.
    ///
    /// The caller must keep the descriptor open for as long as cancels
    /// may fire, or clear the registration first.
    pub fn set_wake_fd(&self, fd: i32) {
        self.inner
            .wake_fd
            .store(if fd < 0 { NO_WAKE_FD } else { fd }, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on any
    /// clone — of this token or of a linked ancestor. Does **not**
    /// consider the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled_anywhere()
    }

    /// The effective wall-clock deadline: the earliest along this
    /// token's linked-parent chain, if any carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.effective_deadline()
    }

    /// Polls both stop conditions. The external cancel flag wins when
    /// both hold: an operator's Ctrl-C should read as an interruption
    /// even if the deadline lapsed in the same instant.
    ///
    /// The fast path (default token, not cancelled) is one atomic load
    /// and one `Option` check — no clock read.
    pub fn stop_reason(&self) -> Option<CancelReason> {
        if self.is_cancelled() {
            return Some(CancelReason::Cancelled);
        }
        match self.inner.effective_deadline() {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExpired),
            _ => None,
        }
    }

    /// `stop_reason().is_some()`, for callers that only need a yes/no.
    pub fn should_stop(&self) -> bool {
        self.stop_reason().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.should_stop());
        assert_eq!(t.stop_reason(), None);
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn cancel_is_seen_by_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.stop_reason(), Some(CancelReason::Cancelled));
        // Idempotent.
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn expired_deadline_reports_deadline_expired() {
        let t = CancelToken::deadline_in(Duration::ZERO);
        assert!(!t.is_cancelled(), "deadline expiry is not a cancel");
        assert_eq!(t.stop_reason(), Some(CancelReason::DeadlineExpired));
        assert!(t.should_stop());
    }

    #[test]
    fn future_deadline_does_not_fire_early() {
        let t = CancelToken::deadline_in(Duration::from_secs(3600));
        assert_eq!(t.stop_reason(), None);
        assert!(t.deadline().is_some());
    }

    #[test]
    fn cancel_outranks_an_expired_deadline() {
        let t = CancelToken::deadline_in(Duration::ZERO);
        t.cancel();
        assert_eq!(t.stop_reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn child_fires_with_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel stays in its subtree");
        assert!(!b.is_cancelled(), "siblings are isolated");
        parent.cancel();
        assert!(b.is_cancelled());
        assert_eq!(b.stop_reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn child_deadline_is_the_earliest_in_the_chain() {
        let parent = CancelToken::deadline_in(Duration::from_secs(3600));
        let tight = parent.child_with_deadline_in(Duration::ZERO);
        assert_eq!(tight.stop_reason(), Some(CancelReason::DeadlineExpired));
        assert!(!parent.should_stop(), "parent deadline is far out");

        let loose = CancelToken::deadline_in(Duration::ZERO)
            .child_with_deadline_in(Duration::from_secs(3600));
        assert_eq!(
            loose.stop_reason(),
            Some(CancelReason::DeadlineExpired),
            "an expired parent deadline fires the child too"
        );
        let plain = parent.child();
        assert_eq!(plain.deadline(), parent.deadline(), "deadline is inherited");
    }

    #[test]
    fn grandchildren_observe_the_root() {
        let root = CancelToken::new();
        let leaf = root.child().child();
        assert!(!leaf.should_stop());
        root.cancel();
        assert!(leaf.is_cancelled());
    }

    #[test]
    #[cfg(unix)]
    fn cancel_rings_a_registered_wake_fd() {
        use std::io::Read;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;

        let (tx, mut rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        let t = CancelToken::new();
        t.set_wake_fd(tx.as_raw_fd());
        let clone = t.clone();
        clone.cancel();
        let mut buf = [0u8; 8];
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = rx.read(&mut buf).unwrap();
        assert!(n >= 1, "cancel() should have written a wake byte");
        assert_eq!(buf[0], b'!');

        // Clearing the registration stops further writes.
        t.set_wake_fd(-1);
        t.cancel();
        rx.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            rx.read(&mut buf).is_err(),
            "no byte after the fd is cleared"
        );
    }

    #[test]
    fn cancel_crosses_threads() {
        let t = CancelToken::new();
        let worker = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || worker.cancel());
        });
        assert!(t.is_cancelled());
    }
}
