//! Deterministic wire-fault injection for the serve transport.
//!
//! The serve daemon's transport is line-delimited JSON over a Unix
//! socket (or stdio); its robustness story — self-healing clients,
//! supervised workers, the chaos soak oracle (`stqc chaos-serve`) —
//! only stays honest if tests can inject wire faults on demand, the
//! same way `stq_logic::fault` injects solver faults and its
//! `IoFaultPlan` injects persistence faults. A [`NetFaultPlan`]
//! schedules synthetic faults at specific *write operations* (the Nth
//! response write the daemon performs under one [`NetFaultInjector`]),
//! so a seeded campaign corrupts and severs connections in a
//! reproducible pattern while the oracle asserts every request still
//! resolves to exactly one, byte-identical answer.
//!
//! Faults are injected on the daemon's *response path* (the direction
//! clients must defend), by wrapping each connection's write half in a
//! [`ChaosWriter`]:
//!
//! | fault | what the client sees |
//! |---|---|
//! | [`NetFaultKind::Reset`] | the connection is severed before the response — a mid-request drop |
//! | [`NetFaultKind::Torn`] | a prefix of the JSON line, then the connection is severed |
//! | [`NetFaultKind::Garbage`] | invalid-UTF-8 bytes glued onto the front of the line — an unparseable response |
//! | [`NetFaultKind::Alien`] | a complete, well-formed JSON line with an id the client never sent — an interleaved stray line |
//! | [`NetFaultKind::Short`] | a short write: only part of the buffer is accepted this call (the retrying `write_all` loop is exercised; no data is lost) |
//! | [`NetFaultKind::Stall`] | a brief transmission stall before the line |
//!
//! Like the solver plan under `--jobs`, write-op indices are claimed
//! from one shared atomic across every connection, so *which*
//! connection draws fault `k` is scheduling-dependent but the total
//! fault schedule (count and kinds) is fully determined by the seed.
//! Severing is done through a per-connection `severer` callback (for a
//! real socket, `UnixStream::shutdown(Both)`), so the peer observes a
//! genuine hangup rather than a polite simulation.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::splitmix64;

/// The kind of synthetic wire fault to inject at a response write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Sever the connection before any of the response is written.
    Reset,
    /// Write a prefix of the response, then sever: a torn line.
    Torn,
    /// Prepend invalid-UTF-8 garbage to the response line, corrupting
    /// it into an unparseable (but newline-terminated) line.
    Garbage,
    /// Inject a complete well-formed JSON line with an unattributable
    /// id before the real response: an interleaved stray line the
    /// client must discard.
    Alien,
    /// Accept only part of the buffer this call (`Ok(n < len)`); the
    /// caller's `write_all` loop retries the rest.
    Short,
    /// Sleep briefly before writing: a transmission stall.
    Stall,
}

/// The stray line [`NetFaultKind::Alien`] injects. Its id is a string
/// no client ever uses (request ids are fresh integers), so resilient
/// clients can — must — drop it as unattributable.
pub const ALIEN_LINE: &str =
    "{\"id\":\"net-fault-alien\",\"ok\":true,\"result\":{\"alien\":true}}\n";

/// A deterministic schedule of synthetic wire faults, keyed by write
/// operation index (0-based count of response writes under one
/// [`NetFaultInjector`], shared across every connection).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    faults: BTreeMap<u64, NetFaultKind>,
}

impl NetFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Schedules `kind` at write operation `at` (chainable).
    #[must_use]
    pub fn inject(mut self, at: u64, kind: NetFaultKind) -> NetFaultPlan {
        self.faults.insert(at, kind);
        self
    }

    /// A pseudo-random plan: `count` faults scattered over the first
    /// `span` write operations, fully determined by `seed` (splitmix64,
    /// so the same seed reproduces the same schedule on every
    /// platform).
    pub fn seeded(seed: u64, count: usize, span: u64) -> NetFaultPlan {
        let mut plan = NetFaultPlan::new();
        let mut s = seed;
        let span = span.max(1);
        for _ in 0..count {
            s = splitmix64(s);
            let at = s % span;
            s = splitmix64(s);
            let kind = match s % 6 {
                0 => NetFaultKind::Reset,
                1 => NetFaultKind::Torn,
                2 => NetFaultKind::Garbage,
                3 => NetFaultKind::Alien,
                4 => NetFaultKind::Short,
                _ => NetFaultKind::Stall,
            };
            plan.faults.insert(at, kind);
        }
        plan
    }

    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The fault scheduled at write operation `at`, if any.
    pub fn fault_at(&self, at: u64) -> Option<NetFaultKind> {
        self.faults.get(&at).copied()
    }
}

/// One armed [`NetFaultPlan`]: the plan plus the shared write-op
/// counter and injection telemetry. One injector serves a whole daemon;
/// every connection's [`ChaosWriter`] claims indices from it.
#[derive(Debug)]
pub struct NetFaultInjector {
    plan: NetFaultPlan,
    ops: AtomicU64,
    injected: AtomicU64,
}

impl NetFaultInjector {
    pub fn new(plan: NetFaultPlan) -> NetFaultInjector {
        NetFaultInjector {
            plan,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Claims the next write-op index and returns the fault (if any)
    /// scheduled for it, counting injections as they fire.
    pub fn next_op(&self) -> Option<NetFaultKind> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.fault_at(op);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Write operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults the plan schedules in total.
    pub fn planned(&self) -> u64 {
        self.plan.len() as u64
    }
}

/// A fault-injecting wrapper around one connection's write half.
///
/// Every `write` call claims one write-op index from the shared
/// [`NetFaultInjector`] and simulates the scheduled fault, if any.
/// Severing faults mark the connection dead (all later writes fail
/// with `ConnectionReset`) and invoke the `severer`, which should tear
/// down the real transport so the peer observes the hangup.
pub struct ChaosWriter<W: Write> {
    inner: W,
    injector: Arc<NetFaultInjector>,
    dead: AtomicBool,
    severer: Option<Box<dyn Fn() + Send>>,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`. `severer` (when present) is called exactly once,
    /// at the first severing fault, to hard-close the underlying
    /// transport; without one, severing only poisons this wrapper.
    pub fn new(
        inner: W,
        injector: Arc<NetFaultInjector>,
        severer: Option<Box<dyn Fn() + Send>>,
    ) -> ChaosWriter<W> {
        ChaosWriter {
            inner,
            injector,
            dead: AtomicBool::new(false),
            severer,
        }
    }

    fn sever(&self) -> io::Error {
        if !self.dead.swap(true, Ordering::AcqRel) {
            if let Some(severer) = &self.severer {
                severer();
            }
        }
        io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection was severed by an injected fault",
            ));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.injector.next_op() {
            None => self.inner.write(buf),
            Some(NetFaultKind::Stall) => {
                std::thread::sleep(Duration::from_millis(2));
                self.inner.write(buf)
            }
            Some(NetFaultKind::Short) => {
                // At least one byte makes progress; `write_all` loops
                // for the rest (each continuation claims a fresh op).
                let n = (buf.len() / 2).max(1);
                self.inner.write(&buf[..n])
            }
            Some(NetFaultKind::Garbage) => {
                // Invalid UTF-8, no newline: glued onto the front of
                // the current line, corrupting exactly that line.
                self.inner.write_all(&[0xFF, 0xFE, 0xF5])?;
                self.inner.write(buf)
            }
            Some(NetFaultKind::Alien) => {
                self.inner.write_all(ALIEN_LINE.as_bytes())?;
                self.inner.write(buf)
            }
            Some(NetFaultKind::Torn) => {
                let n = (buf.len() / 2).max(1);
                let _ = self.inner.write(&buf[..n]);
                let _ = self.inner.flush();
                Err(self.sever())
            }
            Some(NetFaultKind::Reset) => Err(self.sever()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead.load(Ordering::Acquire) {
            // The transport is gone; nothing left to flush.
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer(plan: NetFaultPlan) -> (ChaosWriter<Vec<u8>>, Arc<NetFaultInjector>) {
        let injector = Arc::new(NetFaultInjector::new(plan));
        (
            ChaosWriter::new(Vec::new(), Arc::clone(&injector), None),
            injector,
        )
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = NetFaultPlan::seeded(7, 10, 100);
        let b = NetFaultPlan::seeded(7, 10, 100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_ne!(a, NetFaultPlan::seeded(8, 10, 100));
    }

    #[test]
    fn empty_plan_passes_writes_through() {
        let (mut w, injector) = writer(NetFaultPlan::new());
        w.write_all(b"{\"id\":1}\n").expect("clean write");
        assert_eq!(w.inner, b"{\"id\":1}\n");
        assert_eq!(injector.ops(), 1);
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn garbage_corrupts_exactly_one_line() {
        let (mut w, injector) = writer(NetFaultPlan::new().inject(0, NetFaultKind::Garbage));
        w.write_all(b"{\"id\":1}\n").expect("write survives");
        w.write_all(b"{\"id\":2}\n").expect("write survives");
        assert_eq!(injector.injected(), 1);
        let text = &w.inner;
        assert!(text.starts_with(&[0xFF, 0xFE, 0xF5]), "garbage leads");
        assert!(text.ends_with(b"{\"id\":2}\n"), "second line is intact");
        // Exactly two newlines: the garbage merged into line one.
        assert_eq!(text.iter().filter(|b| **b == b'\n').count(), 2);
    }

    #[test]
    fn alien_injects_a_complete_extra_line() {
        let (mut w, _) = writer(NetFaultPlan::new().inject(0, NetFaultKind::Alien));
        w.write_all(b"{\"id\":1}\n").expect("write survives");
        let text = String::from_utf8(w.inner.clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(format!("{}\n", lines[0]), ALIEN_LINE);
        assert_eq!(lines[1], "{\"id\":1}");
    }

    #[test]
    fn short_write_loses_nothing_under_write_all() {
        let plan = NetFaultPlan::new()
            .inject(0, NetFaultKind::Short)
            .inject(1, NetFaultKind::Short);
        let (mut w, injector) = writer(plan);
        w.write_all(b"{\"id\":1,\"ok\":true}\n").expect("write_all retries");
        assert_eq!(w.inner, b"{\"id\":1,\"ok\":true}\n");
        assert_eq!(injector.injected(), 2, "both short writes fired");
        assert!(injector.ops() >= 3, "continuations claimed fresh ops");
    }

    #[test]
    fn reset_severs_and_poisons_later_writes() {
        let severed = Arc::new(AtomicBool::new(false));
        let observed = Arc::clone(&severed);
        let injector = Arc::new(NetFaultInjector::new(
            NetFaultPlan::new().inject(1, NetFaultKind::Reset),
        ));
        let mut w = ChaosWriter::new(
            Vec::new(),
            Arc::clone(&injector),
            Some(Box::new(move || observed.store(true, Ordering::Release))),
        );
        w.write_all(b"{\"id\":1}\n").expect("op 0 is clean");
        let err = w.write_all(b"{\"id\":2}\n").expect_err("op 1 resets");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(severed.load(Ordering::Acquire), "severer ran");
        let err = w.write_all(b"{\"id\":3}\n").expect_err("dead stays dead");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.inner, b"{\"id\":1}\n", "nothing after the reset landed");
    }

    #[test]
    fn torn_write_leaves_a_prefix_then_severs() {
        let (mut w, _) = writer(NetFaultPlan::new().inject(0, NetFaultKind::Torn));
        let err = w.write_all(b"{\"id\":1,\"ok\":true}\n").expect_err("torn");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(!w.inner.is_empty() && w.inner.len() < b"{\"id\":1,\"ok\":true}\n".len());
    }

    #[test]
    fn ops_are_claimed_globally_across_writers() {
        let injector = Arc::new(NetFaultInjector::new(
            NetFaultPlan::new().inject(3, NetFaultKind::Alien),
        ));
        let mut a = ChaosWriter::new(Vec::new(), Arc::clone(&injector), None);
        let mut b = ChaosWriter::new(Vec::new(), Arc::clone(&injector), None);
        for _ in 0..2 {
            a.write_all(b"x\n").expect("clean");
            b.write_all(b"y\n").expect("clean");
        }
        assert_eq!(injector.ops(), 4);
        assert_eq!(injector.injected(), 1, "the shared index 3 fired once");
    }
}
