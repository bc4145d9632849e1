//! Deterministic fault injection for robustness testing.
//!
//! The checking pipeline promises to *degrade* under prover faults — a
//! panicking obligation becomes [`crate::solver::Outcome::Crashed`], an
//! exhausted budget becomes `ResourceOut` and may be retried — but those
//! paths only stay honest if tests can force them on demand. A
//! [`FaultPlan`] schedules synthetic faults at specific *solver entries*
//! (the Nth call to [`crate::solver::Problem::prove`] under the current
//! installation), so a test can crash exactly obligation `k` of a batch
//! and assert that the other `n - 1` still get verdicts.
//!
//! Plans are installed per thread, so injection cannot leak across
//! `cargo test` threads — but a single *installation* may be shared with
//! worker threads: [`handle`] captures the installing thread's plan
//! together with its entry counter (an atomic), and [`adopt`] attaches
//! that handle to another thread. Entry numbering is then **global
//! across the sharing threads** — each solver entry claims the next
//! index with an atomic fetch-add — so under the parallel proving pool
//! `--fault-panic-at k` still fires at exactly one solver entry, no
//! matter which worker reaches it. (Which obligation draws index `k` is
//! scheduling-dependent; that exactly one does is not.)
//!
//! ```
//! use stq_logic::fault::{self, FaultKind, FaultPlan};
//! use stq_logic::solver::{Outcome, Problem};
//! use stq_logic::term::Term;
//!
//! fault::install(FaultPlan::new().inject(0, FaultKind::Panic));
//! let mut p = Problem::new();
//! p.goal(Term::int(1).eq(&Term::int(1)));
//! let outcome = p.prove_isolated(); // entry 0: the injected panic fires
//! assert!(matches!(outcome, Outcome::Crashed { .. }));
//! let outcome = p.prove_isolated(); // entry 1: no fault scheduled
//! assert!(outcome.is_proved());
//! fault::clear();
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kind of synthetic fault to inject at a solver entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic immediately on entry, before any search runs. Exercises the
    /// [`crate::solver::Problem::prove_isolated`] containment path.
    Panic,
    /// Return [`crate::solver::Outcome::ResourceOut`] with
    /// [`crate::stats::Resource::Injected`] immediately, as if a budget
    /// limit had tripped. Exercises the retry-escalation ladder.
    ResourceOut,
    /// Panic from *inside* the theory solver (the Nelson–Oppen
    /// consistency check), several frames deep in the DPLL search.
    /// Exercises containment of crashes in the middle of the stack.
    TheoryError,
}

/// A deterministic schedule of synthetic faults, keyed by solver entry
/// index (0-based count of [`crate::solver::Problem::prove`] calls under
/// the current installation, shared across threads that [`adopt`]ed it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `kind` at solver entry `at` (chainable).
    #[must_use]
    pub fn inject(mut self, at: u64, kind: FaultKind) -> FaultPlan {
        self.faults.insert(at, kind);
        self
    }

    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The fault scheduled at entry `at`, if any.
    pub fn fault_at(&self, at: u64) -> Option<FaultKind> {
        self.faults.get(&at).copied()
    }
}

/// One installation of a [`FaultPlan`]: the plan plus its entry counter.
/// Shared (via [`Handle`]) by every thread participating in the same
/// checking run, so entry indices are allocated once, globally.
#[derive(Debug)]
struct Installation {
    plan: FaultPlan,
    entries: AtomicU64,
}

/// A cloneable reference to the current thread's fault installation,
/// for propagation onto worker threads via [`adopt`].
#[derive(Clone, Debug)]
pub struct Handle(Arc<Installation>);

thread_local! {
    /// The installation this thread participates in, if any.
    static INSTALLED: RefCell<Option<Arc<Installation>>> = const { RefCell::new(None) };
    /// Entry counting when no plan is installed (kept thread-local and
    /// cheap: it only feeds [`entries`] and panic messages).
    static FALLBACK: Cell<u64> = const { Cell::new(0) };
}

/// Installs `plan` on the current thread and resets the entry counter, so
/// entry indices are relative to the install point.
pub fn install(plan: FaultPlan) {
    INSTALLED.with(|p| {
        *p.borrow_mut() = Some(Arc::new(Installation {
            plan,
            entries: AtomicU64::new(0),
        }));
    });
    FALLBACK.with(|e| e.set(0));
}

/// Removes any installed (or adopted) plan and resets the entry counter.
pub fn clear() {
    INSTALLED.with(|p| *p.borrow_mut() = None);
    FALLBACK.with(|e| e.set(0));
}

/// A shareable handle to this thread's current installation (`None` when
/// no plan is installed). Pool drivers capture this before spawning
/// workers and pass it to [`adopt`] in each worker's init hook.
pub fn handle() -> Option<Handle> {
    INSTALLED.with(|p| p.borrow().clone().map(Handle))
}

/// Attaches `handle`'s installation — plan *and* shared entry counter —
/// to the current thread. `None` detaches (like [`clear`], but without
/// touching the originating thread). Worker threads adopt the driving
/// thread's handle so a batch has one global entry numbering.
pub fn adopt(handle: Option<Handle>) {
    INSTALLED.with(|p| *p.borrow_mut() = handle.map(|h| h.0));
}

/// Number of solver entries observed under this thread's installation
/// since [`install`] (summed over every thread sharing it), or on this
/// thread since the last [`clear`]/thread start when nothing is
/// installed.
pub fn entries() -> u64 {
    INSTALLED.with(|p| match p.borrow().as_ref() {
        Some(inst) => inst.entries.load(Ordering::Relaxed),
        None => FALLBACK.with(Cell::get),
    })
}

/// Records one solver entry and returns its index plus the fault (if any)
/// the installed plan schedules for it. Called by the solver; cheap when
/// no plan is installed. With a shared installation the index is claimed
/// atomically, so every entry across all participating threads gets a
/// distinct one.
pub(crate) fn next_entry() -> (u64, Option<FaultKind>) {
    INSTALLED.with(|p| match p.borrow().as_ref() {
        Some(inst) => {
            let entry = inst.entries.fetch_add(1, Ordering::Relaxed);
            (entry, inst.plan.fault_at(entry))
        }
        None => {
            let entry = FALLBACK.with(|e| {
                let n = e.get();
                e.set(n + 1);
                n
            });
            (entry, None)
        }
    })
}

// ---------------------------------------------------------------------------
// I/O fault injection
// ---------------------------------------------------------------------------

/// The kind of synthetic I/O fault to inject at a persistence write.
///
/// These model the two failure shapes a crash-safe cache must survive:
/// an `ENOSPC`-style hard failure and a torn write (power loss or kill
/// mid-`write(2)`). The proof cache consults [`next_io_write`] before
/// each physical write operation and simulates the scheduled fault; the
/// corruption-recovery tests then assert that neither shape ever poisons
/// a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The write fails (like a full disk) with **no** bytes reaching the
    /// file.
    FullDisk,
    /// Only a prefix of the bytes reaches the file before the write
    /// fails — the on-disk tail is torn mid-entry.
    TornWrite,
}

/// A deterministic schedule of synthetic I/O faults, keyed by write
/// operation index (0-based count of physical cache writes under the
/// current installation on this thread).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    faults: BTreeMap<u64, IoFaultKind>,
}

impl IoFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// Schedules `kind` at write operation `at` (chainable).
    #[must_use]
    pub fn inject(mut self, at: u64, kind: IoFaultKind) -> IoFaultPlan {
        self.faults.insert(at, kind);
        self
    }

    /// True if no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault scheduled at write operation `at`, if any.
    pub fn fault_at(&self, at: u64) -> Option<IoFaultKind> {
        self.faults.get(&at).copied()
    }
}

thread_local! {
    /// The I/O fault plan installed on this thread, with its write
    /// counter. Unlike solver fault plans this is strictly per-thread:
    /// cache persistence runs on the driving thread, never on pool
    /// workers.
    static IO_INSTALLED: RefCell<Option<(IoFaultPlan, u64)>> = const { RefCell::new(None) };
}

/// Installs `plan` on the current thread and resets its write counter.
pub fn install_io(plan: IoFaultPlan) {
    IO_INSTALLED.with(|p| *p.borrow_mut() = Some((plan, 0)));
}

/// Removes any installed I/O fault plan from the current thread.
pub fn clear_io() {
    IO_INSTALLED.with(|p| *p.borrow_mut() = None);
}

/// Records one physical cache-write operation and returns the fault (if
/// any) the installed plan schedules for it. Free when no plan is
/// installed.
pub fn next_io_write() -> Option<IoFaultKind> {
    IO_INSTALLED.with(|p| {
        let mut slot = p.borrow_mut();
        let (plan, counter) = slot.as_mut()?;
        let op = *counter;
        *counter += 1;
        plan.fault_at(op)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.fault_at(0), None);
    }

    #[test]
    fn inject_schedules_at_the_given_entry() {
        let plan = FaultPlan::new()
            .inject(3, FaultKind::Panic)
            .inject(5, FaultKind::ResourceOut);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.fault_at(3), Some(FaultKind::Panic));
        assert_eq!(plan.fault_at(5), Some(FaultKind::ResourceOut));
        assert_eq!(plan.fault_at(4), None);
    }

    #[test]
    fn entry_counter_tracks_installs() {
        install(FaultPlan::new());
        assert_eq!(entries(), 0);
        let (e0, k0) = next_entry();
        assert_eq!((e0, k0), (0, None));
        let (e1, _) = next_entry();
        assert_eq!(e1, 1);
        assert_eq!(entries(), 2);
        install(FaultPlan::new().inject(0, FaultKind::Panic));
        assert_eq!(entries(), 0, "install resets the counter");
        let (_, kind) = next_entry();
        assert_eq!(kind, Some(FaultKind::Panic));
        clear();
        assert_eq!(entries(), 0);
        assert_eq!(next_entry().1, None);
        clear();
    }

    #[test]
    fn adopted_threads_share_one_entry_numbering() {
        install(FaultPlan::new().inject(5, FaultKind::Panic));
        let h = handle();
        assert!(h.is_some());
        let hits: Vec<u64> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let h = h.clone();
                    s.spawn(move || {
                        adopt(h);
                        let mut hit = 0;
                        for _ in 0..4 {
                            let (_, kind) = next_entry();
                            if kind.is_some() {
                                hit += 1;
                            }
                        }
                        hit
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().expect("worker"))
                .collect()
        });
        // 16 entries drawn across 4 threads: indices 0..16 each claimed
        // exactly once, so the fault at entry 5 fired exactly once.
        assert_eq!(hits.iter().sum::<u64>(), 1);
        assert_eq!(entries(), 16, "counter is shared, not per-thread");
        clear();
    }

    #[test]
    fn io_plan_fires_at_its_write_index_then_goes_quiet() {
        clear_io();
        assert_eq!(next_io_write(), None, "no plan installed");
        install_io(IoFaultPlan::new().inject(1, IoFaultKind::TornWrite));
        assert_eq!(next_io_write(), None, "write 0: no fault");
        assert_eq!(next_io_write(), Some(IoFaultKind::TornWrite));
        assert_eq!(next_io_write(), None, "write 2: no fault");
        clear_io();
        assert_eq!(next_io_write(), None);
    }

    #[test]
    fn io_plans_are_thread_local() {
        install_io(IoFaultPlan::new().inject(0, IoFaultKind::FullDisk));
        let other = std::thread::scope(|s| s.spawn(next_io_write).join().expect("worker"));
        assert_eq!(other, None, "sibling thread sees no plan");
        assert_eq!(next_io_write(), Some(IoFaultKind::FullDisk));
        clear_io();
    }

    #[test]
    fn handle_is_none_without_an_installation() {
        clear();
        assert!(handle().is_none());
        // Adopting None is a per-thread clear.
        install(FaultPlan::new().inject(0, FaultKind::Panic));
        adopt(None);
        assert_eq!(next_entry().1, None);
        clear();
    }
}
