//! The serve daemon's request scheduler: a fixed pool of worker threads
//! draining a **bounded** queue of jobs, with structured rejection when
//! the queue is full.
//!
//! The pool in [`crate::pool`] is built for *batch*
//! fan-out: a known task list, scoped threads, results in input order.
//! A long-running server has the opposite shape — an open-ended stream
//! of jobs arriving from many connections — so this module provides the
//! complementary primitive: [`Scheduler::submit`] either enqueues a job
//! or refuses it immediately ([`Rejected::Overloaded`]), which is what
//! lets `stqc serve` shed load with a structured `overloaded` error
//! instead of building an unbounded backlog. Per-client fairness (the
//! in-flight cap) lives one layer up in `stq-core::server`, which
//! accounts jobs per connection before they reach this queue.
//!
//! Jobs run under `catch_unwind`: a panicking request must not take a
//! worker (and eventually the whole daemon) down with it. Panics are
//! counted and the worker moves on — the same containment stance as the
//! prover's per-obligation isolation.
//!
//! # Examples
//!
//! ```
//! use stq_util::serve::Scheduler;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let sched = Scheduler::new(2, 64);
//! let ran = Arc::new(AtomicUsize::new(0));
//! for _ in 0..10 {
//!     let ran = Arc::clone(&ran);
//!     sched.submit(Box::new(move || {
//!         ran.fetch_add(1, Ordering::Relaxed);
//!     })).unwrap();
//! }
//! sched.close_and_drain();
//! assert_eq!(ran.load(Ordering::Relaxed), 10);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. Jobs own everything they need; the scheduler
/// never inspects them.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`Scheduler::submit`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is full — the caller should shed this request
    /// with a structured error rather than wait.
    Overloaded,
    /// [`Scheduler::close_and_drain`] has begun; no new work is taken.
    Closed,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded => write!(f, "queue full"),
            Rejected::Closed => write!(f, "scheduler is shutting down"),
        }
    }
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued or the queue closes.
    available: Condvar,
    max_queue: usize,
    panics: AtomicU64,
    executed: AtomicU64,
}

/// See the [module docs](self).
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` threads (at least 1) servicing a queue bounded
    /// at `max_queue` pending jobs (at least 1).
    pub fn new(workers: usize, max_queue: usize) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            max_queue: max_queue.max(1),
            panics: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues `job`, or refuses it without blocking.
    ///
    /// # Errors
    ///
    /// [`Rejected::Overloaded`] when the queue is at capacity,
    /// [`Rejected::Closed`] once draining has begun.
    pub fn submit(&self, job: Job) -> Result<(), Rejected> {
        let mut state = self.shared.state.lock().expect("scheduler lock");
        if state.closed {
            return Err(Rejected::Closed);
        }
        if state.jobs.len() >= self.shared.max_queue {
            return Err(Rejected::Overloaded);
        }
        state.jobs.push_back(job);
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("scheduler lock").jobs.len()
    }

    /// Jobs that have finished running (including panicked ones).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs whose closure panicked (contained; the worker survived).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Closes the queue and **drains** it: already-queued jobs still
    /// run, then workers retire and are joined. Idempotent; safe to
    /// call from any thread holding `&self`.
    pub fn close_and_drain(&self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.closed = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles lock"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.close_and_drain();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("scheduler lock");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.available.wait(state).expect("scheduler wait");
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_submitted_jobs_on_workers() {
        let sched = Scheduler::new(4, 128);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let ran = Arc::clone(&ran);
            sched
                .submit(Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap();
        }
        sched.close_and_drain();
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(sched.executed(), 100);
        assert_eq!(sched.panics(), 0);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // One worker, blocked; capacity 2. The 4th submission must be
        // refused immediately rather than queued or blocked on.
        let sched = Scheduler::new(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        sched
            .submit(Box::new(move || {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }))
            .unwrap();
        // Wait for the worker to pick the blocker up so the queue is
        // empty, then fill it.
        while sched.queued() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sched.submit(Box::new(|| {})).unwrap();
        sched.submit(Box::new(|| {})).unwrap();
        assert_eq!(sched.submit(Box::new(|| {})), Err(Rejected::Overloaded));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        sched.close_and_drain();
        assert_eq!(sched.executed(), 3);
    }

    #[test]
    fn drain_runs_queued_jobs_then_refuses_new_ones() {
        let sched = Scheduler::new(2, 64);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            sched
                .submit(Box::new(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    ran.fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap();
        }
        sched.close_and_drain();
        assert_eq!(ran.load(Ordering::Relaxed), 16, "drain waits for the queue");
        assert_eq!(sched.submit(Box::new(|| {})), Err(Rejected::Closed));
        // Idempotent.
        sched.close_and_drain();
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_worker() {
        let sched = Scheduler::new(1, 8);
        sched
            .submit(Box::new(|| panic!("request blew up")))
            .unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        sched
            .submit(Box::new(move || {
                r.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        sched.close_and_drain();
        assert_eq!(sched.panics(), 1);
        assert_eq!(ran.load(Ordering::Relaxed), 1, "the lone worker survived");
    }
}
