//! A small thread pool over a fixed task list, on resident threads.
//!
//! The soundness checker's proof obligations are mutually independent —
//! the textbook embarrassingly-parallel workload — but their costs are
//! wildly skewed (a reference qualifier's preservation obligation can be
//! 100× a value qualifier's case obligation), so static chunking wastes
//! wall-clock time. The task list is fixed up front and no task adds
//! tasks, so one shared cursor balances the load: a worker that finishes
//! a task claims the next unstarted index, in input order, and a slow
//! task holds up only the worker running it.
//!
//! Results are written back by task index, so the output order is the
//! input order regardless of which worker ran what — the property the
//! checker's determinism guarantee rests on.
//!
//! # Workers
//!
//! The calling thread is one of a run's workers; the others are
//! *helper* threads. A helper is spawned the first time a run needs it,
//! parks on a condition variable while idle (no polling, no timer), and
//! serves every later run that finds it idle. A run therefore pays one
//! wake-up per helper instead of a thread spawn and join, and state a
//! worker's `init` keeps in a thread-local (the checker's theory-loaded
//! solver) stays warm from one run to the next. A run takes whichever
//! helpers are idle and spawns new ones when too few are, so runs
//! started at once from several threads, or from inside another run's
//! task, never wait on a busy helper. If the system refuses a new
//! thread, the run goes on with the workers it has: the caller alone can
//! finish it. Helpers live as long as the process.
//!
//! # Examples
//!
//! ```
//! use stq_util::{pool, CancelToken};
//!
//! let squares = pool::run_indexed_stateful_cancellable(
//!     4,
//!     (0..100u64).collect(),
//!     &CancelToken::default(),
//!     || (),
//!     |(), i, n| {
//!         assert_eq!(i as u64, n);
//!         n * n
//!     },
//! );
//! assert_eq!(squares[7], Some(49));
//! assert_eq!(squares.len(), 100);
//! ```

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::cancel::CancelToken;

/// The number of workers to use when the caller does not specify:
/// the machine's available parallelism, 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `run(state, index, task)` over every task on up to `jobs`
/// workers and returns the results **in input order**.
///
/// Each worker owns a mutable state value built by `init` on the
/// worker's own thread and threaded into every task it runs — the hook
/// for per-worker context and resource reuse (the checker adopts the
/// run's fault plan and lends the thread's resident theory-loaded
/// `SolverWorker` here, so the background axiomatization is prepared
/// once per thread, not once per obligation). The state never crosses
/// threads (built, used, and dropped on one worker), so `S` needs no
/// `Send`/`Sync`. A run has `min(jobs, tasks.len())` workers, the
/// calling thread among them, and `init` runs once on each. With
/// `jobs <= 1` or a single task everything runs inline on the caller's
/// thread under one state; an empty task list calls nothing.
///
/// Workers poll `cancel` before claiming each task. Tasks that never start
/// come back as `None`, in their input slots, so the caller can tell
/// "skipped" apart from any real result — the soundness checker turns
/// those slots into skipped obligations in its partial report. A task
/// already running is never abandoned mid-flight (in-flight provers
/// observe the same token at their own safepoints); with an unfired
/// token every slot comes back `Some`.
///
/// # Panics
///
/// A panic in `init` or `run` is not contained here (callers that need
/// isolation contain panics inside `run`, as the checker does via
/// `prove_isolated`). The worker it hit claims no further task of the
/// run, the other workers run the rest, and once every worker is done
/// the first panic resumes on the caller's thread. A helper that a
/// panic hit stays in the pool for later runs.
pub fn run_indexed_stateful_cancellable<S, T, R, F, I>(
    jobs: usize,
    tasks: Vec<T>,
    cancel: &CancelToken,
    init: I,
    run: F,
) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(&mut S, usize, T) -> R + Sync,
    I: Fn() -> S + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        let mut state = init();
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                if cancel.should_stop() {
                    None
                } else {
                    Some(run(&mut state, i, t))
                }
            })
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The next unclaimed index. `Relaxed` suffices: `fetch_add` alone
    // hands each index to exactly one worker, and the cursor publishes no
    // other data. A task and its result travel through their own
    // mutexes, and every helper's finish is a `busy` unlock that the
    // caller's wait locks after, which makes every result visible here.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        while !cancel.should_stop() {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let task = slots[i].lock().expect("slot lock").take();
            let task = task.expect("each index is claimed once");
            let r = run(&mut state, i, task);
            *results[i].lock().expect("result lock") = Some(r);
        }
    };
    run_shared(jobs.min(n) - 1, &work);

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock"))
        .collect()
}

/// A panic payload, as `catch_unwind` returns it.
type Payload = Box<dyn Any + Send>;

/// Runs `work` on the calling thread and on up to `helpers` helper
/// threads at once, returns when every one of them has returned from it,
/// and then resumes the first panic any of them raised.
fn run_shared(helpers: usize, work: &(dyn Fn() + Sync)) {
    let crew = hire(helpers);
    let run = Arc::new(Run::default());
    {
        let finished = Finished(&run);
        // SAFETY: `shared` is `work` with its lifetime erased, so helper
        // threads, which outlive this call, can hold it. They use it only
        // in `serve`, between receiving a `Job` and calling `done` on the
        // job's run, and `finished` is dropped before `work`'s borrow
        // ends: its `Drop` waits until every helper counted in
        // `run.busy` has called `done`. Each helper is counted before it
        // is handed the job, and the wait runs on every exit from this
        // block, unwinding included.
        let shared =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        for helper in &crew {
            *lock(&run.busy) += 1;
            helper.hand(Job {
                work: shared,
                run: Arc::clone(&run),
            });
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
            run.record(payload);
        }
        drop(finished);
    }
    let first = lock(&run.panic).take();
    if let Some(payload) = first {
        panic::resume_unwind(payload);
    }
}

/// Idle helpers, the most recently idle last.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Locks `m`, recovering the guard if a thread panicked while holding
/// it: every lock in this module guards a value that each update leaves
/// valid (one push, pop, assignment or count), and no code under these
/// locks runs a task.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `count` helpers for one run: idle ones first, the most recently idle
/// of them, then new ones. Fewer when the system refuses a thread.
fn hire(count: usize) -> Vec<Arc<Helper>> {
    let mut crew = {
        let mut idle = lock(&IDLE);
        let keep = idle.len().saturating_sub(count);
        idle.split_off(keep)
    };
    while crew.len() < count {
        let helper = Arc::new(Helper::default());
        let own = Arc::clone(&helper);
        // A helper never returns, so its handle is dropped unjoined;
        // `serve` catches every panic of the work it runs.
        let spawned = thread::Builder::new()
            .name("stq-pool".to_owned())
            .spawn(move || serve(&own));
        if spawned.is_err() {
            break;
        }
        crew.push(helper);
    }
    crew
}

/// One resident helper thread's mailbox.
#[derive(Default)]
struct Helper {
    job: Mutex<Option<Job>>,
    handed: Condvar,
}

impl Helper {
    /// Gives this idle helper its next job.
    fn hand(&self, job: Job) {
        *lock(&self.job) = Some(job);
        self.handed.notify_one();
    }
}

/// A helper's share of one run.
struct Job {
    /// The run's worker loop. Valid until `run.done()` (see `run_shared`).
    work: &'static (dyn Fn() + Sync),
    run: Arc<Run>,
}

/// What a run's caller and its helpers share.
#[derive(Default)]
struct Run {
    /// Helpers handed this run that have not yet finished it.
    busy: Mutex<usize>,
    /// Signalled when `busy` drops to zero.
    drained: Condvar,
    /// The first panic a worker of this run raised.
    panic: Mutex<Option<Payload>>,
}

impl Run {
    fn record(&self, payload: Payload) {
        let mut first = lock(&self.panic);
        if first.is_none() {
            *first = Some(payload);
        }
    }

    /// One helper is done with this run and touches nothing of it again.
    fn done(&self) {
        let mut busy = lock(&self.busy);
        *busy -= 1;
        if *busy == 0 {
            self.drained.notify_one();
        }
    }
}

/// Waits, when dropped, until every helper of the run has finished it.
struct Finished<'a>(&'a Run);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        let mut busy = lock(&self.0.busy);
        while *busy > 0 {
            busy = self
                .0
                .drained
                .wait(busy)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper thread's life: wait for a job, run it, go back on the idle
/// list, tell the run, repeat.
fn serve(me: &Arc<Helper>) {
    loop {
        let job = {
            let mut slot = lock(&me.job);
            loop {
                if let Some(job) = slot.take() {
                    break job;
                }
                slot = me.handed.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let run = {
            let Job { work, run } = job;
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
                run.record(payload);
            }
            run
        };
        // Idle again before the run hears it is done, so the caller's
        // next run finds this helper.
        lock(&IDLE).push(Arc::clone(me));
        run.done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::sync::Barrier;

    /// Stateless tasks under an unfired token, every slot unwrapped.
    fn run_all<T: Send, R: Send>(
        jobs: usize,
        tasks: Vec<T>,
        run: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        run_indexed_stateful_cancellable(
            jobs,
            tasks,
            &CancelToken::default(),
            || (),
            |(), i, t| run(i, t),
        )
        .into_iter()
        .map(|r| r.expect("an unfired token runs every task"))
        .collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let out = run_all(jobs, (0..64usize).collect(), |i, t| {
                assert_eq!(i, t);
                t * 2
            });
            assert_eq!(
                out,
                (0..64).map(|t| t * 2).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_all(4, (0..257usize).collect(), |_, t| {
            counter.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 257);
    }

    #[test]
    fn init_runs_on_every_worker_thread() {
        // The barrier holds every worker in `init` until all have
        // arrived, so the run has `workers` distinct threads at once.
        let caller = thread::current().id();
        for (jobs, tasks, workers) in [(3, 30, 3), (8, 5, 5), (4, 4, 4), (2, 9, 2)] {
            let here = Barrier::new(workers);
            let built_on = Mutex::new(Vec::new());
            let out = run_indexed_stateful_cancellable(
                jobs,
                (0..tasks).collect::<Vec<usize>>(),
                &CancelToken::default(),
                || {
                    built_on.lock().unwrap().push(thread::current().id());
                    here.wait();
                },
                |(), _, t| t,
            );
            assert_eq!(out.iter().flatten().count(), tasks);
            let ids = built_on.into_inner().unwrap();
            assert_eq!(ids.len(), workers, "jobs={jobs}: one init per worker");
            let distinct: HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), workers, "jobs={jobs}: one thread each");
            assert!(distinct.contains(&caller), "jobs={jobs}: the caller works");
        }
    }

    /// Releases the two waiting tasks when dropped, as a panic unwinds
    /// past it.
    struct SendOnDrop(mpsc::Sender<()>);

    impl Drop for SendOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
            let _ = self.0.send(());
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_after_every_worker_is_done() {
        // Three tasks on three workers, one each: every task first waits
        // at the barrier, so no worker can claim a second. Task 0 panics;
        // tasks 1 and 2 finish only once its unwinding has released them.
        let here = Barrier::new(3);
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let rx = Mutex::new(rx);
        let finished = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_all(3, (0..3usize).collect(), |i, _| {
                here.wait();
                if i == 0 {
                    let _release = SendOnDrop(tx.lock().unwrap().clone());
                    panic!("task 0 fails");
                }
                rx.lock().unwrap().recv().expect("task 0 releases");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 0 fails"));
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "both others finished first"
        );
        // The helpers the panic went through serve the next run whole.
        let out = run_all(3, (0..48usize).collect(), |_, t| t + 1);
        assert_eq!(out, (1..=48).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_and_nested_runs_complete_in_input_order() {
        // Two runs at once: task 0 of each waits for task 0 of the other,
        // so both runs hold their helpers at the same time.
        let both = Barrier::new(2);
        let expected: Vec<usize> = (0..40).map(|t| t * 3).collect();
        thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        run_all(3, (0..40usize).collect(), |i, t| {
                            if i == 0 {
                                both.wait();
                            }
                            t * 3
                        })
                    })
                })
                .collect();
            for r in runs {
                assert_eq!(r.join().unwrap(), expected);
            }
        });
        // A run inside each task of another run: the barrier keeps both
        // outer workers busy while their inner runs need helpers.
        let outer_here = Barrier::new(2);
        let out = run_all(2, (0..2usize).collect(), |_, t| {
            outer_here.wait();
            run_all(3, (0..10usize).collect(), |_, u| t * 100 + u)
        });
        assert_eq!(out[0], (0..10).collect::<Vec<_>>());
        assert_eq!(out[1], (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_task_lists_work() {
        let inits = AtomicUsize::new(0);
        for jobs in [1, 4] {
            let none: Vec<Option<u8>> = run_indexed_stateful_cancellable(
                jobs,
                Vec::new(),
                &CancelToken::default(),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |(), _, t| t,
            );
            assert!(none.is_empty());
        }
        assert_eq!(
            inits.load(Ordering::Relaxed),
            0,
            "no tasks, no worker state"
        );
        assert_eq!(run_all(4, vec![9], |_, t: u32| t + 1), vec![10]);
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let out = run_all(16, (0..3usize).collect(), |_, t| t + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pre_cancelled_token_skips_every_task() {
        for jobs in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let ran = AtomicUsize::new(0);
            let out = run_indexed_stateful_cancellable(
                jobs,
                (0..16usize).collect(),
                &cancel,
                || (),
                |(), _, t| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    t
                },
            );
            assert_eq!(out.len(), 16, "jobs={jobs}: slots preserved");
            assert!(out.iter().all(Option::is_none), "jobs={jobs}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "jobs={jobs}");
        }
    }

    #[test]
    fn cancelling_mid_run_stops_at_a_task_boundary() {
        let cancel = CancelToken::new();
        let out = run_indexed_stateful_cancellable(
            1,
            (0..64usize).collect(),
            &cancel,
            || (),
            |(), i, t| {
                if i == 9 {
                    cancel.cancel();
                }
                t
            },
        );
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 10);
        assert!(out[10..].iter().all(Option::is_none));
        assert_eq!(out[9], Some(9), "the cancelling task itself completes");
    }

    #[test]
    fn stateful_inline_path_builds_state_and_reuses_it() {
        let inits = AtomicUsize::new(0);
        let out = run_indexed_stateful_cancellable(
            1,
            vec![5usize, 6, 7],
            &CancelToken::default(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |seen: &mut Vec<usize>, _, t| {
                seen.push(t);
                seen.len()
            },
        );
        // One state for the whole inline run, mutated across tasks.
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(out, vec![Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn stateful_state_stays_on_its_worker() {
        // The state carries its builder's thread id; every task must see
        // the state built on the thread that runs it.
        let out = run_indexed_stateful_cancellable(
            4,
            (0..32usize).collect(),
            &CancelToken::default(),
            thread::current,
            |built_on, _, t| {
                assert_eq!(built_on.id(), thread::current().id());
                t
            },
        );
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 32);
    }

    #[test]
    fn skewed_workloads_complete_while_one_worker_is_busy() {
        // One huge task up front: the worker that claims it stays busy
        // while the others claim and run the rest.
        let out = run_all(4, (0..32u64).collect(), |_, t| {
            if t == 0 {
                // Busy-spin a little to force the skew.
                let mut acc = 0u64;
                for i in 0..2_000_000 {
                    acc = acc.wrapping_add(i);
                }
                std::hint::black_box(acc);
            }
            t
        });
        assert_eq!(out.len(), 32);
        assert_eq!(out[31], 31);
    }
}
