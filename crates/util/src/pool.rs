//! A small scoped thread pool over a fixed task list.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;

/// The number of workers to use when the caller does not specify:
/// the machine's available parallelism, 1 if it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `run(state, index, task)` over every task on up to `jobs`
/// workers and returns the results **in input order**.
///
/// Each worker owns a mutable state value built by `init` on the
/// worker's own thread and threaded into every task it runs — the hook
/// for per-worker context and resource reuse (the checker adopts the
/// run's fault plan and keeps a theory-loaded `SolverWorker` alive here,
/// so the background axiomatization is prepared once per worker, not
/// once per obligation). The state never crosses threads (built, used,
/// and dropped on one worker), so `S` needs no `Send`/`Sync`. With
/// `jobs <= 1` (or fewer than two tasks) everything runs inline on the
/// caller's thread, under one state from one `init` call.
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
/// A panic in `run` is not contained here (callers that need isolation
/// contain panics inside `run`, as the checker does via
/// `prove_isolated`); it propagates out of the scope and poisons nothing
/// because each task value is owned by the worker that took it.
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
    if jobs <= 1 || n <= 1 {
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
    // mutexes, and the scope's join makes every result visible here.
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| {
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
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        let inits = AtomicUsize::new(0);
        run_indexed_stateful_cancellable(
            3,
            (0..30usize).collect(),
            &CancelToken::default(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), _, t| t,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_and_tiny_task_lists_work() {
        let none: Vec<u8> = run_all(4, Vec::new(), |_, t| t);
        assert!(none.is_empty());
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
            std::thread::current,
            |built_on, _, t| {
                assert_eq!(built_on.id(), std::thread::current().id());
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
