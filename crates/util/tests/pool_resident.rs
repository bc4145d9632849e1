//! The pool's helper threads are resident: a run reuses the helpers an
//! earlier run left idle instead of spawning its own.
//!
//! The helpers are global to this test binary and `cargo test` runs
//! tests on parallel threads, so this file holds the only test.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};
use stq_util::{pool, CancelToken};

/// The threads of one `jobs`-3 run, each recorded by its worker's
/// `init`. The barrier holds all three in `init` until each has
/// arrived, so the run has three distinct workers at once.
fn workers_of_a_run() -> HashSet<ThreadId> {
    let here = Barrier::new(3);
    let built_on = Mutex::new(Vec::new());
    let out = pool::run_indexed_stateful_cancellable(
        3,
        (0..12usize).collect(),
        &CancelToken::default(),
        || {
            built_on.lock().unwrap().push(thread::current().id());
            here.wait();
        },
        |(), _, t| t,
    );
    assert_eq!(out.iter().flatten().count(), 12);
    let ids = built_on.into_inner().unwrap();
    assert_eq!(ids.len(), 3, "one init per worker");
    ids.into_iter().collect()
}

#[test]
fn pool_helpers_serve_consecutive_runs() {
    let caller = thread::current().id();
    let first = workers_of_a_run();
    let second = workers_of_a_run();
    assert_eq!(first.len(), 3);
    assert!(first.contains(&caller) && second.contains(&caller));
    assert_eq!(first, second, "the second run's helpers are the first's");
}
