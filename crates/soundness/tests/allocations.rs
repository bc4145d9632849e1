//! The allocation ledger: how many heap allocations one cold proof of
//! the golden registry (the builtins and the paper's two mutants, as in
//! `determinism.rs`) makes, at `--jobs 1` with no proof cache.
//!
//! A counting global allocator forwards every call to the system
//! allocator and counts, per thread, each call that hands out memory
//! (`alloc`, `alloc_zeroed`, `realloc`). At `--jobs 1` the pipeline runs
//! on the calling thread, so the thread's count is the run's. The prover
//! is deterministic, so the count is exact, and debug and release builds
//! make the same. A change that brings back per-step allocations fails
//! here before it shows up as latency.
//!
//! The allocator is global to the binary, so this file holds its only
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stq_qualspec::{QualifierDef, Registry};
use stq_soundness::{check_defs_pipeline_cancellable, Budget, CancelToken, RetryPolicy};

/// Allocations of one golden-registry run may not exceed this: about
/// 5% above the 10,642 the run makes once the clause store keeps one
/// copy of each clause and the thread's solver stays resident between
/// runs (10,994 before), and far below the 25,954 it made when linear
/// expressions were `BTreeMap`s and matching, interning and clausifying
/// copied their inputs at every step.
const CEILING: u64 = 11_170;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter is gone while a thread's locals are torn
    // down, and the allocator must not panic then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// §2.1.3's erroneous `pos`: `E1 - E2` where Figure 1 has `E1 * E2`.
const POS_SUB: &str = "
value qualifier pos_sub(int Expr E)
    case E of
        decl int Const C:
            C, where C > 0
      | decl int Expr E1, E2:
            E1 - E2, where pos_sub(E1) && pos_sub(E2)
      | decl int Expr E1:
            -E1, where neg(E1)
    invariant value(E) > 0
";

/// §2.2.3's erroneous `unique`: Figure 5 without `disallow L`.
const UNIQUE_LEAK: &str = "
ref qualifier unique_leak(T* LValue L)
    assign L NULL | new
    invariant value(L) == NULL ||
        (isHeapLoc(value(L)) &&
         forall T** P: *P == value(L) => P == location(L))
";

/// Proves every obligation of `defs` at `--jobs 1` with no cache and
/// returns the allocations the run made and its obligation count.
fn prove_counted(registry: &Registry, defs: &[&QualifierDef]) -> (u64, usize) {
    let token = CancelToken::default();
    let before = ALLOCATIONS.with(Cell::get);
    let report = check_defs_pipeline_cancellable(
        registry,
        defs,
        Budget::default(),
        RetryPolicy::attempts(2),
        1,
        None,
        &token,
    );
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, report.obligation_count())
}

#[test]
fn a_cold_proof_of_the_golden_registry_stays_under_its_allocation_ceiling() {
    let mut registry = Registry::builtins();
    registry.add_source(POS_SUB).expect("pos_sub parses");
    registry
        .add_source(UNIQUE_LEAK)
        .expect("unique_leak parses");
    let defs: Vec<&QualifierDef> = registry.iter().collect();
    // The first run builds the process-wide shared theory and this
    // thread's resident solver, and interns every symbol; the ledger
    // counts the second, as a warm process proving a fresh registry
    // would.
    let (first, obligations) = prove_counted(&registry, &defs);
    assert_eq!(obligations, 31, "the golden registry's obligations");
    let (allocations, _) = prove_counted(&registry, &defs);
    assert_eq!(
        prove_counted(&registry, &defs).0,
        allocations,
        "the count is deterministic"
    );
    eprintln!("allocations: first run {first}, ledger run {allocations} (ceiling {CEILING})");
    assert!(
        allocations <= CEILING,
        "{allocations} allocations, above the ceiling of {CEILING}"
    );
}
