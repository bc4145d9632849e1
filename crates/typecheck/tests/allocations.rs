//! The checking ledger: how many heap allocations parsing, checking and
//! instrumenting grep's `dfa.c` stand-in (Table 1's program, 2,287
//! lines) make against the builtin qualifiers — the compile path the
//! paper's §6 times — and how many a flow-sensitive check of its
//! cast-free variant makes, where the refinement walks run.
//!
//! A counting global allocator forwards every call to the system
//! allocator and counts, per thread, each call that hands out memory
//! (`alloc`, `alloc_zeroed`, `realloc`). All three phases run on the
//! calling thread and are deterministic, so each count is exact, and
//! debug and release builds make the same. Each phase has its own
//! ceiling, so a change that brings back per-query type copies (the
//! checker), a second copy of every body (instrumentation), l-value
//! clones (the parser) or an allocating tree walk (flow sensitivity)
//! fails here, in the phase that regressed, before it shows up as
//! latency.
//!
//! The allocator is global to the binary, so this file holds its only
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stq_cir::parse::parse_program_resilient;
use stq_qualspec::Registry;
use stq_typecheck::{check_program, check_program_with, instrument_program, CheckOptions};

/// Parsing may not allocate more than this: about 5% above the 15,920
/// allocations it makes when `&e`, `e.f` and assignment targets move
/// their l-values, and below the 17,632 it made when it cloned them.
const PARSE_CEILING: u64 = 16_700;

/// Checking may not allocate more than this. It makes 5 allocations,
/// however many expressions it visits: its type queries borrow the
/// program's types, pattern bindings live inline, and a query answered
/// by a declared type never reaches the derivation stack. 5% of so few
/// is less than one, so the ceiling leaves room for five more; the same
/// check made 25,112 when every type query returned an owned copy.
const CHECK_CEILING: u64 = 10;

/// Instrumenting may not allocate more than this: about 5% above the
/// 14,264 allocations it makes building its output once, and about half
/// the 27,928 it made deep-copying the program and then rebuilding every
/// body.
const INSTRUMENT_CEILING: u64 = 14_950;

/// A flow-sensitive check of the cast-free dfa may not allocate more
/// than this: about 5% above the 241 allocations it makes, where its
/// branch refinements and address-taken sets are built. A walk that
/// copied the statements it visits would exceed it.
const FLOW_CEILING: u64 = 253;

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

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Parses, checks and instruments `src`, and returns each phase's
/// allocations.
fn compile_counted(registry: &Registry, names: &[&str], src: &str) -> [u64; 3] {
    let ((program, errors), parse) = counted(|| parse_program_resilient(src, names));
    assert!(errors.is_empty(), "{errors:?}");
    let (result, check) = counted(|| check_program(registry, &program));
    assert_eq!(result.stats.qualifier_errors, 0, "{}", result.diags);
    let (instrumented, instrument) = counted(|| instrument_program(registry, &program));
    assert_eq!(instrumented.funcs.len(), program.funcs.len());
    [parse, check, instrument]
}

/// Parses `src`, then checks it flow-sensitively, and returns the check's
/// allocations.
fn flow_check_counted(registry: &Registry, names: &[&str], src: &str) -> u64 {
    let (program, errors) = parse_program_resilient(src, names);
    assert!(errors.is_empty(), "{errors:?}");
    let options = CheckOptions {
        flow_sensitive: true,
    };
    let (result, flow) = counted(|| check_program_with(registry, &program, options));
    assert_eq!(result.stats.qualifier_errors, 0, "{}", result.diags);
    flow
}

#[test]
fn compiling_grep_dfa_stays_under_its_allocation_ceilings() {
    let registry = Registry::builtins();
    let names = registry.names();
    let src = stq_corpus::grep::grep_dfa_source();
    // The first run interns every identifier in the process-wide symbol
    // table; the ledger counts the second, as a warm process checking a
    // file it has seen before would.
    let first = compile_counted(&registry, &names, &src);
    let [parse, check, instrument] = compile_counted(&registry, &names, &src);
    assert_eq!(
        compile_counted(&registry, &names, &src),
        [parse, check, instrument],
        "the counts are deterministic"
    );
    let direct = stq_corpus::grep::grep_dfa_source_direct();
    flow_check_counted(&registry, &names, &direct);
    let flow = flow_check_counted(&registry, &names, &direct);
    assert_eq!(
        flow_check_counted(&registry, &names, &direct),
        flow,
        "the flow-sensitive count is deterministic"
    );
    eprintln!(
        "allocations: first run {first:?}; ledger run parse {parse}, check {check}, \
         instrument {instrument}, flow {flow}"
    );
    for (phase, count, ceiling) in [
        ("parse", parse, PARSE_CEILING),
        ("check", check, CHECK_CEILING),
        ("instrument", instrument, INSTRUMENT_CEILING),
        ("flow", flow, FLOW_CEILING),
    ] {
        assert!(
            count <= ceiling,
            "{phase}: {count} allocations, above the ceiling of {ceiling}"
        );
    }
}
