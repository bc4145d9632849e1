//! The checking ledger: how many heap allocations parsing, checking and
//! instrumenting grep's `dfa.c` stand-in (Table 1's program, 2,287
//! lines) make against the builtin qualifiers — the compile path the
//! paper's §6 times — how many frees dropping the parsed program makes,
//! how many allocations a flow-sensitive check of its cast-free variant
//! makes, where the refinement walks run, and how many a check of
//! stores through pointers makes, where restrict rules run on store
//! targets.
//!
//! A counting global allocator forwards every call to the system
//! allocator and counts, per thread, each call that hands out memory
//! (`alloc`, `alloc_zeroed`, `realloc`) and each `dealloc`. Every phase
//! runs on the calling thread and is deterministic, so each count is
//! exact, and debug and release builds make the same. Each phase has its
//! own ceiling, so a change that brings back per-query type copies (the
//! checker), a copy of every expression (instrumentation), a boxed node
//! per expression (the parser and the drop), an allocating tree walk
//! (flow sensitivity) or a copy of each store target (the restrict
//! rules) fails here, in the phase that regressed, before it shows up as
//! latency.
//!
//! The allocator is global to the binary, so this file holds its only
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stq_cir::parse::parse_program_resilient;
use stq_qualspec::Registry;
use stq_typecheck::{check_program, check_program_with, instrument_program, CheckOptions};

/// Parsing may not allocate more than this: about 5% above the 1,052
/// allocations it makes filling the program's arena, against the 15,920
/// it made boxing every expression and l-value.
const PARSE_CEILING: u64 = 1_100;

/// Checking may not allocate more than this. It makes 5 allocations,
/// however many expressions it visits: its type queries borrow the
/// program's types, pattern bindings live inline, and a query answered
/// by a declared type never reaches the derivation stack. 5% of so few
/// is less than one, so the ceiling leaves room for five more; the same
/// check made 25,112 when every type query returned an owned copy. The
/// stores row is held to the same ceiling: restrict rules run on a store
/// target in place, where copying each target made 403.
const CHECK_CEILING: u64 = 10;

/// Instrumenting may not allocate more than this: about 5% above the
/// 1,019 allocations it makes copying the arena once and rebuilding the
/// statements, against the 14,264 it made copying each statement's
/// expressions.
const INSTRUMENT_CEILING: u64 = 1_070;

/// Dropping the parsed program may not free more than this: about 5%
/// above the 794 frees it makes, where dropping a boxed node per
/// expression and l-value made 13,921.
const DROP_CEILING: u64 = 834;

/// A flow-sensitive check of the cast-free dfa may not allocate more
/// than this: about 5% above the 241 allocations it makes, where its
/// branch refinements and address-taken sets are built. A walk that
/// copied the statements it visits would exceed it.
const FLOW_CEILING: u64 = 253;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the counter is gone while a thread's locals are torn
    // down, and the allocator must not panic then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_free() {
    let _ = FREES.try_with(|n| n.set(n.get() + 1));
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
        count_free();
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

/// Drops `value` and returns the frees that made.
fn frees_dropping<T>(value: T) -> u64 {
    let before = FREES.with(Cell::get);
    drop(value);
    FREES.with(Cell::get) - before
}

/// Parses, checks and instruments `src`, then drops the parsed program,
/// and returns each phase's allocations and the drop's frees.
fn compile_counted(registry: &Registry, names: &[&str], src: &str) -> [u64; 4] {
    let ((program, errors), parse) = counted(|| parse_program_resilient(src, names));
    assert!(errors.is_empty(), "{errors:?}");
    let (result, check) = counted(|| check_program(registry, &program));
    assert_eq!(result.stats.qualifier_errors, 0, "{}", result.diags);
    let (instrumented, instrument) = counted(|| instrument_program(registry, &program));
    assert_eq!(instrumented.funcs.len(), program.funcs.len());
    drop(instrumented);
    [parse, check, instrument, frees_dropping(program)]
}

/// Parses `src`, then checks it with `options`, and returns the check's
/// allocations.
fn check_counted(registry: &Registry, names: &[&str], src: &str, options: CheckOptions) -> u64 {
    let (program, errors) = parse_program_resilient(src, names);
    assert!(errors.is_empty(), "{errors:?}");
    let (result, check) = counted(|| check_program_with(registry, &program, options));
    assert_eq!(result.stats.qualifier_errors, 0, "{}", result.diags);
    check
}

/// A function of 100 stores through a pointer and 100 through a field
/// of a pointed-to struct, each target checked by `nonnull`'s restrict
/// rule on `*E`.
fn stores_source() -> String {
    let mut src = String::from(
        "struct s { int f; };
         void stores(int* nonnull p, struct s* nonnull q, int i) {\n",
    );
    for _ in 0..100 {
        src.push_str("    *p = i;\n    q->f = i;\n");
    }
    src.push_str("}\n");
    src
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
    let [parse, check, instrument, drop] = compile_counted(&registry, &names, &src);
    assert_eq!(
        compile_counted(&registry, &names, &src),
        [parse, check, instrument, drop],
        "the counts are deterministic"
    );
    let direct = stq_corpus::grep::grep_dfa_source_direct();
    let flow_sensitive = CheckOptions {
        flow_sensitive: true,
    };
    check_counted(&registry, &names, &direct, flow_sensitive);
    let flow = check_counted(&registry, &names, &direct, flow_sensitive);
    assert_eq!(
        check_counted(&registry, &names, &direct, flow_sensitive),
        flow,
        "the flow-sensitive count is deterministic"
    );
    let stores_src = stores_source();
    check_counted(&registry, &names, &stores_src, CheckOptions::default());
    let stores = check_counted(&registry, &names, &stores_src, CheckOptions::default());
    eprintln!(
        "allocations: first run {first:?}; ledger run parse {parse}, check {check}, \
         instrument {instrument}, drop {drop} frees, flow {flow}, stores {stores}"
    );
    for (phase, count, ceiling) in [
        ("parse", parse, PARSE_CEILING),
        ("check", check, CHECK_CEILING),
        ("instrument", instrument, INSTRUMENT_CEILING),
        ("drop", drop, DROP_CEILING),
        ("flow", flow, FLOW_CEILING),
        ("stores", stores, CHECK_CEILING),
    ] {
        assert!(
            count <= ceiling,
            "{phase}: {count} allocations (frees for the drop), above the ceiling of {ceiling}"
        );
    }
}
