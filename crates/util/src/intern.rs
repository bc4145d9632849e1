//! Global string interning with contention-free reads.
//!
//! Identifiers, qualifier names, and function symbols appear everywhere in
//! the typechecker and the prover; interning makes them `Copy` and makes
//! equality a word comparison. The table is written rarely (during
//! parsing and obligation generation) but read constantly — every
//! `Display` of a term during E-matching deduplication calls
//! [`Symbol::as_str`] — and since PR 3 those reads happen concurrently
//! from the parallel proving pool.
//!
//! The interner is therefore split into two structures:
//!
//! * an **append-only slab** mapping id → string, organised as fixed-size
//!   chunks of `OnceLock<&'static str>` slots reachable through
//!   `OnceLock`'d chunk pointers. Reads ([`Symbol::as_str`]) are two
//!   atomic acquire-loads and never take a lock, so a thread pool
//!   formatting terms cannot serialize on the interner;
//! * **sharded write tables** (string → id), each a small mutex-guarded
//!   map. Writers hash the string to pick a shard, so unrelated
//!   interning calls proceed in parallel; ids are allocated from one
//!   process-global atomic counter.
//!
//! A slot is published (with release ordering) *before* its id is
//! returned from [`Symbol::intern`], so any thread that legitimately
//! holds a `Symbol` — including one received across the proving pool's
//! scope boundary — observes its string.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two `Symbol`s are equal if and only if the strings they intern are equal.
/// `Symbol` is `Copy` and 4 bytes, so it is the identifier representation
/// used throughout the workspace.
///
/// # Examples
///
/// ```
/// use stq_util::Symbol;
///
/// let s = Symbol::intern("nonnull");
/// assert_eq!(s.as_str(), "nonnull");
/// assert_eq!(s, Symbol::intern("nonnull"));
/// assert_ne!(s, Symbol::intern("nonzero"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

const SHARD_BITS: usize = 4;
const NUM_SHARDS: usize = 1 << SHARD_BITS;
const CHUNK_BITS: usize = 10;
const CHUNK_SIZE: usize = 1 << CHUNK_BITS;
/// 4096 chunks × 1024 slots = 4M distinct symbols before overflow.
const MAX_CHUNKS: usize = 1 << 12;

type Chunk = [OnceLock<&'static str>; CHUNK_SIZE];

struct Interner {
    /// id → string. Chunks are allocated on demand and never freed;
    /// slots are written exactly once, before their id escapes.
    chunks: [OnceLock<Box<Chunk>>; MAX_CHUNKS],
    /// string → id, sharded by string hash to keep writers apart.
    shards: [Mutex<HashMap<&'static str, u32>>; NUM_SHARDS],
    /// The next unallocated id, shared by all shards.
    next: AtomicU32,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        chunks: [const { OnceLock::new() }; MAX_CHUNKS],
        shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        next: AtomicU32::new(0),
    })
}

fn shard_of(s: &str) -> usize {
    // A fixed (per-process) hasher: shard choice only balances lock
    // contention, so it needs no DoS resistance or cross-run stability.
    let h = BuildHasherDefault::<DefaultHasher>::default().hash_one(s);
    (h as usize) & (NUM_SHARDS - 1)
}

impl Symbol {
    /// Interns `s`, returning its canonical [`Symbol`].
    ///
    /// Interned strings are leaked into a process-global table; this is the
    /// usual compiler trade-off (identifiers live for the whole session).
    pub fn intern(s: &str) -> Symbol {
        let table = interner();
        let mut shard = table.shards[shard_of(s)].lock().expect("interner poisoned");
        if let Some(&id) = shard.get(s) {
            return Symbol(id);
        }
        let id = table.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            (id as usize) < MAX_CHUNKS * CHUNK_SIZE,
            "interner overflow: more than {} distinct symbols",
            MAX_CHUNKS * CHUNK_SIZE
        );
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Publish the slot before the id can escape: everything that
        // transitively receives this Symbol sees the string.
        let chunk = table.chunks[id as usize >> CHUNK_BITS]
            .get_or_init(|| Box::new([const { OnceLock::new() }; CHUNK_SIZE]));
        chunk[id as usize & (CHUNK_SIZE - 1)]
            .set(leaked)
            .expect("freshly allocated id written twice");
        shard.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    ///
    /// Lock-free: two atomic acquire-loads (chunk pointer, then slot),
    /// so concurrent readers never contend — the property the parallel
    /// proving pool relies on.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        interner().chunks[id >> CHUNK_BITS]
            .get()
            .and_then(|chunk| chunk[id & (CHUNK_SIZE - 1)].get())
            .expect("symbol id not present in the interner slab")
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn empty_string_interns() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn display_matches_contents() {
        let s = Symbol::intern("unique");
        assert_eq!(s.to_string(), "unique");
        assert_eq!(format!("{s:?}"), "Symbol(\"unique\")");
    }

    #[test]
    fn from_str_conversion() {
        let s: Symbol = "tainted".into();
        assert_eq!(s, Symbol::intern("tainted"));
    }

    #[test]
    fn ordering_is_consistent_with_interning_order_per_symbol() {
        // Ordering is by intern id, which is stable within a process; the
        // property we rely on is just that it is a total order.
        let a = Symbol::intern("aaa-order");
        let b = Symbol::intern("bbb-order");
        assert!(a < b || b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn many_symbols_round_trip() {
        let names: Vec<String> = (0..200).map(|i| format!("sym{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(s.as_str(), n);
        }
    }

    #[test]
    fn enough_symbols_to_span_multiple_chunks_round_trip() {
        // Force allocation past the first slab chunk so the chunk
        // indexing math is exercised, not just slot 0..1023.
        let names: Vec<String> = (0..(CHUNK_SIZE + 100))
            .map(|i| format!("chunky{i}"))
            .collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(s.as_str(), n);
        }
    }

    #[test]
    fn concurrent_interning_and_reading_agree() {
        // Hammer the interner from several threads with overlapping name
        // sets: every thread must see one canonical id per string, and
        // every as_str must round-trip.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| {
                            let name = format!("shared{}", (i + t * 37) % 300);
                            let s = Symbol::intern(&name);
                            assert_eq!(s.as_str(), name);
                            (name, s)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut canonical: HashMap<String, Symbol> = HashMap::new();
        for h in handles {
            for (name, sym) in h.join().expect("no panic") {
                let entry = canonical.entry(name).or_insert(sym);
                assert_eq!(*entry, sym, "same string, same symbol, every thread");
            }
        }
    }
}
