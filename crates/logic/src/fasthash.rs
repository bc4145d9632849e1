//! A small fixed hasher for the prover's per-attempt tables.
//!
//! The tables an attempt consults at every step — hash-consing,
//! congruence signatures, atoms, quantifiers, clauses and instances —
//! are keyed by small integers and short term trees, and none of them
//! is iterated, so their hash order cannot reach an output. The
//! standard library's SipHash guards against adversarial keys at a cost
//! these lookups pay millions of times; this multiply-rotate hash (the
//! one `rustc` uses for its own tables) does not.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hashing over machine words.
#[derive(Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` with [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` with [`FastHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;
