//! Shared infrastructure for the semantic-type-qualifiers crates.
//!
//! This crate provides the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! * [`Symbol`] — cheap interned strings for identifiers and qualifier names,
//!   with lock-free reads so parallel provers never contend on the table,
//! * [`pool`] — a scoped thread pool for embarrassingly
//!   parallel batches (the soundness checker's proof obligations),
//! * [`cancel`] — cooperative cancellation tokens (deadline + external
//!   cancel flag, linkable into parent/child trees) polled by the
//!   prover, the pool, fuzz campaigns, and the serve daemon,
//! * [`json`] — a minimal JSON value type (parse + compact serialize)
//!   for the serve daemon's line-delimited wire protocol,
//! * [`serve`] — the daemon's bounded request scheduler with
//!   structured load shedding,
//! * [`reactor`] — `poll(2)` readiness multiplexing over nonblocking
//!   sockets (self-pipe waker included) so the daemon serves many idle
//!   connections from one thread (see `docs/serving.md`),
//! * [`flock`] — advisory `flock(2)` file locks (the proof-cache journal
//!   and the daemon's socket path),
//! * [`splitmix64`] — the seeded mixing step behind every reproducible
//!   schedule (solver fault plans, client jitter, the chaos drills),
//! * [`Span`] / [`Loc`] — byte-offset source locations for error reporting,
//! * [`Diagnostic`] / [`Diagnostics`] — structured warnings and errors, in the
//!   spirit of the paper's typechecker which "provides type errors to the
//!   programmer as warnings, but compilation is allowed to continue".
//!
//! # Examples
//!
//! ```
//! use stq_util::{Symbol, Span, Diagnostics};
//!
//! let a = Symbol::intern("pos");
//! let b = Symbol::intern("pos");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "pos");
//!
//! let mut diags = Diagnostics::new();
//! diags.error(Span::DUMMY, "dereference of possibly-null expression");
//! assert!(diags.has_errors());
//! ```

pub mod cancel;
pub mod diag;
pub mod flock;
pub mod intern;
pub mod json;
pub mod pool;
pub mod reactor;
pub mod serve;
pub mod span;

pub use cancel::{CancelReason, CancelToken};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use intern::Symbol;
pub use span::{Loc, Span};

/// One step of splitmix64: a fast, well-mixed 64-bit permutation, so a
/// seed fed back through it yields the same sequence on every platform.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
