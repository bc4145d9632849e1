//! # Semantic Type Qualifiers
//!
//! A Rust reproduction of *"Semantic Type Qualifiers"* (Chin, Markstrum,
//! Millstein; PLDI 2005): a framework for **user-defined type
//! qualifiers** for C programs with two novel guarantees —
//!
//! 1. an **extensible typechecker** that executes user-written type rules
//!    (`case`, `restrict`, `assign`, `disallow`, `ondecl`) during
//!    qualifier checking, and
//! 2. an **automated soundness checker** that proves, once and for all
//!    programs, that a qualifier's rules guarantee its declared run-time
//!    invariant — discharging the proof obligations with a Simplify-style
//!    automatic theorem prover.
//!
//! This crate is the facade: [`Session`] wires together the underlying
//! subsystems, each its own crate:
//!
//! | crate | subsystem |
//! |---|---|
//! | `stq-qualspec` | the qualifier-definition language (paper §2) |
//! | `stq-cir` | a CIL-like C-subset front end + interpreter (§3) |
//! | `stq-typecheck` | the extensible typechecker + cast instrumentation (§3) |
//! | `stq-logic` | the automatic theorem prover (the Simplify substrate, §4) |
//! | `stq-soundness` | proof-obligation generation and discharge (§4) |
//! | `stq-lambda` | the formalized core calculus (§5) |
//! | `stq-corpus` | synthetic experiment corpora and the tables harness (§6) |
//!
//! # Examples
//!
//! The paper's central demonstration — a buggy qualifier is rejected
//! *before* it can mistype any program:
//!
//! ```
//! use stq_core::{Session, Verdict};
//!
//! let mut session = Session::new();
//! session.define_qualifiers(
//!     "value qualifier pos(int Expr E)
//!          case E of
//!              decl int Expr E1, E2:
//!                  E1 - E2, where pos(E1) && pos(E2)
//!          invariant value(E) > 0",
//! ).unwrap();
//! let report = session.prove_sound("pos").unwrap();
//! assert_eq!(report.verdict, Verdict::Unsound);
//! ```

#[cfg(unix)]
pub mod client;
pub mod reportjson;
pub mod server;
pub mod session;
#[cfg(unix)]
mod stream;

#[cfg(unix)]
pub use client::{CallError, CallOutcome, Client, ClientConfig, ClientStats, Endpoint};
pub use server::{ServeConfig, ServeStats, Server, ShutdownKind};
pub use session::Session;
pub use stq_cir::interp::{ExecOutcome, InterpConfig, RuntimeError, Value};
pub use stq_cir::parse::ParseError;
pub use stq_qualspec::{parse::SpecError, Registry};
pub use stq_soundness::{
    fault, Budget, CachedProof, FaultKind, FaultPlan, Fingerprint, IoFaultKind, IoFaultPlan,
    PersistOutcome, ProofCache, ProverStats, QualReport, Resource, RetryPolicy, SoundnessReport,
    Verdict, PROVER_VERSION,
};
pub use stq_typecheck::{AnnotationInference, CheckOptions, CheckResult, CheckStats};
pub use stq_util::{CancelReason, CancelToken, Diagnostic, Diagnostics, Severity};
