//! The automated soundness checker (paper §4).
//!
//! Given a qualifier definition with a declared run-time `invariant`, the
//! checker proves — once, for all possible programs — that the
//! qualifier's type rules guarantee the invariant:
//!
//! * [`axioms`] — the background theory: CIL evaluation semantics,
//!   `select`/`store` maps, location validity, heap predicates, and
//!   Simplify-style nonlinear multiplication lemmas;
//! * [`obligations`] — per-rule proof-obligation generation
//!   (`case` clauses for value qualifiers; `assign`/`ondecl`
//!   establishment and per-RHS-form preservation for reference
//!   qualifiers);
//! * [`checker`] — the driver ([`check_defs_pipeline_cancellable`]) that
//!   discharges obligations with the `stq-logic` prover and reports
//!   verdicts with countermodels.
//!
//! # Examples
//!
//! The paper's running example: mistyping `pos`'s multiplication rule as
//! subtraction is caught automatically.
//!
//! ```
//! use stq_qualspec::Registry;
//! use stq_soundness::{check_qualifier, Verdict};
//!
//! let mut registry = Registry::new();
//! registry.add_source(
//!     "value qualifier pos(int Expr E)
//!          case E of
//!              decl int Expr E1, E2:
//!                  E1 - E2, where pos(E1) && pos(E2)
//!          invariant value(E) > 0",
//! ).unwrap();
//! let def = registry.get_by_name("pos").unwrap();
//! let report = check_qualifier(&registry, def);
//! assert_eq!(report.verdict, Verdict::Unsound);
//! ```

pub mod axioms;
pub mod cache;
pub mod checker;
pub mod obligations;

pub use axioms::background_theory;
pub use cache::{CachedProof, PersistOutcome, ProofCache};
pub use checker::{
    check_defs_pipeline_cancellable, check_qualifier, ObligationResult, QualReport,
    SoundnessReport, Verdict,
};
pub use obligations::{
    build_obligation, obligation_specs, Obligation, ObligationKind, ObligationSpec,
};
pub use stq_logic::{
    fault, Budget, FaultKind, FaultPlan, Fingerprint, IoFaultKind, IoFaultPlan, ProverStats,
    Resource, RetryPolicy, SolverWorker, PROVER_VERSION,
};
pub use stq_util::{CancelReason, CancelToken};
