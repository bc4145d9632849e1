//! The extensible typechecker (paper §3).
//!
//! Takes a C-subset program (from `stq-cir`) and a set of qualifier
//! definitions (from `stq-qualspec`), and performs qualifier checking as
//! directed by the definitions' type rules:
//!
//! * [`check_program`] — the checking pass: `case`-rule inference for
//!   value qualifiers (with the implicit subtyping `τ q ≤ τ`), `restrict`
//!   enforcement on every matching expression, and
//!   `assign`/`disallow`/`ondecl` enforcement for reference qualifiers.
//!   Qualifier violations are warnings; checking never aborts.
//! * [`instrument_program`] — inserts run-time invariant checks for casts
//!   to value-qualified types (§2.1.3); [`InvariantChecker`] evaluates
//!   those checks when the program runs on the `stq-cir` interpreter.
//!
//! # Examples
//!
//! ```
//! use stq_qualspec::Registry;
//! use stq_cir::parse::parse_program;
//! use stq_typecheck::check_program;
//!
//! let registry = Registry::builtins();
//! // Dereferencing a possibly-null pointer violates nonnull's restrict rule.
//! let program = parse_program(
//!     "int f(int* p) { return *p; }",
//!     &registry.names(),
//! ).unwrap();
//! let result = check_program(&registry, &program);
//! assert_eq!(result.stats.qualifier_errors, 1);
//! assert_eq!(result.stats.dereferences, 1);
//! ```

pub mod check;
pub mod env;
pub mod flow;
pub mod infer;
pub mod inferann;
pub mod instrument;

pub use check::{check_program, check_program_with, CheckOptions, CheckResult, CheckStats};
pub use env::{StaticTy, Subject, TypeEnv};
pub use infer::{Bindings, Inference};
pub use inferann::{infer_annotations, AnnotationInference, Site};
pub use instrument::{instrument_program, observe_program, InvariantChecker};
