//! A Simplify-style automatic theorem prover.
//!
//! The paper's soundness checker discharges its proof obligations with
//! Simplify, the Nelson–Oppen prover from ESC/Java. Simplify is closed
//! source, so this crate implements the same architecture from scratch:
//!
//! * multi-sorted first-order [`Term`]s and [`Formula`]s ([`term`]),
//! * **congruence closure** for equality over uninterpreted functions
//!   ([`euf`]),
//! * **linear arithmetic** over the ordered rationals with strict
//!   inequalities, decided by Fourier–Motzkin elimination, with exact
//!   integer-disequality reasoning ([`arith`]),
//! * a DPLL-style **case-splitting search** over the propositional
//!   structure with theory consistency checks at the leaves ([`solver`]),
//! * **quantifier instantiation by E-matching** on user-supplied trigger
//!   patterns, the way Simplify's matcher works ([`ematch`]).
//!
//! The prover is *refutation based*: to prove `H₁ ∧ … ∧ Hₙ ⇒ G` it asserts
//! the hypotheses together with `¬G` and searches for a theory-consistent
//! assignment. If every branch is inconsistent the obligation is
//! [`Outcome::Proved`]; if the search saturates with a surviving
//! assignment the prover reports [`Outcome::Refuted`] together with the
//! candidate countermodel literals, which is how the soundness checker
//! explains *why* an erroneous qualifier (such as the paper's `E1 - E2`
//! variant of `pos`) is rejected. Every attempt runs under a
//! [`stats::Budget`]; when a limit trips the prover returns
//! [`Outcome::ResourceOut`] with [`stats::ProverStats`] telemetry instead
//! of diverging ([`stats`]).
//!
//! # Examples
//!
//! Proving that the product of two positive numbers is positive, given the
//! multiplication sign lemma as a triggered axiom (this is the obligation
//! for the second `case` clause of the paper's `pos` qualifier):
//!
//! ```
//! use stq_logic::term::{Formula, Sort, Term};
//! use stq_logic::solver::{Outcome, Problem};
//! use stq_util::Symbol;
//!
//! let x = Term::var("x", Sort::Int);
//! let y = Term::var("y", Sort::Int);
//! let mul = |a: &Term, b: &Term| Term::app("*", vec![a.clone(), b.clone()]);
//!
//! // Background axiom: forall a b. a > 0 && b > 0 => a*b > 0,
//! // triggered on the product term.
//! let a = Term::var("a", Sort::Int);
//! let b = Term::var("b", Sort::Int);
//! let lemma = Formula::forall(
//!     vec![(Symbol::intern("a"), Sort::Int), (Symbol::intern("b"), Sort::Int)],
//!     vec![vec![mul(&a, &b)]],
//!     Formula::and(vec![a.gt0(), b.gt0()]).implies(mul(&a, &b).gt0()),
//! );
//!
//! let mut problem = Problem::new();
//! problem.axiom(lemma);
//! problem.hypothesis(x.gt0());
//! problem.hypothesis(y.gt0());
//! problem.goal(mul(&x, &y).gt0());
//! assert!(matches!(problem.prove(), Outcome::Proved { .. }));
//! ```

pub mod arena;
pub mod arith;
pub mod ematch;
pub mod euf;
pub mod fault;
pub mod fingerprint;
pub mod pre;
pub mod rat;
pub mod solver;
pub mod stats;
pub mod term;
pub mod theory;

pub use fault::{FaultKind, FaultPlan, IoFaultKind, IoFaultPlan};
pub use fingerprint::{Fingerprint, PROVER_VERSION};
pub use solver::{Outcome, Problem, SolverWorker};
pub use stats::{Budget, BudgetOverride, ProverStats, Resource, RetryPolicy};
pub use term::{Formula, Sort, Term};
pub use theory::Theory;
