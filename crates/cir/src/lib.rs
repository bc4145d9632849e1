//! A CIL-like front end for a C subset.
//!
//! CIL (the "C Intermediate Language") is the infrastructure the paper's
//! extensible typechecker is built on. This crate rebuilds the parts the
//! paper relies on, for a C subset rich enough to express every program
//! fragment the paper's qualifiers mention:
//!
//! * [`ast`] — the intermediate representation, with CIL's defining
//!   property that **expressions are side-effect-free** and calls,
//!   assignments, and allocation are separate *instructions*;
//!   expressions and l-values live in one flat [`Arena`] per program and
//!   refer to each other by id;
//! * [`lex`] / [`parse`] — a front end that reads C-subset source with
//!   postfix qualifier annotations (`int pos x`, `char * untainted fmt`)
//!   and performs CIL-style normalization (`a[i]` → `*(a+i)`,
//!   `e->f` → `(*e).f`, calls hoisted out of initializers, `for` → `while`);
//! * the traversal — [`Stmt::walk`] (with its `_mut` twin),
//!   [`Stmt::exprs`], [`Arena::walk_expr`] and [`Arena::lval_exprs`] —
//!   the one place that says which node holds which children, for the
//!   passes that only need to reach nodes;
//! * [`pretty`] — prints the IR back to compilable C-subset text;
//! * [`interp`] — a concrete interpreter used to execute instrumented
//!   run-time qualifier checks and to differentially test soundness.
//!
//! # Examples
//!
//! ```
//! use stq_cir::parse::parse_program;
//! use stq_cir::interp::{run_entry, NoChecks, Value, InterpConfig};
//!
//! let program = parse_program(
//!     "int pos double_it(int pos x) { return (int pos)(x * 2); }",
//!     &["pos"],
//! )?;
//! let out = run_entry(&program, "double_it", &[Value::Int(21)],
//!                     &NoChecks, InterpConfig::default())?;
//! assert_eq!(out.ret, Some(Value::Int(42)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod interp;
pub mod lex;
pub mod parse;
pub mod pretty;
mod visit;

pub use ast::{
    Arena, BaseTy, BinOp, Expr, ExprId, ExprKind, FuncDef, FuncProto, FuncSig, GlobalDecl, Instr,
    InstrKind, LocalDecl, LvalId, LvalKind, Lvalue, Program, QualType, Stmt, StmtKind, StructDef,
    Ty, UnOp,
};
pub use parse::{parse_program, parse_program_resilient, ParseError};
