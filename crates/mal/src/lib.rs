//! # mal — the MonetDB Assembly Language layer
//!
//! MonetDB front-ends compile queries into MAL plans: straight-line
//! programs over BATs, interpreted by concurrent threads following
//! dataflow dependencies (paper §3.2). This crate implements:
//!
//! * [`ast`] — programs, instructions, variables and constants,
//! * [`parser`] — a parser for the textual MAL subset the paper prints
//!   (Tables 1 and 2 round-trip),
//! * [`interp`] — a sequential and a dataflow-parallel interpreter with a
//!   per-instruction overhead well under the paper's 1 µs budget,
//! * [`modules`] — the built-in operator modules (`bat`, `algebra`,
//!   `aggr`, `group`, `sql`, `io`) bound to the `batstore` kernel, and the
//!   `datacyclotron` module bound to a [`context::DcHooks`] implementation
//!   provided by the ring engine,
//! * [`optimizer`] — the Data Cyclotron optimizer of §4.1: every
//!   `sql.bind` becomes a `datacyclotron.request`, a blocking
//!   `datacyclotron.pin` is injected before first use, and `unpin` calls
//!   release the fragments (reproducing Table 1 → Table 2 exactly),
//! * [`template`] — the query-template cache of §3.2.

pub mod ast;
pub mod context;
pub mod error;
pub mod interp;
pub mod modules;
pub mod optimizer;
pub mod parser;
pub mod template;
pub mod value;

pub use ast::{Arg, Const, Instr, Program, VarId};
pub use context::{DcHooks, LocalHooks, SessionCtx};
pub use error::{MalError, Result};
pub use interp::{run_dataflow, run_sequential};
pub use optimizer::{
    common_subexpression_eliminate, dc_optimize, dead_code_eliminate, expression_key,
};
pub use parser::parse_program;
pub use template::TemplateCache;
pub use value::{MVal, ResultSet};
