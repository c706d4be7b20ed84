//! # everest-ir — the EVEREST unified intermediate representation
//!
//! The EVEREST compilation flow (paper Fig. 1) unifies workflow orchestration
//! and kernel specifications "into a single MLIR". This crate implements that
//! unified IR from scratch: an SSA-based, multi-dialect, region-structured
//! intermediate representation together with a builder API, a verifier, a
//! textual printer/parser pair, and a pass framework with the classic
//! scalar-optimization passes the middle end relies on.
//!
//! The design intentionally mirrors MLIR's concepts at a smaller scale:
//!
//! * a [`Module`] holds a list of [`Func`]s;
//! * a [`Func`] owns a `Region` of [`Block`]s, each block holding a list of
//!   [`Op`]s in program order;
//! * every [`Op`] is a generic record — `name`, operands, results,
//!   attributes, nested regions — whose structural constraints are supplied
//!   by a dialect registry ([`crate::registry`]);
//! * SSA [`Value`]s are function-scoped handles with types tracked in a side
//!   table on the function;
//! * a `loop.for` is read through [`ForLoop::of`] and a `tensor.*` op
//!   through [`TensorOp::of`]: each decodes and checks the op's attributes
//!   and operand types once, so the verifier, the interpreter and every
//!   other reader agree on which ops are well formed and what they compute.
//!
//! Dialects provided (paper Section III): `arith`/`cf` (builtin scalar
//! compute + control), `tensor` (data-centric tensor abstraction), `df`
//! (dataflow/workflow orchestration), `hls` (hardware-generation directives)
//! and `secure` (data-protection annotations).
//!
//! ## Example
//!
//! ```
//! use everest_ir::{Module, FuncBuilder, Type};
//!
//! let mut module = Module::new("demo");
//! let mut fb = FuncBuilder::new("axpy", &[Type::F64, Type::F64], &[Type::F64]);
//! let a = fb.arg(0);
//! let x = fb.arg(1);
//! let prod = fb.binary("arith.mulf", a, x, Type::F64);
//! fb.ret(&[prod]);
//! module.push(fb.finish());
//! assert!(module.verify().is_ok());
//! let text = module.to_text();
//! let reparsed = everest_ir::parse_module(&text).unwrap();
//! assert_eq!(text, reparsed.to_text());
//! ```

pub mod attr;
pub mod builder;
pub(crate) mod dataflow;
pub mod diag;
pub mod dialects;
pub(crate) mod error;
pub mod footprint;
pub mod interp;
pub(crate) mod ir;
pub mod lints;
pub(crate) mod parse;
pub mod pass;
pub mod print;
pub mod registry;
pub mod simd;
pub(crate) mod tensor_op;
pub mod types;
pub mod verify;

pub use attr::Attr;
pub use builder::FuncBuilder;
pub use dataflow::{analyze, analyze_ordered, Analysis, Direction, Interval, Lattice, Site};
pub use diag::{render_json, render_text, Diagnostic, Severity};
pub use error::IrError;
pub use footprint::fn_footprint;
pub use ir::{Block, BlockId, ForLoop, Func, Module, Op, Region, Value};
pub use lints::{check_func, check_module};
pub use parse::parse_module;
pub use tensor_op::{ReduceKind, TensorKind, TensorOp};
pub use types::Type;
