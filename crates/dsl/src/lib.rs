//! # everest-dsl — embedded domain-specific languages
//!
//! The EVEREST SDK offers application experts "embedded domain-specific
//! languages to express the semantics and security requirements of
//! computational tasks" (paper III-A). This crate provides the two DSL
//! frontends of the reproduction:
//!
//! * a **tensor-expression language** in the spirit of CFDlang/TeIL
//!   (`kernel` declarations over typed tensors, with contraction,
//!   elementwise algebra, stencils, reductions and activation functions)
//!   that type-checks shapes and lowers to the `tensor` dialect of
//!   [`everest_ir`];
//! * a **workflow language** (`workflow` declarations naming sources,
//!   tasks and sinks) that lowers to the `df` dialect and from there to
//!   HyperLoom-style task graphs.
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     kernel scale_add(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> {
//!         var s = 2.0 * a;
//!         return s + b;
//!     }
//! "#;
//! let module = everest_dsl::compile_kernels(src).unwrap();
//! assert!(module.func("scale_add").is_some());
//! module.verify().unwrap();
//! ```

pub mod ast;
pub mod error;
pub(crate) mod lexer;
pub mod lower;
pub mod parser;
pub mod typecheck;
pub(crate) mod workflow;

pub use error::DslError;
pub(crate) use error::DslResult;
pub use workflow::{WorkflowSpec, WorkflowStep};

use everest_ir::Module;

/// Compiles tensor-DSL source text into a verified IR module.
///
/// # Errors
///
/// Returns a [`DslError`] for lexical, syntactic, shape-checking or
/// lowering failures.
pub fn compile_kernels(source: &str) -> DslResult<Module> {
    let program = {
        let mut span = everest_telemetry::span("dsl.parse", "dsl");
        span.attr("bytes", source.len());
        let program = parser::parse_program(source)?;
        span.attr("kernels", program.kernels.len());
        program
    };
    {
        let _span = everest_telemetry::span("dsl.typecheck", "dsl");
        typecheck::check_program(&program)?;
    }
    let module = {
        let _span = everest_telemetry::span("dsl.lower", "dsl");
        lower::lower_program(&program)?
    };
    {
        let _span = everest_telemetry::span("dsl.verify", "dsl");
        module
            .verify()
            .map_err(|e| DslError::lower(0, format!("lowered module failed verification: {e}")))?;
    }
    Ok(module)
}
