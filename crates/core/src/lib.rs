//! # everest — the EVEREST System Development Kit
//!
//! "The EVEREST SDK is a design environment to ease the description,
//! optimization and execution of Big Data applications with heterogeneous
//! data sources onto FPGA-based architectures, operating at design and run
//! time" (paper Section II). This crate is the façade over the whole
//! reproduction:
//!
//! | paper concept | crate |
//! |---|---|
//! | unified MLIR-like IR + passes (Fig. 1) | [`ir`] |
//! | tensor & workflow DSLs | [`dsl`] |
//! | HLS engine ("Bambu") + TaintHLS DIFT | [`hls`] |
//! | hardware/software variants + DSE | [`variants`] |
//! | target system (Fig. 3/4) + simulator | [`platform`] |
//! | HyperLoom-style workflow platform | [`workflow`] |
//! | virtualized runtime + mARGOt autotuner (Fig. 2) | [`runtime`] |
//! | crypto + monitors + auto-protection | [`security`] |
//! | the three industrial use cases (VI) | [`apps`] |
//!
//! The [`Sdk`] type drives the end-to-end flow; configure it with
//! [`Sdk::builder`]:
//!
//! ```
//! use everest::Sdk;
//!
//! let sdk = Sdk::builder().build();
//! let compiled = sdk.compile(
//!     "kernel axpy(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> {
//!          return 2.0 * a + b;
//!      }",
//! ).unwrap();
//! let kernel = &compiled.kernels[0];
//! assert_eq!(kernel.name, "axpy");
//! assert!(kernel.variants.len() > 2);
//! assert!(kernel.pareto_front().len() <= kernel.variants.len());
//! ```

pub(crate) mod bridge;
pub(crate) mod check;
pub(crate) mod error;
pub(crate) mod fuse;
pub(crate) mod sdk;

pub use bridge::task_graph_from_workflow;
pub use error::{SdkError, SdkResult};
pub use fuse::{kernel_index, render_plan_text, unresolved_diags};
pub use sdk::{Compiled, CompiledKernel, Deployment, ExploreReport, Sdk, SdkBuilder};

// The shared diagnostic vocabulary of `everestc check`.
pub use everest_ir::{Diagnostic, Severity};

// Re-export the types users touch on every path through the façade, so
// `use everest::{Sdk, System}` works without naming the subsystem
// crates.
pub use everest_platform::System;
pub use everest_runtime::offload::{
    FaultKind, FaultPlan, FaultRates, OffloadCall, OffloadManager, OffloadOutcome, TargetClass,
};
pub use everest_variants::space::DesignSpace;
pub use everest_variants::{Dataset, DatasetConfig, KnobVector, Variant};
pub use everest_workflow::RunReport;

// Re-export the subsystem crates under stable names.
pub use everest_apps as apps;
pub use everest_dsl as dsl;
pub use everest_hls as hls;
pub use everest_ir as ir;
pub use everest_platform as platform;
pub use everest_runtime as runtime;
pub use everest_security as security;
pub use everest_variants as variants;
pub use everest_workflow as workflow;
