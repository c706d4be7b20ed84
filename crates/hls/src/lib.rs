//! # everest-hls — high-level synthesis engine
//!
//! EVEREST "uses Bambu, an open-source HLS tool" to turn kernels into FPGA
//! accelerators and "optimize execution and memory bandwidth" (paper III-B).
//! This crate is a from-scratch functional equivalent of that flow:
//!
//! 1. [`tensor_to_loops`] lowers `tensor`-dialect kernels into explicit
//!    memref loop nests (the form HLS schedules);
//! 2. [`cdfg`] builds a control/data-flow graph per loop body, including
//!    memory-ordering edges;
//! 3. [`schedule`] runs ASAP/ALAP and resource-constrained list scheduling
//!    against the operator library in `oplib`;
//! 4. [`binding`] allocates and binds functional units and estimates
//!    registers;
//! 5. [`memory`] partitions array buffers across BRAM banks (block/cyclic)
//!    and analyses port conflicts;
//! 6. `pipeline` computes initiation intervals for pipelined loops;
//! 7. [`dift`] adds TaintHLS-style dynamic information-flow tracking and
//!    reports its area/latency overhead;
//! 8. [`rtl`] emits a Verilog-subset FSMD description;
//! 9. [`accel`] drives the whole flow and produces an [`accel::Accelerator`]
//!    with latency, area and RTL artifacts;
//! 10. [`cache`] memoizes synthesis summaries by structural kernel hash +
//!     configuration key, so design-space exploration never synthesizes
//!     the same point twice.
//!
//! ## Example
//!
//! ```
//! use everest_hls::accel::{synthesize, HlsConfig};
//!
//! let module = everest_dsl::compile_kernels(
//!     "kernel axpy(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> {
//!          return 2.0 * a + b;
//!      }",
//! ).unwrap();
//! let acc = synthesize(module.func("axpy").unwrap(), &HlsConfig::default()).unwrap();
//! assert!(acc.latency_cycles > 0);
//! assert!(acc.area.luts > 0);
//! ```

pub mod accel;
pub mod binding;
pub mod cache;
pub mod cdfg;
pub mod dift;
pub(crate) mod error;
pub mod memory;
pub(crate) mod oplib;
pub(crate) mod pipeline;
pub mod rtl;
pub mod schedule;
pub mod tensor_to_loops;

pub use accel::{synthesize, Accelerator, HlsConfig};
pub use error::HlsError;
pub use memory::stream_capacity_bytes;
pub use oplib::{AreaReport, FuKind};
