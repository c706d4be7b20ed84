//! # everest-platform — target-system model
//!
//! The EVEREST target system (paper Section V, Fig. 3 and Fig. 4) combines
//! POWER9 cloud nodes with **bus-attached, cache-coherent FPGAs**
//! (OpenCAPI) and **network-attached, disaggregated FPGAs** (the cloudFPGA
//! platform) plus ARM/RISC-V edge nodes and end-point devices. Since this
//! reproduction has no physical FPGAs, this crate models that hardware:
//!
//! * [`node`] / [`fpga`] — nodes, CPUs and FPGA devices with fabric
//!   capacity, clocking, attachment type and shell/role split with partial
//!   reconfiguration (cloudFPGA);
//! * [`link`] — interconnect models (OpenCAPI, PCIe, datacenter TCP/UDP,
//!   edge WAN) with latency + bandwidth transfer costs;
//! * [`system`] — assembled systems, including the reference EVEREST
//!   demonstrator topology;
//! * [`ecosystem`] — the endpoint → inner-edge → cloud hierarchy of Fig. 3
//!   with tier-placement evaluation;
//! * [`cache`] — a trace-driven L1/L2 cache model (report §E15 checks the
//!   variants cost model's tiling boost against it).
//!
//! ## Example
//!
//! ```
//! use everest_platform::system::System;
//!
//! let sys = System::everest_reference();
//! assert!(sys.nodes().len() >= 3);
//! let p9 = sys.node_by_name("cloud-p9").unwrap();
//! assert!(!p9.devices.is_empty());
//! ```

pub mod cache;
pub mod ecosystem;
pub mod error;
pub mod fpga;
pub mod link;
pub mod node;
pub mod system;

pub use error::{PlatformError, PlatformResult};
pub use fpga::{Attachment, FabricCapacity, FpgaDevice};
pub use link::{Link, LinkProfile};
pub use node::{CpuSpec, Node, NodeKind};
pub use system::System;
