//! # everest-runtime — virtualization-based runtime optimization
//!
//! Implements the EVEREST virtualized runtime environment (paper Section
//! IV, Fig. 2): hypervisor and guest-OS extensions that manage, optimize
//! and monitor hardware access from guest applications, with three pillars:
//!
//! 1. **Data-protection layer** — monitors execution and reacts to
//!    anomalies (`monitor`, backed by [`everest_security`]);
//! 2. **Dynamic hardware-software adaptation** — a mARGOt-style
//!    autotuner ([`autotuner`]) selecting among the pre-generated variants
//!    of [`everest_variants`], plus the closed adaptation loop in
//!    [`adaptation`];
//! 3. **Virtualization support** — VMs and the vFPGA manager with
//!    partial-reconfiguration slots in `vm`, and tenant VMs sharing
//!    accelerator slots in [`contention`] (report §E16).
//!
//! Beside them, [`offload`] runs accelerator calls against injected
//! faults: retries, per-device circuit breakers and a fallback chain
//! network FPGA → bus FPGA → host CPU.
//!
//! ## Example
//!
//! ```
//! use everest_runtime::autotuner::{Autotuner, Objective};
//! use everest_variants::{Metrics, Variant};
//!
//! let mk = |id: &str, t: f64| Variant {
//!     id: id.into(), kernel: "k".into(), transforms: [].into(),
//!     metrics: Metrics { latency_us: t, transfer_us: 0.0, energy_mj: t / 10.0,
//!                        area_luts: 0, area_brams: 0 },
//! };
//! let mut tuner = Autotuner::new(vec![mk("fast", 10.0), mk("slow", 100.0)]);
//! tuner.set_objective(Objective::MinLatency);
//! let chosen = tuner.select(&Default::default()).unwrap();
//! assert_eq!(chosen.id, "fast");
//! ```

pub mod adaptation;
pub mod autotuner;
pub mod contention;
pub(crate) mod error;
pub(crate) mod monitor;
pub mod offload;
pub(crate) mod vm;

pub use autotuner::{Autotuner, Objective};
pub use error::RuntimeError;
pub use monitor::RuntimeMonitor;
pub use vm::{Hypervisor, VfpgaManager, Vm};
