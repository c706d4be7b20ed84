//! Fault-tolerant network offload: deterministic fault injection and
//! recovery for remote kernel execution.
//!
//! The paper's runtime promises *dynamic adaptation* (Fig. 2) over a
//! target system whose cloudFPGAs are reached over plain TCP/UDP
//! (Fig. 4) — network peers that fail independently. This module closes
//! that loop for the simulated stack:
//!
//! * [`FaultPlan`] — a seeded plan of per-device / per-link-profile
//!   probabilities for dropped transfers, timeouts, corrupted results and
//!   permanent device loss. Outcomes are a pure function of
//!   `(seed, device, invocation, attempt)`, so a plan replays identically
//!   at any thread count.
//! * [`CircuitBreaker`] — the per-device Closed → Open → HalfOpen state
//!   machine that stops hammering a failing device and probes it again
//!   after a cooldown.
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter derived from the same seed.
//! * [`OffloadManager`] — wraps every remote invocation with retry,
//!   breaker and graceful degradation down a fallback chain (network
//!   FPGA → bus-attached FPGA → host CPU reference kernel), feeding the
//!   [`RuntimeMonitor`] and the `offload.*` telemetry counters, and
//!   recording an [`OffloadEvent`] trace that is bit-identical for a
//!   given seed at any `jobs` count.
//!
//! # Lane-partitioned parallel fold
//!
//! The fallback chain is partitioned once, at construction, into
//! *lanes*: every FPGA roots its own lane (maximizing the fold's
//! parallel width), and the host CPU terminal is shared by every lane
//! (it is stateless: it never faults, so its breaker never transitions
//! and no mutable state is shared between lanes). A device that trips
//! therefore slows only its own lane — its calls degrade straight to
//! the CPU reference kernel. Invocation `task` folds on lane
//! `task % lanes`, and
//! each lane owns its breakers, loss flags and virtual clock, so
//! [`OffloadManager::run_batch`] folds all lanes concurrently on a
//! worker pool and then merges lane-local events, monitor records and
//! outcomes back into invocation order. Fault outcomes and backoff
//! jitter are pure in `(seed, device, invocation, attempt)`, so the
//! merged trace is bit-identical at any `jobs` count — `jobs = 1`
//! simply folds the lanes inline.

mod breaker;
mod event;
mod fault;
mod lane;
mod manager;
#[cfg(test)]
mod tests;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use event::{OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, TargetClass};
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use manager::OffloadManager;
