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
//!   [`RuntimeMonitor`](crate::monitor::RuntimeMonitor) and the
//!   `offload.*` telemetry counters, and recording an [`OffloadEvent`]
//!   trace that is bit-identical for a given seed at any `jobs` count.
//!
//! One file per concern: `fault` (the plan and its per-device key),
//! `breaker` (retry backoff and the breaker), `event` (targets, calls,
//! outcomes, trace events), `lane` (the fold) and `manager` (chain,
//! dealing, merge).
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
//!
//! # What a call costs
//!
//! The fold is host-side bookkeeping around a *simulated* device, so it
//! is built to cost its arithmetic and little else:
//!
//! * **Resolved once per target, at construction** (a lane `Rung`): the
//!   chain index, link and speedup, the device name as an `Arc<str>`,
//!   the plan's rates for the device and the two device-keyed seed words
//!   (`mix(seed ^ fnv1a(device))` for faults, the `rotate_left(17)` form
//!   for backoff jitter). [`FaultPlan::outcome`] and
//!   [`RetryPolicy::backoff_us`], the public name-keyed forms, go through
//!   the same keyed functions the fold calls, so there is one sampler. A
//!   target none of whose rates is positive draws nothing.
//! * **Events carry chain indices.** An [`OffloadEvent`] is `Copy`, 24
//!   bytes and owns no heap memory; [`OffloadManager::trace`] renders the
//!   names back through the chain. An [`OffloadOutcome`] shares its
//!   device name with the rung. A batch therefore allocates per buffer —
//!   never per event, rung, attempt or call (pinned by
//!   `tests/offload.rs`).
//! * **One recorder clock read per call.** A call's flight events are
//!   gathered and recorded as one group when it ends
//!   (`FlightRecorder::record_all`); its two spans cost one atomic load
//!   each while tracing is off.
//! * **The merge copies slices.** Each lane reports where every task's
//!   events and monitor records end in its buffers; the merge reserves
//!   once, copies those runs in invocation order, replays the monitor
//!   through one batch-local latency histogram and flushes the lanes'
//!   `offload.*` statistics in lane order, so every counter and
//!   histogram — floating-point sums included — is the same at any
//!   `jobs`.
//!
//! [`OffloadManager::execute`] folds through the same `fold_call` and
//! publishes the call's handful of observations directly; after the
//! first call it allocates nothing.

mod breaker;
mod event;
mod fault;
mod lane;
mod manager;
#[cfg(test)]
mod tests;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use event::{
    OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, SkipReason, TargetClass,
};
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use manager::OffloadManager;
