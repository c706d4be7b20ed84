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
//!   `offload.*` telemetry counters, and recording an `OffloadEvent`
//!   trace that is bit-identical for a given seed at any `jobs` count.
//!
//! One file per concern: `fault` (the plan and its per-device key),
//! `breaker` (retry backoff and the breaker), `event` (targets, calls,
//! outcomes, trace events), `lane` (the fold), `manager` (chain,
//! dealing, merge) and `trace` (where the trace lives).
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
//! worker pool and then merges lane-local monitor records and outcomes
//! back into invocation order. The trace is not merged: each lane's
//! event buffer stays where the fold wrote it, kept with where each of
//! its tasks' events end as the batch's trace segment, and
//! [`OffloadManager::events`] and [`OffloadManager::trace`] walk the
//! segments in invocation order by the dealing formula. Calls made by
//! [`OffloadManager::execute`] append to a trailing segment of one
//! buffer. Fault outcomes and backoff jitter are pure in `(seed, device,
//! invocation, attempt)`, so the trace reads back bit-identical at any
//! `jobs` count — `jobs = 1` simply folds the lanes inline.
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
//! * **Events carry chain indices, not their task.** An `OffloadEvent`
//!   is `Copy`, 16 bytes and owns no heap memory: its task is where it
//!   sits in the trace, and [`OffloadManager::trace`] renders the names
//!   back through the chain. An [`OffloadOutcome`] shares its
//!   device name with the rung. A batch therefore allocates per buffer —
//!   never per event, rung, attempt or call (pinned by
//!   `tests/offload.rs`).
//! * **Flight events only where a ring keeps them.** A call's flight
//!   events are gathered and recorded as one group
//!   (`FlightRecorder::record_all`: one clock read, one ring lock); its
//!   two spans cost one atomic load each while tracing is off. In a
//!   batch a lane records them only for its last `capacity / 2 + 1`
//!   calls: every call records at least two, so an earlier call's events
//!   would be overwritten in the thread's ring before the fold returns.
//!   The fold adds their count to the ring's written total instead
//!   (`FlightRecorder::record_overwritten`, once per lane), so after the
//!   fold the ring and `FlightDump::dropped` are what recording every
//!   call leaves. The monitor raises its alarms — the recorder's only
//!   automatic dumps — in the merge, after every lane has folded. Only a
//!   dump taken by another thread while a lane folds can tell: it sees
//!   that lane's events from its last `capacity / 2` calls on.
//!   [`OffloadManager::execute`] records every call.
//! * **The merge copies no event.** Each lane reports where every task's
//!   monitor records end; the merge replays the monitor in invocation
//!   order through one batch-local latency histogram, flushes the lanes'
//!   `offload.*` statistics in lane order, so every counter and
//!   histogram — floating-point sums included — is the same at any
//!   `jobs`, and keeps the lanes' event buffers as the batch's trace
//!   segment (a task's event end is a `u32`).
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
mod trace;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use event::{
    OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, SkipReason, TargetClass,
};
pub use fault::{FaultKind, FaultPlan, FaultRates};
pub use manager::OffloadManager;
