//! What goes in and comes out of the fold: chain targets, calls,
//! outcomes and the retry/fallback trace events.

use super::fault::FaultKind;
use everest_platform::{Link, LinkProfile};
use std::fmt;

/// Where in the fallback chain a target sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetClass {
    /// Disaggregated cloudFPGA reached over the datacenter network.
    NetworkFpga,
    /// Cache-coherent bus-attached FPGA on the host node.
    BusFpga,
    /// The host CPU running the reference software kernel.
    HostCpu,
}

impl fmt::Display for TargetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TargetClass::NetworkFpga => "network-fpga",
            TargetClass::BusFpga => "bus-fpga",
            TargetClass::HostCpu => "host-cpu",
        })
    }
}

/// One rung of the fallback chain.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadTarget {
    /// `node/device` name (`cloud-p9/cpu` for the software fallback).
    pub device: String,
    /// Target class.
    pub class: TargetClass,
    /// Link the payload crosses to reach the target.
    pub link: Link,
    /// The link's named profile, used to resolve fault rates.
    pub profile: Option<LinkProfile>,
    /// Kernel speedup relative to the CPU reference.
    pub speedup: f64,
}

/// One kernel invocation to offload.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadCall {
    /// Kernel name (for the trace and error messages).
    pub kernel: String,
    /// Payload moved to (and from) the target, bytes.
    pub payload_bytes: u64,
    /// Kernel work at CPU-reference speed, microseconds.
    pub work_us: f64,
}

/// How one invocation ended.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadOutcome {
    /// Invocation index (assignment order).
    pub task: u64,
    /// Device that completed the call.
    pub device: String,
    /// Its class.
    pub class: TargetClass,
    /// Attempts made across the whole chain.
    pub attempts: u32,
    /// Simulated end-to-end time, microseconds (transfers, timeouts,
    /// backoffs, compute).
    pub elapsed_us: f64,
    /// `true` when the call did not complete on the chain's first rung.
    pub degraded: bool,
}

/// One entry of the deterministic retry/fallback trace.
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadEvent {
    /// An attempt started on a device.
    Attempt {
        /// Invocation index.
        task: u64,
        /// Target device.
        device: String,
        /// Attempt number on this device (0-based).
        attempt: u32,
    },
    /// An attempt failed.
    Fault {
        /// Invocation index.
        task: u64,
        /// Target device.
        device: String,
        /// Attempt number on this device.
        attempt: u32,
        /// Failure mode.
        kind: FaultKind,
    },
    /// The manager backed off before retrying.
    Backoff {
        /// Invocation index.
        task: u64,
        /// Target device.
        device: String,
        /// The retry this wait precedes (1-based).
        attempt: u32,
        /// Jittered wait, microseconds.
        wait_us: f64,
    },
    /// A target was skipped without an attempt.
    Skip {
        /// Invocation index.
        task: u64,
        /// Skipped device.
        device: String,
        /// Why (`breaker-open` or `device-lost`).
        reason: &'static str,
    },
    /// A device's breaker tripped open.
    BreakerOpened {
        /// Invocation index that tripped it.
        task: u64,
        /// Device.
        device: String,
    },
    /// A breaker began half-open probing.
    BreakerHalfOpen {
        /// Invocation index probing it.
        task: u64,
        /// Device.
        device: String,
    },
    /// A half-open breaker re-closed after successful probes.
    BreakerClosed {
        /// Invocation index that closed it.
        task: u64,
        /// Device.
        device: String,
    },
    /// A device was lost permanently.
    DeviceLost {
        /// Invocation index that observed the loss.
        task: u64,
        /// Device.
        device: String,
    },
    /// The call moved down the fallback chain.
    Fallback {
        /// Invocation index.
        task: u64,
        /// Abandoned device.
        from: String,
        /// Next device in the chain.
        to: String,
    },
    /// The call completed.
    Completed {
        /// Invocation index.
        task: u64,
        /// Completing device.
        device: String,
        /// Its class.
        class: TargetClass,
        /// Attempts across the whole chain.
        attempts: u32,
        /// Simulated end-to-end time, microseconds.
        elapsed_us: f64,
    },
}

impl fmt::Display for OffloadEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadEvent::Attempt { task, device, attempt } => {
                write!(f, "task {task}: attempt {attempt} on {device}")
            }
            OffloadEvent::Fault { task, device, attempt, kind } => {
                write!(f, "task {task}: {kind} on {device} (attempt {attempt})")
            }
            OffloadEvent::Backoff { task, device, attempt, wait_us } => {
                write!(f, "task {task}: backoff {wait_us:.1} us before retry {attempt} on {device}")
            }
            OffloadEvent::Skip { task, device, reason } => {
                write!(f, "task {task}: skip {device} ({reason})")
            }
            OffloadEvent::BreakerOpened { task, device } => {
                write!(f, "task {task}: breaker OPEN on {device}")
            }
            OffloadEvent::BreakerHalfOpen { task, device } => {
                write!(f, "task {task}: breaker HALF-OPEN on {device}")
            }
            OffloadEvent::BreakerClosed { task, device } => {
                write!(f, "task {task}: breaker CLOSED on {device}")
            }
            OffloadEvent::DeviceLost { task, device } => {
                write!(f, "task {task}: device LOST: {device}")
            }
            OffloadEvent::Fallback { task, from, to } => {
                write!(f, "task {task}: fallback {from} -> {to}")
            }
            OffloadEvent::Completed { task, device, class, attempts, elapsed_us } => {
                write!(
                    f,
                    "task {task}: completed on {device} [{class}] after {attempts} attempts, {elapsed_us:.1} us"
                )
            }
        }
    }
}

impl OffloadEvent {
    /// The invocation index this event belongs to (used by the merge
    /// phase to re-interleave lane-local traces in invocation order).
    pub(super) fn task(&self) -> u64 {
        match self {
            OffloadEvent::Attempt { task, .. }
            | OffloadEvent::Fault { task, .. }
            | OffloadEvent::Backoff { task, .. }
            | OffloadEvent::Skip { task, .. }
            | OffloadEvent::BreakerOpened { task, .. }
            | OffloadEvent::BreakerHalfOpen { task, .. }
            | OffloadEvent::BreakerClosed { task, .. }
            | OffloadEvent::DeviceLost { task, .. }
            | OffloadEvent::Fallback { task, .. }
            | OffloadEvent::Completed { task, .. } => *task,
        }
    }
}
