//! What goes in and comes out of the fold: chain targets, calls,
//! outcomes and the retry/fallback trace events.
//!
//! A batch makes two to four events per call, so an [`OffloadEvent`] is
//! `Copy`, 16 bytes, and owns nothing: it names a device by its index in
//! the manager's chain, and [`OffloadEvent::display`] puts the name back
//! when the trace is printed. Its invocation is where it sits in the
//! trace, so it does not carry one. An [`OffloadOutcome`] — one per call — shares
//! its device name with the chain target instead of copying it.

use super::fault::FaultKind;
use everest_platform::{Link, LinkProfile};
use std::fmt;
use std::sync::Arc;

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
    /// Device that completed the call (`&outcome.device` is a `&str`).
    pub device: Arc<str>,
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

/// Why a target was skipped without an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Its breaker is open and still cooling down.
    BreakerOpen,
    /// It was lost for good earlier in the run.
    DeviceLost,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SkipReason::BreakerOpen => "breaker-open",
            SkipReason::DeviceLost => "device-lost",
        })
    }
}

/// One entry of the deterministic retry/fallback trace. Every `device`,
/// `from` and `to` is an index into [`OffloadManager::chain`] of the
/// manager that recorded the event. The invocation an event belongs to is
/// where it sits in the trace: [`OffloadManager::events`] yields each
/// event with its invocation index.
///
/// [`OffloadManager::chain`]: super::OffloadManager::chain
/// [`OffloadManager::events`]: super::OffloadManager::events
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadEvent {
    /// An attempt started on a device.
    Attempt {
        /// Target device.
        device: u16,
        /// Attempt number on this device (0-based).
        attempt: u32,
    },
    /// An attempt failed.
    Fault {
        /// Target device.
        device: u16,
        /// Attempt number on this device.
        attempt: u32,
        /// Failure mode.
        kind: FaultKind,
    },
    /// The manager backed off before retrying.
    Backoff {
        /// Target device.
        device: u16,
        /// The retry this wait precedes (1-based).
        attempt: u32,
        /// Jittered wait, microseconds.
        wait_us: f64,
    },
    /// A target was skipped without an attempt.
    Skip {
        /// Skipped device.
        device: u16,
        /// Why.
        reason: SkipReason,
    },
    /// A device's breaker tripped open.
    BreakerOpened {
        /// Device.
        device: u16,
    },
    /// A breaker began half-open probing.
    BreakerHalfOpen {
        /// Device.
        device: u16,
    },
    /// A half-open breaker re-closed after successful probes.
    BreakerClosed {
        /// Device.
        device: u16,
    },
    /// A device was lost permanently.
    DeviceLost {
        /// Device.
        device: u16,
    },
    /// The call moved down the fallback chain.
    Fallback {
        /// Abandoned device.
        from: u16,
        /// Next device in the chain.
        to: u16,
    },
    /// The call completed.
    Completed {
        /// Completing device.
        device: u16,
        /// Attempts across the whole chain.
        attempts: u32,
        /// Simulated end-to-end time, microseconds.
        elapsed_us: f64,
    },
}

impl OffloadEvent {
    /// The event as the trace line of invocation `task`, with device
    /// names (and the completing target's class) looked up in `chain`.
    ///
    /// # Panics
    ///
    /// Formatting panics when `chain` is shorter than the chain of the
    /// manager that recorded the event.
    pub(crate) fn display<'a>(
        &'a self,
        task: u64,
        chain: &'a [OffloadTarget],
    ) -> impl fmt::Display + 'a {
        TraceLine { task, event: self, chain }
    }
}

/// [`OffloadEvent::display`]'s adapter.
struct TraceLine<'a> {
    task: u64,
    event: &'a OffloadEvent,
    chain: &'a [OffloadTarget],
}

impl fmt::Display for TraceLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |index: u16| self.chain[usize::from(index)].device.as_str();
        let task = self.task;
        match *self.event {
            OffloadEvent::Attempt { device, attempt } => {
                write!(f, "task {task}: attempt {attempt} on {}", name(device))
            }
            OffloadEvent::Fault { device, attempt, kind } => {
                write!(f, "task {task}: {kind} on {} (attempt {attempt})", name(device))
            }
            OffloadEvent::Backoff { device, attempt, wait_us } => write!(
                f,
                "task {task}: backoff {wait_us:.1} us before retry {attempt} on {}",
                name(device)
            ),
            OffloadEvent::Skip { device, reason } => {
                write!(f, "task {task}: skip {} ({reason})", name(device))
            }
            OffloadEvent::BreakerOpened { device } => {
                write!(f, "task {task}: breaker OPEN on {}", name(device))
            }
            OffloadEvent::BreakerHalfOpen { device } => {
                write!(f, "task {task}: breaker HALF-OPEN on {}", name(device))
            }
            OffloadEvent::BreakerClosed { device } => {
                write!(f, "task {task}: breaker CLOSED on {}", name(device))
            }
            OffloadEvent::DeviceLost { device } => {
                write!(f, "task {task}: device LOST: {}", name(device))
            }
            OffloadEvent::Fallback { from, to } => {
                write!(f, "task {task}: fallback {} -> {}", name(from), name(to))
            }
            OffloadEvent::Completed { device, attempts, elapsed_us } => write!(
                f,
                "task {task}: completed on {} [{}] after {attempts} attempts, {elapsed_us:.1} us",
                name(device),
                self.chain[usize::from(device)].class
            ),
        }
    }
}
