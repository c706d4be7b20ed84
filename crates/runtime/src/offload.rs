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

use crate::error::{RuntimeError, RuntimeResult};
use crate::monitor::RuntimeMonitor;
use everest_platform::{Attachment, Link, LinkProfile, System};
use everest_telemetry::LogHistogram;
use everest_workflow::seed::{fnv1a, mix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One injected failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The transfer was dropped on the wire (detected by timeout).
    Drop,
    /// The call exceeded its deadline.
    Timeout,
    /// The device answered, but the result failed its integrity check.
    Corrupt,
    /// The device disappeared for good (node loss, shell crash).
    DeviceLoss,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Drop => "drop",
            FaultKind::Timeout => "timeout",
            FaultKind::Corrupt => "corrupt",
            FaultKind::DeviceLoss => "device-loss",
        })
    }
}

/// Per-key fault probabilities. Each is in `[0, 1]` and their sum must
/// not exceed 1 (they partition the outcome space of one attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a transfer is dropped.
    pub drop: f64,
    /// Probability a call times out.
    pub timeout: f64,
    /// Probability the result comes back corrupted.
    pub corrupt: f64,
    /// Probability the device is lost permanently.
    pub device_loss: f64,
}

impl FaultRates {
    /// No injected faults.
    pub const NONE: FaultRates =
        FaultRates { drop: 0.0, timeout: 0.0, corrupt: 0.0, device_loss: 0.0 };

    fn validate(&self) -> RuntimeResult<()> {
        let parts = [self.drop, self.timeout, self.corrupt, self.device_loss];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) || parts.iter().sum::<f64>() > 1.0 {
            return Err(RuntimeError::Unknown(format!("invalid fault rates {self:?}")));
        }
        Ok(())
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates resolve per key, most specific first: an exact device override,
/// then the device's [`LinkProfile`] name, then the plan default. The
/// outcome of any attempt is a pure function of
/// `(seed, device, invocation, attempt)` — independent of wall clock,
/// thread interleaving and evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_rates: FaultRates,
    overrides: BTreeMap<String, FaultRates>,
}

impl FaultPlan {
    /// The named profiles [`FaultPlan::from_profile`] understands.
    pub const PROFILES: [&'static str; 4] = ["none", "lossy", "flaky", "meltdown"];

    /// A plan applying `default_rates` to every target.
    ///
    /// # Errors
    ///
    /// Rejects rates outside `[0, 1]` or summing above 1.
    pub fn new(seed: u64, default_rates: FaultRates) -> RuntimeResult<FaultPlan> {
        default_rates.validate()?;
        Ok(FaultPlan { seed, default_rates, overrides: BTreeMap::new() })
    }

    /// A plan that injects nothing (the healthy baseline).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan { seed, default_rates: FaultRates::NONE, overrides: BTreeMap::new() }
    }

    /// A named scenario, parseable from the CLI:
    ///
    /// * `none` — no faults;
    /// * `lossy` — moderate drop/timeout/corruption on datacenter
    ///   TCP/UDP links, bus attachments clean;
    /// * `flaky` — heavy network faults including occasional device
    ///   loss, and a whiff of bus errors;
    /// * `meltdown` — every FPGA dies on first contact, forcing the CPU
    ///   fallback.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] for an unrecognized name.
    pub fn from_profile(name: &str, seed: u64) -> RuntimeResult<FaultPlan> {
        let network = |drop, timeout, corrupt, device_loss| FaultRates {
            drop,
            timeout,
            corrupt,
            device_loss,
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "none" => Ok(FaultPlan::none(seed)),
            "lossy" => FaultPlan::none(seed)
                .with_rates(LinkProfile::TcpDatacenter.name(), network(0.15, 0.10, 0.05, 0.0))?
                .with_rates(LinkProfile::UdpDatacenter.name(), network(0.20, 0.05, 0.05, 0.0)),
            "flaky" => FaultPlan::none(seed)
                .with_rates(LinkProfile::TcpDatacenter.name(), network(0.30, 0.20, 0.10, 0.02))?
                .with_rates(LinkProfile::UdpDatacenter.name(), network(0.35, 0.15, 0.10, 0.02))?
                .with_rates(LinkProfile::OpenCapi.name(), network(0.02, 0.0, 0.01, 0.0)),
            "meltdown" => FaultPlan::new(seed, FaultRates { device_loss: 1.0, ..FaultRates::NONE }),
            other => Err(RuntimeError::Unknown(format!(
                "fault profile '{other}' (expected one of: {})",
                FaultPlan::PROFILES.join(", ")
            ))),
        }
    }

    /// Overrides the rates for one key (a device name or a
    /// [`LinkProfile`] name).
    ///
    /// # Errors
    ///
    /// Rejects invalid rates, like [`FaultPlan::new`].
    pub fn with_rates(mut self, key: &str, rates: FaultRates) -> RuntimeResult<FaultPlan> {
        rates.validate()?;
        self.overrides.insert(key.to_owned(), rates);
        Ok(self)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolves the rates for a device, most specific key first.
    pub fn rates_for(&self, device: &str, profile: Option<LinkProfile>) -> FaultRates {
        if let Some(rates) = self.overrides.get(device) {
            return *rates;
        }
        if let Some(rates) = profile.and_then(|p| self.overrides.get(p.name())) {
            return *rates;
        }
        self.default_rates
    }

    /// Samples the outcome of one attempt: `None` is success. Pure in
    /// `(seed, device, invocation, attempt)`.
    pub fn outcome(
        &self,
        device: &str,
        profile: Option<LinkProfile>,
        invocation: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        let rates = self.rates_for(device, profile);
        let seed = mix(self.seed ^ fnv1a(device))
            ^ mix(invocation.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(u64::from(attempt)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw: f64 = rng.gen_range(0.0..1.0);
        let mut edge = rates.device_loss;
        if draw < edge {
            return Some(FaultKind::DeviceLoss);
        }
        edge += rates.drop;
        if draw < edge {
            return Some(FaultKind::Drop);
        }
        edge += rates.timeout;
        if draw < edge {
            return Some(FaultKind::Timeout);
        }
        edge += rates.corrupt;
        if draw < edge {
            return Some(FaultKind::Corrupt);
        }
        None
    }
}

/// Retry/backoff configuration for one offload target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per target before falling back (>= 1).
    pub max_attempts: u32,
    /// Deadline charged to a dropped or timed-out attempt, microseconds.
    pub timeout_us: f64,
    /// First backoff, microseconds.
    pub base_us: f64,
    /// Multiplier between consecutive backoffs.
    pub factor: f64,
    /// Backoff ceiling, microseconds.
    pub cap_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            timeout_us: 2_000.0,
            base_us: 200.0,
            factor: 2.0,
            cap_us: 5_000.0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff before retry number `attempt` (1-based):
    /// `base * factor^(attempt-1)`, capped. Non-decreasing in `attempt`.
    pub fn nominal_backoff_us(&self, attempt: u32) -> f64 {
        (self.base_us * self.factor.powi(attempt.saturating_sub(1) as i32)).min(self.cap_us)
    }

    /// The jittered backoff: deterministic "equal jitter" in
    /// `[nominal/2, nominal)`, derived from `(seed, device, invocation,
    /// attempt)` so schedules replay bit-identically per seed.
    pub fn backoff_us(&self, seed: u64, device: &str, invocation: u64, attempt: u32) -> f64 {
        let nominal = self.nominal_backoff_us(attempt);
        let word = mix(seed ^ fnv1a(device).rotate_left(17))
            ^ mix(invocation.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(attempt)));
        let mut rng = ChaCha8Rng::seed_from_u64(word);
        let unit: f64 = rng.gen_range(0.0..1.0);
        nominal * (0.5 + 0.5 * unit)
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls are rejected until the cooldown elapses.
    Open,
    /// Probing: a limited number of trial calls decide re-close vs re-open.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub trip_after: u32,
    /// Time the breaker stays Open before probing, microseconds.
    pub cooldown_us: f64,
    /// Consecutive half-open successes that re-close the breaker.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { trip_after: 3, cooldown_us: 10_000.0, close_after: 2 }
    }
}

/// Per-device circuit breaker over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    half_open_successes: u32,
    open_until_us: f64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            half_open_successes: 0,
            open_until_us: 0.0,
        }
    }

    /// The current state *without* advancing time.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The state at simulated time `now_us`, transitioning Open →
    /// HalfOpen once the cooldown has elapsed.
    pub fn poll(&mut self, now_us: f64) -> BreakerState {
        if self.state == BreakerState::Open && now_us >= self.open_until_us {
            self.state = BreakerState::HalfOpen;
            self.half_open_successes = 0;
        }
        self.state
    }

    /// Records a successful call. Returns `true` when this success
    /// re-closes a half-open breaker.
    pub fn on_success(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.cfg.close_after {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    true
                } else {
                    false
                }
            }
            // A success while Open cannot happen (calls are rejected);
            // tolerate it as a no-op for robustness.
            BreakerState::Open => false,
        }
    }

    /// Records a failed call at simulated time `now_us`. Returns `true`
    /// when this failure trips the breaker open (from either Closed, on
    /// reaching the threshold, or HalfOpen, immediately).
    pub fn on_failure(&mut self, now_us: f64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.trip_after {
                    self.state = BreakerState::Open;
                    self.open_until_us = now_us + self.cfg.cooldown_us;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.open_until_us = now_us + self.cfg.cooldown_us;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Latches the breaker open forever (device loss).
    pub fn force_open(&mut self) {
        self.state = BreakerState::Open;
        self.open_until_us = f64::INFINITY;
    }
}

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
    fn task(&self) -> u64 {
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

/// One fold lane: a disjoint slice of the fallback chain rooted at a
/// primary device, ending in the shared (stateless) CPU terminal. The
/// lane owns all mutable recovery state — breakers, loss flags and the
/// virtual clock — for its rungs, so lanes fold concurrently without
/// sharing anything mutable.
#[derive(Debug, Clone)]
struct Lane {
    /// Chain indices this lane tries, in preference order.
    targets: Vec<usize>,
    /// Breaker per rung (parallel to `targets`).
    breakers: Vec<CircuitBreaker>,
    /// Permanent-loss flag per rung (parallel to `targets`).
    lost: Vec<bool>,
    /// The lane's simulated clock, microseconds.
    clock_us: f64,
}

impl Lane {
    fn new(targets: Vec<usize>, cfg: BreakerConfig) -> Lane {
        let n = targets.len();
        Lane {
            targets,
            breakers: vec![CircuitBreaker::new(cfg); n],
            lost: vec![false; n],
            clock_us: 0.0,
        }
    }

    fn push(&mut self, idx: usize, cfg: BreakerConfig) {
        self.targets.push(idx);
        self.breakers.push(CircuitBreaker::new(cfg));
        self.lost.push(false);
    }
}

/// Partitions a fallback chain into lanes: one lane per device (every
/// FPGA rung roots its own lane), with the stateless CPU terminal
/// appended to each. Per-device lanes maximize the fold's parallel
/// width — a tripped device slows only its own lane instead of
/// serializing behind a shared secondary — at the cost of skipping
/// cross-device fallback: a call whose device is unavailable degrades
/// straight to the CPU reference kernel. A chain with no FPGA rungs
/// collapses to a single lane over everything.
fn partition_lanes(chain: &[OffloadTarget], cfg: BreakerConfig) -> Vec<Lane> {
    if !chain.iter().any(|t| t.class != TargetClass::HostCpu) {
        return vec![Lane::new((0..chain.len()).collect(), cfg)];
    }
    let mut lanes: Vec<Lane> = chain
        .iter()
        .enumerate()
        .filter(|(_, t)| t.class != TargetClass::HostCpu)
        .map(|(i, _)| Lane::new(vec![i], cfg))
        .collect();
    for (i, t) in chain.iter().enumerate() {
        if t.class == TargetClass::HostCpu {
            for lane in &mut lanes {
                lane.push(i, cfg);
            }
        }
    }
    lanes
}

/// Lane-local telemetry, flushed to the global registry once per lane
/// fold so the hot loop never takes the registry lock.
struct LaneStats {
    completed: u64,
    faults: u64,
    retries: u64,
    fallbacks: u64,
    device_loss: u64,
    breaker_open: u64,
    latency: LogHistogram,
    sim: LogHistogram,
    attempts: LogHistogram,
}

impl LaneStats {
    fn new() -> LaneStats {
        LaneStats {
            completed: 0,
            faults: 0,
            retries: 0,
            fallbacks: 0,
            device_loss: 0,
            breaker_open: 0,
            latency: LogHistogram::new(),
            sim: LogHistogram::new(),
            attempts: LogHistogram::new(),
        }
    }

    fn flush(&self) {
        let telemetry = everest_telemetry::metrics();
        for (name, value) in [
            ("offload.completed", self.completed),
            ("offload.faults", self.faults),
            ("offload.retries", self.retries),
            ("offload.fallbacks", self.fallbacks),
            ("offload.device_loss", self.device_loss),
            ("offload.breaker.open", self.breaker_open),
        ] {
            if value > 0 {
                telemetry.counter_add(name, value);
            }
        }
        telemetry.merge_histogram("offload.latency_us", &self.latency);
        telemetry.merge_histogram("offload.call.sim_us", &self.sim);
        telemetry.merge_histogram("offload.call.attempts", &self.attempts);
    }
}

/// A monitor observation deferred until the merge phase:
/// `(task, latency_us, access_alarm, range_alarm)`. The EWMA monitor is
/// order-sensitive, so lanes queue observations and the merge replays
/// them in invocation order.
type MonitorRecord = (u64, f64, bool, bool);

/// Everything one lane fold produces, merged back on the caller thread.
struct LaneReport {
    lane: Lane,
    results: Vec<RuntimeResult<OffloadOutcome>>,
    events: Vec<OffloadEvent>,
    records: Vec<MonitorRecord>,
    fold_us: f64,
}

/// Emits the `Fallback` trace event (and counts it, when the abandoned
/// rung was actually attempted) for a call moving down its lane.
#[allow(clippy::too_many_arguments)]
fn push_fallback(
    lane: &Lane,
    li: usize,
    chain: &[OffloadTarget],
    task: u64,
    from: &str,
    events: &mut Vec<OffloadEvent>,
    stats: &mut LaneStats,
    tried: bool,
) {
    if li + 1 < lane.targets.len() {
        let to = chain[lane.targets[li + 1]].device.clone();
        events.push(OffloadEvent::Fallback { task, from: from.to_owned(), to });
        if tried {
            stats.fallbacks += 1;
            everest_telemetry::flight().marker("offload.fallback", task as f64);
        }
    }
}

/// Folds one call through its lane: retry, breaker and fallback, with
/// fault outcomes and backoff jitter sampled inline (they are pure in
/// `(seed, device, task, attempt)`, so inline sampling is identical to
/// pre-sampling). Mutates only lane-local state; trace events and
/// monitor observations queue into the caller's buffers for the merge.
#[allow(clippy::too_many_arguments)]
fn fold_call(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    chain: &[OffloadTarget],
    lane: &mut Lane,
    task: u64,
    call: &OffloadCall,
    events: &mut Vec<OffloadEvent>,
    records: &mut Vec<MonitorRecord>,
    stats: &mut LaneStats,
) -> RuntimeResult<OffloadOutcome> {
    let flight = everest_telemetry::flight();
    let clock_start = lane.clock_us;
    let mut attempts_total: u32 = 0;

    // Causal context: attempt spans opened below nest under this call
    // span, so a recorded trace links every retry/backoff/fallback to
    // the call that caused it.
    let mut call_span = everest_telemetry::span("offload.call", "offload");
    call_span.attr("task", task);
    call_span.attr("kernel", &call.kernel);
    flight.record(everest_telemetry::EventKind::SpanBegin, "offload.call", task as f64);

    for li in 0..lane.targets.len() {
        let target = &chain[lane.targets[li]];
        let device = target.device.clone();

        if lane.lost[li] {
            events.push(OffloadEvent::Skip { task, device: device.clone(), reason: "device-lost" });
            push_fallback(lane, li, chain, task, &device, events, stats, false);
            continue;
        }
        match lane.breakers[li].poll(lane.clock_us) {
            BreakerState::Open => {
                events.push(OffloadEvent::Skip {
                    task,
                    device: device.clone(),
                    reason: "breaker-open",
                });
                push_fallback(lane, li, chain, task, &device, events, stats, false);
                continue;
            }
            BreakerState::HalfOpen => {
                events.push(OffloadEvent::BreakerHalfOpen { task, device: device.clone() });
            }
            BreakerState::Closed => {}
        }

        let transfer_us = target.link.transfer_us(call.payload_bytes);
        let compute_us = call.work_us / target.speedup;
        let mut abandoned = false;
        for attempt in 0..retry.max_attempts.max(1) {
            events.push(OffloadEvent::Attempt { task, device: device.clone(), attempt });
            attempts_total += 1;
            let mut attempt_span = everest_telemetry::span("offload.attempt", "offload");
            attempt_span.attr("task", task);
            attempt_span.attr("device", &device);
            attempt_span.attr("attempt", attempt);
            flight.marker("offload.attempt", attempt as f64);
            let outcome = if target.class == TargetClass::HostCpu {
                // The reference kernel is local: no injected faults.
                None
            } else {
                plan.outcome(&device, target.profile, task, attempt)
            };
            match outcome {
                None => {
                    let latency = transfer_us + compute_us;
                    lane.clock_us += latency;
                    records.push((task, latency, false, false));
                    stats.latency.observe(latency);
                    stats.completed += 1;
                    if lane.breakers[li].on_success() {
                        events.push(OffloadEvent::BreakerClosed { task, device: device.clone() });
                    }
                    events.push(OffloadEvent::Completed {
                        task,
                        device: device.clone(),
                        class: target.class,
                        attempts: attempts_total,
                        elapsed_us: lane.clock_us,
                    });
                    let sim_us = lane.clock_us - clock_start;
                    stats.sim.observe(sim_us);
                    stats.attempts.observe(f64::from(attempts_total));
                    flight.record(everest_telemetry::EventKind::SpanEnd, "offload.call", sim_us);
                    return Ok(OffloadOutcome {
                        task,
                        device,
                        class: target.class,
                        attempts: attempts_total,
                        elapsed_us: lane.clock_us,
                        degraded: li != 0,
                    });
                }
                Some(kind) => {
                    stats.faults += 1;
                    flight.record(everest_telemetry::EventKind::CounterAdd, "offload.faults", 1.0);
                    events.push(OffloadEvent::Fault {
                        task,
                        device: device.clone(),
                        attempt,
                        kind,
                    });
                    // Cost of the failed attempt: a corrupt result came
                    // back (full round trip, checksum reject);
                    // everything else burns the deadline.
                    let penalty = match kind {
                        FaultKind::Corrupt => transfer_us + compute_us,
                        _ => retry.timeout_us,
                    };
                    lane.clock_us += penalty;
                    records.push((task, penalty, false, kind == FaultKind::Corrupt));
                    if kind == FaultKind::DeviceLoss {
                        lane.lost[li] = true;
                        lane.breakers[li].force_open();
                        stats.device_loss += 1;
                        flight.marker("offload.device_loss", task as f64);
                        events.push(OffloadEvent::DeviceLost { task, device: device.clone() });
                        abandoned = true;
                        break;
                    }
                    if lane.breakers[li].on_failure(lane.clock_us) {
                        stats.breaker_open += 1;
                        flight.marker("offload.breaker_open", task as f64);
                        events.push(OffloadEvent::BreakerOpened { task, device: device.clone() });
                        abandoned = true;
                        break;
                    }
                    let retry_no = attempt + 1;
                    if retry_no >= retry.max_attempts {
                        abandoned = true;
                        break;
                    }
                    let wait_us = retry.backoff_us(plan.seed(), &device, task, retry_no);
                    lane.clock_us += wait_us;
                    stats.retries += 1;
                    flight.marker("offload.backoff_us", wait_us);
                    events.push(OffloadEvent::Backoff {
                        task,
                        device: device.clone(),
                        attempt: retry_no,
                        wait_us,
                    });
                }
            }
        }
        debug_assert!(abandoned, "loop only exits via success or abandonment");
        push_fallback(lane, li, chain, task, &device, events, stats, true);
    }
    let sim_us = lane.clock_us - clock_start;
    stats.attempts.observe(f64::from(attempts_total));
    flight.record(everest_telemetry::EventKind::SpanEnd, "offload.call", sim_us);
    Err(RuntimeError::OffloadFailed { kernel: call.kernel.clone(), attempts: attempts_total })
}

/// Below this, a pacing lag is carried to the next call instead of
/// slept: timer slack makes micro-sleeps overshoot badly.
const PACING_QUANTUM_US: f64 = 200.0;

/// Folds every task assigned to one lane, in task order, on the calling
/// pool worker. Telemetry counters/histograms flush once at the end.
///
/// With `pacing = Some(scale)` the lane replays its virtual clock at
/// `scale` simulated microseconds per real microsecond, sleeping off any
/// accumulated lag after each call (hardware-in-the-loop style
/// emulation). Pacing never touches a computed value — outcomes, traces
/// and breaker transitions are bit-identical with pacing on or off — it
/// only makes the wall clock reflect per-device occupancy, so lanes
/// folding in parallel overlap their device waits like real offload
/// queues do.
fn fold_lane(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    chain: &[OffloadTarget],
    mut lane: Lane,
    tasks: &[(u64, &OffloadCall)],
    pacing: Option<f64>,
) -> LaneReport {
    let t = Instant::now();
    let clock_start = lane.clock_us;
    let mut results = Vec::with_capacity(tasks.len());
    let mut events = Vec::new();
    let mut records = Vec::new();
    let mut stats = LaneStats::new();
    for &(task, call) in tasks {
        results.push(fold_call(
            plan,
            retry,
            chain,
            &mut lane,
            task,
            call,
            &mut events,
            &mut records,
            &mut stats,
        ));
        if let Some(scale) = pacing {
            let owed_us = (lane.clock_us - clock_start) / scale;
            let lag_us = owed_us - t.elapsed().as_secs_f64() * 1e6;
            if lag_us > PACING_QUANTUM_US {
                std::thread::sleep(std::time::Duration::from_secs_f64(lag_us / 1e6));
            }
        }
    }
    stats.flush();
    let fold_us = t.elapsed().as_secs_f64() * 1e6;
    LaneReport { lane, results, events, records, fold_us }
}

/// Wraps remote kernel invocations with retry, circuit breaking and
/// graceful degradation. See the module docs for the full contract.
#[derive(Debug, Clone)]
pub struct OffloadManager {
    plan: FaultPlan,
    retry: RetryPolicy,
    chain: Vec<OffloadTarget>,
    lanes: Vec<Lane>,
    monitor: RuntimeMonitor,
    events: Vec<OffloadEvent>,
    invocations: u64,
    pacing: Option<f64>,
}

impl OffloadManager {
    /// A manager over an explicit fallback chain.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] for an empty chain.
    pub fn new(chain: Vec<OffloadTarget>, plan: FaultPlan) -> RuntimeResult<OffloadManager> {
        if chain.is_empty() {
            return Err(RuntimeError::Unknown("empty offload chain".to_owned()));
        }
        let lanes = partition_lanes(&chain, BreakerConfig::default());
        Ok(OffloadManager {
            plan,
            retry: RetryPolicy::default(),
            lanes,
            chain,
            monitor: RuntimeMonitor::new(0),
            events: Vec::new(),
            invocations: 0,
            pacing: None,
        })
    }

    /// Builds the paper's fallback chain from a system model: every
    /// network-attached FPGA (preferred — disaggregated capacity), then
    /// every bus-attached FPGA, then the host CPU reference kernel.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] when the system has no nodes.
    pub fn for_system(system: &System, plan: FaultPlan) -> RuntimeResult<OffloadManager> {
        let host = system
            .nodes()
            .first()
            .ok_or_else(|| RuntimeError::Unknown("system has no nodes".to_owned()))?;
        let mut network = Vec::new();
        let mut bus = Vec::new();
        for node in system.nodes() {
            for device in &node.devices {
                let link = *device.attachment.link();
                let target = OffloadTarget {
                    device: format!("{}/{}", node.name, device.name),
                    class: if device.attachment.is_disaggregated() {
                        TargetClass::NetworkFpga
                    } else {
                        TargetClass::BusFpga
                    },
                    link,
                    profile: LinkProfile::of(&link),
                    speedup: 4.0,
                };
                match device.attachment {
                    Attachment::Network(_) => network.push(target),
                    Attachment::Bus(_) => bus.push(target),
                }
            }
        }
        let mut chain = network;
        chain.extend(bus);
        chain.push(OffloadTarget {
            device: format!("{}/cpu", host.name),
            class: TargetClass::HostCpu,
            // Host DRAM: effectively free for payloads at this granularity.
            link: Link::new(0.0, 1_000.0, 0),
            profile: None,
            speedup: 1.0,
        });
        OffloadManager::new(chain, plan)
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> OffloadManager {
        self.retry = retry;
        self
    }

    /// Replaces every breaker's thresholds (breakers reset to Closed).
    #[must_use]
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> OffloadManager {
        for lane in &mut self.lanes {
            lane.breakers = vec![CircuitBreaker::new(cfg); lane.targets.len()];
        }
        self
    }

    /// Enables hardware-in-the-loop style pacing for batch folds: each
    /// lane replays its virtual clock at `scale` simulated microseconds
    /// per real microsecond, sleeping off the difference. Pacing never
    /// changes a computed value — outcomes, traces and breaker
    /// transitions stay bit-identical — it makes the wall clock track
    /// per-device occupancy, so parallel lanes overlap their device
    /// waits the way real offload queues do (including on a single-core
    /// host, where the bookkeeping itself cannot parallelize).
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    #[must_use]
    pub fn with_pacing(mut self, scale: f64) -> OffloadManager {
        assert!(scale > 0.0 && scale.is_finite(), "pacing scale must be positive");
        self.pacing = Some(scale);
        self
    }

    /// The number of independent fold lanes (one per primary device;
    /// a chain with no FPGA rungs collapses to one lane). Invocation
    /// `task` folds on lane `task % lane_count()`.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The fallback chain, in preference order.
    pub fn chain(&self) -> &[OffloadTarget] {
        &self.chain
    }

    /// The event trace so far, in invocation order.
    pub fn events(&self) -> &[OffloadEvent] {
        &self.events
    }

    /// The monitor fed by completed invocations.
    pub fn monitor(&self) -> &RuntimeMonitor {
        &self.monitor
    }

    /// The breaker guarding `device`, if it is in the chain. The shared
    /// CPU terminal sits on every lane; its first lane's (never-tripped)
    /// breaker is returned.
    pub fn breaker(&self, device: &str) -> Option<&CircuitBreaker> {
        let idx = self.chain.iter().position(|t| t.device == device)?;
        self.lanes.iter().find_map(|lane| {
            lane.targets.iter().position(|&t| t == idx).map(|li| &lane.breakers[li])
        })
    }

    /// Devices currently unusable: lost, or breaker not Closed.
    /// Reported in chain order.
    pub fn tripped_devices(&self) -> Vec<String> {
        self.chain
            .iter()
            .enumerate()
            .filter(|(idx, _)| {
                self.lanes.iter().any(|lane| {
                    lane.targets.iter().position(|&t| t == *idx).is_some_and(|li| {
                        lane.lost[li] || lane.breakers[li].state() != BreakerState::Closed
                    })
                })
            })
            .map(|(_, t)| t.device.clone())
            .collect()
    }

    /// The trace as one line per event (what `everestc offload` prints
    /// and what the determinism contract compares).
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }

    /// Executes one call on its lane (`task % lane_count()`), with the
    /// monitor fed immediately. Interleaving `execute` calls with
    /// [`OffloadManager::run_batch`] produces the same trace as one big
    /// batch — both fold each task on the same lane in task order.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::OffloadFailed`] when every target in the
    /// lane fails — impossible while the chain ends in a host CPU.
    pub fn execute(&mut self, call: &OffloadCall) -> RuntimeResult<OffloadOutcome> {
        let task = self.invocations;
        self.invocations += 1;
        let lane_idx = (task % self.lanes.len() as u64) as usize;
        let OffloadManager { plan, retry, chain, lanes, monitor, events, .. } = self;
        let mut records = Vec::new();
        let mut stats = LaneStats::new();
        let result = fold_call(
            plan,
            retry,
            chain,
            &mut lanes[lane_idx],
            task,
            call,
            events,
            &mut records,
            &mut stats,
        );
        stats.flush();
        for (_, latency, access, range) in records {
            monitor.record(latency, access, range);
        }
        result
    }

    /// Executes a batch as a parallel reduction over the lanes: calls
    /// are dealt round-robin to lanes (phase 1, `partition`), each lane
    /// folds its tasks on a pool worker (phase 2, `fold` — lanes share
    /// no mutable state, and fault/backoff sampling is pure in the
    /// invocation index), and lane-local traces, monitor observations
    /// and outcomes merge back in invocation order (phase 3, `merge`).
    /// The merged trace, outcomes and counters are bit-identical at any
    /// `jobs` count; `jobs <= 1` folds the lanes inline and is the
    /// sequential reference.
    ///
    /// Phase wall-clocks land in the `offload.phase.partition_us` /
    /// `offload.phase.fold_us` (one observation per lane) /
    /// `offload.phase.merge_us` histograms.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RuntimeError::OffloadFailed`] in
    /// invocation order.
    pub fn run_batch(
        &mut self,
        calls: &[OffloadCall],
        jobs: usize,
    ) -> RuntimeResult<Vec<OffloadOutcome>> {
        let mut span = everest_telemetry::span("offload.run_batch", "offload");
        span.attr("calls", calls.len());
        span.attr("jobs", jobs);
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let telemetry = everest_telemetry::metrics();
        let flight = everest_telemetry::flight();
        let first_task = self.invocations;
        self.invocations += calls.len() as u64;
        let nlanes = self.lanes.len() as u64;

        // Phase 1: deal invocations round-robin onto the lanes.
        let t_partition = Instant::now();
        let mut lane_tasks: Vec<Vec<(u64, &OffloadCall)>> =
            (0..nlanes).map(|_| Vec::with_capacity(calls.len() / nlanes as usize + 1)).collect();
        for (i, call) in calls.iter().enumerate() {
            let task = first_task + i as u64;
            lane_tasks[(task % nlanes) as usize].push((task, call));
        }
        let lanes = std::mem::take(&mut self.lanes);
        let items: Vec<(Lane, Vec<(u64, &OffloadCall)>)> =
            lanes.into_iter().zip(lane_tasks).collect();
        let partition_us = t_partition.elapsed().as_secs_f64() * 1e6;
        telemetry.observe("offload.phase.partition_us", partition_us);
        flight.marker("offload.phase.partition_us", partition_us);

        // Phase 2: fold every lane, concurrently on up to `jobs` pool
        // workers. Each lane's fold time is its own observation, so the
        // phase histogram accumulates lanes × batches samples.
        let plan = &self.plan;
        let retry = &self.retry;
        let chain = &self.chain;
        let pacing = self.pacing;
        let reports: Vec<LaneReport> = everest_workflow::pool::parallel_map(
            "offload.lane",
            jobs,
            items,
            |_, (lane, tasks)| fold_lane(plan, retry, chain, lane, &tasks, pacing),
        );
        for report in &reports {
            telemetry.observe("offload.phase.fold_us", report.fold_us);
            flight.marker("offload.phase.fold_us", report.fold_us);
        }

        // Phase 3: merge lane-local results back into invocation order.
        // Each lane's buffers are already task-ordered, so the merge is
        // a linear interleave steered by `task % nlanes`.
        let t_merge = Instant::now();
        let mut results = Vec::with_capacity(reports.len());
        let mut events = Vec::with_capacity(reports.len());
        let mut records = Vec::with_capacity(reports.len());
        let mut lanes_back = Vec::with_capacity(reports.len());
        for report in reports {
            lanes_back.push(report.lane);
            results.push(report.results.into_iter());
            events.push(report.events.into_iter().peekable());
            records.push(report.records.into_iter().peekable());
        }
        self.lanes = lanes_back;
        let mut outcomes = Vec::with_capacity(calls.len());
        for i in 0..calls.len() {
            let task = first_task + i as u64;
            let lane = (task % nlanes) as usize;
            while records[lane].peek().is_some_and(|r| r.0 == task) {
                let (_, latency, access, range) = records[lane].next().expect("peeked");
                self.monitor.record(latency, access, range);
            }
            while events[lane].peek().is_some_and(|e| e.task() == task) {
                self.events.push(events[lane].next().expect("peeked"));
            }
            outcomes.push(results[lane].next().expect("one result per task"));
        }
        let merge_us = t_merge.elapsed().as_secs_f64() * 1e6;
        telemetry.observe("offload.phase.merge_us", merge_us);
        flight.marker("offload.phase.merge_us", merge_us);
        outcomes.into_iter().collect()
    }

    #[cfg(test)]
    fn lane_devices(&self) -> Vec<Vec<&str>> {
        self.lanes
            .iter()
            .map(|l| l.targets.iter().map(|&i| self.chain[i].device.as_str()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(kernel: &str) -> OffloadCall {
        OffloadCall { kernel: kernel.into(), payload_bytes: 64 << 10, work_us: 400.0 }
    }

    fn manager(profile: &str, seed: u64) -> OffloadManager {
        let plan = FaultPlan::from_profile(profile, seed).unwrap();
        OffloadManager::for_system(&System::everest_reference(), plan).unwrap()
    }

    #[test]
    fn chain_orders_network_then_bus_then_cpu() {
        let mgr = manager("none", 1);
        let classes: Vec<TargetClass> = mgr.chain().iter().map(|t| t.class).collect();
        assert_eq!(classes.len(), 8, "7 FPGAs + CPU");
        let first_bus = classes.iter().position(|c| *c == TargetClass::BusFpga).unwrap();
        assert!(classes[..first_bus].iter().all(|c| *c == TargetClass::NetworkFpga));
        assert_eq!(*classes.last().unwrap(), TargetClass::HostCpu);
        // Network FPGAs resolve their link profile for rate lookup.
        assert_eq!(mgr.chain()[0].profile, Some(LinkProfile::UdpDatacenter));
    }

    #[test]
    fn healthy_plan_completes_on_first_rung_without_degradation() {
        let mut mgr = manager("none", 42);
        let outcome = mgr.execute(&call("fft")).unwrap();
        assert_eq!(outcome.attempts, 1);
        assert!(!outcome.degraded);
        assert_eq!(outcome.class, TargetClass::NetworkFpga);
        assert!(mgr.tripped_devices().is_empty());
    }

    #[test]
    fn meltdown_falls_back_to_cpu_and_reports_degraded() {
        let mut mgr = manager("meltdown", 7);
        // One call per lane kills every FPGA in that lane on first
        // contact; after a full round of the lanes all 7 are dead.
        for _ in 0..mgr.lane_count() {
            let outcome = mgr.execute(&call("fft")).unwrap();
            assert_eq!(outcome.class, TargetClass::HostCpu);
            assert!(outcome.degraded);
        }
        assert_eq!(mgr.tripped_devices().len(), 7);
        let next = mgr.execute(&call("fft")).unwrap();
        assert_eq!(next.class, TargetClass::HostCpu);
        // Dead devices are skipped, not re-attempted.
        assert_eq!(next.attempts, 1);
    }

    #[test]
    fn lanes_partition_fpgas_disjointly_and_share_the_cpu() {
        let mgr = manager("none", 1);
        let lanes = mgr.lane_devices();
        assert_eq!(lanes.len(), 7, "one lane per FPGA");
        // Every lane is one FPGA plus the shared CPU terminal.
        for lane in &lanes {
            assert_eq!(lane.len(), 2, "lane is [device, cpu]: {lane:?}");
            assert_eq!(*lane.last().unwrap(), "cloud-p9/cpu");
        }
        // The 7 FPGAs appear in exactly one lane each.
        let mut fpgas: Vec<&str> =
            lanes.iter().flatten().copied().filter(|d| *d != "cloud-p9/cpu").collect();
        fpgas.sort_unstable();
        let before = fpgas.len();
        fpgas.dedup();
        assert_eq!(before, 7);
        assert_eq!(fpgas.len(), 7, "no FPGA is shared between lanes");
    }

    #[test]
    fn fault_outcomes_are_pure_functions_of_their_inputs() {
        let plan = FaultPlan::from_profile("flaky", 99).unwrap();
        for invocation in 0..50 {
            for attempt in 0..4 {
                let a =
                    plan.outcome("rack/cf0", Some(LinkProfile::UdpDatacenter), invocation, attempt);
                let b =
                    plan.outcome("rack/cf0", Some(LinkProfile::UdpDatacenter), invocation, attempt);
                assert_eq!(a, b);
            }
        }
        // Different seeds decorrelate.
        let other = FaultPlan::from_profile("flaky", 100).unwrap();
        let same = (0..200).all(|i| {
            plan.outcome("d", Some(LinkProfile::TcpDatacenter), i, 0)
                == other.outcome("d", Some(LinkProfile::TcpDatacenter), i, 0)
        });
        assert!(!same);
    }

    #[test]
    fn rates_resolve_most_specific_key_first() {
        let lossy = FaultRates { drop: 0.5, ..FaultRates::NONE };
        let clean = FaultRates::NONE;
        let plan = FaultPlan::new(3, FaultRates { timeout: 0.1, ..FaultRates::NONE })
            .unwrap()
            .with_rates("udp-datacenter", lossy)
            .unwrap()
            .with_rates("rack/cf0", clean)
            .unwrap();
        assert_eq!(plan.rates_for("rack/cf0", Some(LinkProfile::UdpDatacenter)), clean);
        assert_eq!(plan.rates_for("rack/cf1", Some(LinkProfile::UdpDatacenter)), lossy);
        assert_eq!(plan.rates_for("p9/capi0", None).timeout, 0.1);
    }

    #[test]
    fn invalid_rates_and_unknown_profiles_rejected() {
        assert!(FaultPlan::new(0, FaultRates { drop: 1.2, ..FaultRates::NONE }).is_err());
        assert!(FaultPlan::new(
            0,
            FaultRates { drop: 0.6, timeout: 0.6, corrupt: 0.0, device_loss: 0.0 }
        )
        .is_err());
        let err = FaultPlan::from_profile("apocalypse", 0).unwrap_err();
        assert!(err.to_string().contains("apocalypse"));
        assert!(err.to_string().contains("meltdown"), "lists the valid profiles");
    }

    #[test]
    fn breaker_trips_probes_and_recloses() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after: 3,
            cooldown_us: 100.0,
            close_after: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(0.0));
        assert!(!b.on_failure(1.0));
        assert!(b.on_failure(2.0), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Still open inside the cooldown window.
        assert_eq!(b.poll(50.0), BreakerState::Open);
        assert_eq!(b.poll(102.0), BreakerState::HalfOpen);
        assert!(!b.on_success(), "first probe success is not enough");
        assert!(b.on_success(), "second probe success re-closes");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens_and_success_resets_closed_count() {
        let mut b =
            CircuitBreaker::new(BreakerConfig { trip_after: 2, cooldown_us: 10.0, close_after: 1 });
        b.on_failure(0.0);
        b.on_failure(0.0);
        assert_eq!(b.poll(20.0), BreakerState::HalfOpen);
        assert!(b.on_failure(20.0), "half-open failure re-trips immediately");
        assert_eq!(b.state(), BreakerState::Open);
        // A closed-state success clears the consecutive-failure count.
        let mut c = CircuitBreaker::new(BreakerConfig::default());
        c.on_failure(0.0);
        c.on_failure(0.0);
        c.on_success();
        assert!(!c.on_failure(1.0));
        assert!(!c.on_failure(2.0), "count restarted after the success");
    }

    #[test]
    fn force_open_is_permanent() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.force_open();
        assert_eq!(b.poll(f64::MAX / 2.0), BreakerState::Open);
    }

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let retry = RetryPolicy::default();
        for attempt in 1..=8 {
            let nominal = retry.nominal_backoff_us(attempt);
            assert!(nominal <= retry.cap_us);
            let jittered = retry.backoff_us(5, "rack/cf0", 3, attempt);
            assert!(jittered >= 0.5 * nominal && jittered < nominal);
            assert_eq!(jittered, retry.backoff_us(5, "rack/cf0", 3, attempt));
        }
        assert!(retry.nominal_backoff_us(2) > retry.nominal_backoff_us(1));
    }

    #[test]
    fn batch_trace_is_identical_at_any_job_count() {
        let calls: Vec<OffloadCall> = (0..24).map(|i| call(&format!("k{i}"))).collect();
        let mut serial = manager("flaky", 1234);
        let serial_out = serial.run_batch(&calls, 1).unwrap();
        for jobs in [2, 4, 8] {
            let mut parallel = manager("flaky", 1234);
            let out = parallel.run_batch(&calls, jobs).unwrap();
            assert_eq!(out, serial_out, "outcomes diverge at jobs={jobs}");
            assert_eq!(parallel.trace(), serial.trace(), "trace diverges at jobs={jobs}");
        }
        // The flaky profile actually exercises the recovery machinery.
        assert!(serial.trace().contains("backoff"), "expected retries in the trace");
    }

    #[test]
    fn pacing_changes_nothing_but_the_wall_clock() {
        let calls: Vec<OffloadCall> = (0..16).map(|i| call(&format!("k{i}"))).collect();
        let mut plain = manager("flaky", 77);
        let plain_out = plain.run_batch(&calls, 1).unwrap();
        // A huge scale keeps the owed real time under the sleep quantum,
        // so the test stays fast; the pacing arithmetic still runs.
        let mut paced = manager("flaky", 77).with_pacing(1e9);
        let paced_out = paced.run_batch(&calls, 4).unwrap();
        assert_eq!(paced_out, plain_out);
        assert_eq!(paced.trace(), plain.trace());
        assert_eq!(paced.tripped_devices(), plain.tripped_devices());
    }

    #[test]
    fn interleaved_execute_matches_batch() {
        let calls: Vec<OffloadCall> = (0..6).map(|i| call(&format!("k{i}"))).collect();
        let mut batch = manager("lossy", 9);
        batch.run_batch(&calls, 4).unwrap();
        let mut one_by_one = manager("lossy", 9);
        for c in &calls {
            one_by_one.execute(c).unwrap();
        }
        assert_eq!(one_by_one.trace(), batch.trace());
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(OffloadManager::new(vec![], FaultPlan::none(0)).is_err());
    }
}
