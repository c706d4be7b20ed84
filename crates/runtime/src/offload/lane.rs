//! The lane fold: one call through retry, breaker and fallback, and a
//! lane's share of a batch.

use super::breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use super::event::{OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, TargetClass};
use super::fault::{FaultKind, FaultPlan};
use crate::error::{RuntimeError, RuntimeResult};
use everest_telemetry::LogHistogram;
use std::time::Instant;

/// One fold lane: a disjoint slice of the fallback chain rooted at a
/// primary device, ending in the shared (stateless) CPU terminal. The
/// lane owns all mutable recovery state — breakers, loss flags and the
/// virtual clock — for its rungs, so lanes fold concurrently without
/// sharing anything mutable.
#[derive(Debug, Clone)]
pub(super) struct Lane {
    /// Chain indices this lane tries, in preference order.
    pub(super) targets: Vec<usize>,
    /// Breaker per rung (parallel to `targets`).
    pub(super) breakers: Vec<CircuitBreaker>,
    /// Permanent-loss flag per rung (parallel to `targets`).
    pub(super) lost: Vec<bool>,
    /// The lane's simulated clock, microseconds.
    pub(super) clock_us: f64,
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
pub(super) fn partition_lanes(chain: &[OffloadTarget], cfg: BreakerConfig) -> Vec<Lane> {
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
pub(super) struct LaneStats {
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
    pub(super) fn new() -> LaneStats {
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

    pub(super) fn flush(&self) {
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
pub(super) type MonitorRecord = (u64, f64, bool, bool);

/// Everything one lane fold produces, merged back on the caller thread.
pub(super) struct LaneReport {
    pub(super) lane: Lane,
    pub(super) results: Vec<RuntimeResult<OffloadOutcome>>,
    pub(super) events: Vec<OffloadEvent>,
    pub(super) records: Vec<MonitorRecord>,
    pub(super) fold_us: f64,
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
pub(super) fn fold_call(
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
pub(super) fn fold_lane(
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
