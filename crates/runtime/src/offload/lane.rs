//! The lane fold: one call through retry, breaker and fallback, and a
//! lane's share of a batch.
//!
//! Everything the fold needs to know about a target is resolved when the
//! manager is built and kept in the lane's [`Rung`]: the chain index that
//! trace events carry, link and speedup, the shared device name, the
//! [`FaultKey`] and the backoff seed word. A call therefore costs its
//! arithmetic — one ChaCha draw per attempt on a target that can fault,
//! none on one that cannot — and no heap allocation, map look-up or name
//! hash per event, rung or attempt. What a call adds to the `offload.*`
//! metrics comes back as a [`CallStats`], which a lane fold sums locally
//! and the single-call path publishes as is.

use super::breaker::{backoff_key, BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use super::event::{
    OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, SkipReason, TargetClass,
};
use super::fault::{FaultKey, FaultKind, FaultPlan};
use super::trace::LaneTrace;
use crate::error::{RuntimeError, RuntimeResult};
use everest_platform::Link;
use everest_telemetry::{EventKind, LogHistogram};
use std::sync::Arc;
use std::time::Instant;

/// One rung of a lane: a chain target as the fold sees it, plus the
/// recovery state the lane keeps for it.
#[derive(Debug, Clone)]
pub(super) struct Rung {
    /// Index of the target in the chain; what trace events carry.
    pub(super) target: u16,
    class: TargetClass,
    link: Link,
    speedup: f64,
    /// The device name, shared with every outcome that completes here.
    /// Each lane holds its own copy, so lanes folding in parallel never
    /// touch one reference count — the CPU terminal sits on all of them.
    name: Arc<str>,
    faults: FaultKey,
    backoff_key: u64,
    pub(super) breaker: CircuitBreaker,
    /// Permanent-loss flag.
    pub(super) lost: bool,
}

impl Rung {
    fn new(index: usize, target: &OffloadTarget, plan: &FaultPlan, cfg: BreakerConfig) -> Rung {
        Rung {
            target: u16::try_from(index).expect("the manager bounds the chain length"),
            class: target.class,
            link: target.link,
            speedup: target.speedup,
            name: Arc::from(target.device.as_str()),
            faults: if target.class == TargetClass::HostCpu {
                // The reference kernel is local: no injected faults.
                FaultKey::NEVER
            } else {
                plan.key_for(&target.device, target.profile)
            },
            backoff_key: backoff_key(plan.seed(), &target.device),
            breaker: CircuitBreaker::new(cfg),
            lost: false,
        }
    }

    /// Lost, or breaker not Closed.
    pub(super) fn is_tripped(&self) -> bool {
        self.lost || self.breaker.state() != BreakerState::Closed
    }
}

/// One fold lane: a disjoint slice of the fallback chain rooted at a
/// primary device, ending in the shared (stateless) CPU terminal. The
/// lane owns all mutable recovery state — breakers, loss flags and the
/// virtual clock — for its rungs, so lanes fold concurrently without
/// sharing anything mutable.
#[derive(Debug, Clone)]
pub(super) struct Lane {
    /// The targets this lane tries, in preference order.
    pub(super) rungs: Vec<Rung>,
    /// The lane's simulated clock, microseconds.
    pub(super) clock_us: f64,
    /// Scratch: the flight events of the call being folded, recorded as
    /// one group (one clock read, one ring lock) when the call ends.
    pub(super) flight: Vec<(EventKind, &'static str, f64)>,
}

impl Lane {
    fn new(rungs: Vec<Rung>) -> Lane {
        Lane { rungs, clock_us: 0.0, flight: Vec::new() }
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
pub(super) fn partition_lanes(
    chain: &[OffloadTarget],
    plan: &FaultPlan,
    cfg: BreakerConfig,
) -> Vec<Lane> {
    let rung = |i: usize| Rung::new(i, &chain[i], plan, cfg);
    let is_cpu = |i: &usize| chain[*i].class == TargetClass::HostCpu;
    let fpgas: Vec<usize> = (0..chain.len()).filter(|i| !is_cpu(i)).collect();
    if fpgas.is_empty() {
        return vec![Lane::new((0..chain.len()).map(rung).collect())];
    }
    fpgas
        .into_iter()
        .map(|root| {
            let terminals = (0..chain.len()).filter(is_cpu);
            Lane::new(std::iter::once(root).chain(terminals).map(rung).collect())
        })
        .collect()
}

/// The `offload.*` counters, as deltas to add to the registry.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    completed: u64,
    faults: u64,
    retries: u64,
    fallbacks: u64,
    device_loss: u64,
    breaker_open: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.completed += other.completed;
        self.faults += other.faults;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.device_loss += other.device_loss;
        self.breaker_open += other.breaker_open;
    }

    fn publish(&self) {
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
    }
}

/// What one call adds to the `offload.*` metrics: counter deltas, and
/// the call's one observation for each per-call histogram.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct CallStats {
    counters: Counters,
    /// Attempts across the whole lane (`offload.call.attempts`).
    attempts: u32,
    /// For a call that completed: the successful attempt's latency
    /// (`offload.latency_us`) and the whole call's simulated time
    /// (`offload.call.sim_us`).
    completed: Option<(f64, f64)>,
}

impl CallStats {
    /// Publishes one call straight to the registry: what the single-call
    /// path does, where lane-local histograms would cost more to
    /// allocate and merge than the three observations they save.
    pub(super) fn publish(&self) {
        let telemetry = everest_telemetry::metrics();
        self.counters.publish();
        if let Some((latency_us, sim_us)) = self.completed {
            telemetry.observe("offload.latency_us", latency_us);
            telemetry.observe("offload.call.sim_us", sim_us);
        }
        telemetry.observe("offload.call.attempts", f64::from(self.attempts));
    }
}

/// Lane-local telemetry, so the hot loop never takes the registry lock.
/// The merge flushes it once per lane fold, in lane order — not the pool
/// worker, whenever it happens to finish — so that the histograms'
/// floating-point sums do not depend on `jobs` or on thread timing.
#[derive(Default)]
pub(super) struct LaneStats {
    counters: Counters,
    latency: LogHistogram,
    sim: LogHistogram,
    attempts: LogHistogram,
}

impl LaneStats {
    fn add(&mut self, call: &CallStats) {
        self.counters.add(&call.counters);
        if let Some((latency_us, sim_us)) = call.completed {
            self.latency.observe(latency_us);
            self.sim.observe(sim_us);
        }
        self.attempts.observe(f64::from(call.attempts));
    }

    pub(super) fn flush(&self) {
        let telemetry = everest_telemetry::metrics();
        self.counters.publish();
        telemetry.merge_histogram("offload.latency_us", &self.latency);
        telemetry.merge_histogram("offload.call.sim_us", &self.sim);
        telemetry.merge_histogram("offload.call.attempts", &self.attempts);
    }
}

/// A monitor observation deferred until the merge phase:
/// `(latency_us, access_alarm, range_alarm)`. The EWMA monitor is
/// order-sensitive, so lanes queue observations and the merge replays
/// them in invocation order.
pub(super) type MonitorRecord = (f64, bool, bool);

/// Everything one lane fold produces, merged back on the caller thread.
pub(super) struct LaneReport {
    pub(super) lane: Lane,
    pub(super) results: Vec<RuntimeResult<OffloadOutcome>>,
    /// The lane's trace events, kept by the manager as they are.
    pub(super) trace: LaneTrace,
    records: Vec<MonitorRecord>,
    /// Per task, where its monitor records end in `records`.
    record_ends: Vec<u32>,
    pub(super) stats: LaneStats,
    pub(super) fold_us: f64,
}

impl LaneReport {
    /// The monitor records of the lane's `k`-th task.
    pub(super) fn records(&self, k: usize) -> &[MonitorRecord] {
        let start = if k == 0 { 0 } else { self.record_ends[k - 1] as usize };
        &self.records[start..self.record_ends[k] as usize]
    }
}

/// Folds one call through its lane: retry, breaker and fallback, with
/// fault outcomes and backoff jitter sampled inline (they are pure in
/// `(seed, device, task, attempt)`, so inline sampling is identical to
/// pre-sampling). Mutates only lane-local state; trace events and
/// monitor observations queue into the caller's buffers for the merge,
/// and the call's flight events into `lane.flight`, for the caller to
/// record as one group (or to count, when its ring would drop them).
pub(super) fn fold_call(
    retry: &RetryPolicy,
    lane: &mut Lane,
    task: u64,
    call: &OffloadCall,
    events: &mut Vec<OffloadEvent>,
    records: &mut Vec<MonitorRecord>,
) -> (RuntimeResult<OffloadOutcome>, CallStats) {
    let Lane { rungs, clock_us, flight } = lane;
    let clock_start = *clock_us;
    let mut stats = CallStats::default();

    // Causal context: attempt spans opened below nest under this call
    // span, so a recorded trace links every retry/backoff/fallback to
    // the call that caused it.
    let mut call_span = everest_telemetry::span("offload.call", "offload");
    call_span.attr("task", task);
    call_span.attr("kernel", &call.kernel);
    flight.clear();
    flight.push((EventKind::SpanBegin, "offload.call", task as f64));

    let completed = 'rungs: {
        for li in 0..rungs.len() {
            let next = rungs.get(li + 1).map(|r| r.target);
            let rung = &mut rungs[li];
            let device = rung.target;
            // Whether the rung was attempted at all before the call left it.
            let tried = 'rung: {
                if rung.lost {
                    let reason = SkipReason::DeviceLost;
                    events.push(OffloadEvent::Skip { device, reason });
                    break 'rung false;
                }
                match rung.breaker.poll(*clock_us) {
                    BreakerState::Open => {
                        let reason = SkipReason::BreakerOpen;
                        events.push(OffloadEvent::Skip { device, reason });
                        break 'rung false;
                    }
                    BreakerState::HalfOpen => {
                        events.push(OffloadEvent::BreakerHalfOpen { device });
                    }
                    BreakerState::Closed => {}
                }

                let transfer_us = rung.link.transfer_us(call.payload_bytes);
                let compute_us = call.work_us / rung.speedup;
                let mut abandoned = false;
                for attempt in 0..retry.max_attempts.max(1) {
                    events.push(OffloadEvent::Attempt { device, attempt });
                    stats.attempts += 1;
                    let mut attempt_span = everest_telemetry::span("offload.attempt", "offload");
                    attempt_span.attr("task", task);
                    attempt_span.attr("device", &rung.name);
                    attempt_span.attr("attempt", attempt);
                    flight.push((EventKind::Marker, "offload.attempt", attempt as f64));
                    let Some(kind) = rung.faults.outcome(task, attempt) else {
                        let latency = transfer_us + compute_us;
                        *clock_us += latency;
                        records.push((latency, false, false));
                        if rung.breaker.on_success() {
                            events.push(OffloadEvent::BreakerClosed { device });
                        }
                        let (attempts, elapsed_us) = (stats.attempts, *clock_us);
                        events.push(OffloadEvent::Completed { device, attempts, elapsed_us });
                        stats.counters.completed = 1;
                        stats.completed = Some((latency, elapsed_us - clock_start));
                        break 'rungs Some(OffloadOutcome {
                            task,
                            device: Arc::clone(&rung.name),
                            class: rung.class,
                            attempts,
                            elapsed_us,
                            degraded: li != 0,
                        });
                    };
                    stats.counters.faults += 1;
                    flight.push((EventKind::CounterAdd, "offload.faults", 1.0));
                    events.push(OffloadEvent::Fault { device, attempt, kind });
                    // Cost of the failed attempt: a corrupt result came
                    // back (full round trip, checksum reject);
                    // everything else burns the deadline.
                    let penalty = match kind {
                        FaultKind::Corrupt => transfer_us + compute_us,
                        _ => retry.timeout_us,
                    };
                    *clock_us += penalty;
                    records.push((penalty, false, kind == FaultKind::Corrupt));
                    if kind == FaultKind::DeviceLoss {
                        rung.lost = true;
                        rung.breaker.force_open();
                        stats.counters.device_loss += 1;
                        flight.push((EventKind::Marker, "offload.device_loss", task as f64));
                        events.push(OffloadEvent::DeviceLost { device });
                        abandoned = true;
                        break;
                    }
                    if rung.breaker.on_failure(*clock_us) {
                        stats.counters.breaker_open += 1;
                        flight.push((EventKind::Marker, "offload.breaker_open", task as f64));
                        events.push(OffloadEvent::BreakerOpened { device });
                        abandoned = true;
                        break;
                    }
                    let retry_no = attempt + 1;
                    if retry_no >= retry.max_attempts {
                        abandoned = true;
                        break;
                    }
                    let wait_us = retry.keyed_backoff_us(rung.backoff_key, task, retry_no);
                    *clock_us += wait_us;
                    stats.counters.retries += 1;
                    flight.push((EventKind::Marker, "offload.backoff_us", wait_us));
                    events.push(OffloadEvent::Backoff { device, attempt: retry_no, wait_us });
                }
                debug_assert!(abandoned, "loop only exits via success or abandonment");
                true
            };
            // The call moves down the lane; the fallback is counted only
            // when the abandoned rung was actually attempted.
            if let Some(to) = next {
                events.push(OffloadEvent::Fallback { from: device, to });
                if tried {
                    stats.counters.fallbacks += 1;
                    flight.push((EventKind::Marker, "offload.fallback", task as f64));
                }
            }
        }
        None
    };
    flight.push((EventKind::SpanEnd, "offload.call", *clock_us - clock_start));
    let result = completed.ok_or_else(|| RuntimeError::OffloadFailed {
        kernel: call.kernel.clone(),
        attempts: stats.attempts,
    });
    (result, stats)
}

/// Below this, a pacing lag is carried to the next call instead of
/// slept: timer slack makes micro-sleeps overshoot badly.
const PACING_QUANTUM_US: f64 = 200.0;

/// Folds every task assigned to one lane, in task order, on the calling
/// pool worker.
///
/// A call records its flight events only when the thread's ring can
/// still hold them once the fold returns. Every call records at least two
/// (its `offload.call` begin and end), and one that completes at least
/// three (an `offload.attempt` marker too). A lane whose last rung is the
/// host CPU completes every call, since that rung cannot fault. So a call
/// followed by more than `capacity / 3` further calls of such a lane, or
/// `capacity / 2` of any other, is overwritten by them: the fold records
/// none of its events and adds their count to the ring's written total
/// instead, once per lane. After the fold the ring holds the same events,
/// in the same order, with the same `dropped`, as if every call had
/// recorded. What differs is what a dump taken by another thread while
/// the lane folds can see: that lane's events only from its last
/// `capacity / 3 + 1` (or `capacity / 2 + 1`) calls on.
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
    retry: &RetryPolicy,
    lane: Lane,
    tasks: &[(u64, &OffloadCall)],
    pacing: Option<f64>,
) -> LaneReport {
    let capacity = everest_telemetry::flight().capacity();
    let ends_on_host = lane.rungs.last().is_some_and(|r| r.class == TargetClass::HostCpu);
    let events_per_call = if ends_on_host { 3 } else { 2 };
    let recorded_from = tasks.len().saturating_sub(capacity / events_per_call + 1);
    fold_lane_recording_from(retry, lane, tasks, pacing, recorded_from)
}

/// The fold that records every call's flight events: the reference the
/// skip above is tested against.
#[cfg(test)]
pub(super) fn fold_lane_recording_every_call(
    retry: &RetryPolicy,
    lane: Lane,
    tasks: &[(u64, &OffloadCall)],
) -> LaneReport {
    fold_lane_recording_from(retry, lane, tasks, None, 0)
}

/// [`fold_lane`], recording the flight events of the tasks from
/// `recorded_from` on and counting those of the tasks before it.
fn fold_lane_recording_from(
    retry: &RetryPolicy,
    mut lane: Lane,
    tasks: &[(u64, &OffloadCall)],
    pacing: Option<f64>,
    recorded_from: usize,
) -> LaneReport {
    let t = Instant::now();
    let flight = everest_telemetry::flight();
    let clock_start = lane.clock_us;
    let mut results = Vec::with_capacity(tasks.len());
    // Sized for the steady state of a faulty lane, so that the buffers
    // are not doubled (copied, and their new half paged in) once per
    // batch: a call that skips a dead rung and completes on the next
    // makes four events (skip, fallback, attempt, completed) and one
    // monitor record; the slack and the second record absorb the calls
    // that retry. What a healthy lane leaves untouched is never paged in,
    // and a lane that needs more still grows.
    let mut trace = LaneTrace::with_capacity(tasks.len(), 4 * tasks.len() + 64);
    let mut records = Vec::with_capacity(2 * tasks.len());
    let mut record_ends = Vec::with_capacity(tasks.len());
    let mut stats = LaneStats::default();
    let mut overwritten = 0;
    for (k, &(task, call)) in tasks.iter().enumerate() {
        let (result, call_stats) =
            fold_call(retry, &mut lane, task, call, &mut trace.events, &mut records);
        if k < recorded_from {
            overwritten += lane.flight.len() as u64;
        } else {
            flight.record_all(&lane.flight);
        }
        results.push(result);
        trace.end_task();
        record_ends.push(u32::try_from(records.len()).expect("a lane holds < 2^32 records"));
        stats.add(&call_stats);
        if let Some(scale) = pacing {
            let owed_us = (lane.clock_us - clock_start) / scale;
            let lag_us = owed_us - t.elapsed().as_secs_f64() * 1e6;
            if lag_us > PACING_QUANTUM_US {
                std::thread::sleep(std::time::Duration::from_secs_f64(lag_us / 1e6));
            }
        }
    }
    if overwritten > 0 {
        flight.record_overwritten(overwritten);
    }
    let fold_us = t.elapsed().as_secs_f64() * 1e6;
    LaneReport { lane, results, trace, records, record_ends, stats, fold_us }
}
