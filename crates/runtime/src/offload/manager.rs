//! The manager: builds the chain and its lanes, deals calls onto them
//! and merges the lane folds back into invocation order.

use super::breaker::{BreakerConfig, CircuitBreaker, RetryPolicy};
use super::event::{OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, TargetClass};
use super::fault::FaultPlan;
use super::lane::{fold_call, fold_lane, partition_lanes, Lane, LaneReport, MonitorRecord, Rung};
use crate::error::{RuntimeError, RuntimeResult};
use crate::monitor::RuntimeMonitor;
use everest_platform::{Attachment, Link, LinkProfile, System};
use std::fmt::Write as _;
use std::time::Instant;

/// Wraps remote kernel invocations with retry, circuit breaking and
/// graceful degradation. See the module docs for the full contract.
#[derive(Debug, Clone)]
pub struct OffloadManager {
    retry: RetryPolicy,
    chain: Vec<OffloadTarget>,
    lanes: Vec<Lane>,
    monitor: RuntimeMonitor,
    events: Vec<OffloadEvent>,
    /// Scratch of [`OffloadManager::execute`]: the monitor records of the
    /// call in flight. Empty between calls; kept so that a call does not
    /// allocate.
    records: Vec<MonitorRecord>,
    invocations: u64,
    pacing: Option<f64>,
}

impl OffloadManager {
    /// A manager over an explicit fallback chain.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] for an empty chain, or one too
    /// long for the 16-bit target index trace events carry.
    pub(crate) fn new(chain: Vec<OffloadTarget>, plan: FaultPlan) -> RuntimeResult<OffloadManager> {
        if chain.is_empty() {
            return Err(RuntimeError::Unknown("empty offload chain".to_owned()));
        }
        if chain.len() > usize::from(u16::MAX) + 1 {
            return Err(RuntimeError::Unknown(format!(
                "offload chain of {} targets (at most {})",
                chain.len(),
                usize::from(u16::MAX) + 1
            )));
        }
        // The plan is consumed here: each lane rung keeps what the plan
        // says about its target.
        let lanes = partition_lanes(&chain, &plan, BreakerConfig::default());
        Ok(OffloadManager {
            retry: RetryPolicy::default(),
            lanes,
            chain,
            monitor: RuntimeMonitor::new(0),
            events: Vec::new(),
            records: Vec::new(),
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
        self.rungs().find(|rung| usize::from(rung.target) == idx).map(|rung| &rung.breaker)
    }

    /// Every rung of every lane; the CPU terminal appears once per lane.
    fn rungs(&self) -> impl Iterator<Item = &Rung> {
        self.lanes.iter().flat_map(|lane| &lane.rungs)
    }

    /// Devices currently unusable: lost, or breaker not Closed.
    /// Reported in chain order.
    pub fn tripped_devices(&self) -> Vec<String> {
        let mut tripped = vec![false; self.chain.len()];
        for rung in self.rungs().filter(|rung| rung.is_tripped()) {
            tripped[usize::from(rung.target)] = true;
        }
        self.chain.iter().zip(tripped).filter(|(_, t)| *t).map(|(t, _)| t.device.clone()).collect()
    }

    /// The trace as one line per event (what `everestc offload` prints
    /// and what the determinism contract compares).
    pub fn trace(&self) -> String {
        // A line is 40–90 bytes.
        let mut out = String::with_capacity(64 * self.events.len());
        for event in &self.events {
            writeln!(out, "{}", event.display(&self.chain)).expect("writing to a String");
        }
        out
    }

    /// Executes one call on its lane (`task` modulo the lane count), with the
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
        let (result, stats) = fold_call(
            &self.retry,
            &mut self.lanes[lane_idx],
            task,
            call,
            &mut self.events,
            &mut self.records,
        );
        stats.publish();
        for (latency, access, range) in self.records.drain(..) {
            self.monitor.record(latency, access, range);
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
        let nlanes = self.lanes.len();
        let first_lane = (first_task % nlanes as u64) as usize;
        let slots = || round_robin_slots(first_lane, nlanes).take(calls.len());

        // Phase 1: deal invocations round-robin onto the lanes.
        let t_partition = Instant::now();
        let mut lane_tasks: Vec<Vec<(u64, &OffloadCall)>> =
            (0..nlanes).map(|_| Vec::with_capacity(calls.len() / nlanes + 1)).collect();
        for ((lane, _), (task, call)) in slots().zip((first_task..).zip(calls)) {
            lane_tasks[lane].push((task, call));
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
        let retry = &self.retry;
        let pacing = self.pacing;
        let mut reports: Vec<LaneReport> = everest_workflow::pool::parallel_map(
            "offload.lane",
            jobs,
            items,
            |_, (lane, tasks)| fold_lane(retry, lane, &tasks, pacing),
        );
        for report in &reports {
            report.stats.flush();
            telemetry.observe("offload.phase.fold_us", report.fold_us);
            flight.marker("offload.phase.fold_us", report.fold_us);
        }

        // Phase 3: merge lane-local results back into invocation order.
        // Each call's slot says which task of which lane it was, and each
        // report says where that task's events and records lie in its
        // buffers: the merge copies slices, it never looks inside an event.
        let t_merge = Instant::now();
        self.events.reserve(reports.iter().map(|r| r.events.len()).sum());
        for (lane, k) in slots() {
            self.events.extend_from_slice(reports[lane].task(k).0);
        }
        self.monitor
            .record_batch(slots().flat_map(|(lane, k)| reports[lane].task(k).1.iter().copied()));
        let mut results: Vec<_> =
            reports.iter_mut().map(|r| std::mem::take(&mut r.results).into_iter()).collect();
        let mut outcomes = Vec::with_capacity(calls.len());
        let mut first_error = None;
        for (lane, _) in slots() {
            match results[lane].next().expect("one result per task") {
                Ok(outcome) => outcomes.push(outcome),
                Err(error) => drop(first_error.get_or_insert(error)),
            }
        }
        self.lanes = reports.into_iter().map(|r| r.lane).collect();
        let merge_us = t_merge.elapsed().as_secs_f64() * 1e6;
        telemetry.observe("offload.phase.merge_us", merge_us);
        flight.marker("offload.phase.merge_us", merge_us);
        first_error.map_or(Ok(outcomes), Err)
    }

    #[cfg(test)]
    pub(super) fn lane_devices(&self) -> Vec<Vec<&str>> {
        self.lanes
            .iter()
            .map(|l| {
                l.rungs.iter().map(|r| self.chain[usize::from(r.target)].device.as_str()).collect()
            })
            .collect()
    }
}

/// The `(lane, k)` slot of each call of a batch dealt round-robin from
/// `first_lane`: the `i`-th call is the `i / nlanes`-th task of lane
/// `(first_lane + i) % nlanes`, stepped here without dividing.
fn round_robin_slots(first_lane: usize, nlanes: usize) -> impl Iterator<Item = (usize, usize)> {
    let (mut lane, mut dealt, mut k) = (first_lane, 0, 0);
    std::iter::from_fn(move || {
        let slot = (lane, k);
        lane = if lane + 1 == nlanes { 0 } else { lane + 1 };
        dealt += 1;
        if dealt == nlanes {
            dealt = 0;
            k += 1;
        }
        Some(slot)
    })
}

#[cfg(test)]
mod tests {
    use super::round_robin_slots;

    #[test]
    fn round_robin_slots_are_the_dealing_formula() {
        for nlanes in 1..7 {
            for first_lane in 0..nlanes {
                let stepped: Vec<_> = round_robin_slots(first_lane, nlanes).take(50).collect();
                let divided: Vec<_> =
                    (0..50).map(|i| ((first_lane + i) % nlanes, i / nlanes)).collect();
                assert_eq!(stepped, divided, "{nlanes} lanes from {first_lane}");
            }
        }
    }
}
