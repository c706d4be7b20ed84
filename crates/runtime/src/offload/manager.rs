//! The manager: builds the chain and its lanes, deals calls onto them
//! and merges the lane folds back into invocation order.

use super::breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use super::event::{OffloadCall, OffloadEvent, OffloadOutcome, OffloadTarget, TargetClass};
use super::fault::FaultPlan;
use super::lane::{fold_call, fold_lane, partition_lanes, Lane, LaneReport, LaneStats};
use crate::error::{RuntimeError, RuntimeResult};
use crate::monitor::RuntimeMonitor;
use everest_platform::{Attachment, Link, LinkProfile, System};
use std::time::Instant;

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
    pub(super) fn lane_devices(&self) -> Vec<Vec<&str>> {
        self.lanes
            .iter()
            .map(|l| l.targets.iter().map(|&i| self.chain[i].device.as_str()).collect())
            .collect()
    }
}
