//! The simulated distributed executor: applies a scheduling policy to a
//! task graph over a worker pool and reports the resulting timeline.

use crate::error::{WorkflowError, WorkflowResult};
use crate::graph::{TaskGraph, TaskId};
use crate::scheduler::{task_order, AssignState, Policy};
use crate::worker::Worker;

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy used.
    pub policy: Policy,
    /// Overall makespan in microseconds.
    pub makespan_us: f64,
    /// Worker index per task.
    pub assignment: Vec<usize>,
    /// Start time per task.
    pub start: Vec<f64>,
    /// Finish time per task.
    pub finish: Vec<f64>,
    /// Busy time per worker.
    pub worker_busy_us: Vec<f64>,
    /// Worker indices (into the full pool) that were excluded from this
    /// run — tripped devices the offload layer took out of rotation.
    pub excluded_workers: Vec<usize>,
    /// `true` when the run completed without its full worker pool (some
    /// workers were excluded), i.e. the system ran in degraded mode.
    pub degraded: bool,
}

impl RunReport {
    /// Parallel speedup versus serial execution on a speed-1 worker.
    pub fn speedup(&self, graph: &TaskGraph) -> f64 {
        if self.makespan_us <= 0.0 {
            return 1.0;
        }
        graph.total_work_us() / self.makespan_us
    }

    /// Mean worker utilization (busy / makespan).
    pub fn mean_utilization(&self) -> f64 {
        if self.makespan_us <= 0.0 || self.worker_busy_us.is_empty() {
            return 0.0;
        }
        let total: f64 = self.worker_busy_us.iter().sum();
        total / (self.makespan_us * self.worker_busy_us.len() as f64)
    }

    /// Tasks assigned to worker `w`.
    pub fn tasks_on(&self, w: usize) -> Vec<TaskId> {
        self.assignment.iter().enumerate().filter(|(_, a)| **a == w).map(|(t, _)| t).collect()
    }

    /// Partitions all tasks by worker in one pass over the assignment
    /// vector: `partition[w]` lists the tasks worker `w` ran. Tasks
    /// assigned beyond `workers` are skipped, mirroring [`Self::tasks_on`]
    /// returning an empty list for an out-of-range worker.
    pub fn worker_partition(&self, workers: usize) -> Vec<Vec<TaskId>> {
        let mut partition = vec![Vec::new(); workers];
        for (task, &w) in self.assignment.iter().enumerate() {
            if let Some(lane) = partition.get_mut(w) {
                lane.push(task);
            }
        }
        partition
    }

    /// Converts the timeline into Chrome trace events: exactly one `B`/`E`
    /// pair per task, on the tid of the worker that ran it, so a scheduled
    /// run renders as a per-worker Gantt chart in `chrome://tracing`.
    ///
    /// Emission walks a [`Self::worker_partition`] built in one pass —
    /// not one assignment scan per worker — with each lane's tasks sorted
    /// by start time. Because tasks on one worker never overlap, pushing
    /// each task's `E` before the next task's `B` already yields the
    /// per-lane timestamp order Chrome requires (end before begin on
    /// ties), so no global sort is needed.
    pub fn trace_events(&self, graph: &TaskGraph) -> Vec<everest_telemetry::TraceEvent> {
        let workers =
            self.worker_busy_us.len().max(self.assignment.iter().map(|w| w + 1).max().unwrap_or(0));
        let mut partition = self.worker_partition(workers);
        let mut events = Vec::with_capacity(self.assignment.len() * 2);
        for (worker, lane) in partition.iter_mut().enumerate() {
            lane.sort_by(|a, b| self.start[*a].total_cmp(&self.start[*b]));
            let tid = worker as u32;
            for &task in lane.iter() {
                let name = graph.tasks().get(task).map(|t| t.name.as_str()).unwrap_or("task");
                events.push(
                    everest_telemetry::TraceEvent::begin(
                        name,
                        "workflow",
                        self.start[task] as u64,
                        everest_telemetry::export::WORKFLOW_PID,
                        tid,
                    )
                    .with_arg("task", task)
                    .with_arg("worker", worker)
                    .with_arg("policy", self.policy),
                );
                events.push(everest_telemetry::TraceEvent::end(
                    name,
                    "workflow",
                    self.finish[task] as u64,
                    everest_telemetry::export::WORKFLOW_PID,
                    tid,
                ));
            }
        }
        events
    }
}

/// Simulates executing `graph` on `workers` under `policy`.
///
/// # Errors
///
/// Returns [`WorkflowError::NoWorkers`] for an empty pool.
pub fn simulate(
    graph: &TaskGraph,
    workers: &[Worker],
    policy: Policy,
) -> WorkflowResult<RunReport> {
    let available = vec![true; workers.len()];
    simulate_available(graph, workers, policy, &available)
}

/// Simulates executing `graph` on the subset of `workers` marked `true` in
/// `available`, rescheduling everything off the excluded ones. Task indices
/// in the report refer to the *full* pool, so callers can correlate a
/// degraded run with the healthy topology; excluded workers simply end up
/// with zero busy time and no tasks. This is how the runtime's offload
/// layer takes a tripped or lost device out of rotation (paper Fig. 2's
/// adaptation loop) without the scheduler learning about fault plans.
///
/// # Errors
///
/// Returns [`WorkflowError::NoWorkers`] for an empty pool, when
/// `available` does not cover the pool, or when every worker is excluded.
pub fn simulate_available(
    graph: &TaskGraph,
    workers: &[Worker],
    policy: Policy,
    available: &[bool],
) -> WorkflowResult<RunReport> {
    if workers.is_empty() || available.len() != workers.len() {
        return Err(WorkflowError::NoWorkers);
    }
    // Compact the pool to the available workers, keeping a map back to
    // full-pool indices so the report speaks the caller's language.
    let keep: Vec<usize> = (0..workers.len()).filter(|w| available[*w]).collect();
    if keep.is_empty() {
        return Err(WorkflowError::NoWorkers);
    }
    let excluded: Vec<usize> = (0..workers.len()).filter(|w| !available[*w]).collect();
    let pool: Vec<Worker> = keep.iter().map(|w| workers[*w].clone()).collect();

    let mut span = everest_telemetry::span("workflow.simulate", "workflow");
    span.attr("tasks", graph.len());
    span.attr("workers", pool.len());
    span.attr("excluded", excluded.len());
    span.attr("policy", policy);
    let mut st = AssignState::new(graph.len(), &pool);
    for task in task_order(graph, policy) {
        let w = st.choose(graph, &pool, task, policy);
        st.place(graph, &pool, task, w);
    }
    let makespan = st.finish.iter().copied().fold(0.0, f64::max);
    let mut busy = vec![0.0; workers.len()];
    let assignment: Vec<usize> = st.assignment.iter().map(|w| keep[*w]).collect();
    for (t, w) in assignment.iter().enumerate() {
        busy[*w] += st.finish[t] - st.start[t];
    }
    Ok(RunReport {
        policy,
        makespan_us: makespan,
        assignment,
        start: st.start,
        finish: st.finish,
        worker_busy_us: busy,
        degraded: !excluded.is_empty(),
        excluded_workers: excluded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_is_an_error() {
        let g = TaskGraph::wide(4, 10.0, 0);
        assert_eq!(simulate(&g, &[], Policy::Fifo).unwrap_err(), WorkflowError::NoWorkers);
    }

    #[test]
    fn single_worker_makespan_is_total_work() {
        let g = TaskGraph::wide(8, 10.0, 0);
        let w = Worker::uniform_pool(1, 1.0);
        let run = simulate(&g, &w, Policy::MinLoad).unwrap();
        assert!((run.makespan_us - g.total_work_us()).abs() < 1e-6);
        assert!((run.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wide_graphs_scale_with_workers() {
        let g = TaskGraph::wide(32, 100.0, 0);
        let one = simulate(&g, &Worker::uniform_pool(1, 1.0), Policy::Heft).unwrap();
        let eight = simulate(&g, &Worker::uniform_pool(8, 1.0), Policy::Heft).unwrap();
        assert!(eight.makespan_us < one.makespan_us / 4.0);
        assert!(eight.speedup(&g) > 4.0);
    }

    #[test]
    fn deep_graphs_do_not_scale() {
        let g = TaskGraph::deep(16, 100.0, 0);
        let one = simulate(&g, &Worker::uniform_pool(1, 1.0), Policy::Heft).unwrap();
        let eight = simulate(&g, &Worker::uniform_pool(8, 1.0), Policy::Heft).unwrap();
        // A chain cannot go faster than its critical path.
        assert!(eight.makespan_us >= g.critical_path_us());
        assert!(eight.makespan_us <= one.makespan_us + 1e-9);
    }

    #[test]
    fn heft_beats_fifo_on_heterogeneous_pools() {
        let g = TaskGraph::random(3, 6, 8, 500.0);
        let workers = Worker::heterogeneous_pool(2, 6);
        let fifo = simulate(&g, &workers, Policy::Fifo).unwrap();
        let heft = simulate(&g, &workers, Policy::Heft).unwrap();
        assert!(
            heft.makespan_us <= fifo.makespan_us,
            "HEFT {} should not lose to FIFO {}",
            heft.makespan_us,
            fifo.makespan_us
        );
    }

    #[test]
    fn schedule_respects_dependencies_and_exclusivity() {
        let g = TaskGraph::random(9, 5, 6, 200.0);
        let workers = Worker::uniform_pool(3, 1.0);
        for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
            let run = simulate(&g, &workers, policy).unwrap();
            // Dependencies.
            for (id, t) in g.tasks().iter().enumerate() {
                for d in &t.deps {
                    assert!(run.start[id] >= run.finish[*d] - 1e-9, "{policy}: dep violated");
                }
            }
            // Worker exclusivity: tasks on one worker do not overlap.
            for w in 0..workers.len() {
                let mut spans: Vec<(f64, f64)> =
                    run.tasks_on(w).iter().map(|t| (run.start[*t], run.finish[*t])).collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for pair in spans.windows(2) {
                    assert!(pair[1].0 >= pair[0].1 - 1e-9, "{policy}: overlap on worker {w}");
                }
            }
        }
    }

    #[test]
    fn zero_makespan_report_has_neutral_metrics() {
        // A degenerate report (no work scheduled) must not divide by zero.
        let report = RunReport {
            policy: Policy::Fifo,
            makespan_us: 0.0,
            assignment: vec![],
            start: vec![],
            finish: vec![],
            worker_busy_us: vec![0.0, 0.0],
            excluded_workers: vec![],
            degraded: false,
        };
        let g = TaskGraph::wide(2, 10.0, 0);
        assert_eq!(report.speedup(&g), 1.0);
        assert_eq!(report.mean_utilization(), 0.0);
        assert!(report.tasks_on(0).is_empty());
    }

    #[test]
    fn empty_worker_set_report_has_zero_utilization() {
        let report = RunReport {
            policy: Policy::Heft,
            makespan_us: 42.0,
            assignment: vec![],
            start: vec![],
            finish: vec![],
            worker_busy_us: vec![],
            excluded_workers: vec![],
            degraded: false,
        };
        assert_eq!(report.mean_utilization(), 0.0);
        assert!(report.tasks_on(3).is_empty());
    }

    #[test]
    fn full_pool_run_is_not_degraded() {
        let g = TaskGraph::wide(4, 10.0, 0);
        let run = simulate(&g, &Worker::uniform_pool(2, 1.0), Policy::Fifo).unwrap();
        assert!(!run.degraded);
        assert!(run.excluded_workers.is_empty());
    }

    #[test]
    fn excluded_workers_get_no_tasks_and_the_run_reports_degraded() {
        let g = TaskGraph::random(21, 5, 6, 250.0);
        let workers = Worker::uniform_pool(4, 1.0);
        let available = [true, false, true, false];
        let run = simulate_available(&g, &workers, Policy::Heft, &available).unwrap();
        assert!(run.degraded);
        assert_eq!(run.excluded_workers, vec![1, 3]);
        // Assignment indices still refer to the full pool, and excluded
        // workers stay idle.
        assert!(run.assignment.iter().all(|w| available[*w]));
        assert_eq!(run.worker_busy_us.len(), workers.len());
        assert_eq!(run.worker_busy_us[1], 0.0);
        assert_eq!(run.worker_busy_us[3], 0.0);
        assert!(run.tasks_on(1).is_empty());
        // Losing half the pool cannot speed the schedule up.
        let healthy = simulate(&g, &workers, Policy::Heft).unwrap();
        assert!(run.makespan_us >= healthy.makespan_us - 1e-9);
    }

    #[test]
    fn excluding_every_worker_is_an_error() {
        let g = TaskGraph::wide(4, 10.0, 0);
        let workers = Worker::uniform_pool(2, 1.0);
        assert_eq!(
            simulate_available(&g, &workers, Policy::Fifo, &[false, false]).unwrap_err(),
            WorkflowError::NoWorkers
        );
        // A mask that does not cover the pool is rejected too.
        assert_eq!(
            simulate_available(&g, &workers, Policy::Fifo, &[true]).unwrap_err(),
            WorkflowError::NoWorkers
        );
    }

    #[test]
    fn tasks_on_partitions_all_tasks() {
        let g = TaskGraph::random(5, 7, 4, 300.0);
        let workers = Worker::uniform_pool(3, 1.0);
        let run = simulate(&g, &workers, Policy::MinLoad).unwrap();
        let mut seen = vec![false; g.len()];
        for w in 0..workers.len() {
            for t in run.tasks_on(w) {
                assert!(!seen[t], "task {t} listed on two workers");
                seen[t] = true;
                assert_eq!(run.assignment[t], w);
            }
        }
        assert!(seen.iter().all(|s| *s));
        // Out-of-range worker indices are empty, not a panic.
        assert!(run.tasks_on(workers.len()).is_empty());
    }

    #[test]
    fn worker_partition_matches_tasks_on() {
        let g = TaskGraph::random(17, 6, 9, 350.0);
        let workers = Worker::uniform_pool(4, 1.0);
        let run = simulate(&g, &workers, Policy::Heft).unwrap();
        let partition = run.worker_partition(workers.len());
        assert_eq!(partition.len(), workers.len());
        for (w, lane) in partition.iter().enumerate() {
            assert_eq!(lane, &run.tasks_on(w));
        }
        assert_eq!(partition.iter().map(Vec::len).sum::<usize>(), g.len());
        // Asking for fewer lanes than workers drops the out-of-range tasks
        // rather than panicking, like `tasks_on` with an out-of-range index.
        let truncated = run.worker_partition(1);
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated[0], run.tasks_on(0));
    }

    #[test]
    fn trace_events_emit_one_begin_end_pair_per_task_on_its_worker_tid() {
        use everest_telemetry::export::{Phase, WORKFLOW_PID};
        let g = TaskGraph::random(11, 6, 8, 400.0);
        let workers = Worker::uniform_pool(3, 1.0);
        let run = simulate(&g, &workers, Policy::Heft).unwrap();
        let events = run.trace_events(&g);
        assert_eq!(events.len(), 2 * g.len());
        for (task, spec) in g.tasks().iter().enumerate() {
            let task_begins: Vec<_> = events
                .iter()
                .filter(|e| {
                    e.ph == Phase::Begin && e.args.contains(&("task".to_owned(), task.to_string()))
                })
                .collect();
            assert_eq!(task_begins.len(), 1, "task {task} must have exactly one B event");
            let begin = task_begins[0];
            assert_eq!(begin.name, spec.name);
            assert_eq!(begin.tid, run.assignment[task] as u32, "task {task} on wrong tid");
            assert_eq!(begin.pid, WORKFLOW_PID);
            assert_eq!(begin.ts_us, run.start[task] as u64);
        }
        // Globally: one E per B, and per tid the lane is well-nested
        // (non-overlapping tasks ⇒ depth alternates 0→1→0).
        let begins = events.iter().filter(|e| e.ph == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.ph == Phase::End).count();
        assert_eq!(begins, g.len());
        assert_eq!(ends, g.len());
        for w in 0..workers.len() {
            let mut depth = 0i32;
            for e in events.iter().filter(|e| e.tid == w as u32) {
                match e.ph {
                    Phase::Begin => depth += 1,
                    Phase::End => depth -= 1,
                    _ => {}
                }
                assert!((0..=1).contains(&depth), "lane {w} is not well-nested");
            }
            assert_eq!(depth, 0);
        }
    }

    #[test]
    fn report_accessors() {
        let g = TaskGraph::diamond(3, 10.0, 100);
        let run = simulate(&g, &Worker::uniform_pool(2, 1.0), Policy::Heft).unwrap();
        let all: usize = (0..2).map(|w| run.tasks_on(w).len()).sum();
        assert_eq!(all, g.len());
        assert!(run.mean_utilization() > 0.0 && run.mean_utilization() <= 1.0);
    }
}
