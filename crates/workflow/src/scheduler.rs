//! Scheduling policies for mapping task graphs onto workers.

use crate::graph::{TaskGraph, TaskId};
use crate::worker::Worker;

/// Available scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Tasks in id order, workers round-robin — the naive baseline.
    Fifo,
    /// Tasks in id order, each to the worker with the earliest finish time
    /// for it (greedy, ignores communication).
    MinLoad,
    /// Heterogeneous Earliest Finish Time: tasks by upward rank, each to
    /// the worker minimizing its finish time *including* data-arrival
    /// times.
    Heft,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Policy::Fifo => "fifo",
            Policy::MinLoad => "min-load",
            Policy::Heft => "heft",
        };
        f.write_str(s)
    }
}

/// The order in which a policy considers tasks (always a topological
/// order).
pub fn task_order(graph: &TaskGraph, policy: Policy) -> Vec<TaskId> {
    match policy {
        Policy::Fifo | Policy::MinLoad => (0..graph.len()).collect(),
        Policy::Heft => {
            let ranks = graph.upward_ranks();
            let mut order: Vec<TaskId> = (0..graph.len()).collect();
            // Higher rank first; stable by id. Upward rank strictly
            // decreases along edges, so this is topological.
            order.sort_by(|a, b| ranks[*b].total_cmp(&ranks[*a]).then(a.cmp(b)));
            order
        }
    }
}

/// State carried while assigning: per-worker availability and per-task
/// placement/finish, shared by every policy.
#[derive(Debug, Clone)]
pub struct AssignState {
    /// Worker availability times.
    pub avail: Vec<f64>,
    /// Chosen worker per task.
    pub assignment: Vec<usize>,
    /// Start time per task.
    pub start: Vec<f64>,
    /// Finish time per task.
    pub finish: Vec<f64>,
    rr_cursor: usize,
    /// Scratch of [`AssignState::choose`]: `(finish, assignment,
    /// output_bytes)` of each input of the task being placed, gathered
    /// once per task instead of once per candidate worker.
    inputs: Vec<(f64, usize, u64)>,
}

/// The first index in `0..n` whose `key` is smallest under `total_cmp` —
/// the index `Iterator::min_by` would pick with that comparator — calling
/// `key` once per index rather than twice per comparison.
fn first_min(n: usize, mut key: impl FnMut(usize) -> f64) -> usize {
    (0..n).map(|i| (i, key(i))).min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty worker pool").0
}

impl AssignState {
    /// Fresh state for `tasks` tasks and `workers` workers.
    pub fn new(tasks: usize, workers: usize) -> AssignState {
        AssignState {
            avail: vec![0.0; workers],
            assignment: vec![usize::MAX; tasks],
            start: vec![0.0; tasks],
            finish: vec![0.0; tasks],
            rr_cursor: 0,
            inputs: Vec::new(),
        }
    }

    /// Earliest time every input of `task` is present on `worker`.
    pub fn data_ready(
        &self,
        graph: &TaskGraph,
        workers: &[Worker],
        task: TaskId,
        worker: usize,
    ) -> f64 {
        graph
            .task(task)
            .deps
            .iter()
            .map(|d| {
                let produced = self.finish[*d];
                if self.assignment[*d] == worker {
                    produced
                } else {
                    produced + workers[worker].transfer_time(graph.task(*d).output_bytes)
                }
            })
            .fold(0.0, f64::max)
    }

    /// Places `task` on `worker`, updating the timelines.
    pub fn place(&mut self, graph: &TaskGraph, workers: &[Worker], task: TaskId, worker: usize) {
        let ready = self.data_ready(graph, workers, task, worker);
        let start = ready.max(self.avail[worker]);
        let finish = start + workers[worker].exec_time(graph.task(task).cost_us);
        self.assignment[task] = worker;
        self.start[task] = start;
        self.finish[task] = finish;
        self.avail[worker] = finish;
    }

    /// Picks the worker for `task` according to `policy` (without placing).
    pub fn choose(
        &mut self,
        graph: &TaskGraph,
        workers: &[Worker],
        task: TaskId,
        policy: Policy,
    ) -> usize {
        match policy {
            Policy::Fifo => {
                let w = self.rr_cursor % workers.len();
                self.rr_cursor += 1;
                w
            }
            Policy::MinLoad => {
                // Earliest finish ignoring communication.
                let cost_us = graph.task(task).cost_us;
                first_min(workers.len(), |w| self.avail[w] + workers[w].exec_time(cost_us))
            }
            Policy::Heft => {
                let spec = graph.task(task);
                self.inputs.clear();
                self.inputs.extend(
                    spec.deps.iter().map(|d| {
                        (self.finish[*d], self.assignment[*d], graph.task(*d).output_bytes)
                    }),
                );
                // The earliest finish time on `w`: `data_ready`, over the
                // gathered inputs, then the worker's own availability. The
                // arrival expression is restated here, not shared with
                // `data_ready` through a helper over an input iterator:
                // that form placed a task 3 ns (Fifo: 12 %) slower.
                let (inputs, avail) = (&self.inputs, &self.avail);
                first_min(workers.len(), |w| {
                    let ready = inputs
                        .iter()
                        .map(|&(produced, on, bytes)| {
                            if on == w {
                                produced
                            } else {
                                produced + workers[w].transfer_time(bytes)
                            }
                        })
                        .fold(0.0, f64::max);
                    ready.max(avail[w]) + workers[w].exec_time(spec.cost_us)
                })
            }
        }
    }

    /// [`AssignState::choose`] as it was first written: the finish time
    /// computed inside the comparator, for both sides of every
    /// comparison, through [`AssignState::data_ready`]. The reference the
    /// single-evaluation scan is checked against.
    #[cfg(test)]
    fn choose_reference(
        &mut self,
        graph: &TaskGraph,
        workers: &[Worker],
        task: TaskId,
        policy: Policy,
    ) -> usize {
        match policy {
            Policy::Fifo => self.choose(graph, workers, task, policy),
            Policy::MinLoad => (0..workers.len())
                .min_by(|a, b| {
                    let fa = self.avail[*a] + workers[*a].exec_time(graph.task(task).cost_us);
                    let fb = self.avail[*b] + workers[*b].exec_time(graph.task(task).cost_us);
                    fa.total_cmp(&fb)
                })
                .expect("non-empty worker pool"),
            Policy::Heft => (0..workers.len())
                .min_by(|a, b| {
                    let eft = |w: usize| {
                        let ready = self.data_ready(graph, workers, task, w);
                        ready.max(self.avail[w]) + workers[w].exec_time(graph.task(task).cost_us)
                    };
                    eft(*a).total_cmp(&eft(*b))
                })
                .expect("non-empty worker pool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heft_order_is_topological() {
        let g = TaskGraph::random(11, 5, 4, 100.0);
        let order = task_order(&g, Policy::Heft);
        let mut pos = vec![0usize; g.len()];
        for (i, t) in order.iter().enumerate() {
            pos[*t] = i;
        }
        for (id, t) in g.tasks().iter().enumerate() {
            for d in &t.deps {
                assert!(pos[*d] < pos[id], "dep {d} scheduled after {id}");
            }
        }
    }

    #[test]
    fn fifo_round_robins() {
        let g = TaskGraph::wide(4, 10.0, 0);
        let workers = Worker::uniform_pool(2, 1.0);
        let mut st = AssignState::new(g.len(), workers.len());
        let w0 = st.choose(&g, &workers, 0, Policy::Fifo);
        let w1 = st.choose(&g, &workers, 1, Policy::Fifo);
        let w2 = st.choose(&g, &workers, 2, Policy::Fifo);
        assert_eq!((w0, w1, w2), (0, 1, 0));
    }

    #[test]
    fn minload_prefers_faster_worker() {
        let g = TaskGraph::deep(1, 100.0, 0);
        let workers = Worker::heterogeneous_pool(1, 1);
        let mut st = AssignState::new(g.len(), workers.len());
        let w = st.choose(&g, &workers, 0, Policy::MinLoad);
        assert_eq!(w, 0, "fast (fpga) worker should win");
    }

    #[test]
    fn heft_accounts_for_data_locality() {
        // chain a -> b with a large intermediate: HEFT should co-locate.
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", 10.0, 10_000_000, &[]);
        let _b = g.add_task("b", 10.0, 0, &[a]);
        let workers = Worker::uniform_pool(2, 1.0);
        let mut st = AssignState::new(g.len(), workers.len());
        let wa = st.choose(&g, &workers, 0, Policy::Heft);
        st.place(&g, &workers, 0, wa);
        let wb = st.choose(&g, &workers, 1, Policy::Heft);
        assert_eq!(wa, wb, "HEFT should keep the big intermediate local");
    }

    #[test]
    fn single_evaluation_scan_picks_what_the_comparator_picked() {
        // Uniform pools are all ties (the first minimum must win);
        // heterogeneous ones mix transfer costs into the finish times.
        for (seed, workers) in [
            (1, Worker::uniform_pool(5, 1.0)),
            (2, Worker::heterogeneous_pool(2, 6)),
            (3, Worker::heterogeneous_pool(8, 24)),
        ] {
            let g = TaskGraph::random(seed, 8, 12, 300.0);
            for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
                let mut fast = AssignState::new(g.len(), workers.len());
                let mut slow = fast.clone();
                for task in task_order(&g, policy) {
                    let w = fast.choose(&g, &workers, task, policy);
                    assert_eq!(w, slow.choose_reference(&g, &workers, task, policy), "{policy}");
                    fast.place(&g, &workers, task, w);
                    slow.place(&g, &workers, task, w);
                }
            }
        }
    }

    #[test]
    fn place_respects_dependencies() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", 50.0, 100, &[]);
        let b = g.add_task("b", 50.0, 0, &[a]);
        let workers = Worker::uniform_pool(2, 1.0);
        let mut st = AssignState::new(g.len(), workers.len());
        st.place(&g, &workers, a, 0);
        st.place(&g, &workers, b, 1);
        assert!(st.start[b] >= st.finish[a], "consumer waits for producer + transfer");
    }
}
