//! Scheduling policies for mapping task graphs onto workers.
//!
//! List scheduling prices each task once per cost class — workers whose
//! speed, latency and per-byte cost have equal bits — rather than once
//! per worker, and picks the first earliest-finishing worker by comparing
//! integer keys instead of floats under `total_cmp`. Both leave every
//! schedule bit-identical to the per-worker comparator form, which the
//! tests keep as the reference.

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
            // Higher rank first, then lower id. Costs are non-negative, so
            // rank never increases along an edge and a dependency (lower
            // id) comes first on a tie: the order is topological. The
            // pairs are unique, so the unstable sort gives the order of
            // the stable comparator sort.
            let mut keyed: Vec<(i64, TaskId)> =
                graph.upward_ranks().iter().map(|r| !total_key(*r)).zip(0..).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, id)| id).collect()
        }
    }
}

/// `f64::total_cmp` as an integer order: `total_key(a) < total_key(b)`
/// exactly when `a.total_cmp(&b)` is `Less` (the same bit transform).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The first index holding the smallest key: with keys from
/// [`total_key`], the index `Iterator::min_by(total_cmp)` picks over the
/// floats, ties included. Integer compares keep the loop-carried chain
/// one compare-and-select long.
fn first_min(keys: &[i64]) -> usize {
    keys.iter().enumerate().min_by_key(|(_, k)| **k).expect("non-empty worker pool").0
}

/// The bits that price a task on a worker: workers equal in all three
/// form one cost class.
fn price_bits(w: &Worker) -> [u64; 3] {
    [w.speed.to_bits(), w.latency_us.to_bits(), w.us_per_byte.to_bits()]
}

/// What the task being placed costs on the workers of one class.
#[derive(Debug, Clone, Copy, Default)]
struct ClassPrice {
    /// Execution time.
    exec: f64,
    /// Largest input arrival (`finish + transfer`), or 0.
    arrival: f64,
    /// The worker holding an input that arrives at `arrival`.
    holder: usize,
    /// Largest arrival among the inputs not on `holder`, or 0.
    other: f64,
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
    /// Cost class of each worker of the pool.
    class_of: Vec<usize>,
    /// One worker of each class, which prices a task for all of them.
    class_rep: Vec<usize>,
    /// Scratch of [`AssignState::choose`], one entry per class.
    prices: Vec<ClassPrice>,
    /// Scratch: `(finish, assignment, output_bytes)` of each input of the
    /// task being placed.
    inputs: Vec<(f64, usize, u64)>,
    /// Scratch: per worker, the largest finish among the inputs it holds
    /// (0 between calls).
    local: Vec<f64>,
    /// Scratch: per worker, its finish time as a [`total_key`].
    keys: Vec<i64>,
}

impl AssignState {
    /// Fresh state for `tasks` tasks on `pool`, the pool every later call
    /// passes. Workers whose `speed`, `latency_us` and `us_per_byte` have
    /// equal bits are grouped into one cost class here, once.
    pub fn new(tasks: usize, pool: &[Worker]) -> AssignState {
        let mut class_rep: Vec<usize> = Vec::new();
        let class_of = pool
            .iter()
            .enumerate()
            .map(|(w, worker)| {
                let bits = price_bits(worker);
                class_rep.iter().position(|r| price_bits(&pool[*r]) == bits).unwrap_or_else(|| {
                    class_rep.push(w);
                    class_rep.len() - 1
                })
            })
            .collect();
        AssignState {
            avail: vec![0.0; pool.len()],
            assignment: vec![usize::MAX; tasks],
            start: vec![0.0; tasks],
            finish: vec![0.0; tasks],
            rr_cursor: 0,
            class_of,
            prices: vec![ClassPrice::default(); class_rep.len()],
            class_rep,
            inputs: Vec::new(),
            local: vec![0.0; pool.len()],
            keys: vec![0; pool.len()],
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

    /// Picks the worker for `task` according to `policy` (without placing):
    /// the first worker with the earliest finish time under `total_cmp`.
    ///
    /// A task is priced once per cost class, not once per worker: its
    /// execution time and, for HEFT, the largest input arrival on the
    /// class's workers with the worker holding that input, plus the
    /// largest arrival among inputs on any other worker. A worker's data
    /// is ready at the largest of the finishes of the inputs it holds and
    /// the arrival of the rest: the second value on the holder, the first
    /// on every other worker. Every operand is the IEEE operation of
    /// [`AssignState::data_ready`] on the same inputs, and `f64::max` is
    /// exact and independent of order, so each finish time has the bits
    /// the per-worker formula gives. The first minimum is then taken over
    /// integer keys ([`first_min`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is not as long as the pool the state was built
    /// for.
    pub fn choose(
        &mut self,
        graph: &TaskGraph,
        workers: &[Worker],
        task: TaskId,
        policy: Policy,
    ) -> usize {
        assert_eq!(workers.len(), self.class_of.len(), "not the pool this state was built for");
        match policy {
            Policy::Fifo => {
                let w = self.rr_cursor % workers.len();
                self.rr_cursor += 1;
                return w;
            }
            Policy::MinLoad => {
                // Earliest finish ignoring communication.
                let cost_us = graph.task(task).cost_us;
                for (price, rep) in self.prices.iter_mut().zip(&self.class_rep) {
                    price.exec = workers[*rep].exec_time(cost_us);
                }
                for ((key, avail), class) in
                    self.keys.iter_mut().zip(&self.avail).zip(&self.class_of)
                {
                    *key = total_key(avail + self.prices[*class].exec);
                }
            }
            Policy::Heft => {
                let spec = graph.task(task);
                self.inputs.clear();
                self.inputs.extend(
                    spec.deps.iter().map(|d| {
                        (self.finish[*d], self.assignment[*d], graph.task(*d).output_bytes)
                    }),
                );
                for (price, rep) in self.prices.iter_mut().zip(&self.class_rep) {
                    let worker = &workers[*rep];
                    let mut p = ClassPrice {
                        exec: worker.exec_time(spec.cost_us),
                        arrival: 0.0,
                        holder: usize::MAX,
                        other: 0.0,
                    };
                    for &(produced, on, bytes) in &self.inputs {
                        let arrival = produced + worker.transfer_time(bytes);
                        if on == p.holder {
                            p.arrival = p.arrival.max(arrival);
                        } else if arrival > p.arrival {
                            // The old largest sits on another worker than
                            // `on`, and nothing arrives later.
                            p.other = p.arrival;
                            p.arrival = arrival;
                            p.holder = on;
                        } else {
                            p.other = p.other.max(arrival);
                        }
                    }
                    *price = p;
                }
                // An input not placed yet is held by no worker.
                for &(produced, on, _) in &self.inputs {
                    if let Some(local) = self.local.get_mut(on) {
                        *local = local.max(produced);
                    }
                }
                for (w, ((key, avail), (class, local))) in self
                    .keys
                    .iter_mut()
                    .zip(&self.avail)
                    .zip(self.class_of.iter().zip(&self.local))
                    .enumerate()
                {
                    let p = &self.prices[*class];
                    let remote = if w == p.holder { p.other } else { p.arrival };
                    *key = total_key(local.max(remote).max(*avail) + p.exec);
                }
                for &(_, on, _) in &self.inputs {
                    if let Some(local) = self.local.get_mut(on) {
                        *local = 0.0;
                    }
                }
            }
        }
        first_min(&self.keys)
    }

    /// [`AssignState::choose`] as it was first written: the finish time
    /// computed inside the comparator, for both sides of every
    /// comparison, through [`AssignState::data_ready`]. The reference the
    /// per-class pricing and the first-minimum scan are checked against.
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
        let mut st = AssignState::new(g.len(), &workers);
        let w0 = st.choose(&g, &workers, 0, Policy::Fifo);
        let w1 = st.choose(&g, &workers, 1, Policy::Fifo);
        let w2 = st.choose(&g, &workers, 2, Policy::Fifo);
        assert_eq!((w0, w1, w2), (0, 1, 0));
    }

    #[test]
    fn minload_prefers_faster_worker() {
        let g = TaskGraph::deep(1, 100.0, 0);
        let workers = Worker::heterogeneous_pool(1, 1);
        let mut st = AssignState::new(g.len(), &workers);
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
        let mut st = AssignState::new(g.len(), &workers);
        let wa = st.choose(&g, &workers, 0, Policy::Heft);
        st.place(&g, &workers, 0, wa);
        let wb = st.choose(&g, &workers, 1, Policy::Heft);
        assert_eq!(wa, wb, "HEFT should keep the big intermediate local");
    }

    /// Fast and slow workers interleaved with two that share the fast
    /// speed but not its latency or its per-byte cost, some repeated.
    fn mixed_pool() -> Vec<Worker> {
        let fpga = |i| Worker::new(format!("fpga{i}"), 4.0, 1.0 / 1.2e3, 4.0);
        let cpu = |i| Worker::new(format!("cpu{i}"), 1.0, 1.0 / 1.1e3, 25.0);
        vec![
            fpga(0),
            cpu(0),
            Worker::new("far-fpga", 4.0, 1.0 / 1.2e3, 25.0),
            fpga(1),
            Worker::new("slow-link-fpga", 4.0, 1.0 / 1.1e3, 4.0),
            cpu(1),
            cpu(2),
        ]
    }

    /// Every worker's finish time for `task` by the per-worker formula,
    /// as the keys [`AssignState::choose`] leaves in its scratch.
    fn reference_keys(
        st: &AssignState,
        g: &TaskGraph,
        workers: &[Worker],
        task: TaskId,
        policy: Policy,
    ) -> Vec<i64> {
        let cost_us = g.task(task).cost_us;
        (0..workers.len())
            .map(|w| {
                let ready = match policy {
                    Policy::Heft => st.data_ready(g, workers, task, w).max(st.avail[w]),
                    _ => st.avail[w],
                };
                total_key(ready + workers[w].exec_time(cost_us))
            })
            .collect()
    }

    #[test]
    fn single_evaluation_scan_picks_what_the_comparator_picked() {
        // Uniform pools are all ties (the first minimum must win);
        // heterogeneous ones mix transfer costs into the finish times.
        for (seed, workers) in [
            (1, Worker::uniform_pool(5, 1.0)),
            (2, Worker::heterogeneous_pool(2, 6)),
            (3, Worker::heterogeneous_pool(8, 24)),
            (4, mixed_pool()),
        ] {
            let g = TaskGraph::random(seed, 8, 12, 300.0);
            for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
                let mut fast = AssignState::new(g.len(), &workers);
                let mut slow = fast.clone();
                for task in task_order(&g, policy) {
                    let w = fast.choose(&g, &workers, task, policy);
                    assert_eq!(w, slow.choose_reference(&g, &workers, task, policy), "{policy}");
                    if policy != Policy::Fifo {
                        let want = reference_keys(&slow, &g, &workers, task, policy);
                        assert_eq!(fast.keys, want, "{policy}: task {task}");
                    }
                    fast.place(&g, &workers, task, w);
                    slow.place(&g, &workers, task, w);
                }
            }
        }
    }

    #[test]
    fn every_placement_of_three_inputs_prices_like_the_reference() {
        // The largest input on the candidate worker, on the worker of the
        // second largest, on a worker of the same class or of another;
        // zero-byte and zero-cost inputs tie on arrival.
        let mut g = TaskGraph::new("join");
        let big = g.add_task("big", 40.0, 100_000, &[]);
        let mid = g.add_task("mid", 0.0, 50_000, &[]);
        let empty = g.add_task("empty", 10.0, 0, &[]);
        let join = g.add_task("join", 30.0, 0, &[big, mid, empty]);
        let fpga = |name: &str| Worker::new(name, 4.0, 1.0 / 1.2e3, 4.0);
        let cpu = Worker::new("cpu", 1.0, 1.0 / 1.1e3, 25.0);
        for workers in [
            vec![fpga("a"), fpga("b"), cpu.clone()],
            vec![fpga("a"), Worker::new("far", 4.0, 1.0 / 1.2e3, 25.0), cpu.clone()],
            vec![fpga("a"), Worker::new("slow-link", 4.0, 1.0 / 1.1e3, 4.0), cpu.clone()],
            vec![cpu.clone(), fpga("a"), Worker::new("far", 4.0, 1.0 / 1.2e3, 25.0), fpga("b")],
        ] {
            let n = workers.len();
            for placed in 0..n * n * n {
                let mut st = AssignState::new(g.len(), &workers);
                st.place(&g, &workers, big, placed % n);
                st.place(&g, &workers, mid, placed / n % n);
                st.place(&g, &workers, empty, placed / n / n);
                for policy in [Policy::MinLoad, Policy::Heft] {
                    let w = st.choose(&g, &workers, join, policy);
                    assert_eq!(st.keys, reference_keys(&st, &g, &workers, join, policy));
                    assert_eq!(w, st.clone().choose_reference(&g, &workers, join, policy));
                }
            }
        }
    }

    #[test]
    fn heft_order_equals_the_stable_sort_over_reference_ranks() {
        let mut ties = TaskGraph::new("ties");
        for id in 0..30 {
            let deps: Vec<TaskId> = (0..id).filter(|d| (id + d) % 4 == 0).collect();
            ties.add_task(format!("t{id}"), [0.0, 5.0, 5.0][id % 3], 0, &deps);
        }
        for g in [
            TaskGraph::random(11, 5, 4, 100.0),
            TaskGraph::random(2026, 40, 25, 100.0),
            TaskGraph::wide(12, 10.0, 0),
            TaskGraph::diamond(5, 0.0, 0),
            TaskGraph::deep(8, 1.0, 0),
            ties,
        ] {
            let ranks = g.upward_ranks_reference();
            let mut want: Vec<TaskId> = (0..g.len()).collect();
            want.sort_by(|a, b| ranks[*b].total_cmp(&ranks[*a]).then(a.cmp(b)));
            assert_eq!(task_order(&g, Policy::Heft), want, "{}", g.name);
        }
    }

    #[test]
    fn place_respects_dependencies() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", 50.0, 100, &[]);
        let b = g.add_task("b", 50.0, 0, &[a]);
        let workers = Worker::uniform_pool(2, 1.0);
        let mut st = AssignState::new(g.len(), &workers);
        st.place(&g, &workers, a, 0);
        st.place(&g, &workers, b, 1);
        assert!(st.start[b] >= st.finish[a], "consumer waits for producer + transfer");
    }
}
