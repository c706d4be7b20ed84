//! Task graphs: DAGs of computational tasks with costs and data volumes.

use crate::error::{WorkflowError, WorkflowResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a task within one [`TaskGraph`].
pub type TaskId = usize;

/// One task: base cost (on a speed-1.0 worker) and output volume.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task name.
    pub name: String,
    /// Execution cost in microseconds on a reference worker.
    pub cost_us: f64,
    /// Bytes produced for each consumer.
    pub output_bytes: u64,
    /// Direct dependencies (must complete first).
    pub deps: Vec<TaskId>,
}

/// A directed acyclic graph of tasks. Acyclicity holds by construction:
/// dependencies must reference already-added tasks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGraph {
    /// Graph name (workflow name).
    pub name: String,
    tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> TaskGraph {
        TaskGraph { name: name.into(), tasks: Vec::new() }
    }

    /// Adds a task depending on `deps`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet (which also makes
    /// cycles unrepresentable), or if `cost_us` is negative or not finite.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        cost_us: f64,
        output_bytes: u64,
        deps: &[TaskId],
    ) -> TaskId {
        let id = self.tasks.len();
        for d in deps {
            assert!(*d < id, "dependency {d} does not exist yet");
        }
        let name = name.into();
        if let Err(e) = check_cost(&name, cost_us) {
            panic!("{e}");
        }
        self.tasks.push(TaskSpec { name, cost_us, output_bytes, deps: deps.to_vec() });
        id
    }

    /// Fallible variant of [`TaskGraph::add_task`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::UnknownTask`] for a forward/missing
    /// dependency and [`WorkflowError::InvalidCost`] for a cost that is
    /// negative or not finite.
    pub fn try_add_task(
        &mut self,
        name: impl Into<String>,
        cost_us: f64,
        output_bytes: u64,
        deps: &[TaskId],
    ) -> WorkflowResult<TaskId> {
        let id = self.tasks.len();
        for d in deps {
            if *d >= id {
                return Err(WorkflowError::UnknownTask(*d));
            }
        }
        let name = name.into();
        check_cost(&name, cost_us)?;
        Ok(self.add_task(name, cost_us, output_bytes, deps))
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id]
    }

    /// All tasks in id order (a valid topological order).
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total serial work (sum of costs).
    pub fn total_work_us(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost_us).sum()
    }

    /// Critical-path length (ignoring communication).
    pub fn critical_path_us(&self) -> f64 {
        let mut finish = vec![0.0f64; self.tasks.len()];
        let mut best: f64 = 0.0;
        for (id, t) in self.tasks.iter().enumerate() {
            let start = t.deps.iter().map(|d| finish[*d]).fold(0.0, f64::max);
            finish[id] = start + t.cost_us;
            best = best.max(finish[id]);
        }
        best
    }

    /// Upward rank of every task (HEFT priority): the longest cost path
    /// from the task to any exit, inclusive.
    ///
    /// One reverse pass: every successor of a task has a larger id, so
    /// when the pass reaches a task, `rank` already holds the largest rank
    /// among its successors, pushed there by each of them; the task then
    /// adds its own cost and pushes its rank into its dependencies.
    pub(crate) fn upward_ranks(&self) -> Vec<f64> {
        let mut rank = vec![0.0f64; self.tasks.len()];
        for (id, task) in self.tasks.iter().enumerate().rev() {
            let own = task.cost_us + rank[id];
            rank[id] = own;
            for d in &task.deps {
                rank[*d] = rank[*d].max(own);
            }
        }
        rank
    }

    /// [`TaskGraph::upward_ranks`] as it was first written, over successor
    /// lists: the reference the one-pass form is checked against.
    #[cfg(test)]
    pub(crate) fn upward_ranks_reference(&self) -> Vec<f64> {
        let mut succ = vec![Vec::new(); self.tasks.len()];
        for (id, t) in self.tasks.iter().enumerate() {
            for d in &t.deps {
                succ[*d].push(id);
            }
        }
        let mut rank = vec![0.0f64; self.tasks.len()];
        for id in (0..self.tasks.len()).rev() {
            let down = succ[id].iter().map(|s| rank[*s]).fold(0.0, f64::max);
            rank[id] = self.tasks[id].cost_us + down;
        }
        rank
    }

    // --- generators for benchmark topologies ----------------------------

    /// `n` independent tasks feeding one reducer (embarrassingly parallel).
    pub fn wide(n: usize, cost_us: f64, output_bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new(format!("wide-{n}"));
        let leaves: Vec<TaskId> =
            (0..n).map(|i| g.add_task(format!("map-{i}"), cost_us, output_bytes, &[])).collect();
        g.add_task("reduce", cost_us, output_bytes, &leaves);
        g
    }

    /// A chain of `n` tasks (fully sequential).
    pub fn deep(n: usize, cost_us: f64, output_bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new(format!("deep-{n}"));
        let mut prev: Option<TaskId> = None;
        for i in 0..n {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(g.add_task(format!("stage-{i}"), cost_us, output_bytes, &deps));
        }
        g
    }

    /// Fork-join diamond: source → `w` branches → sink.
    pub fn diamond(w: usize, cost_us: f64, output_bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new(format!("diamond-{w}"));
        let src = g.add_task("source", cost_us, output_bytes, &[]);
        let branches: Vec<TaskId> = (0..w)
            .map(|i| g.add_task(format!("branch-{i}"), cost_us, output_bytes, &[src]))
            .collect();
        g.add_task("sink", cost_us, output_bytes, &branches);
        g
    }

    /// A random layered DAG with reproducible structure.
    pub fn random(seed: u64, layers: usize, width: usize, cost_us: f64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = TaskGraph::new(format!("random-{seed}"));
        let mut prev_layer: Vec<TaskId> = Vec::new();
        for layer in 0..layers {
            let mut this_layer = Vec::new();
            for i in 0..width {
                let deps: Vec<TaskId> = if prev_layer.is_empty() {
                    Vec::new()
                } else {
                    let k = rng.gen_range(1..=prev_layer.len().min(3));
                    let mut ds = prev_layer.clone();
                    // Reproducible partial shuffle.
                    for j in (1..ds.len()).rev() {
                        let swap = rng.gen_range(0..=j);
                        ds.swap(j, swap);
                    }
                    ds.truncate(k);
                    ds
                };
                let cost = cost_us * rng.gen_range(0.5..2.0);
                let bytes = rng.gen_range(1_000..100_000);
                this_layer.push(g.add_task(format!("t{layer}_{i}"), cost, bytes, &deps));
            }
            prev_layer = this_layer;
        }
        g
    }
}

/// A task cost the schedulers can order by: finite and non-negative, so
/// upward rank never increases along an edge.
fn check_cost(task: &str, cost_us: f64) -> WorkflowResult<()> {
    if cost_us.is_finite() && cost_us >= 0.0 {
        Ok(())
    } else {
        Err(WorkflowError::InvalidCost { task: task.to_owned(), cost_us })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_deps_checked() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task("a", 1.0, 0, &[]);
        let b = g.add_task("b", 1.0, 0, &[a]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(g.try_add_task("c", 1.0, 0, &[9]), Err(WorkflowError::UnknownTask(9)));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new("g");
        g.add_task("a", 1.0, 0, &[1]);
    }

    #[test]
    fn negative_and_non_finite_costs_are_rejected() {
        let mut g = TaskGraph::new("g");
        for cost_us in [f64::NAN, -100.0, f64::INFINITY, f64::NEG_INFINITY] {
            let Err(WorkflowError::InvalidCost { task, cost_us: got }) =
                g.try_add_task("a", cost_us, 0, &[])
            else {
                panic!("cost {cost_us} accepted");
            };
            assert_eq!((task.as_str(), got.to_bits()), ("a", cost_us.to_bits()));
        }
        assert!(g.is_empty(), "a rejected task is not added");
        assert_eq!(g.try_add_task("free", 0.0, 0, &[]), Ok(0));
    }

    #[test]
    #[should_panic(expected = "task 'a' has cost NaN us")]
    fn nan_cost_panics() {
        TaskGraph::new("g").add_task("a", f64::NAN, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "task 'a' has cost -100 us")]
    fn negative_cost_panics() {
        TaskGraph::new("g").add_task("a", -100.0, 0, &[]);
    }

    #[test]
    fn critical_path_of_chain_is_total_work() {
        let g = TaskGraph::deep(5, 10.0, 0);
        assert_eq!(g.critical_path_us(), 50.0);
        assert_eq!(g.total_work_us(), 50.0);
    }

    #[test]
    fn critical_path_of_wide_graph_is_two_levels() {
        let g = TaskGraph::wide(10, 10.0, 0);
        assert_eq!(g.critical_path_us(), 20.0);
        assert_eq!(g.total_work_us(), 110.0);
    }

    #[test]
    fn diamond_structure() {
        let g = TaskGraph::diamond(4, 1.0, 0);
        assert_eq!(g.len(), 6);
        // The source feeds all branches.
        assert_eq!(g.tasks().iter().filter(|t| t.deps.contains(&0)).count(), 4);
        assert_eq!(g.task(5).deps.len(), 4); // sink joins all branches
    }

    #[test]
    fn upward_ranks_decrease_along_edges() {
        let g = TaskGraph::random(7, 4, 5, 100.0);
        let ranks = g.upward_ranks();
        for (id, t) in g.tasks().iter().enumerate() {
            for d in &t.deps {
                assert!(ranks[*d] > ranks[id], "rank must strictly decrease along edges");
            }
        }
    }

    #[test]
    fn one_pass_ranks_equal_the_successor_list_formula() {
        let mut zero_cost = TaskGraph::new("zero");
        for id in 0..40 {
            let deps: Vec<TaskId> = (0..id).filter(|d| (id * 7 + d * 3) % 5 == 0).collect();
            zero_cost.add_task(format!("t{id}"), (id % 3) as f64 * 10.0, 0, &deps);
        }
        let graphs = [
            TaskGraph::random(7, 4, 5, 100.0),
            TaskGraph::random(2026, 30, 20, 100.0),
            TaskGraph::wide(9, 3.0, 10),
            TaskGraph::diamond(6, 2.5, 0),
            TaskGraph::deep(12, 0.0, 0),
            zero_cost,
        ];
        for g in &graphs {
            let bits = |r: Vec<f64>| r.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(g.upward_ranks()), bits(g.upward_ranks_reference()), "{}", g.name);
        }
    }

    #[test]
    fn random_graphs_are_reproducible() {
        let a = TaskGraph::random(42, 3, 4, 50.0);
        let b = TaskGraph::random(42, 3, 4, 50.0);
        assert_eq!(a, b);
        let c = TaskGraph::random(43, 3, 4, 50.0);
        assert_ne!(a, c);
    }
}
