//! A real multi-threaded executor: runs closures as tasks with
//! dependency-ordered hand-off across a thread pool — the in-process
//! equivalent of HyperLoom's worker processes.

use crate::error::{WorkflowError, WorkflowResult};
use crate::graph::TaskId;
use crossbeam::channel;
use parking_lot::RwLock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

type TaskFn<T> = Arc<dyn Fn(&[Arc<T>]) -> Result<T, String> + Send + Sync>;

struct ParallelTask<T> {
    name: String,
    deps: Vec<TaskId>,
    run: TaskFn<T>,
}

/// A graph of executable closures.
///
/// ```
/// use everest_workflow::parallel::ParallelGraph;
///
/// let mut g: ParallelGraph<i64> = ParallelGraph::new();
/// let a = g.add_task("a", &[], |_| Ok(2));
/// let b = g.add_task("b", &[], |_| Ok(3));
/// let _ = g.add_task("sum", &[a, b], |ins| Ok(*ins[0] + *ins[1]));
/// let results = g.run(4).unwrap();
/// assert_eq!(*results[2], 5);
/// ```
pub struct ParallelGraph<T> {
    tasks: Vec<ParallelTask<T>>,
}

impl<T> Default for ParallelGraph<T> {
    fn default() -> ParallelGraph<T> {
        ParallelGraph { tasks: Vec::new() }
    }
}

impl<T: Send + Sync + 'static> ParallelGraph<T> {
    /// Creates an empty graph.
    pub fn new() -> ParallelGraph<T> {
        ParallelGraph::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task computing from its dependencies' outputs.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id does not exist yet.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        deps: &[TaskId],
        run: impl Fn(&[Arc<T>]) -> Result<T, String> + Send + Sync + 'static,
    ) -> TaskId {
        let id = self.tasks.len();
        for d in deps {
            assert!(*d < id, "dependency {d} does not exist yet");
        }
        self.tasks.push(ParallelTask {
            name: name.into(),
            deps: deps.to_vec(),
            run: Arc::new(run),
        });
        id
    }

    /// Executes the graph on `threads` worker threads and returns every
    /// task's output (indexed by task id).
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::TaskFailed`] with the first failing task
    /// (a task that panics fails with reason `panicked: <message>`);
    /// remaining tasks are abandoned.
    pub fn run(self, threads: usize) -> WorkflowResult<Vec<Arc<T>>> {
        let threads = threads.max(1);
        let n = self.tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let tasks: Arc<Vec<ParallelTask<T>>> = Arc::new(self.tasks);
        let results: Arc<RwLock<Vec<Option<Arc<T>>>>> = Arc::new(RwLock::new(vec![None; n]));

        // Successor lists + indegrees for the coordinator.
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut indeg: Vec<usize> = vec![0; n];
        for (id, t) in tasks.iter().enumerate() {
            indeg[id] = t.deps.len();
            for d in &t.deps {
                succs[*d].push(id);
            }
        }

        let (ready_tx, ready_rx) = channel::unbounded::<TaskId>();
        let (done_tx, done_rx) = channel::unbounded::<(TaskId, Result<T, String>)>();

        let mut handles = Vec::new();
        for _ in 0..threads.min(n) {
            let ready_rx = ready_rx.clone();
            let done_tx = done_tx.clone();
            let tasks = Arc::clone(&tasks);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                while let Ok(id) = ready_rx.recv() {
                    let inputs: Vec<Arc<T>> = {
                        let guard = results.read();
                        tasks[id]
                            .deps
                            .iter()
                            .map(|d| Arc::clone(guard[*d].as_ref().expect("dep completed")))
                            .collect()
                    };
                    // A panicking task must still report: a worker that dies
                    // without sending leaves the coordinator in `recv` forever.
                    let out = catch_unwind(AssertUnwindSafe(|| (tasks[id].run)(&inputs)))
                        .unwrap_or_else(|payload| {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_owned());
                            Err(format!("panicked: {msg}"))
                        });
                    if done_tx.send((id, out)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(done_tx);

        for (id, d) in indeg.iter().enumerate() {
            if *d == 0 {
                ready_tx.send(id).expect("workers alive");
            }
        }

        let mut completed = 0usize;
        let mut failure: Option<WorkflowError> = None;
        while completed < n {
            let Ok((id, out)) = done_rx.recv() else {
                break;
            };
            match out {
                Ok(value) => {
                    results.write()[id] = Some(Arc::new(value));
                    completed += 1;
                    for s in &succs[id] {
                        indeg[*s] -= 1;
                        if indeg[*s] == 0 {
                            let _ = ready_tx.send(*s);
                        }
                    }
                }
                Err(reason) => {
                    failure =
                        Some(WorkflowError::TaskFailed { task: tasks[id].name.clone(), reason });
                    break;
                }
            }
        }
        drop(ready_tx);
        for h in handles {
            let _ = h.join();
        }
        if let Some(err) = failure {
            return Err(err);
        }
        let guard = results.read();
        Ok(guard.iter().map(|r| Arc::clone(r.as_ref().expect("all tasks completed"))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_computes_correct_value() {
        let mut g: ParallelGraph<f64> = ParallelGraph::new();
        let src = g.add_task("src", &[], |_| Ok(10.0));
        let l = g.add_task("double", &[src], |ins| Ok(*ins[0] * 2.0));
        let r = g.add_task("square", &[src], |ins| Ok(*ins[0] * *ins[0]));
        let _ = g.add_task("sum", &[l, r], |ins| Ok(*ins[0] + *ins[1]));
        let out = g.run(4).unwrap();
        assert_eq!(*out[3], 120.0);
    }

    #[test]
    fn wide_fanout_executes_in_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static CURRENT: AtomicUsize = AtomicUsize::new(0);
        let mut g: ParallelGraph<usize> = ParallelGraph::new();
        for i in 0..8 {
            g.add_task(format!("t{i}"), &[], move |_| {
                let now = CURRENT.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                CURRENT.fetch_sub(1, Ordering::SeqCst);
                Ok(i)
            });
        }
        let out = g.run(8).unwrap();
        assert_eq!(out.len(), 8);
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "tasks should overlap");
    }

    #[test]
    fn failure_propagates_with_task_name() {
        let mut g: ParallelGraph<i32> = ParallelGraph::new();
        let a = g.add_task("ok", &[], |_| Ok(1));
        let _ = g.add_task("boom", &[a], |_| Err("division by zero".into()));
        let err = g.run(2).unwrap_err();
        assert_eq!(
            err,
            WorkflowError::TaskFailed { task: "boom".into(), reason: "division by zero".into() }
        );
    }

    #[test]
    fn panicking_task_fails_the_run_instead_of_hanging_it() {
        for threads in [1, 2, 4] {
            let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut g: ParallelGraph<i32> = ParallelGraph::new();
                let a = g.add_task("ok", &[], |_| Ok(1));
                let b = g.add_task("boom", &[a], |_| panic!("index out of range"));
                g.add_task("after", &[b], |ins| Ok(*ins[0] + 1));
                let _ = verdict_tx.send(g.run(threads));
            });
            let verdict = verdict_rx
                .recv_timeout(std::time::Duration::from_secs(3))
                .unwrap_or_else(|_| panic!("run hung or panicked at threads={threads}"));
            assert_eq!(
                verdict.unwrap_err(),
                WorkflowError::TaskFailed {
                    task: "boom".into(),
                    reason: "panicked: index out of range".into()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g: ParallelGraph<i32> = ParallelGraph::new();
        assert!(g.run(4).unwrap().is_empty());
    }

    #[test]
    fn deep_chain_orders_correctly() {
        let mut g: ParallelGraph<u64> = ParallelGraph::new();
        let mut prev = g.add_task("t0", &[], |_| Ok(1));
        for i in 1..20 {
            prev = g.add_task(format!("t{i}"), &[prev], |ins| Ok(*ins[0] * 2));
        }
        let out = g.run(4).unwrap();
        assert_eq!(*out[19], 1 << 19);
    }

    #[test]
    fn single_thread_still_completes() {
        let mut g: ParallelGraph<i32> = ParallelGraph::new();
        let a = g.add_task("a", &[], |_| Ok(5));
        let b = g.add_task("b", &[], |_| Ok(7));
        g.add_task("c", &[a, b], |ins| Ok(*ins[0] * *ins[1]));
        let out = g.run(1).unwrap();
        assert_eq!(*out[2], 35);
    }
}
