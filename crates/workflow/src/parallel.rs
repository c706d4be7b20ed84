//! A real multi-threaded executor: runs closures as tasks with
//! dependency-ordered hand-off — the in-process equivalent of HyperLoom's
//! worker processes.
//!
//! [`ParallelGraph::run`] is one [`crate::pool::parallel_map`] of
//! `threads` worker loops over shared state: a locked ready queue with
//! the remaining in-degrees, completion count and first failure, a
//! `Condvar` that idle loops park on, and one `OnceLock` result slot per
//! task. The loops run on the process-wide pool's parked workers (the
//! caller is worker 0), so a run starts no thread once the pool is warm.

use crate::error::{WorkflowError, WorkflowResult};
use crate::graph::TaskId;
use crate::pool::{self, lock};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

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

    /// Executes the graph on `threads` workers of the process-wide pool
    /// and returns every task's output (indexed by task id).
    ///
    /// # Errors
    ///
    /// Returns [`WorkflowError::TaskFailed`] with the first failing task
    /// (a task that panics fails with reason `panicked: <message>`);
    /// remaining tasks are abandoned: no worker claims a task once a
    /// failure is recorded, so the run returns when the tasks already
    /// running finish.
    pub fn run(self, threads: usize) -> WorkflowResult<Vec<Arc<T>>> {
        let n = self.tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let tasks = self.tasks;
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                succs[*d].push(id);
            }
        }
        let results: Vec<OnceLock<Arc<T>>> = (0..n).map(|_| OnceLock::new()).collect();
        let state = Mutex::new(Schedule {
            ready: (0..n).filter(|id| tasks[*id].deps.is_empty()).collect(),
            indeg: tasks.iter().map(|t| t.deps.len()).collect(),
            completed: 0,
            failure: None,
        });
        let wake = Condvar::new();

        let threads = threads.max(1).min(n);
        pool::parallel_map("workflow.parallel", threads, vec![(); threads], |_, ()| loop {
            let id = {
                let mut s = lock(&state);
                loop {
                    if s.failure.is_some() || s.completed == n {
                        return;
                    }
                    if let Some(id) = s.ready.pop_front() {
                        break id;
                    }
                    s = wake.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let task = &tasks[id];
            let inputs: Vec<Arc<T>> = task
                .deps
                .iter()
                .map(|d| Arc::clone(results[*d].get().expect("dep completed")))
                .collect();
            // A panicking task must still report, or its successors would
            // wait forever.
            let out =
                catch_unwind(AssertUnwindSafe(|| (task.run)(&inputs))).unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    Err(format!("panicked: {msg}"))
                });
            let mut s = lock(&state);
            match out {
                Ok(value) => {
                    let _ = results[id].set(Arc::new(value));
                    s.completed += 1;
                    for &succ in &succs[id] {
                        s.indeg[succ] -= 1;
                        if s.indeg[succ] == 0 {
                            s.ready.push_back(succ);
                        }
                    }
                }
                Err(reason) => {
                    s.failure.get_or_insert(WorkflowError::TaskFailed {
                        task: task.name.clone(),
                        reason,
                    });
                }
            }
            drop(s);
            wake.notify_all();
        });

        if let Some(err) = state.into_inner().unwrap_or_else(PoisonError::into_inner).failure {
            return Err(err);
        }
        Ok(results.into_iter().map(|r| r.into_inner().expect("all tasks completed")).collect())
    }
}

/// What [`ParallelGraph::run`]'s worker loops share under one lock.
struct Schedule {
    /// Tasks whose dependencies have all completed, in release order.
    ready: VecDeque<TaskId>,
    /// Dependencies each task still waits for.
    indeg: Vec<usize>,
    completed: usize,
    /// The first failure; once set, no loop claims another task.
    failure: Option<WorkflowError>,
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

    /// One failing task ahead of 400 independent 2 ms tasks: once the
    /// failure is recorded no worker claims another task, so only the
    /// tasks already claimed run and the error returns in milliseconds
    /// (draining the ready queue took 400 × 2 ms / threads).
    #[test]
    fn a_failure_abandons_the_tasks_not_yet_claimed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        for threads in [2, 4, 8] {
            let ran = Arc::new(AtomicUsize::new(0));
            let mut g: ParallelGraph<usize> = ParallelGraph::new();
            g.add_task("boom", &[], |_| Err("stop".into()));
            for i in 0..400 {
                let ran = Arc::clone(&ran);
                g.add_task(format!("t{i}"), &[], move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(i)
                });
            }
            let started = Instant::now();
            let err = g.run(threads).unwrap_err();
            let elapsed = started.elapsed();
            assert_eq!(
                err,
                WorkflowError::TaskFailed { task: "boom".into(), reason: "stop".into() }
            );
            let ran = ran.load(Ordering::SeqCst);
            assert!(ran <= 4 * threads, "threads={threads}: {ran} tasks ran after the failure");
            assert!(
                elapsed < Duration::from_millis(100),
                "threads={threads}: the error took {elapsed:?}"
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
