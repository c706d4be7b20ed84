//! The process-wide worker pool and its parallel map: evaluate a batch of
//! independent items on `jobs` workers with results written back by input
//! index, so the output order is identical to a sequential map at any
//! worker count.
//!
//! Every fan-out in the workspace — DSE synthesis, offload lanes, serving
//! rungs and [`crate::parallel::ParallelGraph`] — runs here, the in-process
//! equivalent of HyperLoom's long-lived workers.
//!
//! * **Parked workers.** Helper threads start lazily, up to the largest
//!   `jobs − 1` any call has asked for, and park on a `Condvar` between
//!   batches. A warm call starts no thread ([`threads_started`]).
//! * **The caller is worker 0.** A batch queues `jobs − 1` tickets, one
//!   per helper index, and the calling thread runs worker 0's share itself,
//!   so `jobs = 2` wakes one helper.
//! * **Lifetimes.** Callers pass borrowed, non-`'static` closures, which
//!   parked threads cannot name, so a batch erases its body's lifetime.
//!   That is sound because the caller neither returns nor unwinds until
//!   the batch's last claimed ticket has finished: once its own share is
//!   done it withdraws every ticket no helper has claimed and waits for the
//!   rest. Every borrow therefore outlives every use of it. The caller can
//!   finish a batch alone, so nested and concurrent calls cannot deadlock.
//! * **Panics.** A panic on a helper is caught and re-raised on the caller
//!   after the wait; a panic on the caller also waits for the helpers
//!   before it unwinds.
//!
//! Apart from the test-only counting allocator, every `unsafe` in the
//! workspace is in this file.

use everest_telemetry::LogHistogram;
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Maps `f` over `items` on up to `jobs` workers.
///
/// Results land at the index of the item that produced them, so
/// `parallel_map(label, jobs, items, f)` returns exactly what the
/// sequential `items.into_iter().enumerate().map(f).collect()` would,
/// for any `jobs`. With `jobs <= 1` (or fewer than two items) the map
/// runs inline on the calling thread and touches no pool.
///
/// Each worker opens a telemetry span named `label` (category `pool`)
/// tagged with its worker index and the number of items it processed,
/// and records two histograms: `pool.queue_wait_us` (time from batch
/// start to an item's claim) and `pool.task_run_us` (time inside `f`).
/// Observations accumulate in per-worker [`LogHistogram`]s and merge
/// into the global registry once per worker, so the hot loop never
/// touches a shared lock for metrics.
///
/// # Panics
///
/// Re-raises the first panic of `f`, after every worker has left the
/// batch.
pub fn parallel_map<T, R, F>(label: &str, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        let mut span = everest_telemetry::span(label, "pool");
        span.attr("worker", 0);
        span.attr("items", n);
        let mut run_hist = LogHistogram::new();
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let t = Instant::now();
                let out = f(i, item);
                run_hist.observe(t.elapsed().as_secs_f64() * 1e6);
                out
            })
            .collect();
        everest_telemetry::metrics().merge_histogram("pool.task_run_us", &run_hist);
        return out;
    }

    let slots = Slots::new(items);
    let next = AtomicUsize::new(0);
    let batch_start = Instant::now();
    run_batch(jobs, &|worker| {
        let mut span = everest_telemetry::span(label, "pool");
        span.attr("worker", worker);
        everest_telemetry::flight().record(
            everest_telemetry::EventKind::SpanBegin,
            "pool.worker",
            worker as f64,
        );
        let mut wait_hist = LogHistogram::new();
        let mut run_hist = LogHistogram::new();
        let mut done = 0usize;
        loop {
            // `Relaxed`: the index publishes nothing. Items reach a helper
            // through `QUEUE`'s lock, results the caller through `outstanding`'s.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: `fetch_add` hands out each index once, so this worker
            // is the only one touching slot `i`.
            let item = unsafe { slots.take(i) };
            // One clock read serves both sides: the end of the queue wait
            // is the start of the run.
            let t = Instant::now();
            wait_hist.observe((t - batch_start).as_secs_f64() * 1e6);
            let out = f(i, item);
            run_hist.observe(t.elapsed().as_secs_f64() * 1e6);
            // SAFETY: as for `take`: slot `i` is this worker's alone.
            unsafe { slots.put(i, out) };
            done += 1;
        }
        let registry = everest_telemetry::metrics();
        registry.merge_histogram("pool.queue_wait_us", &wait_hist);
        registry.merge_histogram("pool.task_run_us", &run_hist);
        everest_telemetry::flight().record(
            everest_telemetry::EventKind::SpanEnd,
            "pool.worker",
            done as f64,
        );
        span.attr("items", done);
    });
    slots.into_results()
}

/// How many threads the pool has started since the process began. It
/// counts only start-ups, so a warm fan-out at no more workers than an
/// earlier one leaves it unchanged.
pub fn threads_started() -> usize {
    THREADS_STARTED.load(Ordering::Relaxed)
}

static THREADS_STARTED: AtomicUsize = AtomicUsize::new(0);

/// Tickets waiting for a helper; idle helpers park on [`WAKE`].
static QUEUE: Mutex<Queue> = Mutex::new(Queue { tickets: VecDeque::new(), workers: 0 });
static WAKE: Condvar = Condvar::new();

struct Queue {
    tickets: VecDeque<Ticket>,
    /// Helper threads started so far; none ever exits.
    workers: usize,
}

/// One helper's share of a batch: run the batch body as `worker`.
struct Ticket {
    batch: Arc<Batch>,
    worker: usize,
}

struct Batch {
    /// The caller's body with its lifetime erased (see [`run_batch`]).
    body: *const (dyn Fn(usize) + Sync),
    /// Tickets neither finished nor withdrawn; the caller waits for 0.
    outstanding: Mutex<usize>,
    done: Condvar,
    /// The first panic a helper caught, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from any thread
// is allowed; it is only dereferenced while the caller of `run_batch`
// keeps the closure alive. Every other field is `Send + Sync`.
unsafe impl Send for Batch {}
// SAFETY: as for `Send`: shared access only ever calls the `Sync` body.
unsafe impl Sync for Batch {}

/// Runs `body(0)` on the calling thread and `body(1..jobs)` on helpers,
/// returning once every call has finished. The first panic is re-raised
/// here, after the wait.
fn run_batch(jobs: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = jobs - 1;
    let erased: *const (dyn Fn(usize) + Sync + '_) = body;
    // SAFETY: only the trait object's lifetime bound changes. Helpers
    // dereference the pointer only while their ticket is outstanding, and
    // this function neither returns nor unwinds before `outstanding` is 0:
    // the caller's own share runs under `catch_unwind`, unclaimed tickets
    // are withdrawn, and the wait below covers the claimed ones. So `body`
    // outlives every use of `erased`.
    let erased: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(erased) };
    let batch = Arc::new(Batch {
        body: erased,
        outstanding: Mutex::new(helpers),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let mut queue = lock(&QUEUE);
        while queue.workers < helpers {
            std::thread::Builder::new()
                .name(format!("everest-pool-{}", queue.workers + 1))
                .spawn(help)
                .expect("start a pool worker");
            queue.workers += 1;
            THREADS_STARTED.fetch_add(1, Ordering::Relaxed);
        }
        for worker in 1..jobs {
            queue.tickets.push_back(Ticket { batch: Arc::clone(&batch), worker });
        }
    }
    for _ in 0..helpers {
        WAKE.notify_one();
    }

    let own = catch_unwind(AssertUnwindSafe(|| body(0)));

    let withdrawn = {
        let mut queue = lock(&QUEUE);
        let before = queue.tickets.len();
        queue.tickets.retain(|t| !Arc::ptr_eq(&t.batch, &batch));
        before - queue.tickets.len()
    };
    let mut outstanding = lock(&batch.outstanding);
    *outstanding -= withdrawn;
    while *outstanding > 0 {
        outstanding = batch.done.wait(outstanding).unwrap_or_else(PoisonError::into_inner);
    }
    drop(outstanding);

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    let helper_panic = lock(&batch.panic).take();
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

/// A helper thread's life: claim a ticket, run it, report, park.
fn help() {
    loop {
        let ticket = {
            let mut queue = lock(&QUEUE);
            loop {
                if let Some(ticket) = queue.tickets.pop_front() {
                    break ticket;
                }
                queue = WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let batch = &ticket.batch;
        // SAFETY: the ticket was claimed, not withdrawn, so `outstanding`
        // still counts it and `run_batch` is waiting with the body alive.
        let ran = catch_unwind(AssertUnwindSafe(|| unsafe { (*batch.body)(ticket.worker) }));
        if let Err(payload) = ran {
            lock(&batch.panic).get_or_insert(payload);
        }
        // Past this decrement the body may be gone; only the `Arc` is used.
        let mut outstanding = lock(&batch.outstanding);
        *outstanding -= 1;
        if *outstanding == 0 {
            batch.done.notify_one();
        }
    }
}

/// Locks `mutex`. No lock in this crate is held across user code, so a
/// poisoned one still holds consistent data.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Item and result cells by input index. Index `i` is touched by one
/// thread at a time: the worker that claimed `i`, then, after the batch,
/// the owner.
struct Slots<T, R>(Vec<Slot<T, R>>);

/// Item `i` until a worker takes it, then result `i`.
type Slot<T, R> = (UnsafeCell<Option<T>>, UnsafeCell<Option<R>>);

// SAFETY: a shared `Slots` only moves values in and out of cells whose
// index the accessing worker claimed alone (see `take` and `put`), so no
// cell is reached from two threads at once; items and results cross
// threads, which `T: Send` and `R: Send` allow.
unsafe impl<T: Send, R: Send> Sync for Slots<T, R> {}

impl<T, R> Slots<T, R> {
    fn new(items: Vec<T>) -> Slots<T, R> {
        Slots(
            items
                .into_iter()
                .map(|item| (UnsafeCell::new(Some(item)), UnsafeCell::new(None)))
                .collect(),
        )
    }

    /// Moves item `i` out.
    ///
    /// # Safety
    ///
    /// No other thread may access slot `i` during the call.
    unsafe fn take(&self, i: usize) -> T {
        // SAFETY: exclusive access to slot `i` is the caller's contract.
        unsafe { (*self.0[i].0.get()).take().expect("each item is claimed once") }
    }

    /// Stores result `i`.
    ///
    /// # Safety
    ///
    /// No other thread may access slot `i` during the call.
    unsafe fn put(&self, i: usize, out: R) {
        // SAFETY: exclusive access to slot `i` is the caller's contract.
        unsafe { *self.0[i].1.get() = Some(out) };
    }

    fn into_results(self) -> Vec<R> {
        self.0.into_iter().map(|(_, out)| out.into_inner().expect("worker filled slot")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let got = parallel_map("test.map", jobs, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let got = parallel_map("test.map", 4, vec!['a', 'b', 'c', 'd'], |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd')]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let out = parallel_map("test.map", 8, (0..64).collect::<Vec<i32>>(), |_, x| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 64);
        assert_eq!(CALLS.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn workers_actually_overlap() {
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static CURRENT: AtomicUsize = AtomicUsize::new(0);
        parallel_map("test.map", 4, (0..8).collect::<Vec<i32>>(), |_, x| {
            let now = CURRENT.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(15));
            CURRENT.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "workers should overlap");
    }

    #[test]
    fn records_queue_wait_and_task_run_histograms() {
        let before = everest_telemetry::metrics()
            .snapshot()
            .histogram("pool.task_run_us")
            .map_or(0, |h| h.count);
        parallel_map("test.map", 4, (0..64).collect::<Vec<i32>>(), |_, x| x + 1);
        let snap = everest_telemetry::metrics().snapshot();
        let run = snap.histogram("pool.task_run_us").expect("task-run histogram recorded");
        // Other tests in this binary share the registry, so assert on
        // growth, not exact totals.
        assert!(run.count >= before + 64, "one task-run sample per item");
        let wait = snap.histogram("pool.queue_wait_us").expect("queue-wait histogram recorded");
        assert!(wait.count > 0);
        assert!(wait.p99() >= wait.p50());
    }

    #[test]
    fn empty_input_returns_empty() {
        let got: Vec<i32> = parallel_map("test.map", 4, Vec::<i32>::new(), |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn results_can_carry_errors() {
        let got = parallel_map("test.map", 2, vec![1i32, -1, 2], |_, x| {
            if x < 0 {
                Err("negative".to_owned())
            } else {
                Ok(x * 10)
            }
        });
        assert_eq!(got, vec![Ok(10), Err("negative".to_owned()), Ok(20)]);
    }

    /// Counts its constructions and drops, so a test can check that every
    /// item and result the pool moved was dropped exactly once.
    struct Tracked<'a>(&'a AtomicUsize);

    impl<'a> Tracked<'a> {
        fn new(made: &AtomicUsize, dropped: &'a AtomicUsize) -> Tracked<'a> {
            made.fetch_add(1, Ordering::SeqCst);
            Tracked(dropped)
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panic_on_a_helper_or_the_caller_propagates_and_drops_every_value_once() {
        for on_caller in [false, true] {
            let (made, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (caller_ran, helper_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            let caller = std::thread::current().id();
            let items: Vec<Tracked> = (0..64).map(|_| Tracked::new(&made, &dropped)).collect();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map("test.map", 4, items, |i, item| {
                    // Both sides run items: each holds back its first one
                    // until the other side has claimed one too.
                    let on_helper = std::thread::current().id() != caller;
                    let (mine, theirs) = if on_helper {
                        (&helper_ran, &caller_ran)
                    } else {
                        (&caller_ran, &helper_ran)
                    };
                    mine.store(true, Ordering::SeqCst);
                    while !theirs.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    if on_helper != on_caller {
                        panic!("item {i} failed");
                    }
                    drop(item);
                    Tracked::new(&made, &dropped)
                })
            }));
            let payload = outcome.err().expect("the panic reaches the caller");
            let msg = payload.downcast_ref::<String>().expect("the original payload");
            assert!(msg.starts_with("item "), "on_caller={on_caller}: {msg}");
            assert_eq!(
                made.load(Ordering::SeqCst),
                dropped.load(Ordering::SeqCst),
                "on_caller={on_caller}: every item and result dropped once"
            );
            assert_eq!(parallel_map("test.map", 4, vec![1, 2, 3, 4], |_, x| x + 1), [2, 3, 4, 5]);
        }
    }

    /// Four threads call the pool at once, 200 times each, and every item
    /// makes a nested call; all read data borrowed from their caller's
    /// stack. A caller that left a batch before its helpers did would
    /// read unfilled slots or freed data here.
    #[test]
    fn concurrent_callers_with_nested_calls_agree_with_the_sequential_map() {
        for jobs in [2, 3, 8] {
            std::thread::scope(|scope| {
                for caller in 0..4u64 {
                    scope.spawn(move || {
                        for call in 0..200u64 {
                            let data: Vec<u64> =
                                (0..8).map(|k| caller * 1_000 + call + k).collect();
                            let got = parallel_map("test.outer", jobs, (0..8).collect(), |_, k| {
                                let inner: Vec<u64> =
                                    parallel_map("test.inner", jobs, (0..4).collect(), |_, j| {
                                        data[k] * 10 + j
                                    });
                                inner.iter().sum::<u64>()
                            });
                            let want: Vec<u64> = data.iter().map(|d| 40 * d + 6).collect();
                            assert_eq!(got, want, "jobs={jobs} caller={caller} call={call}");
                        }
                    });
                }
            });
        }
    }
}
