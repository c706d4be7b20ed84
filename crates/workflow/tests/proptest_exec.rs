//! Property tests for the workflow platform: every policy produces valid
//! schedules on random graphs, and the threaded executor computes the
//! same values as a sequential evaluation.

use everest_workflow::exec::{simulate, simulate_available};
use everest_workflow::graph::TaskGraph;
use everest_workflow::parallel::ParallelGraph;
use everest_workflow::scheduler::{task_order, AssignState, Policy};
use everest_workflow::worker::Worker;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_graph(seed: u64, layers: usize, width: usize) -> TaskGraph {
    TaskGraph::random(seed, layers.max(1), width.max(1), 200.0)
}

/// `(speed, us_per_byte, latency_us)` of the workers of a mixed pool: the
/// two classes of `Worker::heterogeneous_pool`, two that share the fast
/// speed but not its latency or its per-byte cost, and a co-located one.
const PALETTE: [(f64, f64, f64); 5] = [
    (4.0, 1.0 / 1.2e3, 4.0),
    (1.0, 1.0 / 1.1e3, 25.0),
    (4.0, 1.0 / 1.2e3, 25.0),
    (4.0, 1.0 / 1.1e3, 4.0),
    (1.0, 0.0, 0.0),
];

/// `n` workers drawn from [`PALETTE`] by `picks`, three bits each: the
/// classes interleave and repeat.
fn mixed_pool(n: usize, picks: u64) -> Vec<Worker> {
    (0..n)
        .map(|i| {
            let (speed, us_per_byte, latency_us) = PALETTE[(picks >> (3 * i)) as usize % 5];
            Worker::new(format!("m{i}"), speed, us_per_byte, latency_us)
        })
        .collect()
}

/// A DAG of `n` tasks with up to four inputs each, where half the costs
/// and half the outputs are zero.
fn zero_heavy_graph(seed: u64, n: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::new("zero-heavy");
    for id in 0..n {
        let deps: Vec<usize> = if id == 0 {
            Vec::new()
        } else {
            (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..id)).collect()
        };
        let cost = [0.0, 0.0, 50.0, 200.0][rng.gen_range(0..4)];
        let bytes = [0, 0, 1_000, 100_000][rng.gen_range(0..4)];
        g.add_task(format!("z{id}"), cost, bytes, &deps);
    }
    g
}

/// The list scheduler as it was before `AssignState::choose` evaluated
/// each (task, worker) pair once: the finish time is computed inside the
/// `min_by` comparator, through `data_ready`, for both sides of every
/// comparison. Returns `(assignment, start, finish)` over `pool`.
fn reference_schedule(
    g: &TaskGraph,
    pool: &[Worker],
    policy: Policy,
) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let mut st = AssignState::new(g.len(), pool);
    for (nth, task) in task_order(g, policy).into_iter().enumerate() {
        let cost_us = g.task(task).cost_us;
        let w = match policy {
            Policy::Fifo => nth % pool.len(),
            Policy::MinLoad => (0..pool.len())
                .min_by(|a, b| {
                    let fa = st.avail[*a] + pool[*a].exec_time(cost_us);
                    let fb = st.avail[*b] + pool[*b].exec_time(cost_us);
                    fa.total_cmp(&fb)
                })
                .unwrap(),
            Policy::Heft => (0..pool.len())
                .min_by(|a, b| {
                    let eft = |w: usize| {
                        st.data_ready(g, pool, task, w).max(st.avail[w])
                            + pool[w].exec_time(cost_us)
                    };
                    eft(*a).total_cmp(&eft(*b))
                })
                .unwrap(),
        };
        st.place(g, pool, task, w);
    }
    (st.assignment, st.start, st.finish)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pricing each task once per cost class and taking the first minimum
    /// over integer keys changes no schedule: on random, wide, diamond and
    /// zero-cost/zero-byte DAGs, over uniform pools (every choice a tie, so
    /// the first minimum must win), heterogeneous ones and pools of
    /// interleaved, repeated classes that share a speed but not a latency
    /// or a per-byte cost, with any subset of the workers excluded, all
    /// three policies assign every task to the worker the comparator-based
    /// scheduler picked, at bit-equal times.
    #[test]
    fn single_evaluation_scheduler_matches_the_comparator_reference(
        seed in any::<u64>(),
        layers in 1usize..6,
        width in 1usize..8,
        fast in 0usize..4,
        slow in 1usize..7,
        pool_kind in 0u8..3,
        picks in any::<u64>(),
        shape in 0u8..4,
        mask in any::<u16>(),
    ) {
        let bytes = [0, 1_000, 100_000][(seed % 3) as usize];
        let g = match shape {
            0 => random_graph(seed, layers, width),
            1 => TaskGraph::wide(layers * width, 200.0, bytes),
            2 => TaskGraph::diamond(layers * width, 200.0, bytes),
            _ => zero_heavy_graph(seed, layers * width * 2),
        };
        let workers = match pool_kind {
            0 => Worker::uniform_pool(fast + slow, 1.0),
            1 => Worker::heterogeneous_pool(fast, slow),
            _ => mixed_pool(fast + slow, picks),
        };
        // Exclude the workers whose mask bit is clear, but never all.
        let mut available: Vec<bool> = (0..workers.len()).map(|w| mask >> w & 1 == 1).collect();
        if !available.contains(&true) {
            available[seed as usize % workers.len()] = true;
        }
        let keep: Vec<usize> = (0..workers.len()).filter(|w| available[*w]).collect();
        let pool: Vec<Worker> = keep.iter().map(|w| workers[*w].clone()).collect();
        for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
            let run = simulate_available(&g, &workers, policy, &available).expect("simulates");
            let (assignment, start, finish) = reference_schedule(&g, &pool, policy);
            let assignment: Vec<usize> = assignment.iter().map(|w| keep[*w]).collect();
            prop_assert_eq!(&run.assignment, &assignment, "{}: assignment", policy);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&run.start), bits(&start), "{}: start", policy);
            prop_assert_eq!(bits(&run.finish), bits(&finish), "{}: finish", policy);
        }
    }

    #[test]
    fn every_policy_yields_valid_schedules(
        seed in any::<u64>(),
        layers in 1usize..5,
        width in 1usize..6,
        workers in 1usize..9,
    ) {
        let g = random_graph(seed, layers, width);
        let pool = Worker::uniform_pool(workers, 1.0);
        for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
            let run = simulate(&g, &pool, policy).expect("simulates");
            // Dependencies respected.
            for (id, t) in g.tasks().iter().enumerate() {
                for d in &t.deps {
                    prop_assert!(run.start[id] >= run.finish[*d] - 1e-9, "{}: dep violated", policy);
                }
            }
            // No overlap per worker.
            for w in 0..workers {
                let mut spans: Vec<(f64, f64)> = run
                    .tasks_on(w)
                    .iter()
                    .map(|t| (run.start[*t], run.finish[*t]))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for pair in spans.windows(2) {
                    prop_assert!(pair[1].0 >= pair[0].1 - 1e-9, "{}: overlap", policy);
                }
            }
            // Makespan bounded below by the critical path.
            prop_assert!(run.makespan_us >= g.critical_path_us() - 1e-9);
        }
    }

    #[test]
    fn heft_never_loses_to_fifo_by_much(
        seed in any::<u64>(),
        workers in 2usize..8,
    ) {
        // HEFT is a heuristic, but on uniform pools it should never be
        // dramatically worse than FIFO (and usually better).
        let g = random_graph(seed, 4, 5);
        let pool = Worker::uniform_pool(workers, 1.0);
        let heft = simulate(&g, &pool, Policy::Heft).unwrap().makespan_us;
        let fifo = simulate(&g, &pool, Policy::Fifo).unwrap().makespan_us;
        prop_assert!(heft <= fifo * 1.5, "heft {} vs fifo {}", heft, fifo);
    }

    #[test]
    fn threaded_executor_matches_sequential_evaluation(
        seed in any::<u64>(),
        n in 1usize..80,
    ) {
        // Each task draws up to four dependencies among the earlier ids,
        // so id order is a topological order.
        let mut rng = StdRng::seed_from_u64(seed);
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let k = if i == 0 { 0 } else { rng.gen_range(0..5usize) };
                (0..k).map(|_| rng.gen_range(0..i)).collect()
            })
            .collect();
        let value = |i: usize, ins: &[i64]| {
            ins.iter().fold(i as i64 + 1, |acc, x| acc.wrapping_mul(31).wrapping_add(*x))
        };
        let mut expected: Vec<i64> = Vec::with_capacity(n);
        for (i, ds) in deps.iter().enumerate() {
            let ins: Vec<i64> = ds.iter().map(|d| expected[*d]).collect();
            expected.push(value(i, &ins));
        }
        for threads in [1, 2, 4, 8] {
            let mut g: ParallelGraph<i64> = ParallelGraph::new();
            for (i, ds) in deps.iter().enumerate() {
                g.add_task(format!("t{i}"), ds, move |ins: &[Arc<i64>]| {
                    let ins: Vec<i64> = ins.iter().map(|x| **x).collect();
                    Ok(value(i, &ins))
                });
            }
            let got: Vec<i64> = g.run(threads).expect("executes").iter().map(|x| **x).collect();
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
    }
}
