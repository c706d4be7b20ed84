//! `runtime_mix`: host-side runtime bookkeeping with nothing to compile
//! and nothing to sample. Four fault profiles over an unpaced offload
//! batch (lane partition / fold / merge, breaker, backoff), list
//! scheduling of large random DAGs under three policies, and the
//! threaded DAG executor over small SIMD kernels.

use super::{digest_str, Counters};
use crate::harness::{Metrics, Outcome, Scale, Workload, JOBS};
use crate::measure::{median, quantile, timed};
use crate::trace::Trace;
use everest::ir::simd;
use everest::workflow::parallel::ParallelGraph;
use everest::workflow::{simulate, Policy, RunReport, TaskGraph, Worker};
use everest::{FaultPlan, OffloadCall, OffloadManager, OffloadOutcome, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

const BATCH_CALLS: usize = 65_536;
const DAGS: usize = 8;
/// Each random DAG is `DAG_LAYERS` layers of `DAG_WIDTH` tasks.
const DAG_LAYERS: usize = 100;
const DAG_WIDTH: usize = 100;
const POLICIES: [(Policy, &str); 3] = [
    (Policy::Fifo, "simulate_fifo"),
    (Policy::MinLoad, "simulate_minload"),
    (Policy::Heft, "simulate_heft"),
];
/// The threaded executor's graph: layers of small vector kernels.
const GRAPH_TASKS: usize = 2_000;
const GRAPH_WIDTH: usize = 50;
const VECTOR: usize = 256;
/// Span names of the four batches, in `FaultPlan::PROFILES` order.
const BATCH_SPANS: [&str; 4] = ["batch_none", "batch_lossy", "batch_flaky", "batch_meltdown"];

pub struct RuntimeMix {
    seed: u64,
    system: System,
    calls: Vec<OffloadCall>,
    dags: Vec<TaskGraph>,
    workers: Vec<Worker>,
    /// Per executor task: the earlier tasks it reads (empty for the
    /// first layer, which reads `input`).
    graph_deps: Vec<Vec<usize>>,
    input: Arc<Vec<f64>>,
}

pub struct Batch {
    outcomes: Vec<OffloadOutcome>,
    /// The manager after the batch: its event trace and breakers are
    /// read when the pass is digested, outside the timed region.
    manager: OffloadManager,
}

pub struct Output {
    batches: Vec<Batch>,
    schedules: Vec<RunReport>,
    graph_results: Vec<Arc<Vec<f64>>>,
}

impl RuntimeMix {
    fn manager(&self, profile: &str) -> Result<OffloadManager, String> {
        let plan = FaultPlan::from_profile(profile, self.seed).map_err(|e| e.to_string())?;
        OffloadManager::for_system(&self.system, plan).map_err(|e| e.to_string())
    }

    /// The executor graph: a task smooths or squashes its first
    /// dependency's vector and adds the second's.
    fn graph(&self) -> ParallelGraph<Vec<f64>> {
        let mut graph = ParallelGraph::new();
        for (id, deps) in self.graph_deps.iter().enumerate() {
            let input = Arc::clone(&self.input);
            graph.add_task(format!("t{id}"), deps, move |ins: &[Arc<Vec<f64>>]| {
                let first = ins.first().map_or(&*input, |v| &**v);
                let mut out = if id % 2 == 0 {
                    simd::stencil_rows(first, 1, first.len(), &[0.25, 0.5, 0.25])
                } else {
                    simd::sigmoid(first)
                };
                if let Some(second) = ins.get(1) {
                    for (o, s) in out.iter_mut().zip(second.iter()) {
                        *o += s;
                    }
                }
                Ok(out)
            });
        }
        graph
    }

    fn pass_at(&self, jobs: usize, t: &mut Trace) -> Result<Output, String> {
        let mut batches = Vec::new();
        for (profile, span) in FaultPlan::PROFILES.iter().zip(BATCH_SPANS) {
            let mut manager = self.manager(profile)?;
            let outcomes = t
                .call("runtime", span, || manager.run_batch(&self.calls, jobs))
                .map_err(|e| e.to_string())?;
            batches.push(Batch { outcomes, manager });
        }
        let mut schedules = Vec::new();
        for dag in &self.dags {
            for (policy, span) in POLICIES {
                let run = t.call("workflow", span, || simulate(dag, &self.workers, policy));
                schedules.push(run.map_err(|e| e.to_string())?);
            }
        }
        let graph_results = t
            .call("workflow", "parallel_graph", || self.graph().run(jobs))
            .map_err(|e| e.to_string())?;
        Ok(Output { batches, schedules, graph_results })
    }
}

impl Workload for RuntimeMix {
    type Output = Output;
    /// ≈ 0.25 s a pass.
    const PASSES_PER_SECOND: f64 = 3.0;

    fn setup(seed: u64, scale: Scale) -> Result<RuntimeMix, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let calls = (0..scale.div(BATCH_CALLS))
            .map(|i| OffloadCall {
                kernel: format!("k{}", i % 64),
                payload_bytes: 4096 << rng.gen_range(0..5u32),
                work_us: rng.gen_range(50.0..500.0),
            })
            .collect();
        let dags = (0..DAGS as u64)
            .map(|i| {
                TaskGraph::random(seed.wrapping_add(i), scale.div(DAG_LAYERS), DAG_WIDTH, 100.0)
            })
            .collect();
        let graph_deps = (0..scale.div(GRAPH_TASKS))
            .map(|id| {
                let layer_start = id / GRAPH_WIDTH * GRAPH_WIDTH;
                if layer_start == 0 {
                    return Vec::new();
                }
                let below = layer_start - GRAPH_WIDTH..layer_start;
                (0..rng.gen_range(1..=2)).map(|_| rng.gen_range(below.clone())).collect()
            })
            .collect();
        let input = Arc::new((0..VECTOR).map(|_| rng.gen_range(-1.0..1.0)).collect());
        Ok(RuntimeMix {
            seed,
            system: System::everest_reference(),
            calls,
            dags,
            workers: Worker::heterogeneous_pool(8, 24),
            graph_deps,
            input,
        })
    }

    fn pass(&mut self, t: &mut Trace) -> Result<Output, String> {
        self.pass_at(JOBS, t)
    }

    fn digest(&self, out: &Output) -> Outcome {
        let mut h = DefaultHasher::new();
        // Outcomes in full, the event trace by its length only: rendering
        // 4 x 65 536 events costs more than the pass itself, so the traces
        // are compared line by line once, in `verify`.
        for batch in &out.batches {
            h.write_usize(batch.manager.events().len());
            for o in &batch.outcomes {
                h.write_u64(o.task);
                digest_str(&mut h, &o.device);
                h.write_u32(o.attempts);
                h.write_u64(o.elapsed_us.to_bits());
                h.write_u8(u8::from(o.degraded));
            }
        }
        for run in &out.schedules {
            h.write_u64(run.makespan_us.to_bits());
            for worker in &run.assignment {
                h.write_usize(*worker);
            }
        }
        for result in &out.graph_results {
            for v in result.iter() {
                h.write_u64(v.to_bits());
            }
        }
        let flaky = FaultPlan::PROFILES.iter().position(|p| *p == "flaky").expect("flaky profile");
        let mut elapsed: Vec<f64> =
            out.batches[flaky].outcomes.iter().map(|o| o.elapsed_us).collect();
        elapsed.sort_by(f64::total_cmp);
        let offload_calls = out.batches.len() * self.calls.len();
        let completed: usize = out.batches.iter().map(|b| b.outcomes.len()).sum();
        let scheduled: usize = out.schedules.iter().map(|r| r.assignment.len()).sum();
        let ops = (offload_calls + scheduled + self.graph_deps.len()) as u64;
        Outcome {
            ops,
            attempted: ops,
            failed: (offload_calls - completed + self.graph_deps.len() - out.graph_results.len())
                as u64,
            refused: 0,
            fingerprint: h.finish(),
            virt: vec![
                (
                    "virt_makespan_us",
                    out.schedules
                        .iter()
                        .filter(|r| r.policy == Policy::Heft)
                        .map(|r| r.makespan_us)
                        .sum(),
                ),
                ("virt_p50_us", quantile(&elapsed, 0.5)),
                ("virt_p99_us", quantile(&elapsed, 0.99)),
            ],
        }
    }

    fn verify(&mut self, out: &Output, outcome: &Outcome, _: bool) -> Result<(), String> {
        for (batch, profile) in out.batches.iter().zip(FaultPlan::PROFILES) {
            if batch.outcomes.len() != self.calls.len() {
                return Err(format!(
                    "profile {profile}: {} calls but {} outcomes",
                    self.calls.len(),
                    batch.outcomes.len()
                ));
            }
        }
        let sequential = self.pass_at(1, &mut Trace::new(false))?;
        let same_traces = out
            .batches
            .iter()
            .zip(&sequential.batches)
            .all(|(two, one)| two.manager.trace() == one.manager.trace());
        if &self.digest(&sequential) != outcome || !same_traces {
            return Err("runtime outputs differ between jobs 1 and 2".into());
        }
        Ok(())
    }

    fn layers(
        &mut self,
        t: &Trace,
        _: &Counters,
        out: &Output,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let mut batch_s = 0.0;
        for ((profile, span), batch) in
            FaultPlan::PROFILES.iter().zip(BATCH_SPANS).zip(&out.batches)
        {
            let seconds = t.median_us("runtime", span) / 1e6;
            batch_s += seconds;
            m.set(format!("runtime.batch_s.{profile}"), seconds);
            let mut elapsed: Vec<f64> = batch.outcomes.iter().map(|o| o.elapsed_us).collect();
            elapsed.sort_by(f64::total_cmp);
            m.set(format!("runtime.virt_call_p99_us.{profile}"), quantile(&elapsed, 0.99));
        }
        let outcomes = || out.batches.iter().flat_map(|b| &b.outcomes);
        let calls = outcomes().count() as f64;
        let attempts: f64 = outcomes().map(|o| f64::from(o.attempts)).sum();
        m.set("runtime.calls_per_s", calls / batch_s);
        m.set("runtime.attempts", attempts);
        m.set("runtime.calls_per_attempt", calls / attempts);
        m.set("runtime.degraded_share", outcomes().filter(|o| o.degraded).count() as f64 / calls);
        m.set(
            "runtime.breaker_trips",
            out.batches.iter().map(|b| b.manager.tripped_devices().len()).sum::<usize>() as f64,
        );

        // The single-call path, one clock pair per call.
        let mut manager = self.manager("flaky")?;
        let mut execute_us = Vec::new();
        for call in self.calls.iter().take(4_096) {
            let start = Instant::now();
            manager.execute(call).map_err(|e| e.to_string())?;
            execute_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        m.set("runtime.execute_p50_us", median(&execute_us));

        let mut simulate_s = 0.0;
        for (_, span) in POLICIES {
            let us = t.median_us("workflow", span);
            simulate_s += us / 1e6;
            m.set(format!("workflow.{span}_us"), us);
        }
        let scheduled: usize = out.schedules.iter().map(|r| r.assignment.len()).sum();
        m.set("workflow.tasks_per_s", scheduled as f64 / simulate_s);
        m.set(
            "workflow.virt_makespan_heft_us",
            out.schedules.iter().filter(|r| r.policy == Policy::Heft).map(|r| r.makespan_us).sum(),
        );
        let graph_s = t.median_us("workflow", "parallel_graph") / 1e6;
        m.set("workflow.parallel_graph_s", graph_s);
        m.set("workflow.parallel_graph_tasks_per_s", self.graph_deps.len() as f64 / graph_s);

        // Fan-out cost of the pool every parallel layer rides.
        let items: Vec<u64> = (0..65_536).collect();
        let (sum, cost) = timed(|| {
            everest::workflow::pool::parallel_map("bench.pool", JOBS, items, |_, x| x + 1)
                .iter()
                .sum::<u64>()
        });
        std::hint::black_box(sum);
        m.set("workflow.pool_map_ns_per_item", cost.wall_s * 1e9 / 65_536.0);
        Ok(())
    }
}
