//! `cascade_e2e`: the repository's top line. The air-quality cascade
//! goes in as source text and comes out as served queries: compile
//! (cold synthesis memo) → fusion analysis → task graph → HEFT schedule
//! → deployment → one fault-injected offload batch → one served day.
//!
//! Almost all of a pass is high-level synthesis of five large kernels,
//! every design point a memo miss: allocator and page-fault behaviour
//! show here, serving and offload changes barely do.

use super::{
    check_conservation, compile, compile_layers, digest_str, digest_variants, distinct_hls_configs,
    memo_layers, Counters, Traffic, DAY_ARRIVALS,
};
use crate::harness::{Metrics, Outcome, Scale, Workload, JOBS};
use crate::manifest::bench_dir;
use crate::measure::{median, ns_per_call, timed};
use crate::trace::Trace;
use everest::apps::traffic::serve::{Arrival, ServeReport, ServeTier};
use everest::dsl::WorkflowSpec;
use everest::workflow::fuse::{EdgeClass, FusionPlan};
use everest::workflow::{simulate, Policy, RunReport, Worker};
use everest::{Compiled, FaultPlan, OffloadCall, OffloadManager, OffloadOutcome, Sdk, System};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

const KERNELS: &str = include_str!("../../workloads/cascade.edsl");
const WORKFLOW: &str = include_str!("../../workloads/pipeline.ewf");
/// Nodes the kernels are deployed to, in order of preference.
/// `Sdk::deploy` places every kernel it is given on one node, and the
/// POWER9 node has four role slots for the cascade's five kernels, so
/// the kernels that do not fit go to the disaggregated rack.
const NODES: [&str; 2] = ["cloud-p9", "cloudfpga-rack"];
/// Every tensor side of the pinned cascade is divided by this before it
/// is compiled. At full size one pass takes 7–12 s and touches 2 GiB,
/// too few passes fit a run, and the host's page-backing cost (which
/// varies twofold on the runner) decides the result; at half size a run
/// holds a dozen passes and the same layers carry the time. `--quick`
/// divides by four more.
const SIDE_DIVISOR: usize = 2;
/// A number followed by `x` is a tensor side; sides below this one
/// (the 3x3 and 5x5 convolution kernels) keep their size.
const SMALLEST_SIDE: usize = 32;
const OFFLOAD_CALLS: usize = 8_192;
const DAY_QPS: f64 = 20_000.0;

pub struct Cascade {
    sdk: Sdk,
    kernels: String,
    workers: Vec<Worker>,
    calls: usize,
    tier: ServeTier,
    day: Vec<Arrival>,
}

pub struct Output {
    compiled: Compiled,
    plan: FusionPlan,
    diagnostics: usize,
    schedule: RunReport,
    placements: Vec<(String, String)>,
    outcomes: Vec<OffloadOutcome>,
    /// The offload manager after the batch, for its event trace.
    manager: OffloadManager,
    served: ServeReport,
}

/// `source` with every tensor side of at least [`SMALLEST_SIDE`]
/// divided by `divisor`.
fn shrink_sides(source: &str, divisor: usize) -> String {
    let mut out = String::with_capacity(source.len());
    let mut rest = source;
    while let Some(start) = rest.find(|c: char| c.is_ascii_digit()) {
        let len = rest[start..].find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len() - start);
        let number = &rest[start..start + len];
        out.push_str(&rest[..start]);
        rest = &rest[start + len..];
        match number.parse::<usize>() {
            Ok(side) if side >= SMALLEST_SIDE && rest.starts_with('x') => {
                out.push_str(&(side / divisor).to_string());
            }
            _ => out.push_str(number),
        }
    }
    out.push_str(rest);
    out
}

/// Deploys `compiled` across [`NODES`]: each node takes as many kernels,
/// in declaration order, as it has role slots.
fn deploy(sdk: &Sdk, compiled: &Compiled) -> everest::SdkResult<Vec<(String, String)>> {
    let mut placements = Vec::new();
    let mut rest = compiled.kernels.as_slice();
    for node in NODES {
        let slots: usize =
            sdk.system.node_by_name(node).map_or(0, |n| n.devices.iter().map(|d| d.pr_slots).sum());
        let (here, later) = rest.split_at(slots.min(rest.len()));
        let part =
            Compiled { module: compiled.module.clone(), kernels: here.to_vec(), explore: None };
        placements.extend(sdk.deploy(&part, node)?.placements);
        rest = later;
    }
    Ok(placements)
}

/// Warns when a pinned input no longer matches `examples/`. Not an
/// error: the benchmark measures its own copies, so that numbers stay
/// comparable while the examples evolve.
fn warn_on_drift(file: &str, pinned: &str) {
    let path = bench_dir().join("../examples").join(file);
    match std::fs::read_to_string(&path) {
        Ok(current) if current != pinned => {
            eprintln!("warning: benchmark/workloads/{file} has drifted from examples/{file}");
        }
        _ => {}
    }
}

impl Cascade {
    fn pass_at(&mut self, sdk: &Sdk, t: &mut Trace) -> Result<Output, String> {
        let err = |e: everest::SdkError| e.to_string();
        everest::hls::cache::global().clear();
        self.tier.reset();

        let compiled = compile(sdk, &self.kernels, t)?;
        let (plan, diags) = t
            .call("core", "fuse_workflow", || sdk.fuse_workflow(WORKFLOW, &[self.kernels.as_str()]))
            .map_err(err)?;
        let (spec, graph) = t
            .call("core", "compile_workflow", || sdk.compile_workflow(WORKFLOW, &compiled))
            .map_err(err)?;
        let schedule = t
            .call("workflow", "simulate_heft", || simulate(&graph, &self.workers, Policy::Heft))
            .map_err(|e| e.to_string())?;
        let placements = t.call("core", "deploy", || deploy(sdk, &compiled)).map_err(err)?;

        // The offload batch replays the cascade's own tasks: each call
        // carries its kernel's scheduled cost and output size.
        let tasks: Vec<&everest::workflow::TaskSpec> = spec
            .task_names()
            .iter()
            .filter_map(|name| graph.tasks().iter().find(|task| task.name == *name))
            .collect();
        let calls: Vec<OffloadCall> = (0..self.calls)
            .map(|i| {
                let task = tasks[i % tasks.len()];
                OffloadCall {
                    kernel: task.name.clone(),
                    payload_bytes: task.output_bytes,
                    work_us: task.cost_us,
                }
            })
            .collect();
        let mut manager = sdk.offload_manager().map_err(err)?;
        let outcomes = t
            .call("runtime", "run_batch", || manager.run_batch(&calls, sdk.jobs))
            .map_err(|e| e.to_string())?;

        let served = t.call("apps", "serve_day", || self.tier.run(&self.day));
        Ok(Output {
            compiled,
            plan,
            diagnostics: diags.len(),
            schedule,
            placements,
            outcomes,
            manager,
            served,
        })
    }
}

impl Workload for Cascade {
    type Output = Output;
    /// ≈ 1.1 s a pass.
    const PASSES_PER_SECOND: f64 = 0.7;

    fn setup(seed: u64, scale: Scale) -> Result<Cascade, String> {
        warn_on_drift("cascade.edsl", KERNELS);
        warn_on_drift("pipeline.ewf", WORKFLOW);
        let kernels =
            shrink_sides(KERNELS, if scale.quick { 4 * SIDE_DIVISOR } else { SIDE_DIVISOR });
        let plan = FaultPlan::from_profile("flaky", seed).map_err(|e| e.to_string())?;
        let sdk = Sdk::builder().jobs(JOBS).fault_plan(plan).build();
        let traffic = Traffic::new(seed, scale);
        Ok(Cascade {
            sdk,
            kernels,
            workers: Worker::heterogeneous_pool(2, 2),
            calls: scale.div(OFFLOAD_CALLS),
            tier: traffic.tier(JOBS, scale),
            day: traffic.day(0, DAY_QPS, scale.div(DAY_ARRIVALS)),
        })
    }

    fn pass(&mut self, t: &mut Trace) -> Result<Output, String> {
        self.pass_at(&self.sdk.clone(), t)
    }

    fn digest(&self, out: &Output) -> Outcome {
        let mut h = DefaultHasher::new();
        digest_str(&mut h, &out.compiled.module.to_text());
        for kernel in &out.compiled.kernels {
            digest_variants(&mut h, &kernel.variants);
        }
        digest_str(&mut h, &out.plan.to_json());
        digest_str(&mut h, &format!("{:?}", out.schedule));
        digest_str(&mut h, &format!("{:?}", out.placements));
        digest_str(&mut h, &out.manager.trace());
        digest_str(&mut h, &out.served.fingerprint());
        let points: usize = out.compiled.kernels.iter().map(|k| k.variants.len()).sum();
        let arrivals = out.served.arrivals();
        Outcome {
            ops: points as u64,
            attempted: out.compiled.kernels.len() as u64 + self.calls as u64 + arrivals,
            failed: (self.calls - out.outcomes.len()) as u64 + out.diagnostics as u64,
            refused: out.served.dropped(),
            fingerprint: h.finish(),
            virt: vec![
                ("virt_makespan_us", out.schedule.makespan_us),
                ("virt_p50_us", out.served.latency.p50()),
                ("virt_p99_us", out.served.latency.p99()),
            ],
        }
    }

    fn verify(&mut self, out: &Output, outcome: &Outcome, full: bool) -> Result<(), String> {
        if out.outcomes.len() != self.calls {
            return Err(format!("{} offload calls, {} outcomes", self.calls, out.outcomes.len()));
        }
        check_conservation(&out.served)?;
        if out.plan.count(EdgeClass::Racy) != 0 || out.diagnostics != 0 {
            return Err(format!("the clean cascade has {} fusion diagnostics", out.diagnostics));
        }
        if out.placements.len() != out.compiled.kernels.len() {
            return Err(format!("only {} of the kernels were deployed", out.placements.len()));
        }
        if full {
            // 35 s on the 2-core runner, hence not part of every run.
            let mut sdk = self.sdk.clone();
            sdk.jobs = 1;
            let sequential = self.pass_at(&sdk, &mut Trace::new(false))?;
            if &self.digest(&sequential) != outcome {
                return Err("cascade outputs differ between jobs 1 and 2".into());
            }
        }
        Ok(())
    }

    fn layers(
        &mut self,
        t: &Trace,
        counters: &Counters,
        out: &Output,
        m: &mut Metrics,
    ) -> Result<(), String> {
        compile_layers(t, m);
        memo_layers(counters, m);
        m.span_us(t, "core", "fuse_workflow", "core.fuse_us");
        m.span_us(t, "core", "compile_workflow", "core.compile_workflow_us");
        m.span_us(t, "core", "deploy", "core.deploy_us");
        m.set("core.fusable_edges", out.plan.count(EdgeClass::Fusable) as f64);
        m.set("core.spill_edges", out.plan.count(EdgeClass::MustSpill) as f64);
        m.set("core.racy_edges", out.plan.count(EdgeClass::Racy) as f64);
        m.set("dsl.source_bytes", self.kernels.len() as f64);
        m.set("dsl.kernels", out.compiled.kernels.len() as f64);
        m.set(
            "dsl.workflow_parse_us",
            ns_per_call(256, |_| drop(WorkflowSpec::parse(WORKFLOW))) / 1e3,
        );

        let module = &out.compiled.module;
        let unoptimized =
            everest::dsl::compile_kernels(&self.kernels).map_err(|e| e.to_string())?;
        m.set("ir.ops_before", unoptimized.iter().map(|f| f.op_count()).sum::<usize>() as f64);
        m.set("ir.ops_after", module.iter().map(|f| f.op_count()).sum::<usize>() as f64);
        m.set(
            "ir.lints_us",
            ns_per_call(64, |_| drop(everest::ir::lints::check_module(module))) / 1e3,
        );
        m.set(
            "ir.footprint_us",
            ns_per_call(64, |_| drop(everest::ir::footprint::module_footprints(module))) / 1e3,
        );

        // Per kernel: its own exploration at a cold memo, then direct
        // synthesis at each distinct hardware configuration of the space.
        let space = &self.sdk.space;
        let configs = distinct_hls_configs(space);
        let mut points = 0usize;
        let (mut front, mut hypervolume, mut dfg_nodes, mut latency) = (0usize, 0.0, 0usize, 0u64);
        let mut dse_s = 0.0;
        for func in module.iter() {
            everest::hls::cache::global().clear();
            let (variants, cost) = timed(|| everest::variants::generate_jobs(func, space, JOBS));
            let variants = variants.map_err(|e| e.to_string())?;
            m.set(format!("variants.dse_s.{}", func.name), cost.wall_s);
            dse_s += cost.wall_s;
            points += variants.len();
            front += everest::variants::pareto::pareto_front(&variants).len();
            let reference = everest::variants::pareto::reference_point(&variants);
            hypervolume += everest::variants::pareto::hypervolume(&variants, reference);

            let mut synth_us = Vec::new();
            for config in &configs {
                let (acc, cost) = timed(|| everest::hls::synthesize(func, config));
                latency += acc.map_err(|e| e.to_string())?.latency_cycles;
                synth_us.push(cost.wall_s * 1e6);
            }
            m.set(format!("hls.synthesize_us.{}", func.name), median(&synth_us));
            let lowered =
                everest::hls::tensor_to_loops::lower_to_loops(func).map_err(|e| e.to_string())?;
            dfg_nodes += lowered.op_count();
        }
        m.set("variants.points", points as f64);
        m.set("variants.points_per_s", points as f64 / dse_s);
        m.set("variants.front_size", front as f64);
        m.set("variants.hypervolume", hypervolume);
        m.set("hls.dfg_nodes", dfg_nodes as f64);
        m.set("hls.latency_cycles", latency as f64);

        m.span_us(t, "workflow", "simulate_heft", "workflow.simulate_heft_us");
        m.set("workflow.virt_makespan_heft_us", out.schedule.makespan_us);

        let system = &self.sdk.system;
        m.set(
            "platform.system_build_us",
            ns_per_call(256, |_| drop(System::everest_reference())) / 1e3,
        );
        m.set(
            "platform.link_lookup_ns",
            ns_per_call(65_536, |_| {
                drop(std::hint::black_box(system.link("cloud-p9", "edge-arm")))
            }),
        );
        m.set("platform.stream_budget_bytes", system.stream_budget_bytes().unwrap_or(0) as f64);
        Ok(())
    }
}
