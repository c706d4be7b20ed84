//! The [`Sdk`] façade: compile kernels, explore variants, deploy roles to
//! the target system, and wire the runtime. Configure it through
//! [`Sdk::builder`] (the historical `Sdk::new()` / `Sdk::small()` /
//! `Sdk::with_jobs()` wrappers went through a deprecation cycle and are
//! gone; every caller builds).

use crate::error::SdkResult;
use everest_dsl::compile_kernels;
use everest_hls::accel::{synthesize, HlsConfig};
use everest_ir::pass::PassManager;
use everest_ir::Module;
use everest_platform::System;
use everest_runtime::offload::{FaultPlan, OffloadManager};
use everest_runtime::{Autotuner, Hypervisor};
use everest_variants::space::DesignSpace;
use everest_variants::{pareto, Variant};

/// A compiled kernel: its variants (operating points) and the Pareto set.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel symbol name.
    pub name: String,
    /// All generated variants.
    pub variants: Vec<Variant>,
}

impl CompiledKernel {
    /// The Pareto-optimal subset of the variants.
    pub fn pareto_front(&self) -> Vec<Variant> {
        pareto::pareto_front(&self.variants)
    }

    /// The fastest variant.
    pub fn fastest(&self) -> Option<&Variant> {
        pareto::fastest(&self.variants)
    }

    /// An autotuner pre-loaded with this kernel's operating points.
    pub fn autotuner(&self) -> Autotuner {
        Autotuner::new(self.variants.clone())
    }
}

/// Output of [`Sdk::compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized unified IR module.
    pub module: Module,
    /// Per-kernel variant sets, in declaration order.
    pub kernels: Vec<CompiledKernel>,
    /// Size of the exploration behind `kernels`; [`Sdk::compile`] always
    /// fills it. The field and its `Option` stay only because `benchmark/`
    /// builds `Compiled { .., explore: None }` literally and is frozen;
    /// drop both the next time `benchmark/` is opened (ROADMAP item 1).
    pub explore: Option<ExploreReport>,
}

/// The counts of one exploration (see [`Compiled::explore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Total (kernel × point) pairs in the space.
    pub points: usize,
    /// Software pairs, costed by the roofline model.
    pub software: usize,
    /// Hardware pairs, each synthesized exactly.
    pub exact: usize,
}

impl Compiled {
    /// Looks up one kernel's compilation result.
    pub fn kernel(&self, name: &str) -> Option<&CompiledKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// A deployment of compiled kernels onto a node's FPGA devices.
#[derive(Debug)]
pub struct Deployment {
    /// The hypervisor managing the node's devices and guest VMs.
    pub hypervisor: Hypervisor,
    /// `(kernel, vfpga handle)` pairs for the hardware variants deployed.
    pub placements: Vec<(String, String)>,
}

/// Builder for [`Sdk`]: the single place all façade configuration meets.
///
/// ```
/// use everest::{DesignSpace, Sdk};
///
/// let sdk = Sdk::builder().space(DesignSpace::small()).jobs(4).build();
/// assert_eq!(sdk.jobs, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SdkBuilder {
    space: DesignSpace,
    system: System,
    jobs: usize,
    fault_plan: Option<FaultPlan>,
}

impl Default for SdkBuilder {
    fn default() -> SdkBuilder {
        SdkBuilder {
            space: DesignSpace::default(),
            system: System::everest_reference(),
            jobs: 2,
            fault_plan: None,
        }
    }
}

impl SdkBuilder {
    /// Sets the design space swept per kernel.
    #[must_use]
    pub fn space(mut self, space: DesignSpace) -> SdkBuilder {
        self.space = space;
        self
    }

    /// Sets the target system model (default: the reference EVEREST
    /// demonstrator of Fig. 4).
    #[must_use]
    pub fn system(mut self, system: System) -> SdkBuilder {
        self.system = system;
        self
    }

    /// Sets the DSE worker count (clamped to at least 1).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> SdkBuilder {
        self.jobs = jobs.max(1);
        self
    }

    /// Arms a fault-injection plan; [`Sdk::offload_manager`] wires it into
    /// the offload recovery layer.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> SdkBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Sdk {
        Sdk {
            space: self.space,
            hls: HlsConfig::default(),
            system: self.system,
            jobs: self.jobs,
            fault_plan: self.fault_plan,
        }
    }
}

/// The one kernel front end of [`Sdk`]: parse and type-check, lower to the
/// unified IR, run the standard passes, verify.
fn front_end(source: &str) -> SdkResult<Module> {
    let mut module = compile_kernels(source)?;
    canonicalize(&mut module)?;
    Ok(module)
}

/// Runs the standard pass pipeline over a compiled module and verifies
/// the result.
fn canonicalize(module: &mut Module) -> SdkResult<()> {
    PassManager::standard().run(module)?;
    let _span = everest_telemetry::span("ir.verify", "ir");
    module.verify()?;
    Ok(())
}

/// The EVEREST SDK: configuration plus the compile/deploy entry points.
#[derive(Debug, Clone)]
pub struct Sdk {
    /// Design space swept per kernel.
    pub space: DesignSpace,
    /// HLS configuration for hardware variants.
    pub hls: HlsConfig,
    /// The target system model.
    pub system: System,
    /// DSE worker count: `1` runs the sequential reference evaluator,
    /// `>= 2` the pooled, memoized engine. Outputs are bit-identical
    /// either way.
    pub jobs: usize,
    /// The armed fault-injection plan, if any (see
    /// `SdkBuilder::fault_plan`).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for Sdk {
    fn default() -> Sdk {
        Sdk::builder().build()
    }
}

impl Sdk {
    /// Starts configuring an SDK.
    pub fn builder() -> SdkBuilder {
        SdkBuilder::default()
    }

    /// An offload recovery layer over this SDK's system, armed with the
    /// configured fault plan (or a fault-free plan when none was set).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] when the system model has no nodes.
    pub fn offload_manager(&self) -> SdkResult<OffloadManager> {
        let plan = self.fault_plan.clone().unwrap_or_else(|| FaultPlan::none(0));
        Ok(OffloadManager::for_system(&self.system, plan)?)
    }

    /// Compiles tensor-DSL source: parse + type-check, lower to the unified
    /// IR, canonicalize, then generate the variant set for every kernel
    /// (the full Fig. 1 flow).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] for DSL, verification or HLS failures.
    pub fn compile(&self, source: &str) -> SdkResult<Compiled> {
        let mut compile_span = everest_telemetry::span("sdk.compile", "sdk");
        let module = front_end(source)?;
        let kernels = {
            let funcs: Vec<&everest_ir::Func> = module.iter().collect();
            let sets = everest_variants::generate_all(&funcs, &self.space, self.jobs)?;
            funcs
                .iter()
                .zip(sets)
                .map(|(func, variants)| CompiledKernel { name: func.name.clone(), variants })
                .collect::<Vec<_>>()
        };
        compile_span.attr("kernels", kernels.len());
        compile_span.attr("jobs", self.jobs);
        let exact = kernels.iter().flat_map(|k| &k.variants).filter(|v| v.is_hardware()).count();
        let points = kernels.iter().map(|k| k.variants.len()).sum();
        let explore = Some(ExploreReport { points, software: points - exact, exact });
        Ok(Compiled { module, kernels, explore })
    }

    /// Statically checks tensor-DSL kernels that
    /// [`everest_dsl::compile_kernels`] compiled: canonicalizes them like
    /// [`Sdk::compile`], then runs every IR lint (liveness, range, taint/IFC)
    /// without generating variants. Returns the diagnostics; an empty vector
    /// means the source is clean. Taking the compiled module lets a caller
    /// that also needs it for something else compile the source once.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] for pass or verification failures —
    /// malformed IR is a hard error, not a diagnostic.
    pub fn check(&self, mut module: Module) -> SdkResult<Vec<everest_ir::Diagnostic>> {
        let mut span = everest_telemetry::span("sdk.check", "sdk");
        canonicalize(&mut module)?;
        let diags = everest_ir::lints::check_module(&module);
        span.attr("diagnostics", diags.len());
        Ok(diags)
    }

    /// Statically checks workflow-DSL source: parses the spec and runs the
    /// dataset race detector over its task graph.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] when the workflow source is invalid.
    pub fn check_workflow(&self, source: &str) -> SdkResult<Vec<everest_ir::Diagnostic>> {
        let spec = everest_dsl::WorkflowSpec::parse(source)?;
        Ok(crate::check::check_workflow_spec(&spec))
    }

    /// Runs the stream-fusion legality analysis over one workflow: compiles
    /// every kernel source, indexes per-kernel footprint summaries, and
    /// classifies each dataset edge against the weakest FPGA's BRAM stream
    /// budget (see [`System::stream_budget_bytes`]; `0` when the system has
    /// no FPGAs, so nothing fuses). Returns the machine-checkable plan plus
    /// the diagnostics (unresolved kernels, racy edges) — an empty
    /// diagnostic list means the plan is safe to hand to a transport layer.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] when the workflow or any kernel source
    /// is invalid — malformed input is a hard error, not a diagnostic.
    pub fn fuse_workflow(
        &self,
        workflow_source: &str,
        kernel_sources: &[&str],
    ) -> SdkResult<(everest_workflow::fuse::FusionPlan, Vec<everest_ir::Diagnostic>)> {
        let mut span = everest_telemetry::span("sdk.fuse", "sdk");
        let spec = everest_dsl::WorkflowSpec::parse(workflow_source)?;
        let modules = kernel_sources.iter().map(|s| front_end(s)).collect::<SdkResult<Vec<_>>>()?;
        let index = crate::fuse::kernel_index(&modules);
        let budget = self.system.stream_budget_bytes().unwrap_or(0);
        let mut diags = crate::fuse::unresolved_diags(&spec, &index);
        let plan = crate::fuse::build_plan(&spec, &index, budget);
        diags.extend(crate::fuse::plan_diags(&spec, &plan));
        span.attr("edges", plan.edges.len());
        span.attr("diagnostics", diags.len());
        Ok((plan, diags))
    }

    /// Synthesizes one kernel to an accelerator artifact (RTL + reports)
    /// without variant exploration, from the same canonicalized module
    /// [`Sdk::compile`] explores.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] for DSL or HLS failures.
    pub fn synthesize_kernel(
        &self,
        source: &str,
        kernel: &str,
    ) -> SdkResult<everest_hls::Accelerator> {
        let mut sdk_span = everest_telemetry::span("sdk.synthesize_kernel", "sdk");
        sdk_span.attr("kernel", kernel);
        let module = front_end(source)?;
        let func = module
            .func(kernel)
            .ok_or_else(|| everest_ir::IrError::UnknownSymbol(kernel.to_owned()))?;
        let mut hls_span = everest_telemetry::span("hls.synthesize", "hls");
        hls_span.attr("kernel", kernel);
        Ok(synthesize(func, &self.hls)?)
    }

    /// Parses a workflow and binds it to previously compiled kernels: a
    /// task whose callee matches a compiled kernel is costed with that
    /// kernel's fastest variant (latency + its result size); unmatched
    /// tasks get a nominal I/O cost.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] when the workflow source is invalid.
    pub fn compile_workflow(
        &self,
        source: &str,
        compiled: &Compiled,
    ) -> SdkResult<(everest_dsl::WorkflowSpec, everest_workflow::TaskGraph)> {
        let spec = everest_dsl::WorkflowSpec::parse(source)?;
        let graph =
            crate::bridge::task_graph_from_workflow(&spec, |name| match compiled.kernel(name) {
                Some(kernel) => {
                    let cost = kernel.fastest().map(|v| v.metrics.total_us()).unwrap_or(100.0);
                    let bytes = compiled
                        .module
                        .func(name)
                        .and_then(|f| f.results.first())
                        .and_then(|t| t.byte_size())
                        .unwrap_or(10_000) as u64;
                    (cost, bytes)
                }
                None => (100.0, 10_000),
            });
        Ok((spec, graph))
    }

    /// Deploys the fastest hardware variant of every kernel onto the named
    /// node, creating a guest VM with vFPGA handles.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SdkError`] if the node is unknown or the fabric
    /// cannot host a role.
    pub fn deploy(&self, compiled: &Compiled, node: &str) -> SdkResult<Deployment> {
        let node_model = self
            .system
            .node_by_name(node)
            .ok_or_else(|| everest_platform::PlatformError::Unknown(node.to_owned()))?;
        let mut hypervisor = Hypervisor::new(node, node_model.devices.clone());
        hypervisor.create_vm("guest0", 4, "linux");
        let mut placements = Vec::new();
        for kernel in &compiled.kernels {
            let Some(hw) = kernel
                .variants
                .iter()
                .filter(|v| v.is_hardware())
                .min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
            else {
                continue;
            };
            let area = everest_hls::AreaReport {
                luts: hw.metrics.area_luts,
                ffs: hw.metrics.area_luts, // FF≈LUT at this granularity
                dsps: 8,
                brams: hw.metrics.area_brams,
            };
            let handle = hypervisor.attach_vfpga("guest0", &kernel.name, area)?;
            placements.push((kernel.name.clone(), handle));
        }
        Ok(Deployment { hypervisor, placements })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sdk() -> Sdk {
        Sdk::builder().space(DesignSpace::small()).build()
    }

    const SRC: &str = "
        kernel gemm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
            return a @ b;
        }
        kernel smooth(x: tensor<64xf64>) -> tensor<64xf64> {
            return stencil(x, [0.25, 0.5, 0.25]);
        }
    ";

    #[test]
    fn compile_generates_variants_per_kernel() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        assert_eq!(compiled.kernels.len(), 2);
        let gemm = compiled.kernel("gemm").unwrap();
        assert_eq!(gemm.variants.len(), sdk.space.size());
        assert!(gemm.fastest().is_some());
        assert!(!gemm.pareto_front().is_empty());
        let report = compiled.explore.as_ref().expect("compile fills the report");
        assert_eq!(report.points, 2 * sdk.space.size());
        assert_eq!(report.exact, 2 * gemm.variants.iter().filter(|v| v.is_hardware()).count());
    }

    #[test]
    fn compile_rejects_bad_source() {
        let sdk = small_sdk();
        assert!(matches!(sdk.compile("kernel broken(").unwrap_err(), crate::SdkError::Dsl(_)));
    }

    #[test]
    fn synthesize_kernel_produces_rtl() {
        let sdk = small_sdk();
        let acc = sdk.synthesize_kernel(SRC, "smooth").unwrap();
        assert!(acc.rtl.contains("module smooth_loops"));
        assert!(acc.latency_cycles > 0);
    }

    #[test]
    fn synthesize_unknown_kernel_fails() {
        let sdk = small_sdk();
        assert!(matches!(
            sdk.synthesize_kernel(SRC, "ghost").unwrap_err(),
            crate::SdkError::Ir(everest_ir::IrError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn deploy_places_hardware_variants() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        let deployment = sdk.deploy(&compiled, "cloud-p9").unwrap();
        assert_eq!(deployment.placements.len(), 2);
        assert!(deployment.hypervisor.vm("guest0").is_some());
    }

    #[test]
    fn deploy_to_unknown_node_fails() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        assert!(matches!(sdk.deploy(&compiled, "mars").unwrap_err(), crate::SdkError::Platform(_)));
    }

    #[test]
    fn compile_workflow_binds_kernel_costs() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        let (spec, graph) = sdk
            .compile_workflow(
                "workflow w { source raw: \"in\"; task gemm(raw) -> out; sink out: \"done\"; }",
                &compiled,
            )
            .unwrap();
        assert_eq!(spec.task_names(), vec!["gemm"]);
        let gemm_task = graph.tasks().iter().find(|t| t.name == "gemm").unwrap();
        // The bridge clamps task costs to >= 1 us (scheduler granularity).
        let expected =
            compiled.kernel("gemm").unwrap().fastest().unwrap().metrics.total_us().max(1.0);
        assert!((gemm_task.cost_us - expected).abs() < 1e-9);
        // Output bytes come from the kernel's declared result tensor.
        assert_eq!(gemm_task.output_bytes, 16 * 16 * 8);
    }

    #[test]
    fn compile_workflow_rejects_bad_source() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        assert!(sdk.compile_workflow("workflow broken {", &compiled).is_err());
    }

    #[test]
    fn builder_configures_every_knob() {
        use everest_runtime::offload::FaultRates;
        let plan = FaultPlan::new(9, FaultRates { drop: 0.1, ..FaultRates::NONE }).unwrap();
        let sdk = Sdk::builder()
            .space(DesignSpace::small())
            .system(System::everest_reference())
            .jobs(0) // clamped
            .fault_plan(plan.clone())
            .build();
        assert_eq!(sdk.jobs, 1);
        assert_eq!(sdk.space.size(), DesignSpace::small().size());
        assert_eq!(sdk.fault_plan, Some(plan));
        // The armed plan reaches the offload layer.
        let mgr = sdk.offload_manager().unwrap();
        assert!(!mgr.chain().is_empty());
    }

    #[test]
    fn offload_manager_defaults_to_a_fault_free_plan() {
        let mut mgr = small_sdk().offload_manager().unwrap();
        let call = everest_runtime::offload::OffloadCall {
            kernel: "gemm".into(),
            payload_bytes: 4096,
            work_us: 50.0,
        };
        let outcome = mgr.execute(&call).unwrap();
        assert!(!outcome.degraded);
    }

    #[test]
    fn autotuner_integrates_with_compiled_kernels() {
        let sdk = small_sdk();
        let compiled = sdk.compile(SRC).unwrap();
        let tuner = compiled.kernel("gemm").unwrap().autotuner();
        let choice = tuner.select(&Default::default()).unwrap();
        assert!(compiled.kernel("gemm").unwrap().variants.iter().any(|v| v.id == choice.id));
    }
}
