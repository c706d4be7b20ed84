//! # everest-variants — code/hardware variant generation and DSE
//!
//! The EVEREST middle end "explore\[s\] the design space and create\[s\]
//! multiple hardware and software variants ... performance/energy
//! trade-offs that are exposed to the runtime system" (paper III-B). This
//! crate implements that stage:
//!
//! * `analysis` — extracts a kernel's workload (flop count, bytes moved,
//!   arithmetic intensity) from its IR;
//! * `transform` — the transformation vocabulary (threads, layout,
//!   tiling, FPGA offload, banking, pipelining, DIFT hardening);
//! * `cost` — software (roofline-style) and hardware (via
//!   [`everest_hls`]) cost models;
//! * `knob` — the typed [`KnobVector`] design point shared by
//!   enumeration, memoization and the dataset feature encoder;
//! * [`space`] — design-space enumeration and validation;
//! * [`pareto`] — O(n log n) Pareto-front filtering over (latency,
//!   energy, area), plus exact [`pareto::hypervolume`];
//! * [`dataset`] — seed-reproducible tables of synthesized design points
//!   (`everestc dataset`);
//! * `error` — the [`VariantError`] DSE failure type;
//! * [`variant`] — the [`variant::Variant`] records, serializable as the
//!   "meta-information about the variants ... provided to the runtime".
//!
//! ## Example
//!
//! ```
//! let module = everest_dsl::compile_kernels(
//!     "kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }",
//! ).unwrap();
//! let space = everest_variants::space::DesignSpace::default();
//! let variants = everest_variants::generate_jobs(module.func("mm").unwrap(), &space, 1).unwrap();
//! assert!(variants.len() > 4);
//! let front = everest_variants::pareto::pareto_front(&variants);
//! assert!(!front.is_empty());
//! ```

pub(crate) mod analysis;
pub(crate) mod cost;
pub mod dataset;
pub(crate) mod error;
pub(crate) mod knob;
pub mod pareto;
pub mod space;
pub(crate) mod transform;
pub mod variant;

pub(crate) use analysis::KernelWorkload;
pub use dataset::{Dataset, DatasetConfig};
pub use error::VariantError;
pub(crate) use error::VariantResult;
pub use knob::KnobVector;
pub use transform::{Layout, Target, Transform};
pub use variant::{Metrics, Variant};

use everest_hls::cache::{self, SynthCache};
use everest_ir::Func;

/// Generates the variant set for one kernel with `jobs` workers.
///
/// See [`generate_all`] for the `jobs` semantics.
///
/// # Errors
///
/// Returns [`VariantError`] for a malformed space or an HLS failure.
pub fn generate_jobs(
    func: &Func,
    space: &space::DesignSpace,
    jobs: usize,
) -> VariantResult<Vec<Variant>> {
    Ok(generate_all(&[func], space, jobs)?.pop().expect("one variant set per kernel"))
}

/// The one exploration: enumerates the space, gets the synthesis summary
/// of every hardware (kernel × point) pair from `cost`'s batch evaluator
/// — the crate's only pool fan-out — and assembles the variant sets.
/// Software points never reach the evaluator: the roofline model is
/// arithmetic, evaluated during assembly.
///
/// * `jobs == 1` is the sequential reference: every hardware point
///   synthesizes directly on the calling thread, in enumeration order,
///   with no memoization.
/// * at two or more the batch goes through the process-wide
///   [`everest_hls::cache`]: each kernel is fingerprinted and each knob
///   keyed once, the memo is probed on the calling thread, and only the
///   distinct keys it lacks — points that differ in software knobs or
///   attachment target share one, as do structurally identical kernels —
///   are synthesized, on up to `jobs` workers. A compile the memo already
///   covers starts no worker.
///
/// Variant ids, ordering and metrics are bit-identical at any worker
/// count; on failure, the error of the lowest-indexed failing point is
/// returned regardless of evaluation order.
///
/// # Errors
///
/// Returns [`VariantError::Space`] for a malformed space and
/// [`VariantError::Hls`] when a hardware point fails to synthesize.
pub fn generate_all(
    funcs: &[&Func],
    space: &space::DesignSpace,
    jobs: usize,
) -> VariantResult<Vec<Vec<Variant>>> {
    generate_all_in(cache::global(), funcs, space, jobs)
}

/// [`generate_all`] memoizing in `memo` rather than in the process-wide
/// cache, so that a caller — a test, above all — can own what is cached
/// and read its [`SynthCache::lookups`].
///
/// # Errors
///
/// As [`generate_all`].
pub fn generate_all_in(
    memo: &SynthCache,
    funcs: &[&Func],
    space: &space::DesignSpace,
    jobs: usize,
) -> VariantResult<Vec<Vec<Variant>>> {
    space.validate()?;
    let knobs = space.enumerate_knobs();
    let hardware: Vec<KnobVector> = knobs.iter().copied().filter(|k| k.is_hardware()).collect();
    // Hardware (kernel, point) pairs, kernel-major in enumeration order.
    let pairs: Vec<(usize, usize)> =
        (0..funcs.len()).flat_map(|f| (0..hardware.len()).map(move |k| (f, k))).collect();

    let mut span = everest_telemetry::span("dse.evaluate", "variants");
    span.attr("kernels", funcs.len());
    span.attr("points", funcs.len() * knobs.len());
    span.attr("jobs", jobs.max(1));
    span.attr("hw_pairs", pairs.len());

    let workloads: Vec<KernelWorkload> = funcs.iter().map(|f| analysis::analyze(f)).collect();
    let memo = (jobs >= 2).then_some(memo);
    let batch = cost::summarize_batch("dse.worker", jobs, memo, funcs, &hardware, &pairs);
    span.attr("hits", batch.hits);
    span.attr("misses", batch.misses);
    // Results come back in request order, so the first error met is the
    // lowest-indexed failing pair.
    let summaries = batch.summaries.into_iter().collect::<Result<Vec<_>, _>>()?;

    // What every kernel's variant of a point shares is made once per point:
    // the id suffix and the transform list.
    let points: Vec<(String, Vec<Transform>)> =
        knobs.iter().enumerate().map(|(i, knob)| (format!("#{i}"), knob.to_transforms())).collect();
    let mut exact = summaries.iter();
    let mut sets = Vec::with_capacity(funcs.len());
    for (func, workload) in funcs.iter().zip(&workloads) {
        let mut span = everest_telemetry::span("variants.generate", "variants");
        span.attr("kernel", &func.name);
        span.attr("space", knobs.len());
        let mut variants = Vec::with_capacity(knobs.len());
        for (knob, (suffix, transforms)) in knobs.iter().zip(&points) {
            let metrics = if knob.is_hardware() {
                let summary = exact.next().expect("one summary per hardware pair");
                cost::metrics_from_summary(summary, workload, knob.target())
            } else {
                cost::software_metrics_knob(workload, knob)
            };
            variants.push(Variant {
                id: [func.name.as_str(), suffix].concat(),
                kernel: func.name.clone(),
                transforms: transforms.clone(),
                metrics,
            });
        }
        sets.push(variants);
    }
    Ok(sets)
}
