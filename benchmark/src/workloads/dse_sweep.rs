//! `dse_sweep`: the compile layers used the other way round. 512 small
//! kernels in 16 sources of thirty-two, each source through its own
//! `Sdk::compile` and Pareto filter, with the synthesis memo kept: the warm-up pass fills it, so
//! every hardware point of a timed pass is a memo hit — a library being
//! recompiled. Parse / type-check / lower / passes / verify /
//! enumeration / roofline / memo lookup / Pareto and the pool's fan-out
//! carry the time; synthesis, which is all of `cascade_e2e`, does not
//! run. A change that speeds synthesis but slows the hit path loses here.

use super::{
    compile, compile_layers, digest_variants, distinct_hls_configs, fronts, memo_layers, Counters,
};
use crate::harness::{Metrics, Outcome, Scale, Workload, JOBS};
use crate::measure::{quantile, timed};
use crate::sweep::{self, Kernel};
use crate::trace::Trace;
use everest::ir::interp::{Interp, RtValue};
use everest::ir::Func;
use everest::variants::pareto;
use everest::{Compiled, Sdk, Variant};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::Hasher;

const SOURCES: usize = 16;
/// Thirty-two kernels to a source, as a kernel library has. Every
/// compile has the pool start four threads, each of which leaves a
/// flight-recorder ring behind: kernel time and fresh pages, which on
/// the runner cost what the host decides. With one kernel to a source
/// that was most of the pass and ten runs spread by 29 % in wall time
/// and 4 % in user time; with eight, a third of the pass and 8–15 %;
/// with thirty-two, a fifth and 2–4 %.
const KERNELS_PER_SOURCE: usize = 32;
/// Sources the sequential no-memo engine (`jobs = 1`) is run on, to
/// check its variants against the pooled memoized engine's.
const SEQUENTIAL_SOURCES: usize = 2;

pub struct Sweep {
    sdk: Sdk,
    seed: u64,
    kernels: Vec<Kernel>,
    sources: Vec<String>,
}

pub struct Output {
    compiled: Vec<Compiled>,
    fronts: Vec<Vec<Vec<Variant>>>,
}

impl Sweep {
    fn compile_all(&self, sdk: &Sdk, sources: &[String], t: &mut Trace) -> Result<Output, String> {
        let mut out = Output { compiled: Vec::new(), fronts: Vec::new() };
        for source in sources {
            let compiled = compile(sdk, source, t)?;
            out.fronts.push(fronts(&compiled, t));
            out.compiled.push(compiled);
        }
        Ok(out)
    }

    fn distinct(&self) -> BTreeSet<Kernel> {
        self.kernels.iter().copied().collect()
    }

    /// The compiled IR of the first draw of `kernel`.
    fn func_of<'o>(&self, out: &'o Output, kernel: &Kernel) -> Result<&'o Func, String> {
        let at = self.kernels.iter().position(|k| k == kernel).ok_or("kernel was not drawn")?;
        let name = format!("k{}", at % KERNELS_PER_SOURCE);
        out.compiled[at / KERNELS_PER_SOURCE]
            .module
            .func(&name)
            .ok_or_else(|| format!("sweep kernel '{name}' missing from its module"))
    }

    /// Evaluates every distinct kernel's compiled IR with the reference
    /// interpreter on seeded inputs and compares with the plain-Rust
    /// oracle. Returns the seconds spent interpreting.
    fn check_oracle(&self, out: &Output) -> Result<f64, String> {
        let mut interp_s = 0.0;
        for kernel in self.distinct() {
            let func = self.func_of(out, &kernel)?;
            let inputs = sweep::inputs(&kernel, self.seed);
            let args: Vec<RtValue> = kernel
                .param_shapes()
                .iter()
                .zip(&inputs)
                .map(|(shape, data)| RtValue::tensor(shape, data.clone()))
                .collect();
            let (results, cost) = timed(|| Interp::new().call(func, &args));
            interp_s += cost.wall_s;
            let got = match results.map_err(|e| e.to_string())?.pop() {
                Some(RtValue::Tensor { data, .. }) => data,
                other => return Err(format!("{kernel:?}: interpreter returned {other:?}")),
            };
            let want = kernel.reference(&inputs);
            let worst = got.iter().zip(&want).map(|(g, w)| (g - w).abs()).fold(0.0, f64::max);
            if got.len() != want.len() || worst.is_nan() || worst > kernel.tolerance() {
                return Err(format!(
                    "{kernel:?}: interpreter and oracle differ by {worst:e} (> {:e})",
                    kernel.tolerance()
                ));
            }
        }
        Ok(interp_s)
    }

    /// The sequential no-memo engine over the first sources: its
    /// outputs and the seconds it took.
    fn sequential_prefix(&self) -> Result<(Output, f64), String> {
        let mut sdk = self.sdk.clone();
        sdk.jobs = 1;
        let prefix = &self.sources[..SEQUENTIAL_SOURCES.min(self.sources.len())];
        let (out, cost) = timed(|| self.compile_all(&sdk, prefix, &mut Trace::new(false)));
        Ok((out?, cost.wall_s))
    }
}

fn digest(out: &Output) -> u64 {
    let mut h = DefaultHasher::new();
    for (compiled, fronts) in out.compiled.iter().zip(&out.fronts) {
        for (kernel, front) in compiled.kernels.iter().zip(fronts) {
            digest_variants(&mut h, &kernel.variants);
            h.write_usize(front.len());
        }
    }
    h.finish()
}

impl Workload for Sweep {
    type Output = Output;
    /// ≈ 25 ms a pass, so three fifths of what the clock allows: every
    /// pass leaves 0.4–0.9 MiB of flight-recorder rings behind (fresh pool
    /// threads for every fan-out, a ring each, never freed), and past
    /// ≈ 850 MiB passes slow by a third. Below that their time is flat,
    /// and the growth itself reads as `peak_rss_mb`.
    const PASSES_PER_SECOND: f64 = 25.0;

    fn setup(seed: u64, scale: Scale) -> Result<Sweep, String> {
        let kernels = sweep::draw(seed, scale.div(SOURCES) * KERNELS_PER_SOURCE);
        let sources = kernels
            .chunks(KERNELS_PER_SOURCE)
            .map(|chunk| {
                let texts: Vec<String> =
                    chunk.iter().enumerate().map(|(i, k)| k.source(&format!("k{i}"))).collect();
                texts.join("\n")
            })
            .collect();
        // Cold for the warm-up pass, which fills it for the timed ones.
        everest::hls::cache::global().clear();
        Ok(Sweep { sdk: Sdk::builder().jobs(JOBS).build(), seed, kernels, sources })
    }

    fn pass(&mut self, t: &mut Trace) -> Result<Output, String> {
        self.compile_all(&self.sdk, &self.sources, t)
    }

    fn digest(&self, out: &Output) -> Outcome {
        let mut fastest_us: Vec<f64> = out
            .compiled
            .iter()
            .flat_map(|c| &c.kernels)
            .filter_map(|k| k.fastest().map(|v| v.metrics.total_us()))
            .collect();
        fastest_us.sort_by(f64::total_cmp);
        let points: usize =
            out.compiled.iter().flat_map(|c| &c.kernels).map(|k| k.variants.len()).sum();
        Outcome {
            ops: points as u64,
            attempted: self.kernels.len() as u64,
            failed: (self.kernels.len() - fastest_us.len()) as u64,
            refused: 0,
            fingerprint: digest(out),
            virt: vec![
                ("virt_makespan_us", fastest_us.iter().sum()),
                ("virt_p50_us", quantile(&fastest_us, 0.5)),
                ("virt_p99_us", quantile(&fastest_us, 0.99)),
            ],
        }
    }

    fn verify(&mut self, out: &Output, _: &Outcome, _: bool) -> Result<(), String> {
        self.check_oracle(out)?;
        let (sequential, _) = self.sequential_prefix()?;
        let n = sequential.compiled.len();
        for (i, (one, two)) in sequential.compiled.iter().zip(&out.compiled).enumerate() {
            let same = one.kernels.iter().zip(&two.kernels).all(|(a, b)| a.variants == b.variants);
            if !same || sequential.fronts[i] != out.fronts[i] {
                return Err(format!("source {i} of {n}: variants differ between jobs 1 and 2"));
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
        let mut per_source = t.durations_us("core", "compile");
        per_source.sort_by(f64::total_cmp);
        m.set("core.compile_p50_us", quantile(&per_source, 0.5));
        m.set("core.compile_p99_us", quantile(&per_source, 0.99));
        m.set("dsl.source_bytes", self.sources.iter().map(String::len).sum::<usize>() as f64);
        m.set("dsl.kernels", self.kernels.len() as f64);

        let mut ops_before = 0usize;
        for source in &self.sources {
            let module = everest::dsl::compile_kernels(source).map_err(|e| e.to_string())?;
            ops_before += module.iter().map(|f| f.op_count()).sum::<usize>();
        }
        let modules = || out.compiled.iter().map(|c| &c.module);
        m.set("ir.ops_before", ops_before as f64);
        m.set(
            "ir.ops_after",
            modules().flat_map(|md| md.iter()).map(|f| f.op_count()).sum::<usize>() as f64,
        );
        let (_, lints) =
            timed(|| modules().map(|md| everest::ir::lints::check_module(md).len()).sum::<usize>());
        m.set("ir.lints_us", lints.wall_s * 1e6);
        let (_, footprints) = timed(|| {
            modules().map(|md| everest::ir::footprint::module_footprints(md).len()).sum::<usize>()
        });
        m.set("ir.footprint_us", footprints.wall_s * 1e6);
        m.set("ir.interp_us", self.check_oracle(out)? * 1e6);

        // The miss path from outside: every distinct kernel synthesized
        // directly at every distinct hardware configuration.
        let configs = distinct_hls_configs(&self.sdk.space);
        let mut synth_us = Vec::new();
        let (mut dfg_nodes, mut latency) = (0usize, 0u64);
        for kernel in self.distinct() {
            let func = self.func_of(out, &kernel)?;
            for config in &configs {
                let (acc, cost) = timed(|| everest::hls::synthesize(func, config));
                latency += acc.map_err(|e| e.to_string())?.latency_cycles;
                synth_us.push(cost.wall_s * 1e6);
            }
            dfg_nodes += everest::hls::tensor_to_loops::lower_to_loops(func)
                .map_err(|e| e.to_string())?
                .op_count();
        }
        synth_us.sort_by(f64::total_cmp);
        m.set("hls.synthesize_p50_us", quantile(&synth_us, 0.5));
        m.set("hls.synthesize_p99_us", quantile(&synth_us, 0.99));
        m.set("hls.dfg_nodes", dfg_nodes as f64);
        m.set("hls.latency_cycles", latency as f64);

        let kernels = || out.compiled.iter().flat_map(|c| &c.kernels);
        let points: usize = kernels().map(|k| k.variants.len()).sum();
        let compile_s = t.median_us("core", "compile") / 1e6;
        m.set("variants.points", points as f64);
        m.set("variants.points_per_s", points as f64 / compile_s);
        m.set(
            "variants.front_size",
            out.fronts.iter().flatten().map(Vec::len).sum::<usize>() as f64,
        );
        m.set(
            "variants.hypervolume",
            kernels()
                .map(|k| pareto::hypervolume(&k.variants, pareto::reference_point(&k.variants)))
                .sum(),
        );
        let (sequential, seconds) = self.sequential_prefix()?;
        let sequential_points: usize =
            sequential.compiled.iter().flat_map(|c| &c.kernels).map(|k| k.variants.len()).sum();
        m.set("variants.j1_points_per_s", sequential_points as f64 / seconds);
        Ok(())
    }
}
