//! Cost models mapping a design point to predicted metrics.
//!
//! Software variants use a roofline model (compute roof vs. bandwidth
//! roof, adjusted by threading, tiling and layout); hardware variants run
//! the actual HLS flow from [`everest_hls`] and add the attachment's
//! transfer cost. Every entry point takes the typed [`KnobVector`].
//! [`summarize_batch`] is the one fan-out the exploration and dataset
//! runs synthesize through. It works per batch, not per point: kernels
//! are fingerprinted and knobs keyed once, the synthesis memo is probed
//! before any worker starts, and only the distinct keys the memo lacks
//! are synthesized — a memo hit costs a hash lookup.

use crate::analysis::KernelWorkload;
use crate::knob::KnobVector;
use crate::transform::{Layout, Target};
use crate::variant::Metrics;
use everest_hls::accel::{synthesize, HlsConfig, SynthSummary};
use everest_hls::cache::{func_fingerprint, ConfigKey, SynthCache};
use everest_hls::HlsError;
use everest_ir::Func;
use everest_workflow::pool;
use std::collections::HashMap;
use std::time::Instant;

/// Reference host CPU for software variants (one POWER9-class socket).
const GFLOPS_PER_CORE: f64 = 12.0;
const MAX_CORES: u32 = 22;
const MEM_BW_GBPS: f64 = 110.0;
const CPU_IDLE_W: f64 = 60.0;
const CPU_PER_THREAD_W: f64 = 6.0;

/// Bus attachment (OpenCAPI): latency µs, bandwidth GB/s.
const BUS_LAT_US: f64 = 0.4;
const BUS_BW_GBPS: f64 = 22.0;
/// Network attachment (cloudFPGA UDP): latency µs, bandwidth GB/s.
const NET_LAT_US: f64 = 4.0;
const NET_BW_GBPS: f64 = 1.2;

/// Evaluates one design point, synthesizing hardware points directly
/// (the sequential reference path).
///
/// # Errors
///
/// Propagates [`HlsError`] from hardware synthesis.
pub fn evaluate_knob(
    func: &Func,
    workload: &KernelWorkload,
    knob: &KnobVector,
) -> Result<Metrics, HlsError> {
    match knob {
        KnobVector::Software { .. } => Ok(software_metrics_knob(workload, knob)),
        KnobVector::Hardware { target, .. } => {
            let summary = synthesize(func, &knob.hls_config())?.summary();
            Ok(metrics_from_summary(&summary, workload, *target))
        }
    }
}

/// What [`summarize_batch`] hands back: one result per requested pair, in
/// request order, and how the memo answered.
pub(crate) struct Batch {
    pub summaries: Vec<Result<SynthSummary, HlsError>>,
    /// [`func_fingerprint`] of each kernel, taken once for the batch
    /// (empty without a memo: the reference names nothing).
    pub fingerprints: Vec<u64>,
    /// Pairs served by an entry the memo already held, or by another pair
    /// of this batch with the same key.
    pub hits: usize,
    /// Distinct keys the memo did not hold: the syntheses this batch ran.
    pub misses: usize,
}

/// The batch evaluator: the synthesis summary of every requested
/// `(funcs[f], knobs[k])` pair, in request order. The exploration and
/// dataset rows both come through here, so worker fan-out is decided once.
///
/// With a `memo`, what can be done once per batch is not done per pair:
/// each kernel is fingerprinted once and each knob turned into its
/// [`HlsConfig`] + [`ConfigKey`] once, the memo is probed on the calling
/// thread, and only the distinct keys it does not hold go to the `jobs`
/// pool workers — one synthesis per key, failing or not — before the
/// summaries are scattered back. A batch of hits starts no worker. The
/// lookups are counted once, on the cache, and `dse.hls.cache.hit_us`
/// gets one observation: naming and probing, per pair.
///
/// Without one, every pair is synthesized directly: the memo-free
/// reference the memoized results are tested against.
pub(crate) fn summarize_batch(
    label: &str,
    jobs: usize,
    memo: Option<&SynthCache>,
    funcs: &[&Func],
    knobs: &[KnobVector],
    pairs: &[(usize, usize)],
) -> Batch {
    debug_assert!(knobs.iter().all(KnobVector::is_hardware), "software points never synthesize");
    let start = Instant::now();
    let configs: Vec<(HlsConfig, ConfigKey)> = knobs
        .iter()
        .map(|knob| {
            let config = knob.hls_config();
            let key = ConfigKey::of(&config);
            (config, key)
        })
        .collect();
    let fingerprints: Vec<u64> = match memo {
        Some(_) => funcs.iter().map(|func| func_fingerprint(func)).collect(),
        None => Vec::new(),
    };

    // Each pair resolves to a summary now, or to the slot of `work` whose
    // synthesis will produce it.
    let mut work: Vec<(usize, usize)> = Vec::new();
    let mut resolved: Vec<Result<SynthSummary, usize>> = Vec::with_capacity(pairs.len());
    let (mut hits, mut misses) = (0, 0);
    if let Some(cache) = memo {
        let mut slot_of: HashMap<(u64, ConfigKey), usize> = HashMap::new();
        for &(f, k) in pairs {
            let (fingerprint, key) = (fingerprints[f], &configs[k].1);
            resolved.push(cache.probe(fingerprint, key).ok_or_else(|| {
                *slot_of.entry((fingerprint, *key)).or_insert_with(|| {
                    work.push((f, k));
                    work.len() - 1
                })
            }));
        }
        misses = work.len();
        hits = pairs.len() - misses;
        cache.count_lookups(hits as u64, misses as u64);
        if !pairs.is_empty() {
            let per_pair_us = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;
            everest_telemetry::metrics().observe("dse.hls.cache.hit_us", per_pair_us);
        }
    } else {
        work.extend_from_slice(pairs);
        resolved.extend((0..pairs.len()).map(Err));
    }

    let synthesized = if work.is_empty() {
        Vec::new()
    } else {
        pool::parallel_map(label, jobs, work, |_, (f, k)| {
            let (config, key) = &configs[k];
            match memo {
                Some(cache) => cache.synthesize_keyed(fingerprints[f], key, funcs[f], config),
                None => Ok(synthesize(funcs[f], config)?.summary()),
            }
        })
    };
    let summaries =
        resolved.into_iter().map(|r| r.or_else(|slot| synthesized[slot].clone())).collect();
    Batch { summaries, fingerprints, hits, misses }
}

/// Roofline software model over the typed knobs.
pub fn software_metrics_knob(workload: &KernelWorkload, knob: &KnobVector) -> Metrics {
    let (threads, layout, tile) = match *knob {
        KnobVector::Software { threads, layout, tile } => (threads, layout, tile),
        // A hardware point run on the CPU fallback path: bare reference
        // settings.
        KnobVector::Hardware { .. } => (1, Layout::Aos, None),
    };
    let threads = threads.clamp(1, MAX_CORES);
    let parallel_eff = if threads > 1 { 0.7 } else { 1.0 };
    // Tiling improves cache reuse for large, compute-dense kernels.
    let tile_boost = match tile {
        Some(_) if workload.intensity() > 4.0 && workload.max_dim >= 32 => 1.4,
        Some(_) => 1.0,
        None => 1.0,
    };
    // SoA streams better for bandwidth-bound kernels.
    let layout_bw = match layout {
        Layout::Soa => 1.3,
        Layout::Aos => 1.0,
    };
    let compute_us =
        workload.flops / (GFLOPS_PER_CORE * 1e3 * threads as f64 * parallel_eff * tile_boost);
    let memory_us = workload.bytes / (MEM_BW_GBPS * 1e3 * layout_bw);
    let latency_us = compute_us.max(memory_us).max(0.05);
    let power_w = CPU_IDLE_W / 4.0 + CPU_PER_THREAD_W * threads as f64;
    let energy_mj = power_w * latency_us * 1e-6 * 1e3;
    Metrics { latency_us, transfer_us: 0.0, energy_mj, area_luts: 0, area_brams: 0 }
}

/// Derives variant metrics from a synthesis summary plus the
/// attachment's transfer cost. This is the single bridge from the
/// synthesis domain (cycles, LUTs) to the DSE objective domain
/// (time, energy, area).
pub(crate) fn metrics_from_summary(
    summary: &SynthSummary,
    workload: &KernelWorkload,
    target: Target,
) -> Metrics {
    let (lat, bw) = match target {
        Target::FpgaBus => (BUS_LAT_US, BUS_BW_GBPS),
        Target::FpgaNetwork => (NET_LAT_US, NET_BW_GBPS),
        Target::Cpu => unreachable!("software handled by caller"),
    };
    let transfer_us = 2.0 * lat + workload.bytes / (bw * 1e3);
    let transfer_energy_mj = workload.bytes * 20e-9 * 1e3 * 1e-6; // 20 nJ/B
    Metrics {
        latency_us: summary.time_us(),
        transfer_us,
        energy_mj: summary.energy_uj() * 1e-3 + transfer_energy_mj,
        area_luts: summary.area.luts,
        area_brams: summary.area.brams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;

    fn mm_kernel(n: usize) -> Func {
        let src = format!(
            "kernel mm(a: tensor<{n}x{n}xf64>, b: tensor<{n}x{n}xf64>) -> tensor<{n}x{n}xf64> {{ return a @ b; }}"
        );
        let m = everest_dsl::compile_kernels(&src).unwrap();
        m.func("mm").unwrap().clone()
    }

    fn sw(threads: u32, layout: Layout, tile: Option<usize>) -> KnobVector {
        KnobVector::Software { threads, layout, tile }
    }

    fn hw(target: Target, dift: bool) -> KnobVector {
        KnobVector::Hardware { target, banks: 4, pe: 8, pipeline: true, dift }
    }

    #[test]
    fn more_threads_reduce_compute_bound_latency() {
        let f = mm_kernel(64);
        let w = analyze(&f);
        let t1 = software_metrics_knob(&w, &sw(1, Layout::Aos, None));
        let t8 = software_metrics_knob(&w, &sw(8, Layout::Aos, None));
        assert!(t8.latency_us < t1.latency_us);
    }

    #[test]
    fn tiling_helps_only_dense_kernels() {
        let mm = analyze(&mm_kernel(64));
        let tiled = software_metrics_knob(&mm, &sw(1, Layout::Aos, Some(32)));
        let flat = software_metrics_knob(&mm, &sw(1, Layout::Aos, None));
        assert!(tiled.latency_us < flat.latency_us);

        // A bandwidth-bound axpy gains nothing from tiling.
        let m = everest_dsl::compile_kernels(
            "kernel ax(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> { return a + b; }",
        )
        .unwrap();
        let ax = analyze(m.func("ax").unwrap());
        let tiled = software_metrics_knob(&ax, &sw(1, Layout::Aos, Some(32)));
        let flat = software_metrics_knob(&ax, &sw(1, Layout::Aos, None));
        assert_eq!(tiled.latency_us, flat.latency_us);
    }

    #[test]
    fn soa_helps_bandwidth_bound_kernels() {
        let m = everest_dsl::compile_kernels(
            "kernel ax(a: tensor<4096xf64>, b: tensor<4096xf64>) -> tensor<4096xf64> { return a + b; }",
        )
        .unwrap();
        let w = analyze(m.func("ax").unwrap());
        let soa = software_metrics_knob(&w, &sw(1, Layout::Soa, None));
        let aos = software_metrics_knob(&w, &sw(1, Layout::Aos, None));
        assert!(soa.latency_us <= aos.latency_us);
    }

    #[test]
    fn hardware_variants_carry_area() {
        let f = mm_kernel(16);
        let w = analyze(&f);
        let m = evaluate_knob(&f, &w, &hw(Target::FpgaBus, false)).unwrap();
        assert!(m.area_luts > 0);
        assert!(m.transfer_us > 0.0);
    }

    #[test]
    fn network_attachment_pays_more_transfer_than_bus() {
        let f = mm_kernel(16);
        let w = analyze(&f);
        let bus = evaluate_knob(&f, &w, &hw(Target::FpgaBus, false)).unwrap();
        let net = evaluate_knob(&f, &w, &hw(Target::FpgaNetwork, false)).unwrap();
        assert!(net.transfer_us > bus.transfer_us);
        assert_eq!(net.latency_us, bus.latency_us); // same synthesized kernel
    }

    #[test]
    fn dift_variant_costs_more_area() {
        let f = mm_kernel(16);
        let w = analyze(&f);
        let plain = evaluate_knob(&f, &w, &hw(Target::FpgaBus, false)).unwrap();
        let hard = evaluate_knob(&f, &w, &hw(Target::FpgaBus, true)).unwrap();
        assert!(hard.area_luts > plain.area_luts);
    }

    #[test]
    fn memoized_and_direct_paths_agree() {
        let f = mm_kernel(16);
        let w = analyze(&f);
        let knob = hw(Target::FpgaBus, false);
        let direct = evaluate_knob(&f, &w, &knob).unwrap();
        let cache = SynthCache::new();
        for expected in [(0, 1), (1, 1)] {
            let batch = summarize_batch("test.worker", 2, Some(&cache), &[&f], &[knob], &[(0, 0)]);
            let memo =
                metrics_from_summary(batch.summaries[0].as_ref().unwrap(), &w, knob.target());
            assert_eq!(direct, memo, "memoized metrics must be bit-identical to direct synthesis");
            assert_eq!(cache.lookups(), expected);
        }
    }
}
