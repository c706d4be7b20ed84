//! The top-level HLS driver: from a kernel function to an
//! [`Accelerator`] with latency, area, II and RTL artifacts.

use crate::binding::{bind, Binding};
use crate::cdfg::Dfg;
use crate::dift::{instrument, DiftConfig, DiftReport};
use crate::error::{HlsError, HlsResult};
use crate::memory::{Partitioning, Scheme};
use crate::oplib::AreaReport;
use crate::pipeline;
use crate::rtl;
use crate::schedule::{list_schedule, ResourceBudget};
use crate::tensor_to_loops::lower_to_loops;
use everest_ir::attr::Attr;
use everest_ir::{Block, ForLoop, Func, Type, Value};
use std::collections::HashMap;

/// Configuration of one synthesis run.
#[derive(Debug, Clone)]
pub struct HlsConfig {
    /// Functional-unit budget for scheduling.
    pub budget: ResourceBudget,
    /// Target clock frequency in MHz.
    pub clock_mhz: f64,
    /// Pipeline innermost loops.
    pub pipeline: bool,
    /// Memory banks per on-chip buffer.
    pub banks: usize,
    /// Bank mapping scheme.
    pub scheme: Scheme,
    /// Ports per bank (BRAMs are dual-ported by default).
    pub ports_per_bank: usize,
    /// Processing-element replication: the outermost data-parallel loop is
    /// unrolled across `pe` copies of the datapath working on disjoint
    /// output tiles (bounded by the memory system: at most
    /// `banks * ports_per_bank` PEs are effective).
    pub pe: usize,
    /// Break associative accumulation recurrences with partial sums
    /// (unsafe-math-style reassociation; standard HLS practice).
    pub assoc_reduction: bool,
    /// DIFT instrumentation, if requested.
    pub dift: Option<DiftConfig>,
}

impl Default for HlsConfig {
    fn default() -> HlsConfig {
        HlsConfig {
            budget: ResourceBudget::default(),
            clock_mhz: 200.0,
            pipeline: true,
            banks: 4,
            scheme: Scheme::Cyclic,
            ports_per_bank: 2,
            pe: 8,
            assoc_reduction: true,
            dift: None,
        }
    }
}

/// A synthesized accelerator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    /// Kernel name.
    pub name: String,
    /// Total latency of one invocation, in cycles.
    pub latency_cycles: u64,
    /// Worst initiation interval among pipelined innermost loops (1 when no
    /// loop is pipelined).
    pub innermost_ii: u64,
    /// Effective processing-element count the design exploits.
    pub pe: usize,
    /// Post-binding area, including buffers (and DIFT if enabled).
    pub area: AreaReport,
    /// Clock frequency the estimate assumes, in MHz.
    pub clock_mhz: f64,
    /// Emitted Verilog-subset RTL for the top-level FSMD.
    pub rtl: String,
    /// DIFT overhead report when instrumentation was requested.
    pub dift: Option<DiftReport>,
}

impl Accelerator {
    /// Wall-clock execution time of one invocation in microseconds.
    pub fn time_us(&self) -> f64 {
        self.summary().time_us()
    }

    /// The name-independent numeric summary of this synthesis run: the
    /// part worth memoizing across structurally identical kernels (the
    /// RTL text embeds the kernel name, the summary does not).
    pub fn summary(&self) -> SynthSummary {
        SynthSummary {
            latency_cycles: self.latency_cycles,
            innermost_ii: self.innermost_ii,
            pe: self.pe,
            area: self.area,
            clock_mhz: self.clock_mhz,
        }
    }
}

/// The numeric outcome of one synthesis run, detached from the kernel
/// name and RTL text so it can be shared through the
/// [synthesis cache](crate::cache) by every variant (and every
/// structurally identical kernel) that maps to the same configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSummary {
    /// Total latency of one invocation, in cycles.
    pub latency_cycles: u64,
    /// Worst initiation interval among pipelined innermost loops.
    pub innermost_ii: u64,
    /// Effective processing-element count the design exploits.
    pub pe: usize,
    /// Post-binding area, including buffers (and DIFT if enabled).
    pub area: AreaReport,
    /// Clock frequency the estimate assumes, in MHz.
    pub clock_mhz: f64,
}

impl SynthSummary {
    /// Stable ordering of the numeric columns [`SynthSummary::targets`]
    /// emits. The `everestc dataset` table indexes targets by this list,
    /// so the order is part of the on-disk schema — append, never reorder.
    pub const TARGET_NAMES: [&'static str; 5] = ["latency_cycles", "luts", "ffs", "dsps", "brams"];

    /// The summary as target columns in [`SynthSummary::TARGET_NAMES`]
    /// order — the numeric columns of a dataset row.
    pub fn targets(&self) -> [f64; 5] {
        [
            self.latency_cycles as f64,
            self.area.luts as f64,
            self.area.ffs as f64,
            self.area.dsps as f64,
            self.area.brams as f64,
        ]
    }

    /// Wall-clock execution time of one invocation in microseconds.
    pub fn time_us(&self) -> f64 {
        self.latency_cycles as f64 / self.clock_mhz
    }

    /// Estimated dynamic energy in microjoules, using a simple
    /// activity-proportional model (~0.1 nJ per LUT-activity-cycle at the
    /// modeled node, scaled down by a 0.1 activity factor).
    pub fn energy_uj(&self) -> f64 {
        let power_w = 0.5 + self.area.luts as f64 * 2.0e-5; // static + dynamic
        power_w * self.time_us() * 1e-6 * 1e6
    }
}

#[derive(Default)]
struct Stats {
    innermost_ii: u64,
    peak_binding: Option<Binding>,
    peak_area: AreaReport,
}

/// Runs the full HLS flow on `func`.
///
/// Accepts either a tensor-dialect kernel (it is lowered to loops first) or
/// an already-lowered loop/memref function.
///
/// # Errors
///
/// Returns [`HlsError`] if the function contains unsupported constructs or
/// the configuration is invalid.
pub fn synthesize(func: &Func, config: &HlsConfig) -> HlsResult<Accelerator> {
    if config.banks == 0 {
        return Err(HlsError::Config("banks must be >= 1".into()));
    }
    let mut has_tensor_ops = false;
    func.walk(&mut |op| has_tensor_ops |= op.name.starts_with("tensor."));
    let lowered;
    let func = if has_tensor_ops {
        lowered = lower_to_loops(func)?;
        &lowered
    } else {
        func
    };

    let mut stats = Stats { innermost_ii: 1, ..Stats::default() };
    let entry =
        func.body.entry().ok_or_else(|| HlsError::Lower("function has no entry block".into()))?;
    let (latency, dfg, schedule) = block_latency(func, entry, config, &mut stats)?;
    let binding = bind(&dfg, &schedule);
    let top_area = binding.area();
    if top_area.luts > stats.peak_area.luts {
        stats.peak_area = top_area;
        stats.peak_binding = Some(binding.clone());
    }

    // Buffer area: every memref parameter and scratch alloc becomes banked
    // BRAM storage.
    let mut buffer_elems = 0u64;
    let mut buffer_area = AreaReport::default();
    let mut consider = |ty: &Type| {
        if let Type::MemRef { .. } = ty {
            let elems = ty.num_elements().unwrap_or(0);
            buffer_elems += elems as u64;
            let banks = config.banks.min(elems.max(1));
            if let Ok(p) =
                Partitioning::new(elems.max(1), banks, config.scheme, config.ports_per_bank)
            {
                buffer_area += p.area();
            }
        }
    };
    for p in &func.params {
        consider(p);
    }
    func.walk(&mut |op| {
        if op.name == "mem.alloc" {
            // Result type is recorded in the function's value table.
            consider(func.value_type(op.results[0]));
        }
    });

    // Processing-element replication: when the outermost loops carry no
    // dependences (each iteration writes disjoint outputs), the design
    // replicates the datapath `pe` times and splits the iteration space.
    let effective_pe = if outer_loops_parallel(func) {
        config.pe.clamp(1, (config.banks * config.ports_per_bank).max(1))
    } else {
        1
    };
    let mut area = stats.peak_area.scaled(effective_pe as u64) + buffer_area;
    let mut latency_cycles = if effective_pe > 1 {
        // Split the trip space + a small merge/sync epilogue.
        latency.div_ceil(effective_pe as u64) + effective_pe.ilog2() as u64 + 2
    } else {
        latency.max(1)
    };

    let peak_binding = stats.peak_binding.clone().unwrap_or_default();
    let dift_report = config.dift.as_ref().map(|cfg| {
        let mut r = instrument(&peak_binding, buffer_elems, cfg);
        // Shadow logic replicates with the datapath.
        r.extra_area = r.extra_area.scaled(effective_pe as u64);
        r
    });
    if let Some(report) = &dift_report {
        area += report.extra_area;
        latency_cycles += report.latency_overhead;
    }

    let rtl_text = rtl::emit_module(&func.name, &dfg, &schedule, &binding);

    Ok(Accelerator {
        name: func.name.clone(),
        latency_cycles,
        innermost_ii: stats.innermost_ii,
        pe: effective_pe,
        area,
        clock_mhz: config.clock_mhz,
        rtl: rtl_text,
        dift: dift_report,
    })
}

/// `true` when every top-level loop of the function is data-parallel
/// (carries no loop-carried values), so the iteration space can be tiled
/// across processing elements.
fn outer_loops_parallel(func: &Func) -> bool {
    let Some(entry) = func.body.entry() else {
        return false;
    };
    let mut saw_loop = false;
    for op in &entry.ops {
        if op.name == "loop.for" {
            saw_loop = true;
            if !op.operands.is_empty() {
                return false;
            }
        }
    }
    saw_loop
}

/// Computes the latency of one block, recursing into nested loops, and
/// returns the block's DFG and schedule.
fn block_latency(
    func: &Func,
    block: &Block,
    config: &HlsConfig,
    stats: &mut Stats,
) -> HlsResult<(u64, Dfg, crate::schedule::Schedule)> {
    // First compute nested loop latencies (bottom-up).
    let mut loop_latencies: HashMap<usize, u64> = HashMap::new();
    for (pos, op) in block.ops.iter().enumerate() {
        if op.name != "loop.for" {
            continue;
        }
        let l = ForLoop::of(op).map_err(|e| HlsError::Lower(e.to_string()))?;
        let (trips, body) = (l.trips(), l.body);
        let mut body_has_loop = false;
        for inner in &body.ops {
            body_has_loop |= inner.name == "loop.for";
        }
        let latency = if !body_has_loop && config.pipeline {
            let dfg = Dfg::from_block(func, body, &HashMap::new());
            let mem_mii = memory_mii(func, &l, config);
            // Banked buffers multiply the usable memory ports.
            let ports = (config.banks * config.ports_per_bank).max(1);
            let budget = config
                .budget
                .clone()
                .with(crate::oplib::FuKind::MemRead, ports)
                .with(crate::oplib::FuKind::MemWrite, ports);
            let report = pipeline::analyze(&dfg, &budget, mem_mii, config.assoc_reduction)?;
            stats.innermost_ii = stats.innermost_ii.max(report.ii);
            let b = bind(&dfg, &list_schedule(&dfg, &budget)?);
            let a = b.area();
            if a.luts > stats.peak_area.luts {
                stats.peak_area = a;
                stats.peak_binding = Some(b);
            }
            report.loop_latency(trips)
        } else {
            let (body_latency, body_dfg, body_schedule) = block_latency(func, body, config, stats)?;
            let b = bind(&body_dfg, &body_schedule);
            let a = b.area();
            if a.luts > stats.peak_area.luts {
                stats.peak_area = a;
                stats.peak_binding = Some(b);
            }
            // +1 cycle loop-control overhead per iteration, +1 for entry.
            trips * (body_latency + 1) + 1
        };
        loop_latencies.insert(pos, latency.max(1));
    }
    let dfg = Dfg::from_block(func, block, &loop_latencies);
    let schedule = list_schedule(&dfg, &config.budget)?;
    Ok((schedule.len, dfg, schedule))
}

/// Extracts per-buffer access offsets in a loop body and returns the worst
/// memory-induced II over all buffers under the configured partitioning.
fn memory_mii(func: &Func, l: &ForLoop<'_>, config: &HlsConfig) -> u64 {
    let (body, iv) = (l.body, l.iv);
    let offset_of = |v: Value, ops: &[everest_ir::Op]| -> Option<i64> {
        if v == iv {
            return Some(0);
        }
        for op in ops {
            if op.results.first() == Some(&v) {
                match op.name.as_str() {
                    "arith.constant" => return op.attr("value").and_then(Attr::as_int),
                    "arith.addi" => {
                        // iv + const or const + iv
                        let (a, b) = (op.operands[0], op.operands[1]);
                        let const_side = |x: Value, ops: &[everest_ir::Op]| {
                            ops.iter()
                                .find(|o| {
                                    o.results.first() == Some(&x) && o.name == "arith.constant"
                                })
                                .and_then(|o| o.attr("value").and_then(Attr::as_int))
                        };
                        if a == iv {
                            return const_side(b, ops);
                        }
                        if b == iv {
                            return const_side(a, ops);
                        }
                        return None;
                    }
                    _ => return None,
                }
            }
        }
        None
    };

    let mut per_buffer: HashMap<Value, (Vec<i64>, bool)> = HashMap::new();
    for op in &body.ops {
        let (buf, idx) = match op.name.as_str() {
            "mem.load" => (op.operands[0], op.operands.get(1..).unwrap_or(&[])),
            "mem.store" => (op.operands[1], op.operands.get(2..).unwrap_or(&[])),
            _ => continue,
        };
        // Use the innermost (last) index for the 1-D conflict model.
        let entry = per_buffer.entry(buf).or_default();
        match idx.last().and_then(|v| offset_of(*v, &body.ops)) {
            Some(off) => entry.0.push(off),
            None => entry.1 = true, // unknown pattern: conservative
        }
    }
    let mut worst = 1u64;
    for (buf, (offsets, has_unknown)) in per_buffer {
        let size = func.value_type(buf).num_elements().unwrap_or(1).max(1);
        let banks = config.banks.min(size);
        let Ok(p) = Partitioning::new(size, banks, config.scheme, config.ports_per_bank) else {
            continue;
        };
        let accesses = offsets.len() + usize::from(has_unknown);
        let ii = if has_unknown {
            // Unknown patterns may all collide on one bank.
            (accesses.div_ceil(config.ports_per_bank) as u64).max(1)
        } else {
            p.min_ii(&offsets)
        };
        worst = worst.max(ii);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplib::FuKind;

    fn kernel(src: &str, name: &str) -> Func {
        let module = everest_dsl::compile_kernels(src).unwrap();
        module.func(name).unwrap().clone()
    }

    #[test]
    fn synthesizes_tensor_kernel_end_to_end() {
        let f = kernel(
            "kernel mm(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> { return a @ b; }",
            "mm",
        );
        let acc = synthesize(&f, &HlsConfig::default()).unwrap();
        // 512 MACs split across the PEs, II-bound by the accumulation.
        assert!(acc.latency_cycles as usize > 8 * 8 * 8 / acc.pe);
        assert!(acc.pe > 1, "matmul outer loops are data-parallel");
        assert!(acc.area.brams > 0, "buffers should occupy BRAM");
        assert!(acc.rtl.contains("module mm_loops"));
        assert!(crate::rtl::check_structure(&acc.rtl));
    }

    #[test]
    fn latency_follows_the_trip_count_not_the_step() {
        use everest_ir::types::MemSpace;
        let scaled = |lo: i64, hi: i64, step: i64| {
            let buf = Type::memref(Type::F64, &[64], MemSpace::Scratchpad);
            let mut fb = everest_ir::FuncBuilder::new("scale", &[buf], &[]);
            let b = fb.arg(0);
            fb.for_loop(lo, hi, step, &[], |fb, iv, _| {
                let x = fb.load(b, &[iv], Type::F64);
                let k = fb.const_f(3.0, Type::F64);
                let y = fb.binary("arith.mulf", x, k, Type::F64);
                fb.store(y, b, &[iv]);
                vec![]
            });
            fb.ret(&[]);
            let one_pe = HlsConfig { pe: 1, ..HlsConfig::default() };
            synthesize(&fb.finish(), &one_pe).unwrap().latency_cycles
        };
        // Both loops run 20 times; one more iteration costs a cycle.
        assert_eq!(scaled(1, 59, 3), scaled(0, 20, 1));
        assert_ne!(scaled(1, 59, 3), scaled(0, 21, 1));
    }

    #[test]
    fn matmul_ii_limited_by_accumulation_recurrence() {
        let f = kernel(
            "kernel mm(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> { return a @ b; }",
            "mm",
        );
        // With reassociation disabled, the fadd chain (3 cycles) bounds II.
        let strict =
            synthesize(&f, &HlsConfig { assoc_reduction: false, ..HlsConfig::default() }).unwrap();
        assert_eq!(strict.innermost_ii, 3);
        // Partial sums restore II = 1 (and shorten the kernel).
        let relaxed = synthesize(&f, &HlsConfig::default()).unwrap();
        assert_eq!(relaxed.innermost_ii, 1);
        assert!(relaxed.latency_cycles < strict.latency_cycles);
    }

    #[test]
    fn elementwise_kernel_reaches_ii_one_with_enough_banks() {
        let f = kernel(
            "kernel ax(a: tensor<64xf64>, b: tensor<64xf64>) -> tensor<64xf64> { return a + b; }",
            "ax",
        );
        let config = HlsConfig { banks: 4, ..HlsConfig::default() };
        let acc = synthesize(&f, &config).unwrap();
        assert_eq!(acc.innermost_ii, 1);
    }

    #[test]
    fn pipelining_reduces_latency() {
        let f = kernel("kernel r(a: tensor<256xf64>) -> tensor<256xf64> { return relu(a); }", "r");
        let on = synthesize(&f, &HlsConfig::default()).unwrap();
        let off = synthesize(&f, &HlsConfig { pipeline: false, ..HlsConfig::default() }).unwrap();
        assert!(
            on.latency_cycles < off.latency_cycles / 2,
            "pipelined {} vs sequential {}",
            on.latency_cycles,
            off.latency_cycles
        );
    }

    #[test]
    fn more_fu_budget_never_slows_down() {
        let f = kernel(
            "kernel s(a: tensor<64xf64>) -> tensor<64xf64> { return stencil(a, [0.2, 0.6, 0.2]); }",
            "s",
        );
        let small =
            HlsConfig { budget: ResourceBudget::uniform(1), banks: 8, ..HlsConfig::default() };
        let large =
            HlsConfig { budget: ResourceBudget::uniform(8), banks: 8, ..HlsConfig::default() };
        let a1 = synthesize(&f, &small).unwrap();
        let a2 = synthesize(&f, &large).unwrap();
        assert!(a2.latency_cycles <= a1.latency_cycles);
    }

    #[test]
    fn dift_adds_area_and_latency() {
        let f = kernel("kernel g(a: tensor<32xf64>) -> tensor<32xf64> { return sigmoid(a); }", "g");
        let plain = synthesize(&f, &HlsConfig::default()).unwrap();
        let dift = synthesize(
            &f,
            &HlsConfig { dift: Some(DiftConfig::default()), ..HlsConfig::default() },
        )
        .unwrap();
        assert!(dift.area.luts > plain.area.luts);
        assert!(dift.latency_cycles > plain.latency_cycles);
        let report = dift.dift.unwrap();
        assert!(100 * report.extra_area.luts < 30 * plain.area.luts);
    }

    #[test]
    fn time_and_energy_scale_with_clock() {
        let f = kernel("kernel id(a: tensor<16xf64>) -> tensor<16xf64> { return a; }", "id");
        let slow = synthesize(&f, &HlsConfig { clock_mhz: 100.0, ..HlsConfig::default() }).unwrap();
        let fast = synthesize(&f, &HlsConfig { clock_mhz: 400.0, ..HlsConfig::default() }).unwrap();
        assert!(fast.time_us() < slow.time_us());
        assert!(slow.summary().energy_uj() > 0.0);
    }

    #[test]
    fn pe_replication_trades_area_for_latency() {
        let f = kernel(
            "kernel mm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> { return a @ b; }",
            "mm",
        );
        let one = synthesize(&f, &HlsConfig { pe: 1, ..HlsConfig::default() }).unwrap();
        let eight = synthesize(&f, &HlsConfig { pe: 8, ..HlsConfig::default() }).unwrap();
        assert_eq!(one.pe, 1);
        assert_eq!(eight.pe, 8);
        assert!(
            (eight.latency_cycles as f64) < one.latency_cycles as f64 / 4.0,
            "8 PEs: {} vs 1 PE: {}",
            eight.latency_cycles,
            one.latency_cycles
        );
        assert!(eight.area.luts > 4 * one.area.luts / 2, "area scales with PEs");
    }

    #[test]
    fn pe_count_capped_by_memory_system() {
        let f = kernel("kernel r(a: tensor<64xf64>) -> tensor<64xf64> { return relu(a); }", "r");
        let config = HlsConfig { pe: 64, banks: 2, ports_per_bank: 1, ..HlsConfig::default() };
        let acc = synthesize(&f, &config).unwrap();
        assert_eq!(acc.pe, 2, "PEs beyond the memory ports are wasted");
    }

    #[test]
    fn zero_banks_rejected() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        assert!(matches!(
            synthesize(&f, &HlsConfig { banks: 0, ..HlsConfig::default() }),
            Err(HlsError::Config(_))
        ));
    }

    #[test]
    fn fdiv_budget_error_propagates() {
        let f = kernel("kernel g(a: tensor<8xf64>) -> tensor<8xf64> { return sigmoid(a); }", "g");
        let config = HlsConfig {
            budget: ResourceBudget::default().with(FuKind::FDiv, 0),
            ..HlsConfig::default()
        };
        assert!(matches!(synthesize(&f, &config), Err(HlsError::Schedule(_))));
    }
}
