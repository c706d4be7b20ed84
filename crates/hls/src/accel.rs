//! The top-level HLS driver: from a kernel function to an
//! [`Accelerator`] with latency, area, II and RTL artifacts.

use crate::binding::{bind, Binding};
use crate::cdfg::Dfg;
use crate::dift::{instrument, DiftConfig, DiftReport};
use crate::error::{too_long, HlsError, HlsResult};
use crate::memory::{Partitioning, Scheme};
use crate::oplib::{AreaReport, FuKind};
use crate::pipeline;
use crate::rtl;
use crate::schedule::{list_schedule, ResourceBudget, Schedule};
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

impl HlsConfig {
    /// The processing elements the memory system can feed:
    /// `pe` clamped to `1..=banks × ports_per_bank`. Synthesis replicates
    /// the datapath this many times when the outer loops are parallel.
    pub fn effective_pe(&self) -> usize {
        self.pe.clamp(1, self.memory_ports().max(1))
    }

    /// Memory ports of one banked buffer: `banks × ports_per_bank`.
    pub(crate) fn memory_ports(&self) -> usize {
        self.banks.saturating_mul(self.ports_per_bank)
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

/// Runs the full HLS flow on `func`.
///
/// Accepts either a tensor-dialect kernel (it is lowered to loops first) or
/// an already-lowered loop/memref function.
///
/// # Errors
///
/// Returns [`HlsError`] if the function contains unsupported constructs,
/// the configuration is invalid (no banks or no ports per bank), or a loop
/// or the kernel takes more than `u64::MAX` cycles.
pub fn synthesize(func: &Func, config: &HlsConfig) -> HlsResult<Accelerator> {
    for (knob, value) in [("banks", config.banks), ("ports_per_bank", config.ports_per_bank)] {
        if value == 0 {
            return Err(HlsError::Config(format!("{knob} must be >= 1")));
        }
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

    let entry =
        func.body.entry().ok_or_else(|| HlsError::Lower("function has no entry block".into()))?;
    let mut walk = Walk { func, config, innermost_ii: 1, peak: Binding::default() };
    let (dfg, schedule, binding) = walk.block(entry)?;

    // Buffer area: every memref parameter and scratch alloc becomes banked
    // BRAM storage.
    let mut buffers: Vec<&Type> = func.params.iter().collect();
    func.walk(&mut |op| {
        if op.name == "mem.alloc" {
            buffers.push(func.value_type(op.results[0]));
        }
    });
    let mut buffer_elems = 0u64;
    let mut buffer_area = AreaReport::default();
    for ty in buffers.into_iter().filter(|ty| matches!(ty, Type::MemRef { .. })) {
        let elems = ty.num_elements().unwrap_or(0);
        buffer_elems += elems as u64;
        let size = elems.max(1);
        let banks = config.banks.min(size);
        buffer_area += Partitioning::new(size, banks, config.scheme, config.ports_per_bank)?.area();
    }

    // Processing-element replication: when the outermost loops carry no
    // dependences (each iteration writes disjoint outputs), the design
    // replicates the datapath `pe` times and splits the iteration space.
    let pe = if outer_loops_parallel(func) { config.effective_pe() } else { 1 };
    let dift = config.dift.as_ref().map(|cfg| {
        let mut report = instrument(&walk.peak, buffer_elems, cfg);
        // Shadow logic replicates with the datapath.
        report.extra_area = report.extra_area.scaled(pe as u64);
        report
    });
    let dift_cycles = dift.map_or(0, |report| report.latency_overhead);
    let latency_cycles = latency(Piece::Kernel { block: schedule.len, pe, dift: dift_cycles })?;
    let mut area = walk.peak.area().scaled(pe as u64) + buffer_area;
    if let Some(report) = &dift {
        area += report.extra_area;
    }

    Ok(Accelerator {
        name: func.name.clone(),
        latency_cycles,
        innermost_ii: walk.innermost_ii,
        pe,
        area,
        clock_mhz: config.clock_mhz,
        rtl: rtl::emit_module(&func.name, &dfg, &schedule, &binding),
        dift,
    })
}

/// What [`latency`] prices.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// A loop whose body starts an iteration every `ii` cycles, each one
    /// taking `depth`.
    PipelinedLoop { trips: u64, depth: u64, ii: u64 },
    /// A loop that runs its body, of `body` cycles, one iteration at a time.
    SequentialLoop { trips: u64, body: u64 },
    /// The kernel: its top block of `block` cycles split over `pe`
    /// processing elements, plus `dift` cycles of taint checks.
    Kernel { block: u64, pe: usize, dift: u64 },
}

/// The latency rule: every cycle count of [`Accelerator::latency_cycles`]
/// that is not a list schedule's makespan is composed here, and every sum
/// and product is checked. A count past `u64::MAX` is an
/// [`HlsError::Schedule`], never a wrapped or saturated number.
fn latency(piece: Piece) -> HlsResult<u64> {
    let count = || -> Option<u64> {
        Some(match piece {
            // An empty loop still costs its entry cycle.
            Piece::PipelinedLoop { trips: 0, .. } => 1,
            // The first iteration fills the pipeline; each further one
            // leaves it `ii` cycles later.
            Piece::PipelinedLoop { trips, depth, ii } => {
                (trips - 1).checked_mul(ii)?.checked_add(depth)?
            }
            // One cycle of loop control per iteration, one to enter.
            Piece::SequentialLoop { trips, body } => {
                trips.checked_mul(body.checked_add(1)?)?.checked_add(1)?
            }
            Piece::Kernel { block, pe: ..=1, dift } => block.max(1).checked_add(dift)?,
            // Each PE runs its share of the trips, then a log-depth merge
            // and two cycles of synchronization.
            Piece::Kernel { block, pe, dift } => block
                .div_ceil(pe as u64)
                .checked_add(u64::from(pe.ilog2()) + 2)?
                .checked_add(dift)?,
        })
    };
    count().ok_or_else(|| too_long(format_args!("{piece:?}")))
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

/// One synthesis run's walk over the loop nest, innermost loops first.
struct Walk<'a> {
    func: &'a Func,
    config: &'a HlsConfig,
    /// Worst II among pipelined loops (1 when none is).
    innermost_ii: u64,
    /// The binding with the most LUTs of any scheduled block (the first
    /// of equals): the datapath one processing element replicates, and the
    /// one DIFT instruments.
    peak: Binding,
}

impl Walk<'_> {
    /// Schedules and binds one block's DFG under `budget`. Every block is
    /// scheduled here, once, so this is also where the peak datapath is
    /// kept.
    fn schedule(&mut self, dfg: &Dfg, budget: &ResourceBudget) -> HlsResult<(Schedule, Binding)> {
        let schedule = list_schedule(dfg, budget)?;
        let binding = bind(dfg, &schedule);
        if binding.area().luts > self.peak.area().luts {
            self.peak = binding.clone();
        }
        Ok((schedule, binding))
    }

    /// The DFG, schedule and binding of `block`, its nested loops priced
    /// first.
    fn block(&mut self, block: &Block) -> HlsResult<(Dfg, Schedule, Binding)> {
        let mut loop_latencies = Vec::new();
        for op in block.ops.iter().filter(|op| op.name == "loop.for") {
            let l = ForLoop::of(op).map_err(|e| HlsError::Lower(e.to_string()))?;
            loop_latencies.push(self.loop_latency(&l)?);
        }
        let dfg = Dfg::from_block(block, &loop_latencies);
        let budget = self.config.budget;
        let (schedule, binding) = self.schedule(&dfg, &budget)?;
        Ok((dfg, schedule, binding))
    }

    /// The latency of one loop: pipelined when its body holds no loop and
    /// the configuration asks for it, else one iteration at a time.
    fn loop_latency(&mut self, l: &ForLoop<'_>) -> HlsResult<u64> {
        let trips = l.trips();
        let config = self.config;
        if !config.pipeline || l.body.ops.iter().any(|op| op.name == "loop.for") {
            let (_, body, _) = self.block(l.body)?;
            return latency(Piece::SequentialLoop { trips, body: body.len });
        }
        let dfg = Dfg::from_block(l.body, &[]);
        // Banked buffers multiply the usable memory ports.
        let ports = config.memory_ports();
        let budget = config.budget.with(FuKind::MemRead, ports).with(FuKind::MemWrite, ports);
        let (schedule, _) = self.schedule(&dfg, &budget)?;
        let mem_mii = memory_mii(self.func, l, config)?;
        let report = pipeline::analyze(&dfg, &schedule, &budget, mem_mii, config.assoc_reduction);
        self.innermost_ii = self.innermost_ii.max(report.ii);
        latency(Piece::PipelinedLoop { trips, depth: report.depth, ii: report.ii })
    }
}

/// Extracts per-buffer access offsets in a loop body and returns the worst
/// memory-induced II over all buffers under the configured partitioning.
fn memory_mii(func: &Func, l: &ForLoop<'_>, config: &HlsConfig) -> HlsResult<u64> {
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
        let p = Partitioning::new(size, banks, config.scheme, config.ports_per_bank)?;
        let accesses = offsets.len() + usize::from(has_unknown);
        let ii = if has_unknown {
            // Unknown patterns may all collide on one bank.
            (accesses.div_ceil(config.ports_per_bank) as u64).max(1)
        } else {
            p.min_ii(&offsets)
        };
        worst = worst.max(ii);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for config in [
            HlsConfig { banks: 0, ..HlsConfig::default() },
            HlsConfig { ports_per_bank: 0, ..HlsConfig::default() },
        ] {
            assert!(matches!(synthesize(&f, &config), Err(HlsError::Config(_))), "{config:?}");
        }
    }

    /// `b[0] = b[0]` in one loop per `(lo, hi)` pair, one after another.
    fn copy_loops(bounds: &[(i64, i64)]) -> Func {
        use everest_ir::types::MemSpace;
        let buf = Type::memref(Type::F64, &[64], MemSpace::Scratchpad);
        let mut fb = everest_ir::FuncBuilder::new("copy", &[buf], &[]);
        let b = fb.arg(0);
        for &(lo, hi) in bounds {
            fb.for_loop(lo, hi, 1, &[], |fb, _iv, _| {
                let i = fb.const_i(0, Type::Index);
                let x = fb.load(b, &[i], Type::F64);
                fb.store(x, b, &[i]);
                vec![]
            });
        }
        fb.ret(&[]);
        fb.finish()
    }

    fn assert_too_long(f: &Func) {
        for pipeline in [true, false] {
            let config = HlsConfig { pipeline, ..HlsConfig::default() };
            let err = synthesize(f, &config).unwrap_err();
            assert!(matches!(err, HlsError::Schedule(_)), "pipeline {pipeline}: {err}");
            assert!(err.to_string().contains("18446744073709551615 cycles"), "{err}");
        }
    }

    #[test]
    fn a_loop_over_the_whole_i64_range_is_too_long_pipelined_or_not() {
        assert_too_long(&copy_loops(&[(i64::MIN, i64::MAX)]));
    }

    /// Each loop fits in `u64` cycles; the block that runs them in turn
    /// does not, and the scheduler says so.
    #[test]
    fn two_loops_that_together_pass_u64_max_are_too_long() {
        let half = copy_loops(&[(i64::MIN, 0)]);
        let one_pe = HlsConfig { pe: 1, ..HlsConfig::default() };
        assert!(synthesize(&half, &one_pe).unwrap().latency_cycles > 1 << 63);
        assert_too_long(&copy_loops(&[(i64::MIN, 0), (i64::MIN, 0)]));
    }

    #[test]
    fn the_latency_rule() {
        let pipelined = |trips| latency(Piece::PipelinedLoop { trips, depth: 10, ii: 2 });
        assert_eq!(pipelined(0), Ok(1), "an empty loop costs its entry cycle");
        assert_eq!(pipelined(1), Ok(10));
        assert_eq!(pipelined(100), Ok(10 + 99 * 2));
        assert_eq!(latency(Piece::SequentialLoop { trips: 3, body: 4 }), Ok(3 * 5 + 1));
        assert_eq!(latency(Piece::Kernel { block: 0, pe: 1, dift: 2 }), Ok(3));
        assert_eq!(latency(Piece::Kernel { block: 100, pe: 8, dift: 0 }), Ok(13 + 3 + 2));
        // Exactly `u64::MAX` fits; one cycle more does not.
        let max = u64::MAX;
        assert_eq!(latency(Piece::PipelinedLoop { trips: max, depth: 1, ii: 1 }), Ok(max));
        assert!(latency(Piece::PipelinedLoop { trips: max, depth: 2, ii: 1 }).is_err());
        assert!(latency(Piece::SequentialLoop { trips: max, body: 0 }).is_err());
        assert!(latency(Piece::SequentialLoop { trips: 1, body: max }).is_err());
        assert!(latency(Piece::Kernel { block: max, pe: 1, dift: 1 }).is_err());
        assert!(latency(Piece::Kernel { block: max, pe: 2, dift: 0 }).is_ok());
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
