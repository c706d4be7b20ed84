//! Enforces the HLS scheduler's zero-allocation acceptance criterion:
//! once a [`ScheduleArena`] has warmed up on the largest candidate, every
//! further `list_schedule_into` call — same kernel, smaller kernels,
//! tighter budgets alike — performs no heap allocation. This is what
//! makes design-space exploration sweeps (thousands of schedule calls
//! over the same kernels with varying budgets) allocation-free in steady
//! state. Lives in its own integration-test binary because it swaps in a
//! counting global allocator (the same technique as
//! `crates/apps/tests/ptdr_no_alloc.rs`).
//!
//! The same allocator also counts bytes, for the scale tests at the end:
//! what one `synthesize` call allocates, and the size of the RTL it
//! returns, follow the number of DFG nodes — never the loop trip counts,
//! however many cycles the schedule spans. They read no clock.

use everest_alloc_counter::{measure, CountingAllocator};
use everest_hls::cdfg::Dfg;
use everest_hls::schedule::{ResourceBudget, Schedule, ScheduleArena};
use everest_hls::FuKind;
use everest_ir::{FuncBuilder, Type};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A DFG with `k` independent multiply chains feeding a reduction tree —
/// wide enough to exercise resource contention and the ready-queue sort.
fn candidate(k: usize) -> Dfg {
    let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
    let mut prods = Vec::new();
    for _ in 0..k {
        let m = fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64);
        prods.push(fb.binary("arith.mulf", m, fb.arg(1), Type::F64));
    }
    let mut acc = prods[0];
    for p in &prods[1..] {
        acc = fb.binary("arith.addf", acc, *p, Type::F64);
    }
    fb.ret(&[acc]);
    let f = fb.finish();
    Dfg::from_block(f.body.entry().unwrap(), &[])
}

#[test]
fn warm_arena_schedules_allocate_nothing() {
    let large = candidate(24);
    let small = candidate(5);
    let budgets = [
        ResourceBudget::default(),
        ResourceBudget::default().with(FuKind::FMul, 1),
        ResourceBudget::default().with(FuKind::FMul, 2).with(FuKind::FAdd, 1),
    ];
    let mut arena = ScheduleArena::new();
    let mut out = Schedule::default();

    // Warm-up: touch the largest candidate under every budget so all
    // scratch buffers (priority table, ready queues, finish heap, output
    // starts) reach their high-water capacity.
    for budget in &budgets {
        arena.list_schedule_into(&mut out, &large, budget).unwrap();
    }
    let reference: Vec<u64> = out.start.clone();

    let (allocations, _) = measure(|| {
        for round in 0..50usize {
            // A DSE-style sweep: alternate candidates and budgets, reusing
            // both the arena and the output schedule.
            let dfg = if round % 2 == 0 { &large } else { &small };
            arena.list_schedule_into(&mut out, dfg, &budgets[round % budgets.len()]).unwrap();
            std::hint::black_box(out.len);
        }
    });
    assert_eq!(allocations, 0, "warm arena schedules must not allocate");

    // The recycled path still produces the exact same schedule.
    arena.list_schedule_into(&mut out, &large, &budgets[2]).unwrap();
    assert_eq!(out.start, reference);
}

#[test]
fn arena_path_matches_public_entry_point() {
    let dfg = candidate(9);
    let budget = ResourceBudget::default().with(FuKind::FMul, 2);
    let via_fn = everest_hls::schedule::list_schedule(&dfg, &budget).unwrap();
    let mut arena = ScheduleArena::new();
    let mut out = Schedule::default();
    arena.list_schedule_into(&mut out, &dfg, &budget).unwrap();
    assert_eq!(out.start, via_fn.start);
    assert_eq!(out.len, via_fn.len);
}

fn kernel(source: &str, name: &str) -> everest_ir::Func {
    everest_dsl::compile_kernels(source).expect("kernels compile").func(name).unwrap().clone()
}

#[test]
fn synthesizing_a_billion_cycle_matmul_allocates_a_few_mebibytes() {
    let mm = kernel(
        "kernel mm(a: tensor<2048x2048xf64>, b: tensor<2048x2048xf64>) -> tensor<2048x2048xf64> {
             return a @ b;
         }",
        "mm",
    );
    let config = everest_hls::HlsConfig::default();
    let mut acc = None;
    let (_, allocated) = measure(|| acc = Some(everest_hls::synthesize(&mm, &config).unwrap()));
    let acc = acc.expect("synthesis ran");
    // 2048³ ≈ 8.6e9 multiply-accumulates at II = 1, split over the PEs.
    assert!(acc.latency_cycles > 1_000_000_000 / acc.pe as u64, "{} cycles", acc.latency_cycles);
    assert!(allocated < 4 << 20, "one synthesis allocated {allocated} bytes");
}

#[test]
fn full_size_ensemble_kernel_emits_kilobytes_of_rtl() {
    let source = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/cascade.edsl");
    let ensemble = kernel(&std::fs::read_to_string(source).unwrap(), "ensemble");
    let acc = everest_hls::synthesize(&ensemble, &everest_hls::HlsConfig::default()).unwrap();
    assert!(acc.latency_cycles > 1_000_000, "the schedule spans millions of cycles");
    assert!(acc.rtl.len() < 64 << 10, "{} bytes of RTL", acc.rtl.len());
    assert!(everest_hls::rtl::check_structure(&acc.rtl));
}
