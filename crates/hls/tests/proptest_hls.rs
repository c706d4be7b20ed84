//! Property tests for the HLS engine: scheduling invariants over random
//! DFGs, partitioning invariants over random configurations, and the
//! latency of loops with bounds anywhere in `i64`.

use everest_hls::binding::bind;
use everest_hls::cdfg::Dfg;
use everest_hls::memory::{Partitioning, Scheme};
use everest_hls::schedule::{asap, list_schedule, ResourceBudget};
use everest_hls::{synthesize, FuKind, HlsConfig, HlsError};
use everest_ir::types::MemSpace;
use everest_ir::{ForLoop, Func, FuncBuilder, Type, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// Builds a random straight-line float function: constants plus a chain of
/// binary ops over randomly chosen available values.
fn random_dfg(consts: usize, picks: &[(u8, usize, usize)]) -> Dfg {
    let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
    let mut avail: Vec<Value> = vec![fb.arg(0), fb.arg(1)];
    for i in 0..consts {
        avail.push(fb.const_f(i as f64 + 0.5, Type::F64));
    }
    for (kind, i, j) in picks {
        let a = avail[i % avail.len()];
        let b = avail[j % avail.len()];
        let name = match kind % 5 {
            0 => "arith.addf",
            1 => "arith.subf",
            2 => "arith.mulf",
            3 => "arith.divf",
            _ => "arith.maxf",
        };
        let v = fb.binary(name, a, b, Type::F64);
        avail.push(v);
    }
    let last = *avail.last().unwrap();
    fb.ret(&[last]);
    let f = fb.finish();
    Dfg::from_block(f.body.entry().unwrap(), &[])
}

/// `b[0] = 3 * b[0]` in a loop `lo..hi` by `step`, nested `inner` loops
/// of 4 trips deep, and the number of times the statement runs.
fn strided_nest(lo: i64, hi: i64, step: i64, inner: usize) -> (Func, u64) {
    fn body(fb: &mut FuncBuilder, b: Value, depth: usize) {
        if depth == 0 {
            let i = fb.const_i(0, Type::Index);
            let x = fb.load(b, &[i], Type::F64);
            let k = fb.const_f(3.0, Type::F64);
            let y = fb.binary("arith.mulf", x, k, Type::F64);
            fb.store(y, b, &[i]);
        } else {
            fb.for_loop(0, 4, 1, &[], |fb, _, _| {
                body(fb, b, depth - 1);
                vec![]
            });
        }
    }
    let buf = Type::memref(Type::F64, &[4], MemSpace::Scratchpad);
    let mut fb = FuncBuilder::new("nest", &[buf], &[]);
    let b = fb.arg(0);
    fb.for_loop(lo, hi, step, &[], |fb, _, _| {
        body(fb, b, inner);
        vec![]
    });
    fb.ret(&[]);
    let func = fb.finish();
    let outer = func.body.entry().unwrap().ops.iter().find(|op| op.name == "loop.for").unwrap();
    let trips = ForLoop::of(outer).unwrap().trips();
    (func, trips.saturating_mul(4u64.pow(inner as u32)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Synthesis never panics or wraps on a loop's bounds: it returns a
    /// latency of at least one cycle per executed statement, or says the
    /// design takes more than `u64::MAX` cycles. Bounds near both ends of
    /// `i64` are drawn often, so trip counts near `2^64` are too.
    #[test]
    fn any_loop_bounds_give_a_latency_or_a_too_long_error(
        lo in prop_oneof![any::<i64>(), i64::MIN..i64::MIN + 4, -3i64..3],
        hi in prop_oneof![any::<i64>(), i64::MAX - 3..=i64::MAX, -3i64..3],
        step in prop_oneof![1i64..=i64::MAX, Just(1), 1i64..4],
        inner in 0usize..3,
        pipeline in any::<bool>(),
    ) {
        let (func, runs) = strided_nest(lo, hi, step, inner);
        let config = HlsConfig { pipeline, pe: 1, ..HlsConfig::default() };
        match synthesize(&func, &config) {
            Ok(acc) => prop_assert!(acc.latency_cycles >= runs, "{} < {runs}", acc.latency_cycles),
            Err(HlsError::Schedule(msg)) => {
                prop_assert!(msg.ends_with("takes more than 18446744073709551615 cycles"), "{msg}");
                prop_assert!(runs > u64::MAX / 64, "{runs} runs of the body overflowed");
            }
            Err(other) => prop_assert!(false, "{other}"),
        }
    }
}

proptest! {
    #[test]
    fn list_schedule_respects_dependences_and_budget(
        consts in 1usize..4,
        picks in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..40),
        budget_n in 1usize..4,
    ) {
        let dfg = random_dfg(consts, &picks);
        let budget = ResourceBudget::uniform(budget_n);
        let schedule = list_schedule(&dfg, &budget).expect("schedules");

        // 1. Dependences: no node starts before its predecessors finish.
        for (id, node) in dfg.nodes.iter().enumerate() {
            for p in &node.preds {
                prop_assert!(
                    schedule.start[id] >= schedule.start[*p] + dfg.nodes[*p].latency,
                    "node {id} violates dep on {p}"
                );
            }
        }
        // 2. Resources: per cycle, per kind, at most `budget_n` issues.
        let mut per_cycle: HashMap<(FuKind, u64), usize> = HashMap::new();
        for (id, node) in dfg.nodes.iter().enumerate() {
            if let Some(fu) = node.fu {
                *per_cycle.entry((fu, schedule.start[id])).or_insert(0) += 1;
            }
        }
        for ((kind, cycle), count) in per_cycle {
            prop_assert!(count <= budget_n, "{count} {kind} issues at cycle {cycle}");
        }
        // 3. The unconstrained ASAP schedule is a lower bound.
        prop_assert!(schedule.len >= asap(&dfg).unwrap().len.min(dfg.critical_path().unwrap()));
        prop_assert!(schedule.len >= dfg.critical_path().unwrap());
    }

    #[test]
    fn binding_never_double_books_an_instance(
        picks in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..30),
    ) {
        let dfg = random_dfg(2, &picks);
        let budget = ResourceBudget::uniform(2);
        let schedule = list_schedule(&dfg, &budget).expect("schedules");
        let binding = bind(&dfg, &schedule);
        let mut seen = std::collections::HashSet::new();
        for (id, slot) in binding.assignment.iter().enumerate() {
            if let Some((kind, instance)) = slot {
                prop_assert!(*instance < binding.allocation[*kind]);
                prop_assert!(
                    seen.insert((schedule.start[id], *kind, *instance)),
                    "instance double-booked"
                );
            }
        }
    }

    #[test]
    fn more_budget_never_lengthens_the_schedule(
        picks in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..25),
    ) {
        let dfg = random_dfg(2, &picks);
        let tight = list_schedule(&dfg, &ResourceBudget::uniform(1)).expect("tight");
        let wide = list_schedule(&dfg, &ResourceBudget::uniform(8)).expect("wide");
        prop_assert!(wide.len <= tight.len);
    }

    #[test]
    fn partitioning_is_a_bijection(
        size in 1usize..2000,
        banks in 1usize..17,
        cyclic in any::<bool>(),
        ports in 1usize..3,
    ) {
        prop_assume!(banks <= size);
        let scheme = if cyclic { Scheme::Cyclic } else { Scheme::Block };
        let p = Partitioning::new(size, banks, scheme, ports).expect("valid");
        let mut seen = std::collections::HashSet::new();
        for i in 0..size {
            let (bank, offset) = p.map(i);
            prop_assert!(bank < banks, "bank out of range");
            prop_assert!(offset < p.bank_depth(), "offset beyond depth");
            prop_assert!(seen.insert((bank, offset)), "slot reused for index {i}");
        }
    }

    #[test]
    fn cyclic_banks_at_least_span_make_contiguous_accesses_conflict_free(
        radius in 1usize..5,
        extra_banks in 0usize..8,
    ) {
        let span = 2 * radius + 1;
        let banks = span + extra_banks;
        let offsets: Vec<i64> = (-(radius as i64)..=(radius as i64)).collect();
        let p = Partitioning::new(banks * 64, banks, Scheme::Cyclic, 1).expect("valid");
        prop_assert_eq!(p.min_ii(&offsets), 1);
    }

    #[test]
    fn min_ii_monotone_in_ports(
        offsets in prop::collection::vec(-8i64..8, 1..8),
        banks in 1usize..9,
    ) {
        let p1 = Partitioning::new(1024, banks, Scheme::Block, 1).expect("p1");
        let p2 = Partitioning::new(1024, banks, Scheme::Block, 2).expect("p2");
        prop_assert!(p2.min_ii(&offsets) <= p1.min_ii(&offsets));
    }
}
