//! Differential test of the list scheduler's fast path against a slow
//! reference (ROADMAP: every fast path has one).
//!
//! The event-driven scheduler in `everest_hls::schedule` keeps in-flight
//! finish times in a min-heap and jumps over idle cycles; the reference
//! below is the algorithm it replaced — it visits every cycle from 0 to
//! the end of the schedule, one at a time. Both must produce the same
//! `Schedule { start, len }`, bit for bit, on every generated DFG: random
//! widths and depths, every `FuKind`, tight and uniform budgets,
//! zero-latency constants, and loop macro nodes whose latency runs up to
//! 10⁷ cycles.

use everest_hls::cdfg::{Dfg, DfgNode};
use everest_hls::schedule::{alap, list_schedule, ResourceBudget, Schedule, ScheduleArena};
use everest_hls::FuKind;
use proptest::prelude::*;
use std::collections::HashMap;

/// The cycle-stepping list scheduler: same priority (ALAP start, then
/// id), same per-cycle issue rule, but the clock advances by one and the
/// finishes wait in a map keyed by cycle.
fn naive_list_schedule(dfg: &Dfg, budget: &ResourceBudget) -> Schedule {
    let n = dfg.len();
    if n == 0 {
        return Schedule::default();
    }
    let late = alap(dfg, dfg.critical_path().unwrap()).unwrap().start;
    let mut start = vec![u64::MAX; n];
    let mut len = 0u64;
    let mut remaining: Vec<usize> = dfg.nodes.iter().map(|nd| nd.preds.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|i| remaining[*i] == 0).collect();
    let mut finishes: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut scheduled = 0;
    let mut cycle = 0u64;
    while scheduled < n {
        for done in finishes.remove(&cycle).unwrap_or_default() {
            for s in &dfg.nodes[done].succs {
                remaining[*s] -= 1;
                if remaining[*s] == 0 {
                    ready.push(*s);
                }
            }
        }
        let mut issued = [0usize; FuKind::ALL.len()];
        loop {
            ready.sort_by_key(|i| (late[*i], *i));
            let mut deferred = Vec::new();
            let mut released_zero_latency = false;
            for &i in &ready {
                let node = &dfg.nodes[i];
                if let Some(fu) = node.fu {
                    if issued[fu as usize] >= budget[fu] {
                        deferred.push(i);
                        continue;
                    }
                    issued[fu as usize] += 1;
                }
                start[i] = cycle;
                len = len.max(cycle + node.latency);
                scheduled += 1;
                if node.latency > 0 {
                    finishes.entry(cycle + node.latency).or_default().push(i);
                    continue;
                }
                for s in &node.succs {
                    remaining[*s] -= 1;
                    if remaining[*s] == 0 {
                        deferred.push(*s);
                        released_zero_latency = true;
                    }
                }
            }
            ready = deferred;
            if !released_zero_latency {
                break;
            }
        }
        cycle += 1;
    }
    Schedule { start, len }
}

/// One generated node: `(kind, latency word, fan-in word, pred word)`.
type NodeGene = (u8, u64, u8, u64);

/// A DFG over `(name, unit, latency, predecessors)` nodes in topological
/// order.
fn dfg_of(spec: Vec<(&str, Option<FuKind>, u64, Vec<usize>)>) -> Dfg {
    let mut nodes: Vec<DfgNode> = Vec::with_capacity(spec.len());
    for (id, (name, fu, latency, preds)) in spec.into_iter().enumerate() {
        for p in &preds {
            nodes[*p].succs.push(id);
        }
        nodes.push(DfgNode {
            name: name.to_owned(),
            fu,
            latency,
            preds,
            succs: Vec::new(),
            buffer: None,
            uses_carried: false,
            results: Vec::new(),
            operands: Vec::new(),
        });
    }
    Dfg { nodes, terminator_operands: Vec::new() }
}

/// Builds a DFG from genes. Node `i` draws up to three predecessors from
/// the `window` nodes before it (a small window makes deep chains, a
/// large one wide graphs). One kind in eleven is a zero-latency constant,
/// one a loop macro node (no unit, latency log-uniform up to
/// `max_macro_latency`); the rest occupy one of the nine `FuKind`s for
/// 0–15 cycles.
fn dfg_from(genes: &[NodeGene], window: usize, max_macro_latency: u64) -> Dfg {
    let spec = genes.iter().enumerate().map(|(id, &(kind, lat, fan_in, pick))| {
        let (name, fu, latency) = match kind % 11 {
            0 => ("arith.constant", None, 0),
            1 => {
                let magnitude = 10u64.pow((lat % 8) as u32) * (1 + (lat >> 8) % 9);
                ("loop.for", None, magnitude.min(max_macro_latency))
            }
            k => ("op", Some(FuKind::ALL[k as usize - 2]), lat % 16),
        };
        let mut preds: Vec<usize> = Vec::new();
        for draw in 0..u32::from(fan_in % 4) {
            if id > 0 {
                // Each draw reads its own 21 bits of the pred word.
                let back = 1 + (pick >> (21 * draw)) as usize % id.min(window);
                if !preds.contains(&(id - back)) {
                    preds.push(id - back);
                }
            }
        }
        (name, fu, latency, preds)
    });
    dfg_of(spec.collect())
}

/// Uniform budgets of 1–3 units, the default budget, and the default
/// squeezed to one unit of two kinds.
fn budget_from(sel: u8) -> ResourceBudget {
    match sel % 6 {
        s @ 0..=2 => ResourceBudget::uniform(s as usize + 1),
        3 => ResourceBudget::default(),
        s => {
            let a = FuKind::ALL[(sel / 6) as usize % 9];
            let b = FuKind::ALL[(sel / 54 + s) as usize % 9];
            ResourceBudget::default().with(a, 1).with(b, 1)
        }
    }
}

fn genes(max_nodes: usize) -> impl Strategy<Value = Vec<NodeGene>> {
    prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>(), any::<u64>()), 1..max_nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_driven_scheduler_equals_the_cycle_stepping_reference(
        genes in genes(64),
        window in 1usize..24,
        budget_sel in any::<u8>(),
    ) {
        let dfg = dfg_from(&genes, window, 2_000);
        let budget = budget_from(budget_sel);
        let fast = list_schedule(&dfg, &budget).expect("every budget has every kind");
        prop_assert_eq!(fast, naive_list_schedule(&dfg, &budget));
    }
}

proptest! {
    // Few cases: the reference walks every cycle of every macro node.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn schedules_stay_equal_with_macro_latencies_up_to_ten_million(
        genes in genes(20),
        window in 1usize..8,
        budget_sel in any::<u8>(),
    ) {
        let dfg = dfg_from(&genes, window, 10_000_000);
        let budget = budget_from(budget_sel);
        let fast = list_schedule(&dfg, &budget).expect("every budget has every kind");
        prop_assert_eq!(fast, naive_list_schedule(&dfg, &budget));
    }
}

/// A loop nest as `accel` sees it: index arithmetic, then a macro node of
/// `loop_latency` cycles, then an epilogue of two adds contending for one
/// adder, and their sum.
fn loop_block(loop_latency: u64) -> Dfg {
    dfg_of(vec![
        ("arith.constant", None, 0, vec![]),
        ("arith.addi", Some(FuKind::IntAlu), 1, vec![0]),
        ("loop.for", None, loop_latency, vec![1]),
        ("arith.addf", Some(FuKind::FAdd), 3, vec![2]),
        ("arith.addf", Some(FuKind::FAdd), 3, vec![2]),
        ("arith.addf", Some(FuKind::FAdd), 3, vec![3, 4]),
    ])
}

#[test]
fn a_ten_million_cycle_loop_schedules_like_the_reference() {
    let dfg = loop_block(10_000_000);
    let budget = ResourceBudget::default().with(FuKind::FAdd, 1);
    let fast = list_schedule(&dfg, &budget).unwrap();
    assert!(fast.len > 10_000_000);
    assert_eq!(fast, naive_list_schedule(&dfg, &budget));
}

#[test]
fn one_arena_carries_no_state_from_a_long_schedule_into_a_short_one() {
    let budget = ResourceBudget::default().with(FuKind::FAdd, 1);
    let mut arena = ScheduleArena::new();
    let mut out = Schedule::default();
    // Long, short, long again, and a different short one: every call
    // must equal a fresh reference run, whatever the arena saw before.
    for latency in [3_000_000, 2, 3_000_000, 7] {
        let dfg = loop_block(latency);
        arena.list_schedule_into(&mut out, &dfg, &budget).unwrap();
        assert_eq!(out, naive_list_schedule(&dfg, &budget), "loop latency {latency}");
    }
}
