//! Functional-unit allocation, binding and register estimation.
//!
//! After scheduling, allocation decides how many instances of each unit
//! kind the datapath needs (the peak number of same-kind ops issued in one
//! cycle), binding assigns each op to a concrete instance, and register
//! estimation counts values that must be carried across cycle boundaries.

use crate::cdfg::Dfg;
use crate::oplib::{AreaReport, FuKind};
use crate::schedule::Schedule;
use std::collections::HashMap;

/// Result of allocation + binding for one scheduled block.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    /// Instances allocated per unit kind.
    pub allocation: HashMap<FuKind, usize>,
    /// Per node: the unit instance `(kind, index)` it runs on, if any.
    pub assignment: Vec<Option<(FuKind, usize)>>,
    /// Peak number of live values crossing a cycle boundary.
    pub registers: usize,
}

impl Binding {
    /// Total datapath area: functional units plus registers (64-bit) plus a
    /// small steering/mux overhead per bound op.
    pub(crate) fn area(&self) -> AreaReport {
        let mut area = AreaReport::default();
        for (kind, count) in &self.allocation {
            area += kind.area().scaled(*count as u64);
        }
        // One 64-bit register per live value; ~0.5 LUT/bit of muxing.
        area.ffs += 64 * self.registers as u64;
        area.luts += 32 * self.registers as u64;
        area
    }
}

/// Computes allocation, binding and register pressure for a schedule.
pub fn bind(dfg: &Dfg, schedule: &Schedule) -> Binding {
    // Allocation: peak concurrent issues per kind.
    let mut per_cycle: HashMap<(FuKind, u64), usize> = HashMap::new();
    for (id, node) in dfg.nodes.iter().enumerate() {
        if let Some(fu) = node.fu {
            *per_cycle.entry((fu, schedule.start[id])).or_insert(0) += 1;
        }
    }
    let mut allocation: HashMap<FuKind, usize> = HashMap::new();
    for ((fu, _), count) in &per_cycle {
        let e = allocation.entry(*fu).or_insert(0);
        *e = (*e).max(*count);
    }

    // Binding: within each cycle, assign instances round-robin.
    let mut assignment = vec![None; dfg.len()];
    let mut cursor: HashMap<(FuKind, u64), usize> = HashMap::new();
    for (id, node) in dfg.nodes.iter().enumerate() {
        if let Some(fu) = node.fu {
            let key = (fu, schedule.start[id]);
            let slot = cursor.entry(key).or_insert(0);
            assignment[id] = Some((fu, *slot));
            *slot += 1;
        }
    }

    // Register estimation: a value produced by node `p` and consumed by
    // node `c` is live from finish(p) to start(c); it needs a register for
    // every cycle boundary in between. Count peak liveness.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for (id, node) in dfg.nodes.iter().enumerate() {
        let produced_at = schedule.start[id] + node.latency;
        let mut last_use = produced_at;
        for s in &node.succs {
            last_use = last_use.max(schedule.start[*s]);
        }
        // Values feeding the block terminator stay live to the end.
        if node.results.iter().any(|r| dfg.terminator_operands.contains(r)) {
            last_use = last_use.max(schedule.len);
        }
        if last_use > produced_at {
            events.push((produced_at, 1));
            events.push((last_use, -1));
        }
    }
    events.sort_unstable();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }

    Binding { allocation, assignment, registers: peak as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{list_schedule, ResourceBudget};
    use everest_ir::{FuncBuilder, Type};
    use std::collections::HashMap as Map;

    fn sample_dfg(parallel: usize) -> Dfg {
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
        let mut vals = Vec::new();
        for _ in 0..parallel {
            vals.push(fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64));
        }
        let mut acc = vals[0];
        for v in &vals[1..] {
            acc = fb.binary("arith.addf", acc, *v, Type::F64);
        }
        fb.ret(&[acc]);
        let f = fb.finish();
        Dfg::from_block(&f, f.body.entry().unwrap(), &Map::new())
    }

    #[test]
    fn allocation_matches_peak_concurrency() {
        let dfg = sample_dfg(4);
        let budget = ResourceBudget::default().with(FuKind::FMul, 2);
        let s = list_schedule(&dfg, &budget).unwrap();
        let b = bind(&dfg, &s);
        assert_eq!(b.allocation[&FuKind::FMul], 2);
    }

    #[test]
    fn binding_instances_within_allocation() {
        let dfg = sample_dfg(6);
        let budget = ResourceBudget::default().with(FuKind::FMul, 3);
        let s = list_schedule(&dfg, &budget).unwrap();
        let b = bind(&dfg, &s);
        for (id, a) in b.assignment.iter().enumerate() {
            if let Some((kind, slot)) = a {
                assert!(slot < &b.allocation[kind], "node {id} bound past allocation");
            }
        }
    }

    #[test]
    fn no_two_ops_share_instance_and_cycle() {
        let dfg = sample_dfg(5);
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        let b = bind(&dfg, &s);
        let mut seen = std::collections::HashSet::new();
        for (id, a) in b.assignment.iter().enumerate() {
            if let Some((kind, slot)) = a {
                assert!(
                    seen.insert((s.start[id], *kind, *slot)),
                    "instance double-booked in one cycle"
                );
            }
        }
    }

    #[test]
    fn registers_positive_for_multi_cycle_chains() {
        let dfg = sample_dfg(3);
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        let b = bind(&dfg, &s);
        assert!(b.registers > 0);
    }

    #[test]
    fn area_includes_units_and_registers() {
        // 3 parallel muls guarantee a value outliving one cycle boundary.
        let dfg = sample_dfg(3);
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        let b = bind(&dfg, &s);
        let area = b.area();
        let fu_only: AreaReport = b
            .allocation
            .iter()
            .fold(AreaReport::default(), |acc, (k, c)| acc + k.area().scaled(*c as u64));
        assert!(area.ffs > fu_only.ffs);
        assert!(area.luts > fu_only.luts);
    }

    #[test]
    fn serial_schedule_allocates_single_unit() {
        let dfg = sample_dfg(4);
        let budget = ResourceBudget::default().with(FuKind::FMul, 1);
        let s = list_schedule(&dfg, &budget).unwrap();
        let b = bind(&dfg, &s);
        assert_eq!(b.allocation[&FuKind::FMul], 1);
    }
}
