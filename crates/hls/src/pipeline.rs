//! Loop pipelining: initiation-interval (II) computation for innermost
//! loop bodies.
//!
//! `II = max(ResMII, RecMII, MemMII)` where
//!
//! * **ResMII** — each unit kind can start `budget` ops per cycle, so a body
//!   with `n` ops of a kind needs `ceil(n / budget)` cycles between
//!   iterations;
//! * **RecMII** — a loop-carried recurrence of latency `L` (distance 1)
//!   forces `II ≥ L`;
//! * **MemMII** — bank conflicts computed by [`crate::memory`].

use crate::cdfg::Dfg;
use crate::schedule::{ResourceBudget, Schedule};

/// Pipelining analysis result for one loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PipelineReport {
    /// Resource-constrained minimum II.
    pub res_mii: u64,
    /// Recurrence-constrained minimum II.
    pub rec_mii: u64,
    /// Memory-constrained minimum II (from partitioning analysis).
    pub mem_mii: u64,
    /// Achieved initiation interval.
    pub ii: u64,
    /// Pipeline depth (cycles for one iteration).
    pub depth: u64,
}

/// Operations whose loop-carried recurrences can be broken by the
/// partial-sum transformation (associative + commutative).
const ASSOCIATIVE: [&str; 6] =
    ["arith.addf", "arith.mulf", "arith.maxf", "arith.minf", "arith.addi", "arith.muli"];

/// Analyses a loop-body DFG for pipelining, given its list schedule under
/// `budget` (whose length is the depth of one iteration).
///
/// `mem_mii` carries the memory-partitioning constraint (1 when the body's
/// buffers are fully partitioned). With `break_associative` the analyzer
/// applies the partial-sum transformation: a recurrence made purely of
/// associative accumulations is split into interleaved partial
/// accumulators (II becomes 1) at the cost of a tree-reduction epilogue
/// added to the pipeline depth.
pub(crate) fn analyze(
    dfg: &Dfg,
    schedule: &Schedule,
    budget: &ResourceBudget,
    mem_mii: u64,
    break_associative: bool,
) -> PipelineReport {
    let res_mii = dfg
        .fu_counts()
        .iter()
        .map(|(kind, n)| if n == 0 { 1 } else { (n as u64).div_ceil(budget[kind].max(1) as u64) })
        .max()
        .unwrap_or(1);
    let raw_rec_mii = recurrence_mii(dfg);
    let mut depth = schedule.len.max(1);
    let rec_mii = if break_associative && raw_rec_mii > 1 && recurrence_is_associative(dfg) {
        // Partial sums: II drops to 1; merging the partial accumulators
        // costs a log-depth epilogue approximated by the chain latency.
        depth += raw_rec_mii;
        1
    } else {
        raw_rec_mii
    };
    let ii = res_mii.max(rec_mii).max(mem_mii.max(1));
    PipelineReport { res_mii, rec_mii, mem_mii: mem_mii.max(1), ii, depth }
}

/// Longest latency chain through nodes that participate in a loop-carried
/// recurrence (consume a carried block argument, directly or transitively,
/// and feed the yield).
fn recurrence_mii(dfg: &Dfg) -> u64 {
    let mut finish = vec![0u64; dfg.len()];
    let mut worst = 1u64;
    for (id, node) in dfg.nodes.iter().enumerate() {
        if !node.uses_carried {
            continue;
        }
        let start = node
            .preds
            .iter()
            .filter(|p| dfg.nodes[**p].uses_carried)
            .map(|p| finish[*p])
            .max()
            .unwrap_or(0);
        finish[id] = start + node.latency;
        // Only chains that actually feed the next iteration constrain II.
        if node.results.iter().any(|r| dfg.terminator_operands.contains(r)) {
            worst = worst.max(finish[id]);
        }
    }
    worst
}

/// `true` when every node participating in the loop-carried recurrence is
/// an associative accumulation (so partial-sum splitting is legal).
fn recurrence_is_associative(dfg: &Dfg) -> bool {
    dfg.nodes.iter().filter(|n| n.uses_carried).all(|n| ASSOCIATIVE.contains(&n.name.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplib::FuKind;
    use crate::schedule::list_schedule;
    use everest_ir::{FuncBuilder, Type};

    fn body_dfg(
        build: impl FnOnce(
            &mut FuncBuilder,
            everest_ir::Value,
            &[everest_ir::Value],
        ) -> Vec<everest_ir::Value>,
        carried: usize,
    ) -> Dfg {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        let inits: Vec<_> = (0..carried).map(|_| fb.const_f(0.0, Type::F64)).collect();
        fb.for_loop(0, 16, 1, &inits, build);
        fb.ret(&[]);
        let f = fb.finish();
        let entry = f.body.entry().unwrap();
        let loop_op = entry.ops.iter().find(|o| o.name == "loop.for").unwrap();
        Dfg::from_block(loop_op.regions[0].entry().unwrap(), &[])
    }

    /// Schedules `dfg` under `budget` and analyses it, as synthesis does.
    fn analyzed(dfg: &Dfg, budget: &ResourceBudget, mem_mii: u64, assoc: bool) -> PipelineReport {
        analyze(dfg, &list_schedule(dfg, budget).unwrap(), budget, mem_mii, assoc)
    }

    #[test]
    fn accumulation_recurrence_limits_ii() {
        // acc = acc + x: the fadd (3 cycles) is a carried recurrence.
        let dfg = body_dfg(
            |fb, _iv, c| {
                let x = fb.const_f(1.5, Type::F64);
                vec![fb.binary("arith.addf", c[0], x, Type::F64)]
            },
            1,
        );
        let report = analyzed(&dfg, &ResourceBudget::default(), 1, false);
        assert_eq!(report.rec_mii, 3);
        assert_eq!(report.ii, 3);
        // With the partial-sum transformation the recurrence breaks.
        let broken = analyzed(&dfg, &ResourceBudget::default(), 1, true);
        assert_eq!(broken.rec_mii, 1);
        assert_eq!(broken.ii, 1);
        assert!(broken.depth > report.depth, "tree epilogue deepens the pipeline");
    }

    #[test]
    fn independent_body_reaches_ii_one() {
        // No carried values: body is fully parallel across iterations.
        let dfg = body_dfg(
            |fb, _iv, _c| {
                let a = fb.const_f(1.0, Type::F64);
                let b = fb.const_f(2.0, Type::F64);
                let _ = fb.binary("arith.mulf", a, b, Type::F64);
                vec![]
            },
            0,
        );
        let report = analyzed(&dfg, &ResourceBudget::default(), 1, false);
        assert_eq!(report.rec_mii, 1);
        assert_eq!(report.ii, 1);
    }

    #[test]
    fn resource_pressure_raises_ii() {
        // Four independent multiplies per iteration on one multiplier.
        let dfg = body_dfg(
            |fb, _iv, _c| {
                let a = fb.const_f(1.0, Type::F64);
                for _ in 0..4 {
                    let _ = fb.binary("arith.mulf", a, a, Type::F64);
                }
                vec![]
            },
            0,
        );
        let budget = ResourceBudget::default().with(FuKind::FMul, 1);
        let report = analyzed(&dfg, &budget, 1, false);
        assert_eq!(report.res_mii, 4);
        assert_eq!(report.ii, 4);
    }

    #[test]
    fn memory_mii_dominates_when_larger() {
        let dfg = body_dfg(
            |fb, _iv, _c| {
                let a = fb.const_f(1.0, Type::F64);
                let _ = fb.binary("arith.addf", a, a, Type::F64);
                vec![]
            },
            0,
        );
        let report = analyzed(&dfg, &ResourceBudget::default(), 5, false);
        assert_eq!(report.ii, 5);
    }

    #[test]
    fn non_recurrent_use_of_carried_value_is_free() {
        // The carried value is yielded unchanged; a side computation reads
        // it but does not feed the next iteration.
        let dfg = body_dfg(
            |fb, _iv, c| {
                let k = fb.const_f(2.0, Type::F64);
                let _side = fb.binary("arith.mulf", c[0], k, Type::F64);
                vec![c[0]]
            },
            1,
        );
        let report = analyzed(&dfg, &ResourceBudget::default(), 1, false);
        assert_eq!(report.rec_mii, 1);
    }
}
