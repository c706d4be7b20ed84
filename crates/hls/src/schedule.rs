//! Operation scheduling: ASAP, ALAP and resource-constrained list
//! scheduling over a [`Dfg`].
//!
//! Functional units are treated as fully pipelined (a unit can *start* one
//! operation per cycle), so the resource constraint limits the number of
//! same-kind ops issued in the same cycle — the standard model for HLS with
//! pipelined floating-point IP.
//!
//! The list scheduler is the inner loop of design-space exploration (one
//! run per DSE candidate), and it is **event-driven**: its cost follows
//! the number of nodes, never the number of cycles the schedule spans. A
//! nested `loop.for` enters its parent's DFG as one macro node carrying
//! the whole loop latency (millions of cycles for a large matmul), so
//! the scheduler only ever visits cycles in which something can happen:
//! the finish times of in-flight ops wait in a min-heap, and when
//! nothing is ready to issue the clock jumps straight to the earliest
//! of them. Every visited cycle issues an op or retires one, so a call
//! visits at most `2 · nodes` cycles and sorts the ready list in each:
//! O(nodes · log nodes) when units are plentiful, one more factor of
//! `nodes` at worst when every op queues for the same unit, and O(nodes)
//! space — whatever the trip counts.
//!
//! Its scratch state lives in a reusable [`ScheduleArena`]: ready
//! queues, in-degree counters, the ALAP priority table and the finish
//! heap are bump-grown once and then recycled, and per-cycle issue
//! counts use a fixed [`FuKind`]-indexed table instead of a hash map.
//! Finish times are checked sums: a block whose makespan passes
//! `u64::MAX` cycles is an error, never a wrapped count.
//! After warm-up, [`ScheduleArena::list_schedule_into`] performs **zero
//! heap allocations per candidate** (enforced by a counting-allocator
//! test); the plain [`list_schedule`] entry point reuses a thread-local
//! arena and allocates only its output.

use crate::cdfg::Dfg;
use crate::error::{too_long, HlsError, HlsResult};
use crate::oplib::{FuCounts, FuKind};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Index;

/// Available functional-unit instances per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceBudget {
    counts: FuCounts,
}

impl Default for ResourceBudget {
    fn default() -> ResourceBudget {
        // fadd, fmul, fdiv, fsqrt, fexp, int_alu, int_mul, mem_read, mem_write
        ResourceBudget { counts: FuCounts([2, 2, 1, 1, 1, 4, 2, 2, 1]) }
    }
}

impl ResourceBudget {
    /// A budget with `n` instances of every kind (useful for ablations).
    pub fn uniform(n: usize) -> ResourceBudget {
        ResourceBudget { counts: FuCounts([n; FuKind::ALL.len()]) }
    }

    /// Sets the instance count for `kind`, returning `self` for chaining.
    pub fn with(mut self, kind: FuKind, n: usize) -> ResourceBudget {
        self.counts[kind] = n;
        self
    }
}

impl Index<FuKind> for ResourceBudget {
    type Output = usize;

    /// Number of instances of `kind`.
    fn index(&self, kind: FuKind) -> &usize {
        &self.counts[kind]
    }
}

/// A computed schedule: a start cycle per node and the overall makespan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Start cycle of each node (indexed by `NodeId`).
    pub start: Vec<u64>,
    /// Total schedule length in cycles (max finish time).
    pub len: u64,
}

/// As-soon-as-possible schedule (ignores resources).
///
/// # Errors
///
/// Returns [`HlsError::Schedule`] if the critical path passes `u64::MAX`
/// cycles.
pub fn asap(dfg: &Dfg) -> HlsResult<Schedule> {
    let mut arena = ScheduleArena::new();
    let len = arena.critical_path(dfg)?;
    // Every finish time is at least its node's latency.
    let start = dfg.nodes.iter().zip(&arena.finish).map(|(n, f)| f - n.latency).collect();
    Ok(Schedule { start, len })
}

/// As-late-as-possible schedule against `deadline` (ignores resources).
///
/// # Errors
///
/// Returns [`HlsError::Schedule`] if the critical path passes `u64::MAX`
/// cycles or `deadline`.
pub fn alap(dfg: &Dfg, deadline: u64) -> HlsResult<Schedule> {
    let mut arena = ScheduleArena::new();
    let cp = arena.critical_path(dfg)?;
    if deadline < cp {
        return Err(HlsError::Schedule(format!(
            "deadline {deadline} is below the critical path {cp}"
        )));
    }
    arena.alap_into(dfg, deadline);
    Ok(Schedule { start: arena.late_start, len: deadline })
}

/// Reusable scratch for the list scheduler. Buffers grow to the largest
/// DFG seen and are then recycled: scheduling a candidate no bigger than
/// a previous one performs no heap allocation (see
/// `tests/schedule_no_alloc.rs`).
#[derive(Debug, Default)]
pub struct ScheduleArena {
    /// ALAP start per node — the list-scheduling priority.
    late_start: Vec<u64>,
    /// Scratch finish times for the critical-path forward pass.
    finish: Vec<u64>,
    /// Unscheduled-predecessor count per node.
    remaining_preds: Vec<usize>,
    /// Nodes ready to issue / deferred to the next pass.
    ready: Vec<usize>,
    still_ready: Vec<usize>,
    /// In-flight ops as a min-heap of `(finish_cycle, node)`: one entry
    /// per issued op of non-zero latency, popped when the clock reaches
    /// its finish. Sized by the node count, not by any latency.
    in_flight: BinaryHeap<Reverse<(u64, usize)>>,
    /// Ops started per unit kind in the current cycle.
    issued: FuCounts,
}

impl ScheduleArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> ScheduleArena {
        ScheduleArena::default()
    }

    /// Critical path (longest latency chain) via the reused `finish`
    /// scratch, which it leaves holding each node's ASAP finish time; no
    /// allocation after warm-up.
    pub(crate) fn critical_path(&mut self, dfg: &Dfg) -> HlsResult<u64> {
        self.finish.clear();
        self.finish.resize(dfg.len(), 0);
        let mut longest = 0;
        for (id, node) in dfg.nodes.iter().enumerate() {
            let start = node.preds.iter().map(|p| self.finish[*p]).max().unwrap_or(0);
            self.finish[id] = start
                .checked_add(node.latency)
                .ok_or_else(|| too_long("a block's critical path"))?;
            longest = longest.max(self.finish[id]);
        }
        Ok(longest)
    }

    /// ALAP start times against `deadline`, into the reused
    /// `late_start` buffer (the priority table). `deadline` must be at
    /// least the critical path.
    fn alap_into(&mut self, dfg: &Dfg, deadline: u64) {
        self.late_start.clear();
        self.late_start.resize(dfg.len(), 0);
        for (id, node) in dfg.nodes.iter().enumerate().rev() {
            let latest_finish =
                node.succs.iter().map(|s| self.late_start[*s]).min().unwrap_or(deadline);
            self.late_start[id] = latest_finish - node.latency;
        }
    }

    /// Resource-constrained list scheduling with ALAP-slack priority,
    /// writing into `out` (its buffer is reused across calls). Produces
    /// exactly the same schedule as [`list_schedule`].
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::Schedule`] if some op needs a unit kind whose
    /// budget is zero, or if the schedule passes `u64::MAX` cycles.
    pub fn list_schedule_into(
        &mut self,
        out: &mut Schedule,
        dfg: &Dfg,
        budget: &ResourceBudget,
    ) -> HlsResult<()> {
        for node in &dfg.nodes {
            if let Some(fu) = node.fu {
                if budget[fu] == 0 {
                    return Err(HlsError::Schedule(format!(
                        "op '{}' needs a {fu} unit but the budget has none",
                        node.name
                    )));
                }
            }
        }
        out.start.clear();
        out.len = 0;
        if dfg.is_empty() {
            return Ok(());
        }
        let cp = self.critical_path(dfg)?;
        self.alap_into(dfg, cp);

        let n = dfg.len();
        out.start.resize(n, u64::MAX);
        self.remaining_preds.clear();
        self.remaining_preds.extend(dfg.nodes.iter().map(|nd| nd.preds.len()));
        self.ready.clear();
        self.ready.extend((0..n).filter(|i| self.remaining_preds[*i] == 0));
        self.still_ready.clear();
        self.in_flight.clear();
        let mut scheduled = 0usize;
        let mut cycle: u64 = 0;

        while scheduled < n {
            // Release successors of nodes that finished by `cycle`. The
            // order of release is immaterial: `ready` is sorted below.
            while let Some(&Reverse((fin, d))) = self.in_flight.peek() {
                if fin > cycle {
                    break;
                }
                self.in_flight.pop();
                for s in &dfg.nodes[d].succs {
                    self.remaining_preds[*s] -= 1;
                    if self.remaining_preds[*s] == 0 {
                        self.ready.push(*s);
                    }
                }
            }
            self.issued = FuCounts::default();
            // Iterate within the cycle so zero-latency ops (constants)
            // release their consumers immediately instead of costing a
            // cycle.
            loop {
                // Priority: smaller ALAP start first (less slack = more
                // urgent). Keys are unique thanks to the id tie-break, so
                // the unstable (allocation-free) sort is deterministic.
                let late = &self.late_start;
                self.ready.sort_unstable_by_key(|i| (late[*i], *i));
                let mut released_zero_latency = false;
                for ri in 0..self.ready.len() {
                    let i = self.ready[ri];
                    let can_issue = match dfg.nodes[i].fu {
                        None => true,
                        Some(fu) => self.issued[fu] < budget[fu],
                    };
                    if can_issue {
                        if let Some(fu) = dfg.nodes[i].fu {
                            self.issued[fu] += 1;
                        }
                        out.start[i] = cycle;
                        let fin = cycle
                            .checked_add(dfg.nodes[i].latency)
                            .ok_or_else(|| too_long("a block's schedule"))?;
                        out.len = out.len.max(fin);
                        if dfg.nodes[i].latency == 0 {
                            for s in &dfg.nodes[i].succs {
                                self.remaining_preds[*s] -= 1;
                                if self.remaining_preds[*s] == 0 {
                                    self.still_ready.push(*s);
                                    released_zero_latency = true;
                                }
                            }
                        } else {
                            self.in_flight.push(Reverse((fin, i)));
                        }
                        scheduled += 1;
                    } else {
                        self.still_ready.push(i);
                    }
                }
                self.ready.clear();
                std::mem::swap(&mut self.ready, &mut self.still_ready);
                if !released_zero_latency {
                    break;
                }
            }
            // Ops left in `ready` lost out on a unit and retry next
            // cycle; otherwise nothing can happen before the earliest
            // in-flight op finishes, so skip the idle stretch.
            cycle = match self.in_flight.peek() {
                Some(&Reverse((fin, _))) if self.ready.is_empty() => fin,
                _ => cycle + 1,
            };
        }
        Ok(())
    }
}

thread_local! {
    /// Per-thread arena behind [`list_schedule`], so DSE pool workers
    /// each recycle their own scratch with no synchronization.
    static ARENA: RefCell<ScheduleArena> = RefCell::new(ScheduleArena::new());
}

/// Resource-constrained list scheduling with ALAP-slack priority.
///
/// Scratch state comes from a thread-local [`ScheduleArena`]; only the
/// returned [`Schedule`] is allocated. Callers scheduling in a tight
/// loop can hold their own arena and reuse the output buffer via
/// [`ScheduleArena::list_schedule_into`].
///
/// # Errors
///
/// Returns [`HlsError::Schedule`] if some op needs a unit kind whose budget
/// is zero, or if the schedule passes `u64::MAX` cycles.
pub fn list_schedule(dfg: &Dfg, budget: &ResourceBudget) -> HlsResult<Schedule> {
    ARENA.with(|arena| {
        let mut out = Schedule::default();
        arena.borrow_mut().list_schedule_into(&mut out, dfg, budget)?;
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::{FuncBuilder, Type};
    use std::collections::HashMap;

    /// Builds a DFG with `k` independent multiplies feeding a reduction add.
    fn parallel_muls(k: usize) -> Dfg {
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
        let mut prods = Vec::new();
        for _ in 0..k {
            prods.push(fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64));
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
    fn asap_matches_critical_path() {
        let dfg = parallel_muls(4);
        let s = asap(&dfg).unwrap();
        assert_eq!(s.len, dfg.critical_path().unwrap());
        // All four muls start at 0 when unconstrained.
        for i in 0..4 {
            assert_eq!(s.start[i], 0);
        }
    }

    #[test]
    fn alap_pushes_ops_late() {
        let dfg = parallel_muls(2);
        let cp = dfg.critical_path().unwrap();
        let late = alap(&dfg, cp + 10).unwrap();
        let early = asap(&dfg).unwrap();
        for i in 0..dfg.len() {
            assert!(late.start[i] >= early.start[i]);
        }
        assert_eq!(late.len, cp + 10);
    }

    #[test]
    fn alap_rejects_tight_deadline() {
        let dfg = parallel_muls(2);
        let err = HlsError::Schedule("deadline 1 is below the critical path 7".into());
        assert_eq!(alap(&dfg, 1).unwrap_err(), err);
    }

    #[test]
    fn list_schedule_respects_dependences() {
        let dfg = parallel_muls(4);
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        for (id, node) in dfg.nodes.iter().enumerate() {
            for p in &node.preds {
                assert!(
                    s.start[id] >= s.start[*p] + dfg.nodes[*p].latency,
                    "node {id} starts before pred {p} finishes"
                );
            }
        }
    }

    #[test]
    fn list_schedule_respects_resource_limits() {
        let dfg = parallel_muls(6);
        let budget = ResourceBudget::default().with(FuKind::FMul, 1);
        let s = list_schedule(&dfg, &budget).unwrap();
        // At most one mul issued per cycle.
        let mut per_cycle: HashMap<u64, usize> = HashMap::new();
        for (id, node) in dfg.nodes.iter().enumerate() {
            if node.fu == Some(FuKind::FMul) {
                *per_cycle.entry(s.start[id]).or_insert(0) += 1;
            }
        }
        assert!(per_cycle.values().all(|c| *c <= 1));
        // With 6 muls on one unit, the last mul cannot start before cycle 5.
        let latest_mul = dfg
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.fu == Some(FuKind::FMul))
            .map(|(i, _)| s.start[i])
            .max()
            .unwrap();
        assert!(latest_mul >= 5);
    }

    #[test]
    fn more_units_never_hurt() {
        let dfg = parallel_muls(8);
        let tight = list_schedule(&dfg, &ResourceBudget::uniform(1)).unwrap();
        let wide = list_schedule(&dfg, &ResourceBudget::uniform(8)).unwrap();
        assert!(wide.len <= tight.len);
        assert_eq!(wide.len, dfg.critical_path().unwrap());
    }

    #[test]
    fn zero_budget_is_an_error() {
        let dfg = parallel_muls(2);
        let err =
            list_schedule(&dfg, &ResourceBudget::default().with(FuKind::FMul, 0)).unwrap_err();
        assert!(err.to_string().contains("fmul"));
    }

    #[test]
    fn empty_dfg_schedules_to_zero() {
        let dfg = Dfg::default();
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        assert_eq!(s.len, 0);
    }
}
