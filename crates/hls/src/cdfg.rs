//! Control/data-flow graph construction from IR blocks.
//!
//! Each straight-line block becomes one [`Dfg`] whose nodes are the block's
//! operations (terminators excluded) and whose edges are:
//!
//! * **SSA dependences** — producer before consumer;
//! * **memory dependences** — accesses to the same buffer are ordered
//!   conservatively (store→load, store→store, load→store), which is what a
//!   scheduler without alias analysis must assume.
//!
//! Nested `loop.for` ops appear as *macro nodes* whose latency the caller
//! supplies (computed bottom-up by [`crate::accel`]).

use crate::oplib::{fu_for_op, latency_for_op, FuCounts, FuKind};
use everest_ir::{Block, Value};
use std::collections::HashMap;

/// Index of a node within a [`Dfg`].
pub(crate) type NodeId = usize;

/// One node of the data-flow graph.
#[derive(Debug, Clone)]
pub struct DfgNode {
    /// IR op name.
    pub name: String,
    /// Functional unit this op occupies, if any.
    pub fu: Option<FuKind>,
    /// Latency in cycles (0 for free ops such as constants).
    pub latency: u64,
    /// Predecessor node ids (dependences).
    pub preds: Vec<NodeId>,
    /// Successor node ids.
    pub succs: Vec<NodeId>,
    /// For memory ops: the buffer value they touch.
    pub buffer: Option<Value>,
    /// Whether this node (transitively) consumes a loop-carried block arg.
    pub uses_carried: bool,
    /// SSA results of the underlying op.
    pub results: Vec<Value>,
    /// SSA operands of the underlying op.
    pub operands: Vec<Value>,
}

/// A data-flow graph over one block.
#[derive(Debug, Clone, Default)]
pub struct Dfg {
    /// Nodes in original program order (a valid topological order).
    pub nodes: Vec<DfgNode>,
    /// Values yielded/returned by the block terminator.
    pub terminator_operands: Vec<Value>,
}

impl Dfg {
    /// Builds the DFG of `block`.
    ///
    /// `loop_latencies[i]` is the latency of the block's `i`-th nested
    /// `loop.for`; loops past the end of the slice default to latency 1.
    pub fn from_block(block: &Block, loop_latencies: &[u64]) -> Dfg {
        let mut nodes: Vec<DfgNode> = Vec::new();
        // Producer map: value -> node that defines it.
        let mut producer: HashMap<Value, NodeId> = HashMap::new();
        // Carried block args (all args beyond the induction variable for
        // loop bodies; for entry blocks this set is empty of effect since
        // nothing is "carried", but consuming any block arg beyond arg 0 in
        // a loop body marks a recurrence).
        let carried: Vec<Value> = block.args.iter().skip(1).copied().collect();
        // Last writer / readers per buffer for memory ordering.
        let mut last_store: HashMap<Value, NodeId> = HashMap::new();
        let mut loads_since_store: HashMap<Value, Vec<NodeId>> = HashMap::new();
        // `loop.for` and `func.call` macro nodes may touch any buffer, so
        // they act as memory fences: every effectful node before a fence
        // precedes it, and everything after depends on the fence.
        let mut effectful: Vec<NodeId> = Vec::new();
        let mut last_fence: Option<NodeId> = None;
        let mut loops = loop_latencies.iter();

        let op_count = block.ops.len();
        let mut terminator_operands = Vec::new();
        for (pos, op) in block.ops.iter().enumerate() {
            let is_terminator =
                pos + 1 == op_count && everest_ir::registry::is_terminator(&op.name);
            if is_terminator {
                terminator_operands = op.operands.clone();
                break;
            }
            let id = nodes.len();
            let latency = if op.name == "loop.for" {
                loops.next().copied().unwrap_or(1)
            } else {
                latency_for_op(&op.name)
            };
            let buffer = match op.name.as_str() {
                "mem.load" => Some(op.operands[0]),
                "mem.store" => Some(op.operands[1]),
                _ => None,
            };
            let mut node = DfgNode {
                name: op.name.clone(),
                fu: fu_for_op(&op.name),
                latency,
                preds: Vec::new(),
                succs: Vec::new(),
                buffer,
                uses_carried: false,
                results: op.results.clone(),
                operands: op.operands.clone(),
            };
            // SSA edges + carried-arg propagation.
            for operand in &op.operands {
                if carried.contains(operand) {
                    node.uses_carried = true;
                }
                if let Some(p) = producer.get(operand) {
                    if !node.preds.contains(p) {
                        node.preds.push(*p);
                        node.uses_carried |= nodes[*p].uses_carried;
                    }
                }
            }
            // Fence semantics for macro nodes with opaque memory behaviour.
            let is_fence = matches!(op.name.as_str(), "loop.for" | "func.call");
            if is_fence {
                for e in effectful.drain(..) {
                    if !node.preds.contains(&e) {
                        node.preds.push(e);
                    }
                }
                if let Some(fence) = last_fence {
                    if !node.preds.contains(&fence) {
                        node.preds.push(fence);
                    }
                }
                last_fence = Some(id);
                last_store.clear();
                loads_since_store.clear();
            } else if buffer.is_some() {
                if let Some(fence) = last_fence {
                    if !node.preds.contains(&fence) {
                        node.preds.push(fence);
                    }
                }
                effectful.push(id);
            }
            // Memory ordering edges.
            if let Some(buf) = buffer {
                match op.name.as_str() {
                    "mem.load" => {
                        if let Some(s) = last_store.get(&buf) {
                            if !node.preds.contains(s) {
                                node.preds.push(*s);
                            }
                        }
                        loads_since_store.entry(buf).or_default().push(id);
                    }
                    "mem.store" => {
                        if let Some(s) = last_store.get(&buf) {
                            if !node.preds.contains(s) {
                                node.preds.push(*s);
                            }
                        }
                        for l in loads_since_store.remove(&buf).unwrap_or_default() {
                            if !node.preds.contains(&l) {
                                node.preds.push(l);
                            }
                        }
                        last_store.insert(buf, id);
                    }
                    _ => {}
                }
            }
            for result in &op.results {
                producer.insert(*result, id);
            }
            nodes.push(node);
        }
        // Fill successor lists.
        let edges: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .enumerate()
            .flat_map(|(id, n)| n.preds.iter().map(move |p| (*p, id)))
            .collect();
        for (from, to) in edges {
            nodes[from].succs.push(to);
        }
        Dfg { nodes, terminator_operands }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes that occupy each functional-unit kind.
    pub(crate) fn fu_counts(&self) -> FuCounts {
        let mut counts = FuCounts::default();
        for fu in self.nodes.iter().filter_map(|n| n.fu) {
            counts[fu] += 1;
        }
        counts
    }

    /// The critical-path length in cycles (unconstrained ASAP makespan).
    pub fn critical_path(&self) -> u64 {
        let mut finish = vec![0u64; self.nodes.len()];
        let mut longest = 0;
        for (id, node) in self.nodes.iter().enumerate() {
            let start = node.preds.iter().map(|p| finish[*p]).max().unwrap_or(0);
            finish[id] = start + node.latency;
            longest = longest.max(finish[id]);
        }
        longest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::types::MemSpace;
    use everest_ir::{Func, FuncBuilder, Type};

    fn build_axpy_block() -> (Func, usize) {
        // r = a*x + y over scalars (no loops) to test SSA edges.
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64, Type::F64], &[Type::F64]);
        let p = fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64);
        let s = fb.binary("arith.addf", p, fb.arg(2), Type::F64);
        fb.ret(&[s]);
        (fb.finish(), 2)
    }

    #[test]
    fn ssa_edges_connect_producer_to_consumer() {
        let (f, n) = build_axpy_block();
        let dfg = Dfg::from_block(f.body.entry().unwrap(), &[]);
        assert_eq!(dfg.len(), n);
        assert_eq!(dfg.nodes[1].preds, vec![0]);
        assert_eq!(dfg.nodes[0].succs, vec![1]);
        assert_eq!(dfg.terminator_operands.len(), 1);
    }

    #[test]
    fn critical_path_sums_latencies() {
        let (f, _) = build_axpy_block();
        let dfg = Dfg::from_block(f.body.entry().unwrap(), &[]);
        // mulf (4) then addf (3).
        assert_eq!(dfg.critical_path(), 7);
    }

    #[test]
    fn memory_edges_order_accesses_to_same_buffer() {
        let buf = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("m", &[buf], &[]);
        let i = fb.const_i(0, Type::Index);
        let v = fb.load(fb.arg(0), &[i], Type::F64);
        let w = fb.binary("arith.addf", v, v, Type::F64);
        fb.store(w, fb.arg(0), &[i]);
        let v2 = fb.load(fb.arg(0), &[i], Type::F64);
        fb.store(v2, fb.arg(0), &[i]);
        fb.ret(&[]);
        let f = fb.finish();
        let dfg = Dfg::from_block(f.body.entry().unwrap(), &[]);
        // nodes: 0 const, 1 load, 2 addf, 3 store, 4 load, 5 store
        assert!(dfg.nodes[3].preds.contains(&1), "store after load (anti-dep)");
        assert!(dfg.nodes[4].preds.contains(&3), "load after store (true dep)");
        assert!(dfg.nodes[5].preds.contains(&3), "store after store (output dep)");
    }

    #[test]
    fn different_buffers_do_not_serialize() {
        let buf = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("m", &[buf.clone(), buf], &[]);
        let i = fb.const_i(0, Type::Index);
        let a = fb.load(fb.arg(0), &[i], Type::F64);
        let b = fb.load(fb.arg(1), &[i], Type::F64);
        fb.store(a, fb.arg(1), &[i]);
        fb.store(b, fb.arg(0), &[i]);
        fb.ret(&[]);
        let f = fb.finish();
        let dfg = Dfg::from_block(f.body.entry().unwrap(), &[]);
        // The two loads (nodes 1, 2) are independent.
        assert!(dfg.nodes[2].preds.is_empty() || dfg.nodes[2].preds == vec![0]);
    }

    #[test]
    fn carried_args_mark_recurrences() {
        let mut fb = FuncBuilder::new("l", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let one = fb.const_f(1.0, Type::F64);
            vec![fb.binary("arith.addf", c[0], one, Type::F64)]
        });
        let f = fb.finish();
        let entry = f.body.entry().unwrap();
        let loop_op = entry.ops.iter().find(|o| o.name == "loop.for").unwrap();
        let body = loop_op.regions[0].entry().unwrap();
        let dfg = Dfg::from_block(body, &[]);
        // const is not carried; addf consumes the carried arg.
        let addf = dfg.nodes.iter().find(|n| n.name == "arith.addf").unwrap();
        assert!(addf.uses_carried);
        let c = dfg.nodes.iter().find(|n| n.name == "arith.constant").unwrap();
        assert!(!c.uses_carried);
    }

    #[test]
    fn loop_macro_nodes_take_supplied_latency() {
        let mut fb = FuncBuilder::new("l", &[], &[]);
        fb.for_loop(0, 4, 1, &[], |_fb, _iv, _c| vec![]);
        fb.ret(&[]);
        let f = fb.finish();
        let dfg = Dfg::from_block(f.body.entry().unwrap(), &[120]);
        assert_eq!(dfg.nodes[0].latency, 120);
        assert_eq!(dfg.critical_path(), 120);
    }

    #[test]
    fn count_fu_tallies_kinds() {
        let (f, _) = build_axpy_block();
        let counts = Dfg::from_block(f.body.entry().unwrap(), &[]).fu_counts();
        assert_eq!(counts[FuKind::FMul], 1);
        assert_eq!(counts[FuKind::FAdd], 1);
        assert_eq!(counts[FuKind::FDiv], 0);
    }
}
