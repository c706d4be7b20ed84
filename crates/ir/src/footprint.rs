//! Interprocedural buffer shape/footprint inference on the dataflow engine.
//!
//! The stream-fusion legality analysis (`everestc fuse`) needs a *byte
//! bound* for every value a kernel produces and every buffer it allocates:
//! an edge of the workflow graph may only become an FPGA→FPGA stream when
//! the data crossing it provably fits the device BRAM budget. This module
//! supplies those bounds:
//!
//! * [`ShapeFact`] — a join-semilattice over buffer shapes: unknown
//!   (`Bottom`), a per-dimension [`Interval`] hull with a fixed element
//!   width (`Dims`), or unbounded (`Top`). Joining shapes of equal rank and
//!   element width is pointwise interval hull; anything else widens to
//!   `Top`, so the lattice has finite height and the fixpoint converges.
//! * [`ShapeAnalysis`] — a forward [`Analysis`] propagating facts from
//!   typed results, through elementwise ops, `loop.for` region boundaries
//!   (loop-carried args and yields) and `func.call` using callee summaries.
//! * [`fn_footprint`] / [`module_footprints`] — per-function summaries
//!   ([`FnFootprint`]): parameter bytes, result bytes from the converged
//!   facts at `func.return`, and peak local allocation as an [`Interval`]
//!   (each `mem.alloc` scaled by the trip counts of its enclosing
//!   `loop.for` nests; an unknown trip count makes the bound unbounded).
//!   `module_footprints` summarizes each function once, callees first (a
//!   depth-first walk of the call graph), so `f` calls `g` in either
//!   declaration order. A callee with no summary — missing, or on a call
//!   cycle, which the verifier rejects — reads `Top`.

use crate::attr::Attr;
use crate::dataflow::{
    analyze, bind_region_args, bind_region_results, Analysis, Direction, Interval, Lattice,
};
use crate::ir::{Block, ForLoop, Func, Module, Op, Value};
use crate::types::Type;
use std::collections::BTreeMap;

/// Abstract shape of one SSA value: per-dimension extents as intervals plus
/// the element width in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeFact {
    /// Nothing known yet (unreached).
    Bottom,
    /// A shaped value: one [`Interval`] per dimension and the element size.
    Dims {
        /// Extent hull of every dimension, outermost first.
        dims: Vec<Interval>,
        /// Bytes per element.
        elem_bytes: u64,
    },
    /// Statically unbounded (or shape-incompatible join).
    Top,
}

impl ShapeFact {
    /// The exact fact for a static type, when it has one: shaped types map
    /// every dimension to a point interval, scalars to a rank-0 fact.
    pub(crate) fn of_type(ty: &Type) -> ShapeFact {
        match (ty.shape(), ty.elem().and_then(Type::scalar_bytes), ty.scalar_bytes()) {
            (Some(shape), Some(eb), _) => ShapeFact::Dims {
                dims: shape.iter().map(|d| Interval::point(*d as i64)).collect(),
                elem_bytes: eb as u64,
            },
            (None, _, Some(eb)) => ShapeFact::Dims { dims: Vec::new(), elem_bytes: eb as u64 },
            _ => ShapeFact::Top,
        }
    }

    /// Upper bound on the byte footprint, when every dimension is bounded.
    pub fn max_bytes(&self) -> Option<u64> {
        match self {
            ShapeFact::Dims { dims, elem_bytes } => {
                let mut bytes: u64 = *elem_bytes;
                for d in dims {
                    if !d.is_bounded() || d.hi < 0 {
                        return None;
                    }
                    bytes = bytes.checked_mul(d.hi as u64)?;
                }
                Some(bytes)
            }
            _ => None,
        }
    }
}

impl Lattice for ShapeFact {
    fn bottom() -> Self {
        ShapeFact::Bottom
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&mut *self, other) {
            (_, ShapeFact::Bottom) => false,
            (ShapeFact::Top, _) => false,
            (ShapeFact::Bottom, o) => {
                *self = o.clone();
                true
            }
            (
                ShapeFact::Dims { dims, elem_bytes },
                ShapeFact::Dims { dims: od, elem_bytes: oe },
            ) => {
                if dims.len() != od.len() || elem_bytes != oe {
                    *self = ShapeFact::Top;
                    return true;
                }
                let mut changed = false;
                for (mine, theirs) in dims.iter_mut().zip(od) {
                    changed |= mine.join(theirs);
                }
                changed
            }
            (_, ShapeFact::Top) => {
                *self = ShapeFact::Top;
                true
            }
        }
    }
}

/// Per-value shape facts (map lattice: missing keys are bottom).
pub(crate) type ShapeState = BTreeMap<Value, ShapeFact>;

/// Interprocedural summary of one function's memory behaviour, in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFootprint {
    /// Total bytes of the parameters (`None` when any is unsized).
    pub in_bytes: Option<u64>,
    /// Total bytes of the results, from the converged facts at
    /// `func.return` (`None` when any result is unbounded).
    pub out_bytes: Option<u64>,
    /// Peak locally-allocated bytes: every `mem.alloc` scaled by the trip
    /// counts of its enclosing loops, plus callee locals at call sites.
    /// `TOP` means some allocation could not be bounded.
    pub local_bytes: Interval,
    /// Converged result facts, for callers of [`ShapeAnalysis`].
    pub out_shapes: Vec<ShapeFact>,
}

impl FnFootprint {
    /// `true` when every component of the summary is statically bounded.
    pub fn is_bounded(&self) -> bool {
        self.in_bytes.is_some() && self.out_bytes.is_some() && self.local_bytes.is_bounded()
    }
}

/// Forward shape propagation. Facts are seeded from static result types
/// (the common case in this IR), joined through elementwise/unknown ops
/// operand-wise for unshaped result types, carried across `loop.for`
/// region boundaries, and resolved through `func.call` via the summary
/// table handed to the constructor.
pub struct ShapeAnalysis<'s> {
    summaries: &'s BTreeMap<String, FnFootprint>,
}

impl<'s> ShapeAnalysis<'s> {
    /// An analysis resolving `func.call` against `summaries` (pass an empty
    /// map for intraprocedural use).
    pub fn new(summaries: &'s BTreeMap<String, FnFootprint>) -> ShapeAnalysis<'s> {
        ShapeAnalysis { summaries }
    }
}

fn fact_of(state: &ShapeState, v: Value) -> ShapeFact {
    state.get(&v).cloned().unwrap_or(ShapeFact::Bottom)
}

impl Analysis for ShapeAnalysis<'_> {
    type State = ShapeState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, func: &Func) -> Self::State {
        let mut state = BTreeMap::new();
        if let Some(entry) = func.body.entry() {
            for arg in &entry.args {
                state.insert(*arg, ShapeFact::of_type(func.value_type(*arg)));
            }
        }
        state
    }

    fn transfer(&self, func: &Func, op: &Op, state: &mut Self::State) {
        if op.name == "func.call" {
            let callee = op.attr("callee").and_then(Attr::as_str);
            let shapes = callee.and_then(|c| self.summaries.get(c)).map(|s| &s.out_shapes);
            for (i, r) in op.results.iter().enumerate() {
                let fact = match shapes.and_then(|s| s.get(i)) {
                    Some(fact) => fact.clone(),
                    None => ShapeFact::Top,
                };
                state.entry(*r).or_insert(ShapeFact::Bottom).join(&fact);
            }
            return;
        }
        for r in &op.results {
            let ty = func.value_type(*r);
            let fact = match ShapeFact::of_type(ty) {
                // Unshaped, unsized result (stream/token): inherit the hull
                // of the operands so shapes survive dataflow plumbing.
                ShapeFact::Top if ty.byte_size().is_none() => {
                    let mut hull = ShapeFact::Bottom;
                    for o in &op.operands {
                        hull.join(&fact_of(state, *o));
                    }
                    if hull == ShapeFact::Bottom {
                        ShapeFact::Top
                    } else {
                        hull
                    }
                }
                fact => fact,
            };
            state.entry(*r).or_insert(ShapeFact::Bottom).join(&fact);
        }
    }

    fn enter_region(
        &self,
        func: &Func,
        op: &Op,
        _region_index: usize,
        entry: &Block,
        state: &mut Self::State,
    ) {
        // A `loop.for` also binds its induction variable, to its type.
        if let Ok(l) = ForLoop::of(op) {
            state.insert(l.iv, ShapeFact::of_type(func.value_type(l.iv)));
        }
        bind_region_args(op, entry, state);
    }

    fn exit_region(
        &self,
        _func: &Func,
        op: &Op,
        region_index: usize,
        exit: &Self::State,
        state: &mut Self::State,
    ) {
        bind_region_results(op, region_index, exit, state);
    }
}

/// Static trip count of a `loop.for` op, as an interval: a point when the
/// loop decodes and runs at most `i64::MAX` times, `TOP` otherwise.
fn trip_count(op: &Op) -> Interval {
    match ForLoop::of(op).map(|l| i64::try_from(l.trips())) {
        Ok(Ok(trips)) => Interval::point(trips),
        _ => Interval::TOP,
    }
}

/// Structural post-pass: sums `mem.alloc` sizes (and callee local+result
/// bytes at `func.call` sites), each scaled by the product of enclosing
/// loop trip counts. A deliberate over-approximation — allocations are
/// never assumed to be reused across iterations.
fn local_bytes(
    block: &Block,
    func: &Func,
    mult: Interval,
    summaries: &BTreeMap<String, FnFootprint>,
) -> Interval {
    let mut total = Interval::point(0);
    for op in &block.ops {
        if op.name == "mem.alloc" {
            let size = op
                .results
                .first()
                .and_then(|r| func.value_type(*r).byte_size())
                .map(|b| Interval::point(b as i64))
                .unwrap_or(Interval::TOP);
            total = total + size * mult;
        } else if op.name == "func.call" {
            let callee = op.attr("callee").and_then(Attr::as_str);
            let callee_bytes = match callee.and_then(|c| summaries.get(c)) {
                Some(s) => {
                    s.local_bytes
                        + s.out_bytes.map(|b| Interval::point(b as i64)).unwrap_or(Interval::TOP)
                }
                None => Interval::TOP,
            };
            total = total + callee_bytes * mult;
        }
        for region in &op.regions {
            let inner_mult = if op.name == "loop.for" { mult * trip_count(op) } else { mult };
            for b in &region.blocks {
                total = total + local_bytes(b, func, inner_mult, summaries);
            }
        }
    }
    total
}

/// Computes one function's [`FnFootprint`] given summaries for its callees.
pub fn fn_footprint(func: &Func, summaries: &BTreeMap<String, FnFootprint>) -> FnFootprint {
    let in_bytes = func.params.iter().try_fold(0u64, |acc, t| Some(acc + t.byte_size()? as u64));

    // Result facts: the converged shapes of `func.return` operands, falling
    // back to the declared result type when the analysis lost precision.
    let mut out_shapes: Vec<ShapeFact> = func.results.iter().map(ShapeFact::of_type).collect();
    analyze(func, &ShapeAnalysis::new(summaries), |_, op, before| {
        if op.name != "func.return" {
            return;
        }
        for (slot, operand) in out_shapes.iter_mut().zip(&op.operands) {
            let fact = fact_of(before, *operand);
            if fact.max_bytes().is_some() {
                *slot = fact;
            }
        }
    });
    let out_bytes = out_shapes.iter().try_fold(0u64, |acc, f| Some(acc + f.max_bytes()?));

    let mut locals = Interval::point(0);
    for block in &func.body.blocks {
        locals = locals + local_bytes(block, func, Interval::point(1), summaries);
    }
    FnFootprint { in_bytes, out_bytes, local_bytes: locals, out_shapes }
}

/// Summarizes every function of `module` once, callees before callers, so
/// summaries flow through `func.call` regardless of declaration order.
/// Results are keyed by name in a sorted map.
pub fn module_footprints(module: &Module) -> BTreeMap<String, FnFootprint> {
    let mut span = everest_telemetry::span("ir.footprint", "ir");
    let mut summaries: BTreeMap<String, FnFootprint> = BTreeMap::new();
    for func in module.callees_first().0 {
        let summary = fn_footprint(func, &summaries);
        summaries.insert(func.name.clone(), summary);
    }
    span.attr("functions", summaries.len());
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::MemSpace;

    #[test]
    fn shape_fact_lattice_basics() {
        let t = Type::tensor(Type::F64, &[4, 8]);
        let fact = ShapeFact::of_type(&t);
        assert_eq!(fact.max_bytes(), Some(4 * 8 * 8));
        let mut j = fact.clone();
        assert!(!j.join(&ShapeFact::Bottom));
        assert!(!j.join(&fact.clone()));
        // Rank mismatch widens to top.
        let other = ShapeFact::of_type(&Type::tensor(Type::F64, &[4]));
        assert!(j.join(&other));
        assert_eq!(j, ShapeFact::Top);
        assert_eq!(ShapeFact::Top.max_bytes(), None);
        // Equal rank joins pointwise.
        let mut a = ShapeFact::of_type(&Type::tensor(Type::F32, &[2, 3]));
        let b = ShapeFact::of_type(&Type::tensor(Type::F32, &[5, 3]));
        assert!(a.join(&b));
        assert_eq!(a.max_bytes(), Some(5 * 3 * 4));
    }

    #[test]
    fn footprint_of_a_simple_kernel() {
        let a = Type::tensor(Type::F64, &[16, 16]);
        let mut fb = FuncBuilder::new("gemm", &[a.clone(), a.clone()], std::slice::from_ref(&a));
        let prod = fb.binary("tensor.matmul", fb.arg(0), fb.arg(1), a);
        fb.ret(&[prod]);
        let fp = fn_footprint(&fb.finish(), &BTreeMap::new());
        assert_eq!(fp.in_bytes, Some(2 * 16 * 16 * 8));
        assert_eq!(fp.out_bytes, Some(16 * 16 * 8));
        assert_eq!(fp.local_bytes, Interval::point(0));
        assert!(fp.is_bounded());
    }

    #[test]
    fn allocs_scale_with_loop_trip_counts() {
        let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let _buf = fb.op1(Op::new("mem.alloc"), buf_ty.clone());
            vec![c[0]]
        });
        fb.ret(&[out[0]]);
        let fp = fn_footprint(&fb.finish(), &BTreeMap::new());
        // 4 iterations x 8 f64 = 256 bytes, never assumed reused.
        assert_eq!(fp.local_bytes, Interval::point(4 * 8 * 8));
    }

    #[test]
    fn call_sites_use_callee_summaries_interprocedurally() {
        let t = Type::tensor(Type::F64, &[32]);
        let mut module = Module::new("m");
        // Caller first: the summary for `leaf` only exists on pass 2.
        let mut fb = FuncBuilder::new("root", std::slice::from_ref(&t), std::slice::from_ref(&t));
        let mut call = Op::new("func.call").with_attr("callee", "leaf");
        call.operands = vec![fb.arg(0)];
        let out = fb.op1(call, t.clone());
        fb.ret(&[out]);
        module.push(fb.finish());
        let mut fb = FuncBuilder::new("leaf", std::slice::from_ref(&t), std::slice::from_ref(&t));
        let buf =
            fb.op1(Op::new("mem.alloc"), Type::memref(Type::F64, &[16], MemSpace::Scratchpad));
        let _ = buf;
        let neg = fb.unary("arith.negf", fb.arg(0), t.clone());
        fb.ret(&[neg]);
        module.push(fb.finish());

        let summaries = module_footprints(&module);
        let leaf = &summaries["leaf"];
        assert_eq!(leaf.local_bytes, Interval::point(16 * 8));
        let root = &summaries["root"];
        assert_eq!(root.out_bytes, Some(32 * 8));
        // Caller accounts the callee's locals and result buffer.
        assert_eq!(root.local_bytes, Interval::point(16 * 8 + 32 * 8));
    }

    #[test]
    fn unbounded_loop_makes_locals_top() {
        let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let _buf = fb.op1(Op::new("mem.alloc"), buf_ty.clone());
            vec![c[0]]
        });
        fb.ret(&[out[0]]);
        let mut func = fb.finish();
        // Strip the loop bounds: the trip count is now unknown.
        func.body.blocks.first_mut().unwrap().ops[1].attrs.remove("hi");
        let fp = fn_footprint(&func, &BTreeMap::new());
        assert!(!fp.local_bytes.is_bounded());
        assert!(!fp.is_bounded());
    }

    #[test]
    fn loop_carried_shapes_survive_the_back_edge() {
        let t = Type::tensor(Type::F64, &[8, 8]);
        let mut fb =
            FuncBuilder::new("iterate", std::slice::from_ref(&t), std::slice::from_ref(&t));
        let out = fb.for_loop(0, 10, 1, &[fb.arg(0)], |fb, _iv, c| {
            vec![fb.unary("arith.negf", c[0], Type::tensor(Type::F64, &[8, 8]))]
        });
        fb.ret(&[out[0]]);
        let fp = fn_footprint(&fb.finish(), &BTreeMap::new());
        assert_eq!(fp.out_bytes, Some(8 * 8 * 8));
        assert_eq!(fp.out_shapes.len(), 1);
        assert_eq!(fp.out_shapes[0].max_bytes(), Some(512));
    }
}
