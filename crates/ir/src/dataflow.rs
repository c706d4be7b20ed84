//! A generic lattice-based dataflow fixpoint engine.
//!
//! Analyses implement [`Analysis`]: a join-semilattice state ([`Lattice`]),
//! a [`Direction`], and a monotone per-op transfer function. The engine
//! runs a block-level worklist over each region's control-flow graph
//! (`cf.br`/`cf.cond_br` edges), iterates structured nested regions
//! (`loop.for` bodies, `df.graph` graphs) to a local fixpoint through the
//! exit→entry back edge, and finally replays the converged solution in
//! program order, reporting the state *entering* every op (in the analysis
//! direction) so lints can inspect per-op facts.
//!
//! The worklist order is a parameter ([`analyze_ordered`]); for monotone
//! transfer functions the fixpoint is order-independent, which the property
//! tests exercise by shuffling the order. Safety caps bound the iteration
//! count so even a non-monotone (buggy) analysis terminates.

use crate::attr::Attr;
use crate::ir::{Block, BlockId, Func, Op, Region};
use std::collections::{BTreeMap, BTreeSet};

/// A join-semilattice: `bottom` is the least element, `join` computes the
/// least upper bound in place and reports whether anything changed.
pub trait Lattice: Clone + PartialEq {
    /// The least element (the solver's initial state everywhere).
    fn bottom() -> Self;
    /// In-place least upper bound; returns `true` if `self` grew.
    fn join(&mut self, other: &Self) -> bool;
}

/// Set lattice: union, ordered by inclusion.
impl<T: Ord + Clone> Lattice for BTreeSet<T> {
    fn bottom() -> Self {
        BTreeSet::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        let before = self.len();
        for item in other {
            if !self.contains(item) {
                self.insert(item.clone());
            }
        }
        self.len() != before
    }
}

/// Map lattice: pointwise join, missing keys are bottom.
impl<K: Ord + Clone, V: Lattice> Lattice for BTreeMap<K, V> {
    fn bottom() -> Self {
        BTreeMap::new()
    }

    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in other {
            match self.get_mut(k) {
                Some(mine) => changed |= mine.join(v),
                None => {
                    self.insert(k.clone(), v.clone());
                    changed = true;
                }
            }
        }
        changed
    }
}

/// A signed-integer interval `[lo, hi]` with an explicit empty (bottom)
/// element; join is the convex hull. `i64::MIN`/`i64::MAX` bounds mean
/// "unbounded" on that side, so [`Interval::TOP`] is `[MIN, MAX]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound (`lo > hi` encodes the empty interval).
    pub hi: i64,
}

impl Interval {
    /// The empty interval (bottom).
    pub const BOTTOM: Interval = Interval { lo: i64::MAX, hi: i64::MIN };
    /// The full range (top).
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The singleton interval `[c, c]`.
    pub fn point(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    /// The interval `[lo, hi]` (empty when `lo > hi`).
    pub fn range(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::BOTTOM
        } else {
            Interval { lo, hi }
        }
    }

    /// `true` for the empty interval.
    pub(crate) fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    /// `true` when both bounds are finite (neither sentinel), i.e. the
    /// analysis actually knows a range.
    pub(crate) fn is_bounded(&self) -> bool {
        !self.is_bottom() && self.lo > i64::MIN && self.hi < i64::MAX
    }

    /// `true` if `v` lies in the interval.
    pub fn contains(&self, v: i64) -> bool {
        !self.is_bottom() && self.lo <= v && v <= self.hi
    }

    fn binop(a: Interval, b: Interval, f: impl Fn(i128, i128) -> i128) -> Interval {
        if a.is_bottom() || b.is_bottom() {
            return Interval::BOTTOM;
        }
        if !a.is_bounded() || !b.is_bounded() {
            return Interval::TOP;
        }
        let corners = [
            f(a.lo as i128, b.lo as i128),
            f(a.lo as i128, b.hi as i128),
            f(a.hi as i128, b.lo as i128),
            f(a.hi as i128, b.hi as i128),
        ];
        let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        Interval {
            lo: clamp(*corners.iter().min().expect("four corners")),
            hi: clamp(*corners.iter().max().expect("four corners")),
        }
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Interval addition.
    fn add(self, rhs: Interval) -> Interval {
        Interval::binop(self, rhs, |x, y| x + y)
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;

    /// Interval subtraction.
    fn sub(self, rhs: Interval) -> Interval {
        Interval::binop(self, rhs, |x, y| x - y)
    }
}

impl std::ops::Mul for Interval {
    type Output = Interval;

    /// Interval multiplication.
    fn mul(self, rhs: Interval) -> Interval {
        Interval::binop(self, rhs, |x, y| x * y)
    }
}

impl Lattice for Interval {
    fn bottom() -> Self {
        Interval::BOTTOM
    }

    fn join(&mut self, other: &Self) -> bool {
        if other.is_bottom() {
            return false;
        }
        if self.is_bottom() {
            *self = *other;
            return true;
        }
        let joined = Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the function entry toward the exits.
    Forward,
    /// Facts flow from the exits toward the entry.
    Backward,
}

/// A dataflow analysis: state lattice, direction and transfer functions.
///
/// `transfer` must be monotone in the state for the fixpoint to be
/// order-independent (the engine still terminates otherwise, thanks to the
/// iteration caps, but the result may depend on the worklist order).
pub trait Analysis {
    /// The abstract state tracked at every program point.
    type State: Lattice;

    /// The direction facts flow.
    fn direction(&self) -> Direction;

    /// The state at the boundary (function entry for forward analyses,
    /// function exit for backward ones). Defaults to bottom.
    fn boundary(&self, _func: &Func) -> Self::State {
        Self::State::bottom()
    }

    /// Applies one op to the state. For forward analyses the state holds
    /// the facts *before* the op and must be updated to the facts after it;
    /// for backward analyses it is the other way around.
    fn transfer(&self, func: &Func, op: &Op, state: &mut Self::State);

    /// Called when control enters a nested region of `op` (e.g. to bind a
    /// `loop.for` induction variable or widen loop-carried block args).
    fn enter_region(
        &self,
        _func: &Func,
        _op: &Op,
        _region_index: usize,
        _entry: &Block,
        _state: &mut Self::State,
    ) {
    }

    /// Called after a nested region of `op` reached its fixpoint, with the
    /// region's exit state, so analyses can map region-terminator operands
    /// onto the op's results (e.g. `loop.yield` values onto `loop.for`
    /// results). The exit state has already been joined into `state`.
    fn exit_region(
        &self,
        _func: &Func,
        _op: &Op,
        _region_index: usize,
        _exit: &Self::State,
        _state: &mut Self::State,
    ) {
    }
}

/// Where a recorded program point sits, as a stable human-readable path
/// (`"^bb0 op 3"`, nested: `"^bb0 op 1 / ^bb1 op 0"`). The same format the
/// verifier uses in its error context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The innermost block.
    pub block: BlockId,
    /// Index of the op within that block.
    pub op_index: usize,
    /// Full nested path.
    pub path: String,
}

/// One entry of the converged solution: the op, its location, and the state
/// entering it in the analysis direction (pre-state for forward analyses,
/// post-state for backward ones).
pub(crate) type SolvedOp<'f, S> = (Site, &'f Op, S);

/// Safety cap on back-edge iterations of one structured region.
const MAX_REGION_PASSES: usize = 64;
/// Safety cap on worklist pops, as a multiple of the block count.
const MAX_POPS_PER_BLOCK: usize = 128;

/// Runs `analysis` over `func` to a fixpoint and returns the per-op
/// incoming states in deterministic program order (reverse program order
/// for backward analyses).
pub fn analyze<'f, A: Analysis>(func: &'f Func, analysis: &A) -> Vec<SolvedOp<'f, A::State>> {
    let order: Vec<usize> = (0..func.body.blocks.len()).collect();
    analyze_ordered(func, analysis, &order)
}

/// Like [`analyze`], but seeds the top-level worklist in the given block
/// order (a permutation of `0..blocks.len()`). Monotone analyses converge
/// to the same solution for every order — the property the tests check.
pub fn analyze_ordered<'f, A: Analysis>(
    func: &'f Func,
    analysis: &A,
    order: &[usize],
) -> Vec<SolvedOp<'f, A::State>> {
    let solver = Solver { func, analysis };
    let input = analysis.boundary(func);
    let (in_states, _exit) = solver.converge(&func.body, &input, order);
    let mut solution = Vec::new();
    for (bi, block) in solver.block_iter(&func.body) {
        let mut state = in_states[bi].clone();
        solver.flow_block(block, "", &mut state, &mut Some(&mut solution));
    }
    solution
}

struct Solver<'f, 'a, A: Analysis> {
    func: &'f Func,
    analysis: &'a A,
}

type Record<'s, 'f, S> = Option<&'s mut Vec<SolvedOp<'f, S>>>;

impl<'f, 'a, A: Analysis> Solver<'f, 'a, A> {
    fn forward(&self) -> bool {
        self.analysis.direction() == Direction::Forward
    }

    /// Blocks of `region` in processing order for the replay pass (layout
    /// order forward, reversed backward).
    fn block_iter<'r>(&self, region: &'r Region) -> Vec<(usize, &'r Block)> {
        let mut v: Vec<(usize, &'r Block)> = region.blocks.iter().enumerate().collect();
        if !self.forward() {
            v.reverse();
        }
        v
    }

    /// CFG successor indices of every block within `region`, resolved from
    /// the terminator's `dest`/`true_dest`/`false_dest` attributes (either
    /// an integer block id or a `"^bbN"` string).
    fn successors(&self, region: &Region) -> Vec<Vec<usize>> {
        let index_of: BTreeMap<u32, usize> =
            region.blocks.iter().enumerate().map(|(i, b)| (b.id.0, i)).collect();
        let resolve = |attr: &Attr| -> Option<usize> {
            let id = match attr {
                Attr::Int(n) => u32::try_from(*n).ok()?,
                Attr::Str(s) => s.strip_prefix("^bb")?.parse().ok()?,
                _ => return None,
            };
            index_of.get(&id).copied()
        };
        region
            .blocks
            .iter()
            .map(|block| {
                let mut succs = Vec::new();
                if let Some(term) = block.terminator() {
                    for key in ["dest", "true_dest", "false_dest"] {
                        if let Some(s) = term.attr(key).and_then(resolve) {
                            if !succs.contains(&s) {
                                succs.push(s);
                            }
                        }
                    }
                }
                succs
            })
            .collect()
    }

    /// Worklist fixpoint over one region's blocks starting from `input`.
    /// Returns the per-block incoming states (entry facts in the analysis
    /// direction) and the region's exit state.
    fn converge(
        &self,
        region: &Region,
        input: &A::State,
        order: &[usize],
    ) -> (Vec<A::State>, A::State) {
        let n = region.blocks.len();
        if n == 0 {
            return (Vec::new(), input.clone());
        }
        let succs = self.successors(region);
        // Edges along which state propagates, and the boundary blocks that
        // receive the region input.
        let (seeds, edges, terminals): (Vec<usize>, Vec<Vec<usize>>, Vec<usize>) = if self.forward()
        {
            let terminals: Vec<usize> = (0..n).filter(|b| succs[*b].is_empty()).collect();
            (vec![0], succs, terminals)
        } else {
            let mut preds = vec![Vec::new(); n];
            for (b, ss) in succs.iter().enumerate() {
                for s in ss {
                    preds[*s].push(b);
                }
            }
            let seeds: Vec<usize> = (0..n).filter(|b| succs[*b].is_empty()).collect();
            (seeds, preds, vec![0])
        };

        let mut in_states: Vec<A::State> = vec![A::State::bottom(); n];
        for s in &seeds {
            in_states[*s].join(input);
        }
        let mut out_states: Vec<A::State> = vec![A::State::bottom(); n];
        // Every block is processed at least once; the pop order follows
        // `order` (a stack seeded in reverse so order[0] pops first).
        let mut worklist: Vec<usize> = order.iter().rev().copied().collect();
        let mut queued = vec![true; n];
        let mut pops = 0usize;
        while let Some(b) = worklist.pop() {
            queued[b] = false;
            pops += 1;
            if pops > n * MAX_POPS_PER_BLOCK {
                break; // safety cap for non-monotone transfers
            }
            let mut state = in_states[b].clone();
            self.flow_block(&region.blocks[b], "", &mut state, &mut None);
            out_states[b] = state;
            for succ in &edges[b] {
                if in_states[*succ].join(&out_states[b]) && !queued[*succ] {
                    queued[*succ] = true;
                    worklist.push(*succ);
                }
            }
        }

        let mut exit = A::State::bottom();
        for t in terminals {
            exit.join(&out_states[t]);
        }
        (in_states, exit)
    }

    /// Applies every op of `block` to `state` in the analysis direction,
    /// recursing into nested regions. When `record` is set, pushes the
    /// incoming state of every op onto the solution.
    fn flow_block(
        &self,
        block: &'f Block,
        prefix: &str,
        state: &mut A::State,
        record: &mut Record<'_, 'f, A::State>,
    ) {
        let indices: Vec<usize> = if self.forward() {
            (0..block.ops.len()).collect()
        } else {
            (0..block.ops.len()).rev().collect()
        };
        for i in indices {
            let op = &block.ops[i];
            let path = format!("{prefix}^bb{} op {i}", block.id.0);
            if let Some(rec) = record.as_deref_mut() {
                rec.push((
                    Site { block: block.id, op_index: i, path: path.clone() },
                    op,
                    state.clone(),
                ));
            }
            for (ri, nested) in op.regions.iter().enumerate() {
                self.flow_nested_region(op, ri, nested, &format!("{path} / "), state, record);
            }
            self.analysis.transfer(self.func, op, state);
        }
    }

    /// Runs a structured nested region to its local fixpoint: the region
    /// input is the current state (plus the `enter_region` hook), and the
    /// exit state feeds back into the input until it stabilizes (bounded),
    /// modelling repeated execution of loop bodies. The final exit state is
    /// joined into the surrounding state.
    fn flow_nested_region(
        &self,
        op: &'f Op,
        region_index: usize,
        region: &'f Region,
        prefix: &str,
        state: &mut A::State,
        record: &mut Record<'_, 'f, A::State>,
    ) {
        if region.blocks.is_empty() {
            return;
        }
        let order: Vec<usize> = (0..region.blocks.len()).collect();
        let enter = |input: &mut A::State| {
            if let Some(entry) = region.entry() {
                self.analysis.enter_region(self.func, op, region_index, entry, input);
            }
        };
        let mut input = state.clone();
        enter(&mut input);
        let mut exit = A::State::bottom();
        for _ in 0..MAX_REGION_PASSES {
            let (_, pass_exit) = self.converge(region, &input, &order);
            exit = pass_exit;
            // Back edge: the next iteration starts from the previous
            // iteration's exit facts (re-applying the entry hook so bound
            // block args stay bound).
            let mut next = input.clone();
            let mut feedback = exit.clone();
            enter(&mut feedback);
            if !next.join(&feedback) {
                break;
            }
            input = next;
        }
        if record.is_some() {
            let (in_states, _) = self.converge(region, &input, &order);
            for (bi, nested_block) in self.block_iter(region) {
                let mut s = in_states[bi].clone();
                self.flow_block(nested_block, prefix, &mut s, record);
            }
        }
        state.join(&exit);
        self.analysis.exit_region(self.func, op, region_index, &exit, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ir::Value;
    use crate::types::Type;

    /// Forward "reaching ops" analysis: collects the names of ops seen on
    /// some path to the program point.
    struct SeenOps;

    impl Analysis for SeenOps {
        type State = BTreeSet<String>;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn transfer(&self, _func: &Func, op: &Op, state: &mut Self::State) {
            state.insert(op.name.clone());
        }
    }

    #[test]
    fn interval_lattice_behaves() {
        let mut a = Interval::point(3);
        assert!(a.join(&Interval::point(7)));
        assert_eq!(a, Interval::range(3, 7));
        assert!(!a.join(&Interval::point(5)));
        assert!(a.contains(5));
        assert!(Interval::BOTTOM.is_bottom());
        assert!(!Interval::TOP.is_bounded());
        assert_eq!(Interval::range(0, 3) + Interval::point(2), Interval::range(2, 5));
        assert_eq!(Interval::range(-2, 3) * Interval::point(-4), Interval::range(-12, 8));
        assert_eq!(Interval::TOP + Interval::point(1), Interval::TOP);
        assert!((Interval::BOTTOM - Interval::point(1)).is_bottom());
    }

    #[test]
    fn map_lattice_joins_pointwise() {
        let mut a: BTreeMap<Value, Interval> = BTreeMap::new();
        a.insert(Value(0), Interval::point(1));
        let mut b = BTreeMap::new();
        b.insert(Value(0), Interval::point(4));
        b.insert(Value(1), Interval::point(9));
        assert!(a.join(&b));
        assert_eq!(a[&Value(0)], Interval::range(1, 4));
        assert_eq!(a[&Value(1)], Interval::point(9));
        assert!(!a.join(&b));
    }

    #[test]
    fn forward_analysis_sees_ops_in_program_order() {
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let x = fb.unary("arith.negf", fb.arg(0), Type::F64);
        fb.ret(&[x]);
        let func = fb.finish();
        let solution = analyze(&func, &SeenOps);
        assert_eq!(solution.len(), 2);
        // Before the negf nothing has executed; before the return it has.
        assert!(solution[0].2.is_empty());
        assert_eq!(solution[0].0.path, "^bb0 op 0");
        assert!(solution[1].2.contains("arith.negf"));
    }

    #[test]
    fn loop_regions_reach_ops_and_feed_back() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let k = fb.const_f(1.0, Type::F64);
            vec![fb.binary("arith.addf", c[0], k, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let func = fb.finish();
        let solution = analyze(&func, &SeenOps);
        // Ops inside the loop body are recorded with nested paths.
        let nested: Vec<&str> = solution
            .iter()
            .filter(|(s, ..)| s.path.contains(" / "))
            .map(|(s, ..)| s.path.as_str())
            .collect();
        assert!(nested.iter().all(|p| p.starts_with("^bb0 op 1 / ^bb1")), "{nested:?}");
        // The loop body sees its own ops through the back edge.
        let (_, _, body_state) =
            solution.iter().find(|(_, op, _)| op.name == "arith.addf").expect("addf recorded");
        assert!(body_state.contains("arith.constant"));
        // After the loop, the return sees the body's ops.
        let (_, _, ret_state) =
            solution.iter().find(|(_, op, _)| op.name == "func.return").expect("return recorded");
        assert!(ret_state.contains("arith.addf"));
        assert!(ret_state.contains("loop.for"));
    }

    #[test]
    fn backward_direction_reverses_flow() {
        /// Backward analysis collecting op names seen on some path to exit.
        struct SeenBelow;
        impl Analysis for SeenBelow {
            type State = BTreeSet<String>;
            fn direction(&self) -> Direction {
                Direction::Backward
            }
            fn transfer(&self, _func: &Func, op: &Op, state: &mut Self::State) {
                state.insert(op.name.clone());
            }
        }
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let x = fb.unary("arith.negf", fb.arg(0), Type::F64);
        fb.ret(&[x]);
        let func = fb.finish();
        let solution = analyze(&func, &SeenBelow);
        // Backward: the negf's incoming state holds what executes after it.
        let (_, _, below) =
            solution.iter().find(|(_, op, _)| op.name == "arith.negf").expect("negf recorded");
        assert!(below.contains("func.return"));
        let (_, _, at_ret) =
            solution.iter().find(|(_, op, _)| op.name == "func.return").expect("ret recorded");
        assert!(at_ret.is_empty());
    }
}
