//! A generic lattice-based dataflow fixpoint engine.
//!
//! Analyses implement [`Analysis`]: a join-semilattice state ([`Lattice`]),
//! a [`Direction`], and a monotone per-op transfer function. The engine
//! runs a block-level worklist over each region's control-flow graph
//! (`cf.br`/`cf.cond_br` edges), iterates structured nested regions
//! (`loop.for` bodies) to a local fixpoint through the exit→entry back
//! edge, and finally replays the converged solution in program order. The
//! replay hands a visitor each op, its [`Site`] and the state *entering*
//! it (in the analysis direction), by reference: the engine records
//! nothing, so a caller that reads one op's state pays for that op alone.
//!
//! The worklist order is a parameter ([`analyze_ordered`]); for monotone
//! transfer functions the fixpoint is order-independent, which the property
//! tests exercise by shuffling the order. Safety caps bound the iteration
//! count so even a non-monotone (buggy) analysis terminates.

use crate::ir::{Block, BlockId, ForLoop, Func, Op, Region, Value, BRANCH_TARGETS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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

/// Where a visited op sits: its block, its index in that block, and the
/// site of the op whose region holds the block. It renders as a stable
/// path (`"^bb0 op 3"`, nested: `"^bb0 op 1 / ^bb1 op 0"`), the format the
/// verifier uses in its error context, and only when something prints it.
#[derive(Debug, Clone, Copy)]
pub struct Site<'p> {
    /// The innermost block.
    pub block: BlockId,
    /// Index of the op within that block.
    pub op_index: usize,
    parent: Option<&'p Site<'p>>,
}

impl fmt::Display for Site<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(parent) = self.parent {
            write!(f, "{parent} / ")?;
        }
        write!(f, "{} op {}", self.block, self.op_index)
    }
}

/// The caller's visitor, when the engine replays a converged solution.
type Visit<'v, 'f, S> = Option<&'v mut (dyn FnMut(&Site<'_>, &Op, &S) + 'f)>;

/// Safety cap on back-edge iterations of one structured region.
const MAX_REGION_PASSES: usize = 64;
/// Safety cap on worklist pops, as a multiple of the block count.
const MAX_POPS_PER_BLOCK: usize = 128;

/// Runs `analysis` over `func` to a fixpoint, then hands `visit` every op
/// with its site and the state entering it in the analysis direction
/// (pre-state forward, post-state backward), in program order (reverse
/// program order backward).
pub fn analyze<A: Analysis>(
    func: &Func,
    analysis: &A,
    visit: impl FnMut(&Site<'_>, &Op, &A::State),
) {
    let order: Vec<usize> = (0..func.body.blocks.len()).collect();
    analyze_ordered(func, analysis, &order, visit);
}

/// Like [`analyze`], but seeds the top-level worklist in the given block
/// order (a permutation of `0..blocks.len()`). Monotone analyses converge
/// to the same solution for every order — the property the tests check.
pub fn analyze_ordered<A: Analysis>(
    func: &Func,
    analysis: &A,
    order: &[usize],
    mut visit: impl FnMut(&Site<'_>, &Op, &A::State),
) {
    let solver = Solver { func, analysis };
    let (in_states, _exit) = solver.converge(&func.body, &analysis.boundary(func), order);
    solver.replay(&func.body, in_states, None, &mut visit);
}

/// Joins each operand's fact into the value a region of `op` binds it to:
/// a `loop.for`'s carried values (after its induction variable), or else
/// the entry block's args, positionally. The shared `enter_region` of the
/// analyses over per-value facts.
pub(crate) fn bind_region_args<V: Lattice>(op: &Op, entry: &Block, state: &mut BTreeMap<Value, V>) {
    let args = ForLoop::of(op).map_or(entry.args.as_slice(), |l| l.carried());
    for (operand, arg) in op.operands.iter().zip(args) {
        if let Some(fact) = state.get(operand).cloned() {
            state.entry(*arg).or_insert_with(V::bottom).join(&fact);
        }
    }
}

/// Joins each `*.yield` operand's fact at a region's exit into the
/// matching result of `op`. The shared `exit_region` of the analyses over
/// per-value facts.
pub(crate) fn bind_region_results<V: Lattice>(
    op: &Op,
    region_index: usize,
    exit: &BTreeMap<Value, V>,
    state: &mut BTreeMap<Value, V>,
) {
    for block in &op.regions[region_index].blocks {
        let Some(term) = block.terminator().filter(|t| t.name.ends_with(".yield")) else {
            continue;
        };
        for (v, r) in term.operands.iter().zip(&op.results) {
            if let Some(fact) = exit.get(v) {
                state.entry(*r).or_insert_with(V::bottom).join(fact);
            }
        }
    }
}

struct Solver<'f, 'a, A: Analysis> {
    func: &'f Func,
    analysis: &'a A,
}

impl<A: Analysis> Solver<'_, '_, A> {
    fn forward(&self) -> bool {
        self.analysis.direction() == Direction::Forward
    }

    /// CFG successor indices of every block within `region`, resolved from
    /// the terminator's `dest`/`true_dest`/`false_dest` attributes (either
    /// an integer block id or a `"^bbN"` string). The verifier rejects a
    /// target that names no block of the region.
    fn successors(&self, region: &Region) -> Vec<Vec<usize>> {
        region
            .blocks
            .iter()
            .map(|block| {
                let mut succs = Vec::new();
                if let Some(term) = block.terminator() {
                    for key in BRANCH_TARGETS {
                        if let Some(s) = term.attr(key).and_then(|a| region.block_index(a)) {
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
            self.flow_block(&region.blocks[b], None, &mut state, None);
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

    /// Flows each block of `region` from its converged incoming state (in
    /// layout order forward, reversed backward), handing every op to
    /// `visit`.
    fn replay(
        &self,
        region: &Region,
        in_states: Vec<A::State>,
        parent: Option<&Site<'_>>,
        visit: &mut dyn FnMut(&Site<'_>, &Op, &A::State),
    ) {
        let mut blocks: Vec<(&Block, A::State)> = region.blocks.iter().zip(in_states).collect();
        if !self.forward() {
            blocks.reverse();
        }
        for (block, mut state) in blocks {
            self.flow_block(block, parent, &mut state, Some(&mut *visit));
        }
    }

    /// Applies every op of `block` to `state` in the analysis direction,
    /// recursing into nested regions. When `visit` is set, hands it the
    /// incoming state of every op.
    fn flow_block(
        &self,
        block: &Block,
        parent: Option<&Site<'_>>,
        state: &mut A::State,
        mut visit: Visit<'_, '_, A::State>,
    ) {
        let n = block.ops.len();
        for k in 0..n {
            let op_index = if self.forward() { k } else { n - 1 - k };
            let op = &block.ops[op_index];
            let site = Site { block: block.id, op_index, parent };
            if let Some(visit) = visit.as_deref_mut() {
                visit(&site, op, state);
            }
            for (ri, nested) in op.regions.iter().enumerate() {
                self.flow_nested_region(op, ri, nested, &site, state, visit.as_deref_mut());
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
        op: &Op,
        region_index: usize,
        region: &Region,
        site: &Site<'_>,
        state: &mut A::State,
        visit: Visit<'_, '_, A::State>,
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
        if let Some(visit) = visit {
            let (in_states, _) = self.converge(region, &input, &order);
            self.replay(region, in_states, Some(site), visit);
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

    /// Every visited op as (path, op name, incoming state).
    fn solve<A: Analysis>(func: &Func, analysis: &A) -> Vec<(String, String, A::State)> {
        let mut solution = Vec::new();
        analyze(func, analysis, |site, op, state| {
            solution.push((site.to_string(), op.name.clone(), state.clone()));
        });
        solution
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
        let solution = solve(&func, &SeenOps);
        assert_eq!(solution.len(), 2);
        // Before the negf nothing has executed; before the return it has.
        assert!(solution[0].2.is_empty());
        assert_eq!(solution[0].0, "^bb0 op 0");
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
        let solution = solve(&func, &SeenOps);
        // Ops inside the loop body are visited with nested paths.
        let nested: Vec<&str> =
            solution.iter().filter(|(s, ..)| s.contains(" / ")).map(|(s, ..)| s.as_str()).collect();
        assert!(nested.iter().all(|p| p.starts_with("^bb0 op 1 / ^bb1")), "{nested:?}");
        // The loop body sees its own ops through the back edge.
        let (_, _, body_state) =
            solution.iter().find(|(_, op, _)| op == "arith.addf").expect("addf visited");
        assert!(body_state.contains("arith.constant"));
        // After the loop, the return sees the body's ops.
        let (_, _, ret_state) =
            solution.iter().find(|(_, op, _)| op == "func.return").expect("return visited");
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
        let solution = solve(&func, &SeenBelow);
        // Backward: the negf's incoming state holds what executes after it.
        let (_, _, below) =
            solution.iter().find(|(_, op, _)| op == "arith.negf").expect("negf visited");
        assert!(below.contains("func.return"));
        let (_, _, at_ret) =
            solution.iter().find(|(_, op, _)| op == "func.return").expect("ret visited");
        assert!(at_ret.is_empty());
    }
}
