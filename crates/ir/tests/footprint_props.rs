//! Property tests for the shape/footprint lattice behind the fusion
//! legality analysis: [`ShapeFact`] obeys the semilattice laws, its byte
//! bound is monotone in the lattice order, and the shape analysis reaches
//! the same fixpoint regardless of worklist seeding order on random CFGs
//! — mirroring `dataflow_props.rs` for the interval engine.

use everest_ir::footprint::{ShapeAnalysis, ShapeFact};
use everest_ir::{
    analyze, analyze_ordered, fn_footprint, Block, BlockId, Func, FuncBuilder, Interval, Lattice,
    Op, Site, Type,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `a ⊑ b` in the shape lattice: joining `b` into `a` yields exactly `b`.
fn leq(a: &ShapeFact, b: &ShapeFact) -> bool {
    let mut j = a.clone();
    j.join(b);
    j == *b
}

/// A random shape fact: bottom, top, or 0–3 bounded interval dims with a
/// 4- or 8-byte element.
fn shape_fact() -> impl Strategy<Value = ShapeFact> {
    let dims = || {
        (prop::collection::vec((0i64..32, 0i64..32), 0..4), prop_oneof![Just(4u64), Just(8u64)])
            .prop_map(|(pairs, elem_bytes)| ShapeFact::Dims {
                dims: pairs.into_iter().map(|(a, b)| Interval::range(a.min(b), a.max(b))).collect(),
                elem_bytes,
            })
    };
    prop_oneof![Just(ShapeFact::Bottom), Just(ShapeFact::Top), dims(), dims(), dims(), dims(),]
}

/// Builds an `n`-block CFG shaped by `picks` (same scheme as
/// `dataflow_props::random_cfg`), where every block defines a tensor value
/// through a `mark` op feeding on the previous block's value — so shape
/// facts actually flow across the random edges.
fn random_shaped_cfg(n: usize, picks: &[(usize, usize)], ranks: &[usize]) -> Func {
    let mut func = Func::new("f", &[], &[]);
    for i in 1..n {
        func.body.blocks.push(Block::new(BlockId(i as u32)));
    }
    let mut prev: Option<everest_ir::Value> = None;
    for i in 0..n {
        let dim = 2 + ranks[i % ranks.len()] % 7;
        let v = func.new_value(Type::tensor(Type::F64, &[dim, dim]));
        let mut mark = Op::new(format!("mark.b{i}"));
        if let Some(p) = prev {
            mark.operands = vec![p];
        }
        mark.results = vec![v];
        prev = Some(v);
        let mut ops = vec![mark];
        if i + 1 < n {
            let (p1, p2) = picks[i % picks.len()];
            let forward = i + 1 + p1 % (n - 1 - i);
            let anywhere = p2 % n;
            ops.push(
                Op::new("cf.cond_br")
                    .with_attr("true_dest", forward as i64)
                    .with_attr("false_dest", anywhere as i64),
            );
        } else {
            ops.push(Op::new("func.return"));
        }
        func.body.blocks[i].ops = ops;
    }
    func
}

type ShapeState = BTreeMap<everest_ir::Value, ShapeFact>;

/// Collects the visited ops of a solution as comparable (path, op, state)
/// triples.
fn shape(solve: impl FnOnce(&mut dyn FnMut(&Site<'_>, &Op, &ShapeState))) -> Triples {
    let mut triples = Vec::new();
    solve(&mut |site, op, state| {
        triples.push((site.to_string(), op.name.clone(), format!("{state:?}")));
    });
    triples
}

type Triples = Vec<(String, String, String)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shape_join_is_a_semilattice(
        a in shape_fact(),
        b in shape_fact(),
        c in shape_fact(),
    ) {
        // Idempotent, commutative, associative; join is an upper bound.
        let mut aa = a.clone();
        aa.join(&a);
        prop_assert_eq!(&aa, &a);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut a_bc = a.clone();
        a_bc.join(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert!(leq(&a, &ab) && leq(&b, &ab));
        // Bottom is the identity; everything is below top.
        let mut bot = ShapeFact::Bottom;
        bot.join(&a);
        prop_assert_eq!(&bot, &a);
        prop_assert!(leq(&a, &ShapeFact::Top));
    }

    #[test]
    fn byte_bound_is_monotone_in_the_lattice_order(
        a in shape_fact(),
        grow in shape_fact(),
    ) {
        // Widening a fact can only widen (or unbound) its byte bound: the
        // transfer functions built on max_bytes stay monotone.
        let mut b = a.clone();
        b.join(&grow);
        prop_assert!(leq(&a, &b));
        if let (Some(ab), Some(bb)) = (a.max_bytes(), b.max_bytes()) {
            prop_assert!(ab <= bb, "{a:?} ⊑ {b:?} but {ab} > {bb}");
        }
        // And whenever the wider fact is bounded, so is the narrower one
        // (except bottom, which has no bytes at all).
        if b.max_bytes().is_some() && a != ShapeFact::Bottom {
            prop_assert!(a.max_bytes().is_some());
        }
    }

    #[test]
    fn shape_fixpoint_is_independent_of_worklist_order(
        n in 2usize..7,
        picks in prop::collection::vec((any::<usize>(), any::<usize>()), 6),
        ranks in prop::collection::vec(any::<usize>(), 6),
        keys in prop::collection::vec(any::<u64>(), 7),
    ) {
        let func = random_shaped_cfg(n, &picks, &ranks);
        let summaries = BTreeMap::new();
        let analysis = ShapeAnalysis::new(&summaries);
        let reference = shape(|visit| analyze(&func, &analysis, visit));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| keys[*i]);
        let shuffled = shape(|visit| analyze_ordered(&func, &analysis, &order, visit));
        prop_assert_eq!(reference, shuffled);
    }

    #[test]
    fn footprints_of_straightline_kernels_are_exact(
        rows in 1usize..32,
        cols in 1usize..32,
        trip in 1i64..16,
    ) {
        // in/out bytes follow directly from the types; locals scale with
        // the loop trip count — for any random size.
        let t = Type::tensor(Type::F64, &[rows, cols]);
        let buf = Type::memref(Type::F64, &[cols], everest_ir::types::MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("k", std::slice::from_ref(&t), std::slice::from_ref(&t));
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, trip, 1, &[init], |fb, _iv, c| {
            let _scratch = fb.op1(Op::new("mem.alloc"), buf.clone());
            vec![c[0]]
        });
        let _ = out;
        fb.ret(&[fb.arg(0)]);
        let fp = fn_footprint(&fb.finish(), &BTreeMap::new());
        let tensor_bytes = (rows * cols * 8) as u64;
        prop_assert_eq!(fp.in_bytes, Some(tensor_bytes));
        prop_assert_eq!(fp.out_bytes, Some(tensor_bytes));
        prop_assert_eq!(fp.local_bytes, Interval::point(trip * (cols as i64) * 8));
        prop_assert!(fp.is_bounded());
    }
}
