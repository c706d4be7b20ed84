//! Property tests for the dataflow engine: the interval lattice obeys the
//! lattice laws, its arithmetic transfer functions are monotone and sound,
//! and converged fixpoints are independent of worklist seeding order. A
//! companion golden suite pins the rendered text of one diagnostic per
//! lint code.

use everest_ir::types::MemSpace;
use everest_ir::{
    analyze, analyze_ordered, check_func, Analysis, Block, BlockId, Direction, Func, FuncBuilder,
    Interval, Lattice, Op, Site, Type,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// `a ⊑ b` in the interval lattice: joining `b` into `a` changes nothing
/// beyond `b` itself.
fn leq(a: Interval, b: Interval) -> bool {
    let mut j = a;
    j.join(&b);
    j == b
}

fn interval(pair: (i64, i64)) -> Interval {
    Interval::range(pair.0.min(pair.1), pair.0.max(pair.1))
}

/// Forward may-analysis collecting the names of ops on some path to the
/// program point — the simplest monotone set analysis.
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

/// Builds an `n`-block CFG whose shape is driven by `picks`: block `i`
/// holds a unique marker op and a `cf.cond_br` with one forward edge and
/// one arbitrary edge (which may point backward, forming loops); the last
/// block returns.
fn random_cfg(n: usize, picks: &[(usize, usize)]) -> Func {
    let mut func = Func::new("f", &[], &[]);
    for i in 1..n {
        func.body.blocks.push(Block::new(BlockId(i as u32)));
    }
    for i in 0..n {
        let mut ops = vec![Op::new(format!("mark.b{i}"))];
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

/// Collects the visited ops of a solution as comparable (path, op name,
/// state) triples.
fn shape(solve: impl FnOnce(&mut dyn FnMut(&Site<'_>, &Op, &BTreeSet<String>))) -> Triples {
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
    fn interval_join_is_a_semilattice(
        a in (-100i64..100, -100i64..100),
        b in (-100i64..100, -100i64..100),
        c in (-100i64..100, -100i64..100),
    ) {
        let (a, b, c) = (interval(a), interval(b), interval(c));
        // Idempotent, commutative, associative; join is an upper bound.
        let mut aa = a;
        aa.join(&a);
        prop_assert_eq!(aa, a);
        let mut ab = a;
        ab.join(&b);
        let mut ba = b;
        ba.join(&a);
        prop_assert_eq!(ab, ba);
        let mut ab_c = ab;
        ab_c.join(&c);
        let mut bc = b;
        bc.join(&c);
        let mut a_bc = a;
        a_bc.join(&bc);
        prop_assert_eq!(ab_c, a_bc);
        prop_assert!(leq(a, ab) && leq(b, ab));
        // Joining bottom is the identity; everything is below top.
        let mut bot = Interval::BOTTOM;
        bot.join(&a);
        prop_assert_eq!(bot, a);
        prop_assert!(leq(a, Interval::TOP));
    }

    #[test]
    fn interval_arithmetic_is_monotone_and_sound(
        a in (-50i64..50, -50i64..50),
        b in (-50i64..50, -50i64..50),
        grow_a in (-50i64..50, -50i64..50),
        grow_b in (-50i64..50, -50i64..50),
        x in 0f64..1.0,
        y in 0f64..1.0,
    ) {
        let (a, b) = (interval(a), interval(b));
        let mut a2 = a;
        a2.join(&interval(grow_a));
        let mut b2 = b;
        b2.join(&interval(grow_b));
        type AbstractOp = fn(Interval, Interval) -> Interval;
        type ConcreteOp = fn(i64, i64) -> i64;
        let ops: [(AbstractOp, ConcreteOp); 3] = [
            (|a, b| a + b, |x, y| x + y),
            (|a, b| a - b, |x, y| x - y),
            (|a, b| a * b, |x, y| x * y),
        ];
        for (abs, conc) in ops {
            // Monotone: wider inputs can only widen the output.
            prop_assert!(leq(abs(a, b), abs(a2, b2)));
            // Sound: concrete points stay inside the abstract result.
            let cx = a.lo + ((x * (a.hi - a.lo) as f64) as i64);
            let cy = b.lo + ((y * (b.hi - b.lo) as f64) as i64);
            prop_assert!(
                abs(a, b).contains(conc(cx, cy)),
                "{:?} op {:?} = {:?} missing {}", a, b, abs(a, b), conc(cx, cy)
            );
        }
    }

    #[test]
    fn fixpoint_is_independent_of_worklist_order(
        n in 2usize..7,
        picks in prop::collection::vec((any::<usize>(), any::<usize>()), 6),
        keys in prop::collection::vec(any::<u64>(), 7),
    ) {
        let func = random_cfg(n, &picks);
        let reference = shape(|visit| analyze(&func, &SeenOps, visit));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|i| keys[*i]);
        let shuffled = shape(|visit| analyze_ordered(&func, &SeenOps, &order, visit));
        prop_assert_eq!(reference, shuffled);
    }
}

// ---------------------------------------------------------------------------
// Golden diagnostics: one pinned rendering per lint code, so the exact
// text `everestc check` prints is part of the contract.

fn rendered(func: &Func, code: &str) -> String {
    let diags = check_func(func);
    let hit = diags.iter().find(|d| d.code == code);
    hit.unwrap_or_else(|| panic!("no {code} diagnostic in {diags:?}")).render()
}

#[test]
fn golden_dead_store() {
    let mut fb = FuncBuilder::new("stale", &[Type::F32], &[Type::F32]);
    let buf = fb.op1(Op::new("mem.alloc"), Type::memref(Type::F32, &[4], MemSpace::Scratchpad));
    let i = fb.const_i(0, Type::Index);
    fb.store(fb.arg(0), buf, &[i]);
    fb.ret(&[fb.arg(0)]);
    assert_eq!(
        rendered(&fb.finish(), "dead-store"),
        "warning[dead-store] @stale at ^bb0 op 2: store to %1 is never read\n    \
         mem.store %0, %1, %2"
    );
}

#[test]
fn golden_unused_result() {
    let mut fb = FuncBuilder::new("wasted", &[Type::F64], &[Type::F64]);
    let _dead = fb.binary("arith.mulf", fb.arg(0), fb.arg(0), Type::F64);
    fb.ret(&[fb.arg(0)]);
    assert_eq!(
        rendered(&fb.finish(), "unused-result"),
        "warning[unused-result] @wasted at ^bb0 op 0: result %1 of pure op arith.mulf is never \
         used\n    %1 = arith.mulf %0, %0"
    );
}

#[test]
fn golden_range_oob() {
    let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
    let mut fb = FuncBuilder::new("overrun", &[buf_ty], &[Type::F64]);
    let init = fb.const_f(0.0, Type::F64);
    let out = fb.for_loop(0, 12, 1, &[init], |fb, iv, c| {
        let x = fb.load(fb.arg(0), &[iv], Type::F64);
        vec![fb.binary("arith.addf", c[0], x, Type::F64)]
    });
    fb.ret(&[out[0]]);
    assert_eq!(
        rendered(&fb.finish(), "range-oob"),
        "error[range-oob] @overrun at ^bb0 op 1 / ^bb1 op 0: index %2 ranges over [0, 11] but \
         dimension 0 of %0 has size 8\n    %4 = mem.load %0, %2"
    );
}

#[test]
fn golden_taint_flow() {
    let mut fb = FuncBuilder::new("leak", &[Type::F64], &[]);
    let mut taint = Op::new("secure.taint").with_attr("label", "patient-data");
    taint.operands = vec![fb.arg(0)];
    let secret = fb.op1(taint, Type::F64);
    let mut sink = Op::new("df.sink").with_attr("kind", "out");
    sink.operands = vec![secret];
    fb.push_op(sink);
    fb.ret(&[]);
    assert_eq!(
        rendered(&fb.finish(), "taint-flow"),
        "error[taint-flow] @leak at ^bb0 op 1: value %1 carrying secret label patient-data \
         reaches unprotected sink df.sink\n    df.sink %1 {kind = \"out\"}"
    );
}
