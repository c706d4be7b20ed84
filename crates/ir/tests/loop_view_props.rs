//! Property tests: the readers of a `loop.for` — the interpreter, the
//! range lint and the footprint analysis — agree with [`ForLoop`] on how
//! often a loop runs and which induction values it takes, for steps other
//! than 1 and for bounds anywhere in `i64`.

use everest_ir::interp::{Interp, RtValue};
use everest_ir::types::MemSpace;
use everest_ir::{check_func, fn_footprint, ForLoop, Func, FuncBuilder, Interval, Op, Type};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The first `loop.for` of `func`'s entry block.
fn first_loop(func: &Func) -> &Op {
    func.body.entry().unwrap().ops.iter().find(|op| op.name == "loop.for").unwrap()
}

/// A loop that counts its iterations and sums its induction values in two
/// carried `index` values, and returns both.
fn counting_loop(lo: i64, hi: i64, step: i64) -> Func {
    let mut fb = FuncBuilder::new("count", &[], &[Type::Index, Type::Index]);
    let zero = fb.const_i(0, Type::Index);
    let one = fb.const_i(1, Type::Index);
    let out = fb.for_loop(lo, hi, step, &[zero, zero], |fb, iv, c| {
        let n = fb.binary("arith.addi", c[0], one, Type::Index);
        vec![n, fb.binary("arith.addi", c[1], iv, Type::Index)]
    });
    fb.ret(&out);
    fb.finish()
}

/// A loop that allocates one `f64` per iteration and loads from an empty
/// buffer at its induction variable, so the range lint reports the
/// induction range of every loop that runs, and the footprint analysis
/// scales the allocation by the trip count.
fn probe_loop(lo: i64, hi: i64, step: i64) -> Func {
    let empty = Type::memref(Type::F64, &[0], MemSpace::Scratchpad);
    let mut fb = FuncBuilder::new("probe", &[empty], &[]);
    let buf = fb.arg(0);
    fb.for_loop(lo, hi, step, &[], |fb, iv, _| {
        fb.op1(Op::new("mem.alloc"), Type::memref(Type::F64, &[1], MemSpace::Scratchpad));
        let x = fb.load(buf, &[iv], Type::F64);
        fb.store(x, buf, &[iv]);
        vec![]
    });
    fb.ret(&[]);
    fb.finish()
}

/// The induction range the range lint reports for `probe_loop`, if any.
fn linted_range(func: &Func) -> Option<String> {
    let diag = check_func(func).into_iter().find(|d| d.code == "range-oob")?;
    let (_, rest) = diag.message.split_once("ranges over ")?;
    Some(rest[..=rest.find(']')?].to_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_reader_agrees_on_small_strided_loops(
        lo in -20i64..20,
        hi in -20i64..40,
        step in 1i64..5,
    ) {
        let values: Vec<i64> = (lo..hi).step_by(step as usize).collect();
        let counting = counting_loop(lo, hi, step);
        let l = ForLoop::of(first_loop(&counting)).expect("decodes");
        prop_assert_eq!(l.trips(), values.len() as u64);

        let out = Interp::new().call(&counting, &[]).expect("interprets");
        let sum = values.iter().sum::<i64>();
        prop_assert_eq!(out, vec![RtValue::Int(values.len() as i64), RtValue::Int(sum)]);

        let probe = probe_loop(lo, hi, step);
        let expected = values.last().map(|last| format!("[{lo}, {last}]"));
        prop_assert_eq!(linted_range(&probe), expected);
        let fp = fn_footprint(&probe, &BTreeMap::new());
        prop_assert_eq!(fp.local_bytes, Interval::point(8 * values.len() as i64));
    }

    #[test]
    fn any_bounds_decode_without_overflow(
        lo in prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -3i64..3],
        hi in prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -3i64..3],
        step in prop_oneof![any::<i64>(), 1i64..=i64::MAX, Just(i64::MAX), 1i64..4],
    ) {
        let probe = probe_loop(lo, hi, step);
        let decoded = ForLoop::of(first_loop(&probe));
        if step <= 0 {
            prop_assert!(decoded.is_err());
            return Ok(());
        }
        let trips = i128::from(decoded.expect("decodes").trips());
        let (lo, hi, step) = (i128::from(lo), i128::from(hi), i128::from(step));
        let span = hi - lo;
        let brute = if span <= 0 { 0 } else { span / step + i128::from(span % step != 0) };
        prop_assert_eq!(trips, brute);
        if trips > 0 {
            let last = lo + (trips - 1) * step;
            prop_assert!(last < hi && hi <= last + step);
            // The lint reports every bounded range; one starting at
            // `i64::MIN` is not bounded.
            let expected = (lo > i128::from(i64::MIN)).then(|| format!("[{lo}, {last}]"));
            prop_assert_eq!(linted_range(&probe), expected);
        } else {
            prop_assert_eq!(linted_range(&probe), None);
        }
    }
}
