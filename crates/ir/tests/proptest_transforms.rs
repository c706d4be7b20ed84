//! Property test: the canonicalization pipeline preserves a function's
//! observable semantics, checked with the reference interpreter.

use everest_ir::interp::{Interp, RtValue};
use everest_ir::pass::PassManager;
use everest_ir::{FuncBuilder, Module, Type, Value};
use proptest::prelude::*;

/// Builds a function with a loop whose body is a random arithmetic chain
/// over the induction variable and carried accumulator. A unary pick
/// applies to the right-hand side and adds the outcome to the accumulator,
/// so on a constant it folds (to a NaN, for the root of a negative one).
fn random_loop_func(lo: i64, trips: i64, picks: &[(u8, bool)]) -> everest_ir::Func {
    let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
    let init = fb.arg(0);
    let picks = picks.to_vec();
    let out = fb.for_loop(lo, lo + trips, 1, &[init], move |fb, iv, c| {
        let ivf = fb.unary("arith.sitofp", iv, Type::F64);
        let mut acc: Value = c[0];
        for (kind, use_iv) in &picks {
            let rhs =
                if *use_iv { ivf } else { fb.const_f(f64::from(*kind) * 0.25 - 32.0, Type::F64) };
            acc = match kind % 7 {
                0 => fb.binary("arith.addf", acc, rhs, Type::F64),
                1 => fb.binary("arith.subf", acc, rhs, Type::F64),
                2 => fb.binary("arith.mulf", acc, rhs, Type::F64),
                3 => fb.binary("arith.maxf", acc, rhs, Type::F64),
                unary => {
                    let name = ["arith.negf", "arith.sqrtf", "arith.expf"][usize::from(unary - 4)];
                    let v = fb.unary(name, rhs, Type::F64);
                    fb.binary("arith.addf", acc, v, Type::F64)
                }
            };
        }
        vec![acc]
    });
    fb.ret(&[out[0]]);
    fb.finish()
}

/// The bits of each float `func` returns on `x` (a NaN is equal to itself).
fn eval(func: &everest_ir::Func, x: f64) -> Vec<u64> {
    let out = Interp::new().call(func, &[RtValue::Float(x)]).expect("interprets");
    out.iter()
        .map(|v| match v {
            RtValue::Float(f) => f.to_bits(),
            other => panic!("a float function returned {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn canonicalize_preserves_semantics(
        lo in 0i64..3,
        trips in 1i64..6,
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 1..6),
        x in -5.0f64..5.0,
    ) {
        let f = random_loop_func(lo, trips, &picks);
        let before = eval(&f, x);
        let mut m = Module::new("m");
        m.push(f);
        PassManager::standard().run(&mut m).expect("passes run");
        m.verify().expect("canonical module verifies");
        let after = eval(m.func("f").unwrap(), x);
        prop_assert_eq!(before, after);
    }
}
