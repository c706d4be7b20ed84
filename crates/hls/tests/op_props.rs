//! Generated one-op kernels over every op the interpreter runs, with
//! attributes drawn in and out of range and operand and result types drawn
//! right or wrong. Whenever the verifier accepts a kernel, the interpreter
//! runs it without panicking. A `tensor.*` kernel also synthesizes and
//! agrees with its lowered loop nest; every value a scalar, `mem.*` or
//! `loop.for` kernel returns has the kind its declared type says.

use everest_hls::tensor_to_loops::lower_to_loops;
use everest_hls::{synthesize, HlsConfig};
use everest_ir::interp::{Interp, RtValue};
use everest_ir::types::MemSpace;
use everest_ir::verify::verify_func;
use everest_ir::{Attr, Block, BlockId, Func, FuncBuilder, Op, Region, Type, Value};
use proptest::collection::vec;
use proptest::prelude::*;

const TENSOR_OPS: [&str; 12] = [
    "tensor.fill",
    "tensor.matmul",
    "tensor.add",
    "tensor.sub",
    "tensor.mul",
    "tensor.scale",
    "tensor.transpose",
    "tensor.reduce",
    "tensor.stencil",
    "tensor.conv2d",
    "tensor.relu",
    "tensor.sigmoid",
];

const KINDS: [&str; 5] = ["sum", "max", "min", "mean", "median"];

/// One generated kernel: `op` over tensors of shapes `a` (and `b`), with
/// the list attribute `ints`, returning a `declared` shape.
#[derive(Debug, Clone)]
struct Case {
    op: &'static str,
    a: Vec<usize>,
    b: Vec<usize>,
    ints: Vec<i64>,
    kind: &'static str,
    weights: Vec<f64>,
    value: f64,
    declared: Vec<usize>,
}

/// The shape a reader that trusts its attributes would compute: list
/// entries out of range are skipped, not rejected, so this is often the
/// type of an op that must not verify.
fn naive_shape(op: &str, a: &[usize], b: &[usize], ints: &[i64]) -> Vec<usize> {
    match op {
        "tensor.matmul" => vec![a[0], *b.last().unwrap()],
        "tensor.transpose" => ints
            .iter()
            .map(|p| usize::try_from(*p).ok().and_then(|p| a.get(p)).map_or(1, |d| *d))
            .collect(),
        "tensor.reduce" => {
            (0..a.len()).filter(|d| !ints.contains(&(*d as i64))).map(|d| a[d]).collect()
        }
        _ => a.to_vec(),
    }
}

fn case() -> impl Strategy<Value = Case> {
    (
        (0..TENSOR_OPS.len(), vec(1usize..6, 3), 0usize..5, vec(1usize..6, 1..4), 0u8..4),
        (vec(-1i64..4, 0..4), any::<u64>(), 0..KINDS.len()),
        (vec(-2.0f64..2.0, 0..7), -3.0f64..3.0, 0u8..4, vec(1usize..5, 0..3)),
    )
        .prop_map(
            |(
                (op, dims, rank, b_random, b_mode),
                (ints_random, bits, kind),
                (weights, value, declare, wrong),
            )| {
                let op = TENSOR_OPS[op];
                // Rank 2 half the time: matmul and conv2d need it.
                let a = dims[..[1, 2, 2, 2, 3][rank]].to_vec();
                let b = match b_mode {
                    0 => a.clone(),
                    1 => vec![*a.last().unwrap(), b_random[0]],
                    // The largest odd kernel that fits.
                    2 => a.iter().map(|d| d - (1 - d % 2)).collect(),
                    _ => b_random,
                };
                // A quarter each: a random list, a permutation of the
                // dimensions, a subset of them, and a subset with its first
                // entry repeated.
                let rank = a.len() as i64;
                let mut subset: Vec<i64> = (0..rank).filter(|d| bits >> (2 + d) & 1 == 1).collect();
                let ints = match bits % 4 {
                    0 => ints_random,
                    1 => {
                        let mut perm: Vec<i64> = (0..rank).collect();
                        for i in (1..perm.len()).rev() {
                            perm.swap(i, (bits >> (8 + 2 * i)) as usize % (i + 1));
                        }
                        perm
                    }
                    2 => subset,
                    _ => {
                        subset.extend(subset.first().copied());
                        subset
                    }
                };
                let declared = if declare == 0 { wrong } else { naive_shape(op, &a, &b, &ints) };
                Case { op, a, b, ints, kind: KINDS[kind], weights, value, declared }
            },
        )
}

fn build(case: &Case) -> Func {
    let tensor = |shape: &[usize]| Type::tensor(Type::F64, shape);
    let params = match case.op {
        "tensor.fill" => vec![],
        "tensor.scale" => vec![Type::F64, tensor(&case.a)],
        "tensor.matmul" | "tensor.add" | "tensor.sub" | "tensor.mul" | "tensor.conv2d" => {
            vec![tensor(&case.a), tensor(&case.b)]
        }
        _ => vec![tensor(&case.a)],
    };
    let ret = tensor(&case.declared);
    let mut fb = FuncBuilder::new("k", &params, std::slice::from_ref(&ret));
    let mut op = Op::new(case.op);
    op.operands = (0..params.len()).map(|i| fb.arg(i)).collect();
    let ints = Attr::Array(case.ints.iter().map(|i| Attr::Int(*i)).collect());
    op = match case.op {
        "tensor.fill" => op.with_attr("value", case.value),
        "tensor.transpose" => op.with_attr("perm", ints),
        "tensor.reduce" => op.with_attr("dims", ints).with_attr("kind", case.kind),
        "tensor.stencil" => op.with_attr(
            "weights",
            Attr::Array(case.weights.iter().map(|w| Attr::Float(*w)).collect()),
        ),
        _ => op,
    };
    let r = fb.op1(op, ret);
    fb.ret(&[r]);
    fb.finish()
}

/// Deterministic inputs in [-4, 4), one vector per parameter.
fn inputs(func: &Func) -> Vec<Vec<f64>> {
    let mut z = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
    };
    func.params
        .iter()
        .map(|p| (0..p.num_elements().unwrap_or(1)).map(|_| next()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_verified_tensor_op_runs_alike_in_the_interpreter_and_the_loops(case in case()) {
        let func = build(&case);
        if verify_func(&func).is_err() {
            return Ok(());
        }
        let data = inputs(&func);
        let args: Vec<RtValue> = func
            .params
            .iter()
            .zip(&data)
            .map(|(p, d)| match p.shape() {
                Some(shape) => RtValue::tensor(shape, d.clone()),
                None => RtValue::Float(d[0]),
            })
            .collect();
        let want = Interp::new().call(&func, &args).expect("a verified kernel runs");
        let RtValue::Tensor { data: want, .. } = &want[0] else {
            panic!("a tensor kernel returns a tensor: {want:?}")
        };
        synthesize(&func, &HlsConfig::default()).expect("a verified kernel synthesizes");

        let lowered = lower_to_loops(&func).expect("a verified kernel lowers");
        verify_func(&lowered).expect("the lowered loops verify");
        let mut interp = Interp::new();
        let mut loop_args: Vec<RtValue> = func
            .params
            .iter()
            .zip(data)
            .map(|(p, d)| match p.shape() {
                Some(shape) => interp.alloc_buffer(shape, d),
                None => RtValue::Float(d[0]),
            })
            .collect();
        let out = interp.alloc_buffer(&case.declared, vec![0.0; want.len()]);
        loop_args.push(out.clone());
        interp.call(&lowered, &loop_args).expect("the lowered loops run");
        for (i, (g, w)) in interp.buffer(&out).iter().zip(want).enumerate() {
            prop_assert!(
                g == w || (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "element {i}: loops {g} vs interpreter {w}"
            );
        }
    }
}

/// The scalar, `mem.*` and `loop.for` ops the interpreter runs.
const SCALAR_OPS: [&str; 25] = [
    "arith.constant",
    "arith.addf",
    "arith.subf",
    "arith.mulf",
    "arith.divf",
    "arith.maxf",
    "arith.minf",
    "arith.negf",
    "arith.sqrtf",
    "arith.expf",
    "arith.addi",
    "arith.subi",
    "arith.muli",
    "arith.divi",
    "arith.remi",
    "arith.cmpf",
    "arith.cmpi",
    "arith.select",
    "arith.sitofp",
    "arith.fptosi",
    "mem.alloc",
    "mem.load",
    "mem.store",
    "mem.copy",
    "loop.for",
];

const PREDS: [&str; 7] = ["lt", "le", "gt", "ge", "eq", "ne", "near"];

/// The types a slot may be drawn from; the first six are the scalars.
fn pool() -> [Type; 9] {
    [
        Type::F32,
        Type::F64,
        Type::I1,
        Type::I32,
        Type::I64,
        Type::Index,
        Type::memref(Type::F64, &[3], MemSpace::Host),
        Type::memref(Type::I64, &[3], MemSpace::Host),
        Type::tensor(Type::F64, &[2]),
    ]
}

/// The operand and result types `op` takes over the scalar `t`.
fn signature(op: &str, t: &Type) -> (Vec<Type>, Vec<Type>) {
    let (t, buf) = (t.clone(), Type::memref(t.clone(), &[3], MemSpace::Host));
    match op {
        "arith.constant" => (vec![], vec![t]),
        "arith.negf" | "arith.sqrtf" | "arith.expf" | "loop.for" => (vec![t.clone()], vec![t]),
        "arith.cmpf" | "arith.cmpi" => (vec![t.clone(), t], vec![Type::I1]),
        "arith.select" => (vec![Type::I1, t.clone(), t.clone()], vec![t]),
        "arith.sitofp" => (vec![t], vec![Type::F64]),
        "arith.fptosi" => (vec![t], vec![Type::I64]),
        "mem.alloc" => (vec![], vec![buf]),
        "mem.load" => (vec![buf, Type::Index], vec![t]),
        "mem.store" => (vec![t, buf, Type::Index], vec![]),
        "mem.copy" => (vec![buf.clone(), buf], vec![]),
        _ => (vec![t.clone(), t.clone()], vec![t]),
    }
}

/// One generated kernel: `op` applied to one parameter per operand, its
/// results returned.
#[derive(Debug, Clone)]
struct ScalarCase {
    op: &'static str,
    operands: Vec<Type>,
    results: Vec<Type>,
    /// An `arith.constant`'s value.
    value: Attr,
    /// A comparison's predicate.
    pred: &'static str,
    /// A loop's trip count, and whether its body yields the induction
    /// variable instead of the carried value.
    trips: i64,
    yield_iv: bool,
    /// Seeds the arguments.
    seed: u64,
}

fn scalar_case() -> impl Strategy<Value = ScalarCase> {
    (
        (0..SCALAR_OPS.len(), 0usize..6, vec((0u8..4, 0usize..9), 4)),
        (any::<bool>(), -3i64..4, 0..PREDS.len(), any::<bool>(), any::<u64>()),
    )
        .prop_map(|((op, t, swaps), (float, v, pred, yield_iv, seed))| {
            let (op, pool) = (SCALAR_OPS[op], pool());
            let (mut operands, mut results) = signature(op, &pool[t]);
            // A quarter of the slots take any type of the pool instead.
            for (slot, (coin, other)) in operands.iter_mut().chain(&mut results).zip(swaps) {
                if coin == 0 {
                    *slot = pool[other].clone();
                }
            }
            let value = if float { Attr::Float(v as f64 / 2.0) } else { Attr::Int(v) };
            let pred = PREDS[pred];
            ScalarCase { op, operands, results, value, pred, trips: v.max(0), yield_iv, seed }
        })
}

fn build_scalar(case: &ScalarCase) -> Func {
    let mut func = Func::new("k", &case.operands, &case.results);
    let mut op = Op::new(case.op);
    op.operands = (0..case.operands.len()).map(|i| func.arg(i)).collect();
    op.results = case.results.iter().map(|t| func.new_value(t.clone())).collect();
    op = match case.op {
        "arith.constant" => op.with_attr("value", case.value.clone()),
        "arith.cmpf" | "arith.cmpi" => op.with_attr("pred", case.pred),
        "loop.for" => {
            let mut body = Block::new(BlockId(1));
            let iv = func.new_value(Type::Index);
            let carried: Vec<Value> =
                case.operands.iter().map(|t| func.new_value(t.clone())).collect();
            body.args = std::iter::once(iv).chain(carried.iter().copied()).collect();
            let mut yield_op = Op::new("loop.yield");
            yield_op.operands = if case.yield_iv { vec![iv] } else { carried };
            body.ops.push(yield_op);
            op.regions.push(Region { blocks: vec![body] });
            op.with_attr("lo", 0i64).with_attr("hi", case.trips).with_attr("step", 1i64)
        }
        _ => op,
    };
    let mut ret = Op::new("func.return");
    ret.operands = op.results.clone();
    func.body.blocks[0].ops.extend([op, ret]);
    func
}

/// Whether `v` is a value of type `t`.
fn has_kind(v: &RtValue, t: &Type) -> bool {
    match v {
        RtValue::Float(_) => t.is_float(),
        RtValue::Int(_) => matches!(t, Type::I1 | Type::I32 | Type::I64 | Type::Index),
        RtValue::Buffer(_) => matches!(t, Type::MemRef { .. }),
        RtValue::Tensor { shape, .. } => {
            matches!(t, Type::Tensor { .. }) && t.shape() == Some(shape)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn a_verified_scalar_mem_or_loop_kernel_returns_the_kinds_it_declares(case in scalar_case()) {
        let func = build_scalar(&case);
        if verify_func(&func).is_err() {
            return Ok(());
        }
        // Arguments from `seed`: small floats, integers in -1..=3 (a zero
        // divisor, an index out of bounds), an `i1` of 0 or 1.
        let mut z = case.seed | 1;
        let mut next = move || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z % 9
        };
        let mut interp = Interp::new();
        let mut args = Vec::new();
        for t in &func.params {
            let n = t.num_elements().unwrap_or(1);
            args.push(match t {
                Type::MemRef { shape, .. } => {
                    let data = (0..n).map(|_| next() as f64 - 4.0).collect();
                    interp.alloc_buffer(shape, data)
                }
                Type::Tensor { shape, .. } => {
                    RtValue::tensor(shape, (0..n).map(|_| next() as f64 - 4.0).collect())
                }
                Type::I1 => RtValue::Int((next() % 2) as i64),
                t if t.is_float() => RtValue::Float(next() as f64 / 2.0 - 2.0),
                _ => RtValue::Int((next() % 5) as i64 - 1),
            });
        }
        // An error (a zero divisor, an index out of bounds) is a run too.
        if let Ok(values) = interp.call(&func, &args) {
            prop_assert_eq!(values.len(), func.results.len());
            for (v, t) in values.iter().zip(&func.results) {
                prop_assert!(has_kind(v, t), "{} returned {:?} for {}", case.op, v, t);
            }
        }
    }
}
