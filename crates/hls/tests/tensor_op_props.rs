//! Generated `tensor.*` ops, with attributes drawn in and out of range and
//! result types declared right or wrong: whenever the verifier accepts the
//! kernel, the interpreter and HLS synthesis both return without
//! panicking, and the interpreter agrees with the lowered loop nest.

use everest_hls::tensor_to_loops::lower_to_loops;
use everest_hls::{synthesize, HlsConfig};
use everest_ir::interp::{Interp, RtValue};
use everest_ir::verify::verify_func;
use everest_ir::{Attr, Func, FuncBuilder, Op, Type};
use proptest::collection::vec;
use proptest::prelude::*;

const OPS: [&str; 12] = [
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
        (0..OPS.len(), vec(1usize..6, 3), 0usize..5, vec(1usize..6, 1..4), 0u8..4),
        (vec(-1i64..4, 0..4), any::<u64>(), 0..KINDS.len()),
        (vec(-2.0f64..2.0, 0..7), -3.0f64..3.0, 0u8..4, vec(1usize..5, 0..3)),
    )
        .prop_map(
            |(
                (op, dims, rank, b_random, b_mode),
                (ints_random, bits, kind),
                (weights, value, declare, wrong),
            )| {
                let op = OPS[op];
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
