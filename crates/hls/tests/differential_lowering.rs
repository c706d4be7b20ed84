//! Differential testing of the tensor→loop-nest lowering: for every kernel,
//! interpreting the abstract tensor ops and interpreting the lowered
//! `loop`/`mem` form must produce identical results. This is the
//! correctness contract behind all HLS latency/area numbers.

use everest_hls::tensor_to_loops::lower_to_loops;
use everest_ir::interp::{Interp, RtValue};
use everest_ir::{Func, Type};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn compile(src: &str, name: &str) -> Func {
    everest_dsl::compile_kernels(src).unwrap().func(name).unwrap().clone()
}

fn random_data(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect()
}

/// Interprets the tensor form and the lowered loop form on the same random
/// data and asserts elementwise agreement.
fn assert_lowering_preserves(func: &Func, seed: u64) {
    let inputs = func
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| random_data(seed + i as u64, p.num_elements().unwrap_or(1)))
        .collect();
    assert_lowering_preserves_on(func, inputs);
}

/// As [`assert_lowering_preserves`], on the given data: one vector per
/// parameter, a single entry for a scalar.
fn assert_lowering_preserves_on(func: &Func, raw_inputs: Vec<Vec<f64>>) {
    // Tensor-form inputs (scalars stay scalar).
    let mut tensor_args = Vec::new();
    for (p, data) in func.params.iter().zip(&raw_inputs) {
        match p {
            Type::Tensor { shape, .. } => tensor_args.push(RtValue::tensor(shape, data.clone())),
            scalar if scalar.is_scalar() => tensor_args.push(RtValue::Float(data[0])),
            other => panic!("unexpected param {other}"),
        }
    }
    let tensor_out = Interp::new().call(func, &tensor_args).expect("tensor form runs");
    let (ref_shape, ref_data) = match &tensor_out[0] {
        RtValue::Tensor { shape, data } => (shape.clone(), data.clone()),
        other => panic!("kernel must return a tensor, got {other:?}"),
    };

    // Loop-form: memref buffers for tensors + trailing out-buffer.
    let lowered = lower_to_loops(func).expect("lowers");
    everest_ir::verify::verify_func(&lowered).expect("lowered verifies");
    let mut interp = Interp::new();
    let mut loop_args = Vec::new();
    for (p, data) in func.params.iter().zip(&raw_inputs) {
        match p {
            Type::Tensor { shape, .. } => loop_args.push(interp.alloc_buffer(shape, data.clone())),
            _ => loop_args.push(RtValue::Float(data[0])),
        }
    }
    let out_handle = interp.alloc_buffer(&ref_shape, vec![0.0; ref_data.len()]);
    loop_args.push(out_handle.clone());
    interp.call(&lowered, &loop_args).expect("loop form runs");
    let got = interp.buffer(&out_handle);

    assert_eq!(got.len(), ref_data.len());
    for (i, (g, r)) in got.iter().zip(&ref_data).enumerate() {
        assert!(
            g == r || (g - r).abs() <= 1e-9 * (1.0 + r.abs()),
            "@{}: element {i} differs: lowered {g:e} vs tensor {r:e}",
            func.name
        );
    }
}

#[test]
fn matmul_lowering_is_exact() {
    let f = compile(
        "kernel mm(a: tensor<5x7xf64>, b: tensor<7x3xf64>) -> tensor<5x3xf64> { return a @ b; }",
        "mm",
    );
    assert_lowering_preserves(&f, 1);
}

#[test]
fn elementwise_chain_lowering_is_exact() {
    let f = compile(
        "kernel f(a: tensor<9xf64>, b: tensor<9xf64>) -> tensor<9xf64> { return 2.5 * a + b * b; }",
        "f",
    );
    assert_lowering_preserves(&f, 2);
}

#[test]
fn transpose_lowering_is_exact() {
    let f = compile(
        "kernel t(a: tensor<4x6xf64>) -> tensor<6x4xf64> { return transpose(a, [1, 0]); }",
        "t",
    );
    assert_lowering_preserves(&f, 3);
}

#[test]
fn transpose_3d_lowering_is_exact() {
    let f = compile(
        "kernel t(a: tensor<2x3x4xf64>) -> tensor<4x2x3xf64> { return transpose(a, [2, 0, 1]); }",
        "t",
    );
    assert_lowering_preserves(&f, 4);
}

#[test]
fn reduce_lowerings_are_exact() {
    for kind in ["sum", "mean", "max", "min"] {
        let src = format!(
            "kernel r(a: tensor<4x6xf64>) -> tensor<4xf64> {{ return reduce_{kind}(a, [1]); }}"
        );
        let f = compile(&src, "r");
        assert_lowering_preserves(&f, 5);
    }
}

#[test]
fn reductions_over_two_dims_are_exact() {
    for kind in ["sum", "mean", "max", "min"] {
        for dims in ["[0, 2]", "[2, 0]", "[1, 2]"] {
            let kept = if dims == "[1, 2]" { 3 } else { 4 };
            let src = format!(
                "kernel r(a: tensor<3x4x5xf64>) -> tensor<{kept}xf64> {{ return reduce_{kind}(a, {dims}); }}"
            );
            let f = compile(&src, "r");
            assert_lowering_preserves(&f, 14);
        }
    }
}

#[test]
fn every_rank_3_transpose_is_exact() {
    let shape = [2, 3, 4];
    for perm in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
        let out = perm.map(|p| shape[p]);
        let src = format!(
            "kernel t(a: tensor<2x3x4xf64>) -> tensor<{}x{}x{}xf64> {{ return transpose(a, {perm:?}); }}",
            out[0], out[1], out[2]
        );
        let f = compile(&src, "t");
        assert_lowering_preserves(&f, 15);
    }
}

/// A max over entries all below -1e308 (a min over entries all above
/// 1e308) is one of those entries: the fold starts from the kind's
/// identity in both forms, not from a large finite stand-in.
#[test]
fn max_and_min_start_from_their_identity() {
    for (kind, x) in [("max", -1.5e308), ("min", 1.5e308)] {
        let src = format!(
            "kernel r(a: tensor<2x3xf64>) -> tensor<2xf64> {{ return reduce_{kind}(a, [1]); }}"
        );
        let f = compile(&src, "r");
        let out = Interp::new().call(&f, &[RtValue::tensor(&[2, 3], vec![x; 6])]).unwrap();
        assert_eq!(out[0], RtValue::tensor(&[2], vec![x; 2]), "reduce_{kind}");
        assert_lowering_preserves_on(&f, vec![vec![x; 6]]);
    }
}

#[test]
fn stencil_lowering_is_exact() {
    let f = compile(
        "kernel s(a: tensor<16xf64>) -> tensor<16xf64> { return stencil(a, [0.2, 0.5, 0.3]); }",
        "s",
    );
    assert_lowering_preserves(&f, 6);
    let f5 = compile(
        "kernel s(a: tensor<3x20xf64>) -> tensor<3x20xf64> { return stencil(a, [0.1, 0.2, 0.4, 0.2, 0.1]); }",
        "s",
    );
    assert_lowering_preserves(&f5, 7);
}

#[test]
fn conv2d_lowering_is_exact() {
    let f = compile(
        "kernel c(x: tensor<8x9xf64>, k: tensor<3x3xf64>) -> tensor<8x9xf64> { return conv2d(x, k); }",
        "c",
    );
    assert_lowering_preserves(&f, 8);
    let f5 = compile(
        "kernel c(x: tensor<10x10xf64>, k: tensor<5x3xf64>) -> tensor<10x10xf64> { return conv2d(x, k); }",
        "c",
    );
    assert_lowering_preserves(&f5, 9);
}

#[test]
fn activations_lowering_is_exact() {
    let f = compile("kernel a(x: tensor<11xf64>) -> tensor<11xf64> { return relu(x); }", "a");
    assert_lowering_preserves(&f, 10);
    let g = compile("kernel a(x: tensor<11xf64>) -> tensor<11xf64> { return sigmoid(x); }", "a");
    assert_lowering_preserves(&g, 11);
}

#[test]
fn identity_copy_is_exact() {
    let f = compile("kernel id(a: tensor<6x6xf64>) -> tensor<6x6xf64> { return a; }", "id");
    assert_lowering_preserves(&f, 12);
}

#[test]
fn mixed_pipeline_is_exact() {
    let f = compile(
        "kernel p(a: tensor<6x6xf64>, b: tensor<6x6xf64>, s: f64) -> tensor<6xf64> {
             var c = a @ b;
             var d = relu(c + s * a);
             return reduce_mean(d, [1]);
         }",
        "p",
    );
    assert_lowering_preserves(&f, 13);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_matmul_shapes_lower_exactly(
        m in 1usize..7,
        k in 1usize..7,
        n in 1usize..7,
        seed in any::<u64>(),
    ) {
        let src = format!(
            "kernel mm(a: tensor<{m}x{k}xf64>, b: tensor<{k}x{n}xf64>) -> tensor<{m}x{n}xf64> {{ return a @ b; }}"
        );
        let f = compile(&src, "mm");
        assert_lowering_preserves(&f, seed);
    }

    #[test]
    fn random_stencils_lower_exactly(
        len in 3usize..24,
        radius in 1usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(len > 2 * radius);
        let weights: Vec<String> =
            (0..2 * radius + 1).map(|i| format!("0.{}", i + 1)).collect();
        let src = format!(
            "kernel s(a: tensor<{len}xf64>) -> tensor<{len}xf64> {{ return stencil(a, [{}]); }}",
            weights.join(", ")
        );
        let f = compile(&src, "s");
        assert_lowering_preserves(&f, seed);
    }

    #[test]
    fn random_elementwise_exprs_lower_exactly(
        n in 1usize..20,
        scale in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let src = format!(
            "kernel e(a: tensor<{n}xf64>, b: tensor<{n}xf64>) -> tensor<{n}xf64> {{
                 var c = a * b - b;
                 return {scale:.3} * c + a;
             }}"
        );
        let f = compile(&src, "e");
        assert_lowering_preserves(&f, seed);
    }
}
