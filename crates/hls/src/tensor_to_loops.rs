//! Lowering of `tensor`-dialect kernels into explicit memref loop nests —
//! the representation the HLS scheduler actually synthesizes.
//!
//! Conventions of the lowered form:
//!
//! * every tensor parameter becomes an on-chip `memref<..., scratch>`
//!   parameter;
//! * the returned tensor becomes a trailing **output memref parameter**
//!   (out-argument style, as HLS kernels are typically interfaced);
//! * intermediate tensors become `mem.alloc`ed scratch buffers;
//! * `tensor.stencil` applies a 1-D convolution along the **last**
//!   dimension; border elements (within the stencil radius) are copied
//!   through unchanged.

use crate::error::{HlsError, HlsResult};
use everest_ir::attr::Attr;
use everest_ir::types::MemSpace;
use everest_ir::{Func, FuncBuilder, Op, ReduceKind, TensorKind, TensorOp, Type, Value};
use std::collections::HashMap;

/// Lowers a straight-line tensor-dialect function into a loop-nest function
/// over memrefs, named `<name>_loops`.
///
/// # Errors
///
/// Returns [`HlsError::Unsupported`] for ops outside the supported tensor
/// subset and [`HlsError::Lower`] for structural problems.
pub fn lower_to_loops(func: &Func) -> HlsResult<Func> {
    let entry =
        func.body.entry().ok_or_else(|| HlsError::Lower("function has no entry block".into()))?;

    // The value returned by the kernel (written into the out-parameter).
    let ret_op = entry
        .terminator()
        .filter(|t| t.name == "func.return")
        .ok_or_else(|| HlsError::Lower("kernel must end in func.return".into()))?;
    if ret_op.operands.len() != 1 {
        return Err(HlsError::Unsupported("kernels must return exactly one value".into()));
    }
    let ret_val = ret_op.operands[0];
    let ret_ty = func.value_type(ret_val).clone();
    let Type::Tensor { elem: ret_elem, shape: ret_shape } = &ret_ty else {
        return Err(HlsError::Unsupported(format!("non-tensor return type {ret_ty}")));
    };

    // Build the new signature: tensor params -> scratch memrefs, plus the
    // trailing output buffer.
    let mut params = Vec::new();
    for p in &func.params {
        params.push(match p {
            Type::Tensor { elem, shape } => {
                Type::memref((**elem).clone(), shape, MemSpace::Scratchpad)
            }
            scalar if scalar.is_scalar() => scalar.clone(),
            other => {
                return Err(HlsError::Unsupported(format!("parameter type {other}")));
            }
        });
    }
    params.push(Type::memref((**ret_elem).clone(), ret_shape, MemSpace::Scratchpad));
    let mut fb = FuncBuilder::new(format!("{}_loops", func.name), &params, &[]);
    fb.set_func_attr("hls.lowered_from", func.name.as_str());
    let out_buf = fb.arg(params.len() - 1);

    // Map original SSA values to lowered values (scalars) or buffers.
    let mut env: HashMap<Value, Value> = HashMap::new();
    for (i, _) in func.params.iter().enumerate() {
        env.insert(func.arg(i), fb.arg(i));
    }

    for op in &entry.ops {
        match op.name.as_str() {
            "func.return" => {
                // If the returned value's buffer is not the out-param (e.g.
                // identity kernels returning an input), copy it over.
                let src = env[&ret_val];
                if src != out_buf {
                    emit_copy(&mut fb, src, out_buf, ret_shape, ret_elem);
                }
            }
            "arith.constant" => {
                let ty = func.value_type(op.results[0]).clone();
                let attr = op.attr("value").cloned().unwrap_or(Attr::Float(0.0));
                let v = match attr {
                    Attr::Float(x) => fb.const_f(x, ty),
                    Attr::Int(x) => fb.const_i(x, ty),
                    other => {
                        return Err(HlsError::Unsupported(format!("constant payload {other}")))
                    }
                };
                env.insert(op.results[0], v);
            }
            name if name.starts_with("arith.") => {
                // Scalar arithmetic between lowered scalars.
                let ty = func.value_type(op.results[0]).clone();
                let mut new_op = Op::new(name);
                new_op.operands = op.operands.iter().map(|v| env[v]).collect();
                new_op.attrs = op.attrs.clone();
                let r = fb.op1(new_op, ty);
                env.insert(op.results[0], r);
            }
            name if name.starts_with("tensor.") => {
                let t = TensorOp::of(func, op).map_err(|e| HlsError::Lower(e.to_string()))?;
                // The out-parameter when the op produces the returned value,
                // a fresh scratch buffer otherwise.
                let dest = if op.results[0] == ret_val {
                    out_buf
                } else {
                    let buf = Type::memref(t.elem.clone(), &t.shape, MemSpace::Scratchpad);
                    fb.op1(Op::new("mem.alloc"), buf)
                };
                lower_tensor_op(&mut fb, &t, op, &env, dest);
                env.insert(op.results[0], dest);
            }
            other => {
                return Err(HlsError::Unsupported(format!("op '{other}' in tensor kernel")));
            }
        }
    }
    fb.ret(&[]);
    Ok(fb.finish())
}

/// Emits nested loops over `shape`, calling `body` with the index values.
fn nest(
    fb: &mut FuncBuilder,
    shape: &[usize],
    idx: &mut Vec<Value>,
    body: &mut dyn FnMut(&mut FuncBuilder, &[Value]),
) {
    if shape.is_empty() {
        body(fb, idx);
        return;
    }
    let (dim, rest) = (shape[0], &shape[1..]);
    fb.for_loop(0, dim as i64, 1, &[], |fb, iv, _| {
        idx.push(iv);
        nest(fb, rest, idx, body);
        idx.pop();
        vec![]
    });
}

fn emit_copy(fb: &mut FuncBuilder, src: Value, dst: Value, shape: &[usize], elem: &Type) {
    let elem = elem.clone();
    nest(fb, shape, &mut Vec::new(), &mut |fb, idx| {
        let v = fb.load(src, idx, elem.clone());
        fb.store(v, dst, idx);
    });
}

/// Emits the loop nest computing `t`, the view of `op`, into `dest`.
fn lower_tensor_op(
    fb: &mut FuncBuilder,
    t: &TensorOp,
    op: &Op,
    env: &HashMap<Value, Value>,
    dest: Value,
) {
    let elem = t.elem;
    let arg = |i: usize| env[&op.operands[i]];
    match &t.kind {
        TensorKind::Matmul => {
            let (a, b) = (arg(0), arg(1));
            let (m, k, n) = (t.a[0], t.a[1], t.b[1]);
            fb.for_loop(0, m as i64, 1, &[], |fb, i, _| {
                fb.for_loop(0, n as i64, 1, &[], |fb, j, _| {
                    let zero = fb.const_f(0.0, elem.clone());
                    let sum = fb.for_loop(0, k as i64, 1, &[zero], |fb, kk, carried| {
                        let av = fb.load(a, &[i, kk], elem.clone());
                        let bv = fb.load(b, &[kk, j], elem.clone());
                        let prod = fb.binary("arith.mulf", av, bv, elem.clone());
                        vec![fb.binary("arith.addf", carried[0], prod, elem.clone())]
                    })[0];
                    fb.store(sum, dest, &[i, j]);
                    vec![]
                });
                vec![]
            });
        }
        TensorKind::Add | TensorKind::Sub | TensorKind::Mul => {
            let name = match t.kind {
                TensorKind::Add => "arith.addf",
                TensorKind::Sub => "arith.subf",
                _ => "arith.mulf",
            };
            let (a, b) = (arg(0), arg(1));
            nest(fb, t.a, &mut Vec::new(), &mut |fb, idx| {
                let av = fb.load(a, idx, elem.clone());
                let bv = fb.load(b, idx, elem.clone());
                let r = fb.binary(name, av, bv, elem.clone());
                fb.store(r, dest, idx);
            });
        }
        TensorKind::Scale => {
            let (s, x) = (arg(0), arg(1));
            nest(fb, t.a, &mut Vec::new(), &mut |fb, idx| {
                let tv = fb.load(x, idx, elem.clone());
                let r = fb.binary("arith.mulf", s, tv, elem.clone());
                fb.store(r, dest, idx);
            });
        }
        TensorKind::Transpose(perm) => {
            let a = arg(0);
            // out[idx] = in[perm applied inversely]: out dim d comes from in
            // dim perm[d], so in index at position perm[d] is idx[d].
            nest(fb, &t.shape, &mut Vec::new(), &mut |fb, idx| {
                let mut in_idx = idx.to_vec();
                for (d, p) in perm.iter().enumerate() {
                    in_idx[*p] = idx[d];
                }
                let v = fb.load(a, &in_idx, elem.clone());
                fb.store(v, dest, idx);
            });
        }
        TensorKind::Reduce(dims, kind) => {
            let a = arg(0);
            let kept: Vec<usize> = (0..t.a.len()).filter(|d| !dims.contains(d)).collect();
            let combine = match kind {
                ReduceKind::Max => "arith.maxf",
                ReduceKind::Min => "arith.minf",
                ReduceKind::Sum | ReduceKind::Mean => "arith.addf",
            };
            let fold = |fb: &mut FuncBuilder, acc, idx: &[Value]| {
                let v = fb.load(a, idx, elem.clone());
                fb.binary(combine, acc, v, elem.clone())
            };
            nest(fb, &t.shape, &mut Vec::new(), &mut |fb, kept_idx| {
                let init = fb.const_f(kind.identity(), elem.clone());
                // Every entry is overwritten: by a kept index here, by a
                // reduced one in `reduce_nest`.
                let mut idx = vec![init; t.a.len()];
                for (d, i) in kept.iter().zip(kept_idx) {
                    idx[*d] = *i;
                }
                let acc = reduce_nest(fb, dims, t.a, &mut idx, init, &fold);
                let result = if *kind == ReduceKind::Mean {
                    let count = dims.iter().map(|d| t.a[*d]).product::<usize>();
                    let n = fb.const_f(count as f64, elem.clone());
                    fb.binary("arith.divf", acc, n, elem.clone())
                } else {
                    acc
                };
                fb.store(result, dest, kept_idx);
            });
        }
        TensorKind::Stencil(weights) => {
            let a = arg(0);
            let radius = weights.len() / 2;
            let (outer, last) = (&t.a[..t.a.len() - 1], t.a[t.a.len() - 1]);
            nest(fb, outer, &mut Vec::new(), &mut |fb, outer_idx| {
                // Interior: out[.., i] = sum_k w[k] * in[.., i + k - r]
                fb.for_loop(radius as i64, (last - radius) as i64, 1, &[], |fb, i, _| {
                    let mut acc = fb.const_f(0.0, elem.clone());
                    for (k, w) in weights.iter().enumerate() {
                        let off = fb.const_i(k as i64 - radius as i64, Type::Index);
                        let pos = fb.binary("arith.addi", i, off, Type::Index);
                        let mut idx = outer_idx.to_vec();
                        idx.push(pos);
                        let v = fb.load(a, &idx, elem.clone());
                        let wv = fb.const_f(*w, elem.clone());
                        let prod = fb.binary("arith.mulf", v, wv, elem.clone());
                        acc = fb.binary("arith.addf", acc, prod, elem.clone());
                    }
                    let mut idx = outer_idx.to_vec();
                    idx.push(i);
                    fb.store(acc, dest, &idx);
                    vec![]
                });
                // Borders copied through.
                for range in [(0i64, radius as i64), ((last - radius) as i64, last as i64)] {
                    fb.for_loop(range.0, range.1, 1, &[], |fb, i, _| {
                        let mut idx = outer_idx.to_vec();
                        idx.push(i);
                        let v = fb.load(a, &idx, elem.clone());
                        fb.store(v, dest, &idx);
                        vec![]
                    });
                }
            });
        }
        TensorKind::Conv2d => {
            let (x, k) = (arg(0), arg(1));
            let (h, w, kh, kw) = (t.a[0], t.a[1], t.b[0], t.b[1]);
            let (ry, rx) = (kh / 2, kw / 2);
            // Interior: out[i,j] = sum_{ky,kx} in[i+ky-ry, j+kx-rx] * k[ky,kx]
            fb.for_loop(ry as i64, (h - ry) as i64, 1, &[], |fb, i, _| {
                fb.for_loop(rx as i64, (w - rx) as i64, 1, &[], |fb, j, _| {
                    let zero = fb.const_f(0.0, elem.clone());
                    let acc = fb.for_loop(0, kh as i64, 1, &[zero], |fb, ky, c| {
                        let row = fb.for_loop(0, kw as i64, 1, &[c[0]], |fb, kx, cc| {
                            let oy = fb.const_i(-(ry as i64), Type::Index);
                            let ox = fb.const_i(-(rx as i64), Type::Index);
                            let dy = fb.binary("arith.addi", ky, oy, Type::Index);
                            let dx = fb.binary("arith.addi", kx, ox, Type::Index);
                            let iy = fb.binary("arith.addi", i, dy, Type::Index);
                            let ix = fb.binary("arith.addi", j, dx, Type::Index);
                            let v = fb.load(x, &[iy, ix], elem.clone());
                            let wv = fb.load(k, &[ky, kx], elem.clone());
                            let prod = fb.binary("arith.mulf", v, wv, elem.clone());
                            vec![fb.binary("arith.addf", cc[0], prod, elem.clone())]
                        })[0];
                        vec![row]
                    })[0];
                    fb.store(acc, dest, &[i, j]);
                    vec![]
                });
                vec![]
            });
            // Borders copied through (top/bottom rows, then left/right
            // columns of the interior rows).
            let copy_rows = |fb: &mut FuncBuilder, lo: i64, hi: i64| {
                fb.for_loop(lo, hi, 1, &[], |fb, i, _| {
                    fb.for_loop(0, w as i64, 1, &[], |fb, j, _| {
                        let v = fb.load(x, &[i, j], elem.clone());
                        fb.store(v, dest, &[i, j]);
                        vec![]
                    });
                    vec![]
                });
            };
            copy_rows(fb, 0, ry as i64);
            copy_rows(fb, (h - ry) as i64, h as i64);
            let copy_cols = |fb: &mut FuncBuilder, lo: i64, hi: i64| {
                fb.for_loop(ry as i64, (h - ry) as i64, 1, &[], |fb, i, _| {
                    fb.for_loop(lo, hi, 1, &[], |fb, j, _| {
                        let v = fb.load(x, &[i, j], elem.clone());
                        fb.store(v, dest, &[i, j]);
                        vec![]
                    });
                    vec![]
                });
            };
            copy_cols(fb, 0, rx as i64);
            copy_cols(fb, (w - rx) as i64, w as i64);
        }
        TensorKind::Relu => {
            let a = arg(0);
            nest(fb, t.a, &mut Vec::new(), &mut |fb, idx| {
                let v = fb.load(a, idx, elem.clone());
                let zero = fb.const_f(0.0, elem.clone());
                let r = fb.binary("arith.maxf", v, zero, elem.clone());
                fb.store(r, dest, idx);
            });
        }
        TensorKind::Sigmoid => {
            let a = arg(0);
            nest(fb, t.a, &mut Vec::new(), &mut |fb, idx| {
                let v = fb.load(a, idx, elem.clone());
                let neg = fb.unary("arith.negf", v, elem.clone());
                let e = fb.unary("arith.expf", neg, elem.clone());
                let one = fb.const_f(1.0, elem.clone());
                let denom = fb.binary("arith.addf", one, e, elem.clone());
                let r = fb.binary("arith.divf", one, denom, elem.clone());
                fb.store(r, dest, idx);
            });
        }
        TensorKind::Fill(value) => {
            nest(fb, &t.shape, &mut Vec::new(), &mut |fb, idx| {
                let v = fb.const_f(*value, elem.clone());
                fb.store(v, dest, idx);
            });
        }
    }
}

/// Emits a loop over each of the reduced `dims` of a tensor of `shape`,
/// carrying the accumulator `acc` through each level, and returns the final
/// accumulator. `idx` holds the kept dims' indices; each level writes its
/// own, and `fold` combines the entry at `idx` into the accumulator.
fn reduce_nest(
    fb: &mut FuncBuilder,
    dims: &[usize],
    shape: &[usize],
    idx: &mut [Value],
    acc: Value,
    fold: &dyn Fn(&mut FuncBuilder, Value, &[Value]) -> Value,
) -> Value {
    let Some((&d, rest)) = dims.split_first() else {
        return fold(fb, acc, idx);
    };
    fb.for_loop(0, shape[d] as i64, 1, &[acc], |fb, iv, carried| {
        idx[d] = iv;
        vec![reduce_nest(fb, rest, shape, idx, carried[0], fold)]
    })[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_ir::verify::verify_func;

    fn lower(src: &str, kernel: &str) -> Func {
        let module = everest_dsl::compile_kernels(src).unwrap();
        let f = lower_to_loops(module.func(kernel).unwrap()).unwrap();
        verify_func(&f).unwrap_or_else(|e| panic!("lowered func invalid: {e}\n"));
        f
    }

    fn count_ops(f: &Func, name: &str) -> usize {
        let mut n = 0;
        f.walk(&mut |op| {
            if op.name == name {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn matmul_lowers_to_triple_loop() {
        let f = lower(
            "kernel mm(a: tensor<4x6xf64>, b: tensor<6x2xf64>) -> tensor<4x2xf64> { return a @ b; }",
            "mm",
        );
        assert_eq!(count_ops(&f, "loop.for"), 3);
        assert_eq!(count_ops(&f, "mem.load"), 2);
        assert_eq!(count_ops(&f, "mem.store"), 1);
        assert_eq!(count_ops(&f, "arith.mulf"), 1);
        // Result goes straight into the out-parameter: no alloc needed.
        assert_eq!(count_ops(&f, "mem.alloc"), 0);
        assert_eq!(f.params.len(), 3);
    }

    #[test]
    fn intermediate_tensors_get_scratch_buffers() {
        let f = lower(
            "kernel f(a: tensor<8xf64>, b: tensor<8xf64>) -> tensor<8xf64> { var c = a + b; return relu(c); }",
            "f",
        );
        assert_eq!(count_ops(&f, "mem.alloc"), 1);
    }

    #[test]
    fn identity_kernel_emits_copy() {
        let f = lower("kernel id(a: tensor<16xf64>) -> tensor<16xf64> { return a; }", "id");
        assert_eq!(count_ops(&f, "mem.load"), 1);
        assert_eq!(count_ops(&f, "mem.store"), 1);
        assert_eq!(count_ops(&f, "loop.for"), 1);
    }

    #[test]
    fn transpose_permutes_load_indices() {
        let f = lower(
            "kernel t(a: tensor<3x5xf64>) -> tensor<5x3xf64> { return transpose(a, [1, 0]); }",
            "t",
        );
        assert_eq!(count_ops(&f, "loop.for"), 2);
        assert_eq!(count_ops(&f, "mem.load"), 1);
    }

    #[test]
    fn reduce_sum_carries_accumulator() {
        let f = lower(
            "kernel r(a: tensor<4x8xf64>) -> tensor<4xf64> { return reduce_sum(a, [1]); }",
            "r",
        );
        assert_eq!(count_ops(&f, "loop.for"), 2);
        assert_eq!(count_ops(&f, "arith.addf"), 1);
    }

    #[test]
    fn reduce_mean_divides_by_count() {
        let f = lower(
            "kernel r(a: tensor<4x8xf64>) -> tensor<4xf64> { return reduce_mean(a, [1]); }",
            "r",
        );
        assert_eq!(count_ops(&f, "arith.divf"), 1);
    }

    #[test]
    fn stencil_emits_weighted_neighbours_and_borders() {
        let f = lower(
            "kernel s(a: tensor<32xf64>) -> tensor<32xf64> { return stencil(a, [0.25, 0.5, 0.25]); }",
            "s",
        );
        // 3 weighted loads in the interior loop + 1 border-copy load per
        // border loop.
        assert_eq!(count_ops(&f, "mem.load"), 5);
        assert_eq!(count_ops(&f, "loop.for"), 3);
        assert_eq!(count_ops(&f, "arith.mulf"), 3);
    }

    #[test]
    fn sigmoid_lowers_to_exp_chain() {
        let f = lower("kernel g(a: tensor<8xf64>) -> tensor<8xf64> { return sigmoid(a); }", "g");
        assert_eq!(count_ops(&f, "arith.expf"), 1);
        assert_eq!(count_ops(&f, "arith.divf"), 1);
    }

    #[test]
    fn scalar_params_stay_scalar() {
        let f =
            lower("kernel sc(a: tensor<8xf64>, k: f64) -> tensor<8xf64> { return k * a; }", "sc");
        assert_eq!(f.params[1], Type::F64);
        assert_eq!(count_ops(&f, "arith.mulf"), 1);
    }

    #[test]
    fn conv2d_lowers_to_six_level_nest_plus_borders() {
        let f = lower(
            "kernel c(x: tensor<16x16xf64>, k: tensor<3x3xf64>) -> tensor<16x16xf64> { return conv2d(x, k); }",
            "c",
        );
        // Interior: 4 loops (i, j, ky, kx); borders: 4 copy nests of 2 each.
        assert_eq!(count_ops(&f, "loop.for"), 4 + 8);
        assert_eq!(count_ops(&f, "arith.mulf"), 1);
        // Loads: input + kernel in the interior, plus 4 border copies.
        assert_eq!(count_ops(&f, "mem.load"), 2 + 4);
    }

    #[test]
    fn conv2d_synthesizes() {
        let module = everest_dsl::compile_kernels(
            "kernel c(x: tensor<16x16xf64>, k: tensor<3x3xf64>) -> tensor<16x16xf64> { return conv2d(x, k); }",
        )
        .unwrap();
        let acc = crate::accel::synthesize(
            module.func("c").unwrap(),
            &crate::accel::HlsConfig::default(),
        )
        .unwrap();
        assert!(acc.latency_cycles > 0);
        assert!(acc.area.luts > 0);
    }

    #[test]
    fn stencil_wider_than_dim_rejected() {
        // The DSL checker rejects it too, so the op is built by hand.
        let src =
            "kernel s(a: tensor<2xf64>) -> tensor<2xf64> { return stencil(a, [0.2, 0.2, 0.2]); }";
        let err = everest_dsl::compile_kernels(src).unwrap_err();
        assert!(err.to_string().ends_with("'stencil': width 3 is wider than the last dimension 2"));
        let ty = Type::tensor(Type::F64, &[2]);
        let mut fb = FuncBuilder::new("s", std::slice::from_ref(&ty), std::slice::from_ref(&ty));
        let weights = Attr::Array(vec![Attr::Float(0.2); 3]);
        let mut op = Op::new("tensor.stencil").with_attr("weights", weights);
        op.operands = vec![fb.arg(0)];
        let r = fb.op1(op, ty);
        fb.ret(&[r]);
        let err = lower_to_loops(&fb.finish()).unwrap_err();
        assert_eq!(
            err,
            HlsError::Lower(
                "verification failed: tensor.stencil: width 3 is wider than the last dimension 2"
                    .into()
            )
        );
    }
}
