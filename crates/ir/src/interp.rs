//! A reference interpreter for the EVEREST IR.
//!
//! The interpreter executes both representation levels the compiler works
//! on — abstract `tensor` ops *and* the lowered `loop`/`mem` form — which
//! enables differential testing: lowering a kernel must not change what it
//! computes. Floating point is evaluated in `f64` regardless of the
//! declared width (reference semantics, not bit-accuracy).

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::ir::{Block, ForLoop, Func, Module, Op, Value};
use crate::tensor_op::{ReduceKind, TensorKind, TensorOp};
use std::collections::HashMap;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum RtValue {
    /// Any float (f32 is evaluated in f64).
    Float(f64),
    /// Any integer (including `index` and `i1`).
    Int(i64),
    /// A dense tensor (row-major).
    Tensor {
        /// Shape.
        shape: Vec<usize>,
        /// Row-major data.
        data: Vec<f64>,
    },
    /// A reference to an interpreter-managed buffer (memref).
    Buffer(usize),
}

impl RtValue {
    /// Builds a tensor value.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match `shape`.
    pub fn tensor(shape: &[usize], data: Vec<f64>) -> RtValue {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape/data mismatch");
        RtValue::Tensor { shape: shape.to_vec(), data }
    }

    fn as_float(&self) -> IrResult<f64> {
        match self {
            RtValue::Float(v) => Ok(*v),
            RtValue::Int(v) => Ok(*v as f64),
            other => Err(IrError::Pass(format!("expected scalar float, got {other:?}"))),
        }
    }

    fn as_int(&self) -> IrResult<i64> {
        match self {
            RtValue::Int(v) => Ok(*v),
            other => Err(IrError::Pass(format!("expected integer, got {other:?}"))),
        }
    }
}

/// Interpreter state: buffers backing memref values.
#[derive(Debug, Default)]
pub struct Interp<'m> {
    module: Option<&'m Module>,
    buffers: Vec<Vec<f64>>,
    buffer_shapes: Vec<Vec<usize>>,
}

impl<'m> Interp<'m> {
    /// An interpreter without module context (no `func.call` support).
    pub fn new() -> Interp<'m> {
        Interp::default()
    }

    /// An interpreter that resolves `func.call` within `module`.
    pub fn with_module(module: &'m Module) -> Interp<'m> {
        Interp { module: Some(module), buffers: Vec::new(), buffer_shapes: Vec::new() }
    }

    /// Allocates a buffer and returns its handle as an [`RtValue::Buffer`].
    pub fn alloc_buffer(&mut self, shape: &[usize], data: Vec<f64>) -> RtValue {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape/data mismatch");
        self.buffers.push(data);
        self.buffer_shapes.push(shape.to_vec());
        RtValue::Buffer(self.buffers.len() - 1)
    }

    /// Reads back a buffer's contents.
    ///
    /// # Panics
    ///
    /// Panics on an invalid handle.
    pub fn buffer(&self, handle: &RtValue) -> &[f64] {
        match handle {
            RtValue::Buffer(id) => &self.buffers[*id],
            other => panic!("not a buffer: {other:?}"),
        }
    }

    /// Executes `func` with `args`; returns its results.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Pass`] on unsupported ops or type mismatches.
    pub fn call(&mut self, func: &Func, args: &[RtValue]) -> IrResult<Vec<RtValue>> {
        if args.len() != func.params.len() {
            return Err(IrError::Pass(format!(
                "@{} expects {} args, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let entry =
            func.body.entry().ok_or_else(|| IrError::Pass("function has no entry block".into()))?;
        let mut env: HashMap<Value, RtValue> = HashMap::new();
        for (arg, value) in entry.args.iter().zip(args) {
            env.insert(*arg, value.clone());
        }
        self.run_block(func, entry, &mut env)
    }

    fn flat_index(&self, buf: usize, idx: &[i64]) -> IrResult<usize> {
        let shape = &self.buffer_shapes[buf];
        if idx.len() != shape.len() {
            return Err(IrError::Pass(format!(
                "rank mismatch: {} indices for shape {shape:?}",
                idx.len()
            )));
        }
        let mut flat = 0usize;
        for (i, dim) in idx.iter().zip(shape) {
            if *i < 0 || *i as usize >= *dim {
                return Err(IrError::Pass(format!("index {i} out of bounds {dim}")));
            }
            flat = flat * dim + *i as usize;
        }
        Ok(flat)
    }

    /// Runs a block; returns the terminator's operand values.
    fn run_block(
        &mut self,
        func: &Func,
        block: &Block,
        env: &mut HashMap<Value, RtValue>,
    ) -> IrResult<Vec<RtValue>> {
        for op in &block.ops {
            if crate::registry::is_terminator(&op.name) {
                return op.operands.iter().map(|o| self.get(env, *o)).collect();
            }
            let results = self.eval_op(func, op, env)?;
            for (r, v) in op.results.iter().zip(results) {
                env.insert(*r, v);
            }
        }
        Ok(Vec::new())
    }

    fn get(&self, env: &HashMap<Value, RtValue>, v: Value) -> IrResult<RtValue> {
        env.get(&v).cloned().ok_or_else(|| IrError::Pass(format!("value {v} not bound at runtime")))
    }

    fn eval_op(
        &mut self,
        func: &Func,
        op: &Op,
        env: &mut HashMap<Value, RtValue>,
    ) -> IrResult<Vec<RtValue>> {
        let operand = |i: usize| -> IrResult<RtValue> { self.get(env, op.operands[i]) };
        match op.name.as_str() {
            "arith.constant" => {
                let ty = func.value_type(op.results[0]);
                let v = match op.attr("value") {
                    Some(Attr::Float(f)) => RtValue::Float(*f),
                    Some(Attr::Int(i)) if ty.is_int() => RtValue::Int(*i),
                    Some(Attr::Int(i)) => RtValue::Float(*i as f64),
                    other => return Err(IrError::Pass(format!("bad constant {other:?}"))),
                };
                Ok(vec![v])
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
            | "arith.minf" => {
                let a = operand(0)?.as_float()?;
                let b = operand(1)?.as_float()?;
                let r = match op.name.as_str() {
                    "arith.addf" => a + b,
                    "arith.subf" => a - b,
                    "arith.mulf" => a * b,
                    "arith.divf" => a / b,
                    "arith.maxf" => a.max(b),
                    _ => a.min(b),
                };
                Ok(vec![RtValue::Float(r)])
            }
            "arith.negf" => Ok(vec![RtValue::Float(-operand(0)?.as_float()?)]),
            "arith.sqrtf" => Ok(vec![RtValue::Float(operand(0)?.as_float()?.sqrt())]),
            "arith.expf" => Ok(vec![RtValue::Float(operand(0)?.as_float()?.exp())]),
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi" => {
                let a = operand(0)?.as_int()?;
                let b = operand(1)?.as_int()?;
                let r = match op.name.as_str() {
                    "arith.addi" => a.wrapping_add(b),
                    "arith.subi" => a.wrapping_sub(b),
                    "arith.muli" => a.wrapping_mul(b),
                    "arith.divi" if b != 0 => a.wrapping_div(b),
                    "arith.remi" if b != 0 => a.wrapping_rem(b),
                    _ => return Err(IrError::Pass("integer division by zero".into())),
                };
                Ok(vec![RtValue::Int(r)])
            }
            "arith.cmpf" | "arith.cmpi" => {
                let pred = op
                    .attr("pred")
                    .and_then(Attr::as_str)
                    .ok_or_else(|| IrError::Pass("cmp without pred".into()))?;
                let (a, b) = if op.name == "arith.cmpf" {
                    (operand(0)?.as_float()?, operand(1)?.as_float()?)
                } else {
                    (operand(0)?.as_int()? as f64, operand(1)?.as_int()? as f64)
                };
                let r = match pred {
                    "lt" => a < b,
                    "le" => a <= b,
                    "gt" => a > b,
                    "ge" => a >= b,
                    "eq" => a == b,
                    "ne" => a != b,
                    other => return Err(IrError::Pass(format!("unknown pred '{other}'"))),
                };
                Ok(vec![RtValue::Int(i64::from(r))])
            }
            "arith.select" => {
                let c = operand(0)?.as_int()?;
                Ok(vec![if c != 0 { operand(1)? } else { operand(2)? }])
            }
            "arith.sitofp" => Ok(vec![RtValue::Float(operand(0)?.as_int()? as f64)]),
            "arith.fptosi" => Ok(vec![RtValue::Int(operand(0)?.as_float()? as i64)]),
            "loop.for" => {
                let l = ForLoop::of(op)?;
                let mut carried: Vec<RtValue> =
                    op.operands.iter().map(|o| self.get(env, *o)).collect::<IrResult<_>>()?;
                for k in 0..l.trips() {
                    env.insert(l.iv, RtValue::Int(l.value(k)));
                    for (arg, v) in l.carried().iter().zip(&carried) {
                        env.insert(*arg, v.clone());
                    }
                    carried = self.run_block(func, l.body, env)?;
                }
                Ok(carried)
            }
            "mem.alloc" => {
                let ty = func.value_type(op.results[0]);
                let shape =
                    ty.shape().ok_or_else(|| IrError::Pass("alloc of non-memref".into()))?.to_vec();
                let size = shape.iter().product();
                Ok(vec![self.alloc_buffer(&shape, vec![0.0; size])])
            }
            "mem.load" => {
                let buf = match operand(0)? {
                    RtValue::Buffer(id) => id,
                    other => return Err(IrError::Pass(format!("load from {other:?}"))),
                };
                let idx: Vec<i64> = op.operands[1..]
                    .iter()
                    .map(|o| self.get(env, *o)?.as_int())
                    .collect::<IrResult<_>>()?;
                let flat = self.flat_index(buf, &idx)?;
                Ok(vec![RtValue::Float(self.buffers[buf][flat])])
            }
            "mem.store" => {
                let value = operand(0)?.as_float()?;
                let buf = match operand(1)? {
                    RtValue::Buffer(id) => id,
                    other => return Err(IrError::Pass(format!("store into {other:?}"))),
                };
                let idx: Vec<i64> = op.operands[2..]
                    .iter()
                    .map(|o| self.get(env, *o)?.as_int())
                    .collect::<IrResult<_>>()?;
                let flat = self.flat_index(buf, &idx)?;
                self.buffers[buf][flat] = value;
                Ok(vec![])
            }
            "mem.copy" => {
                let (src, dst) = (operand(0)?, operand(1)?);
                match (src, dst) {
                    (RtValue::Buffer(s), RtValue::Buffer(d)) => {
                        let data = self.buffers[s].clone();
                        self.buffers[d] = data;
                        Ok(vec![])
                    }
                    other => Err(IrError::Pass(format!("copy between {other:?}"))),
                }
            }
            "func.call" => {
                let callee_name = op
                    .attr("callee")
                    .and_then(Attr::as_str)
                    .ok_or_else(|| IrError::Pass("call without callee".into()))?;
                let module =
                    self.module.ok_or_else(|| IrError::Pass("no module for call".into()))?;
                let callee = module
                    .func(callee_name)
                    .ok_or_else(|| IrError::UnknownSymbol(callee_name.to_owned()))?;
                let args: Vec<RtValue> =
                    op.operands.iter().map(|o| self.get(env, *o)).collect::<IrResult<_>>()?;
                self.call(callee, &args)
            }
            name if name.starts_with("tensor.") => {
                let t = TensorOp::of(func, op)?;
                let data = self.eval_tensor_op(&t, op, env)?;
                Ok(vec![RtValue::Tensor { shape: t.shape, data }])
            }
            other => Err(IrError::Pass(format!("interpreter does not support '{other}'"))),
        }
    }

    /// The elements of the result of `t`, the view of `op`.
    fn eval_tensor_op(
        &self,
        t: &TensorOp,
        op: &Op,
        env: &HashMap<Value, RtValue>,
    ) -> IrResult<Vec<f64>> {
        // The data of operand `i`, which must hold the shape its type
        // declares.
        let arg = |i: usize, shape: &[usize]| match env.get(&op.operands[i]) {
            Some(RtValue::Tensor { shape: s, data })
                if s == shape && data.len() == shape.iter().product::<usize>() =>
            {
                Ok(data.as_slice())
            }
            _ => Err(IrError::Pass(format!(
                "operand {} is not a tensor of shape {shape:?}",
                op.operands[i]
            ))),
        };
        Ok(match &t.kind {
            TensorKind::Fill(value) => vec![*value; t.shape.iter().product()],
            TensorKind::Matmul => {
                crate::simd::matmul(arg(0, t.a)?, arg(1, t.b)?, t.a[0], t.a[1], t.b[1])
            }
            TensorKind::Add | TensorKind::Sub | TensorKind::Mul => {
                let f: fn(f64, f64) -> f64 = match t.kind {
                    TensorKind::Add => |x, y| x + y,
                    TensorKind::Sub => |x, y| x - y,
                    _ => |x, y| x * y,
                };
                arg(0, t.a)?.iter().zip(arg(1, t.b)?).map(|(x, y)| f(*x, *y)).collect()
            }
            TensorKind::Scale => {
                let s = self.get(env, op.operands[0])?.as_float()?;
                arg(1, t.a)?.iter().map(|x| s * x).collect()
            }
            TensorKind::Relu => arg(0, t.a)?.iter().map(|x| x.max(0.0)).collect(),
            TensorKind::Sigmoid => crate::simd::sigmoid(arg(0, t.a)?),
            TensorKind::Transpose(perm) => {
                let data = arg(0, t.a)?;
                let in_strides = strides(t.a);
                let mut out = vec![0.0; data.len()];
                let mut out_idx = vec![0usize; t.a.len()];
                for (flat, slot) in out.iter_mut().enumerate() {
                    unflatten(flat, &t.shape, &mut out_idx);
                    // out[idx] = in at position where in-dim perm[d] = idx[d].
                    let mut in_flat = 0;
                    for (d, p) in perm.iter().enumerate() {
                        in_flat += out_idx[d] * in_strides[*p];
                    }
                    *slot = data[in_flat];
                }
                out
            }
            TensorKind::Reduce(dims, kind) => {
                let (shape, data) = (t.a, arg(0, t.a)?);
                let kept: Vec<usize> = (0..shape.len()).filter(|d| !dims.contains(d)).collect();
                let mut out = vec![kind.identity(); t.shape.iter().product()];
                let mut idx = vec![0usize; shape.len()];
                for (flat, v) in data.iter().enumerate() {
                    unflatten(flat, shape, &mut idx);
                    let o = kept.iter().fold(0, |o, d| o * shape[*d] + idx[*d]);
                    out[o] = match kind {
                        ReduceKind::Max => out[o].max(*v),
                        ReduceKind::Min => out[o].min(*v),
                        ReduceKind::Sum | ReduceKind::Mean => out[o] + v,
                    };
                }
                if *kind == ReduceKind::Mean {
                    let count = dims.iter().map(|d| shape[*d]).product::<usize>() as f64;
                    for v in &mut out {
                        *v /= count;
                    }
                }
                out
            }
            TensorKind::Stencil(weights) => {
                // Semantics match the HLS lowering: 1-D convolution along
                // the last dim, borders copied through.
                let (outer, last) = t.a.split_at(t.a.len() - 1);
                crate::simd::stencil_rows(arg(0, t.a)?, outer.iter().product(), last[0], weights)
            }
            TensorKind::Conv2d => {
                // Matches the HLS lowering: interior convolution, borders
                // copied through.
                let (xd, kd) = (arg(0, t.a)?, arg(1, t.b)?);
                let (h, w, kh, kw) = (t.a[0], t.a[1], t.b[0], t.b[1]);
                let (ry, rx) = (kh / 2, kw / 2);
                let mut out = xd.to_vec();
                for i in ry..h - ry {
                    for j in rx..w - rx {
                        let mut acc = 0.0;
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = i + ky - ry;
                                let ix = j + kx - rx;
                                acc += xd[iy * w + ix] * kd[ky * kw + kx];
                            }
                        }
                        out[i * w + j] = acc;
                    }
                }
                out
            }
        })
    }
}

fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * shape[d + 1];
    }
    s
}

fn unflatten(mut flat: usize, shape: &[usize], idx: &mut [usize]) {
    for d in (0..shape.len()).rev() {
        idx[d] = flat % shape[d];
        flat /= shape[d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::dialects::tensor as tdl;
    use crate::types::Type;

    #[test]
    fn scalar_arithmetic_evaluates() {
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
        let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F64);
        let p = fb.binary("arith.mulf", s, fb.arg(0), Type::F64);
        fb.ret(&[p]);
        let f = fb.finish();
        let out = Interp::new().call(&f, &[RtValue::Float(3.0), RtValue::Float(4.0)]).unwrap();
        assert_eq!(out, vec![RtValue::Float(21.0)]);
    }

    #[test]
    fn loops_accumulate() {
        let mut fb = FuncBuilder::new("sum", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(1, 6, 1, &[init], |fb, iv, c| {
            let x = fb.unary("arith.sitofp", iv, Type::F64);
            vec![fb.binary("arith.addf", c[0], x, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let f = fb.finish();
        let out = Interp::new().call(&f, &[]).unwrap();
        assert_eq!(out, vec![RtValue::Float(15.0)]); // 1+2+3+4+5
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a_ty = Type::tensor(Type::F64, &[2, 2]);
        let mut fb = FuncBuilder::new("mm", &[a_ty.clone(), a_ty.clone()], &[a_ty]);
        let (x, y) = (fb.arg(0), fb.arg(1));
        let r = tdl::matmul(&mut fb, x, y);
        fb.ret(&[r]);
        let f = fb.finish();
        let a = RtValue::tensor(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = RtValue::tensor(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let out = Interp::new().call(&f, &[a, b]).unwrap();
        assert_eq!(out[0], RtValue::tensor(&[2, 2], vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn transpose_and_reduce_compose() {
        let a_ty = Type::tensor(Type::F64, &[2, 3]);
        let mut fb = FuncBuilder::new("f", &[a_ty], &[Type::tensor(Type::F64, &[3])]);
        let x = fb.arg(0);
        let t = tdl::transpose(&mut fb, x, &[1, 0]); // 3x2
        let r = tdl::reduce(&mut fb, t, &[1], ReduceKind::Sum); // sum rows -> [3]
        fb.ret(&[r]);
        let f = fb.finish();
        let input = RtValue::tensor(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = Interp::new().call(&f, &[input]).unwrap();
        // Transposed columns: [1,4], [2,5], [3,6] -> sums 5, 7, 9.
        assert_eq!(out[0], RtValue::tensor(&[3], vec![5.0, 7.0, 9.0]));
    }

    #[test]
    fn memref_load_store_round_trip() {
        use crate::types::MemSpace;
        let buf_ty = Type::memref(Type::F64, &[4], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[buf_ty], &[]);
        let buf = fb.arg(0);
        fb.for_loop(0, 4, 1, &[], |fb, iv, _| {
            let v = fb.load(buf, &[iv], Type::F64);
            let two = fb.const_f(2.0, Type::F64);
            let d = fb.binary("arith.mulf", v, two, Type::F64);
            fb.store(d, buf, &[iv]);
            vec![]
        });
        fb.ret(&[]);
        let f = fb.finish();
        let mut interp = Interp::new();
        let handle = interp.alloc_buffer(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        interp.call(&f, std::slice::from_ref(&handle)).unwrap();
        assert_eq!(interp.buffer(&handle), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn out_of_bounds_load_is_an_error() {
        use crate::types::MemSpace;
        let buf_ty = Type::memref(Type::F64, &[2], MemSpace::Host);
        let mut fb = FuncBuilder::new("f", &[buf_ty], &[Type::F64]);
        let i = fb.const_i(5, Type::Index);
        let v = fb.load(fb.arg(0), &[i], Type::F64);
        fb.ret(&[v]);
        let f = fb.finish();
        let mut interp = Interp::new();
        let handle = interp.alloc_buffer(&[2], vec![0.0, 1.0]);
        assert!(interp.call(&f, &[handle]).is_err());
    }

    #[test]
    fn calls_resolve_through_the_module() {
        let mut m = Module::new("m");
        let mut callee = FuncBuilder::new("double", &[Type::F64], &[Type::F64]);
        let a0 = callee.arg(0);
        let two = callee.const_f(2.0, Type::F64);
        let d = callee.binary("arith.mulf", a0, two, Type::F64);
        callee.ret(&[d]);
        m.push(callee.finish());
        let mut caller = FuncBuilder::new("main", &[], &[Type::F64]);
        let x = caller.const_f(21.0, Type::F64);
        let r = caller.call("double", &[x], &[Type::F64]);
        caller.ret(&[r[0]]);
        m.push(caller.finish());
        let main = m.func("main").unwrap();
        let out = Interp::with_module(&m).call(main, &[]).unwrap();
        assert_eq!(out, vec![RtValue::Float(42.0)]);
    }
}
