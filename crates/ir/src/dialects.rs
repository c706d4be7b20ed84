//! Typed helper constructors for the non-builtin dialects.
//!
//! These functions build well-formed [`Op`]s for the `tensor`, `df` and
//! `secure` dialects so frontends don't assemble op records by hand.

use crate::attr::Attr;
use crate::builder::FuncBuilder;
use crate::ir::{Op, Value};
use crate::types::Type;

/// Helpers for the `tensor` dialect: EVEREST's data-centric dense-algebra
/// abstraction (paper III-B). Each types its result by the op's shape rule
/// ([`TensorKind::result_shape`](crate::TensorKind::result_shape)).
///
/// # Panics
///
/// Each helper panics when its operands or attributes break that rule.
pub mod tensor {
    use super::*;
    use crate::tensor_op::{ReduceKind, TensorOp};

    /// Pushes `op` applied to `operands`, typed by its shape rule.
    fn push(fb: &mut FuncBuilder, mut op: Op, operands: &[Value]) -> Value {
        op.operands = operands.to_vec();
        let ty = match TensorOp::decode(&op, |v| fb.value_type(v)) {
            Ok(t) => t.result_type(),
            Err(e) => panic!("{e}"),
        };
        fb.op1(op, ty)
    }

    fn indices(list: &[usize]) -> Attr {
        Attr::ints(&list.iter().map(|i| *i as i64).collect::<Vec<_>>())
    }

    /// Emits `tensor.matmul a, b`.
    pub fn matmul(fb: &mut FuncBuilder, a: Value, b: Value) -> Value {
        push(fb, Op::new("tensor.matmul"), &[a, b])
    }

    /// Emits an elementwise op (`tensor.add`/`sub`/`mul`).
    pub fn elementwise(fb: &mut FuncBuilder, name: &str, a: Value, b: Value) -> Value {
        push(fb, Op::new(name), &[a, b])
    }

    /// Emits `tensor.scale s, t`: the scalar `s` times every element of `t`.
    pub fn scale(fb: &mut FuncBuilder, s: Value, t: Value) -> Value {
        push(fb, Op::new("tensor.scale"), &[s, t])
    }

    /// Emits `tensor.transpose` with the given permutation.
    pub fn transpose(fb: &mut FuncBuilder, a: Value, perm: &[usize]) -> Value {
        push(fb, Op::new("tensor.transpose").with_attr("perm", indices(perm)), &[a])
    }

    /// Emits `tensor.reduce` folding the given dimensions away.
    pub fn reduce(fb: &mut FuncBuilder, a: Value, dims: &[usize], kind: ReduceKind) -> Value {
        let op = Op::new("tensor.reduce")
            .with_attr("dims", indices(dims))
            .with_attr("kind", kind.name());
        push(fb, op, &[a])
    }

    /// Emits an odd-width `tensor.stencil` with the given weights.
    pub fn stencil(fb: &mut FuncBuilder, a: Value, weights: &[f64]) -> Value {
        let weights = Attr::Array(weights.iter().map(|w| Attr::Float(*w)).collect());
        push(fb, Op::new("tensor.stencil").with_attr("weights", weights), &[a])
    }

    /// Emits `tensor.conv2d x, k`.
    pub fn conv2d(fb: &mut FuncBuilder, x: Value, k: Value) -> Value {
        push(fb, Op::new("tensor.conv2d"), &[x, k])
    }

    /// Emits `tensor.relu`.
    pub fn relu(fb: &mut FuncBuilder, a: Value) -> Value {
        push(fb, Op::new("tensor.relu"), &[a])
    }

    /// Emits `tensor.sigmoid`.
    pub fn sigmoid(fb: &mut FuncBuilder, a: Value) -> Value {
        push(fb, Op::new("tensor.sigmoid"), &[a])
    }
}

/// Helpers for the `df` dialect: workflow orchestration ops that lower to
/// HyperLoom-style task graphs (paper III-A).
pub mod df {
    use super::*;

    /// Emits a `df.task` node invoking `callee` on `inputs`.
    pub fn task(
        fb: &mut FuncBuilder,
        callee: &str,
        inputs: &[Value],
        result_types: &[Type],
    ) -> Vec<Value> {
        let mut op = Op::new("df.task").with_attr("callee", callee);
        op.operands = inputs.to_vec();
        fb.op(op, result_types)
    }

    /// Emits a `df.source` producing a stream/token of external data.
    pub fn source(fb: &mut FuncBuilder, kind: &str, ty: Type) -> Value {
        fb.op1(Op::new("df.source").with_attr("kind", kind), ty)
    }

    /// Emits a `df.sink` consuming final results.
    pub fn sink(fb: &mut FuncBuilder, kind: &str, values: &[Value]) {
        let mut op = Op::new("df.sink").with_attr("kind", kind);
        op.operands = values.to_vec();
        fb.push_op(op);
    }
}

/// Helpers for the `secure` dialect: data-protection annotations that the
/// backend turns into crypto calls and DIFT instrumentation (paper III-A).
pub mod secure {
    use super::*;

    /// Emits `secure.taint` labelling a value as sensitive.
    pub fn taint(fb: &mut FuncBuilder, v: Value, label: &str) -> Value {
        let ty = fb.value_type(v).clone();
        let mut op = Op::new("secure.taint").with_attr("label", label);
        op.operands = vec![v];
        fb.op1(op, ty)
    }

    /// Emits `secure.encrypt data, key`, producing ciphertext bytes.
    pub fn encrypt(fb: &mut FuncBuilder, data: Value, key: Value) -> Value {
        let n = fb.value_type(data).byte_size().unwrap_or(0);
        let mut op = Op::new("secure.encrypt");
        op.operands = vec![data, key];
        // GCM adds a 12-byte nonce and a 16-byte tag.
        fb.op1(op, Type::Bytes(n + 28))
    }

    /// Emits `secure.check` asserting a runtime policy over a value.
    pub fn check(fb: &mut FuncBuilder, v: Value, policy: &str) {
        let mut op = Op::new("secure.check").with_attr("policy", policy);
        op.operands = vec![v];
        fb.push_op(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_func;

    #[test]
    fn matmul_infers_result_shape() {
        let a = Type::tensor(Type::F32, &[4, 8]);
        let b = Type::tensor(Type::F32, &[8, 3]);
        let mut fb = FuncBuilder::new("mm", &[a, b], &[Type::tensor(Type::F32, &[4, 3])]);
        let (a0, a1) = (fb.arg(0), fb.arg(1));
        let c = tensor::matmul(&mut fb, a0, a1);
        assert_eq!(fb.value_type(c), &Type::tensor(Type::F32, &[4, 3]));
        fb.ret(&[c]);
        verify_func(&fb.finish()).unwrap();
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn matmul_rejects_rank1() {
        let a = Type::tensor(Type::F32, &[4]);
        let mut fb = FuncBuilder::new("mm", &[a.clone(), a], &[]);
        let (a0, a1) = (fb.arg(0), fb.arg(1));
        tensor::matmul(&mut fb, a0, a1);
    }

    #[test]
    fn transpose_permutes_shape() {
        let a = Type::tensor(Type::F64, &[2, 3, 5]);
        let mut fb = FuncBuilder::new("t", &[a], &[Type::tensor(Type::F64, &[5, 2, 3])]);
        let a0 = fb.arg(0);
        let r = tensor::transpose(&mut fb, a0, &[2, 0, 1]);
        assert_eq!(fb.value_type(r).shape(), Some(&[5, 2, 3][..]));
        fb.ret(&[r]);
        verify_func(&fb.finish()).unwrap();
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn transpose_rejects_bad_perm() {
        let a = Type::tensor(Type::F64, &[2, 3]);
        let mut fb = FuncBuilder::new("t", &[a], &[]);
        let a0 = fb.arg(0);
        tensor::transpose(&mut fb, a0, &[0, 0]);
    }

    #[test]
    fn reduce_removes_dims() {
        let a = Type::tensor(Type::F32, &[6, 7]);
        let mut fb = FuncBuilder::new("r", &[a], &[Type::tensor(Type::F32, &[6])]);
        let a0 = fb.arg(0);
        let r = tensor::reduce(&mut fb, a0, &[1], crate::ReduceKind::Sum);
        assert_eq!(fb.value_type(r).shape(), Some(&[6][..]));
        fb.ret(&[r]);
        verify_func(&fb.finish()).unwrap();
    }

    #[test]
    fn workflow_graph_builds_and_verifies() {
        let t = Type::tensor(Type::F32, &[16]);
        let mut fb = FuncBuilder::new("wf", &[], &[]);
        let src = df::source(&mut fb, "sensors", t.clone());
        let out = df::task(&mut fb, "clean", &[src], std::slice::from_ref(&t));
        let pred = df::task(&mut fb, "predict", &[out[0]], &[t]);
        df::sink(&mut fb, "dashboard", &[pred[0]]);
        fb.ret(&[]);
        verify_func(&fb.finish()).unwrap();
    }

    #[test]
    fn secure_ops_verify() {
        let data = Type::tensor(Type::F64, &[8]);
        let key = Type::Bytes(16);
        let mut fb = FuncBuilder::new("s", &[data, key], &[]);
        let a0 = fb.arg(0);
        let tainted = secure::taint(&mut fb, a0, "pii");
        let a1 = fb.arg(1);
        let ct = secure::encrypt(&mut fb, tainted, a1);
        assert_eq!(fb.value_type(ct), &Type::Bytes(8 * 8 + 28));
        secure::check(&mut fb, ct, "no-declassify");
        fb.ret(&[]);
        verify_func(&fb.finish()).unwrap();
    }
}
