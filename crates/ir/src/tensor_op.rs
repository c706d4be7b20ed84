//! The `tensor` dialect's ops, decoded once.
//!
//! [`TensorOp::of`] reads a `tensor.*` op's attributes, checks them and
//! its operand types, and gives the result shape by the op's one shape
//! rule, [`TensorKind::result_shape`]. The verifier, the interpreter, the
//! HLS lowering, the workload analysis and the DSL checker all read tensor
//! ops through it, so what verifies is what runs, and the interpreter and
//! the lowered loops run the same program.

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::ir::{Func, Op, Value};
use crate::types::Type;

/// How `tensor.reduce` folds its dimensions away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// The sum of the entries.
    Sum,
    /// The largest entry.
    Max,
    /// The smallest entry.
    Min,
    /// The sum over the number of entries.
    Mean,
}

impl ReduceKind {
    const ALL: [ReduceKind; 4] =
        [ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min, ReduceKind::Mean];

    /// The kind named `name`: `"sum"`, `"max"`, `"min"` or `"mean"`.
    pub fn parse(name: &str) -> Option<ReduceKind> {
        ReduceKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The name the `kind` attribute spells.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReduceKind::Sum => "sum",
            ReduceKind::Max => "max",
            ReduceKind::Min => "min",
            ReduceKind::Mean => "mean",
        }
    }

    /// The value a fold starts from: 0 for a sum or a mean, −∞ for a
    /// max, +∞ for a min.
    pub fn identity(self) -> f64 {
        match self {
            ReduceKind::Sum | ReduceKind::Mean => 0.0,
            ReduceKind::Max => f64::NEG_INFINITY,
            ReduceKind::Min => f64::INFINITY,
        }
    }
}

/// What a `tensor.*` op computes, with its attributes decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorKind {
    /// `tensor.fill {value}`: every element of the declared result is
    /// `value`.
    Fill(f64),
    /// `tensor.matmul a, b`: `[m, k] × [k, n] → [m, n]`.
    Matmul,
    /// `tensor.add a, b`: elementwise over two tensors of one shape.
    Add,
    /// `tensor.sub a, b`: elementwise over two tensors of one shape.
    Sub,
    /// `tensor.mul a, b`: elementwise over two tensors of one shape.
    Mul,
    /// `tensor.scale s, t`: the scalar `s` times every element of `t`.
    Scale,
    /// `tensor.transpose a {perm}`: result dimension `d` is input
    /// dimension `perm[d]`.
    Transpose(Vec<usize>),
    /// `tensor.reduce a {dims, kind}`: folds each listed dimension away.
    Reduce(Vec<usize>, ReduceKind),
    /// `tensor.stencil a {weights}`: a 1-D convolution along the last
    /// dimension by an odd number of weights, no more than that dimension
    /// holds; the entries within its radius of either end are copied
    /// through.
    Stencil(Vec<f64>),
    /// `tensor.conv2d x, k`: a 2-D convolution of `x` by an odd-sized
    /// kernel no larger than `x`; the borders are copied through.
    Conv2d,
    /// `tensor.relu a`: `max(x, 0)` elementwise.
    Relu,
    /// `tensor.sigmoid a`: `1 / (1 + e^-x)` elementwise.
    Sigmoid,
}

impl TensorKind {
    /// The op's shape rule: the result shape for tensor operands of shapes
    /// `a` and `b`. `b` is empty for an op that reads one tensor; a
    /// scale's `a` is its tensor's, and a fill's is its declared result's.
    ///
    /// # Errors
    ///
    /// Why the shapes and attributes do not fit the op.
    pub fn result_shape(&self, a: &[usize], b: &[usize]) -> Result<Vec<usize>, String> {
        let rank = a.len();
        match self {
            TensorKind::Fill(_) | TensorKind::Scale | TensorKind::Relu | TensorKind::Sigmoid => {
                Ok(a.to_vec())
            }
            TensorKind::Add | TensorKind::Sub | TensorKind::Mul if a == b => Ok(a.to_vec()),
            TensorKind::Add | TensorKind::Sub | TensorKind::Mul => {
                Err(format!("operand shapes {a:?} and {b:?} differ"))
            }
            TensorKind::Matmul => match (a, b) {
                ([m, k], [k2, n]) if k == k2 => Ok(vec![*m, *n]),
                ([_, k], [k2, _]) => Err(format!("inner dimensions {k} and {k2} differ")),
                _ => Err(format!("operands {a:?} and {b:?} are not both rank-2")),
            },
            TensorKind::Transpose(perm) => {
                let mut seen = vec![false; rank];
                let is_perm = perm.len() == rank
                    && perm
                        .iter()
                        .all(|p| seen.get_mut(*p).is_some_and(|s| !std::mem::replace(s, true)));
                if !is_perm {
                    return Err(format!(
                        "perm {perm:?} is not a permutation of the {rank} dimensions"
                    ));
                }
                Ok(perm.iter().map(|p| a[*p]).collect())
            }
            TensorKind::Reduce(dims, _) => {
                for (i, d) in dims.iter().enumerate() {
                    if *d >= rank {
                        return Err(format!("dim {d} is out of range for rank {rank}"));
                    }
                    if dims[..i].contains(d) {
                        return Err(format!("dim {d} is listed twice"));
                    }
                }
                Ok((0..rank).filter(|d| !dims.contains(d)).map(|d| a[d]).collect())
            }
            TensorKind::Stencil(weights) => match (weights.len(), a.last()) {
                (width, _) if width % 2 == 0 => Err(format!("width {width} is not odd")),
                (width, Some(last)) if width > *last => {
                    Err(format!("width {width} is wider than the last dimension {last}"))
                }
                (_, Some(_)) => Ok(a.to_vec()),
                (_, None) => Err("a stencil needs a tensor of rank 1 or more".into()),
            },
            TensorKind::Conv2d => match (a, b) {
                ([h, w], [kh, kw]) if kh > h || kw > w => {
                    Err(format!("kernel {b:?} is larger than the input {a:?}"))
                }
                ([_, _], [kh, kw]) if kh % 2 == 0 || kw % 2 == 0 => {
                    Err(format!("kernel {b:?} has an even side"))
                }
                ([_, _], [_, _]) => Ok(a.to_vec()),
                _ => Err(format!("operands {a:?} and {b:?} are not both rank-2")),
            },
        }
    }
}

/// A `tensor.*` op, decoded once: what it computes, the shapes of the
/// tensors it reads and the result shape its rule gives.
///
/// Every reader of a tensor op goes through [`TensorOp::of`] — the
/// verifier compares the declared result type with [`TensorOp::result_type`],
/// and the interpreter, the HLS lowering and the workload analysis read
/// nothing of the op but its operands and this view.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorOp<'a> {
    /// What the op computes, with its attributes.
    pub kind: TensorKind,
    /// The element type of every tensor the op reads and of its result
    /// (`f32` or `f64`; a scale factor is a scalar of this type).
    pub elem: &'a Type,
    /// The shape of the first tensor operand (a scale's tensor, a fill's
    /// declared result).
    pub a: &'a [usize],
    /// The shape of the second tensor operand; empty when there is none.
    pub b: &'a [usize],
    /// The result shape, by [`TensorKind::result_shape`].
    pub shape: Vec<usize>,
}

impl<'a> TensorOp<'a> {
    /// Decodes `op`, a `tensor.*` op of `func`.
    ///
    /// # Errors
    ///
    /// [`IrError::Verify`] when `op` is not a tensor op; when an attribute
    /// is missing or not of its kind; when the operands are not the float
    /// tensors of one element type (and, for a scale, the scalar of that
    /// type) the op takes; or when their shapes break the op's rule.
    pub fn of(func: &'a Func, op: &Op) -> IrResult<TensorOp<'a>> {
        TensorOp::decode(op, |v| func.value_type(v))
    }

    /// [`TensorOp::of`] with the operand types read through `ty`.
    pub(crate) fn decode(op: &Op, ty: impl Fn(Value) -> &'a Type) -> IrResult<TensorOp<'a>> {
        TensorOp::read(op, ty).map_err(|msg| IrError::Verify(format!("{}: {msg}", op.name)))
    }

    fn read(op: &Op, ty: impl Fn(Value) -> &'a Type) -> Result<TensorOp<'a>, String> {
        let kind = match op.name.as_str() {
            "tensor.fill" => {
                TensorKind::Fill(attr(op, "value")?.as_float().ok_or("value is not a number")?)
            }
            "tensor.matmul" => TensorKind::Matmul,
            "tensor.add" => TensorKind::Add,
            "tensor.sub" => TensorKind::Sub,
            "tensor.mul" => TensorKind::Mul,
            "tensor.scale" => TensorKind::Scale,
            "tensor.transpose" => TensorKind::Transpose(indices(op, "perm")?),
            "tensor.reduce" => {
                let kind = attr(op, "kind")?;
                let kind = kind
                    .as_str()
                    .and_then(ReduceKind::parse)
                    .ok_or_else(|| format!("kind {kind} is not sum, max, min or mean"))?;
                TensorKind::Reduce(indices(op, "dims")?, kind)
            }
            "tensor.stencil" => {
                let weights = attr(op, "weights")?;
                TensorKind::Stencil(
                    weights
                        .as_array()
                        .and_then(|ws| ws.iter().map(Attr::as_float).collect())
                        .ok_or_else(|| format!("weights = {weights} is not a list of numbers"))?,
                )
            }
            "tensor.conv2d" => TensorKind::Conv2d,
            "tensor.relu" => TensorKind::Relu,
            "tensor.sigmoid" => TensorKind::Sigmoid,
            other => return Err(format!("{other} is not a tensor op")),
        };
        // The operand count, and the values whose tensor types the rule
        // reads: a fill reads none, but takes its shape from its result.
        let (arity, tensors) = match kind {
            TensorKind::Fill(_) => (0, op.results.get(..1).ok_or("declares no result")?),
            TensorKind::Scale => (2, op.operands.get(1..).unwrap_or_default()),
            TensorKind::Matmul
            | TensorKind::Add
            | TensorKind::Sub
            | TensorKind::Mul
            | TensorKind::Conv2d => (2, &op.operands[..]),
            _ => (1, &op.operands[..]),
        };
        if op.operands.len() != arity {
            return Err(format!("takes {arity} operands, got {}", op.operands.len()));
        }
        let mut shapes: [&[usize]; 2] = [&[], &[]];
        let mut elem: Option<&Type> = None;
        for (shape, v) in shapes.iter_mut().zip(tensors) {
            let Type::Tensor { elem: e, shape: s } = ty(*v) else {
                return Err(format!("{v} is a {}, not a tensor", ty(*v)));
            };
            match elem {
                _ if !e.is_float() => return Err(format!("{v} holds {e}, not floats")),
                Some(first) if first != &**e => {
                    return Err(format!("operands hold {first} and {e}"));
                }
                _ => elem = Some(e),
            }
            *shape = s;
        }
        let elem = elem.expect("every tensor op reads or declares a tensor");
        if kind == TensorKind::Scale && ty(op.operands[0]) != elem {
            return Err(format!(
                "scale factor {} is a {}, not a {elem}",
                op.operands[0],
                ty(op.operands[0])
            ));
        }
        let [a, b] = shapes;
        let shape = kind.result_shape(a, b)?;
        Ok(TensorOp { kind, elem, a, b, shape })
    }

    /// The result type: a tensor of [`TensorOp::shape`] over
    /// [`TensorOp::elem`].
    pub fn result_type(&self) -> Type {
        Type::tensor(self.elem.clone(), &self.shape)
    }
}

fn attr<'o>(op: &'o Op, key: &str) -> Result<&'o Attr, String> {
    op.attr(key).ok_or_else(|| format!("missing '{key}'"))
}

/// The list attribute `key` as dimension indices.
fn indices(op: &Op, key: &str) -> Result<Vec<usize>, String> {
    let list = attr(op, key)?;
    list.as_array()
        .and_then(|items| items.iter().map(|i| usize::try_from(i.as_int()?).ok()).collect())
        .ok_or_else(|| format!("{key} = {list} is not a list of dimension indices"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    /// Decodes `op` applied to parameters of the given types: its result
    /// type, or why it does not decode.
    fn decode(params: &[Type], mut op: Op) -> Result<Type, String> {
        let fb = FuncBuilder::new("f", params, &[]);
        op.operands = (0..params.len()).map(|i| fb.arg(i)).collect();
        let func = fb.finish();
        TensorOp::of(&func, &op).map(|t| t.result_type()).map_err(|e| e.to_string())
    }

    fn t(shape: &[usize]) -> Type {
        Type::tensor(Type::F64, shape)
    }

    fn ints(v: &[i64]) -> Attr {
        Attr::Array(v.iter().map(|i| Attr::Int(*i)).collect())
    }

    #[test]
    fn the_rule_gives_each_result_type() {
        let of = |params: &[Type], op: Op| decode(params, op).unwrap();
        assert_eq!(of(&[t(&[2, 3]), t(&[3, 5])], Op::new("tensor.matmul")), t(&[2, 5]));
        let op = Op::new("tensor.transpose").with_attr("perm", ints(&[2, 0, 1]));
        assert_eq!(of(&[t(&[2, 3, 4])], op), t(&[4, 2, 3]));
        let op = Op::new("tensor.reduce").with_attr("dims", ints(&[2, 0])).with_attr("kind", "max");
        assert_eq!(of(&[t(&[2, 3, 4])], op), t(&[3]));
        assert_eq!(of(&[Type::F64, t(&[7])], Op::new("tensor.scale")), t(&[7]));
        assert_eq!(of(&[t(&[5, 5]), t(&[3, 3])], Op::new("tensor.conv2d")), t(&[5, 5]));
        let mut fb = FuncBuilder::new("f", &[], &[]);
        let mut fill = Op::new("tensor.fill").with_attr("value", 2);
        fill.results.push(fb.const_f(0.0, Type::tensor(Type::F32, &[3])));
        let func = fb.finish();
        let t = TensorOp::of(&func, &fill).unwrap();
        assert_eq!(
            (t.result_type(), t.kind),
            (Type::tensor(Type::F32, &[3]), TensorKind::Fill(2.0))
        );
    }

    #[test]
    fn what_no_reader_can_run_is_rejected() {
        let reason = |params: &[Type], op: Op| decode(params, op).unwrap_err();
        let reduce = |dims: &[i64], kind: &str| {
            Op::new("tensor.reduce").with_attr("dims", ints(dims)).with_attr("kind", kind)
        };
        let x = [t(&[4, 6])];
        assert_eq!(
            reason(&x, reduce(&[-1], "sum")),
            "verification failed: tensor.reduce: dims = [-1] is not a list of dimension indices"
        );
        assert!(reason(&x, reduce(&[2], "sum")).ends_with("dim 2 is out of range for rank 2"));
        assert!(reason(&x, reduce(&[0, 0], "sum")).ends_with("dim 0 is listed twice"));
        let median = reason(&x, reduce(&[0], "median"));
        assert!(median.ends_with("kind \"median\" is not sum, max, min or mean"));
        let perm = |p: &[i64]| reason(&x, Op::new("tensor.transpose").with_attr("perm", ints(p)));
        for p in [&[0, 0][..], &[1], &[0, 1, 2], &[2, 0]] {
            assert!(perm(p).ends_with("is not a permutation of the 2 dimensions"), "{p:?}");
        }
        let stencil = |n: usize| {
            let weights = Attr::Array(vec![Attr::Float(0.5); n]);
            decode(&x, Op::new("tensor.stencil").with_attr("weights", weights))
        };
        assert!(stencil(4).unwrap_err().ends_with("width 4 is not odd"));
        assert!(stencil(7).unwrap_err().ends_with("width 7 is wider than the last dimension 6"));
        assert_eq!(stencil(5), Ok(t(&[4, 6])));
        let conv = |k: &[usize]| reason(&[t(&[4, 6]), t(k)], Op::new("tensor.conv2d"));
        assert!(conv(&[3, 2]).ends_with("kernel [3, 2] has an even side"));
        assert!(conv(&[5, 3]).ends_with("kernel [5, 3] is larger than the input [4, 6]"));
        assert!(conv(&[3]).ends_with("operands [4, 6] and [3] are not both rank-2"));
        let add = reason(&[t(&[4]), t(&[5])], Op::new("tensor.add"));
        assert!(add.ends_with("operand shapes [4] and [5] differ"));
        let mixed = reason(&[t(&[4]), Type::tensor(Type::F32, &[4])], Op::new("tensor.mul"));
        assert!(mixed.ends_with("operands hold f64 and f32"));
        let scale = reason(&[Type::F32, t(&[4])], Op::new("tensor.scale"));
        assert!(scale.ends_with("scale factor %0 is a f32, not a f64"));
        let ints_relu = reason(&[Type::tensor(Type::I64, &[4])], Op::new("tensor.relu"));
        assert!(ints_relu.ends_with("%0 holds i64, not floats"));
        assert!(reason(&[Type::F64], Op::new("tensor.relu")).ends_with("%0 is a f64, not a tensor"));
        assert!(reason(&x, Op::new("tensor.matmul")).ends_with("takes 2 operands, got 1"));
        assert!(
            reason(&x, Op::new("tensor.reshape")).ends_with("tensor.reshape is not a tensor op")
        );
        let fill = Op::new("tensor.fill");
        assert!(reason(&[], fill.clone()).ends_with("missing 'value'"));
        assert!(
            reason(&[], fill.clone().with_attr("value", "0")).ends_with("value is not a number")
        );
        assert!(reason(&[], fill.with_attr("value", 0.0)).ends_with("declares no result"));
    }

    #[test]
    fn reduce_kinds_round_trip_and_start_from_their_identity() {
        for kind in ReduceKind::ALL {
            assert_eq!(ReduceKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ReduceKind::parse("median"), None);
        assert_eq!(ReduceKind::Max.identity(), f64::NEG_INFINITY);
        assert_eq!(ReduceKind::Min.identity(), f64::INFINITY);
        assert_eq!(ReduceKind::Mean.identity(), 0.0);
    }
}
