//! Abstract syntax tree of the tensor-expression DSL.

use std::fmt;

/// Scalar element type of a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemTy {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl fmt::Display for ElemTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemTy::F32 => f.write_str("f32"),
            ElemTy::F64 => f.write_str("f64"),
        }
    }
}

/// A tensor type in the DSL; an empty shape denotes a scalar.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorTy {
    /// Element type.
    pub elem: ElemTy,
    /// Dimensions; empty for scalars.
    pub shape: Vec<usize>,
}

impl TensorTy {
    /// A scalar of the given element type.
    pub(crate) fn scalar(elem: ElemTy) -> TensorTy {
        TensorTy { elem, shape: Vec::new() }
    }

    /// Whether this type is a scalar.
    pub(crate) fn is_scalar(&self) -> bool {
        self.shape.is_empty()
    }
}

impl fmt::Display for TensorTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_scalar() {
            write!(f, "{}", self.elem)
        } else {
            f.write_str("tensor<")?;
            for d in &self.shape {
                write!(f, "{d}x")?;
            }
            write!(f, "{}>", self.elem)
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Elementwise or scalar addition.
    Add,
    /// Elementwise or scalar subtraction.
    Sub,
    /// Elementwise multiply, scalar multiply, or scalar×tensor scaling.
    Mul,
    /// Scalar division.
    Div,
    /// Matrix multiplication (`@`).
    MatMul,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::MatMul => "@",
        };
        f.write_str(s)
    }
}

/// An expression node, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable or parameter reference.
    Var { name: String, line: usize },
    /// Numeric (scalar) literal.
    Num { value: f64, line: usize },
    /// Binary operation.
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr>, line: usize },
    /// Intrinsic call: `transpose`, `reduce_sum`, `reduce_max`,
    /// `reduce_mean`, `stencil`, `relu`, `sigmoid`.
    ///
    /// `list` carries the bracketed numeric argument (permutation,
    /// dimensions or stencil weights) when present.
    Call { name: String, args: Vec<Expr>, list: Option<Vec<f64>>, line: usize },
}

/// A statement in a kernel body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var name = expr;`
    Var { name: String, expr: Expr, line: usize },
    /// `return expr;`
    Return { expr: Expr, line: usize },
}

/// A kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: TensorTy,
}

/// A kernel declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (becomes the IR function symbol).
    pub name: String,
    /// Typed parameters.
    pub params: Vec<Param>,
    /// Declared result type.
    pub ret: TensorTy,
    /// Body statements; exactly one `return` at the end.
    pub body: Vec<Stmt>,
    /// Declaration line.
    pub line: usize,
}

/// A parsed program: a list of kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Kernels in declaration order.
    pub kernels: Vec<Kernel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_ty_display() {
        let t = TensorTy { elem: ElemTy::F64, shape: vec![4, 8] };
        assert_eq!(t.to_string(), "tensor<4x8xf64>");
        assert_eq!(TensorTy::scalar(ElemTy::F32).to_string(), "f32");
    }

    #[test]
    fn scalar_predicate_and_count() {
        assert!(TensorTy::scalar(ElemTy::F64).is_scalar());
        let t = TensorTy { elem: ElemTy::F32, shape: vec![3, 5] };
        assert!(!t.is_scalar());
    }
}
