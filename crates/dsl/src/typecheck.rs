//! Shape/type checking for the tensor-expression DSL.
//!
//! The checker infers a `TensorTy` for every expression and rejects
//! programs with incompatible shapes, unknown variables or malformed
//! intrinsic calls — before any IR is built, so lowering never panics.
//! The shape of `@` and of every intrinsic is the IR op's own rule
//! ([`TensorKind::result_shape`]); this module adds only the surface rules:
//! names, literal element types, scalar vs tensor, and a reduce keeping at
//! least one dimension.

use crate::ast::{BinOp, ElemTy, Expr, Kernel, Program, Stmt, TensorTy};
use crate::error::{DslError, DslResult};
use everest_ir::{ReduceKind, TensorKind};
use std::collections::HashMap;

/// Type-checks every kernel of a program.
///
/// # Errors
///
/// Returns the first [`DslError`] (phase `Type`) encountered.
pub fn check_program(program: &Program) -> DslResult<()> {
    let mut seen = HashMap::new();
    for kernel in &program.kernels {
        if let Some(prev) = seen.insert(kernel.name.clone(), kernel.line) {
            return Err(DslError::ty(
                kernel.line,
                format!("kernel '{}' already defined at line {prev}", kernel.name),
            ));
        }
        check_kernel(kernel)?;
    }
    Ok(())
}

/// Type-checks one kernel.
///
/// # Errors
///
/// Returns a [`DslError`] describing the first shape violation.
pub(crate) fn check_kernel(kernel: &Kernel) -> DslResult<()> {
    let mut env: HashMap<String, TensorTy> = HashMap::new();
    for param in &kernel.params {
        if env.insert(param.name.clone(), param.ty.clone()).is_some() {
            return Err(DslError::ty(kernel.line, format!("duplicate parameter '{}'", param.name)));
        }
    }
    let mut returned = false;
    for (i, stmt) in kernel.body.iter().enumerate() {
        match stmt {
            Stmt::Var { name, expr, line } => {
                if returned {
                    return Err(DslError::ty(*line, "statement after return"));
                }
                let ty = infer(expr, &env)?;
                if env.contains_key(name.as_str()) {
                    return Err(DslError::ty(*line, format!("'{name}' is already bound")));
                }
                env.insert(name.clone(), ty);
            }
            Stmt::Return { expr, line } => {
                if i + 1 != kernel.body.len() {
                    return Err(DslError::ty(*line, "return must be the last statement"));
                }
                returned = true;
                let ty = infer(expr, &env)?;
                if ty != kernel.ret {
                    return Err(DslError::ty(
                        *line,
                        format!("return type {ty} does not match declared {}", kernel.ret),
                    ));
                }
            }
        }
    }
    if !returned {
        return Err(DslError::ty(kernel.line, format!("kernel '{}' has no return", kernel.name)));
    }
    Ok(())
}

/// Infers the type of an expression in the given environment.
///
/// # Errors
///
/// Returns a [`DslError`] on unknown names or shape mismatches.
pub(crate) fn infer(expr: &Expr, env: &HashMap<String, TensorTy>) -> DslResult<TensorTy> {
    match expr {
        Expr::Var { name, line } => env
            .get(name.as_str())
            .cloned()
            .ok_or_else(|| DslError::ty(*line, format!("unknown variable '{name}'"))),
        Expr::Num { .. } => Ok(TensorTy::scalar(ElemTy::F64)),
        Expr::Binary { op, lhs, rhs, line } => {
            let lt = infer(lhs, env)?;
            let rt = infer(rhs, env)?;
            let l_lit = matches!(**lhs, Expr::Num { .. });
            let r_lit = matches!(**rhs, Expr::Num { .. });
            binary_type(*op, &lt, &rt, l_lit, r_lit, *line)
        }
        Expr::Call { name, args, list, line } => call_type(name, args, list.as_deref(), env, *line),
    }
}

/// Unifies scalar element types: numeric literals (typed f64 by default)
/// adapt to the peer tensor's element type.
fn unify_elem(a: ElemTy, a_is_lit: bool, b: ElemTy, b_is_lit: bool) -> Option<ElemTy> {
    if a == b {
        Some(a)
    } else if a_is_lit {
        Some(b)
    } else if b_is_lit {
        Some(a)
    } else {
        None
    }
}

/// The type of `lt op rt`, where `l_lit` / `r_lit` say whether an operand
/// is a numeric literal.
pub(crate) fn binary_type(
    op: BinOp,
    lt: &TensorTy,
    rt: &TensorTy,
    l_lit: bool,
    r_lit: bool,
    line: usize,
) -> DslResult<TensorTy> {
    match op {
        BinOp::MatMul => {
            let shape = TensorKind::Matmul
                .result_shape(&lt.shape, &rt.shape)
                .map_err(|e| DslError::ty(line, format!("'@': {e}")))?;
            if lt.elem != rt.elem {
                return Err(DslError::ty(line, format!("'@' element types differ: {lt} vs {rt}")));
            }
            Ok(TensorTy { elem: lt.elem, shape })
        }
        BinOp::Div => {
            if !lt.is_scalar() || !rt.is_scalar() {
                return Err(DslError::ty(line, "'/' is only defined on scalars"));
            }
            let elem = unify_elem(lt.elem, l_lit, rt.elem, r_lit).ok_or_else(|| {
                DslError::ty(line, format!("'/' element types differ: {lt} vs {rt}"))
            })?;
            Ok(TensorTy::scalar(elem))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            match (lt.is_scalar(), rt.is_scalar()) {
                (true, true) => {
                    let elem = unify_elem(lt.elem, l_lit, rt.elem, r_lit).ok_or_else(|| {
                        DslError::ty(line, format!("'{op}' element types differ: {lt} vs {rt}"))
                    })?;
                    Ok(TensorTy::scalar(elem))
                }
                // scalar (x) tensor: only '*' scales; '+'/'-' broadcast is
                // deliberately not supported to keep semantics explicit.
                (true, false) | (false, true) => {
                    if op != BinOp::Mul {
                        return Err(DslError::ty(
                            line,
                            format!("'{op}' between scalar and tensor is not supported (only '*')"),
                        ));
                    }
                    let (t, s_elem, s_lit) =
                        if lt.is_scalar() { (rt, lt.elem, l_lit) } else { (lt, rt.elem, r_lit) };
                    if !s_lit && s_elem != t.elem {
                        return Err(DslError::ty(
                            line,
                            format!("scale element types differ: {lt} vs {rt}"),
                        ));
                    }
                    Ok(t.clone())
                }
                (false, false) => {
                    if lt != rt {
                        return Err(DslError::ty(
                            line,
                            format!("elementwise '{op}' on mismatched shapes {lt} vs {rt}"),
                        ));
                    }
                    Ok(lt.clone())
                }
            }
        }
    }
}

/// The dimension indices a DSL list spells: each entry must be a
/// non-negative integer, or the call names some other index than it reads.
fn indices(list: &[f64], line: usize, name: &str) -> DslResult<Vec<usize>> {
    list.iter()
        .map(|x| {
            // Exact: the entry is a whole number below 2^53.
            if x.fract() == 0.0 && (0.0..9.0e15).contains(x) {
                Ok(*x as usize)
            } else {
                Err(DslError::ty(
                    line,
                    format!("'{name}': list entry {x} is not a dimension index"),
                ))
            }
        })
        .collect()
}

/// The IR op an intrinsic call lowers to, with its list decoded.
pub(crate) fn intrinsic(name: &str, list: Option<&[f64]>, line: usize) -> DslResult<TensorKind> {
    let list = || list.ok_or_else(|| DslError::ty(line, format!("'{name}' needs a list")));
    if let Some(kind) = name.strip_prefix("reduce_").and_then(ReduceKind::parse) {
        return Ok(TensorKind::Reduce(indices(list()?, line, name)?, kind));
    }
    Ok(match name {
        "transpose" => TensorKind::Transpose(indices(list()?, line, name)?),
        "stencil" => TensorKind::Stencil(list()?.to_vec()),
        "conv2d" => TensorKind::Conv2d,
        "relu" => TensorKind::Relu,
        "sigmoid" => TensorKind::Sigmoid,
        other => return Err(DslError::ty(line, format!("unknown intrinsic '{other}'"))),
    })
}

fn call_type(
    name: &str,
    args: &[Expr],
    list: Option<&[f64]>,
    env: &HashMap<String, TensorTy>,
    line: usize,
) -> DslResult<TensorTy> {
    let kind = intrinsic(name, list, line)?;
    let (arity, takes) = match kind {
        TensorKind::Conv2d => (2, "(input, kernel)"),
        _ => (1, "exactly one tensor argument"),
    };
    if args.len() != arity {
        return Err(DslError::ty(line, format!("'{name}' takes {takes}")));
    }
    let (x, k) = (infer(&args[0], env)?, args.get(1).map(|k| infer(k, env)).transpose()?);
    call_result(&kind, name, &x, k.as_ref(), line)
}

/// The type of intrinsic `name` (which lowers to `kind`) applied to an
/// input of type `x` and, for `conv2d`, a kernel of type `k`.
pub(crate) fn call_result(
    kind: &TensorKind,
    name: &str,
    x: &TensorTy,
    k: Option<&TensorTy>,
    line: usize,
) -> DslResult<TensorTy> {
    if x.is_scalar() || k.is_some_and(TensorTy::is_scalar) {
        return Err(DslError::ty(line, format!("'{name}' requires tensor arguments")));
    }
    if let Some(k) = k {
        if k.elem != x.elem {
            return Err(DslError::ty(line, format!("'{name}' element types differ: {x} vs {k}")));
        }
    }
    let b = k.map_or(&[][..], |k| &k.shape);
    let shape =
        kind.result_shape(&x.shape, b).map_err(|e| DslError::ty(line, format!("'{name}': {e}")))?;
    if shape.is_empty() {
        return Err(DslError::ty(
            line,
            "reduce over all dimensions is not supported; keep at least one",
        ));
    }
    Ok(TensorTy { elem: x.elem, shape })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> DslResult<()> {
        check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_well_typed_gemm() {
        let src = r#"
            kernel gemm(a: tensor<32x16xf64>, b: tensor<16x8xf64>) -> tensor<32x8xf64> {
                return a @ b;
            }
        "#;
        check(src).unwrap();
    }

    #[test]
    fn rejects_inner_dim_mismatch() {
        let src = r#"
            kernel g(a: tensor<32x16xf64>, b: tensor<17x8xf64>) -> tensor<32x8xf64> {
                return a @ b;
            }
        "#;
        let err = check(src).unwrap_err();
        assert!(err.to_string().contains("inner dimensions"));
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let src = "kernel f(a: tensor<4x4xf64>) -> tensor<2x2xf64> { return a; }";
        let err = check(src).unwrap_err();
        assert!(err.to_string().contains("does not match declared"));
    }

    #[test]
    fn rejects_unknown_variable() {
        let src = "kernel f(a: f64) -> f64 { return zz; }";
        assert!(check(src).unwrap_err().to_string().contains("unknown variable"));
    }

    #[test]
    fn rejects_rebinding() {
        let src = "kernel f(a: f64) -> f64 { var a = 1.0; return a; }";
        assert!(check(src).unwrap_err().to_string().contains("already bound"));
    }

    #[test]
    fn scalar_times_tensor_scales() {
        let src = r#"
            kernel f(x: tensor<8xf32>) -> tensor<8xf32> {
                return 3.0 * x;
            }
        "#;
        check(src).unwrap();
    }

    #[test]
    fn scalar_plus_tensor_rejected() {
        let src = "kernel f(x: tensor<8xf32>) -> tensor<8xf32> { return 3.0 + x; }";
        assert!(check(src).is_err());
    }

    #[test]
    fn transpose_shape_inference() {
        let src = r#"
            kernel f(x: tensor<2x3x5xf64>) -> tensor<5x2x3xf64> {
                return transpose(x, [2, 0, 1]);
            }
        "#;
        check(src).unwrap();
    }

    #[test]
    fn reduce_removes_dims() {
        let src = r#"
            kernel f(x: tensor<4x6xf64>) -> tensor<4xf64> {
                return reduce_sum(x, [1]);
            }
        "#;
        check(src).unwrap();
    }

    #[test]
    fn reduce_dim_out_of_range_rejected() {
        let src = "kernel f(x: tensor<4xf64>) -> f64 { return reduce_sum(x, [1]); }";
        assert!(check(src).unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn even_stencil_rejected() {
        let src = "kernel f(x: tensor<8xf64>) -> tensor<8xf64> { return stencil(x, [0.5, 0.5]); }";
        assert!(check(src).unwrap_err().to_string().contains("odd"));
    }

    #[test]
    fn missing_return_rejected() {
        let src = "kernel f(a: f64) -> f64 { var b = a; }";
        assert!(check(src).unwrap_err().to_string().contains("no return"));
    }

    #[test]
    fn duplicate_kernel_rejected() {
        let src = "kernel f(a: f64) -> f64 { return a; } kernel f(a: f64) -> f64 { return a; }";
        assert!(check(src).unwrap_err().to_string().contains("already defined"));
    }

    #[test]
    fn statement_after_return_rejected() {
        let src = "kernel f(a: f64) -> f64 { return a; var b = a; }";
        assert!(check(src).unwrap_err().to_string().contains("last statement"));
    }
}
