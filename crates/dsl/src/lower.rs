//! Lowering from the tensor-expression AST to the `tensor`/`arith` dialects
//! of [`everest_ir`].
//!
//! Lowering assumes the program already passed [`crate::typecheck`]; shape
//! errors are therefore reported as internal lowering errors rather than
//! user-facing diagnostics.

use crate::ast::{BinOp, ElemTy, Expr, Kernel, Program, Stmt, TensorTy};
use crate::error::{DslError, DslResult};
use crate::typecheck::{infer, intrinsic};
use everest_ir::dialects::tensor as tdl;
use everest_ir::{FuncBuilder, Module, TensorKind, Type, Value};
use std::collections::HashMap;

fn ir_elem(elem: ElemTy) -> Type {
    match elem {
        ElemTy::F32 => Type::F32,
        ElemTy::F64 => Type::F64,
    }
}

/// Converts a DSL type to an IR type (scalars stay scalar, tensors become
/// `tensor<...>`).
pub(crate) fn ir_type(ty: &TensorTy) -> Type {
    if ty.is_scalar() {
        ir_elem(ty.elem)
    } else {
        Type::tensor(ir_elem(ty.elem), &ty.shape)
    }
}

/// Lowers a whole program into a fresh module named `dsl`.
///
/// # Errors
///
/// Returns a [`DslError`] (phase `Lower`) if the program was not
/// type-checked and contains inconsistencies.
pub fn lower_program(program: &Program) -> DslResult<Module> {
    let mut module = Module::new("dsl");
    for kernel in &program.kernels {
        module.push(lower_kernel(kernel)?);
    }
    Ok(module)
}

/// Lowers one kernel to an IR function.
///
/// # Errors
///
/// Returns a [`DslError`] on internal inconsistencies (should not happen for
/// type-checked kernels).
pub(crate) fn lower_kernel(kernel: &Kernel) -> DslResult<everest_ir::Func> {
    let param_types: Vec<Type> = kernel.params.iter().map(|p| ir_type(&p.ty)).collect();
    let ret_types = vec![ir_type(&kernel.ret)];
    let mut fb = FuncBuilder::new(kernel.name.clone(), &param_types, &ret_types);
    fb.set_func_attr("dsl", "tensor");

    let mut tys: HashMap<String, TensorTy> = HashMap::new();
    let mut vals: HashMap<String, Value> = HashMap::new();
    for (i, param) in kernel.params.iter().enumerate() {
        tys.insert(param.name.clone(), param.ty.clone());
        vals.insert(param.name.clone(), fb.arg(i));
    }

    for stmt in &kernel.body {
        match stmt {
            Stmt::Var { name, expr, .. } => {
                let ty = infer(expr, &tys)
                    .map_err(|e| DslError::lower(e.line, format!("untyped expr: {}", e.msg)))?;
                let v = lower_expr(&mut fb, expr, &tys, &vals, Some(ty.elem))?;
                tys.insert(name.clone(), ty);
                vals.insert(name.clone(), v);
            }
            Stmt::Return { expr, .. } => {
                let v = lower_expr(&mut fb, expr, &tys, &vals, Some(kernel.ret.elem))?;
                fb.ret(&[v]);
            }
        }
    }
    Ok(fb.finish())
}

fn lower_expr(
    fb: &mut FuncBuilder,
    expr: &Expr,
    tys: &HashMap<String, TensorTy>,
    vals: &HashMap<String, Value>,
    hint: Option<ElemTy>,
) -> DslResult<Value> {
    match expr {
        Expr::Var { name, line } => vals
            .get(name)
            .copied()
            .ok_or_else(|| DslError::lower(*line, format!("unbound variable '{name}'"))),
        Expr::Num { value, .. } => {
            let elem = hint.unwrap_or(ElemTy::F64);
            Ok(fb.const_f(*value, ir_elem(elem)))
        }
        Expr::Binary { op, lhs, rhs, line } => {
            let lt = infer(lhs, tys).map_err(to_lower)?;
            let rt = infer(rhs, tys).map_err(to_lower)?;
            // Literals adopt the element type of the non-literal side.
            let elem = if matches!(**lhs, Expr::Num { .. }) { rt.elem } else { lt.elem };
            let lv = lower_expr(fb, lhs, tys, vals, Some(elem))?;
            let rv = lower_expr(fb, rhs, tys, vals, Some(elem))?;
            match op {
                BinOp::MatMul => Ok(tdl::matmul(fb, lv, rv)),
                BinOp::Div => Ok(fb.binary("arith.divf", lv, rv, ir_elem(elem))),
                BinOp::Add | BinOp::Sub | BinOp::Mul => {
                    match (lt.is_scalar(), rt.is_scalar()) {
                        (true, true) => {
                            let name = match op {
                                BinOp::Add => "arith.addf",
                                BinOp::Sub => "arith.subf",
                                _ => "arith.mulf",
                            };
                            Ok(fb.binary(name, lv, rv, ir_elem(elem)))
                        }
                        (true, false) => Ok(tdl::scale(fb, lv, rv)),
                        // Normalize to scalar-first operand order.
                        (false, true) => Ok(tdl::scale(fb, rv, lv)),
                        (false, false) => {
                            let name = match op {
                                BinOp::Add => "tensor.add",
                                BinOp::Sub => "tensor.sub",
                                _ => "tensor.mul",
                            };
                            Ok(tdl::elementwise(fb, name, lv, rv))
                        }
                    }
                }
            }
            .map_err(|e: DslError| DslError::lower(*line, e.msg))
        }
        Expr::Call { name, args, list, line } => {
            let kind = intrinsic(name, list.as_deref(), *line).map_err(to_lower)?;
            let x = lower_expr(fb, &args[0], tys, vals, hint)?;
            Ok(match kind {
                TensorKind::Transpose(perm) => tdl::transpose(fb, x, &perm),
                TensorKind::Reduce(dims, kind) => tdl::reduce(fb, x, &dims, kind),
                TensorKind::Stencil(weights) => tdl::stencil(fb, x, &weights),
                TensorKind::Conv2d => {
                    let k = lower_expr(fb, &args[1], tys, vals, hint)?;
                    tdl::conv2d(fb, x, k)
                }
                TensorKind::Relu => tdl::relu(fb, x),
                TensorKind::Sigmoid => tdl::sigmoid(fb, x),
                other => {
                    return Err(DslError::lower(*line, format!("'{name}' lowers to {other:?}")))
                }
            })
        }
    }
}

fn to_lower(e: DslError) -> DslError {
    DslError::lower(e.line, e.msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::typecheck::check_program;

    fn lower(src: &str) -> Module {
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let m = lower_program(&p).unwrap();
        m.verify().unwrap();
        m
    }

    #[test]
    fn lowers_gemm_to_tensor_matmul() {
        let m = lower(
            "kernel gemm(a: tensor<8x4xf64>, b: tensor<4x2xf64>) -> tensor<8x2xf64> { return a @ b; }",
        );
        let f = m.func("gemm").unwrap();
        let mut names = Vec::new();
        f.walk(&mut |op| names.push(op.name.clone()));
        assert_eq!(names, vec!["tensor.matmul", "func.return"]);
    }

    #[test]
    fn lowers_scale_with_scalar_first() {
        for src in [
            "kernel f(x: tensor<8xf32>) -> tensor<8xf32> { return 2.0 * x; }",
            "kernel f(x: tensor<8xf32>) -> tensor<8xf32> { return x * 2.0; }",
        ] {
            let m = lower(src);
            let f = m.func("f").unwrap();
            let mut scale = None;
            f.walk(&mut |op| {
                if op.name == "tensor.scale" {
                    scale = Some(op.clone());
                }
            });
            let scale = scale.expect("tensor.scale emitted");
            // First operand must be the scalar.
            assert!(f.value_type(scale.operands[0]).is_scalar());
            // Literal adopted the tensor's f32 element type.
            assert_eq!(f.value_type(scale.operands[0]), &Type::F32);
        }
    }

    #[test]
    fn lowers_chained_pipeline() {
        let m = lower(
            r#"
            kernel pipeline(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16xf64> {
                var c = a @ b;
                var d = relu(c + a);
                return reduce_mean(d, [1]);
            }
            "#,
        );
        let f = m.func("pipeline").unwrap();
        let mut names = Vec::new();
        f.walk(&mut |op| names.push(op.name.clone()));
        assert_eq!(
            names,
            vec!["tensor.matmul", "tensor.add", "tensor.relu", "tensor.reduce", "func.return"]
        );
    }

    #[test]
    fn scalar_kernels_lower_to_arith() {
        let m = lower("kernel f(a: f64, b: f64) -> f64 { return (a + b) / 2.0; }");
        let f = m.func("f").unwrap();
        let mut names = Vec::new();
        f.walk(&mut |op| names.push(op.name.clone()));
        assert!(names.contains(&"arith.addf".to_string()));
        assert!(names.contains(&"arith.divf".to_string()));
    }

    #[test]
    fn end_to_end_compile_kernels() {
        let m = crate::compile_kernels(
            "kernel f(x: tensor<4x4xf32>) -> tensor<4x4xf32> { return sigmoid(x); }",
        )
        .unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.func("f").unwrap().attrs.contains_key("dsl"));
    }

    #[test]
    fn compile_kernels_reports_type_errors() {
        let err =
            crate::compile_kernels("kernel f(x: tensor<4xf32>) -> tensor<4xf32> { return x @ x; }")
                .unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Type);
    }
}
