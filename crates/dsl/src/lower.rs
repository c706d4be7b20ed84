//! Lowering from the tensor-expression AST to the `tensor`/`arith` dialects
//! of [`everest_ir`].
//!
//! Lowering assumes the program already passed [`crate::typecheck`]; shape
//! errors are therefore reported as internal lowering errors rather than
//! user-facing diagnostics.

use crate::ast::{BinOp, ElemTy, Expr, Kernel, Program, Stmt, TensorTy};
use crate::error::{DslError, DslResult};
use crate::typecheck::{binary_type, call_result, intrinsic};
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

    let mut env: Env = HashMap::new();
    for (i, param) in kernel.params.iter().enumerate() {
        env.insert(&param.name, (fb.arg(i), param.ty.clone()));
    }

    for stmt in &kernel.body {
        match stmt {
            Stmt::Var { name, expr, .. } => {
                let lowered = lower_expr(&mut fb, expr, &env, None)?;
                env.insert(name, lowered);
            }
            Stmt::Return { expr, .. } => {
                let (v, _) = lower_expr(&mut fb, expr, &env, Some(kernel.ret.elem))?;
                fb.ret(&[v]);
            }
        }
    }
    Ok(fb.finish())
}

/// Every name in scope: its value and its type.
type Env<'k> = HashMap<&'k str, (Value, TensorTy)>;

/// Lowers `expr` and returns its value with the type the checker infers
/// for it, so that no subtree is typed twice. A literal lowers to the
/// element type `hint` (f64 without one) and is typed f64, as the checker
/// types it.
fn lower_expr(
    fb: &mut FuncBuilder,
    expr: &Expr,
    env: &Env<'_>,
    hint: Option<ElemTy>,
) -> DslResult<(Value, TensorTy)> {
    match expr {
        Expr::Var { name, line } => env
            .get(name.as_str())
            .cloned()
            .ok_or_else(|| DslError::lower(*line, format!("unbound variable '{name}'"))),
        Expr::Num { value, .. } => {
            let elem = hint.unwrap_or(ElemTy::F64);
            Ok((fb.const_f(*value, ir_elem(elem)), TensorTy::scalar(ElemTy::F64)))
        }
        Expr::Binary { op, lhs, rhs, line } => {
            // Literals adopt the element type of the non-literal side.
            let l_lit = matches!(**lhs, Expr::Num { .. });
            let r_lit = matches!(**rhs, Expr::Num { .. });
            let rhs_elem = if l_lit { Some(elem_of(rhs, env, *line)?) } else { None };
            let (lv, lt) = lower_expr(fb, lhs, env, rhs_elem)?;
            let elem = rhs_elem.unwrap_or(lt.elem);
            let (rv, rt) = lower_expr(fb, rhs, env, Some(elem))?;
            let ty = binary_type(*op, &lt, &rt, l_lit, r_lit, *line).map_err(to_lower)?;
            let v = match op {
                BinOp::MatMul => tdl::matmul(fb, lv, rv),
                BinOp::Div => fb.binary("arith.divf", lv, rv, ir_elem(elem)),
                BinOp::Add | BinOp::Sub | BinOp::Mul => match (lt.is_scalar(), rt.is_scalar()) {
                    (true, true) => {
                        let name = match op {
                            BinOp::Add => "arith.addf",
                            BinOp::Sub => "arith.subf",
                            _ => "arith.mulf",
                        };
                        fb.binary(name, lv, rv, ir_elem(elem))
                    }
                    (true, false) => tdl::scale(fb, lv, rv),
                    // Normalize to scalar-first operand order.
                    (false, true) => tdl::scale(fb, rv, lv),
                    (false, false) => {
                        let name = match op {
                            BinOp::Add => "tensor.add",
                            BinOp::Sub => "tensor.sub",
                            _ => "tensor.mul",
                        };
                        tdl::elementwise(fb, name, lv, rv)
                    }
                },
            };
            Ok((v, ty))
        }
        Expr::Call { name, args, list, line } => {
            let kind = intrinsic(name, list.as_deref(), *line).map_err(to_lower)?;
            let (x, xt) = lower_expr(fb, &args[0], env, hint)?;
            let k = match kind {
                TensorKind::Conv2d => Some(lower_expr(fb, &args[1], env, hint)?),
                _ => None,
            };
            let ty = call_result(&kind, name, &xt, k.as_ref().map(|(_, kt)| kt), *line)
                .map_err(to_lower)?;
            let v = match kind {
                TensorKind::Transpose(perm) => tdl::transpose(fb, x, &perm),
                TensorKind::Reduce(dims, kind) => tdl::reduce(fb, x, &dims, kind),
                TensorKind::Stencil(weights) => tdl::stencil(fb, x, &weights),
                TensorKind::Conv2d => tdl::conv2d(fb, x, k.expect("conv2d lowered its kernel").0),
                TensorKind::Relu => tdl::relu(fb, x),
                TensorKind::Sigmoid => tdl::sigmoid(fb, x),
                other => {
                    return Err(DslError::lower(*line, format!("'{name}' lowers to {other:?}")))
                }
            };
            Ok((v, ty))
        }
    }
}

/// The element type the checker infers for `expr`, read down its left
/// spine without lowering or building a shape: a binary expression takes
/// its left operand's element type unless that operand is a literal.
fn elem_of(expr: &Expr, env: &Env<'_>, line: usize) -> DslResult<ElemTy> {
    match expr {
        Expr::Var { name, .. } => env
            .get(name.as_str())
            .map(|(_, ty)| ty.elem)
            .ok_or_else(|| DslError::lower(line, format!("unbound variable '{name}'"))),
        Expr::Num { .. } => Ok(ElemTy::F64),
        Expr::Binary { lhs, rhs, .. } if matches!(**lhs, Expr::Num { .. }) => {
            elem_of(rhs, env, line)
        }
        Expr::Binary { lhs, .. } => elem_of(lhs, env, line),
        Expr::Call { args, .. } => elem_of(&args[0], env, line),
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
