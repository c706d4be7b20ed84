//! IR structural and type verification.
//!
//! The verifier enforces, in order:
//!
//! 1. every op is registered and satisfies its [`OpSpec`] (arity, required
//!    attributes, region count, terminator placement);
//! 2. SSA form: every value has exactly one definition, and every use is
//!    dominated by its definition (program order, with nested regions
//!    inheriting the enclosing scope);
//! 3. per-op type rules for the builtin dialects (scalar arithmetic,
//!    memory, returns and structured loops), and for every `tensor` op
//!    the result type its [`TensorOp`] view computes;
//! 4. every branch target names a block of the branch's region;
//! 5. in a module, every `func.call` names a function of the module and
//!    matches its signature, and no chain of calls leads back to its
//!    caller.

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::ir::{Block, ForLoop, Func, Module, Op, Region, Value, BRANCH_TARGETS};
use crate::registry::{self, OpSpec};
use crate::tensor_op::TensorOp;
use crate::types::Type;
use std::collections::{HashMap, HashSet};

/// The functions a `func.call` may name, by symbol.
type Callees<'m> = HashMap<&'m str, &'m Func>;

/// Verifies every function in `module`, and every call between them.
///
/// # Errors
///
/// Returns the first [`IrError`] encountered; the module is left untouched.
pub(crate) fn verify_module(module: &Module) -> IrResult<()> {
    let mut callees = Callees::new();
    for func in module.iter() {
        if callees.insert(func.name.as_str(), func).is_some() {
            return Err(IrError::Verify(format!("duplicate function symbol @{}", func.name)));
        }
    }
    for func in module.iter() {
        verify_body(func, Some(&callees)).map_err(|e| match e {
            IrError::Verify(msg) => IrError::Verify(format!("in @{}: {msg}", func.name)),
            other => other,
        })?;
    }
    match module.callees_first().1 {
        Some((caller, callee)) => Err(IrError::Verify(format!(
            "in @{}: the call to @{} closes a call cycle",
            caller.name, callee.name
        ))),
        None => Ok(()),
    }
}

/// Verifies a single function. Its calls are checked against their
/// callees only as part of a module ([`Module::verify`]).
///
/// # Errors
///
/// Returns [`IrError::Verify`] or [`IrError::UnknownOp`] on the first
/// violation.
pub fn verify_func(func: &Func) -> IrResult<()> {
    verify_body(func, None)
}

fn verify_body(func: &Func, callees: Option<&Callees<'_>>) -> IrResult<()> {
    let entry =
        func.body.entry().ok_or_else(|| IrError::Verify("function has no entry block".into()))?;
    if entry.args.len() != func.params.len() {
        return Err(IrError::Verify(format!(
            "entry block has {} args but function has {} params",
            entry.args.len(),
            func.params.len()
        )));
    }
    for (arg, param) in entry.args.iter().zip(&func.params) {
        if func.value_type(*arg) != param {
            return Err(IrError::Verify(format!(
                "entry arg {arg} type {} does not match param type {param}",
                func.value_type(*arg)
            )));
        }
    }

    let mut defined: HashSet<Value> = HashSet::new();
    let mut all_defs: HashSet<Value> = HashSet::new();
    verify_region(func, &func.body, callees, &mut defined, &mut all_defs)
}

fn verify_region(
    func: &Func,
    region: &Region,
    callees: Option<&Callees<'_>>,
    defined: &mut HashSet<Value>,
    all_defs: &mut HashSet<Value>,
) -> IrResult<()> {
    for block in &region.blocks {
        verify_block(func, region, block, callees, defined, all_defs)?;
    }
    Ok(())
}

fn define(
    v: Value,
    func: &Func,
    defined: &mut HashSet<Value>,
    all_defs: &mut HashSet<Value>,
) -> IrResult<()> {
    if v.0 as usize >= func.num_values() {
        return Err(IrError::Verify(format!("value {v} was never allocated")));
    }
    if !all_defs.insert(v) {
        return Err(IrError::Verify(format!("value {v} defined more than once")));
    }
    defined.insert(v);
    Ok(())
}

fn verify_block(
    func: &Func,
    region: &Region,
    block: &Block,
    callees: Option<&Callees<'_>>,
    defined: &mut HashSet<Value>,
    all_defs: &mut HashSet<Value>,
) -> IrResult<()> {
    for arg in &block.args {
        define(*arg, func, defined, all_defs)?;
    }
    if block.ops.is_empty() {
        return Err(IrError::Verify(format!("block {} is empty", block.id)));
    }
    for (i, op) in block.ops.iter().enumerate() {
        // Tag every op-local failure with its exact location, in the same
        // `^bbN op I` format the dataflow lints report, so verifier and
        // `everestc check` findings are directly comparable.
        let ctx = |e: IrError| match e {
            IrError::Verify(msg) => {
                IrError::Verify(format!("at {} op {i} ({}): {msg}", block.id, op.name))
            }
            other => other,
        };
        let spec = registry::lookup(&op.name).ok_or_else(|| IrError::UnknownOp(op.name.clone()))?;
        verify_op_shape(op, spec).map_err(ctx)?;
        let is_last = i + 1 == block.ops.len();
        if spec.terminator && !is_last {
            return Err(ctx(IrError::Verify(format!(
                "terminator {} is not last in block {}",
                op.name, block.id
            ))));
        }
        if is_last && !spec.terminator {
            return Err(ctx(IrError::Verify(format!(
                "block {} does not end with a terminator (ends with {})",
                block.id, op.name
            ))));
        }
        for key in BRANCH_TARGETS.into_iter().filter(|_| spec.terminator) {
            if let Some(target) = op.attr(key).filter(|t| region.block_index(t).is_none()) {
                return Err(ctx(IrError::Verify(format!(
                    "{}: {key} = {target} names no block of its region",
                    op.name
                ))));
            }
        }
        for operand in &op.operands {
            if !defined.contains(operand) {
                return Err(ctx(IrError::Verify(format!(
                    "operand {operand} of {} used before definition",
                    op.name
                ))));
            }
        }
        // Nested regions see everything defined so far (but their local
        // definitions must not leak back out except through op results).
        // Their errors carry their own inner location context.
        for inner_region in &op.regions {
            let mut inner = defined.clone();
            verify_region(func, inner_region, callees, &mut inner, all_defs)?;
        }
        for result in &op.results {
            define(*result, func, defined, all_defs).map_err(ctx)?;
        }
        verify_op_types(func, op, callees).map_err(ctx)?;
    }
    Ok(())
}

fn verify_op_shape(op: &Op, spec: &OpSpec) -> IrResult<()> {
    if !spec.operands.admits(op.operands.len()) {
        return Err(IrError::Verify(format!(
            "{} expects operands {:?}, got {}",
            op.name,
            spec.operands,
            op.operands.len()
        )));
    }
    if !spec.results.admits(op.results.len()) {
        return Err(IrError::Verify(format!(
            "{} expects results {:?}, got {}",
            op.name,
            spec.results,
            op.results.len()
        )));
    }
    for key in spec.required_attrs {
        if !op.attrs.contains_key(*key) {
            return Err(IrError::Verify(format!("{} missing required attr '{key}'", op.name)));
        }
    }
    if op.regions.len() != spec.regions {
        return Err(IrError::Verify(format!(
            "{} expects {} regions, got {}",
            op.name,
            spec.regions,
            op.regions.len()
        )));
    }
    Ok(())
}

fn ty(func: &Func, v: Value) -> &Type {
    func.value_type(v)
}

/// `(t0, t1, …)`: the types of a call's operands, results or signature.
fn type_list<'t>(types: impl Iterator<Item = &'t Type>) -> String {
    format!("({})", types.map(Type::to_string).collect::<Vec<_>>().join(", "))
}

fn verify_op_types(func: &Func, op: &Op, callees: Option<&Callees<'_>>) -> IrResult<()> {
    let err = |msg: String| Err(IrError::Verify(format!("{}: {msg}", op.name)));
    match op.name.as_str() {
        "func.call" => {
            let Some(callees) = callees else { return Ok(()) };
            let target = &op.attrs["callee"];
            let Some(callee) = target.as_str().and_then(|name| callees.get(name)) else {
                return err(format!("callee {target} names no function of this module"));
            };
            let args = op.operands.iter().map(|v| ty(func, *v));
            if !args.clone().eq(&callee.params) {
                return err(format!(
                    "passes {} to @{}, which takes {}",
                    type_list(args),
                    callee.name,
                    type_list(callee.params.iter())
                ));
            }
            let results = op.results.iter().map(|v| ty(func, *v));
            if !results.clone().eq(&callee.results) {
                return err(format!(
                    "expects {} from @{}, which returns {}",
                    type_list(results),
                    callee.name,
                    type_list(callee.results.iter())
                ));
            }
            Ok(())
        }
        "arith.constant" => {
            let rt = ty(func, op.results[0]);
            match op.attrs.get("value") {
                Some(Attr::Int(_)) if rt.is_int() => Ok(()),
                Some(Attr::Float(_)) if rt.is_float() => Ok(()),
                Some(a) => err(format!("value attr {a} incompatible with result type {rt}")),
                None => unreachable!("required attr checked earlier"),
            }
        }
        "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf" | "arith.minf" => {
            let (a, b, r) =
                (ty(func, op.operands[0]), ty(func, op.operands[1]), ty(func, op.results[0]));
            if a != b || a != r {
                return err(format!("operand/result types differ: {a}, {b} -> {r}"));
            }
            if !a.is_float() {
                return err(format!("float op on non-float type {a}"));
            }
            Ok(())
        }
        "arith.addi" | "arith.subi" | "arith.muli" | "arith.divi" | "arith.remi" => {
            let (a, b, r) =
                (ty(func, op.operands[0]), ty(func, op.operands[1]), ty(func, op.results[0]));
            if a != b || a != r {
                return err(format!("operand/result types differ: {a}, {b} -> {r}"));
            }
            if !a.is_int() {
                return err(format!("integer op on non-integer type {a}"));
            }
            Ok(())
        }
        "arith.cmpf" | "arith.cmpi" => {
            if ty(func, op.results[0]) != &Type::I1 {
                return err("comparison result must be i1".into());
            }
            Ok(())
        }
        "arith.select" => {
            if ty(func, op.operands[0]) != &Type::I1 {
                return err("select condition must be i1".into());
            }
            let (t, e, r) =
                (ty(func, op.operands[1]), ty(func, op.operands[2]), ty(func, op.results[0]));
            if t != e || t != r {
                return err("select branches/result types differ".into());
            }
            Ok(())
        }
        "mem.load" => {
            let buf = ty(func, op.operands[0]);
            match buf {
                Type::MemRef { elem, shape, .. } => {
                    if op.operands.len() - 1 != shape.len() {
                        return err(format!(
                            "{} indices for rank-{} memref",
                            op.operands.len() - 1,
                            shape.len()
                        ));
                    }
                    if ty(func, op.results[0]) != elem.as_ref() {
                        return err("load result type != element type".into());
                    }
                    Ok(())
                }
                other => err(format!("load from non-memref type {other}")),
            }
        }
        "mem.store" => {
            let buf = ty(func, op.operands[1]);
            match buf {
                Type::MemRef { elem, shape, .. } => {
                    if op.operands.len() - 2 != shape.len() {
                        return err(format!(
                            "{} indices for rank-{} memref",
                            op.operands.len() - 2,
                            shape.len()
                        ));
                    }
                    if ty(func, op.operands[0]) != elem.as_ref() {
                        return err("stored value type != element type".into());
                    }
                    Ok(())
                }
                other => err(format!("store into non-memref type {other}")),
            }
        }
        "mem.copy" => match (ty(func, op.operands[0]), ty(func, op.operands[1])) {
            (Type::MemRef { elem: a, shape: s, .. }, Type::MemRef { elem: b, shape: t, .. })
                if a == b && s == t =>
            {
                Ok(())
            }
            (src, dst) => err(format!(
                "copy from {src} into {dst}: not memrefs of one element type and shape"
            )),
        },
        name if name.starts_with("tensor.") => {
            let (declared, t) = (ty(func, op.results[0]), TensorOp::of(func, op)?);
            match declared {
                Type::Tensor { elem, shape } if **elem == *t.elem && *shape == t.shape => Ok(()),
                _ => err(format!("declares {declared} but computes {}", t.result_type())),
            }
        }
        "func.return" => {
            if op.operands.len() != func.results.len() {
                return err(format!(
                    "returns {} values but function declares {}",
                    op.operands.len(),
                    func.results.len()
                ));
            }
            for (v, want) in op.operands.iter().zip(&func.results) {
                if ty(func, *v) != want {
                    return err(format!("return type {} != declared {want}", ty(func, *v)));
                }
            }
            Ok(())
        }
        "loop.for" => {
            let l = ForLoop::of(op)?;
            if op.results.len() != op.operands.len() {
                return err("loop results must match loop-carried inits".into());
            }
            if l.carried().len() != op.operands.len() {
                return err("loop body must take induction var + carried args".into());
            }
            if ty(func, l.iv) != &Type::Index {
                return err("loop induction variable must be index".into());
            }
            match l.body.terminator() {
                Some(t) if t.name == "loop.yield" => {
                    if t.operands.len() != op.operands.len() {
                        return err("loop.yield count != carried count".into());
                    }
                    Ok(())
                }
                _ => err("loop body must end with loop.yield".into()),
            }
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ir::Op as IrOp;

    fn simple_func() -> Func {
        let mut fb = FuncBuilder::new("f", &[Type::F32, Type::F32], &[Type::F32]);
        let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F32);
        fb.ret(&[s]);
        fb.finish()
    }

    #[test]
    fn valid_function_verifies() {
        assert!(verify_func(&simple_func()).is_ok());
    }

    #[test]
    fn duplicate_symbols_rejected() {
        let mut m = Module::new("m");
        m.push(simple_func());
        m.push(simple_func());
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("duplicate function symbol"));
    }

    #[test]
    fn calls_are_checked_against_their_callee_in_a_module() {
        let module = |result: Type| {
            let mut m = Module::new("m");
            let mut fb = FuncBuilder::new("caller", &[Type::F64], std::slice::from_ref(&result));
            let out = fb.call("callee", &[fb.arg(0), fb.arg(0)], std::slice::from_ref(&result));
            fb.ret(&out);
            m.push(fb.finish());
            let mut fb = FuncBuilder::new("callee", &[Type::F64, Type::F64], &[Type::F64]);
            let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F64);
            fb.ret(&[s]);
            m.push(fb.finish());
            m
        };
        // A callee declared after its caller, with a matching signature.
        verify_module(&module(Type::F64)).unwrap();
        let err = verify_module(&module(Type::F32)).unwrap_err();
        assert!(
            err.to_string().ends_with("expects (f32) from @callee, which returns (f64)"),
            "{err}"
        );
        // Alone, a function's calls have no callee to be checked against.
        verify_func(module(Type::F32).func("caller").unwrap()).unwrap();
    }

    #[test]
    fn use_before_def_rejected() {
        let mut f = Func::new("f", &[], &[]);
        let ghost = f.new_value(Type::F32);
        let ghost2 = f.new_value(Type::F32);
        let mut op = IrOp::new("arith.negf");
        op.operands = vec![ghost];
        op.results = vec![ghost2];
        let entry = f.body.blocks.first_mut().unwrap();
        entry.ops.push(op);
        entry.ops.push(IrOp::new("func.return"));
        let err = verify_func(&f).unwrap_err();
        assert!(err.to_string().contains("used before definition"));
    }

    #[test]
    fn unknown_op_rejected() {
        let mut f = Func::new("f", &[], &[]);
        f.body.blocks.first_mut().unwrap().ops.push(IrOp::new("alien.op"));
        assert_eq!(verify_func(&f).unwrap_err(), IrError::UnknownOp("alien.op".into()));
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        fb.const_f(1.0, Type::F64);
        let f = fb.finish();
        let err = verify_func(&f).unwrap_err();
        assert!(err.to_string().contains("does not end with a terminator"));
    }

    #[test]
    fn mixed_float_types_rejected() {
        let mut fb = FuncBuilder::new("f", &[Type::F32, Type::F64], &[Type::F32]);
        let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F32);
        fb.ret(&[s]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(err.to_string().contains("types differ"));
    }

    #[test]
    fn matmul_shape_mismatch_rejected() {
        let a = Type::tensor(Type::F32, &[4, 8]);
        let b = Type::tensor(Type::F32, &[9, 3]);
        let c = Type::tensor(Type::F32, &[4, 3]);
        let mut fb = FuncBuilder::new("f", &[a, b], std::slice::from_ref(&c));
        let r = fb.binary("tensor.matmul", fb.arg(0), fb.arg(1), c);
        fb.ret(&[r]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(
            err.to_string().ends_with("tensor.matmul: inner dimensions 8 and 9 differ"),
            "{err}"
        );
    }

    #[test]
    fn return_arity_mismatch_rejected() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        fb.ret(&[]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(err.to_string().contains("declares"));
    }

    #[test]
    fn constant_type_attr_mismatch_rejected() {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        // Float payload with integer result type.
        fb.const_f(1.5, Type::I32);
        fb.ret(&[]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(err.to_string().contains("incompatible"));
    }

    #[test]
    fn loop_structure_verified() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 8, 2, &[init], |fb, _iv, c| {
            let k = fb.const_f(3.0, Type::F64);
            vec![fb.binary("arith.addf", c[0], k, Type::F64)]
        });
        fb.ret(&[out[0]]);
        assert!(verify_func(&fb.finish()).is_ok());
    }

    #[test]
    fn a_copy_needs_one_element_type_and_shape_in_any_spaces() {
        use crate::types::MemSpace;
        let copy = |src: Type, dst: Type| {
            let mut fb = FuncBuilder::new("f", &[], &[]);
            let (s, d) = (fb.op1(IrOp::new("mem.alloc"), src), fb.op1(IrOp::new("mem.alloc"), dst));
            let mut op = IrOp::new("mem.copy");
            op.operands = vec![s, d];
            fb.push_op(op);
            fb.ret(&[]);
            verify_func(&fb.finish())
        };
        let host = Type::memref(Type::F64, &[4, 2], MemSpace::Host);
        copy(host.clone(), Type::memref(Type::F64, &[4, 2], MemSpace::Scratchpad)).unwrap();
        let wider = Type::memref(Type::F64, &[8], MemSpace::Host);
        for dst in [wider, Type::memref(Type::F32, &[4, 2], MemSpace::Host)] {
            let err = copy(host.clone(), dst).unwrap_err();
            assert!(err.to_string().contains("not memrefs of one element type and shape"), "{err}");
        }
    }

    #[test]
    fn errors_carry_block_and_op_index() {
        let mut fb = FuncBuilder::new("f", &[Type::F32, Type::F64], &[Type::F32]);
        let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F32);
        fb.ret(&[s]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(err.to_string().contains("at ^bb0 op 0 (arith.addf):"), "{err}");
        let mut m = Module::new("m");
        let mut fb = FuncBuilder::new("g", &[], &[Type::F64]);
        fb.ret(&[]);
        m.push(fb.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.to_string().contains("in @g: at ^bb0 op 0 (func.return):"), "{err}");
    }

    #[test]
    fn load_rank_mismatch_rejected() {
        use crate::types::MemSpace;
        let buf = Type::memref(Type::F32, &[4, 4], MemSpace::Host);
        let mut fb = FuncBuilder::new("f", &[buf], &[]);
        let i = fb.const_i(0, Type::Index);
        fb.load(fb.arg(0), &[i], Type::F32); // rank-2 memref, one index
        fb.ret(&[]);
        let err = verify_func(&fb.finish()).unwrap_err();
        assert!(err.to_string().contains("rank-2"));
    }
}
