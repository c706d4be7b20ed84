//! IR structural and type verification.
//!
//! The verifier enforces, in order:
//!
//! 1. every op is registered, and terminators end their blocks;
//! 2. SSA form: every value has exactly one definition, and every use is
//!    dominated by its definition (program order, with nested regions
//!    inheriting the enclosing scope);
//! 3. every op satisfies its [`OpSpec`]: arity, required attributes,
//!    region count, then its type [`Rule`] (a `loop.for` through its
//!    [`ForLoop`] view, a `tensor` op through its [`TensorOp`] view, a
//!    branch's targets among the blocks of its region);
//! 4. in a module, every `func.call` names a function of the module and
//!    matches its signature, and no chain of calls leads back to its
//!    caller.

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::ir::{Block, ForLoop, Func, Module, Op, Region, Value, BRANCH_TARGETS};
use crate::registry::{self, OpSpec, Rule};
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
    if !entry.args.iter().map(|v| func.value_type(*v)).eq(&func.params) {
        let (args, params) = (entry.args.iter().map(|v| func.value_type(*v)), func.params.iter());
        let (args, params) = (type_list(args), type_list(params));
        return Err(IrError::Verify(format!(
            "entry block takes ({args}) but params are ({params})"
        )));
    }
    let mut verifier = Verifier { func, callees, all_defs: Defs::new() };
    let mut defs = Defs::new();
    func.body.blocks.iter().try_for_each(|b| verifier.block(&func.body, b, false, &mut defs))
}

type Defs = HashSet<Value>;

/// The verification of one function.
struct Verifier<'a> {
    func: &'a Func,
    callees: Option<&'a Callees<'a>>,
    /// Every value defined so far, in any region.
    all_defs: Defs,
}

impl Verifier<'_> {
    fn define(&mut self, v: Value, defs: &mut Defs) -> IrResult<()> {
        if v.0 as usize >= self.func.num_values() {
            return Err(IrError::Verify(format!("value {v} was never allocated")));
        }
        if !self.all_defs.insert(v) {
            return Err(IrError::Verify(format!("value {v} defined more than once")));
        }
        defs.insert(v);
        Ok(())
    }

    /// Verifies `block` of `region` (a loop body when `in_loop`), whose ops
    /// see the values in `defs`.
    fn block(
        &mut self,
        region: &Region,
        block: &Block,
        in_loop: bool,
        defs: &mut Defs,
    ) -> IrResult<()> {
        for arg in &block.args {
            self.define(*arg, defs)?;
        }
        if block.ops.is_empty() {
            return Err(IrError::Verify(format!("block {} is empty", block.id)));
        }
        for (i, op) in block.ops.iter().enumerate() {
            // Tag every op-local failure with its exact location, in the same
            // `^bbN op I` format the dataflow lints report, so verifier and
            // `everestc check` findings are directly comparable.
            let (name, id) = (&op.name, block.id);
            let at = |msg: String| IrError::Verify(format!("at {id} op {i} ({name}): {msg}"));
            let spec = registry::lookup(name).ok_or_else(|| IrError::UnknownOp(name.clone()))?;
            let last = i + 1 == block.ops.len();
            if spec.rule.terminates() && !last {
                return Err(at(format!("terminator {name} is not last in block {id}")));
            }
            if last && !spec.rule.terminates() {
                return Err(at(format!(
                    "block {id} does not end with a terminator (ends with {name})"
                )));
            }
            if let Some(v) = op.operands.iter().find(|v| !defs.contains(v)) {
                return Err(at(format!("operand {v} of {name} used before definition")));
            }
            // Nested regions see everything defined so far (but their local
            // definitions must not leak back out except through op results).
            // Their errors carry their own inner location context.
            for inner in &op.regions {
                let mut defs = defs.clone();
                let in_body = spec.rule == Rule::Loop;
                inner.blocks.iter().try_for_each(|b| self.block(inner, b, in_body, &mut defs))?;
            }
            let located = |e: IrError| match e {
                IrError::Verify(msg) => at(msg),
                other => other,
            };
            for result in &op.results {
                self.define(*result, defs).map_err(located)?;
            }
            self.op(region, op, spec, in_loop).map_err(located)?;
        }
        Ok(())
    }

    /// Checks `op` of `region` against its row `spec`: arity, attributes
    /// and regions, then the row's type rule. Its operands and results are
    /// defined, and its regions verified.
    fn op(&self, region: &Region, op: &Op, spec: &OpSpec, in_loop: bool) -> IrResult<()> {
        let (name, func) = (&op.name, self.func);
        let fail = |msg: String| Err(IrError::Verify(msg));
        let (operands, results, regions) = (op.operands.len(), op.results.len(), op.regions.len());
        if !spec.operands.admits(operands) {
            return fail(format!("{name} expects operands {:?}, got {operands}", spec.operands));
        }
        if !spec.results.admits(results) {
            return fail(format!("{name} expects results {:?}, got {results}", spec.results));
        }
        if let Some(key) = spec.required_attrs.iter().find(|k| !op.attrs.contains_key(**k)) {
            return fail(format!("{name} missing required attr '{key}'"));
        }
        if regions != spec.regions {
            return fail(format!("{name} expects {} regions, got {regions}", spec.regions));
        }

        let err = |msg: String| fail(format!("{name}: {msg}"));
        let ty = |v: &Value| func.value_type(*v);
        let types = |values: &[Value]| type_list(values.iter().map(ty));
        let operand = |i: usize| ty(&op.operands[i]);
        let result = || ty(&op.results[0]);
        match spec.rule {
            Rule::Constant => match (&op.attrs["value"], result()) {
                (Attr::Int(_), rt) if rt.is_int() => Ok(()),
                (Attr::Float(_), rt) if rt.is_float() => Ok(()),
                (a, rt) => err(format!("value attr {a} incompatible with result type {rt}")),
            },
            Rule::Float | Rule::Int => {
                let (a, r, (kind, is)) = (operand(0), result(), scalar(spec.rule == Rule::Float));
                if op.operands.iter().any(|v| ty(v) != a) || a != r {
                    let a = types(&op.operands);
                    return err(format!("operand/result types differ: {a} -> {r}"));
                }
                match is(a) {
                    true => Ok(()),
                    false => err(format!("{kind} op on non-{kind} type {a}")),
                }
            }
            Rule::CmpFloat | Rule::CmpInt => {
                let (a, b, (kind, is)) =
                    (operand(0), operand(1), scalar(spec.rule == Rule::CmpFloat));
                if a != b || !is(a) {
                    return err(format!(
                        "compares {a} with {b}, not two values of one {kind} type"
                    ));
                }
                match result() {
                    Type::I1 => Ok(()),
                    _ => err("comparison result must be i1".into()),
                }
            }
            Rule::Select if operand(0) != &Type::I1 => err("select condition must be i1".into()),
            Rule::Select if operand(1) != operand(2) || operand(1) != result() => {
                err("select branches/result types differ".into())
            }
            Rule::IntToFloat | Rule::FloatToInt => {
                let to_float = spec.rule == Rule::IntToFloat;
                let ((from, from_ok), (to, to_ok)) = (scalar(!to_float), scalar(to_float));
                let (a, r) = (operand(0), result());
                match from_ok(a) && to_ok(r) {
                    true => Ok(()),
                    false => err(format!("converts {a} to {r}, not {from} to {to}")),
                }
            }
            Rule::Return if in_loop => err("returns from inside a loop body".into()),
            Rule::Return if !op.operands.iter().map(ty).eq(&func.results) => {
                let (got, declared) = (types(&op.operands), type_list(func.results.iter()));
                err(format!("returns ({got}) but the function declares ({declared})"))
            }
            Rule::Call => {
                let Some(callees) = self.callees else { return Ok(()) };
                let target = &op.attrs["callee"];
                let Some(callee) = target.as_str().and_then(|name| callees.get(name)) else {
                    return err(format!("callee {target} names no function of this module"));
                };
                let at = &callee.name;
                if !op.operands.iter().map(ty).eq(&callee.params) {
                    let (args, takes) = (types(&op.operands), type_list(callee.params.iter()));
                    return err(format!("passes ({args}) to @{at}, which takes ({takes})"));
                }
                if !op.results.iter().map(ty).eq(&callee.results) {
                    let (got, returns) = (types(&op.results), type_list(callee.results.iter()));
                    return err(format!("expects ({got}) from @{at}, which returns ({returns})"));
                }
                Ok(())
            }
            Rule::Branch if in_loop => err("branches inside a loop body".into()),
            Rule::Branch => {
                if let Some(t) = op.operands.iter().map(ty).find(|t| **t != Type::I1) {
                    return err(format!("branch condition {t} is not i1"));
                }
                for key in BRANCH_TARGETS {
                    let Some(target) = op.attr(key) else { continue };
                    let Some(b) = region.block_index(target).map(|b| &region.blocks[b]) else {
                        return err(format!("{key} = {target} names no block of its region"));
                    };
                    if !b.args.is_empty() {
                        return err(format!(
                            "{key} {} takes arguments, which no branch binds",
                            b.id
                        ));
                    }
                }
                Ok(())
            }
            Rule::Loop => {
                let l = ForLoop::of(op)?;
                if ty(&l.iv) != &Type::Index {
                    return err("loop induction variable must be index".into());
                }
                // The body's verified entry block ends with its yield.
                let yielded = l.body.terminator().map_or(&[][..], |y| &y.operands[..]);
                let lists = [&op.operands[..], l.carried(), yielded, &op.results];
                if lists.iter().any(|list| !list.iter().map(ty).eq(lists[0].iter().map(ty))) {
                    let [i, c, y, r] = lists.map(types);
                    return err(format!(
                        "inits ({i}), body args ({c}), yielded values ({y}) and results ({r}) \
                         are not one list of types"
                    ));
                }
                Ok(())
            }
            Rule::Yield if !in_loop => err("ends no loop body".into()),
            Rule::Alloc if !matches!(result(), Type::MemRef { .. }) => {
                err(format!("allocates {}, not a memref", result()))
            }
            Rule::Load | Rule::Store => {
                let load = spec.rule == Rule::Load;
                let (buf, elem) = if load { (0, result()) } else { (1, operand(0)) };
                let Type::MemRef { elem: want, shape, .. } = operand(buf) else {
                    let from = if load { "load from" } else { "store into" };
                    return err(format!("{from} non-memref type {}", operand(buf)));
                };
                let (indices, rank) = (&op.operands[buf + 1..], shape.len());
                if indices.len() != rank {
                    return err(format!("{} indices for rank-{rank} memref", indices.len()));
                }
                if let Some(t) = indices.iter().map(ty).find(|t| !t.is_int()) {
                    return err(format!("index of type {t} is not an integer"));
                }
                match (elem == want.as_ref(), load) {
                    (true, _) => Ok(()),
                    (false, true) => err("load result type != element type".into()),
                    (false, false) => err("stored value type != element type".into()),
                }
            }
            Rule::MemCopy => match (operand(0), operand(1)) {
                (
                    Type::MemRef { elem: a, shape: s, .. },
                    Type::MemRef { elem: b, shape: t, .. },
                ) if a == b && s == t => Ok(()),
                (src, dst) => err(format!(
                    "copy from {src} into {dst}: not memrefs of one element type and shape"
                )),
            },
            Rule::Tensor => {
                let (declared, t) = (result(), TensorOp::of(func, op)?);
                match declared {
                    Type::Tensor { elem, shape } if **elem == *t.elem && *shape == t.shape => {
                        Ok(())
                    }
                    _ => err(format!("declares {declared} but computes {}", t.result_type())),
                }
            }
            Rule::SameType if operand(0) != result() => {
                err(format!("result type {} is not the operand type {}", result(), operand(0)))
            }
            Rule::Bytes if !matches!(result(), Type::Bytes(_)) => {
                err(format!("result type {} is not bytes", result()))
            }
            Rule::Select | Rule::Return | Rule::Yield | Rule::Alloc => Ok(()),
            Rule::SameType | Rule::Bytes | Rule::Untyped => Ok(()),
        }
    }
}

/// `t0, t1, …`: the types of a list of values, or of a signature.
fn type_list<'t>(types: impl Iterator<Item = &'t Type>) -> String {
    types.map(Type::to_string).collect::<Vec<_>>().join(", ")
}

/// The name and the test of the scalar kind a rule asks for.
fn scalar(float: bool) -> (&'static str, fn(&Type) -> bool) {
    if float {
        ("float", Type::is_float)
    } else {
        ("integer", Type::is_int)
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

    /// The reason `verify_func` gives for `@f` with `params`, `results` and
    /// `body`.
    fn reason(params: &str, results: &str, body: &str) -> String {
        let text =
            format!("module @m {{\n  func @f({params}) -> ({results}) {{\n{body}\n  }}\n}}\n");
        let m = crate::parse_module(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        verify_func(m.func("f").unwrap()).unwrap_err().to_string()
    }

    #[test]
    fn every_rule_rejects_the_types_no_reader_runs() {
        let loop_of = |body: &str| {
            format!(
                "    %1 = loop.for %0 {{hi = 4, lo = 0, step = 1}} ({{\n      \
                 ^bb1(%2: index, %3: f64):\n{body}\n    }}) : f64\n    func.return %1"
            )
        };
        let cases = [
            (
                "%0: f64, %1: f32",
                "i1",
                "    %2 = arith.cmpf %0, %1 {pred = \"lt\"} : i1\n    func.return %2".into(),
                "op 0 (arith.cmpf): arith.cmpf: compares f64 with f32, not two values of one \
                 float type",
            ),
            (
                "%0: f64, %1: f64",
                "i1",
                "    %2 = arith.cmpi %0, %1 {pred = \"lt\"} : i1\n    func.return %2".into(),
                "op 0 (arith.cmpi): arith.cmpi: compares f64 with f64, not two values of one \
                 integer type",
            ),
            (
                "%0: i64",
                "i64",
                "    %1 = arith.fptosi %0 : i64\n    func.return %1".into(),
                "op 0 (arith.fptosi): arith.fptosi: converts i64 to i64, not float to integer",
            ),
            (
                "%0: f64",
                "f64",
                "    cf.cond_br %0 {false_dest = 1, true_dest = 1}\n  ^bb1():\n    func.return %0"
                    .into(),
                "op 0 (cf.cond_br): cf.cond_br: branch condition f64 is not i1",
            ),
            (
                "%0: f64",
                "f64",
                "    cf.br %0 {dest = 1}\n  ^bb1(%1: f64):\n    func.return %1".into(),
                "op 0 (cf.br): cf.br expects operands Exact(0), got 1",
            ),
            (
                "%0: f64",
                "f64",
                "    cf.br {dest = 1}\n  ^bb1(%1: f64):\n    func.return %0".into(),
                "op 0 (cf.br): cf.br: dest ^bb1 takes arguments, which no branch binds",
            ),
            (
                "%0: f64",
                "f64",
                "    loop.yield %0".into(),
                "op 0 (loop.yield): loop.yield: ends no loop body",
            ),
            (
                "%0: f64",
                "f64",
                loop_of("        func.return %3"),
                "op 0 (func.return): func.return: returns from inside a loop body",
            ),
            (
                "%0: memref<4xf64, host>, %1: f64",
                "f64",
                "    %2 = mem.load %0, %1 : f64\n    func.return %2".into(),
                "op 0 (mem.load): mem.load: index of type f64 is not an integer",
            ),
            (
                "%0: f64, %1: bytes<16>",
                "f64",
                "    %2 = secure.encrypt %0, %1 : f64\n    func.return %2".into(),
                "op 0 (secure.encrypt): secure.encrypt: result type f64 is not bytes",
            ),
        ];
        for (params, results, body, want) in cases {
            let got = reason(params, results, &body);
            assert!(got.ends_with(&format!("at ^bb0 {want}")) || got.ends_with(want), "{got}");
        }
        // The five ops nothing built or read are no longer registered.
        for name in ["df.graph", "df.yield", "hls.offload", "hls.partition", "secure.decrypt"] {
            let mut f = Func::new("f", &[], &[]);
            f.body.blocks.first_mut().unwrap().ops.push(IrOp::new(name));
            assert_eq!(verify_func(&f).unwrap_err(), IrError::UnknownOp(name.into()));
        }
    }
}
