//! The pass framework and the standard middle-end passes.
//!
//! EVEREST's compilation engine "explores code variants" over a normalized
//! IR; the passes here perform that normalization: dead-code elimination,
//! common-subexpression elimination and constant folding, plus a
//! `canonicalize` driver that iterates them to a fixed point.

use crate::attr::Attr;
use crate::error::IrResult;
use crate::ir::{Block, Func, Module, Region, Value};
use crate::registry;
use std::collections::{HashMap, HashSet};

/// A transformation over a module.
pub(crate) trait Pass {
    /// Human-readable pass name (used in diagnostics).
    fn name(&self) -> &str;
    /// Runs the pass; returns `true` if the module changed.
    ///
    /// # Errors
    ///
    /// Passes may fail with [`crate::IrError::Pass`] when preconditions are
    /// violated.
    fn run(&self, module: &mut Module) -> IrResult<bool>;
}

/// Runs a pipeline of passes in order.
///
/// ```
/// use everest_ir::{pass::PassManager, Module};
/// let pm = PassManager::standard();
/// let mut m = Module::new("m");
/// pm.run(&mut m).unwrap();
/// ```
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager").field("passes", &names).finish()
    }
}

impl PassManager {
    /// Creates an empty pipeline.
    pub(crate) fn new() -> PassManager {
        PassManager::default()
    }

    /// Appends a pass to the pipeline.
    pub(crate) fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The standard optimization pipeline (fold, cse, dce iterated).
    pub fn standard() -> PassManager {
        let mut pm = PassManager::new();
        pm.add(Canonicalize::default());
        pm
    }

    /// Runs every pass once, in order; returns `true` if anything changed.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn run(&self, module: &mut Module) -> IrResult<bool> {
        let mut pipeline = everest_telemetry::span("ir.pipeline", "ir");
        pipeline.attr("passes", self.passes.len());
        let mut changed = false;
        for pass in &self.passes {
            let mut span = everest_telemetry::span(pass.name(), "ir.pass");
            let pass_changed = pass.run(module)?;
            span.attr("changed", pass_changed);
            if pass_changed {
                everest_telemetry::metrics().counter_inc("ir.pass.changed");
            }
            changed |= pass_changed;
        }
        Ok(changed)
    }
}

fn for_each_func(module: &mut Module, f: impl Fn(&mut Func) -> bool) -> bool {
    let mut changed = false;
    for func in module.iter_mut() {
        changed |= f(func);
    }
    changed
}

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

fn collect_uses(region: &Region, used: &mut HashSet<Value>) {
    region.walk(&mut |op| {
        for v in &op.operands {
            used.insert(*v);
        }
    });
}

fn dce_region(region: &mut Region, used: &HashSet<Value>) -> bool {
    let mut changed = false;
    for block in &mut region.blocks {
        let before = block.ops.len();
        block.ops.retain(|op| {
            let removable = registry::is_pure(&op.name)
                && op.regions.is_empty()
                && op.results.iter().all(|r| !used.contains(r));
            !removable
        });
        changed |= block.ops.len() != before;
        for op in &mut block.ops {
            for nested in &mut op.regions {
                changed |= dce_region(nested, used);
            }
        }
    }
    changed
}

/// Runs DCE on one function until a fixed point.
pub(crate) fn dce_func(func: &mut Func) -> bool {
    let mut changed = false;
    loop {
        let mut used = HashSet::new();
        collect_uses(&func.body, &mut used);
        if !dce_region(&mut func.body, &used) {
            return changed;
        }
        changed = true;
    }
}

// ---------------------------------------------------------------------------
// Common subexpression elimination
// ---------------------------------------------------------------------------

fn attr_key(attrs: &std::collections::BTreeMap<String, Attr>) -> String {
    let mut out = String::new();
    for (k, v) in attrs {
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
        out.push(';');
    }
    out
}

fn remap(v: Value, map: &HashMap<Value, Value>) -> Value {
    let mut cur = v;
    while let Some(next) = map.get(&cur) {
        cur = *next;
    }
    cur
}

fn cse_block(
    block: &mut Block,
    seen: &mut HashMap<(String, Vec<Value>, String), Vec<Value>>,
    map: &mut HashMap<Value, Value>,
) -> bool {
    let mut changed = false;
    let mut kept = Vec::with_capacity(block.ops.len());
    for mut op in std::mem::take(&mut block.ops) {
        for operand in &mut op.operands {
            let r = remap(*operand, map);
            if r != *operand {
                *operand = r;
                changed = true;
            }
        }
        let eligible = registry::is_pure(&op.name) && op.regions.is_empty();
        if eligible {
            let key = (op.name.clone(), op.operands.clone(), attr_key(&op.attrs));
            if let Some(prev) = seen.get(&key) {
                for (old, new) in op.results.iter().zip(prev) {
                    map.insert(*old, *new);
                }
                changed = true;
                continue; // drop duplicate op
            }
            seen.insert(key, op.results.clone());
        }
        for nested in &mut op.regions {
            for nested_block in &mut nested.blocks {
                // Nested scopes inherit outer equivalences but cannot leak
                // their own upward: clone the table.
                let mut inner_seen = seen.clone();
                changed |= cse_block(nested_block, &mut inner_seen, map);
            }
        }
        kept.push(op);
    }
    block.ops = kept;
    changed
}

/// Runs CSE on one function.
pub(crate) fn cse_func(func: &mut Func) -> bool {
    let mut seen = HashMap::new();
    let mut map = HashMap::new();
    let mut changed = false;
    let mut blocks = std::mem::take(&mut func.body.blocks);
    for block in &mut blocks {
        changed |= cse_block(block, &mut seen, &mut map);
    }
    func.body.blocks = blocks;
    changed
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

fn fold_float(name: &str, a: f64, b: f64) -> Option<f64> {
    Some(match name {
        "arith.addf" => a + b,
        "arith.subf" => a - b,
        "arith.mulf" => a * b,
        "arith.divf" => a / b,
        "arith.maxf" => a.max(b),
        "arith.minf" => a.min(b),
        _ => return None,
    })
}

fn fold_int(name: &str, a: i64, b: i64) -> Option<i64> {
    Some(match name {
        "arith.addi" => a.wrapping_add(b),
        "arith.subi" => a.wrapping_sub(b),
        "arith.muli" => a.wrapping_mul(b),
        "arith.divi" if b != 0 => a.wrapping_div(b),
        "arith.remi" if b != 0 => a.wrapping_rem(b),
        _ => return None,
    })
}

fn fold_unary_float(name: &str, a: f64) -> Option<f64> {
    Some(match name {
        "arith.negf" => -a,
        "arith.sqrtf" if a >= 0.0 => a.sqrt(),
        "arith.expf" => a.exp(),
        _ => return None,
    })
}

fn fold_region(func: &Func, region: &mut Region, consts: &mut HashMap<Value, Attr>) -> bool {
    let mut changed = false;
    for block in &mut region.blocks {
        for op in &mut block.ops {
            for nested in &mut op.regions {
                // Loop bodies may execute many times, but constants remain
                // constants; propagate the outer environment in.
                let mut inner = consts.clone();
                changed |= fold_region(func, nested, &mut inner);
            }
            if op.name == "arith.constant" {
                if let Some(v) = op.attr("value") {
                    consts.insert(op.results[0], v.clone());
                }
                continue;
            }
            let folded: Option<Attr> = match (op.operands.len(), op.name.as_str()) {
                (2, name) => {
                    let a = op.operands[0];
                    let b = op.operands[1];
                    match (consts.get(&a), consts.get(&b)) {
                        (Some(Attr::Float(x)), Some(Attr::Float(y))) => {
                            fold_float(name, *x, *y).map(Attr::Float)
                        }
                        (Some(Attr::Int(x)), Some(Attr::Int(y))) => {
                            fold_int(name, *x, *y).map(Attr::Int)
                        }
                        _ => None,
                    }
                }
                (1, name) => match consts.get(&op.operands[0]) {
                    Some(Attr::Float(x)) => fold_unary_float(name, *x).map(Attr::Float),
                    _ => None,
                },
                _ => None,
            };
            if let Some(value) = folded {
                // Only rewrite when the result type matches the payload kind
                // (the verifier demands e.g. float payloads for float types).
                let rt = func.value_type(op.results[0]);
                let compatible = matches!(
                    (&value, rt.is_float(), rt.is_int()),
                    (Attr::Float(_), true, _) | (Attr::Int(_), _, true)
                );
                if compatible {
                    consts.insert(op.results[0], value.clone());
                    op.name = "arith.constant".into();
                    op.operands.clear();
                    op.attrs.clear();
                    op.attrs.insert("value".into(), value);
                    changed = true;
                }
            }
        }
    }
    changed
}

/// Runs constant folding on one function.
pub(crate) fn fold_func(func: &mut Func) -> bool {
    let mut consts = HashMap::new();
    let mut body = std::mem::take(&mut func.body);
    let changed = fold_region(func, &mut body, &mut consts);
    func.body = body;
    changed
}

// ---------------------------------------------------------------------------
// Canonicalize: fold + cse + dce to a fixed point
// ---------------------------------------------------------------------------

/// Iterates folding, CSE and DCE until nothing changes (bounded).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Canonicalize {
    /// Maximum number of iterations (safety bound).
    pub max_iters: usize,
}

impl Default for Canonicalize {
    fn default() -> Canonicalize {
        Canonicalize { max_iters: 8 }
    }
}

impl Pass for Canonicalize {
    fn name(&self) -> &str {
        "canonicalize"
    }

    fn run(&self, module: &mut Module) -> IrResult<bool> {
        type FuncPass = fn(&mut Func) -> bool;
        const STEPS: [(&str, &str, FuncPass); 3] = [
            ("fold", "ir.pass.changed.fold", fold_func),
            ("cse", "ir.pass.changed.cse", cse_func),
            ("dce", "ir.pass.changed.dce", dce_func),
        ];
        let mut any = false;
        for iter in 0..self.max_iters {
            let mut iter_span = everest_telemetry::span("canonicalize.iter", "ir.pass");
            iter_span.attr("iteration", iter);
            let mut changed = false;
            for (name, counter, func_pass) in STEPS {
                let mut span = everest_telemetry::span(name, "ir.pass");
                let step_changed = for_each_func(module, func_pass);
                span.attr("changed", step_changed);
                if step_changed {
                    everest_telemetry::metrics().counter_inc(counter);
                }
                changed |= step_changed;
            }
            iter_span.attr("changed", changed);
            if !changed {
                break;
            }
            any = true;
        }
        Ok(any)
    }
}

/// Returns the scalar constant feeding `v` in `func`, if `v` is defined by an
/// `arith.constant` anywhere in the body.
pub fn constant_of(func: &Func, v: Value) -> Option<Attr> {
    let mut found = None;
    func.walk(&mut |op| {
        if op.name == "arith.constant" && op.results.first() == Some(&v) {
            found = op.attr("value").cloned();
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::ir::Op;
    use crate::types::Type;

    fn module_of(func: Func) -> Module {
        let mut m = Module::new("t");
        m.push(func);
        m
    }

    #[test]
    fn dce_removes_unused_pure_ops() {
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let dead = fb.const_f(9.0, Type::F64);
        let _dead2 = fb.binary("arith.mulf", dead, dead, Type::F64);
        fb.ret(&[fb.arg(0)]);
        let mut m = module_of(fb.finish());
        assert!(for_each_func(&mut m, dce_func));
        assert_eq!(m.func("f").unwrap().op_count(), 1); // just the return
        m.verify().unwrap();
    }

    #[test]
    fn dce_keeps_impure_ops() {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        let v = fb.const_f(1.0, Type::F64);
        let mut sink = Op::new("df.sink").with_attr("kind", "out");
        sink.operands = vec![v];
        fb.push_op(sink);
        fb.ret(&[]);
        let mut m = module_of(fb.finish());
        for_each_func(&mut m, dce_func);
        assert_eq!(m.func("f").unwrap().op_count(), 3);
    }

    #[test]
    fn cse_deduplicates_identical_pure_ops() {
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let a = fb.binary("arith.mulf", fb.arg(0), fb.arg(0), Type::F64);
        let b = fb.binary("arith.mulf", fb.arg(0), fb.arg(0), Type::F64);
        let s = fb.binary("arith.addf", a, b, Type::F64);
        fb.ret(&[s]);
        let mut m = module_of(fb.finish());
        assert!(for_each_func(&mut m, cse_func));
        let f = m.func("f").unwrap();
        assert_eq!(f.op_count(), 3); // mulf, addf, return
        m.verify().unwrap();
        // The addf now uses the surviving mulf twice.
        let addf = f.body.entry().unwrap().ops.iter().find(|o| o.name == "arith.addf").unwrap();
        assert_eq!(addf.operands[0], addf.operands[1]);
    }

    #[test]
    fn cse_respects_attrs() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64, Type::F64]);
        let a = fb.const_f(1.0, Type::F64);
        let b = fb.const_f(2.0, Type::F64);
        fb.ret(&[a, b]);
        let mut m = module_of(fb.finish());
        assert!(!for_each_func(&mut m, cse_func));
        assert_eq!(m.func("f").unwrap().op_count(), 3);
    }

    #[test]
    fn fold_evaluates_constant_arith() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let a = fb.const_f(3.0, Type::F64);
        let b = fb.const_f(4.0, Type::F64);
        let p = fb.binary("arith.mulf", a, b, Type::F64);
        let q = fb.unary("arith.sqrtf", p, Type::F64);
        fb.ret(&[q]);
        let mut m = module_of(fb.finish());
        assert!(for_each_func(&mut m, fold_func));
        let f = m.func("f").unwrap();
        let ret = f.body.entry().unwrap().terminator().unwrap();
        let final_const = constant_of(f, ret.operands[0]).unwrap();
        assert!((final_const.as_float().unwrap() - 12f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fold_skips_division_by_zero() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::I64]);
        let a = fb.const_i(3, Type::I64);
        let b = fb.const_i(0, Type::I64);
        let d = fb.binary("arith.divi", a, b, Type::I64);
        fb.ret(&[d]);
        let mut m = module_of(fb.finish());
        assert!(!for_each_func(&mut m, fold_func));
    }

    #[test]
    fn canonicalize_reaches_fixed_point() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let a = fb.const_f(2.0, Type::F64);
        let b = fb.const_f(2.0, Type::F64);
        let c = fb.binary("arith.addf", a, b, Type::F64);
        let d = fb.binary("arith.mulf", c, c, Type::F64);
        let _dead = fb.binary("arith.subf", d, c, Type::F64);
        fb.ret(&[d]);
        let mut m = module_of(fb.finish());
        PassManager::standard().run(&mut m).unwrap();
        let f = m.func("f").unwrap();
        // Everything collapses to a single constant + return.
        assert_eq!(f.op_count(), 2);
        let ret = f.body.entry().unwrap().terminator().unwrap();
        assert_eq!(constant_of(f, ret.operands[0]).unwrap().as_float(), Some(16.0));
        m.verify().unwrap();
    }

    #[test]
    fn fold_inside_loop_bodies() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let two = fb.const_f(2.0, Type::F64);
            let three = fb.const_f(3.0, Type::F64);
            let six = fb.binary("arith.mulf", two, three, Type::F64);
            vec![fb.binary("arith.addf", c[0], six, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let mut m = module_of(fb.finish());
        PassManager::standard().run(&mut m).unwrap();
        m.verify().unwrap();
        // The 2*3 inside the loop folds to 6.
        let mut has_six = false;
        m.func("f").unwrap().walk(&mut |op| {
            if op.name == "arith.constant" && op.attr("value").and_then(Attr::as_float) == Some(6.0)
            {
                has_six = true;
            }
        });
        assert!(has_six);
    }

    #[test]
    fn pass_manager_debug_lists_passes() {
        let pm = PassManager::standard();
        assert_eq!(format!("{pm:?}"), "PassManager { passes: [\"canonicalize\"] }");
    }
}
