//! Canonical textual form of the IR.
//!
//! The printer renumbers SSA values in print order, so the output of
//! `print_module` is a fixed point: parsing it back and printing again
//! yields byte-identical text. Grammar sketch (see `crate::parse` for the
//! reader):
//!
//! ```text
//! module @name {
//!   func @f(%0: f32, %1: f32) -> (f32) attrs {key = 1} {
//!     %2 = arith.addf %0, %1 : f32
//!     func.return %2
//!   }
//! }
//! ```
//!
//! Ops with nested regions print them in parentheses after the attribute
//! dictionary; every region block carries an explicit `^bbN(...)` header.

use crate::ir::{Block, Func, Module, Op, Region, Value};
use std::collections::HashMap;
use std::fmt::Write;

struct Printer<'f> {
    func: &'f Func,
    names: HashMap<Value, usize>,
    next: usize,
    out: String,
}

impl<'f> Printer<'f> {
    fn name(&mut self, v: Value) -> usize {
        if let Some(n) = self.names.get(&v) {
            return *n;
        }
        let n = self.next;
        self.next += 1;
        self.names.insert(v, n);
        n
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn print_op(&mut self, op: &Op, depth: usize) {
        self.indent(depth);
        if !op.results.is_empty() {
            let names: Vec<String> =
                op.results.iter().map(|r| format!("%{}", self.name(*r))).collect();
            write!(self.out, "{} = ", names.join(", ")).unwrap();
        }
        self.out.push_str(&op.name);
        if !op.operands.is_empty() {
            let names: Vec<String> =
                op.operands.iter().map(|o| format!("%{}", self.name(*o))).collect();
            write!(self.out, " {}", names.join(", ")).unwrap();
        }
        if !op.attrs.is_empty() {
            self.out.push_str(" {");
            for (i, (k, v)) in op.attrs.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                write!(self.out, "{k} = {v}").unwrap();
            }
            self.out.push('}');
        }
        if !op.regions.is_empty() {
            self.out.push_str(" (");
            for (i, region) in op.regions.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.out.push_str("{\n");
                self.print_region(region, depth + 1);
                self.indent(depth);
                self.out.push('}');
            }
            self.out.push(')');
        }
        if !op.results.is_empty() {
            let types: Vec<String> =
                op.results.iter().map(|r| self.func.value_type(*r).to_string()).collect();
            write!(self.out, " : {}", types.join(", ")).unwrap();
        }
        self.out.push('\n');
    }

    fn print_region(&mut self, region: &Region, depth: usize) {
        for block in &region.blocks {
            self.print_block_header(block, depth);
            for op in &block.ops {
                self.print_op(op, depth + 1);
            }
        }
    }

    fn print_block_header(&mut self, block: &Block, depth: usize) {
        self.indent(depth);
        write!(self.out, "^bb{}(", block.id.0).unwrap();
        for (i, arg) in block.args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name(*arg);
            write!(self.out, "%{}: {}", n, self.func.value_type(*arg)).unwrap();
        }
        self.out.push_str("):\n");
    }
}

/// Prints one function in canonical form at the given indentation depth.
pub fn print_func(func: &Func, depth: usize) -> String {
    let mut p = Printer { func, names: HashMap::new(), next: 0, out: String::new() };
    p.indent(depth);
    write!(p.out, "func @{}(", func.name).unwrap();
    if let Some(entry) = func.body.entry() {
        for (i, arg) in entry.args.iter().enumerate() {
            if i > 0 {
                p.out.push_str(", ");
            }
            let n = p.name(*arg);
            write!(p.out, "%{}: {}", n, func.value_type(*arg)).unwrap();
        }
    }
    p.out.push_str(") -> (");
    for (i, t) in func.results.iter().enumerate() {
        if i > 0 {
            p.out.push_str(", ");
        }
        write!(p.out, "{t}").unwrap();
    }
    p.out.push(')');
    if !func.attrs.is_empty() {
        p.out.push_str(" attrs {");
        for (i, (k, v)) in func.attrs.iter().enumerate() {
            if i > 0 {
                p.out.push_str(", ");
            }
            write!(p.out, "{k} = {v}").unwrap();
        }
        p.out.push('}');
    }
    p.out.push_str(" {\n");
    // The entry block body prints without a header; additional blocks get
    // explicit headers.
    for (i, block) in func.body.blocks.iter().enumerate() {
        if i > 0 {
            p.print_block_header(block, depth + 1);
        }
        for op in &block.ops {
            p.print_op(op, depth + 1);
        }
    }
    p.indent(depth);
    p.out.push_str("}\n");
    p.out
}

/// Prints a whole module in canonical form.
pub(crate) fn print_module(module: &Module) -> String {
    let mut out = String::new();
    writeln!(out, "module @{} {{", module.name).unwrap();
    for func in module.iter() {
        out.push_str(&print_func(func, 1));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    #[test]
    fn prints_simple_function() {
        let mut fb = FuncBuilder::new("add", &[Type::F32, Type::F32], &[Type::F32]);
        let s = fb.binary("arith.addf", fb.arg(0), fb.arg(1), Type::F32);
        fb.ret(&[s]);
        let mut m = Module::new("m");
        m.push(fb.finish());
        let text = m.to_text();
        assert!(text.contains("module @m {"));
        assert!(text.contains("func @add(%0: f32, %1: f32) -> (f32) {"));
        assert!(text.contains("%2 = arith.addf %0, %1 : f32"));
        assert!(text.contains("func.return %2"));
    }

    #[test]
    fn renumbers_in_print_order() {
        // Build a function where value allocation order differs from
        // definition order (loop results are allocated after body values).
        let mut fb = FuncBuilder::new("f", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, _iv, c| {
            let k = fb.const_f(1.0, Type::F64);
            vec![fb.binary("arith.addf", c[0], k, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let mut m = Module::new("m");
        m.push(fb.finish());
        let text = m.to_text();
        // loop.for results must be numbered before the region's contents.
        let loop_line = text.lines().find(|l| l.contains("loop.for")).unwrap();
        assert!(loop_line.trim_start().starts_with("%1 = loop.for %0"));
        assert!(text.contains("^bb1(%2: index, %3: f64):"));
    }

    #[test]
    fn attrs_print_deterministically() {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        let op =
            crate::ir::Op::new("df.source").with_attr("kind", "sensor").with_attr("arity", 2i64);
        fb.op(op, &[Type::Token]);
        fb.ret(&[]);
        let mut m = Module::new("m");
        m.push(fb.finish());
        let text = m.to_text();
        // BTreeMap ordering: arity before kind.
        assert!(text.contains("df.source {arity = 2, kind = \"sensor\"}"));
    }
}
