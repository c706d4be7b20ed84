//! The dialect registry: structural specifications for every operation the
//! EVEREST IR understands.
//!
//! Each op is described by an [`OpSpec`] giving its operand/result arity,
//! purity, required attributes, region count and type [`Rule`] (which also
//! says whether it ends a block). The verifier, the printer/parser and the
//! generic passes are all driven by this table, so adding a dialect is a
//! matter of adding rows here.

use std::collections::HashMap;
use std::sync::OnceLock;
use Arity::{Any, AtLeast, Exact};
use Rule::*;

/// Operand or result arity constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n`.
    Exact(usize),
    /// At least `n`.
    AtLeast(usize),
    /// Any number, including zero.
    Any,
}

impl Arity {
    /// Whether `n` satisfies this constraint.
    pub(crate) fn admits(&self, n: usize) -> bool {
        match self {
            Arity::Exact(k) => n == *k,
            Arity::AtLeast(k) => n >= *k,
            Arity::Any => true,
        }
    }
}

/// Static description of one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// Fully qualified op name (`dialect.mnemonic`).
    pub name: &'static str,
    /// Operand arity.
    pub operands: Arity,
    /// Result arity.
    pub results: Arity,
    /// Whether the op has no side effects: unused, it may be deleted.
    pub pure: bool,
    /// Attribute keys that must be present.
    pub required_attrs: &'static [&'static str],
    /// Exact number of nested regions.
    pub regions: usize,
    /// The type rule.
    pub rule: Rule,
}

/// The type rule of an op, which the verifier runs after its row's arity,
/// attribute and region checks. Every row names one, so an op without a
/// rule does not compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The `value` attribute is of the result's kind: integer or float.
    Constant,
    /// The operands and the result are one float type.
    Float,
    /// The operands and the result are one integer type.
    Int,
    /// Two operands of one float type give an `i1`.
    CmpFloat,
    /// Two operands of one integer type give an `i1`.
    CmpInt,
    /// An `i1` picks one of two operands of the result's type.
    Select,
    /// An integer operand gives a float result.
    IntToFloat,
    /// A float operand gives an integer result.
    FloatToInt,
    /// Ends a block outside loop bodies; the operands have the function's
    /// result types.
    Return,
    /// In a module, the callee's signature is the operand and result types.
    Call,
    /// Ends a block outside loop bodies; the condition, if any, is an `i1`,
    /// and no target takes arguments, as no reader binds them.
    Branch,
    /// Its [`ForLoop`](crate::ForLoop) view decodes, the induction variable
    /// is an `index`, and the inits, carried arguments, yielded values and
    /// results are one list of types.
    Loop,
    /// Ends a loop body, whose loop checks the types it passes.
    Yield,
    /// The result is a memref.
    Alloc,
    /// A memref and an index per dimension give an element.
    Load,
    /// An element, a memref and an index per dimension.
    Store,
    /// Two memrefs of one element type and shape.
    MemCopy,
    /// The result type is the one its [`TensorOp`](crate::TensorOp) view computes.
    Tensor,
    /// The result type is the operand's.
    SameType,
    /// The result is `bytes`.
    Bytes,
    /// No type rule: the workflow and policy ops take values of any type.
    Untyped,
}

impl Rule {
    /// Whether the op ends its block: a return, a branch or a yield.
    pub(crate) fn terminates(self) -> bool {
        matches!(self, Rule::Return | Rule::Branch | Rule::Yield)
    }
}

const fn spec(
    name: &'static str,
    operands: Arity,
    results: Arity,
    pure: bool,
    required_attrs: &'static [&'static str],
    regions: usize,
    rule: Rule,
) -> OpSpec {
    OpSpec { name, operands, results, pure, required_attrs, regions, rule }
}

/// The full op table, grouped by dialect.
pub(crate) static OP_SPECS: &[OpSpec] = &[
    // --- arith: scalar arithmetic --------------------------------------
    spec("arith.constant", Exact(0), Exact(1), true, &["value"], 0, Constant),
    spec("arith.addf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.subf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.mulf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.divf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.maxf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.minf", Exact(2), Exact(1), true, &[], 0, Float),
    spec("arith.negf", Exact(1), Exact(1), true, &[], 0, Float),
    spec("arith.sqrtf", Exact(1), Exact(1), true, &[], 0, Float),
    spec("arith.expf", Exact(1), Exact(1), true, &[], 0, Float),
    spec("arith.addi", Exact(2), Exact(1), true, &[], 0, Int),
    spec("arith.subi", Exact(2), Exact(1), true, &[], 0, Int),
    spec("arith.muli", Exact(2), Exact(1), true, &[], 0, Int),
    spec("arith.divi", Exact(2), Exact(1), true, &[], 0, Int),
    spec("arith.remi", Exact(2), Exact(1), true, &[], 0, Int),
    spec("arith.cmpf", Exact(2), Exact(1), true, &["pred"], 0, CmpFloat),
    spec("arith.cmpi", Exact(2), Exact(1), true, &["pred"], 0, CmpInt),
    spec("arith.select", Exact(3), Exact(1), true, &[], 0, Select),
    spec("arith.sitofp", Exact(1), Exact(1), true, &[], 0, IntToFloat),
    spec("arith.fptosi", Exact(1), Exact(1), true, &[], 0, FloatToInt),
    // --- func: calls and returns ---------------------------------------
    spec("func.return", Any, Exact(0), false, &[], 0, Return),
    spec("func.call", Any, Any, false, &["callee"], 0, Call),
    // --- cf: unstructured control flow ----------------------------------
    spec("cf.br", Exact(0), Exact(0), false, &["dest"], 0, Branch),
    spec("cf.cond_br", Exact(1), Exact(0), false, &["true_dest", "false_dest"], 0, Branch),
    // --- loop: structured counted loops ---------------------------------
    spec("loop.for", Any, Any, false, &["lo", "hi", "step"], 1, Loop),
    spec("loop.yield", Any, Exact(0), false, &[], 0, Yield),
    // --- mem: buffers ----------------------------------------------------
    spec("mem.alloc", Exact(0), Exact(1), false, &[], 0, Alloc),
    spec("mem.load", AtLeast(1), Exact(1), true, &[], 0, Load),
    spec("mem.store", AtLeast(2), Exact(0), false, &[], 0, Store),
    spec("mem.copy", Exact(2), Exact(0), false, &[], 0, MemCopy),
    // --- tensor: data-centric dense algebra ------------------------------
    spec("tensor.fill", Exact(0), Exact(1), true, &["value"], 0, Tensor),
    spec("tensor.matmul", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.add", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.sub", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.mul", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.scale", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.transpose", Exact(1), Exact(1), true, &["perm"], 0, Tensor),
    spec("tensor.reduce", Exact(1), Exact(1), true, &["dims", "kind"], 0, Tensor),
    spec("tensor.conv2d", Exact(2), Exact(1), true, &[], 0, Tensor),
    spec("tensor.stencil", Exact(1), Exact(1), true, &["weights"], 0, Tensor),
    spec("tensor.relu", Exact(1), Exact(1), true, &[], 0, Tensor),
    spec("tensor.sigmoid", Exact(1), Exact(1), true, &[], 0, Tensor),
    // --- df: dataflow / workflow orchestration --------------------------
    spec("df.task", Any, Any, false, &["callee"], 0, Untyped),
    spec("df.source", Exact(0), Exact(1), false, &["kind"], 0, Untyped),
    spec("df.sink", AtLeast(1), Exact(0), false, &["kind"], 0, Untyped),
    // --- secure: data-protection annotations -----------------------------
    spec("secure.encrypt", Exact(2), Exact(1), false, &[], 0, Bytes),
    spec("secure.taint", Exact(1), Exact(1), false, &["label"], 0, SameType),
    spec("secure.declassify", Exact(1), Exact(1), false, &[], 0, SameType),
    spec("secure.check", Exact(1), Exact(0), false, &["policy"], 0, Untyped),
];

fn table() -> &'static HashMap<&'static str, &'static OpSpec> {
    static TABLE: OnceLock<HashMap<&'static str, &'static OpSpec>> = OnceLock::new();
    TABLE.get_or_init(|| OP_SPECS.iter().map(|s| (s.name, s)).collect())
}

/// Looks up the spec for an op name.
///
/// ```
/// let spec = everest_ir::registry::lookup("arith.addf").unwrap();
/// assert!(spec.pure);
/// ```
pub fn lookup(name: &str) -> Option<&'static OpSpec> {
    table().get(name).copied()
}

/// Whether the given op name denotes a pure (side-effect free) operation.
/// Unknown ops are conservatively treated as impure.
pub(crate) fn is_pure(name: &str) -> bool {
    lookup(name).map(|s| s.pure).unwrap_or(false)
}

/// Whether the given op name denotes a block terminator.
pub fn is_terminator(name: &str) -> bool {
    lookup(name).is_some_and(|s| s.rule.terminates())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_admits() {
        assert!(Arity::Exact(2).admits(2));
        assert!(!Arity::Exact(2).admits(3));
        assert!(Arity::AtLeast(1).admits(5));
        assert!(!Arity::AtLeast(1).admits(0));
        assert!(Arity::Any.admits(0));
    }

    #[test]
    fn lookup_known_and_unknown() {
        assert!(lookup("tensor.matmul").is_some());
        assert!(lookup("bogus.op").is_none());
    }

    /// All registered dialect names.
    const DIALECTS: &[&str] = &["arith", "func", "cf", "loop", "mem", "tensor", "df", "secure"];

    #[test]
    fn every_spec_name_has_registered_dialect_prefix() {
        for s in OP_SPECS {
            let dialect = s.name.split('.').next().unwrap();
            assert!(DIALECTS.contains(&dialect), "dialect of {} unregistered", s.name);
        }
    }

    #[test]
    fn the_table_holds_49_ops_four_of_them_untyped() {
        assert_eq!(OP_SPECS.len(), 49);
        assert_eq!(OP_SPECS.iter().filter(|s| s.rule == Rule::Untyped).count(), 4);
    }

    #[test]
    fn spec_names_are_unique() {
        let mut names: Vec<_> = OP_SPECS.iter().map(|s| s.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn traits_match_expectations() {
        assert!(is_pure("arith.mulf"));
        assert!(!is_pure("mem.store"));
        assert!(!is_pure("no.such.op"));
        assert!(is_terminator("func.return"));
        assert!(is_terminator("loop.yield"));
        assert!(!is_terminator("arith.addf"));
    }

    #[test]
    fn terminators_produce_no_results() {
        for s in OP_SPECS.iter().filter(|s| s.rule.terminates()) {
            assert_eq!(s.results, Arity::Exact(0), "{} is a terminator with results", s.name);
        }
    }
}
