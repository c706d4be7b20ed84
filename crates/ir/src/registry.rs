//! The dialect registry: structural specifications for every operation the
//! EVEREST IR understands.
//!
//! Each op is described by an [`OpSpec`] giving its operand/result arity,
//! traits (purity, terminator), required attributes and region count. The
//! verifier, the printer/parser and the generic passes are all driven by
//! this table, so adding a dialect is a matter of adding rows here plus an
//! optional type-check hook in [`crate::verify`].

use std::collections::HashMap;
use std::sync::OnceLock;

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
    /// `true` if the op has no side effects and may be deleted when unused
    /// or deduplicated by CSE.
    pub pure: bool,
    /// `true` if the op must appear last in its block.
    pub terminator: bool,
    /// Attribute keys that must be present.
    pub required_attrs: &'static [&'static str],
    /// Exact number of nested regions.
    pub regions: usize,
}

/// All registered dialect names.
#[cfg(test)]
const DIALECTS: &[&str] = &["arith", "func", "cf", "loop", "mem", "tensor", "df", "hls", "secure"];

const fn spec(
    name: &'static str,
    operands: Arity,
    results: Arity,
    pure: bool,
    terminator: bool,
    required_attrs: &'static [&'static str],
    regions: usize,
) -> OpSpec {
    OpSpec { name, operands, results, pure, terminator, required_attrs, regions }
}

/// The full op table, grouped by dialect.
pub(crate) static OP_SPECS: &[OpSpec] = &[
    // --- arith: scalar arithmetic --------------------------------------
    spec("arith.constant", Arity::Exact(0), Arity::Exact(1), true, false, &["value"], 0),
    spec("arith.addf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.subf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.mulf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.divf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.maxf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.minf", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.negf", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    spec("arith.sqrtf", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    spec("arith.expf", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    spec("arith.addi", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.subi", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.muli", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.divi", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.remi", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("arith.cmpf", Arity::Exact(2), Arity::Exact(1), true, false, &["pred"], 0),
    spec("arith.cmpi", Arity::Exact(2), Arity::Exact(1), true, false, &["pred"], 0),
    spec("arith.select", Arity::Exact(3), Arity::Exact(1), true, false, &[], 0),
    spec("arith.sitofp", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    spec("arith.fptosi", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    // --- func: calls and returns ---------------------------------------
    spec("func.return", Arity::Any, Arity::Exact(0), false, true, &[], 0),
    spec("func.call", Arity::Any, Arity::Any, false, false, &["callee"], 0),
    // --- cf: unstructured control flow ----------------------------------
    spec("cf.br", Arity::Any, Arity::Exact(0), false, true, &["dest"], 0),
    spec(
        "cf.cond_br",
        Arity::Exact(1),
        Arity::Exact(0),
        false,
        true,
        &["true_dest", "false_dest"],
        0,
    ),
    // --- loop: structured counted loops ---------------------------------
    // Operands are the loop-carried init values; the body block takes the
    // induction variable followed by the iteration arguments; results are
    // the final iteration values.
    spec("loop.for", Arity::Any, Arity::Any, false, false, &["lo", "hi", "step"], 1),
    spec("loop.yield", Arity::Any, Arity::Exact(0), false, true, &[], 0),
    // --- mem: buffers ----------------------------------------------------
    spec("mem.alloc", Arity::Exact(0), Arity::Exact(1), false, false, &[], 0),
    spec("mem.load", Arity::AtLeast(1), Arity::Exact(1), true, false, &[], 0),
    spec("mem.store", Arity::AtLeast(2), Arity::Exact(0), false, false, &[], 0),
    spec("mem.copy", Arity::Exact(2), Arity::Exact(0), false, false, &[], 0),
    // --- tensor: data-centric dense algebra ------------------------------
    spec("tensor.fill", Arity::Exact(0), Arity::Exact(1), true, false, &["value"], 0),
    spec("tensor.matmul", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.add", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.sub", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.mul", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.scale", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.transpose", Arity::Exact(1), Arity::Exact(1), true, false, &["perm"], 0),
    spec("tensor.reduce", Arity::Exact(1), Arity::Exact(1), true, false, &["dims", "kind"], 0),
    spec("tensor.conv2d", Arity::Exact(2), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.stencil", Arity::Exact(1), Arity::Exact(1), true, false, &["weights"], 0),
    spec("tensor.relu", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    spec("tensor.sigmoid", Arity::Exact(1), Arity::Exact(1), true, false, &[], 0),
    // --- df: dataflow / workflow orchestration --------------------------
    spec("df.graph", Arity::Any, Arity::Any, false, false, &[], 1),
    spec("df.task", Arity::Any, Arity::Any, false, false, &["callee"], 0),
    spec("df.source", Arity::Exact(0), Arity::Exact(1), false, false, &["kind"], 0),
    spec("df.sink", Arity::AtLeast(1), Arity::Exact(0), false, false, &["kind"], 0),
    spec("df.yield", Arity::Any, Arity::Exact(0), false, true, &[], 0),
    // --- hls: hardware generation directives -----------------------------
    spec("hls.offload", Arity::Any, Arity::Any, false, false, &["kernel"], 0),
    spec("hls.partition", Arity::Exact(1), Arity::Exact(1), false, false, &["banks", "scheme"], 0),
    // --- secure: data-protection annotations -----------------------------
    spec("secure.encrypt", Arity::Exact(2), Arity::Exact(1), false, false, &[], 0),
    spec("secure.decrypt", Arity::Exact(2), Arity::Exact(1), false, false, &[], 0),
    spec("secure.taint", Arity::Exact(1), Arity::Exact(1), false, false, &["label"], 0),
    spec("secure.declassify", Arity::Exact(1), Arity::Exact(1), false, false, &[], 0),
    spec("secure.check", Arity::Exact(1), Arity::Exact(0), false, false, &["policy"], 0),
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
    lookup(name).map(|s| s.terminator).unwrap_or(false)
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

    #[test]
    fn every_spec_name_has_registered_dialect_prefix() {
        for s in OP_SPECS {
            let dialect = s.name.split('.').next().unwrap();
            assert!(DIALECTS.contains(&dialect), "dialect of {} unregistered", s.name);
        }
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
        for s in OP_SPECS.iter().filter(|s| s.terminator) {
            assert_eq!(s.results, Arity::Exact(0), "{} is a terminator with results", s.name);
        }
    }
}
