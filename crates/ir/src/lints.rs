//! Static analyses and lints built on the `crate::dataflow` engine.
//!
//! Three IR-level analyses run over every function:
//!
//! * **liveness** (backward) drives the `dead-store` and `unused-result`
//!   lints;
//! * **integer range analysis** (forward) drives `range-oob`, flagging
//!   statically out-of-bounds `mem.load`/`mem.store` indices — including
//!   loop-bound/buffer-size mismatches via `loop.for` induction ranges;
//! * **taint/IFC analysis** (forward) drives `taint-flow`: `secure.taint`
//!   ops introduce labels, flows propagate through ops, buffers and region
//!   boundaries, and any secret label reaching an unprotected sink
//!   (`df.sink`, `func.return`) is an error.
//!
//! All findings use the shared [`Diagnostic`] type; [`check_module`] is the
//! entry point used by `everestc check`.

use crate::attr::Attr;
use crate::dataflow::{
    analyze, bind_region_args, bind_region_results, Analysis, Direction, Interval, Lattice,
};
use crate::diag::{op_snippet, record_metrics, Diagnostic, Severity};
use crate::ir::{Block, ForLoop, Func, Module, Op, Value};
use crate::registry;
use crate::types::Type;
use std::collections::{BTreeMap, BTreeSet};

/// A store into a locally allocated buffer that is never read afterwards.
pub(crate) const LINT_DEAD_STORE: &str = "dead-store";
/// A pure op whose results are never used.
pub(crate) const LINT_UNUSED_RESULT: &str = "unused-result";
/// A memory access whose index range provably exceeds the buffer shape.
pub(crate) const LINT_RANGE_OOB: &str = "range-oob";
/// A secret-labelled value reaching an unprotected sink.
pub(crate) const LINT_TAINT_FLOW: &str = "taint-flow";
/// Two workflow tasks touching the same dataset with no ordering edge
/// (reported by `everest-workflow`'s race detector through the same
/// diagnostic format).
pub const LINT_WF_RACE: &str = "wf-race";
/// A workflow task referencing a kernel that is not present in the kernel
/// search path (reported by `everestc check`/`fuse` — fusion analysis must
/// never run on a partial graph).
pub const LINT_UNRESOLVED_KERNEL: &str = "wf-unresolved-kernel";
/// A workflow dataset edge classified *racy* by the fusion-legality
/// classifier: unordered conflicting access with a concrete counterexample
/// (reported by `everestc fuse`).
pub const LINT_FUSE_RACY: &str = "fuse-racy";

// ---------------------------------------------------------------------------
// Liveness → dead-store / unused-result
// ---------------------------------------------------------------------------

/// Backward liveness facts: values that may still be read, and buffers that
/// may still be read (or escape) later in the execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LiveState {
    /// SSA values with a later use.
    pub live: BTreeSet<Value>,
    /// Buffer values with a later read or escape.
    pub read_bufs: BTreeSet<Value>,
}

impl Lattice for LiveState {
    fn bottom() -> Self {
        LiveState { live: BTreeSet::new(), read_bufs: BTreeSet::new() }
    }

    fn join(&mut self, other: &Self) -> bool {
        let a = self.live.join(&other.live);
        let b = self.read_bufs.join(&other.read_bufs);
        a || b
    }
}

/// Classic backward may-liveness over SSA values plus a coarse "buffer still
/// read" bit per memref value. Everything except `mem.store`/`mem.alloc`
/// counts as reading (or escaping) its memref operands, so passing a buffer
/// to a call, sink or return conservatively keeps its stores alive.
pub(crate) struct Liveness;

impl Analysis for Liveness {
    type State = LiveState;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn transfer(&self, func: &Func, op: &Op, state: &mut Self::State) {
        for r in &op.results {
            state.live.remove(r);
        }
        for o in &op.operands {
            state.live.insert(*o);
        }
        if op.name != "mem.store" && op.name != "mem.alloc" {
            for o in &op.operands {
                if matches!(func.value_type(*o), Type::MemRef { .. }) {
                    state.read_bufs.insert(*o);
                }
            }
        }
    }
}

fn liveness_lints(func: &Func) -> Vec<Diagnostic> {
    let mut local_bufs = BTreeSet::new();
    func.walk(&mut |op| {
        if op.name == "mem.alloc" {
            local_bufs.extend(op.results.iter().copied());
        }
    });
    let mut diags = Vec::new();
    // Backward analysis: the state handed over at each op holds the facts
    // about what executes *after* it.
    analyze(func, &Liveness, |site, op, after| {
        if op.name == "mem.store" {
            if let Some(buf) = op.operands.get(1) {
                if local_bufs.contains(buf) && !after.read_bufs.contains(buf) {
                    diags.push(
                        Diagnostic::new(
                            Severity::Warning,
                            LINT_DEAD_STORE,
                            &func.name,
                            format!("store to {buf} is never read"),
                        )
                        .at(site.to_string())
                        .with_snippet(op_snippet(op)),
                    );
                }
            }
        } else if registry::is_pure(&op.name)
            && op.regions.is_empty()
            && !op.results.is_empty()
            && op.results.iter().all(|r| !after.live.contains(r))
        {
            let rs: Vec<String> = op.results.iter().map(|r| r.to_string()).collect();
            diags.push(
                Diagnostic::new(
                    Severity::Warning,
                    LINT_UNUSED_RESULT,
                    &func.name,
                    format!("result {} of pure op {} is never used", rs.join(", "), op.name),
                )
                .at(site.to_string())
                .with_snippet(op_snippet(op)),
            );
        }
    });
    diags
}

// ---------------------------------------------------------------------------
// Integer range analysis → range-oob
// ---------------------------------------------------------------------------

/// Forward interval analysis over integer-typed SSA values. Function
/// parameters and unknown results are `TOP` (anything), `loop.for`
/// induction variables get their static trip range, and only *bounded*
/// intervals ever produce diagnostics — the analysis never guesses.
pub(crate) struct RangeAnalysis;

type RangeState = BTreeMap<Value, Interval>;

fn range_of(state: &RangeState, v: Value) -> Interval {
    state.get(&v).copied().unwrap_or(Interval::BOTTOM)
}

impl Analysis for RangeAnalysis {
    type State = RangeState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, func: &Func) -> Self::State {
        let mut state = BTreeMap::new();
        if let Some(entry) = func.body.entry() {
            for arg in &entry.args {
                if func.value_type(*arg).is_int() {
                    state.insert(*arg, Interval::TOP);
                }
            }
        }
        state
    }

    fn transfer(&self, func: &Func, op: &Op, state: &mut Self::State) {
        let result = match op.name.as_str() {
            "arith.constant" => op.attr("value").and_then(Attr::as_int).map(Interval::point),
            "arith.addi" => Some(range_of(state, op.operands[0]) + range_of(state, op.operands[1])),
            "arith.subi" => Some(range_of(state, op.operands[0]) - range_of(state, op.operands[1])),
            "arith.muli" => Some(range_of(state, op.operands[0]) * range_of(state, op.operands[1])),
            "arith.cmpi" => Some(Interval::range(0, 1)),
            "arith.select" if op.operands.len() == 3 => {
                let mut hull = range_of(state, op.operands[1]);
                hull.join(&range_of(state, op.operands[2]));
                Some(hull)
            }
            _ => None,
        };
        match (result, op.results.first()) {
            (Some(interval), Some(r)) => {
                state.entry(*r).or_insert(Interval::BOTTOM).join(&interval);
            }
            _ => {
                // Unknown op: its integer results could be anything.
                for r in &op.results {
                    if func.value_type(*r).is_int() {
                        state.insert(*r, Interval::TOP);
                    }
                }
            }
        }
    }

    fn enter_region(
        &self,
        func: &Func,
        op: &Op,
        _region_index: usize,
        entry: &Block,
        state: &mut Self::State,
    ) {
        for arg in &entry.args {
            if func.value_type(*arg).is_int() {
                state.insert(*arg, Interval::TOP);
            }
        }
        // A loop's induction variable ranges from its first value to its
        // last. Loop-carried values stay TOP: they may change every
        // iteration, and TOP guarantees the back-edge converges.
        if let Ok(l) = ForLoop::of(op) {
            if let Some(last) = l.last() {
                state.insert(l.iv, Interval::range(l.lo, last));
            }
        }
    }
}

/// `(buffer, indices)` of a memory access, if `op` is one.
fn access_of(op: &Op) -> Option<(Value, &[Value])> {
    match op.name.as_str() {
        "mem.load" => Some((*op.operands.first()?, op.operands.get(1..)?)),
        "mem.store" => Some((*op.operands.get(1)?, op.operands.get(2..)?)),
        _ => None,
    }
}

fn range_lints(func: &Func) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    analyze(func, &RangeAnalysis, |site, op, before| {
        let Some((buf, indices)) = access_of(op) else { return };
        let Some(shape) = func.value_type(buf).shape() else { return };
        for (dim, idx) in indices.iter().enumerate() {
            let Some(&extent) = shape.get(dim) else { continue };
            let range = range_of(before, *idx);
            if range.is_bounded() && (range.lo < 0 || range.hi >= extent as i64) {
                diags.push(
                    Diagnostic::new(
                        Severity::Error,
                        LINT_RANGE_OOB,
                        &func.name,
                        format!(
                            "index {idx} ranges over [{}, {}] but dimension {dim} of {buf} \
                             has size {extent}",
                            range.lo, range.hi
                        ),
                    )
                    .at(site.to_string())
                    .with_snippet(op_snippet(op)),
                );
            }
        }
    });
    diags
}

// ---------------------------------------------------------------------------
// Taint / IFC → taint-flow
// ---------------------------------------------------------------------------

type TaintState = BTreeMap<Value, BTreeSet<String>>;

/// Forward information-flow analysis: `secure.taint {label}` introduces a
/// label, labels union through ordinary ops, flow through buffers
/// (`mem.store`/`mem.load`/`mem.copy`) and across region boundaries via
/// yields. `secure.declassify`/`secure.encrypt` launder their input.
pub(crate) struct TaintAnalysis;

fn labels_of(state: &TaintState, v: Value) -> BTreeSet<String> {
    state.get(&v).cloned().unwrap_or_default()
}

fn add_labels(state: &mut TaintState, v: Value, labels: &BTreeSet<String>) {
    if !labels.is_empty() {
        state.entry(v).or_default().extend(labels.iter().cloned());
    }
}

/// `true` if any label denotes secret data (everything except `public`).
pub(crate) fn is_secret(labels: &BTreeSet<String>) -> bool {
    labels.iter().any(|l| l != "public")
}

impl Analysis for TaintAnalysis {
    type State = TaintState;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn transfer(&self, _func: &Func, op: &Op, state: &mut Self::State) {
        match op.name.as_str() {
            "secure.taint" => {
                let mut labels = labels_of(state, op.operands[0]);
                if let Some(label) = op.attr("label").and_then(Attr::as_str) {
                    labels.insert(label.to_string());
                }
                for r in &op.results {
                    add_labels(state, *r, &labels);
                }
            }
            // Declassification and encryption produce clean values.
            "secure.declassify" | "secure.encrypt" => {}
            "mem.store" => {
                if let (Some(value), Some(buf)) = (op.operands.first(), op.operands.get(1)) {
                    let labels = labels_of(state, *value);
                    add_labels(state, *buf, &labels);
                }
            }
            "mem.load" => {
                if let (Some(buf), Some(r)) = (op.operands.first(), op.results.first()) {
                    let labels = labels_of(state, *buf);
                    add_labels(state, *r, &labels);
                }
            }
            "mem.copy" => {
                if let (Some(src), Some(dst)) = (op.operands.first(), op.operands.get(1)) {
                    let labels = labels_of(state, *src);
                    add_labels(state, *dst, &labels);
                }
            }
            _ => {
                let mut labels = BTreeSet::new();
                for o in &op.operands {
                    labels.extend(labels_of(state, *o));
                }
                for r in &op.results {
                    add_labels(state, *r, &labels);
                }
            }
        }
    }

    fn enter_region(
        &self,
        _func: &Func,
        op: &Op,
        _region_index: usize,
        entry: &Block,
        state: &mut Self::State,
    ) {
        bind_region_args(op, entry, state);
    }

    fn exit_region(
        &self,
        _func: &Func,
        op: &Op,
        region_index: usize,
        exit: &Self::State,
        state: &mut Self::State,
    ) {
        bind_region_results(op, region_index, exit, state);
    }
}

/// Values passed through a `secure.check` op (treated as protected sinks).
fn checked_values(func: &Func) -> BTreeSet<Value> {
    let mut checked = BTreeSet::new();
    func.walk(&mut |op| {
        if op.name == "secure.check" {
            checked.extend(op.operands.iter().copied());
        }
    });
    checked
}

fn taint_lints(func: &Func) -> Vec<Diagnostic> {
    let checked = checked_values(func);
    let mut diags = Vec::new();
    analyze(func, &TaintAnalysis, |site, op, before| {
        if op.name != "df.sink" && op.name != "func.return" {
            return;
        }
        for operand in &op.operands {
            let labels = labels_of(before, *operand);
            if is_secret(&labels) && !checked.contains(operand) {
                let secret: Vec<&str> =
                    labels.iter().filter(|l| l.as_str() != "public").map(String::as_str).collect();
                diags.push(
                    Diagnostic::new(
                        Severity::Error,
                        LINT_TAINT_FLOW,
                        &func.name,
                        format!(
                            "value {operand} carrying secret label{} {} reaches unprotected \
                             sink {}",
                            if secret.len() == 1 { "" } else { "s" },
                            secret.join(", "),
                            op.name
                        ),
                    )
                    .at(site.to_string())
                    .with_snippet(op_snippet(op)),
                );
            }
        }
    });
    diags
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs every IR lint on one function.
pub fn check_func(func: &Func) -> Vec<Diagnostic> {
    let mut diags = liveness_lints(func);
    diags.extend(range_lints(func));
    diags.extend(taint_lints(func));
    diags
}

/// Runs every IR lint on every function of `module` and bumps the
/// `check.diag.{error,warn}` telemetry counters.
pub fn check_module(module: &Module) -> Vec<Diagnostic> {
    let mut span = everest_telemetry::span("ir.check", "ir");
    let mut diags = Vec::new();
    for func in module.iter() {
        diags.extend(check_func(func));
    }
    span.attr("diagnostics", diags.len());
    record_metrics(&diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::{MemSpace, Type};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn dead_store_flagged_only_without_later_read() {
        let mut fb = FuncBuilder::new("f", &[], &[Type::F32]);
        let buf = fb.op1(Op::new("mem.alloc"), Type::memref(Type::F32, &[4], MemSpace::Scratchpad));
        let i = fb.const_i(0, Type::Index);
        let v = fb.const_f(1.0, Type::F32);
        fb.store(v, buf, &[i]);
        let out = fb.load(buf, &[i], Type::F32);
        fb.ret(&[out]);
        let clean = check_func(&fb.finish());
        assert!(!codes(&clean).contains(&LINT_DEAD_STORE), "{clean:?}");

        let mut fb = FuncBuilder::new("g", &[Type::F32], &[Type::F32]);
        let buf = fb.op1(Op::new("mem.alloc"), Type::memref(Type::F32, &[4], MemSpace::Scratchpad));
        let i = fb.const_i(0, Type::Index);
        fb.store(fb.arg(0), buf, &[i]);
        fb.ret(&[fb.arg(0)]);
        let diags = check_func(&fb.finish());
        assert!(codes(&diags).contains(&LINT_DEAD_STORE), "{diags:?}");
    }

    #[test]
    fn escaping_buffer_keeps_stores_alive() {
        let buf_ty = Type::memref(Type::F32, &[4], MemSpace::Host);
        let mut fb = FuncBuilder::new("f", &[], &[]);
        let buf = fb.op1(Op::new("mem.alloc"), buf_ty);
        let i = fb.const_i(0, Type::Index);
        let v = fb.const_f(1.0, Type::F32);
        fb.store(v, buf, &[i]);
        let mut sink = Op::new("df.sink").with_attr("kind", "out");
        sink.operands = vec![buf];
        fb.push_op(sink);
        fb.ret(&[]);
        let diags = check_func(&fb.finish());
        assert!(!codes(&diags).contains(&LINT_DEAD_STORE), "{diags:?}");
    }

    #[test]
    fn unused_result_flagged_for_pure_ops() {
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let _dead = fb.binary("arith.mulf", fb.arg(0), fb.arg(0), Type::F64);
        fb.ret(&[fb.arg(0)]);
        let diags = check_func(&fb.finish());
        assert_eq!(codes(&diags), vec![LINT_UNUSED_RESULT]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn loop_bound_mismatch_is_out_of_bounds() {
        let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[buf_ty], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        // Loop runs to 12 over a size-8 buffer.
        let out = fb.for_loop(0, 12, 1, &[init], |fb, iv, c| {
            let x = fb.load(fb.arg(0), &[iv], Type::F64);
            vec![fb.binary("arith.addf", c[0], x, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let diags = check_func(&fb.finish());
        let oob: Vec<_> = diags.iter().filter(|d| d.code == LINT_RANGE_OOB).collect();
        assert_eq!(oob.len(), 1, "{diags:?}");
        assert_eq!(oob[0].severity, Severity::Error);
        assert!(oob[0].message.contains("[0, 11]"), "{}", oob[0].message);
        assert!(oob[0].location.contains(" / "), "nested site: {}", oob[0].location);
    }

    #[test]
    fn in_bounds_loop_is_clean() {
        let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[buf_ty], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 8, 1, &[init], |fb, iv, c| {
            let x = fb.load(fb.arg(0), &[iv], Type::F64);
            vec![fb.binary("arith.addf", c[0], x, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let diags = check_func(&fb.finish());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_index_never_flags() {
        let buf_ty = Type::memref(Type::F64, &[8], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[buf_ty, Type::Index], &[Type::F64]);
        let x = fb.load(fb.arg(0), &[fb.arg(1)], Type::F64);
        fb.ret(&[x]);
        let diags = check_func(&fb.finish());
        assert!(diags.is_empty(), "{diags:?}");
    }

    fn tainted_to_sink() -> Func {
        let mut fb = FuncBuilder::new("leak", &[Type::F64], &[]);
        let mut taint = Op::new("secure.taint").with_attr("label", "patient-data");
        taint.operands = vec![fb.arg(0)];
        let secret = fb.op1(taint, Type::F64);
        let doubled = fb.binary("arith.addf", secret, secret, Type::F64);
        let mut sink = Op::new("df.sink").with_attr("kind", "out");
        sink.operands = vec![doubled];
        fb.push_op(sink);
        fb.ret(&[]);
        fb.finish()
    }

    #[test]
    fn secret_reaching_sink_is_reported() {
        let func = tainted_to_sink();
        let diags = check_func(&func);
        let taint: Vec<_> = diags.iter().filter(|d| d.code == LINT_TAINT_FLOW).collect();
        assert_eq!(taint.len(), 1, "{diags:?}");
        assert!(taint[0].message.contains("patient-data"));
    }

    #[test]
    fn declassified_flow_is_clean() {
        let mut fb = FuncBuilder::new("ok", &[Type::F64], &[]);
        let mut taint = Op::new("secure.taint").with_attr("label", "secret");
        taint.operands = vec![fb.arg(0)];
        let secret = fb.op1(taint, Type::F64);
        let public = fb.unary("secure.declassify", secret, Type::F64);
        let mut sink = Op::new("df.sink").with_attr("kind", "out");
        sink.operands = vec![public];
        fb.push_op(sink);
        fb.ret(&[]);
        let func = fb.finish();
        let diags = check_func(&func);
        assert!(codes(&diags).iter().all(|c| *c != LINT_TAINT_FLOW), "{diags:?}");
    }

    #[test]
    fn taint_flows_through_buffers_and_loops() {
        let buf_ty = Type::memref(Type::F64, &[4], MemSpace::Scratchpad);
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let mut taint = Op::new("secure.taint").with_attr("label", "key");
        taint.operands = vec![fb.arg(0)];
        let secret = fb.op1(taint, Type::F64);
        let buf = fb.op1(Op::new("mem.alloc"), buf_ty);
        let i = fb.const_i(0, Type::Index);
        fb.store(secret, buf, &[i]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 4, 1, &[init], |fb, iv, c| {
            let x = fb.load(buf, &[iv], Type::F64);
            vec![fb.binary("arith.addf", c[0], x, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let func = fb.finish();
        let diags = check_func(&func);
        // The loop result carries the label out through mem.load + yield.
        let taints: Vec<_> = diags.iter().filter(|d| d.code == LINT_TAINT_FLOW).collect();
        assert_eq!(taints.len(), 1, "{diags:?}");
        assert!(taints[0].message.contains("func.return"));
    }

    #[test]
    fn public_label_is_not_secret() {
        let mut fb = FuncBuilder::new("f", &[Type::F64], &[Type::F64]);
        let mut taint = Op::new("secure.taint").with_attr("label", "public");
        taint.operands = vec![fb.arg(0)];
        let v = fb.op1(taint, Type::F64);
        fb.ret(&[v]);
        let func = fb.finish();
        assert!(check_func(&func).is_empty());
    }
}
