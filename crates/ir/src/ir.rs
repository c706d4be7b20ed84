//! Core IR data structures: modules, functions, regions, blocks, operations
//! and SSA values.

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::types::Type;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A function-scoped SSA value handle.
///
/// Values are created by [`Func::new_value`] and printed as `%N`. The type of
/// a value lives in the owning function's side table
/// ([`Func::value_type`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u32);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a block within a function, printed as `^bbN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "^bb{}", self.0)
    }
}

/// A generic operation record.
///
/// Every op is identified by its dotted `dialect.mnemonic` name. Structural
/// constraints (arity, result count, required attributes, traits such as
/// purity or being a terminator) come from the [registry](crate::registry).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Fully qualified name, e.g. `"arith.addf"`.
    pub name: String,
    /// SSA operands, in order.
    pub operands: Vec<Value>,
    /// SSA results, in order.
    pub results: Vec<Value>,
    /// Attribute dictionary (deterministically ordered).
    pub attrs: BTreeMap<String, Attr>,
    /// Nested regions (e.g. loop bodies, dataflow graphs).
    pub regions: Vec<Region>,
}

impl Op {
    /// Creates an op with the given name and no operands/results/attributes.
    pub fn new(name: impl Into<String>) -> Op {
        Op {
            name: name.into(),
            operands: Vec::new(),
            results: Vec::new(),
            attrs: BTreeMap::new(),
            regions: Vec::new(),
        }
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, key: &str) -> Option<&Attr> {
        self.attrs.get(key)
    }

    /// Inserts or replaces an attribute, returning `self` for chaining.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<Attr>) -> Op {
        self.attrs.insert(key.into(), value.into());
        self
    }
}

/// A `loop.for` op, decoded once: integer bounds `lo..hi` walked by a
/// positive `step`, and a body whose entry block takes the induction
/// variable, then the loop-carried values.
///
/// Every reader of a loop — the verifier, the interpreter, the lints, the
/// footprint analysis and HLS — goes through [`ForLoop::of`], so they agree
/// on which loops are well formed and on how often each one runs.
#[derive(Debug, Clone, Copy)]
pub struct ForLoop<'a> {
    pub(crate) lo: i64,
    pub(crate) hi: i64,
    pub(crate) step: i64,
    /// The body's entry block.
    pub body: &'a Block,
    /// The induction variable: the body's first argument.
    pub iv: Value,
}

impl<'a> ForLoop<'a> {
    /// Decodes `op`.
    ///
    /// # Errors
    ///
    /// [`IrError::Verify`] when `op` is not a `loop.for`, when `lo`, `hi` or
    /// `step` is missing or not an integer, when `step <= 0`, or when the
    /// body has no entry block or that block no induction variable.
    pub fn of(op: &'a Op) -> IrResult<ForLoop<'a>> {
        let err = |msg: String| IrError::Verify(format!("loop.for: {msg}"));
        if op.name != "loop.for" {
            return Err(err(format!("{} is not a loop", op.name)));
        }
        let int = |key: &str| match op.attr(key) {
            Some(Attr::Int(v)) => Ok(*v),
            Some(other) => Err(err(format!("{key} = {other} is not an integer"))),
            None => Err(err(format!("missing '{key}'"))),
        };
        let (lo, hi, step) = (int("lo")?, int("hi")?, int("step")?);
        if step <= 0 {
            return Err(err(format!("step {step} is not positive")));
        }
        let Some(body) = op.regions.first().and_then(Region::entry) else {
            return Err(err("empty body region".into()));
        };
        let Some(&iv) = body.args.first() else {
            return Err(err("body takes no induction variable".into()));
        };
        Ok(ForLoop { lo, hi, step, body, iv })
    }

    /// The number of iterations, `⌈(hi - lo) / step⌉`, or 0 when
    /// `hi <= lo`. Computed in `i128`, so it is exact for any bounds.
    pub fn trips(&self) -> u64 {
        let span = (i128::from(self.hi) - i128::from(self.lo)).max(0);
        let step = i128::from(self.step);
        // At most 2^64 - 1 (span 2^64 - 1, step 1).
        ((span + step - 1) / step) as u64
    }

    /// The induction value of iteration `k < trips()`: `lo + k·step`.
    pub(crate) fn value(&self, k: u64) -> i64 {
        // Below `hi` for every `k < trips()`, so it fits an `i64`.
        (i128::from(self.lo) + i128::from(k) * i128::from(self.step)) as i64
    }

    /// The last induction value, when the loop runs at all.
    pub(crate) fn last(&self) -> Option<i64> {
        self.trips().checked_sub(1).map(|k| self.value(k))
    }

    /// The loop-carried values: the body's arguments after the induction
    /// variable.
    pub(crate) fn carried(&self) -> &'a [Value] {
        &self.body.args[1..]
    }
}

/// A straight-line sequence of operations with block arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// This block's id, unique within its function.
    pub id: BlockId,
    /// Block arguments (the entry block's arguments are the function params).
    pub args: Vec<Value>,
    /// Operations in program order; the last op of a complete block is a
    /// terminator.
    pub ops: Vec<Op>,
}

impl Block {
    /// Creates an empty block.
    pub fn new(id: BlockId) -> Block {
        Block { id, args: Vec::new(), ops: Vec::new() }
    }

    /// The terminator op, if the block is non-empty.
    pub fn terminator(&self) -> Option<&Op> {
        self.ops.last()
    }
}

/// A list of blocks; the first block is the region entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Region {
    /// Blocks in layout order; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
}

/// The attributes of a terminator that name the blocks it branches to.
pub(crate) const BRANCH_TARGETS: [&str; 3] = ["dest", "true_dest", "false_dest"];

impl Region {
    /// Creates an empty region.
    pub(crate) fn new() -> Region {
        Region::default()
    }

    /// The entry block, if present.
    pub fn entry(&self) -> Option<&Block> {
        self.blocks.first()
    }

    /// Index of the block a branch target (an attribute named in
    /// [`BRANCH_TARGETS`]) names, as an integer block id or a `"^bbN"`
    /// string, when it is one of this region's blocks.
    pub(crate) fn block_index(&self, target: &Attr) -> Option<usize> {
        let id = match target {
            Attr::Int(n) => u32::try_from(*n).ok()?,
            Attr::Str(s) => s.strip_prefix("^bb")?.parse().ok()?,
            _ => return None,
        };
        match self.blocks.get(id as usize) {
            Some(b) if b.id.0 == id => Some(id as usize),
            _ => self.blocks.iter().position(|b| b.id.0 == id),
        }
    }

    /// Visits every op in this region, depth-first, in program order.
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Op)) {
        for block in &self.blocks {
            for op in &block.ops {
                f(op);
                for region in &op.regions {
                    region.walk(f);
                }
            }
        }
    }

    /// Counts all ops in the region, including nested ones.
    pub(crate) fn op_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

/// A function: a named region with typed parameters and results.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Symbol name (printed as `@name`).
    pub name: String,
    /// Parameter types (types of the entry block arguments).
    pub params: Vec<Type>,
    /// Result types.
    pub results: Vec<Type>,
    /// Function-level attribute dictionary (e.g. HLS directives).
    pub attrs: BTreeMap<String, Attr>,
    /// The body region.
    pub body: Region,
    value_types: Vec<Type>,
}

impl Func {
    /// Creates a function whose entry block already carries one argument per
    /// parameter type.
    pub fn new(name: impl Into<String>, params: &[Type], results: &[Type]) -> Func {
        let mut func = Func {
            name: name.into(),
            params: params.to_vec(),
            results: results.to_vec(),
            attrs: BTreeMap::new(),
            body: Region::new(),
            value_types: Vec::new(),
        };
        let mut entry = Block::new(BlockId(0));
        for ty in params {
            let v = func.new_value(ty.clone());
            entry.args.push(v);
        }
        func.body.blocks.push(entry);
        func
    }

    /// Allocates a fresh SSA value of the given type.
    pub fn new_value(&mut self, ty: Type) -> Value {
        let v = Value(self.value_types.len() as u32);
        self.value_types.push(ty);
        v
    }

    /// The type of a value.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not allocated by this function.
    pub fn value_type(&self, v: Value) -> &Type {
        &self.value_types[v.0 as usize]
    }

    /// The number of SSA values allocated so far.
    pub(crate) fn num_values(&self) -> usize {
        self.value_types.len()
    }

    /// Replaces the recorded type of `v` (used by the parser, which learns
    /// result types only after the op's regions have been read).
    ///
    /// # Panics
    ///
    /// Panics if `v` was not allocated by this function.
    pub(crate) fn set_value_type(&mut self, v: Value, ty: Type) {
        self.value_types[v.0 as usize] = ty;
    }

    /// The `i`-th entry-block argument.
    ///
    /// # Panics
    ///
    /// Panics if the function has no entry block or `i` is out of range.
    pub fn arg(&self, i: usize) -> Value {
        self.body.entry().expect("function has an entry block").args[i]
    }

    /// Visits every op in the function body.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Op)) {
        self.body.walk(f);
    }

    /// Counts all ops in the body (nested regions included).
    pub fn op_count(&self) -> usize {
        self.body.op_count()
    }
}

/// A compilation unit: a named collection of functions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module symbol name.
    pub name: String,
    funcs: Vec<Func>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module { name: name.into(), funcs: Vec::new() }
    }

    /// Appends a function.
    pub fn push(&mut self, func: Func) {
        self.funcs.push(func);
    }

    /// Looks up a function by symbol name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The module's functions, each after every function it calls (a
    /// depth-first walk of the `func.call` edges from each function in
    /// module order), and the first call found to close a cycle, as
    /// `(caller, callee)`. A call to a missing function is no edge.
    pub(crate) fn callees_first(&self) -> (Vec<&Func>, Option<(&Func, &Func)>) {
        // Built at the first call: most modules make none.
        let mut index: Option<HashMap<&str, usize>> = None;
        // 0: not reached, 1: on the walk's current path, 2: ordered.
        let mut mark = vec![0u8; self.funcs.len()];
        let (mut order, mut cycle) = (Vec::with_capacity(self.funcs.len()), None);
        // (function, its caller, whether its callees are all ordered)
        let mut stack = Vec::new();
        for root in 0..self.funcs.len() {
            stack.push((root, root, false));
            while let Some((f, caller, leaving)) = stack.pop() {
                if leaving {
                    mark[f] = 2;
                    order.push(&self.funcs[f]);
                    continue;
                }
                match mark[f] {
                    0 => mark[f] = 1,
                    1 => {
                        cycle = cycle.or(Some((&self.funcs[caller], &self.funcs[f])));
                        continue;
                    }
                    _ => continue,
                }
                stack.push((f, f, true));
                self.funcs[f].walk(&mut |op| {
                    if op.name != "func.call" {
                        return;
                    }
                    let index = index.get_or_insert_with(|| {
                        let mut index = HashMap::new();
                        for (i, func) in self.funcs.iter().enumerate() {
                            index.entry(func.name.as_str()).or_insert(i);
                        }
                        index
                    });
                    let callee = op.attr("callee").and_then(Attr::as_str);
                    if let Some(&g) = callee.and_then(|c| index.get(c)) {
                        stack.push((g, f, false));
                    }
                });
            }
        }
        (order, cycle)
    }

    /// Iterates over functions in definition order.
    pub fn iter(&self) -> std::slice::Iter<'_, Func> {
        self.funcs.iter()
    }

    /// Mutably iterates over functions.
    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, Func> {
        self.funcs.iter_mut()
    }

    /// Number of functions in the module.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// `true` if the module holds no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Verifies the whole module (see [`crate::verify`]).
    pub fn verify(&self) -> IrResult<()> {
        crate::verify::verify_module(self)
    }

    /// Renders the module in the canonical textual format
    /// (see [`crate::print`]).
    pub fn to_text(&self) -> String {
        crate::print::print_module(self)
    }
}

impl FromIterator<Func> for Module {
    fn from_iter<I: IntoIterator<Item = Func>>(iter: I) -> Module {
        Module { name: String::new(), funcs: iter.into_iter().collect() }
    }
}

impl Extend<Func> for Module {
    fn extend<I: IntoIterator<Item = Func>>(&mut self, iter: I) {
        self.funcs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_entry_args_match_params() {
        let f = Func::new("f", &[Type::F32, Type::I64], &[Type::F32]);
        assert_eq!(f.body.entry().unwrap().args.len(), 2);
        assert_eq!(f.value_type(f.arg(0)), &Type::F32);
        assert_eq!(f.value_type(f.arg(1)), &Type::I64);
        assert_eq!(f.num_values(), 2);
    }

    #[test]
    fn op_builder_helpers() {
        let op = Op::new("arith.constant").with_attr("value", 4i64);
        assert_eq!(op.attr("value").and_then(Attr::as_int), Some(4));
        assert_eq!(op.attr("missing"), None);
    }

    #[test]
    fn module_lookup_and_iteration() {
        let mut m = Module::new("m");
        m.push(Func::new("a", &[], &[]));
        m.push(Func::new("b", &[], &[]));
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.func("a").is_some());
        assert!(m.func("c").is_none());
        let names: Vec<_> = m.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn region_walk_visits_nested_ops() {
        let mut f = Func::new("f", &[], &[]);
        let mut outer = Op::new("loop.for");
        let mut inner_region = Region::new();
        let mut inner_block = Block::new(BlockId(1));
        inner_block.ops.push(Op::new("df.task"));
        inner_block.ops.push(Op::new("df.task"));
        inner_region.blocks.push(inner_block);
        outer.regions.push(inner_region);
        f.body.blocks.first_mut().unwrap().ops.push(outer);
        f.body.blocks.first_mut().unwrap().ops.push(Op::new("func.return"));
        assert_eq!(f.op_count(), 4);
    }

    #[test]
    fn for_loop_rejects_what_no_reader_can_run() {
        let mut body = Block::new(BlockId(1));
        body.args.push(Value(0));
        let mut region = Region::new();
        region.blocks.push(body);
        let mut op = Op::new("loop.for").with_attr("lo", 0i64).with_attr("hi", 10i64);
        op.regions.push(region);
        let reason = |op: &Op| ForLoop::of(op).unwrap_err().to_string();
        assert_eq!(reason(&op), "verification failed: loop.for: missing 'step'");
        let l = op.clone().with_attr("step", 3i64);
        assert_eq!(ForLoop::of(&l).unwrap().trips(), 4);
        assert_eq!(ForLoop::of(&l).unwrap().last(), Some(9));
        assert!(ForLoop::of(&l).unwrap().carried().is_empty());
        assert!(reason(&l.clone().with_attr("step", 0i64)).ends_with("step 0 is not positive"));
        let float = l.clone().with_attr("hi", 10.0);
        assert!(reason(&float).ends_with("hi = 10.0 is not an integer"));
        let mut no_iv = l.clone();
        no_iv.regions[0].blocks[0].args.clear();
        assert!(reason(&no_iv).ends_with("body takes no induction variable"));
        let mut no_body = l.clone();
        no_body.regions.clear();
        assert!(reason(&no_body).ends_with("empty body region"));
        assert!(reason(&Op::new("df.task")).ends_with("df.task is not a loop"));
    }

    #[test]
    fn module_collect_from_iterator() {
        let m: Module = vec![Func::new("x", &[], &[])].into_iter().collect();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn callees_come_first_and_a_cycle_is_named() {
        // a calls b and c, b calls c, c calls nothing, d calls a missing e.
        let calls = [("a", &["b", "c"][..]), ("b", &["c"]), ("c", &[]), ("d", &["e"])];
        let module = |calls: &[(&str, &[&str])]| -> Module {
            calls
                .iter()
                .map(|(name, callees)| {
                    let mut f = Func::new(*name, &[], &[]);
                    let entry = f.body.blocks.first_mut().unwrap();
                    for callee in *callees {
                        entry.ops.push(Op::new("func.call").with_attr("callee", *callee));
                    }
                    entry.ops.push(Op::new("func.return"));
                    f
                })
                .collect()
        };
        let m = module(&calls);
        let (order, cycle) = m.callees_first();
        let names: Vec<&str> = order.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["c", "b", "a", "d"]);
        assert!(cycle.is_none());
        let m = module(&[("f", &["g"]), ("g", &["h"]), ("h", &["f"])]);
        let (order, cycle) = m.callees_first();
        assert_eq!(order.len(), 3, "every function is ordered once");
        let (caller, callee) = cycle.expect("f -> g -> h -> f");
        assert_eq!((caller.name.as_str(), callee.name.as_str()), ("h", "f"));
    }
}
