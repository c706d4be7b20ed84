//! Core IR data structures: modules, functions, regions, blocks, operations
//! and SSA values.

use crate::attr::Attr;
use crate::error::IrResult;
use crate::types::Type;
use std::collections::BTreeMap;
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

impl Region {
    /// Creates an empty region.
    pub(crate) fn new() -> Region {
        Region::default()
    }

    /// The entry block, if present.
    pub fn entry(&self) -> Option<&Block> {
        self.blocks.first()
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

    /// Mutable lookup of a function by symbol name.
    pub(crate) fn func_mut(&mut self, name: &str) -> Option<&mut Func> {
        self.funcs.iter_mut().find(|f| f.name == name)
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
        let mut outer = Op::new("df.graph");
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
    fn module_collect_from_iterator() {
        let m: Module = vec![Func::new("x", &[], &[])].into_iter().collect();
        assert_eq!(m.len(), 1);
    }
}
