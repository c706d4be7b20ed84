//! Recursive-descent parser for the canonical textual IR format produced by
//! [`crate::print`].
//!
//! The parser allocates SSA values in order of first definition, which is
//! exactly the order the printer numbers them in — so
//! `parse_module(m.to_text()).to_text() == m.to_text()`.

use crate::attr::Attr;
use crate::error::{IrError, IrResult};
use crate::ir::{Block, BlockId, Func, Module, Op, Region, Value};
use crate::types::{MemSpace, Type};
use std::collections::HashMap;

/// Parses the canonical textual form of a module.
///
/// # Errors
///
/// Returns [`IrError::Parse`] with a line number on malformed input.
///
/// ```
/// let m = everest_ir::parse_module(
///     "module @m {\n  func @id(%0: f64) -> (f64) {\n    func.return %0\n  }\n}\n",
/// ).unwrap();
/// assert_eq!(m.len(), 1);
/// ```
pub fn parse_module(text: &str) -> IrResult<Module> {
    let mut p = Parser::new(text);
    let module = p.module()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after module"));
    }
    Ok(module)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

struct FuncCtx {
    func: Func,
    names: HashMap<String, Value>,
}

impl FuncCtx {
    fn define(&mut self, name: String, ty: Type) -> Value {
        let v = self.func.new_value(ty);
        self.names.insert(name, v);
        v
    }
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser { src: src.as_bytes(), pos: 0 }
    }

    fn line(&self) -> usize {
        1 + self.src[..self.pos].iter().filter(|b| **b == b'\n').count()
    }

    fn err(&self, msg: impl Into<String>) -> IrError {
        IrError::Parse { line: self.line(), msg: msg.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> IrResult<()> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{token}'")))
        }
    }

    fn peek_is(&mut self, token: &str) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(token.as_bytes())
    }

    /// Identifier: letters, digits, `_`, `.` (for dotted op names).
    fn ident(&mut self) -> IrResult<String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn integer(&mut self) -> IrResult<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.src[start] == b'-') {
            return Err(self.err("expected integer"));
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of range"))
    }

    fn usize_lit(&mut self) -> IrResult<usize> {
        let v = self.integer()?;
        usize::try_from(v).map_err(|_| self.err("expected non-negative integer"))
    }

    /// `%N` value reference; returns the textual name `"N"`.
    fn value_name(&mut self) -> IrResult<String> {
        self.expect("%")?;
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected value number after '%'"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn string_lit(&mut self) -> IrResult<String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'0') => out.push('\0'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(b'\'') => out.push('\''),
                    Some(b'u') => {
                        self.expect("{")?;
                        let start = self.pos;
                        while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                            self.pos += 1;
                        }
                        let hex = std::str::from_utf8(&self.src[start..self.pos])
                            .map_err(|_| self.err("bad unicode escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("bad unicode escape"))?;
                        out.push(char::from_u32(cp).ok_or_else(|| self.err("bad unicode escape"))?);
                        self.expect("}")?;
                    }
                    _ => return Err(self.err("unknown escape")),
                },
                Some(b) => {
                    // Multi-byte UTF-8: copy raw bytes through.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        self.pos = start + width;
                        out.push_str(
                            std::str::from_utf8(&self.src[start..self.pos])
                                .map_err(|_| self.err("invalid utf-8 in string"))?,
                        );
                    }
                }
            }
        }
    }

    fn ty(&mut self) -> IrResult<Type> {
        self.skip_ws();
        let name = self.ident()?;
        match name.as_str() {
            "i1" => Ok(Type::I1),
            "i32" => Ok(Type::I32),
            "i64" => Ok(Type::I64),
            "f32" => Ok(Type::F32),
            "f64" => Ok(Type::F64),
            "index" => Ok(Type::Index),
            "token" => Ok(Type::Token),
            "bytes" => {
                self.expect("<")?;
                let n = self.usize_lit()?;
                self.expect(">")?;
                Ok(Type::Bytes(n))
            }
            "stream" => {
                self.expect("<")?;
                let elem = self.ty()?;
                self.expect(">")?;
                Ok(Type::stream(elem))
            }
            "tensor" | "memref" => {
                self.expect("<")?;
                let (shape, elem) = self.shape_and_elem()?;
                if name == "tensor" {
                    self.expect(">")?;
                    Ok(Type::tensor(elem, &shape))
                } else {
                    self.expect(",")?;
                    let space = match self.ident()?.as_str() {
                        "host" => MemSpace::Host,
                        "device" => MemSpace::Device,
                        "scratch" => MemSpace::Scratchpad,
                        "remote" => MemSpace::Remote,
                        other => return Err(self.err(format!("unknown memory space '{other}'"))),
                    };
                    self.expect(">")?;
                    Ok(Type::memref(elem, &shape, space))
                }
            }
            other => Err(self.err(format!("unknown type '{other}'"))),
        }
    }

    /// Parses `4x8xf32`-style shaped-type interiors: dims are digit runs
    /// followed by `x`; everything after the last `x`-separated dim is the
    /// element type.
    fn shape_and_elem(&mut self) -> IrResult<(Vec<usize>, Type)> {
        self.skip_ws();
        let mut shape = Vec::new();
        loop {
            let save = self.pos;
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                let mut end = self.pos;
                while self.src.get(end).is_some_and(|b| b.is_ascii_digit()) {
                    end += 1;
                }
                if self.src.get(end) == Some(&b'x') {
                    let dim: usize = std::str::from_utf8(&self.src[self.pos..end])
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| self.err("bad dimension"))?;
                    shape.push(dim);
                    self.pos = end + 1;
                    continue;
                }
            }
            self.pos = save;
            break;
        }
        let elem = self.ty()?;
        Ok((shape, elem))
    }

    fn attr(&mut self) -> IrResult<Attr> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Attr::Str(self.string_lit()?)),
            Some(b'[') => {
                self.expect("[")?;
                let mut items = Vec::new();
                if !self.peek_is("]") {
                    loop {
                        items.push(self.attr()?);
                        if !self.eat(",") {
                            break;
                        }
                    }
                }
                self.expect("]")?;
                Ok(Attr::Array(items))
            }
            Some(b'!') => {
                self.expect("!")?;
                Ok(Attr::Type(self.ty()?))
            }
            Some(b'-') if self.src.get(self.pos + 1) == Some(&b'i') => {
                self.pos += 1;
                match self.ident()?.as_str() {
                    "inf" => Ok(Attr::Float(f64::NEG_INFINITY)),
                    other => Err(self.err(format!("unknown attribute literal '-{other}'"))),
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                // Number: float iff it contains '.', 'e', 'inf' or 'NaN'.
                let start = self.pos;
                if b == b'-' {
                    self.pos += 1;
                }
                let mut is_float = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.pos += 1;
                    } else if c == b'.' || c == b'e' || c == b'E' {
                        is_float = true;
                        self.pos += 1;
                        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                            self.pos += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("bad number"))?;
                if is_float {
                    text.parse::<f64>().map(Attr::Float).map_err(|_| self.err("bad float literal"))
                } else {
                    text.parse::<i64>().map(Attr::Int).map_err(|_| self.err("bad int literal"))
                }
            }
            _ => {
                let word = self.ident()?;
                match word.as_str() {
                    "true" => Ok(Attr::Bool(true)),
                    "false" => Ok(Attr::Bool(false)),
                    "NaN" => Ok(Attr::Float(f64::NAN)),
                    "inf" => Ok(Attr::Float(f64::INFINITY)),
                    other => Err(self.err(format!("unknown attribute literal '{other}'"))),
                }
            }
        }
    }

    fn attr_dict(&mut self) -> IrResult<Vec<(String, Attr)>> {
        self.expect("{")?;
        let mut attrs = Vec::new();
        if !self.peek_is("}") {
            loop {
                let key = self.ident()?;
                self.expect("=")?;
                let value = self.attr()?;
                attrs.push((key, value));
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect("}")?;
        Ok(attrs)
    }

    fn module(&mut self) -> IrResult<Module> {
        self.expect("module")?;
        self.expect("@")?;
        let name = self.ident()?;
        self.expect("{")?;
        let mut module = Module::new(name);
        while self.peek_is("func") {
            module.push(self.func()?);
        }
        self.expect("}")?;
        Ok(module)
    }

    fn func(&mut self) -> IrResult<Func> {
        self.expect("func")?;
        self.expect("@")?;
        let name = self.ident()?;
        self.expect("(")?;
        let mut param_names = Vec::new();
        let mut param_types = Vec::new();
        if !self.peek_is(")") {
            loop {
                let vname = self.value_name()?;
                self.expect(":")?;
                let ty = self.ty()?;
                param_names.push(vname);
                param_types.push(ty);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        self.expect("->")?;
        self.expect("(")?;
        let mut result_types = Vec::new();
        if !self.peek_is(")") {
            loop {
                result_types.push(self.ty()?);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        let mut func_attrs = Vec::new();
        if self.eat("attrs") {
            func_attrs = self.attr_dict()?;
        }
        let mut ctx =
            FuncCtx { func: Func::new(name, &param_types, &result_types), names: HashMap::new() };
        for (pname, arg) in
            param_names.iter().zip(ctx.func.body.entry().expect("fresh func entry").args.clone())
        {
            ctx.names.insert(pname.clone(), arg);
        }
        for (k, v) in func_attrs {
            ctx.func.attrs.insert(k, v);
        }
        self.expect("{")?;
        // Entry block ops (no header), then optional extra header'd blocks.
        let mut blocks = Vec::new();
        let mut entry = ctx.func.body.blocks.remove(0);
        entry.ops = self.op_list(&mut ctx)?;
        blocks.push(entry);
        while self.peek_is("^") {
            blocks.push(self.block(&mut ctx)?);
        }
        self.expect("}")?;
        ctx.func.body.blocks = blocks;
        Ok(ctx.func)
    }

    fn op_list(&mut self, ctx: &mut FuncCtx) -> IrResult<Vec<Op>> {
        let mut ops = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'}') | Some(b'^') | None => break,
                _ => ops.push(self.op(ctx)?),
            }
        }
        Ok(ops)
    }

    fn block(&mut self, ctx: &mut FuncCtx) -> IrResult<Block> {
        self.expect("^bb")?;
        let id = self.usize_lit()? as u32;
        self.expect("(")?;
        let mut block = Block::new(BlockId(id));
        if !self.peek_is(")") {
            loop {
                let vname = self.value_name()?;
                self.expect(":")?;
                let ty = self.ty()?;
                block.args.push(ctx.define(vname, ty));
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(")")?;
        self.expect(":")?;
        block.ops = self.op_list(ctx)?;
        Ok(block)
    }

    fn op(&mut self, ctx: &mut FuncCtx) -> IrResult<Op> {
        // Optional result list.
        let mut result_names = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'%') {
            loop {
                result_names.push(self.value_name()?);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("=")?;
        }
        let name = self.ident()?;
        if !name.contains('.') {
            return Err(self.err(format!("op name '{name}' is not dialect-qualified")));
        }
        let mut op = Op::new(name);
        // Operands.
        self.skip_ws();
        if self.peek() == Some(b'%') {
            loop {
                let vname = self.value_name()?;
                let v = *ctx
                    .names
                    .get(&vname)
                    .ok_or_else(|| self.err(format!("use of undefined value %{vname}")))?;
                op.operands.push(v);
                if !self.eat(",") {
                    break;
                }
            }
        }
        // Attribute dictionary.
        if self.peek_is("{") {
            for (k, v) in self.attr_dict()? {
                op.attrs.insert(k, v);
            }
        }
        // Define results *before* parsing regions, matching print order.
        // Result types appear after the regions, so park the names and
        // pre-allocate placeholders once we know the types; to keep numbering
        // identical we must allocate now. We therefore parse the op in two
        // steps: peek ahead for the types is impractical, so instead we
        // allocate values lazily with a patchable type table.
        // Simpler: canonical printing always emits `: types` at end-of-line,
        // but regions come before. We pre-allocate with a placeholder type
        // and fix it up after reading the trailing types.
        let results: Vec<Value> =
            result_names.iter().map(|n| ctx.define(n.clone(), Type::Token)).collect();
        op.results = results.clone();
        // Regions.
        if self.peek_is("(") {
            self.expect("(")?;
            loop {
                self.expect("{")?;
                let mut region = Region::new();
                while self.peek_is("^") {
                    region.blocks.push(self.block(ctx)?);
                }
                self.expect("}")?;
                op.regions.push(region);
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
        }
        // Trailing result types.
        if !results.is_empty() {
            self.expect(":")?;
            let mut types = Vec::new();
            loop {
                types.push(self.ty()?);
                if !self.eat(",") {
                    break;
                }
            }
            if types.len() != results.len() {
                return Err(self.err(format!(
                    "{} results but {} result types",
                    results.len(),
                    types.len()
                )));
            }
            for (v, t) in results.iter().zip(types) {
                ctx.func.set_value_type(*v, t);
            }
        }
        Ok(op)
    }
}

fn utf8_width(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Type;

    fn round_trip(module: &Module) {
        let text = module.to_text();
        let parsed = parse_module(&text).expect("parse canonical text");
        assert_eq!(parsed.to_text(), text);
        parsed.verify().expect("reparsed module verifies");
    }

    #[test]
    fn round_trips_arith_function() {
        let mut fb = FuncBuilder::new("f", &[Type::F32, Type::F32], &[Type::F32]);
        let a = fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F32);
        let b = fb.binary("arith.addf", a, fb.arg(0), Type::F32);
        fb.ret(&[b]);
        let mut m = Module::new("m");
        m.push(fb.finish());
        round_trip(&m);
    }

    #[test]
    fn round_trips_loops_and_regions() {
        let mut fb = FuncBuilder::new("sum", &[], &[Type::F64]);
        let init = fb.const_f(0.0, Type::F64);
        let out = fb.for_loop(0, 16, 1, &[init], |fb, _iv, c| {
            let k = fb.const_f(0.5, Type::F64);
            vec![fb.binary("arith.addf", c[0], k, Type::F64)]
        });
        fb.ret(&[out[0]]);
        let mut m = Module::new("loops");
        m.push(fb.finish());
        round_trip(&m);
    }

    #[test]
    fn round_trips_shaped_types_and_attrs() {
        let t = Type::tensor(Type::F32, &[8, 16]);
        let mut fb = FuncBuilder::new("t", &[t.clone(), t.clone()], std::slice::from_ref(&t));
        fb.set_func_attr("target", "fpga");
        let mut op = crate::ir::Op::new("tensor.add");
        op.operands = vec![fb.arg(0), fb.arg(1)];
        let r = fb.op1(op, t);
        fb.ret(&[r]);
        let mut m = Module::new("shaped");
        m.push(fb.finish());
        round_trip(&m);
    }

    #[test]
    fn round_trips_every_attr_kind() {
        let mut fb = FuncBuilder::new("attrs", &[], &[]);
        let op = crate::ir::Op::new("df.source")
            .with_attr("kind", "weather \"station\"\n")
            .with_attr("count", 42i64)
            .with_attr("rate", 2.5f64)
            .with_attr("live", true)
            .with_attr("ty", Attr::Type(Type::memref(Type::F64, &[4], MemSpace::Remote)))
            .with_attr("dims", Attr::ints(&[1, -2, 3]));
        fb.op(op, &[Type::Token]);
        fb.ret(&[]);
        let mut m = Module::new("attrs");
        m.push(fb.finish());
        round_trip(&m);
    }

    #[test]
    fn round_trips_infinite_floats() {
        let mut fb = FuncBuilder::new("f", &[], &[]);
        for x in [f64::NEG_INFINITY, f64::INFINITY] {
            fb.const_f(x, Type::F64);
        }
        fb.ret(&[]);
        let mut m = Module::new("inf");
        m.push(fb.finish());
        assert!(m.to_text().contains("{value = -inf}"), "{}", m.to_text());
        round_trip(&m);
        let bad = m.to_text().replace("-inf", "-ind");
        assert!(parse_module(&bad)
            .unwrap_err()
            .to_string()
            .contains("unknown attribute literal '-ind'"));
    }

    #[test]
    fn rejects_undefined_value_use() {
        let text = "module @m {\n  func @f() -> () {\n    df.sink %9 {kind = \"x\"}\n    func.return\n  }\n}\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.to_string().contains("undefined value"));
    }

    #[test]
    fn rejects_unqualified_op_name() {
        let text = "module @m {\n  func @f() -> () {\n    ret\n  }\n}\n";
        assert!(parse_module(text).is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let text = "module @m {\n  func @f() -> () {\n    %0 = arith.constant : f64\n  }\n}\n";
        // Missing `value` attr parses fine but the colon without attrs is ok;
        // force a real syntax error instead:
        let bad = text.replace("-> ()", "-> (");
        let err = parse_module(&bad).unwrap_err();
        match err {
            IrError::Parse { line, .. } => assert!(line >= 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn parses_comments() {
        let text = "// leading comment\nmodule @m {\n  // inner\n  func @f() -> () {\n    func.return\n  }\n}\n";
        assert!(parse_module(text).is_ok());
    }
}
