//! Recursive-descent parser for the tensor-expression DSL.
//!
//! Grammar (EBNF-ish):
//!
//! ```text
//! program  := kernel*
//! kernel   := "kernel" IDENT "(" params? ")" "->" type "{" stmt* "}"
//! params   := param ("," param)*
//! param    := IDENT ":" type
//! type     := "f32" | "f64" | "tensor" "<" (INT "x")* elem ">"
//! stmt     := "var" IDENT "=" expr ";" | "return" expr ";"
//! expr     := term (("+"|"-") term)*
//! term     := factor (("*"|"/"|"@") factor)*
//! factor   := NUM | IDENT | IDENT "(" args ")" | "(" expr ")" | "-" factor
//! args     := (expr | "[" NUM ("," NUM)* "]") ("," ...)*
//! ```

use crate::ast::{BinOp, ElemTy, Expr, Kernel, Param, Program, Stmt, TensorTy};
use crate::error::{DslError, DslResult};
use crate::lexer::{lex, SpannedTok, Tok};

/// Parses a full program.
///
/// # Errors
///
/// Returns [`DslError`] with the offending line on malformed input.
pub fn parse_program(source: &str) -> DslResult<Program> {
    let mut p = P::new(source)?;
    let mut kernels = Vec::new();
    while !p.at_end() {
        kernels.push(p.kernel()?);
    }
    Ok(Program { kernels })
}

/// The token cursor both grammars run on: kernels here, workflows in
/// `workflow.rs`. Tokens borrow their text from the source, so stepping
/// over one allocates nothing; only the names the AST keeps are copied
/// out.
pub(crate) struct P<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
    /// Parentheses, unary minuses and call argument lists open around the
    /// current token.
    open: usize,
}

/// The deepest an expression may nest: the height of its tree, and the
/// parentheses, unary minuses and calls open at any point. Type checking,
/// lowering and dropping an expression recurse once per level of its
/// tree, and the parser three times per open level, so a bound keeps a
/// long or deeply nested expression an error rather than a stack overflow.
/// An unoptimized `everestc check` overflows its 8 MiB main thread at about
/// 2 350 terms of `a + … + a` and at about 1 400 nested `relu(` or `(`.
const MAX_NESTING: usize = 1000;

/// One more level above `depth`, or the error for nesting past
/// [`MAX_NESTING`] at `line`.
fn deeper(depth: usize, line: usize) -> DslResult<usize> {
    if depth < MAX_NESTING {
        Ok(depth + 1)
    } else {
        Err(DslError::parse(line, format!("expression nests deeper than {MAX_NESTING} levels")))
    }
}

impl<'a> P<'a> {
    pub(crate) fn new(source: &'a str) -> DslResult<P<'a>> {
        Ok(P { toks: lex(source)?, pos: 0, open: 0 })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    pub(crate) fn line(&self) -> usize {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map(|t| t.line).unwrap_or(0)
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    pub(crate) fn bump(&mut self) -> DslResult<Tok<'a>> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| DslError::parse(self.line(), "unexpected end of input"))?
            .tok;
        self.pos += 1;
        Ok(t)
    }

    pub(crate) fn expect(&mut self, want: &Tok<'_>) -> DslResult<()> {
        let line = self.line();
        let got = self.bump()?;
        if &got == want {
            Ok(())
        } else {
            Err(DslError::parse(line, format!("expected {want:?}, got {got:?}")))
        }
    }

    pub(crate) fn eat(&mut self, want: &Tok<'_>) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn ident(&mut self) -> DslResult<&'a str> {
        let line = self.line();
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => Err(DslError::parse(line, format!("expected identifier, got {other:?}"))),
        }
    }

    pub(crate) fn string(&mut self) -> DslResult<&'a str> {
        let line = self.line();
        match self.bump()? {
            Tok::Str(s) => Ok(s),
            other => Err(DslError::parse(line, format!("expected string, got {other:?}"))),
        }
    }

    pub(crate) fn keyword(&mut self, kw: &str) -> DslResult<()> {
        let line = self.line();
        let name = self.ident()?;
        if name == kw {
            Ok(())
        } else {
            Err(DslError::parse(line, format!("expected '{kw}', got '{name}'")))
        }
    }

    fn kernel(&mut self) -> DslResult<Kernel> {
        let line = self.line();
        self.keyword("kernel")?;
        let name = self.ident()?.to_owned();
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                let pname = self.ident()?.to_owned();
                self.expect(&Tok::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        let ret = self.ty()?;
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            body.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Kernel { name, params, ret, body, line })
    }

    fn ty(&mut self) -> DslResult<TensorTy> {
        let line = self.line();
        match self.ident()? {
            "f32" => Ok(TensorTy::scalar(ElemTy::F32)),
            "f64" => Ok(TensorTy::scalar(ElemTy::F64)),
            "tensor" => {
                self.expect(&Tok::Lt)?;
                let mut shape = Vec::new();
                let elem;
                loop {
                    let line = self.line();
                    match self.bump()? {
                        Tok::Int(d) => {
                            if d <= 0 {
                                return Err(DslError::parse(line, "dimension must be positive"));
                            }
                            shape.push(d as usize);
                            // Dims are written `4x8xf64`; the lexer splits
                            // this into Int(4), Ident("x8xf64")... only when
                            // digits and idents collide. To keep the grammar
                            // simple we require `4 x 8 x f64` OR the fused
                            // `4x8xf64` form handled below.
                            match self.bump()? {
                                Tok::Ident(rest) => {
                                    // e.g. "x8xf64" or "x" alone
                                    let mut parsed = parse_fused_dims(rest, &mut shape, line)?;
                                    if let Some(e) = parsed.take() {
                                        elem = e;
                                        break;
                                    }
                                }
                                other => {
                                    return Err(DslError::parse(
                                        line,
                                        format!("expected 'x' separator, got {other:?}"),
                                    ))
                                }
                            }
                        }
                        Tok::Ident(word) => {
                            elem = elem_of(word, line)?;
                            break;
                        }
                        other => {
                            return Err(DslError::parse(
                                line,
                                format!("expected dimension or element type, got {other:?}"),
                            ))
                        }
                    }
                }
                self.expect(&Tok::Gt)?;
                Ok(TensorTy { elem, shape })
            }
            other => Err(DslError::parse(line, format!("unknown type '{other}'"))),
        }
    }

    fn stmt(&mut self) -> DslResult<Stmt> {
        let line = self.line();
        match self.ident()? {
            "var" => {
                let name = self.ident()?.to_owned();
                self.expect(&Tok::Eq)?;
                let (expr, _) = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Var { name, expr, line })
            }
            "return" => {
                let (expr, _) = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return { expr, line })
            }
            other => {
                Err(DslError::parse(line, format!("expected 'var' or 'return', got '{other}'")))
            }
        }
    }

    /// An expression and the height of its tree.
    fn expr(&mut self) -> DslResult<(Expr, usize)> {
        let (mut lhs, mut height) = self.term()?;
        loop {
            let line = self.line();
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let (rhs, rhs_height) = self.term()?;
            height = deeper(height.max(rhs_height), line)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok((lhs, height))
    }

    fn term(&mut self) -> DslResult<(Expr, usize)> {
        let (mut lhs, mut height) = self.factor()?;
        loop {
            let line = self.line();
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::At) => BinOp::MatMul,
                _ => break,
            };
            self.pos += 1;
            let (rhs, rhs_height) = self.factor()?;
            height = deeper(height.max(rhs_height), line)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok((lhs, height))
    }

    fn factor(&mut self) -> DslResult<(Expr, usize)> {
        let line = self.line();
        match self.bump()? {
            Tok::Int(v) => Ok((Expr::Num { value: v as f64, line }, 0)),
            Tok::Float(v) => Ok((Expr::Num { value: v, line }, 0)),
            Tok::Minus => self.nest(line, |p| {
                let (inner, height) = p.factor()?;
                let lhs = Box::new(Expr::Num { value: 0.0, line });
                let neg = Expr::Binary { op: BinOp::Sub, lhs, rhs: Box::new(inner), line };
                Ok((neg, deeper(height, line)?))
            }),
            Tok::LParen => self.nest(line, |p| {
                let e = p.expr()?;
                p.expect(&Tok::RParen)?;
                Ok(e)
            }),
            Tok::Ident(name) if self.peek() == Some(&Tok::LParen) => self.nest(line, |p| {
                p.pos += 1;
                let (mut args, mut list, mut height) = (Vec::new(), None, 0);
                if p.peek() != Some(&Tok::RParen) {
                    loop {
                        if p.peek() == Some(&Tok::LBracket) {
                            list = Some(p.num_list()?);
                        } else {
                            let (arg, arg_height) = p.expr()?;
                            args.push(arg);
                            height = height.max(arg_height);
                        }
                        if !p.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                p.expect(&Tok::RParen)?;
                let call = Expr::Call { name: name.to_owned(), args, list, line };
                Ok((call, deeper(height, line)?))
            }),
            Tok::Ident(name) => Ok((Expr::Var { name: name.to_owned(), line }, 0)),
            other => Err(DslError::parse(line, format!("unexpected token {other:?}"))),
        }
    }

    /// Parses `form`, a parenthesis, unary minus or call, one level deeper
    /// than the forms open around it.
    fn nest<T>(
        &mut self,
        line: usize,
        form: impl FnOnce(&mut Self) -> DslResult<T>,
    ) -> DslResult<T> {
        self.open = deeper(self.open, line)?;
        let parsed = form(self);
        self.open -= 1;
        parsed
    }

    fn num_list(&mut self) -> DslResult<Vec<f64>> {
        self.expect(&Tok::LBracket)?;
        let mut out = Vec::new();
        if self.peek() != Some(&Tok::RBracket) {
            loop {
                let line = self.line();
                let neg = self.eat(&Tok::Minus);
                let v = match self.bump()? {
                    Tok::Int(v) => v as f64,
                    Tok::Float(v) => v,
                    other => {
                        return Err(DslError::parse(
                            line,
                            format!("expected number, got {other:?}"),
                        ))
                    }
                };
                out.push(if neg { -v } else { v });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        Ok(out)
    }
}

fn elem_of(word: &str, line: usize) -> DslResult<ElemTy> {
    match word {
        "f32" => Ok(ElemTy::F32),
        "f64" => Ok(ElemTy::F64),
        other => Err(DslError::parse(line, format!("unknown element type '{other}'"))),
    }
}

/// Parses the fused `x8xf64`-style tail of a tensor type. Returns
/// `Some(elem)` when the element type was reached.
fn parse_fused_dims(rest: &str, shape: &mut Vec<usize>, line: usize) -> DslResult<Option<ElemTy>> {
    let mut s = rest;
    loop {
        let Some(stripped) = s.strip_prefix('x') else {
            return Err(DslError::parse(line, format!("expected 'x' separator in '{rest}'")));
        };
        s = stripped;
        // Try element type first.
        if s == "f32" || s == "f64" {
            return Ok(Some(elem_of(s, line)?));
        }
        // Otherwise a run of digits, optionally followed by more 'x...'.
        let digits = &s[..s.bytes().take_while(u8::is_ascii_digit).count()];
        if digits.is_empty() {
            return Err(DslError::parse(line, format!("bad tensor dimensions '{rest}'")));
        }
        let d: usize = digits
            .parse()
            .map_err(|_| DslError::parse(line, format!("bad dimension '{digits}'")))?;
        if d == 0 {
            return Err(DslError::parse(line, "dimension must be positive"));
        }
        shape.push(d);
        s = &s[digits.len()..];
        if s.is_empty() {
            // Next token continues the type (e.g. `tensor<4x8x f64>`); signal
            // the caller to keep reading. We model that by returning None.
            return Ok(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_gemm_kernel() {
        let src = r#"
            kernel gemm(a: tensor<32x16xf64>, b: tensor<16x8xf64>) -> tensor<32x8xf64> {
                return a @ b;
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.name, "gemm");
        assert_eq!(k.params[0].ty.shape, vec![32, 16]);
        assert_eq!(k.ret.shape, vec![32, 8]);
        assert!(matches!(
            &k.body[0],
            Stmt::Return { expr: Expr::Binary { op: BinOp::MatMul, .. }, .. }
        ));
    }

    #[test]
    fn parses_intrinsics_with_lists() {
        let src = r#"
            kernel f(x: tensor<4x6xf32>) -> tensor<6x4xf32> {
                var t = transpose(x, [1, 0]);
                var s = stencil(t, [0.25, 0.5, 0.25]);
                return relu(s);
            }
        "#;
        let p = parse_program(src).unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.body.len(), 3);
        match &k.body[0] {
            Stmt::Var { expr: Expr::Call { name, list, .. }, .. } => {
                assert_eq!(name, "transpose");
                assert_eq!(list.as_deref(), Some(&[1.0, 0.0][..]));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let src = "kernel f(a: f64, b: f64, c: f64) -> f64 { return a + b * c; }";
        let p = parse_program(src).unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Return { expr: Expr::Binary { op: BinOp::Add, rhs, .. }, .. } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unary_minus_desugars_to_zero_minus() {
        let src = "kernel f(a: f64) -> f64 { return -a; }";
        let p = parse_program(src).unwrap();
        match &p.kernels[0].body[0] {
            Stmt::Return { expr: Expr::Binary { op: BinOp::Sub, lhs, .. }, .. } => {
                assert!(matches!(**lhs, Expr::Num { value, .. } if value == 0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_dimension() {
        let src = "kernel f(a: tensor<0x4xf64>) -> f64 { return 1.0; }";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn rejects_missing_semicolon() {
        let src = "kernel f(a: f64) -> f64 { return a }";
        let err = parse_program(src).unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn parses_multiple_kernels() {
        let src = "kernel f(a: f64) -> f64 { return a; } kernel g(b: f64) -> f64 { return b; }";
        assert_eq!(parse_program(src).unwrap().kernels.len(), 2);
    }

    #[test]
    fn parses_spaced_tensor_dims() {
        // Lexer splits `4x8xf64` as Int(4) Ident("x8xf64"): fused path.
        let src = "kernel f(a: tensor<4x8xf64>) -> tensor<4x8xf64> { return a; }";
        let p = parse_program(src).unwrap();
        assert_eq!(p.kernels[0].params[0].ty.shape, vec![4, 8]);
    }
}
