//! Shared tokenizer for the tensor and workflow DSLs.

use crate::error::{DslError, DslResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (contains `.` or exponent).
    Float(f64),
    /// Double-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// `@` (tensor contraction / matmul)
    At,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based line number.
    pub line: usize,
}

/// Tokenizes DSL source text.
///
/// `#` starts a line comment.
///
/// # Errors
///
/// Returns [`DslError`] on unknown characters or malformed literals.
pub(crate) fn lex(source: &str) -> DslResult<Vec<SpannedTok>> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                toks.push(SpannedTok { tok: Tok::LParen, line });
                i += 1;
            }
            b')' => {
                toks.push(SpannedTok { tok: Tok::RParen, line });
                i += 1;
            }
            b'{' => {
                toks.push(SpannedTok { tok: Tok::LBrace, line });
                i += 1;
            }
            b'}' => {
                toks.push(SpannedTok { tok: Tok::RBrace, line });
                i += 1;
            }
            b'[' => {
                toks.push(SpannedTok { tok: Tok::LBracket, line });
                i += 1;
            }
            b']' => {
                toks.push(SpannedTok { tok: Tok::RBracket, line });
                i += 1;
            }
            b'<' => {
                toks.push(SpannedTok { tok: Tok::Lt, line });
                i += 1;
            }
            b'>' => {
                toks.push(SpannedTok { tok: Tok::Gt, line });
                i += 1;
            }
            b',' => {
                toks.push(SpannedTok { tok: Tok::Comma, line });
                i += 1;
            }
            b';' => {
                toks.push(SpannedTok { tok: Tok::Semi, line });
                i += 1;
            }
            b':' => {
                toks.push(SpannedTok { tok: Tok::Colon, line });
                i += 1;
            }
            b'=' => {
                toks.push(SpannedTok { tok: Tok::Eq, line });
                i += 1;
            }
            b'@' => {
                toks.push(SpannedTok { tok: Tok::At, line });
                i += 1;
            }
            b'+' => {
                toks.push(SpannedTok { tok: Tok::Plus, line });
                i += 1;
            }
            b'-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(SpannedTok { tok: Tok::Arrow, line });
                    i += 2;
                } else {
                    toks.push(SpannedTok { tok: Tok::Minus, line });
                    i += 1;
                }
            }
            b'*' => {
                toks.push(SpannedTok { tok: Tok::Star, line });
                i += 1;
            }
            b'/' => {
                toks.push(SpannedTok { tok: Tok::Slash, line });
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        return Err(DslError::lex(line, "unterminated string literal"));
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(DslError::lex(line, "unterminated string literal"));
                }
                let text = std::str::from_utf8(&bytes[start..j])
                    .map_err(|_| DslError::lex(line, "invalid utf-8 in string"))?;
                toks.push(SpannedTok { tok: Tok::Str(text.to_owned()), line });
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'0'..=b'9' => i += 1,
                        b'.' | b'e' | b'E' => {
                            is_float = true;
                            i += 1;
                            if i < bytes.len() && (bytes[i] == b'-' || bytes[i] == b'+') {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&bytes[start..i]).expect("ascii digits");
                let tok = if is_float {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| DslError::lex(line, format!("bad float '{text}'")))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| DslError::lex(line, format!("bad integer '{text}'")))?,
                    )
                };
                toks.push(SpannedTok { tok, line });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = std::str::from_utf8(&bytes[start..i]).expect("ascii ident");
                toks.push(SpannedTok { tok: Tok::Ident(text.to_owned()), line });
            }
            other => {
                return Err(DslError::lex(
                    line,
                    format!("unexpected character '{}'", other as char),
                ))
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_kernel_header() {
        let toks = kinds("kernel f(a: tensor<4x4xf64>) -> tensor<4x4xf64> {");
        assert_eq!(toks[0], Tok::Ident("kernel".into()));
        assert!(toks.contains(&Tok::Arrow));
        assert!(toks.contains(&Tok::Lt));
    }

    #[test]
    fn lexes_numbers_and_strings() {
        assert_eq!(kinds("42"), vec![Tok::Int(42)]);
        assert_eq!(kinds("2.5"), vec![Tok::Float(2.5)]);
        assert_eq!(kinds("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(kinds("\"hello\""), vec![Tok::Str("hello".into())]);
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = lex("a\nb\n\nc").unwrap();
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("a # comment with symbols @{}<>\nb");
        assert_eq!(toks, vec![Tok::Ident("a".into()), Tok::Ident("b".into())]);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(kinds("- ->"), vec![Tok::Minus, Tok::Arrow]);
    }
}
