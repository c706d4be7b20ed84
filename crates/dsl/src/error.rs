//! DSL front-end errors.

use std::fmt;

/// Result alias for DSL operations.
pub(crate) type DslResult<T> = Result<T, DslError>;

/// Compilation phase in which a DSL error occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Syntax analysis.
    Parse,
    /// Shape/type checking.
    Type,
    /// Lowering to IR.
    Lower,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Type => "type",
            Phase::Lower => "lower",
        };
        f.write_str(s)
    }
}

/// An error raised by any DSL phase, carrying the 1-based source line.
///
/// ```
/// use everest_dsl::DslError;
/// let err = DslError::parse(4, "expected `)`");
/// assert_eq!(err.to_string(), "parse error at line 4: expected `)`");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// Failing phase.
    pub phase: Phase,
    /// 1-based source line (0 when no location applies).
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl DslError {
    /// Builds a lexer error.
    pub(crate) fn lex(line: usize, msg: impl Into<String>) -> DslError {
        DslError { phase: Phase::Lex, line, msg: msg.into() }
    }

    /// Builds a parser error.
    pub fn parse(line: usize, msg: impl Into<String>) -> DslError {
        DslError { phase: Phase::Parse, line, msg: msg.into() }
    }

    /// Builds a type-checking error.
    pub(crate) fn ty(line: usize, msg: impl Into<String>) -> DslError {
        DslError { phase: Phase::Type, line, msg: msg.into() }
    }

    /// Builds a lowering error.
    pub(crate) fn lower(line: usize, msg: impl Into<String>) -> DslError {
        DslError { phase: Phase::Lower, line, msg: msg.into() }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error at line {}: {}", self.phase, self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_and_line() {
        assert_eq!(DslError::lex(1, "bad char").to_string(), "lex error at line 1: bad char");
        assert_eq!(DslError::parse(2, "x").to_string(), "parse error at line 2: x");
        assert_eq!(DslError::lower(9, "y").to_string(), "lower error at line 9: y");
    }

    #[test]
    fn error_trait_object_compatible() {
        let boxed: Box<dyn std::error::Error + Send + Sync> = Box::new(DslError::ty(1, "m"));
        assert!(boxed.to_string().contains("type error"));
    }
}
