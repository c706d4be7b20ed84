//! Error types shared by the IR crate.

use std::fmt;

/// Result alias used throughout [`everest_ir`](crate).
pub(crate) type IrResult<T> = Result<T, IrError>;

/// Errors produced while building, verifying, parsing or transforming IR.
///
/// ```
/// use everest_ir::IrError;
/// let err = IrError::Verify("dangling value".into());
/// assert_eq!(err.to_string(), "verification failed: dangling value");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// Structural verification failed (SSA dominance, arity, type checks).
    Verify(String),
    /// The textual parser rejected the input. Carries line number and message.
    Parse { line: usize, msg: String },
    /// An operation name is not registered with any dialect.
    UnknownOp(String),
    /// A referenced symbol (function, value) does not exist.
    UnknownSymbol(String),
    /// A pass precondition was violated.
    Pass(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Verify(msg) => write!(f, "verification failed: {msg}"),
            IrError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IrError::UnknownOp(name) => write!(f, "unknown operation '{name}'"),
            IrError::UnknownSymbol(name) => write!(f, "unknown symbol '{name}'"),
            IrError::Pass(msg) => write!(f, "pass failed: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants_are_lowercase_and_informative() {
        let cases: Vec<(IrError, &str)> = vec![
            (IrError::Verify("x".into()), "verification failed: x"),
            (
                IrError::Parse { line: 3, msg: "bad token".into() },
                "parse error at line 3: bad token",
            ),
            (IrError::UnknownOp("foo.bar".into()), "unknown operation 'foo.bar'"),
            (IrError::UnknownSymbol("@f".into()), "unknown symbol '@f'"),
            (IrError::Pass("no".into()), "pass failed: no"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
