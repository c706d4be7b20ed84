//! HLS engine errors.

use std::fmt;

/// Result alias for HLS operations.
pub(crate) type HlsResult<T> = Result<T, HlsError>;

/// Errors raised by the HLS flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlsError {
    /// The input function uses an op the HLS flow cannot synthesize.
    Unsupported(String),
    /// Scheduling could not satisfy resource constraints.
    Schedule(String),
    /// The requested configuration is invalid (e.g. zero banks).
    Config(String),
    /// Lowering tensor ops to loops failed.
    Lower(String),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            HlsError::Schedule(msg) => write!(f, "scheduling failed: {msg}"),
            HlsError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            HlsError::Lower(msg) => write!(f, "lowering failed: {msg}"),
        }
    }
}

impl std::error::Error for HlsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            HlsError::Unsupported("cf.br".into()).to_string(),
            "unsupported construct: cf.br"
        );
        assert_eq!(
            HlsError::Config("0 banks".into()).to_string(),
            "invalid configuration: 0 banks"
        );
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_err<T: std::error::Error + Send + Sync>() {}
        assert_err::<HlsError>();
    }
}
