//! Platform-model errors.

use std::fmt;

/// Result alias for platform operations.
pub(crate) type PlatformResult<T> = Result<T, PlatformError>;

/// Errors raised by the platform model and simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// A named node/device/link does not exist.
    Unknown(String),
    /// A deployment does not fit the target fabric.
    CapacityExceeded { what: String, needed: u64, available: u64 },
    /// Two endpoints are not connected.
    NoRoute { from: String, to: String },
    /// Invalid model parameter.
    Config(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Unknown(name) => write!(f, "unknown platform entity '{name}'"),
            PlatformError::CapacityExceeded { what, needed, available } => {
                write!(f, "capacity exceeded for {what}: need {needed}, have {available}")
            }
            PlatformError::NoRoute { from, to } => write!(f, "no route from '{from}' to '{to}'"),
            PlatformError::Config(msg) => write!(f, "invalid platform configuration: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = PlatformError::CapacityExceeded { what: "LUTs".into(), needed: 10, available: 5 };
        assert_eq!(e.to_string(), "capacity exceeded for LUTs: need 10, have 5");
        assert_eq!(
            PlatformError::NoRoute { from: "a".into(), to: "b".into() }.to_string(),
            "no route from 'a' to 'b'"
        );
    }
}
