//! Security-layer errors.

use std::fmt;

/// Result alias for security operations.
pub(crate) type SecurityResult<T> = Result<T, SecurityError>;

/// Errors raised by the crypto and monitoring layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityError {
    /// GCM authentication tag did not verify: data corrupted or forged.
    InvalidTag,
    /// Ciphertext shorter than the mandatory tag.
    TruncatedCiphertext,
    /// A nonce of the wrong length was supplied.
    BadNonceLen { expected: usize, got: usize },
}

impl fmt::Display for SecurityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityError::InvalidTag => write!(f, "authentication tag mismatch"),
            SecurityError::TruncatedCiphertext => write!(f, "ciphertext shorter than tag"),
            SecurityError::BadNonceLen { expected, got } => {
                write!(f, "nonce must be {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for SecurityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(SecurityError::InvalidTag.to_string(), "authentication tag mismatch");
        assert_eq!(
            SecurityError::BadNonceLen { expected: 12, got: 7 }.to_string(),
            "nonce must be 12 bytes, got 7"
        );
    }
}
