//! Errors from variant generation and design-space exploration.

use everest_hls::HlsError;
use std::fmt;

/// Result alias for DSE operations.
pub(crate) type VariantResult<T> = Result<T, VariantError>;

/// A failure while exploring a design space.
#[derive(Debug, Clone, PartialEq)]
pub enum VariantError {
    /// The design space is malformed (e.g. an empty knob dimension that
    /// would silently enumerate zero points).
    Space(String),
    /// HLS synthesis failed for a hardware point.
    Hls(HlsError),
}

impl fmt::Display for VariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantError::Space(msg) => write!(f, "design space: {msg}"),
            VariantError::Hls(e) => write!(f, "hls: {e}"),
        }
    }
}

impl std::error::Error for VariantError {}

impl From<HlsError> for VariantError {
    fn from(e: HlsError) -> VariantError {
        VariantError::Hls(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_both_variants() {
        let e = VariantError::Space("'threads' is empty".into());
        assert_eq!(e.to_string(), "design space: 'threads' is empty");
        let e: VariantError = HlsError::Config("banks must be >= 1".into()).into();
        assert!(e.to_string().starts_with("hls:"));
    }
}
