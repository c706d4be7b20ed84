//! Runtime-layer errors.

use std::fmt;

/// Result alias for runtime operations.
pub(crate) type RuntimeResult<T> = Result<T, RuntimeError>;

/// Errors raised by the virtualized runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// No operating point satisfies the active constraints.
    NoFeasiblePoint,
    /// A named VM/device/variant does not exist.
    Unknown(String),
    /// A configuration the runtime cannot run — an empty or too long
    /// offload chain, a system with no nodes, invalid fault rates, an
    /// unknown fault profile. The message says what, and prints as is.
    Config(String),
    /// A vFPGA request could not be satisfied.
    Allocation(String),
    /// No device could host a role: every candidate device is listed with
    /// the reason it refused, so callers see *which* fabric was full.
    Exhausted {
        /// The role that could not be placed.
        role: String,
        /// LUTs the role needs.
        luts: u64,
        /// `(device name, refusal reason)` for every device tried.
        refusals: Vec<(String, String)>,
    },
    /// Every target in an offload fallback chain failed for an invocation.
    OffloadFailed {
        /// Kernel being offloaded.
        kernel: String,
        /// Total attempts made across the whole chain.
        attempts: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoFeasiblePoint => {
                write!(f, "no operating point satisfies the constraints")
            }
            RuntimeError::Unknown(what) => write!(f, "unknown runtime entity '{what}'"),
            RuntimeError::Config(msg) => f.write_str(msg),
            RuntimeError::Allocation(msg) => write!(f, "vFPGA allocation failed: {msg}"),
            RuntimeError::Exhausted { role, luts, refusals } => {
                write!(f, "no device can host '{role}' ({luts} LUTs)")?;
                for (device, reason) in refusals {
                    write!(f, "; {device}: {reason}")?;
                }
                Ok(())
            }
            RuntimeError::OffloadFailed { kernel, attempts } => {
                write!(f, "offload of '{kernel}' failed after {attempts} attempts on every target")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            RuntimeError::NoFeasiblePoint.to_string(),
            "no operating point satisfies the constraints"
        );
        assert_eq!(RuntimeError::Unknown("vm0".into()).to_string(), "unknown runtime entity 'vm0'");
        assert_eq!(
            RuntimeError::Config("empty offload chain".into()).to_string(),
            "empty offload chain"
        );
    }

    #[test]
    fn exhausted_lists_every_device() {
        let e = RuntimeError::Exhausted {
            role: "gemm".into(),
            luts: 9_000,
            refusals: vec![
                ("capi0".into(), "no free PR slot".into()),
                ("cf0".into(), "only 1000 LUTs free".into()),
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("'gemm' (9000 LUTs)"));
        assert!(msg.contains("capi0: no free PR slot"));
        assert!(msg.contains("cf0: only 1000 LUTs free"));
    }

    #[test]
    fn offload_failure_names_the_kernel() {
        let e = RuntimeError::OffloadFailed { kernel: "fft".into(), attempts: 12 };
        assert_eq!(e.to_string(), "offload of 'fft' failed after 12 attempts on every target");
    }
}
