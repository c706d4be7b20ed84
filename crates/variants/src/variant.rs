//! Variant records: the "meta-information about the variants \[that\] will
//! be provided to the runtime system to support dynamic selection"
//! (paper III-B).

use crate::transform::{target_of, Target, Transform};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Predicted metrics of one variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Kernel latency for one invocation, microseconds (excluding data
    /// movement to the target).
    pub latency_us: f64,
    /// Data-movement time to/from the target per invocation, microseconds.
    pub transfer_us: f64,
    /// Energy per invocation, millijoules.
    pub energy_mj: f64,
    /// FPGA LUTs occupied (0 for software variants).
    pub area_luts: u64,
    /// FPGA BRAMs occupied (0 for software variants).
    pub area_brams: u64,
}

impl Metrics {
    /// End-to-end time per invocation (compute + transfer).
    pub fn total_us(&self) -> f64 {
        self.latency_us + self.transfer_us
    }
}

/// One generated variant of a kernel.
///
/// A variant owns only its id. Its kernel name is shared by every
/// variant of the kernel, and its transform list by every kernel's
/// variant of the same design point, so a variant costs one allocation
/// to make and one to clone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// Unique id (`kernel#index`).
    pub id: String,
    /// Kernel this variant implements, shared by all of its variants.
    pub kernel: Arc<str>,
    /// Transformations applied, shared by every kernel's variant of this
    /// design point.
    pub transforms: Arc<[Transform]>,
    /// Predicted metrics.
    pub metrics: Metrics,
}

impl Variant {
    /// Execution target of this variant.
    pub fn target(&self) -> Target {
        target_of(&self.transforms)
    }

    /// `true` for FPGA variants.
    pub fn is_hardware(&self) -> bool {
        self.target().is_fpga()
    }

    /// Serializes to the JSON exchanged between compile time and runtime.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("variant serializes")
    }

    /// Parses a variant record from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Variant, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Variant {
        Variant {
            id: "mm#3".into(),
            kernel: "mm".into(),
            transforms: [Transform::OnTarget(Target::FpgaBus), Transform::Banks(4)].into(),
            metrics: Metrics {
                latency_us: 120.0,
                transfer_us: 30.0,
                energy_mj: 1.5,
                area_luts: 40_000,
                area_brams: 64,
            },
        }
    }

    #[test]
    fn total_time_sums_compute_and_transfer() {
        assert_eq!(sample().metrics.total_us(), 150.0);
    }

    #[test]
    fn hardware_detection() {
        assert!(sample().is_hardware());
        let sw = Variant { transforms: [].into(), ..sample() };
        assert!(!sw.is_hardware());
    }

    #[test]
    fn json_round_trip() {
        let v = sample();
        let back = Variant::from_json(&v.to_json()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn shared_fields_write_the_bytes_owned_ones_did() {
        let v = sample();
        let twin = Variant { id: "mm#4".into(), ..v.clone() };
        assert!(Arc::ptr_eq(&v.kernel, &twin.kernel));
        assert!(Arc::ptr_eq(&v.transforms, &twin.transforms));
        let json = v.to_json();
        assert_eq!(
            json,
            r#"{"id":"mm#3","kernel":"mm","transforms":[{"OnTarget":"FpgaBus"},{"Banks":4}],"metrics":{"latency_us":120.0,"transfer_us":30.0,"energy_mj":1.5,"area_luts":40000,"area_brams":64}}"#
        );
        let back = Variant::from_json(&json).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Variant::from_json("{not json").is_err());
    }
}
