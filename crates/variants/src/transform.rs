//! The transformation vocabulary from which variants are assembled.

use serde::{Deserialize, Serialize};

/// Data layout for record-heavy kernels (the paper's particles example:
//  "layouts of particles as array-of-structures or structure-of-arrays").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layout {
    /// Array of structures: good locality per record.
    Aos,
    /// Structure of arrays: good vectorization/bandwidth.
    Soa,
}

/// Execution target of a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// Software on the host CPU.
    Cpu,
    /// Bus-attached (OpenCAPI) FPGA accelerator.
    FpgaBus,
    /// Network-attached (cloudFPGA) accelerator.
    FpgaNetwork,
}

impl Target {
    /// `true` for hardware targets.
    pub(crate) fn is_fpga(&self) -> bool {
        !matches!(self, Target::Cpu)
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Target::Cpu => "cpu",
            Target::FpgaBus => "fpga-bus",
            Target::FpgaNetwork => "fpga-net",
        };
        f.write_str(s)
    }
}

/// A single transformation applied to the baseline kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Transform {
    /// Run on the given target.
    OnTarget(Target),
    /// Software threading degree.
    Threads(u32),
    /// Data layout choice.
    DataLayout(Layout),
    /// Loop tiling with the given tile edge (software cache blocking).
    Tile(usize),
    /// Memory banks for on-chip buffers (hardware).
    Banks(usize),
    /// Pipeline innermost loops (hardware).
    Pipeline(bool),
    /// Harden with DIFT taint tracking (hardware).
    Dift(bool),
    /// Processing-element replication (hardware outer-loop unroll).
    Pe(usize),
}

/// The execution target a variant specification (an ordered list of
/// transforms) names; CPU when it names none.
pub(crate) fn target_of(spec: &[Transform]) -> Target {
    spec.iter()
        .find_map(|t| match t {
            Transform::OnTarget(tg) => Some(*tg),
            _ => None,
        })
        .unwrap_or(Target::Cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors_with_defaults() {
        assert_eq!(target_of(&[]), Target::Cpu);
        assert_eq!(target_of(&[Transform::Threads(4), Transform::Tile(32)]), Target::Cpu);
    }

    #[test]
    fn spec_accessors_with_values() {
        let spec = [
            Transform::OnTarget(Target::FpgaBus),
            Transform::Banks(8),
            Transform::Pipeline(false),
            Transform::Dift(true),
            Transform::Threads(4),
            Transform::Tile(32),
            Transform::DataLayout(Layout::Soa),
            Transform::Pe(16),
        ];
        assert_eq!(target_of(&spec), Target::FpgaBus);
        assert!(target_of(&spec).is_fpga());
    }

    #[test]
    fn transforms_serialize_round_trip() {
        let spec = vec![Transform::OnTarget(Target::FpgaNetwork), Transform::Banks(4)];
        let json = serde_json::to_string(&spec).unwrap();
        let back: Vec<Transform> = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn target_display() {
        assert_eq!(Target::Cpu.to_string(), "cpu");
        assert_eq!(Target::FpgaNetwork.to_string(), "fpga-net");
    }
}
