//! The typed knob vector: one design point, named.
//!
//! Historically a design point crossed crate boundaries as an ad-hoc
//! `Vec<Transform>` and every consumer re-derived the knobs it cared
//! about from that list with its own defaults. That worked until three consumers
//! had to agree exactly: enumeration ([`DesignSpace::enumerate_knobs`]),
//! synthesis memoization ([`everest_hls::cache::ConfigKey`] via
//! [`KnobVector::hls_config`]) and the dataset's feature encoder
//! ([`KnobVector::to_features`]). A [`KnobVector`] is the single typed
//! value all three derive from, so they can never skew: the memo key and
//! the feature columns are both pure functions of the same struct the
//! enumerator produced.
//!
//! [`DesignSpace::enumerate_knobs`]: crate::space::DesignSpace::enumerate_knobs

use crate::analysis::KernelWorkload;
use crate::transform::{Layout, Target, Transform};
use everest_hls::accel::HlsConfig;
use everest_hls::dift::DiftConfig;
use everest_hls::memory::Scheme;
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};

/// Stable ordering of the knob feature columns emitted by
/// [`KnobVector::to_features`]. Datasets index features by this list, so
/// the order is part of the on-disk schema — append, never reorder.
pub(crate) const KNOB_FEATURES: [&str; 10] = [
    "is_fpga",
    "is_network",
    "threads",
    "layout_soa",
    "tile",
    "banks",
    "pe",
    "eff_pe",
    "pipeline",
    "dift",
];

/// Stable ordering of the kernel feature columns emitted by
/// [`kernel_features`]. Same append-only contract as [`KNOB_FEATURES`].
pub(crate) const KERNEL_FEATURES: [&str; 4] = ["flops", "bytes", "intensity", "max_dim"];

/// Encodes a kernel workload as feature columns in [`KERNEL_FEATURES`]
/// order.
pub(crate) fn kernel_features(workload: &KernelWorkload) -> [f64; 4] {
    [workload.flops, workload.bytes, workload.intensity(), workload.max_dim as f64]
}

/// One fully-specified design point: either a software operating point or
/// a hardware (HLS) operating point. The enum split mirrors the two knob
/// groups of [`crate::space::DesignSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnobVector {
    /// A CPU point: threading, layout and optional tiling.
    Software {
        /// Software threading degree.
        threads: u32,
        /// Data layout.
        layout: Layout,
        /// Tile size (`None` = untiled).
        tile: Option<usize>,
    },
    /// An FPGA point: attachment plus the HLS-relevant knobs.
    Hardware {
        /// Attachment target (bus or network FPGA).
        target: Target,
        /// Memory banks per on-chip buffer.
        banks: usize,
        /// Processing-element replication.
        pe: usize,
        /// Pipeline innermost loops.
        pipeline: bool,
        /// DIFT taint-tracking hardening.
        dift: bool,
    },
}

impl KnobVector {
    /// The execution target of this point.
    pub(crate) fn target(&self) -> Target {
        match self {
            KnobVector::Software { .. } => Target::Cpu,
            KnobVector::Hardware { target, .. } => *target,
        }
    }

    /// `true` for FPGA points.
    pub fn is_hardware(&self) -> bool {
        matches!(self, KnobVector::Hardware { .. })
    }

    /// Encodes the knobs as feature columns in [`KNOB_FEATURES`] order.
    /// Absent knobs encode as their neutral value (software points have
    /// `banks = pe = 0`, hardware points have `threads = 1`), so the
    /// vector length is identical for every point and one table can hold
    /// the whole space. `eff_pe` is the port-clamped replication the
    /// synthesizer actually exploits ([`HlsConfig::effective_pe`]) — the
    /// interaction latency and area follow, surfaced as its own column so
    /// a consumer of the table does not have to learn the clamp.
    pub(crate) fn to_features(self) -> [f64; 10] {
        match self {
            KnobVector::Software { threads, layout, tile } => [
                0.0,
                0.0,
                threads as f64,
                f64::from(layout == Layout::Soa),
                tile.unwrap_or(0) as f64,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
            ],
            KnobVector::Hardware { target, banks, pe, pipeline, dift } => [
                1.0,
                f64::from(target == Target::FpgaNetwork),
                1.0,
                0.0,
                0.0,
                banks as f64,
                pe as f64,
                self.hls_config().effective_pe() as f64,
                f64::from(pipeline),
                f64::from(dift),
            ],
        }
    }

    /// Lowers to the transform list the rest of the pipeline (variant
    /// records, HLS lowering, the runtime's variant metadata) consumes.
    /// The element order is part of the serialized [`crate::Variant`]
    /// schema.
    pub(crate) fn to_transforms(self) -> Vec<Transform> {
        match self {
            KnobVector::Software { threads, layout, tile } => {
                let mut spec = vec![
                    Transform::OnTarget(Target::Cpu),
                    Transform::Threads(threads),
                    Transform::DataLayout(layout),
                ];
                if let Some(size) = tile {
                    spec.push(Transform::Tile(size));
                }
                spec
            }
            KnobVector::Hardware { target, banks, pe, pipeline, dift } => vec![
                Transform::OnTarget(target),
                Transform::Banks(banks),
                Transform::Pe(pe),
                Transform::Pipeline(pipeline),
                Transform::Dift(dift),
            ],
        }
    }

    /// The HLS configuration this point synthesizes under. Software
    /// knobs never reach the configuration (a software point returns the
    /// default config), which is exactly why variants differing only in
    /// software knobs or attachment share one
    /// [`everest_hls::cache::ConfigKey`] memo entry.
    pub fn hls_config(&self) -> HlsConfig {
        match *self {
            KnobVector::Software { .. } => HlsConfig::default(),
            KnobVector::Hardware { banks, pe, pipeline, dift, .. } => HlsConfig {
                banks,
                pipeline,
                scheme: Scheme::Cyclic,
                pe,
                // Each PE needs its own port: banks scale with the PE count.
                ports_per_bank: 2,
                dift: dift.then(DiftConfig::default),
                ..HlsConfig::default()
            },
        }
    }
}

// Externally-tagged serde, written out by hand because the offline serde
// shim's derive does not handle struct-like enum variants.
impl Serialize for KnobVector {
    fn to_value(&self) -> Value {
        match *self {
            KnobVector::Software { threads, layout, tile } => Value::Object(vec![(
                "Software".to_string(),
                Value::Object(vec![
                    ("threads".to_string(), threads.to_value()),
                    ("layout".to_string(), layout.to_value()),
                    ("tile".to_string(), tile.to_value()),
                ]),
            )]),
            KnobVector::Hardware { target, banks, pe, pipeline, dift } => Value::Object(vec![(
                "Hardware".to_string(),
                Value::Object(vec![
                    ("target".to_string(), target.to_value()),
                    ("banks".to_string(), banks.to_value()),
                    ("pe".to_string(), pe.to_value()),
                    ("pipeline".to_string(), pipeline.to_value()),
                    ("dift".to_string(), dift.to_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for KnobVector {
    fn from_value(v: &Value) -> Result<KnobVector, DeError> {
        let field = |obj: &Value, name: &str| -> Result<Value, DeError> {
            obj.get(name)
                .cloned()
                .ok_or_else(|| DeError(format!("missing field `{name}` in KnobVector")))
        };
        if let Some(body) = v.get("Software") {
            return Ok(KnobVector::Software {
                threads: u32::from_value(&field(body, "threads")?)?,
                layout: Layout::from_value(&field(body, "layout")?)?,
                tile: Option::from_value(&field(body, "tile")?)?,
            });
        }
        if let Some(body) = v.get("Hardware") {
            return Ok(KnobVector::Hardware {
                target: Target::from_value(&field(body, "target")?)?,
                banks: usize::from_value(&field(body, "banks")?)?,
                pe: usize::from_value(&field(body, "pe")?)?,
                pipeline: bool::from_value(&field(body, "pipeline")?)?,
                dift: bool::from_value(&field(body, "dift")?)?,
            });
        }
        Err(DeError::expected("KnobVector (Software or Hardware object)", v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_hls::cache::ConfigKey;

    #[test]
    fn transform_round_trip_is_identity() {
        // Every typed knob must survive the lowering: the transform list
        // the variant records carry names each knob the enumerator put in.
        let sw = KnobVector::Software { threads: 4, layout: Layout::Soa, tile: Some(32) };
        assert_eq!(
            sw.to_transforms(),
            [
                Transform::OnTarget(Target::Cpu),
                Transform::Threads(4),
                Transform::DataLayout(Layout::Soa),
                Transform::Tile(32),
            ]
        );
        let untiled = KnobVector::Software { threads: 1, layout: Layout::Aos, tile: None };
        assert_eq!(
            untiled.to_transforms(),
            [
                Transform::OnTarget(Target::Cpu),
                Transform::Threads(1),
                Transform::DataLayout(Layout::Aos),
            ]
        );
        let hw = KnobVector::Hardware {
            target: Target::FpgaNetwork,
            banks: 16,
            pe: 32,
            pipeline: false,
            dift: true,
        };
        assert_eq!(
            hw.to_transforms(),
            [
                Transform::OnTarget(Target::FpgaNetwork),
                Transform::Banks(16),
                Transform::Pe(32),
                Transform::Pipeline(false),
                Transform::Dift(true),
            ]
        );
        for knob in [sw, untiled, hw] {
            assert_eq!(crate::transform::target_of(&knob.to_transforms()), knob.target());
        }
    }

    #[test]
    fn feature_vector_has_stable_width_and_names() {
        let sw = KnobVector::Software { threads: 2, layout: Layout::Aos, tile: None };
        let hw = KnobVector::Hardware {
            target: Target::FpgaBus,
            banks: 4,
            pe: 8,
            pipeline: true,
            dift: false,
        };
        assert_eq!(sw.to_features().len(), KNOB_FEATURES.len());
        assert_eq!(hw.to_features().len(), KNOB_FEATURES.len());
        // Spot-check the documented ordering.
        assert_eq!(KNOB_FEATURES[0], "is_fpga");
        assert_eq!(sw.to_features()[0], 0.0);
        assert_eq!(hw.to_features()[0], 1.0);
        assert_eq!(KNOB_FEATURES[5], "banks");
        assert_eq!(hw.to_features()[5], 4.0);
    }

    #[test]
    fn serde_round_trip_is_identity() {
        let points = [
            KnobVector::Software { threads: 8, layout: Layout::Soa, tile: None },
            KnobVector::Hardware {
                target: Target::FpgaBus,
                banks: 4,
                pe: 8,
                pipeline: true,
                dift: true,
            },
        ];
        for knob in points {
            let json = serde_json::to_string(&knob).unwrap();
            let back: KnobVector = serde_json::from_str(&json).unwrap();
            assert_eq!(back, knob, "round trip through {json}");
        }
    }

    #[test]
    fn memo_key_is_a_pure_function_of_the_hardware_knobs() {
        let point = |target, banks| KnobVector::Hardware {
            target,
            banks,
            pe: 16,
            pipeline: true,
            dift: false,
        };
        let a = point(Target::FpgaBus, 8);
        // Attachment differs, HLS-relevant knobs match: same memo key.
        let b = point(Target::FpgaNetwork, 8);
        assert_eq!(ConfigKey::of(&a.hls_config()), ConfigKey::of(&b.hls_config()));
        // A differing HLS knob must change the key.
        let c = point(Target::FpgaBus, 16);
        assert_ne!(ConfigKey::of(&a.hls_config()), ConfigKey::of(&c.hls_config()));
    }
}
