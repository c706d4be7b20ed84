//! TaintHLS-style dynamic information-flow tracking (DIFT) instrumentation.
//!
//! EVEREST extends HLS "for the automatic integration of security features,
//! like application-specific dynamic information flow tracking" (paper
//! III-B, ref \[18\]). TaintHLS adds, alongside the datapath: a shadow
//! register per architectural register, a taint-propagation cell per
//! functional unit, and shadow storage per on-chip buffer. This module
//! models the associated area/latency overheads and the taint-propagation
//! semantics itself (so policies can be checked in simulation).

use crate::binding::Binding;
use crate::oplib::AreaReport;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the DIFT instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiftConfig {
    /// Width of the taint label in bits (1 = tainted/untainted).
    pub taint_bits: u32,
    /// Whether the controller checks labels on every store (adds latency).
    pub check_on_store: bool,
}

impl Default for DiftConfig {
    fn default() -> DiftConfig {
        DiftConfig { taint_bits: 1, check_on_store: true }
    }
}

/// Overhead report for instrumenting one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiftReport {
    /// Extra area for shadow registers, propagation cells and checkers.
    pub extra_area: AreaReport,
    /// Extra BRAM bits for shadow storage of on-chip buffers.
    pub shadow_bits: u64,
    /// Added latency in cycles (exit-check + per-store check pipeline).
    pub latency_overhead: u64,
}

/// Computes the DIFT overhead for a bound datapath with `buffer_elems`
/// total on-chip buffer elements.
pub(crate) fn instrument(binding: &Binding, buffer_elems: u64, config: &DiftConfig) -> DiftReport {
    let tb = config.taint_bits as u64;
    let fu_instances: u64 = binding.allocation.iter().map(|(_, c)| c as u64).sum();
    // One propagation cell (OR-tree over operand labels) per FU instance:
    // ~4 LUTs + tb FFs each, per label bit.
    let prop_luts = 4 * tb * fu_instances;
    let prop_ffs = tb * fu_instances;
    // Shadow registers: one tb-bit label per live value register.
    let shadow_ffs = tb * binding.registers as u64;
    // Checker: small comparator per memory write port + exit checker.
    let checker_luts = 16 * tb;
    let shadow_bits = tb * buffer_elems;
    let extra_area = AreaReport {
        luts: prop_luts + checker_luts,
        ffs: prop_ffs + shadow_ffs,
        dsps: 0,
        brams: shadow_bits.div_ceil(18 * 1024),
    };
    let latency_overhead = if config.check_on_store { 2 } else { 1 };
    DiftReport { extra_area, shadow_bits, latency_overhead }
}

/// A software taint-propagation engine over named locations, mirroring what
/// the generated shadow logic does in hardware. Used by the runtime's
/// data-protection layer to evaluate policies.
#[derive(Debug, Clone, Default)]
pub struct TaintEngine {
    labels: BTreeMap<String, BTreeSet<String>>,
}

impl TaintEngine {
    /// Creates an engine with no labels.
    pub fn new() -> TaintEngine {
        TaintEngine::default()
    }

    /// Marks `location` with `label`.
    pub fn taint(&mut self, location: &str, label: &str) {
        self.labels.entry(location.to_owned()).or_default().insert(label.to_owned());
    }

    /// Propagates labels from all `sources` to `dest` (union semantics, as
    /// the hardware OR-tree does).
    pub fn propagate(&mut self, sources: &[&str], dest: &str) {
        let mut merged = BTreeSet::new();
        for s in sources {
            if let Some(ls) = self.labels.get(*s) {
                merged.extend(ls.iter().cloned());
            }
        }
        if merged.is_empty() {
            self.labels.remove(dest);
        } else {
            self.labels.insert(dest.to_owned(), merged);
        }
    }

    /// Removes every label from `location` (declassification).
    pub fn declassify(&mut self, location: &str) {
        self.labels.remove(location);
    }

    /// `true` if `location` carries `label`.
    pub fn is_tainted(&self, location: &str, label: &str) -> bool {
        self.labels.get(location).is_some_and(|s| s.contains(label))
    }

    /// Policy check: no location in `outputs` may carry any of
    /// `forbidden` labels. Returns the violations as
    /// `(location, label)` pairs.
    pub fn check_outputs(&self, outputs: &[&str], forbidden: &[&str]) -> Vec<(String, String)> {
        let mut violations = Vec::new();
        for out in outputs {
            for label in forbidden {
                if self.is_tainted(out, label) {
                    violations.push(((*out).to_owned(), (*label).to_owned()));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oplib::{FuCounts, FuKind};

    fn sample_binding() -> Binding {
        let mut allocation = FuCounts::default();
        allocation[FuKind::FAdd] = 2;
        allocation[FuKind::FMul] = 2;
        Binding { allocation, assignment: Vec::new(), registers: 10 }
    }

    #[test]
    fn overhead_scales_with_taint_bits() {
        let b = sample_binding();
        let one = instrument(&b, 1024, &DiftConfig { taint_bits: 1, check_on_store: true });
        let four = instrument(&b, 1024, &DiftConfig { taint_bits: 4, check_on_store: true });
        assert!(four.extra_area.luts > one.extra_area.luts);
        assert_eq!(four.shadow_bits, 4 * one.shadow_bits);
    }

    #[test]
    fn overhead_is_modest_relative_to_fp_datapath() {
        let b = sample_binding();
        let report = instrument(&b, 4096, &DiftConfig::default());
        let baseline = b.area();
        // TaintHLS reports small overheads; our model stays below 30% LUTs.
        assert!(100 * report.extra_area.luts < 30 * baseline.luts);
    }

    #[test]
    fn store_checks_add_latency() {
        let b = sample_binding();
        let with = instrument(&b, 64, &DiftConfig { taint_bits: 1, check_on_store: true });
        let without = instrument(&b, 64, &DiftConfig { taint_bits: 1, check_on_store: false });
        assert!(with.latency_overhead > without.latency_overhead);
    }

    #[test]
    fn taint_propagates_through_unions() {
        let mut e = TaintEngine::new();
        e.taint("key", "secret");
        e.taint("iv", "public");
        e.propagate(&["key", "iv"], "ct");
        assert!(e.is_tainted("ct", "secret"));
        assert!(e.is_tainted("ct", "public"));
        assert!(!e.is_tainted("iv", "secret"));
    }

    #[test]
    fn declassify_clears_labels() {
        let mut e = TaintEngine::new();
        e.taint("x", "secret");
        e.declassify("x");
        assert!(!e.is_tainted("x", "secret"));
    }

    #[test]
    fn propagate_from_clean_sources_clears_dest() {
        let mut e = TaintEngine::new();
        e.taint("dest", "stale");
        e.propagate(&["clean_a", "clean_b"], "dest");
        assert!(!e.is_tainted("dest", "stale"));
    }

    #[test]
    fn policy_check_reports_violations() {
        let mut e = TaintEngine::new();
        e.taint("patient_record", "pii");
        e.propagate(&["patient_record"], "model_output");
        let violations = e.check_outputs(&["model_output", "log"], &["pii"]);
        assert_eq!(violations, vec![("model_output".to_owned(), "pii".to_owned())]);
    }
}
