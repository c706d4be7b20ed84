//! Design-space definition and enumeration.

use crate::error::VariantError;
use crate::knob::KnobVector;
use crate::transform::{Layout, Target};

/// The knob domains a design-space exploration sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Software threading degrees.
    pub threads: Vec<u32>,
    /// Data layouts.
    pub layouts: Vec<Layout>,
    /// Tile sizes (`None` = untiled).
    pub tiles: Vec<Option<usize>>,
    /// Hardware targets to consider.
    pub hw_targets: Vec<Target>,
    /// Memory banks for hardware points.
    pub banks: Vec<usize>,
    /// Processing-element counts for hardware points.
    pub pes: Vec<usize>,
    /// Innermost-loop pipelining options for hardware points.
    pub pipeline: Vec<bool>,
    /// DIFT hardening options for hardware points.
    pub dift: Vec<bool>,
}

impl Default for DesignSpace {
    fn default() -> DesignSpace {
        DesignSpace {
            threads: vec![1, 2, 4, 8],
            layouts: vec![Layout::Aos, Layout::Soa],
            tiles: vec![None, Some(32)],
            hw_targets: vec![Target::FpgaBus, Target::FpgaNetwork],
            banks: vec![4, 16],
            pes: vec![8, 32],
            pipeline: vec![true],
            dift: vec![false],
        }
    }
}

impl DesignSpace {
    /// A minimal space for fast tests: 2 software + 1 hardware point.
    pub fn small() -> DesignSpace {
        DesignSpace {
            threads: vec![1, 4],
            layouts: vec![Layout::Aos],
            tiles: vec![None],
            hw_targets: vec![Target::FpgaBus],
            banks: vec![16],
            pes: vec![32],
            pipeline: vec![true],
            dift: vec![false],
        }
    }

    /// A software-only space (for hosts without FPGAs).
    pub fn software_only() -> DesignSpace {
        DesignSpace {
            hw_targets: Vec::new(),
            banks: Vec::new(),
            pes: Vec::new(),
            pipeline: Vec::new(),
            dift: Vec::new(),
            ..DesignSpace::default()
        }
    }

    /// Checks the space describes at least one design point, that no
    /// knob dimension silently zeroes out a cross product, and that no
    /// knob repeats a value.
    ///
    /// Each knob group (software: threads/layouts/tiles, hardware:
    /// hw_targets/banks/pes/pipeline/dift) must be either fully populated
    /// or fully empty — an empty dimension inside a populated group would
    /// make [`DesignSpace::enumerate_knobs`] yield zero points for the whole
    /// group without any indication of why. A duplicated knob value
    /// (e.g. `threads: [4, 4]`) would enumerate the same point twice,
    /// double-counting it in every downstream consumer — Pareto
    /// statistics, memo hit rates, and the learned-cost-model dataset
    /// would all silently skew toward the repeated point.
    ///
    /// # Errors
    ///
    /// Returns [`VariantError::Space`] naming the offending knob.
    pub fn validate(&self) -> Result<(), VariantError> {
        let software = [
            ("threads", self.threads.is_empty()),
            ("layouts", self.layouts.is_empty()),
            ("tiles", self.tiles.is_empty()),
        ];
        let hardware = [
            ("hw_targets", self.hw_targets.is_empty()),
            ("banks", self.banks.is_empty()),
            ("pes", self.pes.is_empty()),
            ("pipeline", self.pipeline.is_empty()),
            ("dift", self.dift.is_empty()),
        ];
        for group in [&software[..], &hardware[..]] {
            if group.iter().any(|(_, empty)| *empty) && !group.iter().all(|(_, empty)| *empty) {
                let empty: Vec<&str> =
                    group.iter().filter(|(_, e)| *e).map(|(name, _)| *name).collect();
                let set: Vec<&str> =
                    group.iter().filter(|(_, e)| !*e).map(|(name, _)| *name).collect();
                return Err(VariantError::Space(format!(
                    "knob dimension(s) {empty:?} are empty while {set:?} are populated, so the \
                     cross product enumerates zero points; give every knob in the group at least \
                     one value, or empty the whole group to disable it"
                )));
            }
        }
        if software.iter().all(|(_, empty)| *empty) && hardware.iter().all(|(_, empty)| *empty) {
            return Err(VariantError::Space(
                "every knob dimension is empty: the space describes no design points".into(),
            ));
        }
        reject_duplicates("threads", &self.threads)?;
        reject_duplicates("layouts", &self.layouts)?;
        reject_duplicates("tiles", &self.tiles)?;
        reject_duplicates("hw_targets", &self.hw_targets)?;
        reject_duplicates("banks", &self.banks)?;
        reject_duplicates("pes", &self.pes)?;
        reject_duplicates("pipeline", &self.pipeline)?;
        reject_duplicates("dift", &self.dift)?;
        Ok(())
    }

    /// Enumerates every point as a typed [`KnobVector`]: the cross
    /// product of software knobs followed by the cross product of
    /// hardware knobs, in a deterministic order that is part of the DSE
    /// contract (variant ids are `kernel#index` into this order).
    pub fn enumerate_knobs(&self) -> Vec<KnobVector> {
        let mut points = Vec::with_capacity(self.size());
        for &threads in &self.threads {
            for &layout in &self.layouts {
                for &tile in &self.tiles {
                    points.push(KnobVector::Software { threads, layout, tile });
                }
            }
        }
        for &target in &self.hw_targets {
            for &banks in &self.banks {
                for &pe in &self.pes {
                    for &pipeline in &self.pipeline {
                        for &dift in &self.dift {
                            points.push(KnobVector::Hardware { target, banks, pe, pipeline, dift });
                        }
                    }
                }
            }
        }
        points
    }

    /// Number of points this space enumerates.
    pub fn size(&self) -> usize {
        self.threads.len() * self.layouts.len() * self.tiles.len()
            + self.hw_targets.len()
                * self.banks.len()
                * self.pes.len()
                * self.pipeline.len()
                * self.dift.len()
    }
}

/// Rejects a knob list that repeats a value, naming the knob and value.
fn reject_duplicates<T: PartialEq + std::fmt::Debug>(
    name: &str,
    values: &[T],
) -> Result<(), VariantError> {
    for (i, value) in values.iter().enumerate() {
        if values[..i].contains(value) {
            return Err(VariantError::Space(format!(
                "knob '{name}' lists {value:?} more than once; duplicate knob values enumerate \
                 the same design point twice and silently bias every downstream statistic"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::Transform;

    #[test]
    fn default_space_size() {
        let s = DesignSpace::default();
        assert_eq!(s.size(), 4 * 2 * 2 + 2 * 2 * 2);
        assert_eq!(s.enumerate_knobs().len(), s.size());
    }

    #[test]
    fn small_space_has_three_points() {
        let s = DesignSpace::small();
        assert_eq!(s.enumerate_knobs().len(), 3);
    }

    #[test]
    fn software_only_space_has_no_fpga_points() {
        let s = DesignSpace::software_only();
        assert!(s.enumerate_knobs().iter().all(|knob| !knob.is_hardware()));
    }

    #[test]
    fn validate_accepts_the_stock_spaces() {
        assert!(DesignSpace::default().validate().is_ok());
        assert!(DesignSpace::small().validate().is_ok());
        assert!(DesignSpace::software_only().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_knob_inside_populated_group() {
        let space = DesignSpace { threads: Vec::new(), ..DesignSpace::default() };
        assert_eq!(space.enumerate_knobs().len(), 8, "software points silently vanish");
        let err = space.validate().unwrap_err();
        let VariantError::Space(msg) = err else {
            panic!("expected a space error");
        };
        assert!(msg.contains("threads"), "error should name the empty knob: {msg}");

        let space = DesignSpace { pes: Vec::new(), dift: Vec::new(), ..DesignSpace::default() };
        assert!(space.validate().is_err());
    }

    #[test]
    fn validate_rejects_fully_empty_space() {
        let space = DesignSpace {
            threads: Vec::new(),
            layouts: Vec::new(),
            tiles: Vec::new(),
            hw_targets: Vec::new(),
            banks: Vec::new(),
            pes: Vec::new(),
            pipeline: Vec::new(),
            dift: Vec::new(),
        };
        assert_eq!(space.enumerate_knobs().len(), 0);
        assert!(matches!(space.validate(), Err(VariantError::Space(_))));
    }

    #[test]
    fn validate_rejects_duplicate_knob_values() {
        let space = DesignSpace { threads: vec![1, 4, 4], ..DesignSpace::default() };
        assert_eq!(
            space.enumerate_knobs().len(),
            space.size(),
            "duplicates double-count points, which is exactly the bias validate must reject"
        );
        let VariantError::Space(msg) = space.validate().unwrap_err() else {
            panic!("expected a space error");
        };
        assert!(msg.contains("threads") && msg.contains('4'), "names knob and value: {msg}");

        // Every knob dimension is covered, including the Option-typed and
        // bool-typed ones.
        let space = DesignSpace { tiles: vec![None, None], ..DesignSpace::default() };
        assert!(space.validate().is_err());
        let space = DesignSpace { dift: vec![false, false], ..DesignSpace::default() };
        assert!(space.validate().is_err());
        let space = DesignSpace { banks: vec![4, 16, 4], ..DesignSpace::default() };
        assert!(space.validate().is_err());
    }

    #[test]
    fn every_point_names_a_target() {
        for knob in DesignSpace::default().enumerate_knobs() {
            // target() defaulting is not exercised: the enumerator is
            // explicit about targets.
            assert!(knob.to_transforms().iter().any(|t| matches!(t, Transform::OnTarget(_))));
        }
    }
}
