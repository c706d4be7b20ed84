//! The mARGOt-style dynamic autotuner (paper IV, ref \[11\]).
//!
//! mARGOt selects, for each kernel invocation, one of the operating points
//! generated at compile time, by (1) filtering points through constraints,
//! (2) ranking the survivors with an objective, and (3) correcting the
//! design-time predictions with runtime feedback (an EWMA of
//! observed/predicted ratios per point) — "the selection will generalize
//! the concept of affinity between the code variants and the available
//! system configurations".

use crate::error::{RuntimeError, RuntimeResult};
use everest_variants::Variant;
use std::collections::HashMap;

/// Which predicted metric a constraint bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// End-to-end time per invocation (µs).
    TotalTimeUs,
    /// Energy per invocation (mJ).
    EnergyMj,
    /// FPGA LUT footprint.
    AreaLuts,
}

/// An upper-bound constraint on a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// Bounded metric.
    pub metric: Metric,
    /// Inclusive upper bound.
    pub max: f64,
}

/// Ranking objective for feasible points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize corrected end-to-end time.
    #[default]
    MinLatency,
    /// Minimize energy.
    MinEnergy,
    /// Minimize energy-delay product.
    MinEnergyDelay,
}

/// Dynamic system conditions the selector reacts to
/// ("based on the workload and data conditions").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemState {
    /// FPGA LUTs currently free (0 = accelerators unavailable).
    pub free_luts: u64,
    /// Multiplier on data-transfer time (congestion on the attachment).
    pub link_congestion: f64,
    /// When `true`, only DIFT-hardened or software points are eligible
    /// (the data-protection layer raised an alarm).
    pub require_hardened: bool,
}

impl Default for SystemState {
    fn default() -> SystemState {
        SystemState { free_luts: u64::MAX, link_congestion: 1.0, require_hardened: false }
    }
}

/// The autotuner: operating points + constraints + feedback state.
#[derive(Debug, Clone)]
pub struct Autotuner {
    points: Vec<Variant>,
    constraints: Vec<Constraint>,
    objective: Objective,
    /// EWMA of observed/predicted latency ratio per point id.
    correction: HashMap<String, f64>,
    alpha: f64,
    /// Index of the point returned by the previous [`Autotuner::select`],
    /// used to count variant switches in telemetry.
    last_selected: std::cell::Cell<Option<usize>>,
}

impl Autotuner {
    /// Creates a tuner over the given operating points.
    pub fn new(points: Vec<Variant>) -> Autotuner {
        Autotuner {
            points,
            constraints: Vec::new(),
            objective: Objective::default(),
            correction: HashMap::new(),
            alpha: 0.3,
            last_selected: std::cell::Cell::new(None),
        }
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self
    }

    /// Sets the ranking objective.
    pub fn set_objective(&mut self, objective: Objective) -> &mut Self {
        self.objective = objective;
        self
    }

    /// Feeds back an observed latency for point `id`, updating its
    /// correction factor.
    pub(crate) fn observe(&mut self, id: &str, observed_us: f64) {
        let Some(point) = self.points.iter().find(|p| p.id == id) else {
            return;
        };
        let predicted = point.metrics.total_us().max(1e-9);
        let ratio = observed_us / predicted;
        let entry = self.correction.entry(id.to_owned()).or_insert(1.0);
        *entry = (1.0 - self.alpha) * *entry + self.alpha * ratio;
    }

    /// The corrected expected time of a point under `state`.
    pub(crate) fn corrected_time_us(&self, point: &Variant, state: &SystemState) -> f64 {
        let corr = self.correction.get(&point.id).copied().unwrap_or(1.0);
        let transfer = point.metrics.transfer_us
            * if point.is_hardware() { state.link_congestion } else { 1.0 };
        point.metrics.latency_us * corr + transfer
    }

    fn feasible(&self, point: &Variant, state: &SystemState) -> bool {
        if point.is_hardware() && point.metrics.area_luts > state.free_luts {
            return false;
        }
        if state.require_hardened
            && point.is_hardware()
            && !point
                .transforms
                .iter()
                .any(|t| matches!(t, everest_variants::Transform::Dift(true)))
        {
            return false;
        }
        for c in &self.constraints {
            let value = match c.metric {
                Metric::TotalTimeUs => self.corrected_time_us(point, state),
                Metric::EnergyMj => point.metrics.energy_mj,
                Metric::AreaLuts => point.metrics.area_luts as f64,
            };
            if value > c.max {
                return false;
            }
        }
        true
    }

    fn rank(&self, point: &Variant, state: &SystemState) -> f64 {
        let t = self.corrected_time_us(point, state);
        match self.objective {
            Objective::MinLatency => t,
            Objective::MinEnergy => point.metrics.energy_mj,
            Objective::MinEnergyDelay => t * point.metrics.energy_mj,
        }
    }

    /// Selects the best feasible operating point for the current state.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoFeasiblePoint`] when every point violates
    /// a constraint or the state.
    pub fn select(&self, state: &SystemState) -> RuntimeResult<&Variant> {
        let (index, point) = self
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| self.feasible(p, state))
            .min_by(|(_, a), (_, b)| self.rank(a, state).total_cmp(&self.rank(b, state)))
            .ok_or(RuntimeError::NoFeasiblePoint)?;
        let previous = self.last_selected.replace(Some(index));
        everest_telemetry::metrics().counter_inc("runtime.autotuner.selections");
        if previous.is_some_and(|prev| prev != index) {
            everest_telemetry::metrics().counter_inc("runtime.variant_switches");
        }
        Ok(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_variants::{Metrics, Target, Transform};

    fn point(id: &str, latency: f64, transfer: f64, energy: f64, luts: u64, dift: bool) -> Variant {
        let mut transforms = Vec::new();
        if luts > 0 {
            transforms.push(Transform::OnTarget(Target::FpgaBus));
            transforms.push(Transform::Dift(dift));
        }
        Variant {
            id: id.into(),
            kernel: "k".into(),
            transforms,
            metrics: Metrics {
                latency_us: latency,
                transfer_us: transfer,
                energy_mj: energy,
                area_luts: luts,
                area_brams: 0,
            },
        }
    }

    fn sample_points() -> Vec<Variant> {
        vec![
            point("sw-1t", 1000.0, 0.0, 5.0, 0, false),
            point("sw-8t", 250.0, 0.0, 9.0, 0, false),
            point("hw", 40.0, 20.0, 1.0, 50_000, false),
            point("hw-dift", 45.0, 20.0, 1.2, 62_000, true),
        ]
    }

    #[test]
    fn selects_fastest_by_default() {
        let tuner = Autotuner::new(sample_points());
        assert_eq!(tuner.select(&SystemState::default()).unwrap().id, "hw");
    }

    #[test]
    fn falls_back_to_software_when_fabric_full() {
        let tuner = Autotuner::new(sample_points());
        let state = SystemState { free_luts: 10_000, ..Default::default() };
        assert_eq!(tuner.select(&state).unwrap().id, "sw-8t");
    }

    #[test]
    fn congestion_flips_the_choice() {
        let tuner = Autotuner::new(sample_points());
        // 40 + 20*c vs 250: hardware loses once 20*c > 210.
        let state = SystemState { link_congestion: 12.0, ..Default::default() };
        assert_eq!(tuner.select(&state).unwrap().id, "sw-8t");
    }

    #[test]
    fn security_alarm_requires_hardened_points() {
        let tuner = Autotuner::new(sample_points());
        let state = SystemState { require_hardened: true, ..Default::default() };
        assert_eq!(tuner.select(&state).unwrap().id, "hw-dift");
    }

    #[test]
    fn energy_objective_changes_ranking() {
        let mut tuner = Autotuner::new(sample_points());
        tuner.set_objective(Objective::MinEnergy);
        assert_eq!(tuner.select(&SystemState::default()).unwrap().id, "hw");
        // Disable hardware: among software points, sw-1t is more frugal.
        let state = SystemState { free_luts: 0, ..Default::default() };
        assert_eq!(tuner.select(&state).unwrap().id, "sw-1t");
    }

    #[test]
    fn constraints_filter_points() {
        let mut tuner = Autotuner::new(sample_points());
        tuner.add_constraint(Constraint { metric: Metric::AreaLuts, max: 0.0 });
        assert_eq!(tuner.select(&SystemState::default()).unwrap().id, "sw-8t");
        tuner.add_constraint(Constraint { metric: Metric::TotalTimeUs, max: 100.0 });
        assert_eq!(tuner.select(&SystemState::default()), Err(RuntimeError::NoFeasiblePoint));
    }

    #[test]
    fn feedback_corrects_optimistic_predictions() {
        let mut tuner = Autotuner::new(sample_points());
        // The hardware point consistently runs 10x slower than predicted
        // (e.g. the model missed contention).
        for _ in 0..20 {
            tuner.observe("hw", 600.0);
        }
        // Corrections are per point: "hw" is now known slow and must not
        // be picked again (its sibling points keep their predictions).
        assert_ne!(tuner.select(&SystemState::default()).unwrap().id, "hw");
    }

    #[test]
    fn observe_unknown_id_is_ignored() {
        let mut tuner = Autotuner::new(sample_points());
        tuner.observe("ghost", 1.0);
        assert_eq!(tuner.select(&SystemState::default()).unwrap().id, "hw");
    }

    #[test]
    fn empty_tuner_has_no_feasible_point() {
        let tuner = Autotuner::new(Vec::new());
        assert_eq!(tuner.select(&SystemState::default()), Err(RuntimeError::NoFeasiblePoint));
    }
}
