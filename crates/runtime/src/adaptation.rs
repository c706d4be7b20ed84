//! The closed dynamic-adaptation loop: workload phases, variant selection
//! per invocation, and the comparison between static, adaptive and oracle
//! strategies (paper IV: "an intelligent policy to select the code variant
//! or hardware configuration to execute ... based on the system status").

use crate::autotuner::{Autotuner, SystemState};
use crate::monitor::RuntimeMonitor;
use everest_variants::Variant;

/// One phase of a workload scenario: `invocations` kernel calls under
/// fixed system conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase label.
    pub name: String,
    /// Number of kernel invocations in this phase.
    pub invocations: usize,
    /// Link congestion multiplier on hardware transfer times.
    pub congestion: f64,
    /// FPGA LUTs free during this phase (other tenants come and go).
    pub free_luts: u64,
    /// Extra slowdown on hardware compute (e.g. clock throttling), ≥ 1.
    pub hw_slowdown: f64,
    /// Whether the data-protection layer raises an access alarm here.
    pub security_alarm: bool,
}

impl Phase {
    /// A benign phase with everything available.
    pub fn calm(name: &str, invocations: usize) -> Phase {
        Phase {
            name: name.into(),
            invocations,
            congestion: 1.0,
            free_luts: u64::MAX,
            hw_slowdown: 1.0,
            security_alarm: false,
        }
    }
}

/// Selection strategies compared by the adaptation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Always run the point with this index (chosen offline).
    Static(usize),
    /// The mARGOt loop: monitor feedback + per-invocation selection.
    Adaptive,
    /// Clairvoyant per-phase best (lower bound).
    Oracle,
}

/// Result of running one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Total execution time across all phases, microseconds.
    pub total_us: f64,
    /// Per-phase `(name, time_us, chosen_point)` summary (the point chosen
    /// for the majority of the phase).
    pub phases: Vec<(String, f64, String)>,
    /// Invocations that had to fall back because the chosen point was
    /// infeasible at runtime.
    pub fallbacks: usize,
    /// Partial reconfigurations performed (hardware role switches).
    pub reconfigs: usize,
}

/// The "ground-truth" time of running `point` once under `phase`
/// conditions (what the hardware would actually deliver).
pub(crate) fn actual_time_us(point: &Variant, phase: &Phase) -> f64 {
    if point.is_hardware() {
        point.metrics.latency_us * phase.hw_slowdown + point.metrics.transfer_us * phase.congestion
    } else {
        point.metrics.total_us()
    }
}

fn feasible_now(point: &Variant, phase: &Phase) -> bool {
    !point.is_hardware() || point.metrics.area_luts <= phase.free_luts
}

fn best_software_fallback(points: &[Variant]) -> Option<&Variant> {
    points
        .iter()
        .filter(|p| !p.is_hardware())
        .min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
}

/// Runs a scenario with the chosen strategy (no reconfiguration cost).
///
/// # Panics
///
/// Panics if `points` is empty, or `Strategy::Static` indexes out of
/// bounds.
pub fn run_scenario(points: &[Variant], phases: &[Phase], strategy: Strategy) -> ScenarioReport {
    run_scenario_with_costs(points, phases, strategy, 0.0)
}

/// Runs a scenario charging `reconfig_us` every time a *different*
/// hardware role must be loaded (partial reconfiguration of the vFPGA
/// slot). Software points never pay it; re-running the already-loaded
/// role is free.
///
/// # Panics
///
/// Panics if `points` is empty, or `Strategy::Static` indexes out of
/// bounds.
pub(crate) fn run_scenario_with_costs(
    points: &[Variant],
    phases: &[Phase],
    strategy: Strategy,
    reconfig_us: f64,
) -> ScenarioReport {
    assert!(!points.is_empty(), "scenario needs operating points");
    let mut tuner = Autotuner::new(points.to_vec());
    let mut monitor = RuntimeMonitor::new(u64::MAX);
    let mut total = 0.0;
    let mut fallbacks = 0usize;
    let mut phase_rows = Vec::new();
    let mut loaded_role: Option<String> = None;
    let mut reconfigs = 0usize;

    for phase in phases {
        let mut phase_time = 0.0;
        let mut last_choice = String::new();
        for inv in 0..phase.invocations {
            let chosen: Variant = match strategy {
                Strategy::Static(i) => points[i].clone(),
                Strategy::Oracle => points
                    .iter()
                    .filter(|p| feasible_now(p, phase))
                    .min_by(|a, b| actual_time_us(a, phase).total_cmp(&actual_time_us(b, phase)))
                    .expect("at least one feasible point")
                    .clone(),
                Strategy::Adaptive => {
                    // Monitors observe conditions with a small lag: the
                    // state snapshot reflects the current phase after the
                    // first invocation reported it.
                    if inv == 0 {
                        monitor.set_congestion(phase.congestion);
                        monitor.set_free_luts(phase.free_luts);
                    }
                    let state: SystemState = monitor.system_state();
                    tuner
                        .select(&state)
                        .unwrap_or_else(|_| {
                            best_software_fallback(points).expect("a software point exists")
                        })
                        .clone()
                }
            };
            // Feasibility at execution time: an infeasible static choice
            // falls back to software with a reconfiguration-thrash penalty.
            let (run_point, penalty) = if feasible_now(&chosen, phase) {
                (&chosen, 1.0)
            } else {
                fallbacks += 1;
                (best_software_fallback(points).expect("a software point exists"), 1.2)
            };
            let mut t = actual_time_us(run_point, phase) * penalty;
            // Partial-reconfiguration cost on hardware role changes.
            if run_point.is_hardware() && loaded_role.as_deref() != Some(run_point.id.as_str()) {
                t += reconfig_us;
                loaded_role = Some(run_point.id.clone());
                reconfigs += 1;
            }
            phase_time += t;
            if matches!(strategy, Strategy::Adaptive) {
                tuner.observe(&run_point.id, t);
                monitor.record(t, phase.security_alarm && inv == 0, false);
            }
            last_choice = run_point.id.clone();
        }
        total += phase_time;
        phase_rows.push((phase.name.clone(), phase_time, last_choice));
    }
    ScenarioReport { total_us: total, phases: phase_rows, fallbacks, reconfigs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_variants::{Metrics, Target, Transform};

    fn point(id: &str, latency: f64, transfer: f64, luts: u64) -> Variant {
        let transforms = if luts > 0 { vec![Transform::OnTarget(Target::FpgaBus)] } else { vec![] };
        Variant {
            id: id.into(),
            kernel: "k".into(),
            transforms,
            metrics: Metrics {
                latency_us: latency,
                transfer_us: transfer,
                energy_mj: 1.0,
                area_luts: luts,
                area_brams: 0,
            },
        }
    }

    fn points() -> Vec<Variant> {
        vec![point("sw", 300.0, 0.0, 0), point("hw", 50.0, 25.0, 40_000)]
    }

    fn phases() -> Vec<Phase> {
        vec![
            Phase::calm("steady", 50),
            // Congestion spike: hardware transfers cost 20x.
            Phase { congestion: 20.0, ..Phase::calm("congested", 50) },
            // Fabric taken by another tenant.
            Phase { free_luts: 10_000, ..Phase::calm("fabric-busy", 50) },
            Phase::calm("recovered", 50),
        ]
    }

    #[test]
    fn oracle_is_a_lower_bound() {
        let pts = points();
        let ph = phases();
        let oracle = run_scenario(&pts, &ph, Strategy::Oracle);
        for strategy in [Strategy::Static(0), Strategy::Static(1), Strategy::Adaptive] {
            let r = run_scenario(&pts, &ph, strategy);
            assert!(
                r.total_us >= oracle.total_us - 1e-6,
                "{strategy:?} beat the oracle: {} < {}",
                r.total_us,
                oracle.total_us
            );
        }
    }

    #[test]
    fn adaptive_beats_every_static_choice_under_phase_changes() {
        let pts = points();
        let ph = phases();
        let adaptive = run_scenario(&pts, &ph, Strategy::Adaptive);
        let static_sw = run_scenario(&pts, &ph, Strategy::Static(0));
        let static_hw = run_scenario(&pts, &ph, Strategy::Static(1));
        assert!(adaptive.total_us < static_sw.total_us, "adaptive vs static-sw");
        assert!(adaptive.total_us < static_hw.total_us, "adaptive vs static-hw");
    }

    #[test]
    fn adaptive_tracks_oracle_closely() {
        let pts = points();
        let ph = phases();
        let adaptive = run_scenario(&pts, &ph, Strategy::Adaptive);
        let oracle = run_scenario(&pts, &ph, Strategy::Oracle);
        assert!(
            adaptive.total_us <= oracle.total_us * 1.25,
            "adaptive {} vs oracle {}",
            adaptive.total_us,
            oracle.total_us
        );
    }

    #[test]
    fn static_hardware_pays_fallbacks_when_fabric_busy() {
        let pts = points();
        let ph = phases();
        let r = run_scenario(&pts, &ph, Strategy::Static(1));
        assert_eq!(r.fallbacks, 50, "every fabric-busy invocation falls back");
    }

    #[test]
    fn adaptive_switches_choices_across_phases() {
        let pts = points();
        let ph = phases();
        let r = run_scenario(&pts, &ph, Strategy::Adaptive);
        let choices: Vec<&str> = r.phases.iter().map(|(_, _, c)| c.as_str()).collect();
        assert_eq!(choices[0], "hw");
        assert_eq!(choices[1], "sw", "congestion must push selection to software");
        assert_eq!(choices[2], "sw", "missing fabric must push selection to software");
    }

    #[test]
    fn reconfiguration_costs_are_charged_per_role_switch() {
        let pts = points();
        let ph = phases();
        // Oracle has no feedback loop, so the cost delta is exact.
        let free = run_scenario_with_costs(&pts, &ph, Strategy::Oracle, 0.0);
        let costly = run_scenario_with_costs(&pts, &ph, Strategy::Oracle, 10_000.0);
        assert!(costly.total_us > free.total_us);
        assert_eq!(costly.reconfigs, free.reconfigs);
        let delta = costly.total_us - free.total_us;
        assert!((delta - costly.reconfigs as f64 * 10_000.0).abs() < 1e-6);
        // Adaptive (whose feedback sees the reconfig spikes) still pays.
        let ad_free = run_scenario_with_costs(&pts, &ph, Strategy::Adaptive, 0.0);
        let ad_costly = run_scenario_with_costs(&pts, &ph, Strategy::Adaptive, 10_000.0);
        assert!(ad_costly.total_us >= ad_free.total_us);
        // Static hardware loads its role exactly once.
        let static_hw = run_scenario_with_costs(&pts, &ph, Strategy::Static(1), 10_000.0);
        assert_eq!(static_hw.reconfigs, 1);
    }

    #[test]
    fn software_only_scenarios_never_reconfigure() {
        let pts = vec![point("sw", 300.0, 0.0, 0)];
        let r =
            run_scenario_with_costs(&pts, &[Phase::calm("p", 10)], Strategy::Static(0), 5_000.0);
        assert_eq!(r.reconfigs, 0);
    }

    #[test]
    fn report_phase_rows_match_input() {
        let r = run_scenario(&points(), &phases(), Strategy::Adaptive);
        assert_eq!(r.phases.len(), 4);
        let sum: f64 = r.phases.iter().map(|(_, t, _)| t).sum();
        assert!((sum - r.total_us).abs() < 1e-6);
    }
}
