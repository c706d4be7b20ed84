//! Microscopic traffic simulation: the paper's traffic ecosystem combines
//! "both macro and microscopic approaches" (VI-C). This module implements
//! the Intelligent Driver Model (IDM) on a ring road — the canonical
//! microscopic setup — which reproduces the emergent stop-and-go waves
//! that make macroscopic speed profiles heavy-tailed, and provides the
//! "boosted" training sequences the prediction model learns from.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// IDM parameters (standard highway calibration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IdmParams {
    /// Desired speed, m/s.
    pub v0: f64,
    /// Safe time headway, s.
    pub time_headway: f64,
    /// Maximum acceleration, m/s².
    pub a_max: f64,
    /// Comfortable deceleration, m/s².
    pub b_comf: f64,
    /// Minimum gap, m.
    pub s0: f64,
    /// Vehicle length, m.
    pub length: f64,
}

impl Default for IdmParams {
    fn default() -> IdmParams {
        IdmParams { v0: 30.0, time_headway: 1.5, a_max: 1.0, b_comf: 2.0, s0: 2.0, length: 5.0 }
    }
}

/// A ring-road microscopic simulation.
#[derive(Debug, Clone)]
pub(crate) struct RingRoad {
    /// Ring circumference, m.
    pub circumference: f64,
    params: IdmParams,
    positions: Vec<f64>,
    speeds: Vec<f64>,
}

impl RingRoad {
    /// Places `vehicles` equally spaced with small seeded speed
    /// perturbations (the perturbation nucleates the jam).
    ///
    /// # Panics
    ///
    /// Panics if the vehicles do not fit the ring.
    pub(crate) fn new(
        seed: u64,
        circumference: f64,
        vehicles: usize,
        params: IdmParams,
    ) -> RingRoad {
        assert!(vehicles as f64 * (params.length + params.s0) < circumference, "ring over-packed");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spacing = circumference / vehicles as f64;
        let positions = (0..vehicles).map(|i| i as f64 * spacing).collect();
        let speeds =
            (0..vehicles).map(|_| (params.v0 * 0.5 + rng.gen_range(-1.0..1.0)).max(0.0)).collect();
        RingRoad { circumference, params, positions, speeds }
    }

    /// Number of vehicles.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// IDM acceleration of vehicle `i` given its leader.
    fn acceleration(&self, i: usize) -> f64 {
        let p = &self.params;
        let n = self.len();
        let leader = (i + 1) % n;
        let mut gap = self.positions[leader] - self.positions[i] - p.length;
        if gap < 0.0 {
            gap += self.circumference;
        }
        let gap = gap.max(0.01);
        let v = self.speeds[i];
        let dv = v - self.speeds[leader];
        let s_star =
            p.s0 + (v * p.time_headway + v * dv / (2.0 * (p.a_max * p.b_comf).sqrt())).max(0.0);
        p.a_max * (1.0 - (v / p.v0).powi(4) - (s_star / gap).powi(2))
    }

    /// Advances the simulation by `dt` seconds (ballistic update).
    pub(crate) fn step(&mut self, dt: f64) {
        let acc: Vec<f64> = (0..self.len()).map(|i| self.acceleration(i)).collect();
        for i in 0..self.len() {
            let v = (self.speeds[i] + acc[i] * dt).max(0.0);
            self.positions[i] = (self.positions[i] + v * dt).rem_euclid(self.circumference);
            self.speeds[i] = v;
        }
    }

    /// Mean speed across vehicles, m/s.
    pub(crate) fn mean_speed(&self) -> f64 {
        self.speeds.iter().sum::<f64>() / self.len() as f64
    }

    /// Vehicle density, veh/km.
    pub(crate) fn density(&self) -> f64 {
        self.len() as f64 / (self.circumference / 1000.0)
    }

    /// Traffic flow (veh/h) at the current state: density × mean speed.
    pub(crate) fn flow_veh_h(&self) -> f64 {
        self.density() * self.mean_speed() * 3.6
    }
}

/// Generates the fundamental diagram — flow vs density — by sweeping the
/// vehicle count on a fixed ring. This is the "boosted" training data the
/// macroscopic profiles consume.
pub fn fundamental_diagram(seed: u64, circumference: f64, counts: &[usize]) -> Vec<(f64, f64)> {
    counts
        .iter()
        .map(|n| {
            let mut ring = RingRoad::new(seed, circumference, *n, IdmParams::default());
            let dt = 0.25;
            for _ in 0..1200 {
                ring.step(dt);
            }
            (ring.density(), ring.flow_veh_h())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `vehicles` on `circumference` metres after `seconds` of
    /// quarter-second steps.
    fn settled(seed: u64, vehicles: usize, circumference: f64, seconds: f64) -> RingRoad {
        let mut ring = RingRoad::new(seed, circumference, vehicles, IdmParams::default());
        for _ in 0..(seconds / 0.25) as usize {
            ring.step(0.25);
        }
        ring
    }

    #[test]
    fn light_traffic_reaches_free_flow() {
        // 10 vehicles on 2 km: plenty of room, everyone near v0.
        let ring = settled(1, 10, 2_000.0, 300.0);
        let mean = ring.mean_speed();
        assert!(mean > 0.9 * IdmParams::default().v0, "mean {mean}");
        let var =
            ring.speeds.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / ring.len() as f64;
        assert!(var.sqrt() < 1.0, "free flow is homogeneous, std {}", var.sqrt());
    }

    #[test]
    fn dense_traffic_jams() {
        // 180 vehicles on 2 km (90 veh/km): congested regime.
        let mean = settled(1, 180, 2_000.0, 300.0).mean_speed();
        assert!(mean < 0.35 * IdmParams::default().v0, "jammed mean {mean}");
    }

    #[test]
    fn fundamental_diagram_rises_then_falls() {
        let fd = fundamental_diagram(3, 2_000.0, &[10, 40, 80, 140, 200]);
        let flows: Vec<f64> = fd.iter().map(|(_, f)| *f).collect();
        let peak = flows.iter().copied().fold(0.0, f64::max);
        // Capacity is interior: both extremes below the peak.
        assert!(flows[0] < peak, "free-flow branch rises");
        assert!(*flows.last().unwrap() < peak, "congested branch falls");
        // Capacity of a single lane is ~1800-2600 veh/h for IDM.
        assert!(peak > 1_200.0 && peak < 3_200.0, "peak {peak}");
    }

    #[test]
    fn vehicles_never_collide() {
        let mut ring = RingRoad::new(5, 1_000.0, 60, IdmParams::default());
        for _ in 0..2_000 {
            ring.step(0.25);
        }
        // Check pairwise gaps along the ring order.
        let n = ring.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|a, b| ring.positions[*a].total_cmp(&ring.positions[*b]));
        for w in 0..n {
            let i = order[w];
            let j = order[(w + 1) % n];
            let mut gap = ring.positions[j] - ring.positions[i];
            if gap < 0.0 {
                gap += ring.circumference;
            }
            assert!(gap >= ring.params.length * 0.5, "vehicles {i} and {j} overlap: gap {gap}");
        }
    }

    #[test]
    fn speeds_stay_bounded() {
        let mut ring = RingRoad::new(7, 2_000.0, 100, IdmParams::default());
        for _ in 0..1_000 {
            ring.step(0.25);
            for v in &ring.speeds {
                assert!(*v >= 0.0 && *v <= IdmParams::default().v0 * 1.2);
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = settled(11, 50, 1_500.0, 60.0);
        let b = settled(11, 50, 1_500.0, 60.0);
        assert_eq!((a.positions, a.speeds), (b.positions, b.speeds));
    }

    #[test]
    #[should_panic(expected = "over-packed")]
    fn overpacked_ring_rejected() {
        RingRoad::new(1, 100.0, 50, IdmParams::default());
    }
}
