//! Use case VI-B: air-quality monitoring of industrial sites.
//!
//! Plum'air "aims at forecasting the environmental impacts due to
//! atmospheric releases of an industrial site at local scale (within 10 km
//! from emission sources)" so the plant "can promptly delay production
//! activities ... or activate emission reduction treatments".
//!
//! Substitution: real emission inventories are proprietary; we implement
//! the standard **Gaussian plume** dispersion model with Pasquill-Gifford
//! stability classes over synthetic stacks, which is exactly the model
//! class such services run operationally.

use crate::synthetic::Grid2d;

/// Pasquill-Gifford atmospheric stability classes (A = very unstable,
/// F = very stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stability {
    /// Very unstable (strong daytime convection).
    A,
    /// Unstable.
    B,
    /// Slightly unstable.
    C,
    /// Neutral.
    D,
    /// Stable.
    E,
    /// Very stable (clear night, low wind).
    F,
}

/// Briggs rural coefficients in the unified form
/// `σy = ay·x / sqrt(1 + cy·x)` and
/// `σz = az·x / (sqrt(1 + cs·x) · (1 + cl·x))` — one branch-free formula
/// covering all six classes (absent factors have a zero coefficient),
/// which is what lets the grid kernel hoist the class dispatch out of
/// its inner loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Briggs {
    ay: f64,
    cy: f64,
    az: f64,
    cs: f64,
    cl: f64,
}

impl Briggs {
    /// `(σy, σz)` at downwind distance `x` metres (callers clamp `x`).
    #[inline]
    fn sigmas(&self, x: f64) -> (f64, f64) {
        let sy = self.ay * x / (1.0 + self.cy * x).sqrt();
        let sz = self.az * x / ((1.0 + self.cs * x).sqrt() * (1.0 + self.cl * x));
        (sy, sz)
    }
}

impl Stability {
    fn briggs(&self) -> Briggs {
        let b = |ay, az, cs, cl| Briggs { ay, cy: 0.0001, az, cs, cl };
        match self {
            Stability::A => b(0.22, 0.20, 0.0, 0.0),
            Stability::B => b(0.16, 0.12, 0.0, 0.0),
            Stability::C => b(0.11, 0.08, 0.0002, 0.0),
            Stability::D => b(0.08, 0.06, 0.0015, 0.0),
            Stability::E => b(0.06, 0.03, 0.0, 0.0003),
            Stability::F => b(0.04, 0.016, 0.0, 0.0003),
        }
    }

    /// Briggs rural dispersion coefficients: returns (σy, σz) in metres at
    /// downwind distance `x_m` (metres).
    pub(crate) fn sigmas(&self, x_m: f64) -> (f64, f64) {
        self.briggs().sigmas(x_m.max(1.0))
    }
}

/// A pollutant point source (stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stack {
    /// Position in metres (domain coordinates).
    pub x_m: f64,
    /// Position in metres.
    pub y_m: f64,
    /// Emission rate, grams per second.
    pub emission_g_s: f64,
    /// Effective release height, metres.
    pub height_m: f64,
}

/// Meteorological forcing for one forecast step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Meteo {
    /// Wind speed at stack height, m/s.
    pub wind_ms: f64,
    /// Wind direction in radians (0 = +x, counter-clockwise).
    pub wind_dir_rad: f64,
    /// Stability class.
    pub stability: Stability,
}

/// The plume model over a square domain.
#[derive(Debug, Clone)]
pub struct PlumeModel {
    /// Domain edge, metres (≤ 10 km per the use case).
    pub domain_m: f64,
    /// Grid cells per edge.
    pub cells: usize,
    /// Emission sources.
    pub stacks: Vec<Stack>,
}

impl PlumeModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if the domain or cell count is zero.
    pub(crate) fn new(domain_m: f64, cells: usize, stacks: Vec<Stack>) -> PlumeModel {
        assert!(domain_m > 0.0 && cells > 1, "invalid domain");
        PlumeModel { domain_m, cells, stacks }
    }

    /// Ground-level concentration (µg/m³) of one stack at receptor
    /// `(rx, ry)` metres under `met`.
    pub(crate) fn stack_concentration(stack: &Stack, met: &Meteo, rx: f64, ry: f64) -> f64 {
        // Rotate into plume coordinates: x downwind, y crosswind.
        let dx = rx - stack.x_m;
        let dy = ry - stack.y_m;
        let cosd = met.wind_dir_rad.cos();
        let sind = met.wind_dir_rad.sin();
        let downwind = dx * cosd + dy * sind;
        let crosswind = -dx * sind + dy * cosd;
        if downwind <= 1.0 {
            return 0.0; // no upwind dispersion in the steady-state model
        }
        let (sy, sz) = met.stability.sigmas(downwind);
        let u = met.wind_ms.max(0.5);
        let q = stack.emission_g_s * 1e6; // µg/s
        let h = stack.height_m;
        let base = q / (2.0 * std::f64::consts::PI * u * sy * sz);
        let lateral = (-crosswind * crosswind / (2.0 * sy * sy)).exp();
        // Ground-level with full reflection: z = 0.
        let vertical = 2.0 * (-h * h / (2.0 * sz * sz)).exp();
        base * lateral * vertical
    }

    /// Scalar reference for the concentration grid: sums
    /// `PlumeModel::stack_concentration` (libm `exp`) per receptor.
    /// The vectorized [`PlumeModel::concentration_grid`] is parity-tested
    /// against this at 1e-6.
    pub fn concentration_grid_scalar(&self, met: &Meteo) -> Grid2d {
        let mut grid = Grid2d::zeros(self.cells, self.cells);
        let step = self.domain_m / self.cells as f64;
        for gy in 0..self.cells {
            for gx in 0..self.cells {
                let rx = (gx as f64 + 0.5) * step;
                let ry = (gy as f64 + 0.5) * step;
                let c: f64 =
                    self.stacks.iter().map(|s| Self::stack_concentration(s, met, rx, ry)).sum();
                grid.set(gx, gy, c);
            }
        }
        grid
    }

    /// Computes the ground-level concentration grid (µg/m³).
    ///
    /// Vectorized hot path: per grid row and stack, all per-stack and
    /// per-row constants (rotation, Briggs coefficients, emission scale,
    /// the `dy` term of the rotation) are hoisted, and the inner loop
    /// over receptor columns runs branch-free in 8-lane chunks — the
    /// upwind cutoff becomes a multiply by a 0/1 mask and `exp` is the
    /// polynomial [`everest_ir::simd::exp_approx`] (~1e-12 relative).
    pub fn concentration_grid(&self, met: &Meteo) -> Grid2d {
        use everest_ir::simd::{exp_approx, LANES};
        let mut grid = Grid2d::zeros(self.cells, self.cells);
        let cells = self.cells;
        let step = self.domain_m / cells as f64;
        let cosd = met.wind_dir_rad.cos();
        let sind = met.wind_dir_rad.sin();
        let briggs = met.stability.briggs();
        let u = met.wind_ms.max(0.5);
        let data = grid.as_mut_slice();
        for stack in &self.stacks {
            let q = stack.emission_g_s * 1e6; // µg/s
            let h2 = stack.height_m * stack.height_m;
            let scale = q / (2.0 * std::f64::consts::PI * u);
            for gy in 0..cells {
                let ry = (gy as f64 + 0.5) * step;
                let dy = ry - stack.y_m;
                // Per-row pieces of the plume-coordinate rotation: the
                // column terms below add the dx contribution lane-wise.
                let down_row = dy * sind - stack.x_m * cosd;
                let cross_row = dy * cosd + stack.x_m * sind;
                let row = &mut data[gy * cells..(gy + 1) * cells];
                let one = |gx: usize| {
                    let rx = (gx as f64 + 0.5) * step;
                    let downwind = rx * cosd + down_row;
                    let crosswind = -rx * sind + cross_row;
                    let mask = if downwind > 1.0 { 1.0 } else { 0.0 };
                    let x = downwind.max(1.0);
                    let (sy, sz) = briggs.sigmas(x);
                    let base = scale / (sy * sz);
                    let lateral = exp_approx(-crosswind * crosswind / (2.0 * sy * sy));
                    let vertical = 2.0 * exp_approx(-h2 / (2.0 * sz * sz));
                    mask * base * lateral * vertical
                };
                let mut gx = 0;
                while gx + LANES <= cells {
                    let mut acc = [0.0f64; LANES];
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a = one(gx + l);
                    }
                    for (slot, a) in row[gx..gx + LANES].iter_mut().zip(acc) {
                        *slot += a;
                    }
                    gx += LANES;
                }
                for gx in gx..cells {
                    row[gx] += one(gx);
                }
            }
        }
        grid
    }

    /// Fraction of the domain exceeding `threshold` µg/m³ and the peak
    /// concentration.
    pub fn exceedance(&self, met: &Meteo, threshold: f64) -> (f64, f64) {
        let grid = self.concentration_grid(met);
        let over = grid.as_slice().iter().filter(|c| **c > threshold).count();
        (over as f64 / (self.cells * self.cells) as f64, grid.max())
    }

    /// The operational decision the service supports: should production be
    /// delayed for the forecast meteo sequence? Returns the hours whose
    /// peak exceeds the limit.
    pub fn delay_hours(&self, forecast: &[Meteo], limit: f64) -> Vec<usize> {
        forecast
            .iter()
            .enumerate()
            .filter(|(_, met)| self.exceedance(met, limit).1 > limit)
            .map(|(h, _)| h)
            .collect()
    }
}

/// A representative two-stack industrial site on a 10-km domain.
pub fn reference_site(cells: usize) -> PlumeModel {
    PlumeModel::new(
        10_000.0,
        cells,
        vec![
            Stack { x_m: 2_000.0, y_m: 5_000.0, emission_g_s: 80.0, height_m: 50.0 },
            Stack { x_m: 2_500.0, y_m: 5_400.0, emission_g_s: 40.0, height_m: 30.0 },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn met(wind: f64, dir: f64, stab: Stability) -> Meteo {
        Meteo { wind_ms: wind, wind_dir_rad: dir, stability: stab }
    }

    #[test]
    fn no_concentration_upwind() {
        let s = Stack { x_m: 5_000.0, y_m: 5_000.0, emission_g_s: 100.0, height_m: 20.0 };
        let m = met(5.0, 0.0, Stability::D);
        assert_eq!(PlumeModel::stack_concentration(&s, &m, 4_000.0, 5_000.0), 0.0);
        assert!(PlumeModel::stack_concentration(&s, &m, 6_000.0, 5_000.0) > 0.0);
    }

    #[test]
    fn concentration_decays_off_axis() {
        let s = Stack { x_m: 0.0, y_m: 5_000.0, emission_g_s: 100.0, height_m: 20.0 };
        let m = met(5.0, 0.0, Stability::D);
        let on_axis = PlumeModel::stack_concentration(&s, &m, 2_000.0, 5_000.0);
        let off_axis = PlumeModel::stack_concentration(&s, &m, 2_000.0, 5_600.0);
        assert!(on_axis > 10.0 * off_axis, "on {on_axis} vs off {off_axis}");
    }

    #[test]
    fn stronger_wind_dilutes() {
        let s = Stack { x_m: 0.0, y_m: 0.0, emission_g_s: 100.0, height_m: 10.0 };
        let calm = PlumeModel::stack_concentration(&s, &met(2.0, 0.0, Stability::D), 1_500.0, 0.0);
        let windy =
            PlumeModel::stack_concentration(&s, &met(10.0, 0.0, Stability::D), 1_500.0, 0.0);
        assert!(calm > windy);
    }

    #[test]
    fn stable_atmosphere_keeps_plume_concentrated() {
        let s = Stack { x_m: 0.0, y_m: 0.0, emission_g_s: 100.0, height_m: 10.0 };
        let unstable =
            PlumeModel::stack_concentration(&s, &met(4.0, 0.0, Stability::A), 3_000.0, 0.0);
        let stable =
            PlumeModel::stack_concentration(&s, &met(4.0, 0.0, Stability::F), 3_000.0, 0.0);
        assert!(stable > unstable, "stable {stable} vs unstable {unstable}");
    }

    #[test]
    fn wind_direction_rotates_plume() {
        let model = reference_site(40);
        let east = model.concentration_grid(&met(5.0, 0.0, Stability::C));
        let north = model.concentration_grid(&met(5.0, std::f64::consts::FRAC_PI_2, Stability::C));
        // Receptor straight east of the stacks.
        let step = model.domain_m / model.cells as f64;
        let (ex, ey) = (((7_000.0 / step) as usize).min(39), ((5_000.0 / step) as usize).min(39));
        assert!(east.at(ex, ey) > north.at(ex, ey));
    }

    #[test]
    fn exceedance_fraction_behaves() {
        let model = reference_site(32);
        let m = met(3.0, 0.0, Stability::B);
        let (frac_low, peak) = model.exceedance(&m, 0.1);
        let (frac_high, _) = model.exceedance(&m, peak * 2.0);
        assert!(frac_low > 0.0);
        assert_eq!(frac_high, 0.0);
    }

    #[test]
    fn delay_decision_follows_meteo() {
        let model = reference_site(24);
        // Night: stable, light wind (bad dispersion). Day: unstable, windy.
        let forecast = vec![
            met(1.5, 0.0, Stability::F),
            met(1.5, 0.0, Stability::F),
            met(6.0, 0.0, Stability::B),
            met(8.0, 0.0, Stability::A),
        ];
        // Pick a limit between the calm-night peak and the windy-day peak.
        let night_peak = model.exceedance(&forecast[0], 0.0).1;
        let day_peak = model.exceedance(&forecast[3], 0.0).1;
        assert!(night_peak > day_peak);
        let limit = day_peak * 2.0;
        let hours = model.delay_hours(&forecast, limit);
        assert!(hours.contains(&0) && hours.contains(&1));
        assert!(!hours.contains(&3));
    }

    #[test]
    fn vectorized_grid_matches_scalar_reference_at_1e6() {
        let model = reference_site(53); // deliberately not a multiple of 8
        for met in [
            met(3.0, 0.3, Stability::A),
            met(5.0, 2.1, Stability::C),
            met(1.5, -0.7, Stability::F),
            met(8.0, std::f64::consts::PI, Stability::D),
        ] {
            let fast = model.concentration_grid(&met);
            let exact = model.concentration_grid_scalar(&met);
            let peak = exact.max().max(1e-30);
            for (i, (f, e)) in fast.as_slice().iter().zip(exact.as_slice()).enumerate() {
                let tol = 1e-6 * (1.0 + peak);
                assert!((f - e).abs() <= tol, "cell {i}: {f} vs {e} (peak {peak})");
            }
        }
    }

    #[test]
    fn grid_resolution_refines_peak_estimate() {
        let coarse = reference_site(16);
        let fine = reference_site(96);
        let m = met(3.0, 0.3, Stability::C);
        let peak_coarse = coarse.exceedance(&m, 0.0).1;
        let peak_fine = fine.exceedance(&m, 0.0).1;
        // Finer grids resolve the narrow plume core: peak must not shrink.
        assert!(peak_fine >= peak_coarse);
    }
}
