//! Seeded synthetic-data primitives: smooth random 2-D fields (summed
//! randomized harmonics) and diurnal time profiles. Everything is
//! deterministic in the seed so experiments reproduce bit-for-bit.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A dense row-major 2-D grid of `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    /// Number of columns.
    pub nx: usize,
    /// Number of rows.
    pub ny: usize,
    data: Vec<f64>,
}

impl Grid2d {
    /// Creates a zero-filled grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(nx: usize, ny: usize) -> Grid2d {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        Grid2d { nx, ny, data: vec![0.0; nx * ny] }
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub(crate) fn at(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.nx && y < self.ny, "grid index out of bounds");
        self.data[y * self.nx + x]
    }

    /// Sets the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub(crate) fn set(&mut self, x: usize, y: usize, v: f64) {
        assert!(x < self.nx && y < self.ny, "grid index out of bounds");
        self.data[y * self.nx + x] = v;
    }

    /// Immutable access to the raw samples (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw samples (row-major).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Bilinear sample at fractional coordinates (clamped to the border).
    pub(crate) fn sample(&self, fx: f64, fy: f64) -> f64 {
        let fx = fx.clamp(0.0, (self.nx - 1) as f64);
        let fy = fy.clamp(0.0, (self.ny - 1) as f64);
        let (x0, y0) = (fx.floor() as usize, fy.floor() as usize);
        let (x1, y1) = ((x0 + 1).min(self.nx - 1), (y0 + 1).min(self.ny - 1));
        let (tx, ty) = (fx - x0 as f64, fy - y0 as f64);
        let a = self.at(x0, y0) * (1.0 - tx) + self.at(x1, y0) * tx;
        let b = self.at(x0, y1) * (1.0 - tx) + self.at(x1, y1) * tx;
        a * (1.0 - ty) + b * ty
    }
}

/// Generates a smooth random field in `[lo, hi]` by summing `octaves`
/// randomized harmonics: low frequencies dominate, like real
/// meteorological fields.
pub(crate) fn smooth_field(
    seed: u64,
    nx: usize,
    ny: usize,
    lo: f64,
    hi: f64,
    octaves: u32,
) -> Grid2d {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut grid = Grid2d::zeros(nx, ny);
    let mut components = Vec::new();
    for o in 0..octaves.max(1) {
        let freq = 2.0f64.powi(o as i32);
        let amp = 1.0 / freq;
        let kx = rng.gen_range(0.5..2.0) * freq * std::f64::consts::TAU / nx as f64;
        let ky = rng.gen_range(0.5..2.0) * freq * std::f64::consts::TAU / ny as f64;
        let phase_x: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let phase_y: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        components.push((amp, kx, ky, phase_x, phase_y));
    }
    let mut min_v = f64::INFINITY;
    let mut max_v = f64::NEG_INFINITY;
    for y in 0..ny {
        for x in 0..nx {
            let mut v = 0.0;
            for (amp, kx, ky, px, py) in &components {
                v += amp * ((x as f64 * kx + px).sin() + (y as f64 * ky + py).cos());
            }
            grid.set(x, y, v);
            min_v = min_v.min(v);
            max_v = max_v.max(v);
        }
    }
    // Normalize into [lo, hi].
    let span = (max_v - min_v).max(1e-12);
    for v in &mut grid.data {
        *v = lo + (hi - lo) * (*v - min_v) / span;
    }
    grid
}

/// A 24-hour diurnal profile: `base + amplitude * sin(peak-centred)` with
/// optional seeded jitter, sampled hourly.
pub(crate) fn diurnal_profile(
    seed: u64,
    base: f64,
    amplitude: f64,
    peak_hour: f64,
    jitter: f64,
) -> [f64; 24] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = [0.0; 24];
    for (h, slot) in out.iter_mut().enumerate() {
        let phase = (h as f64 - peak_hour) / 24.0 * std::f64::consts::TAU;
        let noise: f64 = if jitter > 0.0 { rng.gen_range(-jitter..jitter) } else { 0.0 };
        *slot = base + amplitude * phase.cos() + noise;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_basics() {
        let mut g = Grid2d::zeros(4, 3);
        g.set(2, 1, 5.0);
        assert_eq!(g.at(2, 1), 5.0);
        assert_eq!(g.as_slice().len(), 12);
        assert!((g.mean() - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(g.max(), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grid_bounds_checked() {
        Grid2d::zeros(2, 2).at(2, 0);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut g = Grid2d::zeros(2, 2);
        g.set(0, 0, 0.0);
        g.set(1, 0, 10.0);
        g.set(0, 1, 20.0);
        g.set(1, 1, 30.0);
        assert!((g.sample(0.5, 0.0) - 5.0).abs() < 1e-12);
        assert!((g.sample(0.0, 0.5) - 10.0).abs() < 1e-12);
        assert!((g.sample(0.5, 0.5) - 15.0).abs() < 1e-12);
        // Clamped outside.
        assert_eq!(g.sample(-5.0, -5.0), 0.0);
    }

    #[test]
    fn smooth_field_respects_bounds_and_seed() {
        let a = smooth_field(1, 32, 32, -5.0, 40.0, 4);
        let b = smooth_field(1, 32, 32, -5.0, 40.0, 4);
        let c = smooth_field(2, 32, 32, -5.0, 40.0, 4);
        assert_eq!(a, b, "same seed reproduces");
        assert_ne!(a, c, "different seed differs");
        for v in a.as_slice() {
            assert!((-5.0..=40.0).contains(v));
        }
    }

    #[test]
    fn smooth_field_is_smooth() {
        let g = smooth_field(3, 64, 64, 0.0, 1.0, 3);
        // Neighbouring samples differ far less than the full range.
        let mut max_step: f64 = 0.0;
        for y in 0..64 {
            for x in 1..64 {
                max_step = max_step.max((g.at(x, y) - g.at(x - 1, y)).abs());
            }
        }
        assert!(max_step < 0.35, "max neighbour step {max_step}");
    }

    #[test]
    fn diurnal_profile_peaks_near_requested_hour() {
        let p = diurnal_profile(5, 10.0, 4.0, 14.0, 0.0);
        let peak = p.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(h, _)| h).unwrap();
        assert_eq!(peak, 14);
        assert!(p.iter().all(|v| (6.0..=14.0).contains(v)));
    }
}
