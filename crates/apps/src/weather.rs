//! Use case VI-A: weather-based prediction for renewable-energy trading.
//!
//! "Renewable energy production forecasting systems currently rely on an
//! ensemble of meteorological predictions provided by global circulation
//! models with grid spacing between 15 and 25 km and hourly temporal
//! resolution ... EVEREST \[will\] increase the resolution of weather
//! forecast ensembles to better predict high-localized meteorological
//! variations" and "forecast the energy produced by a wind farm in the
//! next day with a 24-hour prediction on a hourly basis".
//!
//! Substitution: real NWP ensembles are proprietary; we synthesize a
//! high-resolution "truth" wind field with realistic spatial smoothness
//! and a diurnal cycle, derive coarse ensembles from it (block-averaging +
//! member perturbations), and evaluate the forecast pipeline end to end.

use crate::mlp::Mlp;
use crate::synthetic::{diurnal_profile, smooth_field, Grid2d};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Hours in the day-ahead forecast window.
pub(crate) const HOURS: usize = 24;

/// A 24-hour sequence of wind-speed fields (m/s) at some resolution.
#[derive(Debug, Clone)]
pub struct WindSeries {
    /// Hourly fields.
    pub hourly: Vec<Grid2d>,
    /// Grid spacing in km.
    pub resolution_km: f64,
}

/// Generates the synthetic ground-truth wind field: `domain_km` square at
/// `resolution_km` spacing, hourly, with a diurnal breeze cycle and
/// small-scale evolution.
pub fn generate_truth(seed: u64, domain_km: f64, resolution_km: f64) -> WindSeries {
    let n = (domain_km / resolution_km).round().max(2.0) as usize;
    let cycle = diurnal_profile(seed ^ 0x5eed, 8.0, 3.0, 15.0, 0.0);
    let mut hourly = Vec::with_capacity(HOURS);
    for h in 0..HOURS {
        // The spatial pattern evolves slowly: blend two seeded fields.
        let a = smooth_field(seed.wrapping_add(h as u64 / 6), n, n, 0.0, 1.0, 4);
        let b = smooth_field(seed.wrapping_add(h as u64 / 6 + 1), n, n, 0.0, 1.0, 4);
        let t = (h % 6) as f64 / 6.0;
        let mut field = Grid2d::zeros(n, n);
        for y in 0..n {
            for x in 0..n {
                let blended = a.at(x, y) * (1.0 - t) + b.at(x, y) * t;
                // Scale pattern into m/s around the diurnal mean.
                field.set(x, y, (cycle[h] * (0.6 + 0.8 * blended)).max(0.0));
            }
        }
        hourly.push(field);
    }
    WindSeries { hourly, resolution_km }
}

/// Block-averages a fine field down to `n` x `n`.
fn coarsen(fine: &Grid2d, n: usize) -> Grid2d {
    let mut coarse = Grid2d::zeros(n, n);
    let fx = fine.nx as f64 / n as f64;
    let fy = fine.ny as f64 / n as f64;
    for cy in 0..n {
        for cx in 0..n {
            let (x0, x1) =
                ((cx as f64 * fx) as usize, (((cx + 1) as f64 * fx) as usize).min(fine.nx));
            let (y0, y1) =
                ((cy as f64 * fy) as usize, (((cy + 1) as f64 * fy) as usize).min(fine.ny));
            let mut sum = 0.0;
            let mut count = 0.0;
            for y in y0..y1.max(y0 + 1) {
                for x in x0..x1.max(x0 + 1) {
                    sum += fine.at(x.min(fine.nx - 1), y.min(fine.ny - 1));
                    count += 1.0;
                }
            }
            coarse.set(cx, cy, sum / count);
        }
    }
    coarse
}

/// An ensemble of perturbed coarse forecasts derived from the truth.
#[derive(Debug, Clone)]
pub(crate) struct Ensemble {
    /// Member forecasts (all at the same coarse resolution).
    pub members: Vec<WindSeries>,
}

impl Ensemble {
    /// Builds a `members`-strong ensemble at `resolution_km` from the
    /// fine-resolution `truth`: block-average then add member-specific
    /// correlated errors (bias + amplitude).
    ///
    /// # Panics
    ///
    /// Panics if `resolution_km` is coarser than the whole domain or
    /// `members == 0`.
    pub(crate) fn from_truth(
        truth: &WindSeries,
        resolution_km: f64,
        members: usize,
        seed: u64,
    ) -> Ensemble {
        assert!(members > 0, "ensemble needs members");
        let domain_km = truth.hourly[0].nx as f64 * truth.resolution_km;
        let n = (domain_km / resolution_km).round().max(1.0) as usize;
        assert!(n >= 1, "resolution coarser than domain");
        let mut out = Vec::with_capacity(members);
        for member in 0..members as u64 {
            // Member characteristics come from a stream that does not
            // depend on the grid size, so the *same* physical ensemble is
            // compared across resolutions (only the sampling differs).
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(member));
            let bias: f64 = rng.gen_range(-0.8..0.8);
            let gain: f64 = rng.gen_range(0.85..1.15);
            let hourly = truth
                .hourly
                .iter()
                .map(|fine| {
                    let mut c = coarsen(fine, n);
                    for y in 0..c.ny {
                        for x in 0..c.nx {
                            let noisy =
                                (c.at(x, y) * gain + bias + rng.gen_range(-0.4..0.4)).max(0.0);
                            c.set(x, y, noisy);
                        }
                    }
                    c
                })
                .collect();
            out.push(WindSeries { hourly, resolution_km });
        }
        Ensemble { members: out }
    }
}

/// A wind farm: turbine positions on the truth grid plus rated power.
#[derive(Debug, Clone)]
pub struct WindFarm {
    /// Turbine coordinates in truth-grid cells.
    pub turbines: Vec<(f64, f64)>,
    /// Rated power per turbine, MW.
    pub rated_mw: f64,
}

impl WindFarm {
    /// A clustered farm of `n` turbines around the domain centre.
    pub(crate) fn clustered(seed: u64, n: usize, grid_n: usize) -> WindFarm {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let c = grid_n as f64 / 2.0;
        let spread = grid_n as f64 / 6.0;
        let turbines = (0..n)
            .map(|_| {
                (
                    (c + rng.gen_range(-spread..spread)).clamp(0.0, (grid_n - 1) as f64),
                    (c + rng.gen_range(-spread..spread)).clamp(0.0, (grid_n - 1) as f64),
                )
            })
            .collect();
        WindFarm { turbines, rated_mw: 3.0 }
    }

    /// IEC-style power curve: 0 below cut-in (3 m/s), cubic ramp to rated
    /// (12 m/s), flat to cut-out (25 m/s), then 0.
    pub fn power_fraction(wind_ms: f64) -> f64 {
        const CUT_IN: f64 = 3.0;
        const RATED: f64 = 12.0;
        const CUT_OUT: f64 = 25.0;
        if !(CUT_IN..CUT_OUT).contains(&wind_ms) {
            0.0
        } else if wind_ms >= RATED {
            1.0
        } else {
            let x = (wind_ms.powi(3) - CUT_IN.powi(3)) / (RATED.powi(3) - CUT_IN.powi(3));
            x.clamp(0.0, 1.0)
        }
    }

    /// Farm output in MW for one wind field (sampled at each turbine).
    pub(crate) fn power_mw(&self, field: &Grid2d) -> f64 {
        self.turbines
            .iter()
            .map(|(x, y)| Self::power_fraction(field.sample(*x, *y)) * self.rated_mw)
            .sum()
    }

    /// Hourly farm output for a full series.
    pub(crate) fn hourly_power_mw(&self, series: &WindSeries) -> Vec<f64> {
        series.hourly.iter().map(|f| self.power_mw(f)).collect()
    }
}

/// Day-ahead forecast evaluation: per-hour predicted vs actual power.
#[derive(Debug, Clone)]
pub struct ForecastReport {
    /// Predicted MW per hour.
    pub predicted_mw: Vec<f64>,
    /// Actual MW per hour.
    pub actual_mw: Vec<f64>,
}

impl ForecastReport {
    /// Root-mean-square error in MW.
    pub fn rmse_mw(&self) -> f64 {
        let n = self.predicted_mw.len() as f64;
        let sum: f64 =
            self.predicted_mw.iter().zip(&self.actual_mw).map(|(p, a)| (p - a) * (p - a)).sum();
        (sum / n).sqrt()
    }

    /// Imbalance cost: €/MWh penalty per MWh of absolute deviation
    /// ("reducing the cost of imbalance" is the use case's business goal).
    pub fn imbalance_cost_eur(&self, penalty_eur_per_mwh: f64) -> f64 {
        self.predicted_mw
            .iter()
            .zip(&self.actual_mw)
            .map(|(p, a)| (p - a).abs() * penalty_eur_per_mwh)
            .sum()
    }
}

/// Forecasts day-ahead farm power by averaging per-member power (the
/// standard ensemble approach).
pub(crate) fn ensemble_power_forecast(
    ensemble: &Ensemble,
    farm: &WindFarm,
    truth_nx: usize,
) -> Vec<f64> {
    let mut out = vec![0.0; HOURS];
    for member in &ensemble.members {
        let n = member.hourly[0].nx;
        let scale = n as f64 / truth_nx as f64;
        for (h, field) in member.hourly.iter().enumerate() {
            let p: f64 = farm
                .turbines
                .iter()
                .map(|(x, y)| {
                    WindFarm::power_fraction(field.sample(x * scale, y * scale)) * farm.rated_mw
                })
                .sum();
            out[h] += p;
        }
    }
    for v in &mut out {
        *v /= ensemble.members.len() as f64;
    }
    out
}

/// Runs the full pipeline at one ensemble resolution and reports accuracy.
pub fn evaluate_resolution(
    seed: u64,
    domain_km: f64,
    truth_res_km: f64,
    ensemble_res_km: f64,
    members: usize,
) -> ForecastReport {
    let truth = generate_truth(seed, domain_km, truth_res_km);
    let grid_n = truth.hourly[0].nx;
    let farm = WindFarm::clustered(seed ^ 0xfa53, 12, grid_n);
    let ensemble = Ensemble::from_truth(&truth, ensemble_res_km, members, seed ^ 0xe5);
    ForecastReport {
        predicted_mw: ensemble_power_forecast(&ensemble, &farm, grid_n),
        actual_mw: farm.hourly_power_mw(&truth),
    }
}

/// Trains an MLP corrector on historical days and applies it to a new day
/// ("thanks to AI tools, we will combine the resulting weather models with
/// historical data"). Returns (raw, corrected) reports for the test day.
pub fn mlp_corrected_forecast(
    seed: u64,
    training_days: usize,
    ensemble_res_km: f64,
) -> (ForecastReport, ForecastReport) {
    let domain_km = 50.0;
    let truth_res = 2.0;
    // Larger ensembles suppress the random member bias so the *systematic*
    // error (coarse averaging through the convex power curve) dominates —
    // that is the signal the corrector learns.
    let members = 12;
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for day in 0..training_days as u64 {
        let report =
            evaluate_resolution(seed + day, domain_km, truth_res, ensemble_res_km, members);
        for h in 0..HOURS {
            inputs.push(vec![report.predicted_mw[h] / 40.0, h as f64 / 24.0]);
            targets.push(vec![report.actual_mw[h] / 40.0]);
        }
    }
    let mut net = Mlp::new(seed, &[2, 12, 1]);
    net.fit(&inputs, &targets, 300, 0.03);

    let test = evaluate_resolution(seed + 10_000, domain_km, truth_res, ensemble_res_km, members);
    let corrected: Vec<f64> = test
        .predicted_mw
        .iter()
        .enumerate()
        .map(|(h, p)| (net.predict(&[p / 40.0, h as f64 / 24.0])[0] * 40.0).max(0.0))
        .collect();
    let corrected_report =
        ForecastReport { predicted_mw: corrected, actual_mw: test.actual_mw.clone() };
    (test, corrected_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_has_diurnal_structure() {
        let truth = generate_truth(1, 50.0, 2.0);
        assert_eq!(truth.hourly.len(), HOURS);
        assert_eq!(truth.hourly[0].nx, 25);
        let afternoon = truth.hourly[15].mean();
        let night = truth.hourly[3].mean();
        assert!(afternoon > night, "afternoon breeze {afternoon} vs night {night}");
    }

    #[test]
    fn power_curve_shape() {
        assert_eq!(WindFarm::power_fraction(1.0), 0.0);
        assert_eq!(WindFarm::power_fraction(30.0), 0.0);
        assert_eq!(WindFarm::power_fraction(15.0), 1.0);
        let half = WindFarm::power_fraction(8.0);
        assert!(half > 0.1 && half < 0.9);
        // Monotone between cut-in and rated.
        assert!(WindFarm::power_fraction(6.0) < WindFarm::power_fraction(9.0));
    }

    #[test]
    fn finer_ensembles_forecast_better() {
        // Paper claim: higher-resolution ensembles better capture localized
        // variations. Sweep 25 km -> 3 km and expect RMSE to shrink.
        let coarse = evaluate_resolution(7, 100.0, 2.0, 25.0, 5);
        let fine = evaluate_resolution(7, 100.0, 2.0, 3.0, 5);
        assert!(
            fine.rmse_mw() < coarse.rmse_mw(),
            "fine {} vs coarse {}",
            fine.rmse_mw(),
            coarse.rmse_mw()
        );
    }

    #[test]
    fn imbalance_cost_tracks_rmse() {
        let report = evaluate_resolution(3, 50.0, 2.0, 12.0, 5);
        assert!(report.imbalance_cost_eur(50.0) > 0.0);
        let perfect = ForecastReport {
            predicted_mw: report.actual_mw.clone(),
            actual_mw: report.actual_mw.clone(),
        };
        assert_eq!(perfect.imbalance_cost_eur(50.0), 0.0);
        assert_eq!(perfect.rmse_mw(), 0.0);
    }

    #[test]
    fn more_members_reduce_noise() {
        let few = evaluate_resolution(11, 50.0, 2.0, 10.0, 2);
        let many = evaluate_resolution(11, 50.0, 2.0, 10.0, 16);
        // Not guaranteed per-seed, but with matched seeds the ensemble mean
        // should not get worse by a large margin.
        assert!(many.rmse_mw() <= few.rmse_mw() * 1.2);
    }

    #[test]
    fn mlp_correction_helps() {
        let (raw, corrected) = mlp_corrected_forecast(5, 20, 20.0);
        assert!(
            corrected.rmse_mw() < raw.rmse_mw(),
            "corrected {} vs raw {}",
            corrected.rmse_mw(),
            raw.rmse_mw()
        );
    }

    #[test]
    fn ensemble_is_reproducible() {
        let t = generate_truth(9, 40.0, 2.0);
        let a = Ensemble::from_truth(&t, 10.0, 3, 1);
        let b = Ensemble::from_truth(&t, 10.0, 3, 1);
        assert_eq!(a.members[0].hourly[0], b.members[0].hourly[0]);
    }
}
