//! Open-loop synthetic workload for the serving tier
//! ([`ServeTier`](super::serve::ServeTier)): a diurnal (rush-hour
//! double-peak) arrival-rate curve thinned from a Poisson stream, Zipf-
//! distributed route popularity over millions of user ranks (each rank
//! maps to a sub-route of a city route pool plus a per-rank sample
//! budget), deterministic from a seed.

use super::service::RouteQuery;
use super::{random_od, shortest_route, RoadNetwork, SpeedProfiles};
use everest_workflow::seed::mix;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shortest sub-route the load generator synthesizes, edges.
pub(crate) const MIN_ROUTE_EDGES: usize = 4;

/// One open-loop arrival: a virtual timestamp and its query.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time, virtual microseconds from stream start.
    pub at_us: f64,
    /// The route query.
    pub query: RouteQuery,
}

/// The diurnal arrival-rate shape: a base load plus morning and evening
/// rush-hour peaks. Dimensionless; [`LoadGen::generate`] rescales it so
/// the *mean* over a day equals the offered rate.
pub(crate) fn diurnal_shape(hour: f64) -> f64 {
    let peak = |center: f64, width: f64| {
        let d = (hour - center) / width;
        (-d * d).exp()
    };
    0.30 + peak(8.5, 1.7) + 1.15 * peak(17.5, 2.1)
}

/// Mean and max of [`diurnal_shape`] over a day (fixed fine grid, so the
/// thinning envelope is a pure constant).
fn diurnal_stats() -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    const STEPS: usize = 960;
    for i in 0..STEPS {
        let s = diurnal_shape(24.0 * (i as f64 + 0.5) / STEPS as f64);
        sum += s;
        max = max.max(s);
    }
    (sum / STEPS as f64, max)
}

/// Deterministic open-loop workload generator: Poisson arrivals thinned
/// to the diurnal curve, Zipf route popularity over `users` ranks.
///
/// Every rank deterministically names a *route identity*: a contiguous
/// sub-route of a pooled city route plus a per-rank Monte-Carlo budget.
/// With the default 2²¹-rank population over a pool of base routes,
/// ranks × departure bins yield millions of distinct cache keys while
/// popular commutes stay heavily shared — the shape a city-scale cache
/// hierarchy actually serves.
#[derive(Debug, Clone)]
pub struct LoadGen {
    pool: Vec<Vec<usize>>,
    /// Zipf user-rank population (default 2²¹ ≈ 2.1 M).
    pub users: u64,
    /// Base Monte-Carlo budget; each rank adds a deterministic jitter of
    /// up to 15 × 8 samples.
    pub base_samples: usize,
    seed: u64,
    longest_route: usize,
}

impl LoadGen {
    /// A generator over `pool_routes` shortest-path commutes of
    /// `network`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics when the network yields no route of at least
    /// `MIN_ROUTE_EDGES` edges.
    pub fn new(
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        pool_routes: usize,
        seed: u64,
    ) -> LoadGen {
        let od = random_od(network, mix(seed), pool_routes * 3, 700.0);
        let pool: Vec<Vec<usize>> = od
            .iter()
            .filter_map(|pair| shortest_route(network, profiles, pair.from, pair.to, 8))
            .filter(|route| route.len() >= MIN_ROUTE_EDGES)
            .take(pool_routes)
            .collect();
        assert!(!pool.is_empty(), "network too sparse for a route pool");
        let longest_route = pool.iter().map(Vec::len).max().unwrap_or(MIN_ROUTE_EDGES);
        LoadGen { pool, users: 1 << 21, base_samples: 192, seed, longest_route }
    }

    /// Longest route the generator can emit, edges.
    pub fn longest_route_edges(&self) -> usize {
        self.longest_route
    }

    /// Largest Monte-Carlo budget the generator can emit.
    pub fn max_samples(&self) -> usize {
        self.base_samples + 15 * 8
    }

    /// The query of user `rank` departing at `depart_hour`: a suffix of
    /// a pooled route plus a per-rank sample budget, all pure in `rank`.
    pub fn query_for_rank(&self, rank: u64, depart_hour: f64) -> RouteQuery {
        let base = &self.pool[(rank % self.pool.len() as u64) as usize];
        let max_trim = (base.len() - MIN_ROUTE_EDGES) as u64;
        let scatter = mix(rank);
        let trim = if max_trim == 0 { 0 } else { (scatter % (max_trim + 1)) as usize };
        RouteQuery {
            route: base[trim..].to_vec(),
            depart_hour,
            samples: self.base_samples + ((scatter >> 32) % 16) as usize * 8,
        }
    }

    /// Generates one *day* of open-loop arrivals offering `offered_qps`
    /// mean queries/second for `duration_s` virtual seconds (the full
    /// diurnal curve is compressed into the duration), truncated at
    /// `max_queries`. Arrivals are strictly time-ordered and the whole
    /// stream is a pure function of `(seed, day)`: the same day replays
    /// bit-identically, while successive days draw fresh users from the
    /// same diurnal/Zipf distribution — the stream a warm serving tier
    /// actually faces, where popular commutes recur but individual
    /// queries do not.
    pub fn generate(
        &self,
        day: u64,
        offered_qps: f64,
        duration_s: f64,
        max_queries: usize,
    ) -> Vec<Arrival> {
        assert!(offered_qps > 0.0, "offered rate must be positive");
        assert!(duration_s > 0.0, "duration must be positive");
        let (shape_mean, shape_max) = diurnal_stats();
        let lambda_max = offered_qps * shape_max / shape_mean;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ mix(day));
        let mut out = Vec::new();
        let mut t = 0.0f64;
        while out.len() < max_queries {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() / lambda_max;
            if t >= duration_s {
                break;
            }
            let hour = t / duration_s * 24.0;
            // Thin the homogeneous stream down to the diurnal curve.
            let keep: f64 = rng.gen_range(0.0..1.0);
            if keep * shape_max > diurnal_shape(hour) {
                continue;
            }
            // Bounded Zipf(s=1) over `users` ranks by inverse CDF:
            // P(rank <= k) ~ ln(k+1)/ln(n+1), so rank = floor((n+1)^u).
            let zu: f64 = rng.gen_range(0.0..1.0);
            let rank = ((self.users as f64 + 1.0).powf(zu) as u64).clamp(1, self.users) - 1;
            out.push(Arrival { at_us: t * 1e6, query: self.query_for_rank(rank, hour) });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::generate_fcd;
    use super::super::service::{cache_key, CacheKey};
    use super::*;

    fn setup() -> (RoadNetwork, SpeedProfiles) {
        let net = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&net, 2, 40_000);
        let profiles = SpeedProfiles::learn(&net, &fcd);
        (net, profiles)
    }

    #[test]
    fn load_generator_is_deterministic_diurnal_and_zipfian() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 21);
        let a = gen.generate(0, 50_000.0, 0.4, 50_000);
        let b = gen.generate(0, 50_000.0, 0.4, 50_000);
        assert_eq!(a, b, "same seed and day must give the same stream");
        let next_day = gen.generate(1, 50_000.0, 0.4, 50_000);
        assert_ne!(a, next_day, "successive days must draw fresh arrivals");
        assert!(a.len() > 5_000, "rate x duration should land near 20k arrivals, got {}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us), "arrivals must be time-ordered");
        // Zipf skew: the single most popular route identity accounts
        // for a few percent of all traffic even over 2M ranks.
        use std::collections::{HashMap, HashSet};
        let mut by_route: HashMap<u64, usize> = HashMap::new();
        let mut keys: HashSet<CacheKey> = HashSet::new();
        for arr in &a {
            let key = cache_key(&arr.query.route, arr.query.depart_hour, arr.query.samples);
            *by_route.entry(key.route_hash).or_default() += 1;
            keys.insert(key);
        }
        let top = by_route.values().copied().max().unwrap();
        assert!(
            top * 50 > a.len(),
            "hottest route serves {top}/{} — popularity not heavy-tailed",
            a.len()
        );
        // Route × departure-bin × sample-budget fan-out: even this tiny
        // 8-route pool yields a long tail of distinct cache keys.
        assert!(keys.len() > 1_000, "only {} distinct cache keys", keys.len());
        // Diurnal: the evening rush quarter must out-arrive the night
        // quarter by a wide margin.
        let duration_us = 0.4e6;
        let quarter = |lo: f64, hi: f64| {
            a.iter().filter(|x| x.at_us >= lo * duration_us && x.at_us < hi * duration_us).count()
        };
        let night = quarter(0.0, 0.25); // hours 0..6
        let evening = quarter(0.625, 0.875); // hours 15..21
        assert!(evening > night * 2, "evening rush {evening} vs night {night}");
    }
}
