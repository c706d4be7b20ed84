//! Use case VI-C: traffic modeling for intelligent transportation.
//!
//! The paper's ecosystem combines "reading big sensory data" (floating car
//! data, FCD), "a traffic simulator which boosts the raw sensory data
//! dataset into rich training sequences", "a traffic prediction model",
//! and "route calculation as a service exploiting \[the\] traffic prediction
//! model" — with probabilistic time-dependent routing (PTDR, ref \[37\])
//! computed by Monte-Carlo sampling.
//!
//! Substitution: Sygic's FCD (millions of devices) is proprietary; we
//! generate synthetic FCD over synthetic road networks with realistic
//! rush-hour congestion and heavy-tailed speed noise.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;

mod lru;
mod ring;
pub mod serve;
pub mod service;

/// Hour bins per day for the speed profiles.
pub(crate) const HOUR_BINS: usize = 24;

/// A directed road segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Length in km.
    pub length_km: f64,
    /// Free-flow speed, km/h.
    pub free_speed_kmh: f64,
    /// Capacity, vehicles/hour.
    pub capacity_veh_h: f64,
}

/// A directed road network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoadNetwork {
    /// Node positions (km coordinates), for distance heuristics.
    pub nodes: Vec<(f64, f64)>,
    /// Directed edges.
    pub edges: Vec<Edge>,
}

impl RoadNetwork {
    /// Generates an `n` x `n` Manhattan-style grid with bidirectional
    /// streets, randomized speed classes and a few missing links.
    pub fn grid(seed: u64, n: usize, spacing_km: f64) -> RoadNetwork {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = RoadNetwork::default();
        for y in 0..n {
            for x in 0..n {
                net.nodes.push((x as f64 * spacing_km, y as f64 * spacing_km));
            }
        }
        let idx = |x: usize, y: usize| y * n + x;
        let add = |net: &mut RoadNetwork, a: usize, b: usize, rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.06) {
                return; // missing link
            }
            let class = rng.gen_range(0..3);
            let (speed, cap) = match class {
                0 => (50.0, 900.0),   // urban street
                1 => (70.0, 1_500.0), // arterial
                _ => (90.0, 2_200.0), // expressway
            };
            net.edges.push(Edge {
                from: a,
                to: b,
                length_km: spacing_km * rng.gen_range(1.0..1.3),
                free_speed_kmh: speed,
                capacity_veh_h: cap,
            });
        };
        for y in 0..n {
            for x in 0..n {
                if x + 1 < n {
                    add(&mut net, idx(x, y), idx(x + 1, y), &mut rng);
                    add(&mut net, idx(x + 1, y), idx(x, y), &mut rng);
                }
                if y + 1 < n {
                    add(&mut net, idx(x, y), idx(x, y + 1), &mut rng);
                    add(&mut net, idx(x, y + 1), idx(x, y), &mut rng);
                }
            }
        }
        net
    }

    /// Outgoing edge indices per node.
    pub(crate) fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for (ei, e) in self.edges.iter().enumerate() {
            adj[e.from].push(ei);
        }
        adj
    }

    /// Free-flow travel time of edge `ei` in hours.
    pub(crate) fn free_time_h(&self, ei: usize) -> f64 {
        let e = &self.edges[ei];
        e.length_km / e.free_speed_kmh
    }
}

/// One floating-car-data observation: a vehicle's speed on an edge at an
/// hour of day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcdPoint {
    /// Edge index.
    pub edge: usize,
    /// Hour of day, 0..24.
    pub hour: usize,
    /// Observed speed, km/h.
    pub speed_kmh: f64,
}

/// The (hidden) congestion multiplier used to synthesize FCD: rush hours
/// slow traffic down, expressways less than streets.
fn congestion_factor(hour: usize, capacity: f64) -> f64 {
    let rush = match hour {
        7..=9 => 0.55,
        16..=18 => 0.5,
        10..=15 => 0.8,
        _ => 0.95,
    };
    // High-capacity roads degrade less.
    let resilience = (capacity / 2_200.0).clamp(0.4, 1.0);
    rush + (1.0 - rush) * (1.0 - resilience) * 0.3
}

/// Generates `points` FCD observations across the network over `points`
/// samples (vehicle-edge-hour triples), with heavy-tailed slowdowns
/// (incidents).
pub fn generate_fcd(network: &RoadNetwork, seed: u64, points: usize) -> Vec<FcdPoint> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(points);
    for _ in 0..points {
        let edge = rng.gen_range(0..network.edges.len());
        let hour = rng.gen_range(0..HOUR_BINS);
        let e = &network.edges[edge];
        let base = e.free_speed_kmh * congestion_factor(hour, e.capacity_veh_h);
        let noise: f64 = rng.gen_range(-0.15..0.15);
        // 3% incident probability: drastic slowdown (heavy tail).
        let incident = if rng.gen_bool(0.03) { rng.gen_range(0.2..0.5) } else { 1.0 };
        let speed = (base * (1.0 + noise) * incident).clamp(3.0, e.free_speed_kmh);
        out.push(FcdPoint { edge, hour, speed_kmh: speed });
    }
    out
}

/// Learned per-edge, per-hour speed distributions (mean + std, km/h).
#[derive(Debug, Clone)]
pub struct SpeedProfiles {
    mean: Vec<[f64; HOUR_BINS]>,
    std: Vec<[f64; HOUR_BINS]>,
}

impl SpeedProfiles {
    /// Learns profiles from FCD; edges/hours without data fall back to
    /// free-flow speed with 10% spread.
    pub fn learn(network: &RoadNetwork, fcd: &[FcdPoint]) -> SpeedProfiles {
        let ne = network.edges.len();
        let mut sum = vec![[0.0f64; HOUR_BINS]; ne];
        let mut sum2 = vec![[0.0f64; HOUR_BINS]; ne];
        let mut count = vec![[0usize; HOUR_BINS]; ne];
        for p in fcd {
            sum[p.edge][p.hour] += p.speed_kmh;
            sum2[p.edge][p.hour] += p.speed_kmh * p.speed_kmh;
            count[p.edge][p.hour] += 1;
        }
        let mut mean = vec![[0.0f64; HOUR_BINS]; ne];
        let mut std = vec![[0.0f64; HOUR_BINS]; ne];
        for ei in 0..ne {
            for h in 0..HOUR_BINS {
                if count[ei][h] >= 2 {
                    let m = sum[ei][h] / count[ei][h] as f64;
                    let v = (sum2[ei][h] / count[ei][h] as f64 - m * m).max(0.0);
                    mean[ei][h] = m;
                    std[ei][h] = v.sqrt();
                } else {
                    mean[ei][h] = network.edges[ei].free_speed_kmh;
                    std[ei][h] = network.edges[ei].free_speed_kmh * 0.1;
                }
            }
        }
        SpeedProfiles { mean, std }
    }

    /// Expected speed of `edge` at `hour`.
    pub(crate) fn mean_speed(&self, edge: usize, hour: usize) -> f64 {
        self.mean[edge][hour % HOUR_BINS]
    }

    /// Speed spread of `edge` at `hour`.
    pub(crate) fn std_speed(&self, edge: usize, hour: usize) -> f64 {
        self.std[edge][hour % HOUR_BINS]
    }
}

/// Min-heap entry for [`dijkstra_route`]: (distance, node), ordered so
/// [`BinaryHeap::pop`] yields the closest frontier node first.
#[derive(PartialEq)]
struct HeapItem(f64, usize);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.total_cmp(&self.0) // min-heap
    }
}

/// Dijkstra over an arbitrary non-negative per-edge cost, shared by the
/// profile-based and load-based routers. `adj` is the network's
/// [`RoadNetwork::adjacency`] table (passed in so callers routing many
/// pairs build it once). Returns the edge sequence from `from` to `to`,
/// or `None` when unreachable.
fn dijkstra_route(
    network: &RoadNetwork,
    adj: &[Vec<usize>],
    from: usize,
    to: usize,
    edge_cost: impl Fn(usize) -> f64,
) -> Option<Vec<usize>> {
    let mut dist = vec![f64::INFINITY; network.nodes.len()];
    let mut pred_edge = vec![usize::MAX; network.nodes.len()];
    let mut heap = BinaryHeap::new();
    dist[from] = 0.0;
    heap.push(HeapItem(0.0, from));
    while let Some(HeapItem(d, node)) = heap.pop() {
        if node == to {
            break;
        }
        if d > dist[node] {
            continue;
        }
        for &ei in &adj[node] {
            let e = &network.edges[ei];
            let nd = d + edge_cost(ei);
            if nd < dist[e.to] {
                dist[e.to] = nd;
                pred_edge[e.to] = ei;
                heap.push(HeapItem(nd, e.to));
            }
        }
    }
    if dist[to].is_infinite() {
        return None;
    }
    let mut route = Vec::new();
    let mut cur = to;
    while cur != from {
        let ei = pred_edge[cur];
        route.push(ei);
        cur = network.edges[ei].from;
    }
    route.reverse();
    Some(route)
}

/// Dijkstra over expected travel times at a fixed departure hour; returns
/// the edge sequence, or `None` when unreachable.
pub fn shortest_route(
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    from: usize,
    to: usize,
    hour: usize,
) -> Option<Vec<usize>> {
    let adj = network.adjacency();
    dijkstra_route(network, &adj, from, to, |ei| {
        network.edges[ei].length_km / profiles.mean_speed(ei, hour).max(3.0)
    })
}

/// Travel-time distribution estimated by PTDR Monte-Carlo sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TravelTimeStats {
    /// Mean travel time, hours.
    pub mean_h: f64,
    /// 95th percentile, hours.
    pub p95_h: f64,
    /// Standard deviation, hours.
    pub std_h: f64,
}

/// Probabilistic time-dependent routing (ref \[37\]): samples segment speeds
/// from the learned distributions, advancing the clock along the route so
/// later segments see the hour they are actually traversed.
///
/// Delegates to the block-wise engine in [`service`]; the original
/// scalar implementation survives as
/// [`service::ptdr_travel_time_reference`] for validation and as the
/// benchmark baseline.
pub fn ptdr_travel_time(
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    route: &[usize],
    depart_hour: f64,
    samples: usize,
    seed: u64,
) -> TravelTimeStats {
    let mut engine: service::PtdrEngine = service::PtdrEngine::new();
    engine.estimate(network, profiles, route, depart_hour, samples, seed)
}

/// An origin/destination demand entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdPair {
    /// Origin node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Demand, vehicles per hour.
    pub vehicles_h: f64,
}

/// Generates a random O/D matrix with `pairs` entries.
pub fn random_od(network: &RoadNetwork, seed: u64, pairs: usize, demand_veh_h: f64) -> Vec<OdPair> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..pairs)
        .map(|_| {
            let from = rng.gen_range(0..network.nodes.len());
            let mut to = rng.gen_range(0..network.nodes.len());
            if to == from {
                to = (to + 1) % network.nodes.len();
            }
            OdPair { from, to, vehicles_h: demand_veh_h * rng.gen_range(0.5..1.5) }
        })
        .collect()
}

/// Result of one macroscopic assignment.
#[derive(Debug, Clone)]
pub struct AssignmentReport {
    /// Flow per edge, veh/h.
    pub flows: Vec<f64>,
    /// Travel time per edge under load, hours (BPR).
    pub times_h: Vec<f64>,
    /// Total vehicle-hours across the demand.
    pub total_vehicle_hours: f64,
    /// Demand pairs that could not be routed.
    pub unrouted: usize,
}

/// Macroscopic traffic assignment with BPR congestion feedback, iterated
/// with the method of successive averages — the "traffic simulator
/// \[that\] calculates \[the\] traffic model in near-real time".
pub fn assign_traffic(
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    od: &[OdPair],
    hour: usize,
    iterations: usize,
) -> AssignmentReport {
    let ne = network.edges.len();
    let adj = network.adjacency();
    let mut flows = vec![0.0f64; ne];
    let mut times: Vec<f64> = (0..ne).map(|ei| network.free_time_h(ei)).collect();
    let mut unrouted = 0;
    for it in 0..iterations.max(1) {
        // All-or-nothing assignment under current times.
        let mut new_flows = vec![0.0f64; ne];
        unrouted = 0;
        for pair in od {
            match dijkstra_route(network, &adj, pair.from, pair.to, |ei| times[ei]) {
                Some(route) => {
                    for ei in route {
                        new_flows[ei] += pair.vehicles_h;
                    }
                }
                None => unrouted += 1,
            }
        }
        // Successive averages.
        let alpha = 1.0 / (it as f64 + 1.0);
        for ei in 0..ne {
            flows[ei] = (1.0 - alpha) * flows[ei] + alpha * new_flows[ei];
        }
        // BPR: t = t0 * (1 + 0.15 (v/c)^4), with t0 from learned profiles.
        for ei in 0..ne {
            let e = &network.edges[ei];
            let t0 = e.length_km / profiles.mean_speed(ei, hour).max(3.0);
            let ratio = flows[ei] / e.capacity_veh_h;
            times[ei] = t0 * (1.0 + 0.15 * ratio.powi(4));
        }
    }
    let total: f64 = flows.iter().zip(&times).map(|(f, t)| f * t).sum();
    AssignmentReport { flows, times_h: times, total_vehicle_hours: total, unrouted }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RoadNetwork, SpeedProfiles) {
        let net = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&net, 2, 60_000);
        let profiles = SpeedProfiles::learn(&net, &fcd);
        (net, profiles)
    }

    #[test]
    fn grid_network_is_connected_enough() {
        let net = RoadNetwork::grid(1, 6, 1.0);
        assert_eq!(net.nodes.len(), 36);
        // ~4 directed edges per interior node minus missing links.
        assert!(net.edges.len() > 90, "{} edges", net.edges.len());
    }

    #[test]
    fn profiles_capture_rush_hour() {
        let (net, profiles) = setup();
        // Average across edges: 8am must be slower than 3am.
        let ne = net.edges.len();
        let rush: f64 = (0..ne).map(|e| profiles.mean_speed(e, 8)).sum::<f64>() / ne as f64;
        let night: f64 = (0..ne).map(|e| profiles.mean_speed(e, 3)).sum::<f64>() / ne as f64;
        assert!(rush < night * 0.8, "rush {rush} vs night {night}");
    }

    #[test]
    fn dijkstra_finds_reasonable_route() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 12).expect("route exists");
        assert!(!route.is_empty());
        // Route is connected: consecutive edges share nodes.
        for pair in route.windows(2) {
            assert_eq!(net.edges[pair[0]].to, net.edges[pair[1]].from);
        }
        assert_eq!(net.edges[route[0]].from, 0);
        assert_eq!(net.edges[*route.last().unwrap()].to, 63);
    }

    #[test]
    fn ptdr_converges_with_samples() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let reference = ptdr_travel_time(&net, &profiles, &route, 8.0, 50_000, 999);
        // Average the estimator error over independent seeds so the 1/sqrt(N)
        // trend is visible through sampling luck.
        let mean_abs_err = |samples: usize| -> f64 {
            (0..20)
                .map(|seed| {
                    let est = ptdr_travel_time(&net, &profiles, &route, 8.0, samples, seed);
                    (est.mean_h - reference.mean_h).abs()
                })
                .sum::<f64>()
                / 20.0
        };
        let e10 = mean_abs_err(10);
        let e1000 = mean_abs_err(1_000);
        assert!(e1000 < e10 / 3.0, "error must shrink roughly as 1/sqrt(N): {e10} -> {e1000}");
    }

    #[test]
    fn ptdr_p95_exceeds_mean() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 17).unwrap();
        let stats = ptdr_travel_time(&net, &profiles, &route, 17.0, 2_000, 5);
        assert!(stats.p95_h >= stats.mean_h);
        assert!(stats.std_h > 0.0);
    }

    #[test]
    fn rush_hour_departures_take_longer() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let rush = ptdr_travel_time(&net, &profiles, &route, 8.0, 4_000, 3);
        let night = ptdr_travel_time(&net, &profiles, &route, 3.0, 4_000, 3);
        assert!(rush.mean_h > night.mean_h, "rush {} night {}", rush.mean_h, night.mean_h);
    }

    #[test]
    fn assignment_congests_popular_edges() {
        let (net, profiles) = setup();
        let od = random_od(&net, 4, 30, 800.0);
        let report = assign_traffic(&net, &profiles, &od, 8, 6);
        assert!(report.total_vehicle_hours > 0.0);
        // Some edge must be loaded beyond free flow.
        let congested =
            report.flows.iter().zip(&net.edges).any(|(f, e)| *f > 0.5 * e.capacity_veh_h);
        assert!(congested, "no congestion with 30 OD pairs at 800 veh/h");
    }

    #[test]
    fn iterating_assignment_spreads_load() {
        let (net, profiles) = setup();
        let od = random_od(&net, 4, 40, 1_000.0);
        let one = assign_traffic(&net, &profiles, &od, 8, 1);
        let many = assign_traffic(&net, &profiles, &od, 8, 8);
        let peak_one = one.flows.iter().copied().fold(0.0, f64::max);
        let peak_many = many.flows.iter().copied().fold(0.0, f64::max);
        assert!(
            peak_many <= peak_one + 1e-9,
            "equilibration must not increase the peak ({peak_one} -> {peak_many})"
        );
    }

    #[test]
    fn fcd_is_reproducible() {
        let net = RoadNetwork::grid(1, 4, 1.0);
        assert_eq!(generate_fcd(&net, 3, 100), generate_fcd(&net, 3, 100));
    }
}
