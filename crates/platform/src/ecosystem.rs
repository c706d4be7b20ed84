//! The EVEREST ecosystem hierarchy (paper Fig. 3): end-point devices →
//! inner edge → core cloud, with tier-placement evaluation for streaming
//! pipelines.
//!
//! "The outermost layer receives the stream of data and performs initial
//! processing under strict latency constraints ... the inner-edge
//! environment does more extensive processing ... results are then
//! forwarded to the core cloud services" — this module makes that hierarchy
//! executable: a pipeline of stages is assigned to tiers and the model
//! reports per-item latency, energy and uplink traffic.

use crate::link::Link;
use crate::node::CpuSpec;

/// The three processing tiers of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// End-point devices (sensors, vehicles).
    Endpoint,
    /// Inner-edge servers close to the data.
    InnerEdge,
    /// Core cloud (public/private/hybrid).
    Cloud,
}

impl Tier {
    /// All tiers, outermost first.
    pub(crate) const ALL: [Tier; 3] = [Tier::Endpoint, Tier::InnerEdge, Tier::Cloud];

    /// The compute capability of this tier.
    pub(crate) fn cpu(&self) -> CpuSpec {
        match self {
            Tier::Endpoint => CpuSpec::endpoint(),
            Tier::InnerEdge => CpuSpec::arm_edge(),
            Tier::Cloud => CpuSpec::power9(),
        }
    }

    /// FPGA acceleration factor available at this tier (1.0 = none).
    /// Endpoints have no FPGA; the inner edge has a small one; the cloud
    /// has bus- and network-attached cards.
    pub(crate) fn fpga_speedup(&self) -> f64 {
        match self {
            Tier::Endpoint => 1.0,
            Tier::InnerEdge => 6.0,
            Tier::Cloud => 15.0,
        }
    }

    /// The uplink from this tier towards the next-inner tier.
    pub(crate) fn uplink(&self) -> Option<Link> {
        match self {
            Tier::Endpoint => Some(Link::edge_wan()),
            Tier::InnerEdge => Some(Link::tcp_datacenter()),
            Tier::Cloud => None,
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Tier::Endpoint => "endpoint",
            Tier::InnerEdge => "inner-edge",
            Tier::Cloud => "cloud",
        };
        f.write_str(s)
    }
}

/// One stage of a streaming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Floating-point work per input item.
    pub flops: f64,
    /// Bytes this stage emits per item (its output volume).
    pub output_bytes: u64,
    /// Whether the stage can run on an FPGA when the tier has one.
    pub accelerable: bool,
}

impl Stage {
    /// Creates a stage.
    pub fn new(name: impl Into<String>, flops: f64, output_bytes: u64, accelerable: bool) -> Stage {
        Stage { name: name.into(), flops, output_bytes, accelerable }
    }
}

/// Evaluation of one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// End-to-end latency for one item, microseconds.
    pub latency_us: f64,
    /// Energy per item, millijoules.
    pub energy_mj: f64,
    /// Bytes crossing the endpoint uplink per item (the scarce resource).
    pub wan_bytes: u64,
    /// Per-stage `(name, tier, compute_us, transfer_us)` breakdown.
    pub breakdown: Vec<(String, Tier, f64, f64)>,
}

/// Evaluates a pipeline placement: stage `i` runs on `placement[i]`, data
/// moves over tier uplinks between consecutive stages on different tiers.
///
/// # Panics
///
/// Panics if `placement.len() != stages.len()`, or tiers are not
/// non-decreasing (data only flows inward: endpoint → edge → cloud).
pub fn evaluate(stages: &[Stage], placement: &[Tier], input_bytes: u64) -> PlacementReport {
    assert_eq!(stages.len(), placement.len(), "one tier per stage");
    assert!(
        placement.windows(2).all(|w| w[0] <= w[1]),
        "data flows inward: tiers must be non-decreasing"
    );
    let mut latency = 0.0;
    let mut energy_j = 0.0;
    let mut wan_bytes = 0u64;
    let mut breakdown = Vec::new();

    // The raw input must first reach the tier of the first stage.
    let mut current_bytes = input_bytes;
    let mut transfer_to_first = 0.0;
    if let Some(first) = placement.first() {
        let mut tier = Tier::Endpoint;
        while tier < *first {
            let link = tier.uplink().expect("non-cloud tier has an uplink");
            transfer_to_first += link.transfer_us(current_bytes);
            if tier == Tier::Endpoint {
                wan_bytes += current_bytes;
            }
            energy_j += transfer_bytes_energy_j(current_bytes);
            tier = next_tier(tier);
        }
    }
    latency += transfer_to_first;

    for (i, (stage, tier)) in stages.iter().zip(placement).enumerate() {
        let cpu = tier.cpu();
        let speedup = if stage.accelerable { tier.fpga_speedup() } else { 1.0 };
        let compute = cpu.compute_us(stage.flops, cpu.cores) / speedup;
        let active_w = cpu.power_w + if stage.accelerable && speedup > 1.0 { 20.0 } else { 0.0 };
        energy_j += active_w * compute * 1e-6;
        latency += compute;
        current_bytes = stage.output_bytes;

        // Transfer to the next stage's tier.
        let mut transfer = 0.0;
        if let Some(next_placement) = placement.get(i + 1) {
            let mut tier_cursor = *tier;
            while tier_cursor < *next_placement {
                let link = tier_cursor.uplink().expect("non-cloud tier has an uplink");
                transfer += link.transfer_us(current_bytes);
                if tier_cursor == Tier::Endpoint {
                    wan_bytes += current_bytes;
                }
                energy_j += transfer_bytes_energy_j(current_bytes);
                tier_cursor = next_tier(tier_cursor);
            }
        }
        latency += transfer;
        breakdown.push((stage.name.clone(), *tier, compute, transfer));
    }

    PlacementReport { latency_us: latency, energy_mj: energy_j * 1e3, wan_bytes, breakdown }
}

fn next_tier(tier: Tier) -> Tier {
    match tier {
        Tier::Endpoint => Tier::InnerEdge,
        Tier::InnerEdge | Tier::Cloud => Tier::Cloud,
    }
}

/// Network energy: ~20 nJ per byte end to end (NIC + switching).
fn transfer_bytes_energy_j(bytes: u64) -> f64 {
    bytes as f64 * 20e-9
}

/// Nominal floating-point work of one Monte-Carlo sample-edge step in
/// the PTDR kernel (normal draw + clamp + divide), used to translate
/// query shape into tier compute time.
pub(crate) const PTDR_SAMPLE_EDGE_FLOPS: f64 = 50.0;

/// Nominal work of one cache lookup + response serialization on the
/// serving path.
pub(crate) const PTDR_LOOKUP_FLOPS: f64 = 2_000.0;

/// Request/response payload sizes of a cloud-tier cache fill, bytes.
pub(crate) const PTDR_REQUEST_BYTES: u64 = 64;
pub(crate) const PTDR_RESPONSE_BYTES: u64 = 24;

/// Virtual service-cost model of one PTDR edge shard, derived from the
/// Fig. 3 tier specs: lookups and Monte-Carlo recomputes run on an
/// inner-edge core, misses pay a round trip over the edge→cloud uplink
/// to consult the cloud tier. All costs are in virtual microseconds, so
/// admission/shedding decisions built on them are pure functions of the
/// workload — independent of wall-clock and worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCostModel {
    /// Cost of answering from the shard's own cache.
    pub hit_us: f64,
    /// Round-trip cost of consulting the cloud tier (request out,
    /// response back over the inner-edge uplink).
    pub fill_rtt_us: f64,
    /// Monte-Carlo recompute cost per sample-edge on an edge core.
    pub compute_us_per_sample_edge: f64,
}

impl ServeCostModel {
    /// The model for an inner-edge shard backed by the cloud tier.
    pub fn edge_shard() -> ServeCostModel {
        let cpu = Tier::InnerEdge.cpu();
        let flops_per_us = cpu.gflops_per_core * 1e3;
        let uplink = Tier::InnerEdge.uplink().expect("inner edge has an uplink");
        ServeCostModel {
            hit_us: PTDR_LOOKUP_FLOPS / flops_per_us,
            fill_rtt_us: uplink.transfer_us(PTDR_REQUEST_BYTES)
                + uplink.transfer_us(PTDR_RESPONSE_BYTES),
            compute_us_per_sample_edge: PTDR_SAMPLE_EDGE_FLOPS / flops_per_us,
        }
    }

    /// Cost of a full Monte-Carlo recompute for a `route_edges`-edge
    /// route at `samples` samples (cloud-tier fill on a total miss).
    pub fn compute_us(&self, route_edges: usize, samples: usize) -> f64 {
        (route_edges * samples) as f64 * self.compute_us_per_sample_edge
    }

    /// Worst-case service cost of a single query: a total miss that
    /// pays the uplink round trip plus the full recompute.
    pub fn worst_case_us(&self, route_edges: usize, samples: usize) -> f64 {
        self.fill_rtt_us + self.compute_us(route_edges, samples)
    }
}

/// Enumerates all valid (non-decreasing) placements for `n` stages.
pub fn all_placements(n: usize) -> Vec<Vec<Tier>> {
    fn rec(n: usize, min_tier: usize, prefix: &mut Vec<Tier>, out: &mut Vec<Vec<Tier>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for t in min_tier..Tier::ALL.len() {
            prefix.push(Tier::ALL[t]);
            rec(n, t, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, 0, &mut Vec::new(), &mut out);
    out
}

/// The placement minimizing per-item latency.
pub fn best_placement(stages: &[Stage], input_bytes: u64) -> (Vec<Tier>, PlacementReport) {
    all_placements(stages.len())
        .into_iter()
        .map(|p| {
            let r = evaluate(stages, &p, input_bytes);
            (p, r)
        })
        .min_by(|a, b| a.1.latency_us.total_cmp(&b.1.latency_us))
        .expect("at least one placement exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stages() -> Vec<Stage> {
        vec![
            // Heavy data reduction early: filter 1 MB down to 10 kB.
            Stage::new("pre-process", 2e6, 10_000, false),
            Stage::new("inference", 5e8, 1_000, true),
            Stage::new("model-update", 5e9, 500, true),
        ]
    }

    #[test]
    fn all_placements_are_monotone() {
        let ps = all_placements(3);
        // Combinations with repetition: C(3+3-1, 3) = 10.
        assert_eq!(ps.len(), 10);
        for p in &ps {
            assert!(p.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn early_preprocessing_at_the_edge_saves_wan_traffic() {
        let stages = sample_stages();
        let all_cloud = evaluate(&stages, &[Tier::Cloud, Tier::Cloud, Tier::Cloud], 1_000_000);
        let edge_first =
            evaluate(&stages, &[Tier::Endpoint, Tier::InnerEdge, Tier::Cloud], 1_000_000);
        // Shipping raw data to the cloud moves 1 MB over the WAN; filtering
        // at the endpoint moves only the 10 kB digest.
        assert!(edge_first.wan_bytes < all_cloud.wan_bytes / 10);
    }

    #[test]
    fn compute_heavy_stages_prefer_the_cloud() {
        let stages = vec![Stage::new("train", 1e12, 100, true)];
        let (best, _) = best_placement(&stages, 1_000);
        assert_eq!(best, vec![Tier::Cloud]);
    }

    #[test]
    fn tiny_latency_critical_stage_prefers_the_endpoint() {
        // Almost no compute, large input: moving the data dominates.
        let stages = vec![Stage::new("threshold", 1e3, 16, false)];
        let (best, _) = best_placement(&stages, 5_000_000);
        assert_eq!(best, vec![Tier::Endpoint]);
    }

    #[test]
    fn acceleration_helps_only_accelerable_stages() {
        let acc = Stage::new("fft", 1e9, 100, true);
        let plain = Stage::new("fft", 1e9, 100, false);
        let with = evaluate(&[acc], &[Tier::Cloud], 100);
        let without = evaluate(&[plain], &[Tier::Cloud], 100);
        assert!(with.latency_us < without.latency_us);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn backward_placement_rejected() {
        let stages = sample_stages();
        evaluate(&stages, &[Tier::Cloud, Tier::InnerEdge, Tier::Cloud], 100);
    }

    #[test]
    fn serve_cost_model_orders_hit_fill_compute() {
        let model = ServeCostModel::edge_shard();
        // A cache hit is far cheaper than the cloud round trip, which in
        // turn is cheaper than recomputing a realistic query (20 edges x
        // 256 samples) — the ordering the shard cache exists to exploit.
        assert!(model.hit_us > 0.0);
        assert!(model.hit_us < 2.0, "lookup must be sub-2us on an edge core: {}", model.hit_us);
        assert!(model.fill_rtt_us > 10.0 * model.hit_us);
        let compute = model.compute_us(20, 256);
        assert!(compute > model.fill_rtt_us);
        assert_eq!(model.worst_case_us(20, 256), model.fill_rtt_us + compute);
        // Costs scale linearly in route length and sample count.
        assert!((model.compute_us(40, 256) - 2.0 * compute).abs() < 1e-9);
    }

    #[test]
    fn breakdown_covers_every_stage() {
        let stages = sample_stages();
        let r = evaluate(&stages, &[Tier::Endpoint, Tier::InnerEdge, Tier::Cloud], 1_000_000);
        assert_eq!(r.breakdown.len(), 3);
        assert!(r.latency_us > 0.0);
        assert!(r.energy_mj > 0.0);
    }
}
