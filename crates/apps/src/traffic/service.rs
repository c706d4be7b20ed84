//! "Route calculation as a service" (paper §VI-C): a high-throughput
//! serving engine for probabilistic time-dependent routing.
//!
//! The scalar [`ptdr_travel_time`](super::ptdr_travel_time) kernel
//! re-derives per-edge data on every Monte-Carlo sample, allocates a
//! fresh sample vector per call, and sorts the whole vector to read one
//! percentile. This module restructures that kernel the way the EVEREST
//! design flow restructures kernels before offloading them:
//!
//! * [`PtdrEngine`] — a reusable scratch buffer (zero heap allocations
//!   per query once warm) and **block-wise sampling** over a lane-count-
//!   parameterized inner loop mirroring the 32-lane FPGA sampling engine
//!   modeled in E11. Each block walks the route edge by edge in two
//!   phases: first the block's normals are drawn, in lane order, into a
//!   stack buffer; then a loop of arithmetic alone (hour lookup in the
//!   edge's hour-major speed rows, clamp, divide) advances the lanes.
//!   While every lane of a block is still in the departure hour (93 % of
//!   block-edges on the `serve_cold` corpus), that loop reads the edge's
//!   speed row for that hour once and has no branch — clamp, divide, add
//!   and a compare against the next hour boundary — so release builds
//!   divide two lanes at a time (`divpd`); once a lane crosses, the block
//!   finishes on the per-lane hour lookup.
//!   Normals come from a 128-layer ziggurat sampler: one RNG word, one
//!   integer compare and one multiply on the 97 % path, no
//!   transcendentals. The word's low byte (layer and sign) indexes two
//!   tables built with the layer widths: the smallest 53-bit mantissa
//!   whose point leaves the layer's rectangle, and the layer's width
//!   pre-scaled by ±2⁻⁵³ — a negated scale is exact, so the product is
//!   what multiplying by ±1.0 computes, −0.0 included, with neither a
//!   float compare nor a branch on a coin flip. The wedge and tail
//!   cases (2.8 % of draws; `exp`, `ln`) live in one `#[cold]`
//!   out-of-line function, so the hot loop holds neither their code nor
//!   their register spills; it takes the generator by value and hands it
//!   back, which lets the loop keep the generator's state in a register.
//!   RNG words are consumed in the order the one-loop,
//!   one-sample-at-a-time form of this kernel consumed them, and every
//!   sampling operation is the same operation on the same operands, so
//!   every sample is bit-identical to that form's — which survives as the
//!   unit tests' reference, next to a committed golden table
//!   (`tests/ptdr_golden.rs`).
//!   The summary, [`summarize`], runs over the stored samples once the
//!   last block is done: the mean and standard deviation in two passes of
//!   four accumulators each, so no addition waits on the one before it,
//!   and a `select_nth_unstable` 95th percentile instead of a full sort.
//!   The streaming Welford form it replaced is the test reference, and a
//!   committed tolerance policy (`tests/golden/tolerance_policy.txt`)
//!   bounds how far the two may differ: the p95 not at all, the mean and
//!   std by 1e-12 of the samples' scale.
//! * [`PtdrService`] — the single-node front-end on the serving tier's
//!   shard type ([`super::serve`]): four parts, each a two-level response
//!   cache keyed by (route hash, departure bin, sample count) and an
//!   engine behind its own lock, picked by route hash. Departures are
//!   quantized to 15-minute bins and the per-query RNG seed is derived
//!   from the cache key, so a cached answer is bit-identical to one
//!   recomputed on any engine, and `jobs = N` reproduces `jobs = 1`.
//!   Mirroring the DSE engine, `jobs = 1` is the sequential *reference*
//!   (no cache consulted); at `jobs >= 2` the calling thread looks a
//!   batch up and only its distinct missed keys go to
//!   [`everest_workflow::pool::parallel_map`] workers, so each is
//!   computed once. A miss is the same computation on the tier and here.
//!
//! Telemetry: `ptdr.queries`, `ptdr.cache.hit`, `ptdr.cache.miss`
//! counters and the `ptdr.query.latency_us` histogram of computed
//! queries (hits are counted, never timed), published once per batch;
//! a `ptdr.batch` span per batch.

use super::lru::{bin_center_hour, derive_seed, Lookup, TierCache};
pub(crate) use super::lru::{cache_key, CacheKey};
use super::{RoadNetwork, SpeedProfiles, TravelTimeStats, HOUR_BINS};
use everest_telemetry::LogHistogram;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// Slowest speed a sampled segment can fall to, km/h (matches the
/// reference kernel's clamp).
pub(crate) const MIN_SPEED_KMH: f64 = 3.0;

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

/// The pre-service scalar PTDR kernel, kept verbatim as the validation
/// and benchmark baseline: per-sample edge walk with Box-Muller normals,
/// a fresh `Vec` per call, and a full sort for the 95th percentile.
pub fn ptdr_travel_time_reference(
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    route: &[usize],
    depart_hour: f64,
    samples: usize,
    seed: u64,
) -> TravelTimeStats {
    assert!(samples > 0, "need at least one sample");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut t = 0.0f64;
        for &ei in route {
            let hour = ((depart_hour + t) as usize) % HOUR_BINS;
            let mean = profiles.mean_speed(ei, hour);
            let std = profiles.std_speed(ei, hour);
            // Box-Muller normal sample, truncated to plausible speeds.
            let u1: f64 = rng.gen_range(1e-9..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let speed =
                (mean + std * z).clamp(MIN_SPEED_KMH, network.edges[ei].free_speed_kmh * 1.1);
            t += network.edges[ei].length_km / speed;
        }
        times.push(t);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let n = times.len() as f64;
    let mean = times.iter().sum::<f64>() / n;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
    let p95 = times[((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1)];
    TravelTimeStats { mean_h: mean, p95_h: p95, std_h: var.sqrt() }
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// `f(t)` summed over `times` in four interleaved accumulators (sample
/// `i` into accumulator `i mod 4`), combined pairwise at the end: four
/// additions in flight instead of one chain that waits on each.
#[inline(always)]
fn sum4(times: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = times.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (acc, &t) in acc.iter_mut().zip(chunk) {
            *acc += f(t);
        }
    }
    for (acc, &t) in acc.iter_mut().zip(rest) {
        *acc += f(t);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Summarizes a sample buffer without sorting it: the mean and standard
/// deviation in two passes (the sum, then the squared deviations from
/// its mean), then the 95th percentile via `select_nth_unstable` (average
/// O(n), versus O(n log n) for the sorted reference). Produces the same
/// percentile element the sorted reference indexes at
/// `round(0.95 * (n - 1))`. The mean and std keep the committed
/// tolerance policy (`tests/golden/tolerance_policy.txt`) against
/// Welford's streaming form, the tests' reference.
///
/// The buffer is reordered in place by the selection.
///
/// # Panics
///
/// Panics on an empty buffer.
pub fn summarize(times: &mut [f64]) -> TravelTimeStats {
    assert!(!times.is_empty(), "need at least one sample");
    let n = times.len() as f64;
    let mean = sum4(times, |t| t) / n;
    // `max` maps a NaN variance to 0, as the Welford form did.
    let var = (sum4(times, |t| (t - mean) * (t - mean)) / n).max(0.0);
    let idx = ((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1);
    let (_, p95, _) = times.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
    TravelTimeStats { mean_h: mean, p95_h: *p95, std_h: var.sqrt() }
}

// ---------------------------------------------------------------------------
// Block-wise Monte-Carlo engine
// ---------------------------------------------------------------------------

/// Ziggurat tables for the standard normal (Marsaglia & Tsang, 128
/// layers): `x[i]` are the layer widths (descending, `x[1]` = the tail
/// cutoff `R`), `f[i] = exp(-x[i]²/2)` the layer heights, and
/// `scaled[i] = x[i] · 2⁻⁵³` (a power-of-two scaling, so exact) turns a
/// 53-bit mantissa straight into a point of layer `i`. The fast path's
/// two tables are indexed by a word's low byte, `b = layer | sign << 7`:
/// `signed[b]` is `scaled[layer]` negated when the sign bit is set, and
/// `accept[b]` the smallest mantissa `m` with
/// `m as f64 * scaled[layer] >= x[layer + 1]` — the product rounds
/// monotonically in `m`, so `m < accept[b]` is exactly the rectangle
/// test. Built once per process; stored inline in a `OnceLock`, so
/// initialization performs no heap allocation.
struct ZigTables {
    x: [f64; 129],
    f: [f64; 129],
    scaled: [f64; 128],
    signed: [f64; 256],
    accept: [u64; 256],
}

/// Tail cutoff and per-layer area of the 128-layer normal ziggurat.
const ZIG_R: f64 = 3.442_619_855_899;
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// 2⁻⁵³: maps a 53-bit mantissa onto `[0, 1)`.
const MANTISSA_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

fn zig_tables() -> &'static ZigTables {
    static TABLES: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; 129];
        let mut f = [0.0f64; 129];
        // Layer 0 is the base strip: a pseudo-rectangle of width V/f(R)
        // whose overhang past R is the tail. Each further layer satisfies
        // x_i * (f(x_{i+1}) - f(x_i)) = V.
        x[0] = ZIG_V / (-0.5 * ZIG_R * ZIG_R).exp();
        x[1] = ZIG_R;
        for i in 2..128 {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[128] = 0.0;
        for i in 0..129 {
            f[i] = (-0.5 * x[i] * x[i]).exp();
        }
        let mut scaled = [0.0f64; 128];
        for i in 0..128 {
            scaled[i] = x[i] * MANTISSA_SCALE;
        }
        let (mut signed, mut accept) = ([0.0f64; 256], [0u64; 256]);
        for b in 0..256 {
            let layer = b & 0x7F;
            signed[b] = if b & 0x80 != 0 { -scaled[layer] } else { scaled[layer] };
            // Bisection for the first mantissa that fails the float test.
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if (mid as f64 * scaled[layer]) < x[layer + 1] {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            accept[b] = lo;
        }
        ZigTables { x, f, scaled, signed, accept }
    })
}

/// One RNG word split the ziggurat way: bits 0–6 the layer, bit 7 the
/// sign, bits 11–63 the mantissa, already scaled to a point `x ≥ 0` of
/// the layer. [`normal_slow`] redraws with it.
#[inline(always)]
fn zig_draw(rng: &mut StdRng, tables: &ZigTables) -> (u64, usize, f64) {
    let bits = rng.next_u64();
    let layer = (bits & 0x7F) as usize;
    (bits, layer, (bits >> 11) as f64 * tables.scaled[layer])
}

/// `x` (non-negative) with bit 7 of `bits` as its sign. Moving the bit
/// into the sign position is what multiplying by ±1.0 computes, −0.0
/// included, without the branch a `if bit { -1.0 } else { 1.0 }` compiles
/// to. Only [`normal_slow`] uses it; the fast path reads the sign from
/// `ZigTables::signed`.
#[inline(always)]
fn zig_signed(x: f64, bits: u64) -> f64 {
    f64::from_bits(x.to_bits() | ((bits & 0x80) << 56))
}

/// One standard normal by the ziggurat method: the 97.2% common path
/// spends a single RNG word, two loads indexed by its low byte, one
/// integer compare and one multiply — no `ln`/`sqrt`/`cos` (the
/// Box-Muller reference pays one of each per draw), and its only branch
/// is the rarely-taken exit to [`normal_slow`].
#[inline(always)]
fn normal(rng: &mut StdRng, tables: &ZigTables) -> f64 {
    let bits = rng.next_u64();
    let (byte, m) = ((bits & 0xFF) as usize, bits >> 11);
    if m < tables.accept[byte] {
        return m as f64 * tables.signed[byte];
    }
    let layer = byte & 0x7F;
    // By value, and back by value: were the generator lent to the
    // out-of-line call, it would have to live in memory, and every draw
    // would wait on a store-to-load round trip of its state.
    let (z, next) = normal_slow(rng.clone(), tables, bits, layer, m as f64 * tables.scaled[layer]);
    *rng = next;
    z
}

/// The rest of the ziggurat for a draw that missed its layer's
/// rectangle: the wedge test (2.7% of draws), the tail past `R`
/// (0.06%), and a fresh draw after a rejected wedge point. Kept out of
/// line and cold so that `exp`, `ln` and their spills stay out of the
/// sampling loop's registers and instruction stream; RNG words are
/// consumed in the same order as when this was the body of one loop.
#[cold]
#[inline(never)]
fn normal_slow(
    mut rng: StdRng,
    tables: &ZigTables,
    mut bits: u64,
    mut layer: usize,
    mut x: f64,
) -> (f64, StdRng) {
    let unit = |rng: &mut StdRng| ((rng.next_u64() >> 11) + 1) as f64 * MANTISSA_SCALE;
    // The caller's draw enters below the rectangle test it already
    // failed; redraws come round to it.
    loop {
        if layer == 0 {
            // Tail past R: Marsaglia's exponential-rejection sampler.
            loop {
                let u1 = unit(&mut rng);
                let u2 = unit(&mut rng);
                let xt = -u1.ln() / ZIG_R;
                let yt = -u2.ln();
                if yt + yt > xt * xt {
                    return (zig_signed(ZIG_R + xt, bits), rng);
                }
            }
        }
        // Wedge between the layer's rectangle and the density.
        let y = tables.f[layer]
            + (tables.f[layer + 1] - tables.f[layer])
                * ((rng.next_u64() >> 11) as f64 * MANTISSA_SCALE);
        if y < (-0.5 * x * x).exp() {
            return (zig_signed(x, bits), rng);
        }
        (bits, layer, x) = zig_draw(&mut rng, tables);
        if x < tables.x[layer + 1] {
            return (zig_signed(x, bits), rng);
        }
    }
}

/// Hour bin for an absolute clock value (hours since midnight):
/// `clock_h as usize % HOUR_BINS` for every input. x86-64 has no
/// instruction for the saturating `f64 → u64` cast, which costs a dozen
/// there — a third of the arithmetic loop; below 2³² h the cast to `u32`
/// gives the same integer in one conversion, and the comparison that
/// picks it is never mispredicted on a clock that counts hours of a day.
#[inline(always)]
fn hour_bin(clock_h: f64) -> usize {
    if clock_h < 4_294_967_296.0 {
        (clock_h as u32 as usize) % HOUR_BINS
    } else {
        (clock_h as usize) % HOUR_BINS
    }
}

/// The restructured PTDR Monte-Carlo kernel.
///
/// Holds the scratch sample buffer, reused across queries: estimating
/// repeatedly at bounded sample counts performs **zero heap
/// allocations** once the high-water capacity is reached (enforced by
/// the `ptdr_no_alloc` integration test). Nothing else outlives a call —
/// segment lengths and the hour-major speed rows are read in place from
/// the network and the profiles handed to [`estimate`](Self::estimate),
/// so one engine can serve any number of them.
///
/// `LANES` parameterizes the block width of the inner sampling loop:
/// each block advances `LANES` Monte-Carlo walkers through the route
/// edge-by-edge, so per-edge rows are looked up once per block instead
/// of once per sample. The default (32) matches the sampling engine
/// modeled in E11. Note that the lane count shapes the RNG draw order, so
/// estimates are reproducible per `(seed, LANES)` pair.
#[derive(Debug, Default)]
pub struct PtdrEngine<const LANES: usize = 32> {
    /// Reusable sample buffer.
    times: Vec<f64>,
}

impl<const LANES: usize> PtdrEngine<LANES> {
    /// An empty engine; the sample buffer grows on first use.
    pub fn new() -> PtdrEngine<LANES> {
        assert!(LANES >= 1, "need at least one lane");
        PtdrEngine { times: Vec::new() }
    }

    /// Estimates the travel-time distribution of `route` departing at
    /// `depart_hour`, from `samples` Monte-Carlo walks seeded with
    /// `seed`. Statistically equivalent to
    /// [`ptdr_travel_time_reference`] (same speed distributions, clamps
    /// and clock advance) but not draw-for-draw identical to it.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero or `route` names an edge outside
    /// `network`.
    pub fn estimate(
        &mut self,
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        route: &[usize],
        depart_hour: f64,
        samples: usize,
        seed: u64,
    ) -> TravelTimeStats {
        assert!(samples > 0, "need at least one sample");
        let tables = zig_tables();
        let mut rng = StdRng::seed_from_u64(seed);
        self.times.clear();
        self.times.reserve(samples);
        let mut t = [0.0f64; LANES];
        let mut z = [0.0f64; LANES];
        // A lane whose `depart_hour + t` is below `boundary` reads hour
        // `h0`: `t` starts at zero and never falls while edge lengths are
        // non-negative, and below 2³² − 1 h `hour_bin` truncates.
        let in_hour = (0.0..4_294_967_295.0).contains(&depart_hour);
        let (h0, boundary) = (hour_bin(depart_hour), depart_hour.floor() + 1.0);
        let mut done = 0usize;
        while done < samples {
            let width = LANES.min(samples - done);
            let (t, z) = (&mut t[..width], &mut z[..width]);
            t.fill(0.0);
            let mut same_hour = in_hour;
            for &ei in route {
                // Phase one: the block's normals, drawn in lane order. The
                // only branch in here is the sampler's cold exit.
                for z in z.iter_mut() {
                    *z = normal(&mut rng, tables);
                }
                // Phase two: arithmetic only, so no lane waits on a
                // neighbour and the divides pipeline.
                let edge = &network.edges[ei];
                let (len, hi) = (edge.length_km, edge.free_speed_kmh * 1.1);
                let (mean, std) = (&profiles.mean[ei], &profiles.std[ei]);
                same_hour &= len >= 0.0;
                if same_hour {
                    let (mean, std) = (mean[h0], std[h0]);
                    let mut below = true;
                    for (lane_t, &z) in t.iter_mut().zip(z.iter()) {
                        *lane_t += len / (mean + std * z).clamp(MIN_SPEED_KMH, hi);
                        below &= depart_hour + *lane_t < boundary;
                    }
                    same_hour = below;
                } else {
                    for (lane_t, &z) in t.iter_mut().zip(z.iter()) {
                        let h = hour_bin(depart_hour + *lane_t);
                        *lane_t += len / (mean[h] + std[h] * z).clamp(MIN_SPEED_KMH, hi);
                    }
                }
            }
            self.times.extend_from_slice(t);
            done += width;
        }
        summarize(&mut self.times)
    }
}

// ---------------------------------------------------------------------------
// The serving front-end
// ---------------------------------------------------------------------------

/// One routing request: an edge route (as produced by
/// [`shortest_route`](super::shortest_route)), a departure time, and the
/// Monte-Carlo budget.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteQuery {
    /// Edge indices from origin to destination.
    pub route: Vec<usize>,
    /// Departure time, hours since midnight. Quantized to
    /// `DEPARTURE_BINS_PER_HOUR` bins for caching and seeding, so two
    /// departures inside the same 15-minute bin return the same answer.
    pub depart_hour: f64,
    /// Monte-Carlo samples to draw.
    pub samples: usize,
}

/// Edge-level capacity of one shard's cache, keys: a serving-tier
/// shard's default and the size of each part of a [`PtdrService`].
pub(crate) const EDGE_CACHE_KEYS: usize = 2_048;

/// Cloud-level capacity of one shard's cache, keys (likewise).
pub(crate) const CLOUD_CACHE_KEYS: usize = 65_536;

/// One shard of either front-end — a part of a [`PtdrService`], a shard
/// of the serving tier ([`super::serve`]): both cache levels in one
/// table, and the engine that recomputes what they miss. Each sits
/// behind its own lock, which a batch takes once: the tier's worker for
/// its shard, the service's calling thread for all four parts.
pub(crate) struct ShardState {
    pub(crate) cache: TierCache,
    engine: PtdrEngine,
}

impl ShardState {
    /// An empty shard whose cache holds up to `edge` and `cloud` keys.
    pub(crate) fn new(edge: usize, cloud: usize) -> ShardState {
        ShardState { cache: TierCache::new(edge, cloud), engine: PtdrEngine::new() }
    }

    /// A miss of a tier shard or of [`PtdrService::query`]: the key's
    /// answer, [`compute`]d on this shard's engine, fills both levels.
    pub(crate) fn miss(
        &mut self,
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        seed: u64,
        query: &RouteQuery,
        key: &CacheKey,
    ) -> TravelTimeStats {
        let stats = compute(&mut self.engine, network, profiles, seed, query, key);
        self.cache.fill(*key, stats);
        stats
    }
}

/// The answer to `query`, whose cache identity is `key`, computed on
/// `engine`: at the center of the key's departure bin, seeded from `seed`
/// and the key, so every query of a key gets it on any engine.
fn compute(
    engine: &mut PtdrEngine,
    network: &RoadNetwork,
    profiles: &SpeedProfiles,
    seed: u64,
    query: &RouteQuery,
    key: &CacheKey,
) -> TravelTimeStats {
    engine.estimate(
        network,
        profiles,
        &query.route,
        bin_center_hour(key),
        query.samples,
        derive_seed(seed, key),
    )
}

/// Parts of a [`PtdrService`]'s cache. Fixed, not the worker count, so
/// which part holds a key — and every counter and `cache_len` — is the
/// same at any `jobs`.
const PARTS: usize = 4;

/// Cache outcomes of some queries: hits counted, misses counted and
/// timed (nothing on the cached path reads a clock).
#[derive(Default)]
struct Tally {
    hits: u64,
    misses: u64,
    latency: LogHistogram,
}

impl Tally {
    /// Exports the tally of `queries` queries into the global metrics
    /// registry: one lock a metric, however many queries.
    fn publish(&self, queries: usize) {
        let m = everest_telemetry::metrics();
        m.counter_add("ptdr.queries", queries as u64);
        m.counter_add("ptdr.cache.hit", self.hits);
        m.counter_add("ptdr.cache.miss", self.misses);
        m.merge_histogram("ptdr.query.latency_us", &self.latency);
    }
}

/// The PTDR serving engine: owns the network and learned speed profiles,
/// and answers from four shards of the serving tier's kind, a key's
/// shard picked by its route hash.
pub struct PtdrService {
    network: RoadNetwork,
    profiles: SpeedProfiles,
    jobs: usize,
    seed: u64,
    parts: Vec<Mutex<ShardState>>,
}

impl PtdrService {
    /// A service over `network`/`profiles` with `jobs = 1` (the
    /// sequential reference path) and an empty response cache of four
    /// parts, each sized like a serving-tier shard's (2 048 edge and
    /// 65 536 cloud keys).
    pub fn new(network: RoadNetwork, profiles: SpeedProfiles) -> PtdrService {
        PtdrService {
            network,
            profiles,
            jobs: 1,
            seed: 0,
            parts: (0..PARTS)
                .map(|_| Mutex::new(ShardState::new(EDGE_CACHE_KEYS, CLOUD_CACHE_KEYS)))
                .collect(),
        }
    }

    /// Sets the worker count: `1` serves batches sequentially on one
    /// engine without the response cache (the bit-identical reference),
    /// `2+` looks a batch up on the calling thread and computes the keys
    /// it misses on up to `jobs` pool workers.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> PtdrService {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the base seed mixed into every per-query seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> PtdrService {
        self.seed = seed;
        self
    }

    /// Number of cached responses.
    pub fn cache_len(&self) -> usize {
        self.parts.iter().map(|part| part.lock().cache.len()).sum()
    }

    /// The cache identity of `query` (see [`cache_key`]).
    pub(crate) fn key(&self, query: &RouteQuery) -> CacheKey {
        cache_key(&query.route, query.depart_hour, query.samples)
    }

    /// Replaces the response cache with an empty one whose parts hold up
    /// to `keys` keys each, in either level.
    #[cfg(test)]
    fn with_part_capacity(mut self, keys: usize) -> PtdrService {
        self.parts = (0..PARTS).map(|_| Mutex::new(ShardState::new(keys, keys))).collect();
        self
    }

    /// [`compute`] with this service's network, profiles and seed.
    fn estimate(
        &self,
        engine: &mut PtdrEngine,
        query: &RouteQuery,
        key: &CacheKey,
    ) -> TravelTimeStats {
        compute(engine, &self.network, &self.profiles, self.seed, query, key)
    }

    /// The part that holds `key`.
    fn part_of(key: &CacheKey) -> usize {
        (key.route_hash % PARTS as u64) as usize
    }

    /// Answers a single query (always cache-enabled). The warm path — a
    /// repeated key — is a pure lookup: no sampling, no clock read, no
    /// heap allocation. A miss is computed on the part's engine under the
    /// part's lock, so concurrent callers whose keys share a part wait
    /// for each other's misses; [`PtdrService::route_batch`] is the
    /// parallel path.
    pub fn query(&self, query: &RouteQuery) -> TravelTimeStats {
        let key = self.key(query);
        let mut tally = Tally::default();
        let mut part = self.parts[Self::part_of(&key)].lock();
        let stats = match part.cache.lookup(&key) {
            Lookup::Edge(stats) | Lookup::Cloud(stats) => {
                tally.hits = 1;
                stats
            }
            Lookup::Miss => {
                everest_telemetry::flight().marker("ptdr.cache.miss", 1.0);
                let start = Instant::now();
                let stats = part.miss(&self.network, &self.profiles, self.seed, query, &key);
                tally.misses = 1;
                tally.latency.observe(start.elapsed().as_secs_f64() * 1e6);
                stats
            }
        };
        drop(part);
        tally.publish(1);
        stats
    }

    /// Answers a batch of queries. Results land in input order and are
    /// bit-identical for every `jobs` setting: `jobs = 1` recomputes
    /// every query sequentially (the reference). At `jobs >= 2` the
    /// calling thread holds every part's lock for the batch and looks
    /// each query up in input order, listing each key it misses once;
    /// [`everest_workflow::pool::parallel_map`] computes the listed keys
    /// on up to `jobs` workers, each key on a fresh engine, and the
    /// caller fills them in list order. So each distinct key is computed
    /// exactly once, and the other queries of a missed key count as hits.
    pub fn route_batch(&self, queries: &[RouteQuery]) -> Vec<TravelTimeStats> {
        let mut span = everest_telemetry::span("ptdr.batch", "traffic");
        span.attr("queries", queries.len());
        span.attr("jobs", self.jobs);
        let mut total = Tally::default();
        if self.jobs <= 1 {
            let mut engine = PtdrEngine::new();
            let answers = queries
                .iter()
                .map(|query| {
                    let start = Instant::now();
                    let stats = self.estimate(&mut engine, query, &self.key(query));
                    total.latency.observe(start.elapsed().as_secs_f64() * 1e6);
                    stats
                })
                .collect();
            total.publish(queries.len());
            return answers;
        }
        let mut parts: Vec<_> = self.parts.iter().map(|part| part.lock()).collect();
        let mut out = vec![TravelTimeStats { mean_h: 0.0, p95_h: 0.0, std_h: 0.0 }; queries.len()];
        // Each missed key's first query, and every missed query with the
        // index of its key in that list.
        let mut missed: HashMap<CacheKey, usize> = HashMap::new();
        let mut firsts: Vec<(usize, CacheKey)> = Vec::new();
        let mut waiting: Vec<(usize, usize)> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let key = self.key(query);
            match parts[Self::part_of(&key)].cache.lookup(&key) {
                Lookup::Edge(stats) | Lookup::Cloud(stats) => out[i] = stats,
                Lookup::Miss => {
                    let at = *missed.entry(key).or_insert_with(|| {
                        firsts.push((i, key));
                        firsts.len() - 1
                    });
                    waiting.push((i, at));
                }
            }
        }
        let computed = everest_workflow::pool::parallel_map(
            "ptdr.batch.worker",
            self.jobs,
            firsts.iter().collect(),
            |_, &(i, key)| {
                let start = Instant::now();
                let stats = self.estimate(&mut PtdrEngine::new(), &queries[i], &key);
                (stats, start.elapsed().as_secs_f64() * 1e6)
            },
        );
        for (&(_, key), &(stats, us)) in firsts.iter().zip(&computed) {
            parts[Self::part_of(&key)].cache.fill(key, stats);
            total.latency.observe(us);
        }
        drop(parts);
        for &(i, at) in &waiting {
            out[i] = computed[at].0;
        }
        total.misses = firsts.len() as u64;
        total.hits = (queries.len() - firsts.len()) as u64;
        total.publish(queries.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::lru::LruCache;
    use super::super::{generate_fcd, shortest_route};
    use super::*;

    fn setup() -> (RoadNetwork, SpeedProfiles) {
        let net = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&net, 2, 60_000);
        let profiles = SpeedProfiles::learn(&net, &fcd);
        (net, profiles)
    }

    /// How often the reference sampler left the common path.
    #[derive(Default)]
    struct SlowPaths {
        wedge: u64,
        tail: u64,
    }

    /// The sampler as it stood before the fast path went branch-free
    /// (sign as a `±1.0` factor, mantissa divided by 2⁵³, one loop
    /// holding all three cases), kept word for word as the reference the
    /// shipped one is compared against; the counters are the only
    /// addition.
    fn normal_reference(rng: &mut StdRng, paths: &mut SlowPaths) -> f64 {
        let tables = zig_tables();
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0x7F) as usize;
            let sign = if bits & 0x80 != 0 { -1.0f64 } else { 1.0 };
            let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
            let x = u * tables.x[i];
            if x < tables.x[i + 1] {
                return sign * x;
            }
            if i == 0 {
                paths.tail += 1;
                loop {
                    let u1 = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                    let u2 = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                    let xt = -u1.ln() / ZIG_R;
                    let yt = -u2.ln();
                    if yt + yt > xt * xt {
                        return sign * (ZIG_R + xt);
                    }
                }
            }
            paths.wedge += 1;
            let y = tables.f[i]
                + (tables.f[i + 1] - tables.f[i])
                    * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            if y < (-0.5 * x * x).exp() {
                return sign * x;
            }
        }
    }

    /// The sampling loop as it stood before the two-phase blocks: tables
    /// copied per route, draw and arithmetic interleaved lane by lane. The
    /// samples come back in the order they were drawn.
    fn samples_reference<const LANES: usize>(
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        route: &[usize],
        depart_hour: f64,
        samples: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut paths = SlowPaths::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::with_capacity(samples);
        let mut t = [0.0f64; LANES];
        let mut done = 0usize;
        while done < samples {
            let width = LANES.min(samples - done);
            t[..width].fill(0.0);
            for &ei in route {
                let len = network.edges[ei].length_km;
                let hi = network.edges[ei].free_speed_kmh * 1.1;
                for lane_t in t[..width].iter_mut() {
                    let z = normal_reference(&mut rng, &mut paths);
                    let h = ((depart_hour + *lane_t) as usize) % HOUR_BINS;
                    let v = (profiles.mean_speed(ei, h) + profiles.std_speed(ei, h) * z)
                        .clamp(MIN_SPEED_KMH, hi);
                    *lane_t += len / v;
                }
            }
            times.extend_from_slice(&t[..width]);
            done += width;
        }
        times
    }

    /// The reference loop's samples, closed by the shipped summary: the
    /// engine's sampling must reproduce them bit for bit.
    fn estimate_reference<const LANES: usize>(
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        route: &[usize],
        depart_hour: f64,
        samples: usize,
        seed: u64,
    ) -> TravelTimeStats {
        summarize(&mut samples_reference::<LANES>(
            network,
            profiles,
            route,
            depart_hour,
            samples,
            seed,
        ))
    }

    #[test]
    fn sampler_matches_reference_draw_for_draw() {
        const DRAWS: usize = 2_500_000;
        let tables = zig_tables();
        let mut paths = SlowPaths::default();
        let (mut sum, mut sum2, mut sum4) = (0.0f64, 0.0f64, 0.0f64);
        for seed in [0u64, 1, 2026, u64::MAX] {
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut slow_rng = StdRng::seed_from_u64(seed);
            for draw in 0..DRAWS {
                let fast = normal(&mut fast_rng, tables);
                let slow = normal_reference(&mut slow_rng, &mut paths);
                // `to_bits`, so that −0.0 and +0.0 count as different.
                assert_eq!(fast.to_bits(), slow.to_bits(), "seed {seed}, draw {draw}");
                sum += fast;
                sum2 += fast * fast;
                sum4 += fast * fast * fast * fast;
            }
            // Equal values could hide unequal consumption of RNG words.
            assert_eq!(fast_rng.next_u64(), slow_rng.next_u64(), "seed {seed}: streams diverged");
        }
        let n = (4 * DRAWS) as f64;
        // Both slow paths must have been compared, at their known rates.
        let (wedge, tail) = (paths.wedge as f64 / n, paths.tail as f64 / n);
        // (The tables put them at 2.70 % and 0.057 % of first words;
        // rejected wedge points come round again.)
        assert!((0.026..0.029).contains(&wedge), "wedge share {wedge}");
        assert!((0.0004..0.0008).contains(&tail), "tail share {tail}");
        // Standard normal: mean 0, variance 1, kurtosis 3 (standard
        // errors at n = 10⁷: 3·10⁻⁴, 4·10⁻⁴, 3·10⁻³).
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        let kurtosis = sum4 / n / (var * var);
        assert!(mean.abs() < 2e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 3e-3, "variance {var}");
        assert!((kurtosis - 3.0).abs() < 2e-2, "kurtosis {kurtosis}");
    }

    #[test]
    fn engine_matches_reference_loop_bit_for_bit() {
        let (net, profiles) = setup();
        let long = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        fn check<const LANES: usize>(
            net: &RoadNetwork,
            profiles: &SpeedProfiles,
            route: &[usize],
            depart: f64,
            samples: usize,
        ) {
            let mut engine: PtdrEngine<LANES> = PtdrEngine::new();
            for seed in [3u64, 4] {
                let fast = engine.estimate(net, profiles, route, depart, samples, seed);
                let slow = estimate_reference::<LANES>(net, profiles, route, depart, samples, seed);
                let bits = |s: TravelTimeStats| [s.mean_h, s.p95_h, s.std_h].map(f64::to_bits);
                assert_eq!(
                    bits(fast),
                    bits(slow),
                    "lanes {LANES}, {} edges, depart {depart}, {samples} samples, seed {seed}",
                    route.len()
                );
            }
        }
        // Empty and one-edge routes, a walk across midnight, clocks the
        // hour bin saturates on, and sample counts on both sides of a
        // block boundary. For the same-hour path: blocks that leave the
        // departure hour mid-route, a departure on an hour boundary, −0.0,
        // and one departure on each side of its guard.
        let departs = [
            0.0,
            8.125,
            8.96875,
            9.0,
            23.875,
            -0.0,
            -3.0,
            4_294_967_294.5,
            4_294_967_295.5,
            5e9,
            1e30,
            f64::NAN,
        ];
        for route in [&long[..0], &long[..1], &long[..5], &long[..]] {
            for depart in departs {
                for samples in [1usize, 5, 32, 33, 200, 3_000] {
                    check::<32>(&net, &profiles, route, depart, samples);
                    check::<4>(&net, &profiles, route, depart, samples);
                    check::<1>(&net, &profiles, route, depart, samples);
                }
            }
        }
        // Negative lengths turn the clock back into an earlier hour, which
        // the same-hour path must not read as the departure's.
        let mut back = net.clone();
        for edge in &mut back.edges {
            edge.length_km = -edge.length_km;
        }
        for depart in [8.03125, 8.96875, 0.5] {
            check::<32>(&back, &profiles, &long, depart, 200);
        }
    }

    /// The summary under the committed tolerance policy
    /// (`tests/golden/tolerance_policy.txt`), on PTDR sample buffers in the
    /// order they are drawn: tier queries (`LoadGen`, 192–312 samples)
    /// until 10⁷ normals have been drawn, then the golden table's queries
    /// (`tests/ptdr_golden.rs`: 1 to 10 000 samples, block widths 32 and
    /// 4). Every buffer's p95 must be the selection's element and its mean
    /// and std within the policy's bounds of Welford.
    ///
    /// Then accuracy: against compensated sums, the summary's largest and
    /// average relative errors must be no larger than Welford's. That
    /// check is an aggregate, not one per buffer: on one buffer either
    /// form can land nearer the exact value at the ulp level (the two
    /// passes are the further off on about one buffer in ten here), so a
    /// per-buffer rule would fail whichever form ships, while Welford's
    /// serial chain shows in the maximum and the average.
    #[test]
    fn summary_keeps_the_policy_and_welfords_accuracy() {
        use super::super::serve::LoadGen;
        use super::super::summary_reference::{check, compensated, welford};
        const DRAWS: usize = 10_000_000;
        let net = RoadNetwork::grid(2026, 12, 1.0);
        let profiles = SpeedProfiles::learn(&net, &generate_fcd(&net, 7, 150_000));
        // Per form (summary, Welford) and moment (mean, std): the largest
        // and the summed relative error; per moment, the buffers on which
        // the summary is the further off.
        let mut errors = [[(0.0f64, 0.0f64); 2]; 2];
        let mut worse = [0usize; 2];
        let mut buffers = 0usize;
        let mut judge = |times: &[f64]| {
            let stats = summarize(&mut times.to_vec());
            check(times, (stats.mean_h, stats.p95_h, stats.std_h)).unwrap();
            let exact = compensated(times);
            let forms = [[stats.mean_h, stats.std_h], <[f64; 2]>::from(welford(times))];
            for (moment, want) in <[f64; 2]>::from(exact).into_iter().enumerate() {
                let error = forms.map(|form| {
                    let got = form[moment];
                    if got == want {
                        0.0
                    } else {
                        ((got - want) / want).abs()
                    }
                });
                for (form, error) in error.into_iter().enumerate() {
                    let (max, sum) = &mut errors[form][moment];
                    *max = max.max(error);
                    *sum += error;
                }
                worse[moment] += usize::from(error[0] > error[1]);
            }
            buffers += 1;
        };
        let gen = LoadGen::new(&net, &profiles, 24, 2026);
        let mut drawn = 0usize;
        'days: for day in 0.. {
            for (i, arrival) in gen.generate(day, 40_000.0, 0.05, 2_000).iter().enumerate() {
                let q = &arrival.query;
                let seed = day << 32 | i as u64;
                judge(&samples_reference::<32>(
                    &net,
                    &profiles,
                    &q.route,
                    q.depart_hour,
                    q.samples,
                    seed,
                ));
                drawn += q.route.len() * q.samples;
                if drawn >= DRAWS {
                    break 'days;
                }
            }
        }
        let long = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).unwrap();
        for route in [&long[..1], &long[..4], &long[..]] {
            for depart in [0.125, 8.125, 17.625, 23.875] {
                for samples in [1usize, 2, 31, 32, 33, 192, 312, 10_000] {
                    for seed in [1u64, 2026, 0x9E37_79B9_7F4A_7C15] {
                        judge(&samples_reference::<32>(
                            &net, &profiles, route, depart, samples, seed,
                        ));
                        judge(&samples_reference::<4>(
                            &net, &profiles, route, depart, samples, seed,
                        ));
                    }
                }
            }
        }
        let [summary, reference] =
            errors.map(|moments| moments.map(|(max, sum)| (max, sum / buffers as f64)));
        eprintln!("{buffers} buffers; relative error against compensated sums:");
        for moment in 0..2 {
            let (name, (max, mean), (welford_max, welford_mean)) =
                (["mean", "std"][moment], summary[moment], reference[moment]);
            eprintln!(
                "  {name}: summary max {max:.2e} average {mean:.2e}, \
                 Welford max {welford_max:.2e} average {welford_mean:.2e}; \
                 the summary further off on {} buffers",
                worse[moment]
            );
            assert!(max <= welford_max, "{name}: max error {max:e} > Welford's {welford_max:e}");
            assert!(
                mean <= welford_mean,
                "{name}: average error {mean:e} > Welford's {welford_mean:e}"
            );
        }
    }

    #[test]
    fn sampler_tables_are_exact() {
        let tables = zig_tables();
        for b in 0..256usize {
            let (layer, accept) = (b & 0x7F, tables.accept[b]);
            let scaled = tables.scaled[layer];
            let inside = |m: u64| (m as f64 * scaled) < tables.x[layer + 1];
            // The exact cut of the rectangle test.
            assert!(accept < 1 << 53, "byte {b}: every layer has points outside");
            assert!(!inside(accept), "byte {b}: accept {accept} passes");
            assert!(accept == 0 || inside(accept - 1), "byte {b}: accept {accept} - 1 fails");
            assert_eq!(accept == 0, layer == 127, "byte {b}");
            let bits = b as u64;
            for m in [0, 1, accept.saturating_sub(1), accept, (1 << 53) - 1] {
                assert_eq!(
                    (m as f64 * tables.signed[b]).to_bits(),
                    zig_signed(m as f64 * scaled, bits).to_bits(),
                    "byte {b}, mantissa {m}"
                );
            }
        }
    }

    #[test]
    fn one_engine_serves_two_profiles() {
        let (net, morning) = setup();
        let evening = SpeedProfiles::learn(&net, &generate_fcd(&net, 99, 60_000));
        let route = shortest_route(&net, &morning, 0, 63, 8).unwrap();
        let mut shared: PtdrEngine = PtdrEngine::new();
        let first = shared.estimate(&net, &morning, &route, 8.0, 500, 1);
        let second = shared.estimate(&net, &evening, &route, 8.0, 500, 1);
        let mut fresh: PtdrEngine = PtdrEngine::new();
        assert_eq!(second, fresh.estimate(&net, &evening, &route, 8.0, 500, 1));
        assert_ne!(first, second, "the two profile sets must disagree for the test to bite");
    }

    #[test]
    fn engine_matches_reference_statistically() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let reference = ptdr_travel_time_reference(&net, &profiles, &route, 8.0, 60_000, 7);
        let mut engine: PtdrEngine = PtdrEngine::new();
        let fast = engine.estimate(&net, &profiles, &route, 8.0, 60_000, 7);
        let tol = reference.mean_h * 0.02;
        assert!((fast.mean_h - reference.mean_h).abs() < tol, "{fast:?} vs {reference:?}");
        assert!((fast.p95_h - reference.p95_h).abs() < reference.p95_h * 0.05);
        assert!((fast.std_h - reference.std_h).abs() < reference.std_h * 0.25);
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 63, 17).unwrap();
        let mut a: PtdrEngine = PtdrEngine::new();
        let mut b: PtdrEngine = PtdrEngine::new();
        let x = a.estimate(&net, &profiles, &route, 17.0, 5_000, 42);
        let y = b.estimate(&net, &profiles, &route, 17.0, 5_000, 42);
        assert_eq!(x, y);
        assert_ne!(x, a.estimate(&net, &profiles, &route, 17.0, 5_000, 43));
    }

    #[test]
    fn engine_reuses_tables_across_routes() {
        let (net, profiles) = setup();
        let long = shortest_route(&net, &profiles, 0, 63, 8).unwrap();
        let short = shortest_route(&net, &profiles, 0, 9, 8).unwrap();
        let mut engine: PtdrEngine = PtdrEngine::new();
        let first = engine.estimate(&net, &profiles, &long, 8.0, 2_000, 1);
        let _ = engine.estimate(&net, &profiles, &short, 8.0, 2_000, 1);
        let again = engine.estimate(&net, &profiles, &long, 8.0, 2_000, 1);
        assert_eq!(first, again, "a route in between must not change results");
    }

    #[test]
    fn lane_widths_cover_partial_blocks() {
        let (net, profiles) = setup();
        let route = shortest_route(&net, &profiles, 0, 27, 8).unwrap();
        // Sample counts around the block width exercise every remainder
        // path (full pairs, odd lane, width < LANES, width == 1).
        for samples in [1usize, 2, 3, 31, 32, 33, 63, 64, 65] {
            let mut engine: PtdrEngine = PtdrEngine::new();
            let stats = engine.estimate(&net, &profiles, &route, 9.0, samples, 5);
            assert!(stats.mean_h > 0.0 && stats.p95_h >= 0.0, "samples={samples}");
        }
        let mut narrow: PtdrEngine<4> = PtdrEngine::new();
        let stats = narrow.estimate(&net, &profiles, &route, 9.0, 100, 5);
        assert!(stats.mean_h > 0.0);
    }

    #[test]
    fn lru_cache_evicts_oldest() {
        let mut lru = LruCache::new(2);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        lru.insert(key(1), stats);
        lru.insert(key(2), stats);
        assert!(lru.get(&key(1)).is_some()); // refresh 1 — 2 becomes LRU
        lru.insert(key(3), stats);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&key(2)).is_none(), "key 2 must have been evicted");
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(3)).is_some());
    }

    #[test]
    fn lru_cache_holds_exactly_capacity_entries() {
        let mut lru = LruCache::new(3);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        for n in 1..=3 {
            lru.insert(key(n), stats);
        }
        assert_eq!(lru.len(), 3, "filling to capacity must not evict");
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(2)).is_some());
        // Re-inserting a resident key at full capacity updates in place.
        let updated = TravelTimeStats { mean_h: 9.0, p95_h: 9.5, std_h: 0.2 };
        lru.insert(key(3), updated);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&key(3)).unwrap(), updated);
        assert!(lru.get(&key(1)).is_some() && lru.get(&key(2)).is_some());
        // One past capacity evicts exactly one entry.
        lru.insert(key(4), stats);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn lru_cache_evicts_in_full_recency_order() {
        let mut lru = LruCache::new(3);
        let stats = TravelTimeStats { mean_h: 1.0, p95_h: 2.0, std_h: 0.1 };
        let key = |n: u64| CacheKey { route_hash: n, departure_bin: 0, samples: 100 };
        for n in 1..=3 {
            lru.insert(key(n), stats);
        }
        // Touch order 2, 3, 1 — so evictions must come out 2, 3, 1.
        lru.get(&key(2));
        lru.get(&key(3));
        lru.get(&key(1));
        lru.insert(key(4), stats);
        assert!(lru.get(&key(2)).is_none(), "2 was least recent");
        lru.insert(key(5), stats);
        assert!(lru.get(&key(3)).is_none(), "3 was next");
        // The failed gets above touch nothing, so 1 (refreshed last
        // among the originals, but before 4 and 5 landed) goes next.
        lru.insert(key(6), stats);
        assert!(lru.get(&key(1)).is_none(), "1 evicts after 3");
        assert_eq!(lru.len(), 3);
        for survivor in [4u64, 5, 6] {
            assert!(lru.get(&key(survivor)).is_some(), "key {survivor} must survive");
        }
    }

    #[test]
    fn service_cache_len_respects_capacity_after_eviction() {
        let (net, profiles) = setup();
        let service = PtdrService::new(net, profiles).with_part_capacity(2);
        let route = vec![0usize, 1, 2];
        let q = |h: f64| RouteQuery { route: route.clone(), depart_hour: h, samples: 64 };
        // Three distinct departure bins = three distinct cache keys, all
        // on one route, so all in the part the route maps to.
        let first = service.query(&q(6.0));
        service.query(&q(12.0));
        assert_eq!(service.cache_len(), 2, "two keys fill the cache");
        service.query(&q(18.0));
        assert_eq!(service.cache_len(), 2, "eviction must hold the boundary");
        // Repeats never grow the cache, and the evicted key recomputes
        // to the same bit-identical answer (seed derives from the key).
        assert_eq!(service.query(&q(18.0)), service.query(&q(18.0)));
        assert_eq!(service.cache_len(), 2);
        assert_eq!(service.query(&q(6.0)), first, "recomputed answer must match the original");
    }

    #[test]
    fn cache_key_quantizes_departures_into_bins() {
        let (net, profiles) = setup();
        let service = PtdrService::new(net, profiles);
        let route = vec![0usize, 1, 2];
        let q = |h: f64| RouteQuery { route: route.clone(), depart_hour: h, samples: 100 };
        assert_eq!(service.key(&q(8.0)), service.key(&q(8.24)));
        assert_ne!(service.key(&q(8.0)), service.key(&q(8.30)));
        assert_ne!(
            service.key(&q(8.0)),
            service.key(&RouteQuery { route: vec![0, 1], depart_hour: 8.0, samples: 100 })
        );
        assert_ne!(
            service.key(&q(8.0)),
            service.key(&RouteQuery { route: route.clone(), depart_hour: 8.0, samples: 200 })
        );
        // Hours wrap at midnight; non-finite departures collapse to bin 0.
        assert_eq!(service.key(&q(25.0)).departure_bin, service.key(&q(1.0)).departure_bin);
        assert_eq!(service.key(&q(f64::NAN)).departure_bin, 0);
    }
}
