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
//!   The summary is streaming Welford mean/variance, pushed in a loop of
//!   its own after each block's last edge, plus a `select_nth_unstable`
//!   95th percentile instead of a full sort. RNG words are consumed in
//!   the order the one-loop, one-sample-at-a-time form of this kernel
//!   consumed them, and every floating-point operation is the same
//!   operation on the same operands, so every answer is bit-identical to
//!   that form's — which survives as the unit tests' reference, next to a
//!   committed golden table (`tests/ptdr_golden.rs`).
//! * [`PtdrService`] — the batch front-end: fans a slice of
//!   [`RouteQuery`]s across [`everest_workflow::pool::parallel_map`]
//!   and answers repeated questions from an LRU response cache keyed by
//!   (route hash, departure bin, sample count). Departure times are
//!   quantized to 15-minute bins and the per-query RNG seed is derived
//!   from the cache key, so a cached answer is bit-identical to a
//!   recomputed one and `jobs = N` reproduces `jobs = 1` exactly.
//!   Mirroring the DSE engine, `jobs = 1` is the sequential *reference*
//!   path (no cache consulted); `jobs >= 2` enables the pooled, cached
//!   engine — outputs are identical either way.
//!
//! Telemetry: `ptdr.queries`, `ptdr.cache.hit`, `ptdr.cache.miss`
//! counters, and a `ptdr.batch` span per batch.

use super::lru::LruCache;
pub(crate) use super::lru::{bin_center_hour, cache_key, derive_seed, CacheKey};
use super::{RoadNetwork, SpeedProfiles, TravelTimeStats, HOUR_BINS};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
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
// Streaming summary
// ---------------------------------------------------------------------------

/// Welford's streaming mean/variance, one sample at a time. The engine
/// pushes a block's lanes in a loop of their own once the block's last
/// edge has been stepped, which keeps that step the same branch-free
/// loop as every other edge's; the cost is that each push's divide chain
/// (subtract, divide, add: ≈ 22 cycles, each step waiting on the one
/// before) runs serially.
#[derive(Debug, Default)]
struct Moments {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Moments {
    #[inline(always)]
    fn push(&mut self, t: f64) {
        self.count += 1;
        let delta = t - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (t - self.mean);
    }

    /// Closes the summary over `times`, the samples pushed (reordered in
    /// place by the selection).
    fn finish(self, times: &mut [f64]) -> TravelTimeStats {
        assert_eq!(self.count, times.len(), "one push per sample");
        let var = (self.m2 / times.len() as f64).max(0.0);
        let idx = ((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1);
        let (_, p95, _) = times.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
        TravelTimeStats { mean_h: self.mean, p95_h: *p95, std_h: var.sqrt() }
    }
}

/// Summarizes a sample buffer without sorting it: Welford's
/// streaming mean/variance in one pass, then the 95th percentile via
/// `select_nth_unstable` (average O(n), versus O(n log n) for the sorted
/// reference). Produces the same percentile element the sorted reference
/// indexes at `round(0.95 * (n - 1))`.
///
/// The buffer is reordered in place by the selection.
///
/// # Panics
///
/// Panics on an empty buffer.
pub fn summarize(times: &mut [f64]) -> TravelTimeStats {
    assert!(!times.is_empty(), "need at least one sample");
    let mut moments = Moments::default();
    for &t in times.iter() {
        moments.push(t);
    }
    moments.finish(times)
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
        let mut moments = Moments::default();
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
            for &lane_t in t.iter() {
                moments.push(lane_t);
            }
            self.times.extend_from_slice(t);
            done += width;
        }
        moments.finish(&mut self.times)
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

thread_local! {
    /// One engine per serving thread, so table/scratch buffers amortize
    /// across the queries a worker handles.
    static ENGINE: RefCell<PtdrEngine> = RefCell::new(PtdrEngine::new());
}

/// The PTDR serving engine: owns the network and learned speed profiles,
/// fans batches across a worker pool, and caches finished responses.
pub struct PtdrService {
    network: RoadNetwork,
    profiles: SpeedProfiles,
    jobs: usize,
    seed: u64,
    /// Finished responses, each with the instant it was computed at.
    cache: Mutex<LruCache<(TravelTimeStats, Instant)>>,
}

impl PtdrService {
    /// A service over `network`/`profiles` with `jobs = 1` (the
    /// sequential reference path) and a 4096-entry response cache.
    pub fn new(network: RoadNetwork, profiles: SpeedProfiles) -> PtdrService {
        PtdrService { network, profiles, jobs: 1, seed: 0, cache: Mutex::new(LruCache::new(4096)) }
    }

    /// Sets the worker count: `1` serves batches sequentially without
    /// consulting the response cache (the bit-identical reference), `2+`
    /// fans queries across the pool with caching enabled.
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

    /// Replaces the response cache with an empty one of `capacity`
    /// entries (clamped to at least 1): whatever was cached is dropped.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> PtdrService {
        self.cache = Mutex::new(LruCache::new(capacity));
        self
    }

    /// Number of cached responses.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }

    /// The cache identity of `query` (see [`cache_key`]).
    pub(crate) fn key(&self, query: &RouteQuery) -> CacheKey {
        cache_key(&query.route, query.depart_hour, query.samples)
    }

    /// Computes a query on this thread's engine, bypassing the cache.
    fn compute(&self, query: &RouteQuery, key: &CacheKey) -> TravelTimeStats {
        ENGINE.with(|engine| {
            engine.borrow_mut().estimate(
                &self.network,
                &self.profiles,
                &query.route,
                bin_center_hour(key),
                query.samples,
                derive_seed(self.seed, key),
            )
        })
    }

    /// Serves one query through the response cache.
    ///
    /// Latency telemetry: misses always observe
    /// `ptdr.query.latency_us`; hits observe it (plus
    /// `ptdr.cache.hit_age_us`) sampled one-in-sixteen on the cache
    /// tick, so the sub-µs warm path pays a couple of nanoseconds
    /// amortized while the percentile estimates stay representative.
    fn serve_cached(&self, query: &RouteQuery) -> TravelTimeStats {
        let telemetry = everest_telemetry::metrics();
        telemetry.counter_inc("ptdr.queries");
        let start = Instant::now();
        let key = self.key(query);
        let (hit, tick) = {
            let mut cache = self.cache.lock();
            (cache.get(&key), cache.tick())
        };
        if let Some((stats, inserted)) = hit {
            telemetry.counter_inc("ptdr.cache.hit");
            if tick % 16 == 0 {
                telemetry.observe("ptdr.cache.hit_age_us", inserted.elapsed().as_secs_f64() * 1e6);
                telemetry.observe("ptdr.query.latency_us", start.elapsed().as_secs_f64() * 1e6);
            }
            return stats;
        }
        telemetry.counter_inc("ptdr.cache.miss");
        everest_telemetry::flight().marker("ptdr.cache.miss", 1.0);
        let stats = self.compute(query, &key);
        let computed = Instant::now();
        self.cache.lock().insert(key, (stats, computed));
        telemetry.observe("ptdr.query.latency_us", start.elapsed().as_secs_f64() * 1e6);
        stats
    }

    /// Answers a single query (always cache-enabled). The warm path — a
    /// repeated key — is a pure lookup: no sampling, no heap allocation.
    pub fn query(&self, query: &RouteQuery) -> TravelTimeStats {
        self.serve_cached(query)
    }

    /// Answers a batch of queries. Results land in input order and are
    /// bit-identical for every `jobs` setting: `jobs = 1` recomputes
    /// every query sequentially (the reference), `jobs >= 2` fans the
    /// batch across [`everest_workflow::pool::parallel_map`] workers
    /// with the response cache deduplicating repeated keys.
    pub fn route_batch(&self, queries: &[RouteQuery]) -> Vec<TravelTimeStats> {
        let mut span = everest_telemetry::span("ptdr.batch", "traffic");
        span.attr("queries", queries.len());
        span.attr("jobs", self.jobs);
        if self.jobs <= 1 {
            queries
                .iter()
                .map(|query| {
                    let telemetry = everest_telemetry::metrics();
                    telemetry.counter_inc("ptdr.queries");
                    let start = Instant::now();
                    let out = self.compute(query, &self.key(query));
                    telemetry.observe("ptdr.query.latency_us", start.elapsed().as_secs_f64() * 1e6);
                    out
                })
                .collect()
        } else {
            everest_workflow::pool::parallel_map(
                "ptdr.batch.worker",
                self.jobs,
                queries.iter().collect(),
                |_, query| self.serve_cached(query),
            )
        }
    }
}

#[cfg(test)]
mod tests {
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
    /// copied per route, draw and arithmetic interleaved lane by lane, and
    /// the summary as a pass of its own.
    fn estimate_reference<const LANES: usize>(
        network: &RoadNetwork,
        profiles: &SpeedProfiles,
        route: &[usize],
        depart_hour: f64,
        samples: usize,
        seed: u64,
    ) -> TravelTimeStats {
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
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for (i, &t) in times.iter().enumerate() {
            let delta = t - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (t - mean);
        }
        let var = (m2 / times.len() as f64).max(0.0);
        let idx = ((0.95 * (times.len() - 1) as f64).round() as usize).min(times.len() - 1);
        let (_, p95, _) = times.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
        TravelTimeStats { mean_h: mean, p95_h: *p95, std_h: var.sqrt() }
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
        let service = PtdrService::new(net, profiles).with_cache_capacity(2);
        let route = vec![0usize, 1, 2];
        let q = |h: f64| RouteQuery { route: route.clone(), depart_hour: h, samples: 64 };
        // Three distinct departure bins = three distinct cache keys.
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
