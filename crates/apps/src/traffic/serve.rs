//! City-scale sharded PTDR serving tier over the endpoint→edge→cloud
//! hierarchy (paper Fig. 3 + §VI-C, "route calculation as a service").
//!
//! [`PtdrService`](super::service::PtdrService) is a single-node pool
//! with one LRU cache. This module scales that design out the way the
//! paper's ecosystem does: end-point devices emit route queries, a rank
//! of **inner-edge shards** answers them from per-shard caches, and the
//! **cloud tier** backs every shard with a larger cache plus the
//! Monte-Carlo recompute path. The pieces:
//!
//! * [`HashRing`] — consistent-hash routing of `CacheKey` route
//!   hashes to shards, with virtual nodes so adding or removing a shard
//!   moves only ~1/N of the key space (and *every* moved key lands on
//!   the changed shard — the segment-claiming property the proptest
//!   suite pins down).
//! * [`ServeTier`] — N shards, each owning a small edge LRU, a larger
//!   cloud-partition LRU (the cloud tier is co-partitioned with the
//!   ring, as a real deployment does to keep fill affinity local), a
//!   [`PtdrEngine`] for recomputes, and a **bounded admission queue**:
//!   arrivals beyond `queue_depth` waiting queries are load-shed —
//!   [`ShedPolicy::RejectNew`] turns new arrivals away,
//!   [`ShedPolicy::ShedOldest`] drops the longest-waiting query to
//!   admit the new one. Shed work is counted, never silently lost.
//! * [`LoadGen`] — an open-loop synthetic workload: a diurnal
//!   (rush-hour double-peak) arrival-rate curve thinned from a Poisson
//!   stream, Zipf-distributed route popularity over millions of user
//!   ranks (each rank maps to a sub-route of a city route pool plus a
//!   per-rank sample budget), deterministic from a seed.
//!
//! **Determinism.** Queueing and shedding run in *virtual time*: each
//! shard is a single-server queue whose service costs come from the
//! platform's tier model ([`ServeCostModel`]) — a pure function of the
//! query shape and cache outcome, never the wall clock. Shards share no
//! mutable state, fan out on [`everest_workflow::pool::parallel_map`],
//! and per-query seeds derive from the cache key, so the same seed and
//! topology produce identical shard assignment, identical shed/admit
//! decisions, identical virtual latencies, and bit-identical statistics
//! at any `jobs` count. Wall-clock throughput is measured over the run
//! ([`ServeReport::wall_s`]) and reported separately.
//!
//! **A run is two fan-outs and a merge.** *Admission* cuts the workload
//! into one chunk of consecutive arrivals a worker (`serve.admit` on the
//! same pool; inline at `jobs = 1`): a worker checks its chunk's time
//! order (against the last arrival of the chunk before it, too), writes
//! each arrival's `CacheKey` into its own slice of one key table, and
//! returns per shard the indices of the chunk's arrivals the ring routes
//! there. Then each *shard* (`serve.shard`) walks its lists chunk by
//! chunk. Indices ascend within a list and every index of a chunk is
//! below every index of the next, so a shard meets its arrivals in
//! global arrival order however the day was cut — the number of chunks,
//! like the number of workers, changes when work runs and never what it
//! computes. The *merge* scatters the shards' results into arrival order
//! and sums histograms and busy time in shard order, on the calling
//! thread. Nothing on the path of a cache-answered arrival reads a
//! clock, hashes a key with SipHash more than the once that makes the
//! key, or allocates (`tests/serve_props.rs` pins the last).
//!
//! Telemetry: `serve.queries`, `serve.shard.{hit,miss,fill,shed,
//! rejected}` counters, per-shard `serve.shard<i>.queue_depth` peak
//! gauges, and `serve.query.latency_us` / `serve.queue.wait_us`
//! virtual-time histograms, all exported through `everestc stats`.

use super::lru::LruCache;
pub use super::ring::HashRing;
pub(crate) use super::ring::DEFAULT_VNODES;
use super::service::RouteQuery;
use super::service::{bin_center_hour, cache_key, derive_seed, CacheKey, PtdrEngine};
use super::{random_od, shortest_route, RoadNetwork, SpeedProfiles, TravelTimeStats};
use everest_platform::ecosystem::ServeCostModel;
use everest_telemetry::{HistogramSnapshot, LogHistogram};
use everest_workflow::seed::mix;
use parking_lot::Mutex;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::time::Instant;

/// Shortest sub-route the load generator synthesizes, edges.
pub(crate) const MIN_ROUTE_EDGES: usize = 4;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What a shard does with an arrival once its admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Turn the new arrival away (tail drop); counted as `rejected`.
    RejectNew,
    /// Drop the longest-waiting query to admit the new one; counted as
    /// `shed`.
    ShedOldest,
}

impl std::str::FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<ShedPolicy, String> {
        match s {
            "reject-new" => Ok(ShedPolicy::RejectNew),
            "shed-oldest" => Ok(ShedPolicy::ShedOldest),
            other => Err(format!("unknown shed policy '{other}' (reject-new, shed-oldest)")),
        }
    }
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedPolicy::RejectNew => "reject-new",
            ShedPolicy::ShedOldest => "shed-oldest",
        })
    }
}

/// Configuration of a [`ServeTier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Edge shard count.
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Per-shard edge-cache capacity (the small hot set).
    pub edge_cache: usize,
    /// Per-shard cloud-partition capacity (the large backing cache).
    pub cloud_cache: usize,
    /// Bounded admission queue: maximum *waiting* queries per shard
    /// (clamped to at least 1).
    pub queue_depth: usize,
    /// What to do with arrivals once the queue is full.
    pub policy: ShedPolicy,
    /// Base seed mixed into every per-query seed.
    pub seed: u64,
    /// Worker threads the shard set fans out on (`1` = inline).
    pub jobs: usize,
    /// Virtual service-cost model (see [`ServeCostModel`]).
    pub cost: ServeCostModel,
}

impl ServeConfig {
    /// A tier of `shards` shards with the default knobs.
    pub fn new(shards: usize) -> ServeConfig {
        ServeConfig {
            shards: shards.max(1),
            vnodes: DEFAULT_VNODES,
            edge_cache: 2_048,
            cloud_cache: 65_536,
            queue_depth: 64,
            policy: ShedPolicy::RejectNew,
            seed: 0,
            jobs: 1,
            cost: ServeCostModel::edge_shard(),
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// The sharded tier
// ---------------------------------------------------------------------------

/// Per-shard cache + engine state, persistent across runs so a repeated
/// workload measures the warm path.
struct ShardState {
    edge: LruCache<TravelTimeStats>,
    cloud: LruCache<TravelTimeStats>,
    engine: PtdrEngine,
}

/// Deterministic per-shard accounting of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Queries routed to this shard.
    pub arrivals: u64,
    /// Queries actually served (admitted and completed).
    pub served: u64,
    /// Edge-cache hits.
    pub edge_hits: u64,
    /// Edge-cache misses (cloud-tier consultations).
    pub edge_misses: u64,
    /// Cloud misses: full Monte-Carlo recomputes filled back into both
    /// tiers. Cloud *hits* are `edge_misses - cloud_fills`.
    pub cloud_fills: u64,
    /// Queries dropped by [`ShedPolicy::ShedOldest`].
    pub shed: u64,
    /// Queries dropped by [`ShedPolicy::RejectNew`].
    pub rejected: u64,
    /// Peak waiting-queue depth observed.
    pub peak_queue: usize,
}

/// Virtual busy time is f64, so it rides outside the Eq-able counter
/// block.
struct ShardRun {
    report: ShardReport,
    busy_us: f64,
    latency: LogHistogram,
    wait: LogHistogram,
    results: Vec<(u32, Option<TravelTimeStats>)>,
}

/// What admission made of one chunk of consecutive arrivals.
struct AdmittedChunk {
    /// Whether the chunk is in time order, its first arrival against the
    /// last of the chunk before it included.
    sorted: bool,
    /// Per shard, the workload indices of the chunk's arrivals the ring
    /// routes there, ascending.
    by_shard: Vec<Vec<u32>>,
}

/// Outcome of one [`ServeTier::run`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-arrival results in arrival order; `None` = shed/rejected.
    pub results: Vec<Option<TravelTimeStats>>,
    /// Per-shard accounting, shard order.
    pub shards: Vec<ShardReport>,
    /// Virtual sojourn latency (queue wait + service) of served
    /// queries, microseconds.
    pub latency: HistogramSnapshot,
    /// Virtual queue-wait component, microseconds.
    pub wait: HistogramSnapshot,
    /// Total virtual service time across shards, microseconds.
    pub busy_us: f64,
    /// Real wall-clock seconds the run took, from entering
    /// [`ServeTier::run`] to the merged report: admission, the shard
    /// fan-out and the merge (publishing the telemetry is not in it).
    pub wall_s: f64,
}

impl ServeReport {
    /// Total arrivals routed.
    pub fn arrivals(&self) -> u64 {
        self.shards.iter().map(|s| s.arrivals).sum()
    }

    /// Queries served (admitted and completed).
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Queries dropped (shed + rejected).
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.shed + s.rejected).sum()
    }

    /// Edge-cache hit count across shards.
    pub fn edge_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.edge_hits).sum()
    }

    /// Edge-cache miss count across shards.
    pub fn edge_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.edge_misses).sum()
    }

    /// Full recomputes (cloud misses) across shards.
    pub fn cloud_fills(&self) -> u64 {
        self.shards.iter().map(|s| s.cloud_fills).sum()
    }

    /// Mean virtual service cost of a served query, microseconds.
    pub(crate) fn mean_service_cost_us(&self) -> f64 {
        self.busy_us / self.served().max(1) as f64
    }

    /// Virtual serving capacity implied by this run's cache behaviour:
    /// one query per `mean_service_cost_us` per shard.
    pub(crate) fn capacity_qps(&self) -> f64 {
        self.shards.len() as f64 * 1e6 / self.mean_service_cost_us().max(1e-9)
    }

    /// Real wall-clock throughput of served queries.
    pub fn served_per_sec_wall(&self) -> f64 {
        self.served() as f64 / self.wall_s.max(1e-12)
    }

    /// Bit-exact digest of every per-query outcome plus the shard
    /// counters — equal digests mean equal serving behaviour.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in &self.results {
            match r {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:016x}{:016x}{:016x}",
                        s.mean_h.to_bits(),
                        s.p95_h.to_bits(),
                        s.std_h.to_bits()
                    );
                }
                None => out.push_str("dropped\n"),
            }
        }
        for s in &self.shards {
            let _ = writeln!(out, "{s:?}");
        }
        out
    }
}

/// The sharded serving tier: consistent-hash routing onto edge shards,
/// cloud-tier fill on miss, bounded admission with load shedding. See
/// the module docs for the design and determinism argument.
pub struct ServeTier {
    network: RoadNetwork,
    profiles: SpeedProfiles,
    config: ServeConfig,
    ring: HashRing,
    states: Vec<Mutex<ShardState>>,
}

impl ServeTier {
    /// A tier over `network`/`profiles` with `config`.
    pub fn new(
        network: RoadNetwork,
        profiles: SpeedProfiles,
        mut config: ServeConfig,
    ) -> ServeTier {
        config.shards = config.shards.max(1);
        config.queue_depth = config.queue_depth.max(1);
        config.jobs = config.jobs.max(1);
        let ring = HashRing::new(config.shards, config.vnodes.max(1));
        let states = (0..config.shards)
            .map(|_| {
                Mutex::new(ShardState {
                    edge: LruCache::new(config.edge_cache),
                    cloud: LruCache::new(config.cloud_cache),
                    engine: PtdrEngine::new(),
                })
            })
            .collect();
        ServeTier { network, profiles, config, ring, states }
    }

    /// The tier's configuration (knobs clamped).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Drops every cached response (cold restart); the ring and
    /// configuration are untouched.
    pub fn reset(&self) {
        for state in &self.states {
            let mut state = state.lock();
            state.edge = LruCache::new(self.config.edge_cache);
            state.cloud = LruCache::new(self.config.cloud_cache);
        }
    }

    /// Estimates the tier's serving capacity (queries/second) by
    /// running `queries` arrivals of generator day `day` at a
    /// deliberately low rate (half the worst-case all-miss capacity, so
    /// queueing is negligible) and reading the mean virtual service
    /// cost back. The estimate is deterministic and reflects the
    /// *current* cache contents: calibrate once on a cold tier for the
    /// all-miss floor, then again on a fresh day for the steady-state
    /// mixed-hit capacity (each calibration warms the caches as a side
    /// effect; [`ServeTier::reset`] drops them).
    pub fn calibrate(&self, gen: &LoadGen, day: u64, queries: usize) -> f64 {
        let worst = self.config.cost.worst_case_us(gen.longest_route_edges(), gen.max_samples());
        let safe_qps = self.config.shards as f64 * 1e6 / (2.0 * worst);
        let workload = gen.generate(day, safe_qps, queries as f64 / safe_qps, queries);
        self.run_inner(&workload, false).capacity_qps()
    }

    /// Serves an open-loop arrival stream (must be time-ordered) and
    /// reports per-query results, shard accounting, and virtual latency
    /// percentiles. Publishes `serve.*` telemetry to the global
    /// registry.
    ///
    /// # Panics
    ///
    /// Panics when `workload` is not sorted by arrival time.
    pub fn run(&self, workload: &[Arrival]) -> ServeReport {
        self.run_inner(workload, true)
    }

    fn run_inner(&self, workload: &[Arrival], publish: bool) -> ServeReport {
        let started = Instant::now();
        let mut span = everest_telemetry::span("serve.tier", "traffic");
        span.attr("arrivals", workload.len());
        span.attr("shards", self.config.shards);
        span.attr("jobs", self.config.jobs);
        let mut keys =
            vec![CacheKey { route_hash: 0, departure_bin: 0, samples: 0 }; workload.len()];
        let admitted = self.admit(workload, &mut keys);
        assert!(
            admitted.iter().all(|chunk| chunk.sorted),
            "open-loop workload must be sorted by arrival time"
        );
        let runs = everest_workflow::pool::parallel_map(
            "serve.shard",
            self.config.jobs,
            (0..self.config.shards).collect(),
            |_, shard| self.run_shard(shard, &admitted, workload, &keys),
        );

        // Single-threaded merge in shard order: counters, histograms and
        // the per-arrival result table are identical at any job count.
        let mut results: Vec<Option<TravelTimeStats>> = vec![None; workload.len()];
        let mut latency = LogHistogram::new();
        let mut wait = LogHistogram::new();
        let mut shards = Vec::with_capacity(runs.len());
        let mut busy_us = 0.0;
        for run in &runs {
            for &(i, stats) in &run.results {
                results[i as usize] = stats;
            }
            latency.merge_from(&run.latency);
            wait.merge_from(&run.wait);
            busy_us += run.busy_us;
            shards.push(run.report);
        }
        let report = ServeReport {
            results,
            shards,
            latency: latency.snapshot("serve.query.latency_us"),
            wait: wait.snapshot("serve.queue.wait_us"),
            busy_us,
            wall_s: started.elapsed().as_secs_f64(),
        };
        if publish {
            self.publish(&report, &latency, &wait);
        }
        report
    }

    /// Admission: checks the time order, writes every arrival's cache
    /// key into `keys` and deals the arrivals to their shards, as chunks
    /// of consecutive arrivals on the pool. Each worker writes the keys
    /// of its chunk in place and returns, per shard, the indices of the
    /// chunk's arrivals; walked chunk by chunk, a shard's lists name its
    /// arrivals in arrival order however the day was cut.
    fn admit(&self, workload: &[Arrival], keys: &mut [CacheKey]) -> Vec<AdmittedChunk> {
        assert!(
            u32::try_from(workload.len()).is_ok(),
            "a workload is indexed by u32: {} arrivals are too many",
            workload.len()
        );
        // One chunk a worker: cutting the day finer measured no better.
        let chunk_len = workload.len().div_ceil(self.config.jobs).max(1);
        let shards = self.config.shards;
        let chunks: Vec<(&[Arrival], &mut [CacheKey])> =
            workload.chunks(chunk_len).zip(keys.chunks_mut(chunk_len)).collect();
        everest_workflow::pool::parallel_map(
            "serve.admit",
            self.config.jobs,
            chunks,
            |chunk, (arrivals, keys)| {
                let base = chunk * chunk_len;
                let sorted = workload[base.saturating_sub(1)..base + arrivals.len()]
                    .windows(2)
                    .all(|w| w[0].at_us <= w[1].at_us);
                // An even share and a quarter: most lists never regrow.
                let share = arrivals.len() / shards;
                let mut by_shard: Vec<Vec<u32>> =
                    (0..shards).map(|_| Vec::with_capacity(share + share / 4 + 8)).collect();
                for (i, (arrival, key)) in arrivals.iter().zip(keys.iter_mut()).enumerate() {
                    let q = &arrival.query;
                    *key = cache_key(&q.route, q.depart_hour, q.samples);
                    by_shard[self.ring.shard_of(key.route_hash)].push((base + i) as u32);
                }
                AdmittedChunk { sorted, by_shard }
            },
        )
    }

    /// Exports one run's accounting into the global metrics registry.
    fn publish(&self, report: &ServeReport, latency: &LogHistogram, wait: &LogHistogram) {
        let m = everest_telemetry::metrics();
        m.counter_add("serve.queries", report.arrivals());
        m.counter_add("serve.shard.hit", report.edge_hits());
        m.counter_add("serve.shard.miss", report.edge_misses());
        m.counter_add("serve.shard.fill", report.cloud_fills());
        m.counter_add("serve.shard.shed", report.shards.iter().map(|s| s.shed).sum());
        m.counter_add("serve.shard.rejected", report.shards.iter().map(|s| s.rejected).sum());
        for s in &report.shards {
            m.gauge_max(&format!("serve.shard{}.queue_depth", s.shard), s.peak_queue as f64);
        }
        m.merge_histogram("serve.query.latency_us", latency);
        m.merge_histogram("serve.queue.wait_us", wait);
    }

    /// One shard's virtual-time single-server queue over its arrivals.
    fn run_shard(
        &self,
        shard: usize,
        admitted: &[AdmittedChunk],
        workload: &[Arrival],
        keys: &[CacheKey],
    ) -> ShardRun {
        let mut state = self.states[shard].lock();
        let state = &mut *state;
        let mut run = ShardRun {
            report: ShardReport {
                shard,
                arrivals: 0,
                served: 0,
                edge_hits: 0,
                edge_misses: 0,
                cloud_fills: 0,
                shed: 0,
                rejected: 0,
                peak_queue: 0,
            },
            busy_us: 0.0,
            latency: LogHistogram::new(),
            wait: LogHistogram::new(),
            results: Vec::with_capacity(admitted.iter().map(|c| c.by_shard[shard].len()).sum()),
        };
        let mut waiting: VecDeque<u32> = VecDeque::new();
        let mut busy_until = 0.0f64;

        let serve_front =
            |state: &mut ShardState, run: &mut ShardRun, gi: u32, busy_until: &mut f64| {
                let (arrival, key) = (&workload[gi as usize], &keys[gi as usize]);
                let start = busy_until.max(arrival.at_us);
                let (stats, cost) = self.answer(state, arrival, key, &mut run.report);
                *busy_until = start + cost;
                run.busy_us += cost;
                run.latency.observe(*busy_until - arrival.at_us);
                run.wait.observe(start - arrival.at_us);
                run.report.served += 1;
                run.results.push((gi, Some(stats)));
            };

        for &gi in admitted.iter().flat_map(|chunk| &chunk.by_shard[shard]) {
            let t = workload[gi as usize].at_us;
            // Serve every waiting query whose service starts before the
            // new arrival lands.
            while busy_until <= t {
                let Some(&front) = waiting.front() else { break };
                serve_front(state, &mut run, front, &mut busy_until);
                waiting.pop_front();
            }
            run.report.arrivals += 1;
            if waiting.len() >= self.config.queue_depth {
                match self.config.policy {
                    ShedPolicy::RejectNew => {
                        run.report.rejected += 1;
                        run.results.push((gi, None));
                        continue;
                    }
                    ShedPolicy::ShedOldest => {
                        let old = waiting.pop_front().expect("full queue is non-empty");
                        run.report.shed += 1;
                        run.results.push((old, None));
                        waiting.push_back(gi);
                    }
                }
            } else {
                waiting.push_back(gi);
            }
            run.report.peak_queue = run.report.peak_queue.max(waiting.len());
        }
        while let Some(&front) = waiting.front() {
            serve_front(state, &mut run, front, &mut busy_until);
            waiting.pop_front();
        }
        run
    }

    /// Answers one admitted query through the edge→cloud cache
    /// hierarchy, returning the stats and the virtual service cost.
    fn answer(
        &self,
        state: &mut ShardState,
        arrival: &Arrival,
        key: &CacheKey,
        report: &mut ShardReport,
    ) -> (TravelTimeStats, f64) {
        let cost = &self.config.cost;
        if let Some(stats) = state.edge.get(key) {
            report.edge_hits += 1;
            return (stats, cost.hit_us);
        }
        report.edge_misses += 1;
        if let Some(stats) = state.cloud.get(key) {
            state.edge.insert(*key, stats);
            return (stats, cost.fill_rtt_us + cost.hit_us);
        }
        report.cloud_fills += 1;
        let stats = state.engine.estimate(
            &self.network,
            &self.profiles,
            &arrival.query.route,
            bin_center_hour(key),
            arrival.query.samples,
            derive_seed(self.config.seed, key),
        );
        state.cloud.insert(*key, stats);
        state.edge.insert(*key, stats);
        (
            stats,
            cost.fill_rtt_us + cost.compute_us(arrival.query.route.len(), arrival.query.samples),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::generate_fcd;
    use super::super::service::PtdrService;
    use super::*;

    fn setup() -> (RoadNetwork, SpeedProfiles) {
        let net = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&net, 2, 40_000);
        let profiles = SpeedProfiles::learn(&net, &fcd);
        (net, profiles)
    }

    fn small_workload(gen: &LoadGen, queries: usize) -> Vec<Arrival> {
        // ~25k q/s offered over a short window: enough pressure to
        // exercise the queue without mass shedding at 2 shards.
        gen.generate(0, 25_000.0, queries as f64 / 25_000.0, queries)
    }

    #[test]
    fn ring_covers_all_shards_roughly_evenly() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for key in 0..10_000u64 {
            counts[ring.shard_of(mix(key))] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            assert!(
                (1_000..=4_500).contains(&n),
                "shard {shard} owns {n}/10000 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        for shards in 1..6usize {
            let old = HashRing::new(shards, 64);
            let new = HashRing::new(shards + 1, 64);
            let mut moved = 0usize;
            const KEYS: usize = 4_000;
            for key in 0..KEYS as u64 {
                let h = mix(key.wrapping_mul(0x2545_f491_4f6c_dd1d));
                let before = old.shard_of(h);
                let after = new.shard_of(h);
                if before != after {
                    moved += 1;
                    assert_eq!(after, shards, "moved key must land on the added shard");
                }
            }
            let expected = KEYS / (shards + 1);
            assert!(
                moved < expected * 2,
                "{shards}→{} shards moved {moved}/{KEYS} keys (expected ~{expected})",
                shards + 1
            );
            assert!(moved > 0, "adding a shard must claim some keys");
        }
    }

    #[test]
    fn tier_matches_single_node_service_bit_for_bit() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 7);
        let workload = small_workload(&gen, 200);
        let mut config = ServeConfig::new(2);
        config.seed = 7;
        config.queue_depth = usize::MAX >> 1; // no shedding
        let tier = ServeTier::new(net.clone(), profiles.clone(), config);
        let report = tier.run(&workload);
        assert_eq!(report.dropped(), 0);
        let service = PtdrService::new(net, profiles).with_seed(7);
        for (arrival, served) in workload.iter().zip(&report.results) {
            let expected = service.query(&arrival.query);
            let got = served.expect("no shedding configured");
            assert_eq!(got, expected, "shard answer diverged from the single-node service");
        }
    }

    #[test]
    fn identical_runs_are_bit_identical_at_any_jobs() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 11);
        let workload = small_workload(&gen, 300);
        let mut reference: Option<String> = None;
        for jobs in [1usize, 2, 4] {
            let mut config = ServeConfig::new(3);
            config.seed = 5;
            config.jobs = jobs;
            config.queue_depth = 8;
            let tier = ServeTier::new(net.clone(), profiles.clone(), config);
            let fp = tier.run(&workload).fingerprint();
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "jobs={jobs} diverged"),
            }
        }
    }

    #[test]
    fn wall_clock_covers_the_run_it_reports() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 17);
        let workload = small_workload(&gen, 300);
        for jobs in [1usize, 2] {
            let mut config = ServeConfig::new(3);
            config.jobs = jobs;
            let tier = ServeTier::new(net.clone(), profiles.clone(), config);
            for pass in ["cold", "replayed"] {
                let around = Instant::now();
                let report = tier.run(&workload);
                let around_s = around.elapsed().as_secs_f64();
                assert!(
                    report.wall_s > 0.0 && report.wall_s <= around_s,
                    "jobs {jobs}, {pass}: wall_s {} outside (0, {around_s}]",
                    report.wall_s
                );
            }
        }
    }

    #[test]
    fn overload_sheds_instead_of_collapsing() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 3);
        let mut config = ServeConfig::new(2);
        config.seed = 3;
        config.queue_depth = 4;
        let tier = ServeTier::new(net.clone(), profiles.clone(), config);
        let capacity = tier.calibrate(&gen, 0, 400);
        tier.reset();
        let workload = gen.generate(1, 3.0 * capacity, 0.05, 4_000);
        let report = tier.run(&workload);
        assert!(report.dropped() > 0, "3x overload must shed");
        assert!(report.served() > 0, "shedding must not starve the shard");
        // Bounded queue ⇒ bounded sojourn: wait is at most queue_depth
        // worst-case services, so p99 stays within a small multiple of
        // the worst-case single-query cost.
        let worst = config.cost.worst_case_us(gen.longest_route_edges(), gen.max_samples());
        let bound = (config.queue_depth + 2) as f64 * worst;
        assert!(
            report.latency.p99() <= bound,
            "p99 {}us exceeds the queue-implied bound {}us",
            report.latency.p99(),
            bound
        );
    }

    #[test]
    fn shed_policies_drop_different_ends_of_the_queue() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 9);
        let workload = {
            // A burst: every query arrives at once, far more than fits.
            let mut w = small_workload(&gen, 64);
            for a in &mut w {
                a.at_us = 0.0;
            }
            w
        };
        let run = |policy: ShedPolicy| {
            let mut config = ServeConfig::new(1);
            config.queue_depth = 8;
            config.policy = policy;
            let tier = ServeTier::new(net.clone(), profiles.clone(), config);
            tier.run(&workload)
        };
        let reject = run(ShedPolicy::RejectNew);
        let shed = run(ShedPolicy::ShedOldest);
        assert_eq!(reject.shards[0].shed, 0);
        assert!(reject.shards[0].rejected > 0);
        assert_eq!(shed.shards[0].rejected, 0);
        assert!(shed.shards[0].shed > 0);
        // Tail drop keeps the earliest arrivals; shed-oldest keeps the
        // latest. With every arrival simultaneous, the first admitted
        // arrivals survive under reject-new and are exactly the ones
        // shed-oldest sacrifices.
        assert!(reject.results[1].is_some());
        assert!(shed.results[1].is_none());
        assert!(reject.results.last().unwrap().is_none());
        assert!(shed.results.last().unwrap().is_some());
    }

    #[test]
    fn caches_persist_across_runs_and_reset_clears_them() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 13);
        let workload = small_workload(&gen, 200);
        let mut config = ServeConfig::new(2);
        config.queue_depth = usize::MAX >> 1;
        let tier = ServeTier::new(net, profiles, config);
        let cold = tier.run(&workload);
        let warm = tier.run(&workload);
        assert!(cold.cloud_fills() > 0);
        assert_eq!(warm.cloud_fills(), 0, "second pass must be all cache hits");
        assert!(warm.mean_service_cost_us() < cold.mean_service_cost_us());
        assert_eq!(
            warm.results, cold.results,
            "cached answers must be bit-identical to computed ones"
        );
        tier.reset();
        let again = tier.run(&workload);
        assert_eq!(again.cloud_fills(), cold.cloud_fills());
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

    #[test]
    fn publishes_serve_counter_families() {
        let (net, profiles) = setup();
        let gen = LoadGen::new(&net, &profiles, 8, 5);
        let workload = small_workload(&gen, 100);
        let before = everest_telemetry::metrics().snapshot();
        let tier = ServeTier::new(net, profiles, ServeConfig::new(2));
        let report = tier.run(&workload);
        let after = everest_telemetry::metrics().snapshot();
        // Other tests publish serve.* concurrently into the global
        // registry, so assert the counters moved by *at least* this
        // run's contribution rather than exactly.
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert!(delta("serve.queries") >= report.arrivals());
        assert!(delta("serve.shard.hit") >= report.edge_hits());
        assert!(delta("serve.shard.miss") >= report.edge_misses());
        assert!(delta("serve.shard.fill") >= report.cloud_fills());
        assert!(after.counters.iter().any(|c| c.name == "serve.shard.shed"));
        assert!(after.counters.iter().any(|c| c.name == "serve.shard.rejected"));
        assert!(after.gauge("serve.shard0.queue_depth").is_some());
        assert!(after.gauge("serve.shard1.queue_depth").is_some());
        assert!(after.histogram("serve.query.latency_us").is_some());
    }
}
