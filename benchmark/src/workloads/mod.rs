//! The five workloads and what they share: the traced compile chain,
//! the traffic inputs of the serving tier, and output digests.

pub mod cascade_e2e;
pub mod dse_sweep;
pub mod runtime_mix;
pub mod serve;

use crate::harness::{Metrics, Scale};
use crate::trace::Trace;
use everest::apps::traffic::serve::{
    Arrival, LoadGen, ServeConfig, ServeReport, ServeTier, ShedPolicy,
};
use everest::apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};
use everest::dsl::{lower, parser, typecheck};
use everest::hls::cache::ConfigKey;
use everest::hls::HlsConfig;
use everest::ir::pass::PassManager;
use everest::variants::pareto;
use everest::{Compiled, CompiledKernel, Sdk, Variant};
use everest_telemetry::MetricsSnapshot;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Side of the synthetic city grid, nodes.
const GRID: usize = 12;
/// Floating-car-data points the speed profiles are learned from.
const FCD_POINTS: usize = 150_000;
/// Commutes in the load generator's route pool.
pub const POOL_ROUTES: usize = 64;
pub const SHARDS: usize = 4;
pub const QUEUE_DEPTH: usize = 64;
/// Generator days set aside for each seed (a workload uses at most 5).
const DAYS_PER_SEED: u64 = 8;
/// Arrivals of one generated day, before `--quick` scaling.
pub const DAY_ARRIVALS: usize = 30_000;

/// Feeds text into a digest. `DefaultHasher::new()` is keyed with
/// constants, so digests compare across processes.
pub fn digest_str(h: &mut DefaultHasher, text: &str) {
    h.write(text.as_bytes());
    h.write_u8(0xff);
}

/// Feeds every variant's id (which names its design point) and
/// predicted metrics into a digest.
pub fn digest_variants(h: &mut DefaultHasher, variants: &[Variant]) {
    for v in variants {
        digest_str(h, &v.id);
        let m = &v.metrics;
        for bits in [m.latency_us.to_bits(), m.transfer_us.to_bits(), m.energy_mj.to_bits()] {
            h.write_u64(bits);
        }
        h.write_u64(m.area_luts);
        h.write_u64(m.area_brams);
    }
}

/// `Sdk::compile`, or — when tracing — the same chain called function
/// by public function with a span around each. The traced and untraced
/// passes of a run must digest identically, which is what proves the
/// decomposition equal to the façade.
pub fn compile(sdk: &Sdk, source: &str, t: &mut Trace) -> Result<Compiled, String> {
    if !t.enabled() {
        return sdk.compile(source).map_err(|e| e.to_string());
    }
    t.begin("core", "compile");
    let compiled = compile_decomposed(sdk, source, t);
    t.end();
    compiled
}

fn compile_decomposed(sdk: &Sdk, source: &str, t: &mut Trace) -> Result<Compiled, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let program = t.call("dsl", "parse", || parser::parse_program(source)).map_err(|e| err(&e))?;
    t.call("dsl", "typecheck", || typecheck::check_program(&program)).map_err(|e| err(&e))?;
    let mut module =
        t.call("dsl", "lower", || lower::lower_program(&program)).map_err(|e| err(&e))?;
    t.call("ir", "passes", || PassManager::standard().run(&mut module)).map_err(|e| err(&e))?;
    t.call("ir", "verify", || module.verify()).map_err(|e| err(&e))?;
    let points = t.call("variants", "enumerate", || sdk.space.enumerate_knobs()).len();
    let sets = {
        let funcs: Vec<&everest::ir::Func> = module.iter().collect();
        t.call("variants", "generate_all", || {
            everest::variants::generate_all(&funcs, &sdk.space, sdk.jobs)
        })
        .map_err(|e| err(&e))?
    };
    debug_assert!(sets.iter().all(|s| s.len() == points));
    let kernels = module
        .iter()
        .zip(sets)
        .map(|(func, variants)| CompiledKernel { name: func.name.clone(), variants })
        .collect();
    Ok(Compiled { module, kernels, explore: None })
}

/// Pareto fronts of every kernel of `compiled`, as one `variants` span.
pub fn fronts(compiled: &Compiled, t: &mut Trace) -> Vec<Vec<Variant>> {
    t.call("variants", "pareto", || {
        compiled.kernels.iter().map(|k| pareto::pareto_front(&k.variants)).collect()
    })
}

/// Seed of the city itself: road network, floating-car data and the
/// generator's route pool. Every `--seed` serves the same city — route
/// lengths decide what a query costs, and a run must do the same amount
/// of work whatever its seed — and draws its own days of arrivals.
const CITY_SEED: u64 = 2026;

/// The serving tier's inputs: city network, learned speed profiles and
/// the open-loop load generator.
pub struct Traffic {
    pub network: RoadNetwork,
    pub profiles: SpeedProfiles,
    pub gen: LoadGen,
    pub seed: u64,
}

impl Traffic {
    pub fn new(seed: u64, scale: Scale) -> Traffic {
        let network = RoadNetwork::grid(CITY_SEED, GRID, 1.0);
        let fcd = generate_fcd(&network, CITY_SEED, scale.div(FCD_POINTS));
        let profiles = SpeedProfiles::learn(&network, &fcd);
        let gen = LoadGen::new(&network, &profiles, POOL_ROUTES, CITY_SEED);
        Traffic { network, profiles, gen, seed }
    }

    /// A 4-shard shed-oldest tier over this network at `jobs` workers.
    /// `--quick` shrinks the caches with the days, so that a day still
    /// turns the edge caches over as a full-size day does.
    pub fn tier(&self, jobs: usize, scale: Scale) -> ServeTier {
        let mut config = ServeConfig::new(SHARDS);
        config.edge_cache = scale.div(config.edge_cache);
        config.cloud_cache = scale.div(config.cloud_cache);
        config.seed = self.seed;
        config.jobs = jobs;
        config.queue_depth = QUEUE_DEPTH;
        config.policy = ShedPolicy::ShedOldest;
        ServeTier::new(self.network.clone(), self.profiles.clone(), config)
    }

    /// The `day`-th day of this seed: `arrivals` open-loop arrivals
    /// offered at `qps`. Arrival times are stamped by the generator in
    /// virtual time, so the generator is never late: lateness is 0 by
    /// construction.
    pub fn day(&self, day: u64, qps: f64, arrivals: usize) -> Vec<Arrival> {
        let day = self.seed.wrapping_mul(DAYS_PER_SEED).wrapping_add(day);
        self.gen.generate(day, qps, arrivals as f64 / qps, arrivals * 2)
    }
}

/// `arrivals = served + shed + rejected`, shard by shard.
pub fn check_conservation(report: &ServeReport) -> Result<(), String> {
    for s in &report.shards {
        if s.arrivals != s.served + s.shed + s.rejected {
            return Err(format!("shard {} loses queries: {s:?}", s.shard));
        }
    }
    if report.arrivals() != report.results.len() as u64 {
        return Err(format!(
            "{} arrivals routed but {} results returned",
            report.arrivals(),
            report.results.len()
        ));
    }
    Ok(())
}

/// The distinct synthesis configurations among a space's hardware
/// points (points that differ only in attachment share one).
pub fn distinct_hls_configs(space: &everest::DesignSpace) -> Vec<HlsConfig> {
    let mut configs: Vec<HlsConfig> = Vec::new();
    for knob in space.enumerate_knobs().iter().filter(|k| k.is_hardware()) {
        let config = knob.hls_config();
        if !configs.iter().any(|c| ConfigKey::of(c) == ConfigKey::of(&config)) {
            configs.push(config);
        }
    }
    configs
}

/// The program's own counters over one traced pass.
pub struct Counters {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Entries in the synthesis memo when the pass ended.
    pub memo_entries: usize,
}

impl Counters {
    pub fn delta(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }
}

impl Metrics {
    /// Sets `metric` to the median over traced passes of the time one
    /// pass spent in spans `layer`/`name`, µs.
    pub fn span_us(&mut self, t: &Trace, layer: &str, name: &str, metric: &str) {
        self.set(metric, t.median_us(layer, name));
    }
}

/// What every compile workload reports about the front end and the
/// variant layers, from the spans of [`compile`] and [`fronts`].
pub fn compile_layers(t: &Trace, m: &mut Metrics) {
    m.span_us(t, "dsl", "parse", "dsl.parse_us");
    m.span_us(t, "dsl", "typecheck", "dsl.typecheck_us");
    m.span_us(t, "dsl", "lower", "dsl.lower_us");
    m.span_us(t, "ir", "passes", "ir.passes_us");
    m.span_us(t, "ir", "verify", "ir.verify_us");
    m.span_us(t, "variants", "enumerate", "variants.enumerate_us");
    m.span_us(t, "variants", "generate_all", "variants.generate_us");
    m.span_us(t, "variants", "pareto", "variants.pareto_us");
    m.set("core.compile_s", t.median_us("core", "compile") / 1e6);
}

/// Hit/miss counts of the synthesis memo over one pass.
pub fn memo_layers(c: &Counters, m: &mut Metrics) {
    let hit = c.delta("dse.hls.cache.hit");
    let miss = c.delta("dse.hls.cache.miss");
    m.set("hls.cache_hit", hit);
    m.set("hls.cache_miss", miss);
    m.set("hls.cache_hit_share", if hit + miss > 0.0 { hit / (hit + miss) } else { 0.0 });
    m.set("hls.cache_entries", c.memo_entries as f64);
}
