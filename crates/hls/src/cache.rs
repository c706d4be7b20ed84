//! Memoization of synthesis results.
//!
//! Design-space exploration asks for the synthesis of every hardware
//! point, even though many points differ only in knobs (threads, layout,
//! tile size, attachment) that never reach the [`HlsConfig`]. This module
//! collapses that redundancy: a structural content hash of the kernel
//! ([`func_fingerprint`], name-independent so structurally identical
//! kernels share entries) plus a hashable [`ConfigKey`] derived from the
//! HLS-relevant knobs index a process-wide concurrent memo of
//! [`SynthSummary`] records.
//!
//! Naming a point and evaluating it are kept apart. The fingerprint
//! prints the whole kernel, so it costs microseconds where a lookup costs
//! a hash: the keyed entry points — [`SynthCache::probe`] and
//! [`SynthCache::synthesize_keyed`] — take a fingerprint and a key the
//! caller built, which a batch builds once per kernel and once per
//! configuration and not once per point.
//!
//! Concurrent callers racing on the same key are deduplicated: the first
//! caller synthesizes while the rest block on the entry and then read the
//! finished summary, so one synthesis run serves every variant that maps
//! to the key. A failed synthesis leaves nothing behind. Lookups are
//! counted per cache ([`SynthCache::lookups`]) and on the
//! `dse.hls.cache.hit` / `dse.hls.cache.miss` telemetry counters, both
//! through [`SynthCache::count_lookups`].

use crate::accel::{synthesize, HlsConfig, SynthSummary};
use crate::error::HlsResult;
use crate::memory::Scheme;
use crate::oplib::FuKind;
use everest_ir::print::print_func;
use everest_ir::Func;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A structural content hash of a function: the canonical printed form
/// with the symbol name blanked, so two kernels that differ only in name
/// hash identically. Printing is deterministic (attributes are stored in
/// ordered maps and values are numbered in program order), so the
/// fingerprint is stable across processes.
pub fn func_fingerprint(func: &Func) -> u64 {
    // The print opens `func @<name>(`. Hashing around the name gives what
    // hashing a copy with the name cut out (`str::hash`: the bytes, then
    // 0xff) would, and the value is a column of committed tables.
    const OPENING: &str = "func @";
    let text = print_func(func, 0);
    let mut hasher = DefaultHasher::new();
    hasher.write(OPENING.as_bytes());
    hasher.write(&text.as_bytes()[OPENING.len() + func.name.len()..]);
    hasher.write_u8(0xff);
    hasher.finish()
}

/// The HLS-relevant knobs of an [`HlsConfig`], flattened into a hashable
/// key. Two configs with equal keys synthesize to identical results. The
/// key owns no heap memory, so copying one into a map key is a `memcpy`,
/// and it is hashed once, when it is made: a map hashes one word of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigKey {
    knobs: Knobs,
    /// Hash of `knobs`, which is all [`Hash`] feeds a hasher.
    digest: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Knobs {
    /// Functional-unit counts in [`FuKind::ALL`] order.
    budget: [usize; FuKind::ALL.len()],
    /// Bit pattern of the target clock (exact, not rounded).
    clock_bits: u64,
    pipeline: bool,
    banks: usize,
    scheme: Scheme,
    ports_per_bank: usize,
    pe: usize,
    assoc_reduction: bool,
    /// `(taint_bits, check_on_store)` when DIFT is requested.
    dift: Option<(u32, bool)>,
}

impl ConfigKey {
    /// Derives the key for one configuration.
    pub fn of(config: &HlsConfig) -> ConfigKey {
        let knobs = Knobs {
            budget: FuKind::ALL.map(|kind| config.budget.count(kind)),
            clock_bits: config.clock_mhz.to_bits(),
            pipeline: config.pipeline,
            banks: config.banks,
            scheme: config.scheme,
            ports_per_bank: config.ports_per_bank,
            pe: config.pe,
            assoc_reduction: config.assoc_reduction,
            dift: config.dift.as_ref().map(|d| (d.taint_bits, d.check_on_store)),
        };
        let mut hasher = DefaultHasher::new();
        knobs.hash(&mut hasher);
        ConfigKey { knobs, digest: hasher.finish() }
    }
}

impl Hash for ConfigKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

type Key = (u64, ConfigKey);
type Slot = Arc<Mutex<Option<SynthSummary>>>;

/// A concurrent memo of synthesis summaries keyed by
/// `(func_fingerprint, ConfigKey)`.
#[derive(Default)]
pub struct SynthCache {
    map: Mutex<HashMap<Key, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SynthCache {
    /// An empty cache.
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    /// Number of completed entries.
    pub fn len(&self) -> usize {
        self.map.lock().values().filter(|slot| slot.lock().is_some()).count()
    }

    /// `true` when no synthesis result is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (used by benchmarks to measure cold runs).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// `(hits, misses)` counted on this cache since it was created.
    pub fn lookups(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Counts `hits` and `misses` lookups, on this cache and on the
    /// `dse.hls.cache.hit` / `dse.hls.cache.miss` telemetry counters. A
    /// batch calls this once with its totals, so the registry is taken
    /// per batch and not per point.
    pub fn count_lookups(&self, hits: u64, misses: u64) {
        for (total, name, n) in
            [(&self.hits, "dse.hls.cache.hit", hits), (&self.misses, "dse.hls.cache.miss", misses)]
        {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
                everest_telemetry::metrics().counter_add(name, n);
            }
        }
    }

    /// The finished summary under `(fingerprint, key)`, if there is one.
    /// A synthesis of that key in flight on another thread is waited for,
    /// not duplicated. Neither synthesizes nor counts.
    pub fn probe(&self, fingerprint: u64, key: &ConfigKey) -> Option<SynthSummary> {
        let slot = Arc::clone(self.map.lock().get(&(fingerprint, *key))?);
        let summary = *slot.lock();
        summary
    }

    /// Synthesizes `func` under `config` into the entry named
    /// `(fingerprint, key)` — which the caller derived from the same two
    /// ([`func_fingerprint`], [`ConfigKey::of`]) — unless a racing caller
    /// finished it first. Callers racing on one key run one synthesis;
    /// the rest block on the entry. Does not count the lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::HlsError`] from synthesis. A failure is not
    /// cached and leaves no entry behind, so a later call retries.
    pub fn synthesize_keyed(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        func: &Func,
        config: &HlsConfig,
    ) -> HlsResult<SynthSummary> {
        let start = Instant::now();
        let memo_key = (fingerprint, *key);
        let slot: Slot = Arc::clone(self.map.lock().entry(memo_key).or_default());
        let mut entry = slot.lock();
        if let Some(summary) = *entry {
            return Ok(summary);
        }
        everest_telemetry::flight().marker("dse.hls.cache.miss", 1.0);
        let mut span = everest_telemetry::span("hls.synthesize", "hls");
        span.attr("kernel", &func.name);
        match synthesize(func, config) {
            Ok(accelerator) => {
                let summary = accelerator.summary();
                *entry = Some(summary);
                everest_telemetry::metrics().observe(
                    "dse.hls.cache.miss_synthesis_us",
                    start.elapsed().as_secs_f64() * 1e6,
                );
                Ok(summary)
            }
            Err(error) => {
                // Take the placeholder out again. The entry lock goes
                // first: `len` holds the map while it looks into entries.
                drop(entry);
                let mut map = self.map.lock();
                if map.get(&memo_key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
                    map.remove(&memo_key);
                }
                Err(error)
            }
        }
    }
}

/// The process-wide synthesis cache shared by every DSE run. Entries are
/// pure functions of kernel structure and configuration, so sharing
/// across compiles (and across structurally identical kernels) is safe.
pub fn global() -> &'static SynthCache {
    static CACHE: OnceLock<SynthCache> = OnceLock::new();
    CACHE.get_or_init(SynthCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(src: &str, name: &str) -> Func {
        everest_dsl::compile_kernels(src).unwrap().func(name).unwrap().clone()
    }

    #[test]
    fn fingerprint_ignores_kernel_name() {
        let a = kernel("kernel a(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "a");
        let b =
            kernel("kernel bbb(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "bbb");
        assert_eq!(func_fingerprint(&a), func_fingerprint(&b));
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_print_with_the_name_cut_out() {
        for (src, name) in [
            ("kernel a(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "a"),
            (
                "kernel a_long_name(x: tensor<8x8xf64>) -> tensor<8x8xf64> { return x @ x; }",
                "a_long_name",
            ),
            (
                "kernel s(x: tensor<64xf64>) -> tensor<64xf64> { return stencil(x, [0.5, 0.0, 0.5]); }",
                "s",
            ),
        ] {
            let func = kernel(src, name);
            let text = print_func(&func, 0);
            assert!(text.starts_with(&format!("func @{name}(")), "the print opens with the name");
            let canon = text.replacen(&format!("@{name}("), "@(", 1);
            let mut hasher = DefaultHasher::new();
            canon.hash(&mut hasher);
            assert_eq!(func_fingerprint(&func), hasher.finish(), "{name}");
        }
    }

    #[test]
    fn fingerprint_separates_different_bodies() {
        let a = kernel("kernel k(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "k");
        let b = kernel("kernel k(x: tensor<16xf64>) -> tensor<16xf64> { return sigmoid(x); }", "k");
        let c = kernel("kernel k(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "k");
        assert_ne!(func_fingerprint(&a), func_fingerprint(&b));
        assert_ne!(func_fingerprint(&a), func_fingerprint(&c));
    }

    #[test]
    fn config_key_ignores_nothing_relevant() {
        let base = HlsConfig::default();
        assert_eq!(ConfigKey::of(&base), ConfigKey::of(&base.clone()));
        for changed in [
            HlsConfig { banks: base.banks + 1, ..base.clone() },
            HlsConfig { pe: base.pe + 1, ..base.clone() },
            HlsConfig { pipeline: !base.pipeline, ..base.clone() },
            HlsConfig { clock_mhz: base.clock_mhz * 2.0, ..base.clone() },
            HlsConfig { assoc_reduction: !base.assoc_reduction, ..base.clone() },
            HlsConfig { dift: Some(crate::dift::DiftConfig::default()), ..base.clone() },
        ] {
            assert_ne!(ConfigKey::of(&base), ConfigKey::of(&changed));
        }
    }

    /// Probes `(func, config)` and synthesizes it on a miss, the two
    /// calls a batch makes for each key.
    fn fetch(cache: &SynthCache, func: &Func, config: &HlsConfig) -> HlsResult<SynthSummary> {
        let (fingerprint, key) = (func_fingerprint(func), ConfigKey::of(config));
        match cache.probe(fingerprint, &key) {
            Some(summary) => Ok(summary),
            None => cache.synthesize_keyed(fingerprint, &key, func, config),
        }
    }

    #[test]
    fn cache_hits_return_identical_summaries() {
        let f = kernel(
            "kernel mm(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> { return a @ b; }",
            "mm",
        );
        let cache = SynthCache::new();
        let config = HlsConfig::default();
        let first = fetch(&cache, &f, &config).unwrap();
        let (fingerprint, key) = (func_fingerprint(&f), ConfigKey::of(&config));
        let second = cache.probe(fingerprint, &key).expect("the first call filled the entry");
        assert_eq!(first, second);
        assert_eq!(cache.synthesize_keyed(fingerprint, &key, &f, &config).unwrap(), first);
        assert_eq!(cache.len(), 1);
        let direct = synthesize(&f, &config).unwrap().summary();
        assert_eq!(first, direct, "cached summary must match direct synthesis bit-for-bit");
    }

    #[test]
    fn structurally_identical_kernels_share_one_entry() {
        let a = kernel("kernel a(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "a");
        let b = kernel("kernel b(x: tensor<32xf64>) -> tensor<32xf64> { return relu(x); }", "b");
        let cache = SynthCache::new();
        let summary = fetch(&cache, &a, &HlsConfig::default()).unwrap();
        let key = ConfigKey::of(&HlsConfig::default());
        assert_eq!(cache.probe(func_fingerprint(&b), &key), Some(summary));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failures_are_not_cached() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        let cache = SynthCache::new();
        let bad = HlsConfig { banks: 0, ..HlsConfig::default() };
        assert!(fetch(&cache, &f, &bad).is_err());
        assert_eq!(cache.len(), 0);
        assert!(cache.map.lock().is_empty(), "a failure must not leave its placeholder behind");
        assert_eq!(cache.probe(func_fingerprint(&f), &ConfigKey::of(&bad)), None);
        assert!(fetch(&cache, &f, &bad).is_err(), "and is retried, not remembered");
        assert!(cache.map.lock().is_empty());
        assert!(fetch(&cache, &f, &HlsConfig::default()).is_ok());
        assert_eq!((cache.len(), cache.map.lock().len()), (1, 1), "a later good config caches");
    }

    #[test]
    fn keyed_entry_points_leave_counting_to_their_caller() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        let cache = SynthCache::new();
        let config = HlsConfig::default();
        let (fingerprint, key) = (func_fingerprint(&f), ConfigKey::of(&config));
        assert_eq!(cache.probe(fingerprint, &key), None);
        let keyed = cache.synthesize_keyed(fingerprint, &key, &f, &config).unwrap();
        assert_eq!(cache.probe(fingerprint, &key), Some(keyed));
        assert_eq!(cache.lookups(), (0, 0), "the keyed calls leave counting to their caller");
        cache.count_lookups(1, 0);
        assert_eq!(cache.lookups(), (1, 0));
    }

    #[test]
    fn miss_synthesis_latency_is_recorded() {
        let f = kernel("kernel h(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }", "h");
        let cache = SynthCache::new();
        let before = everest_telemetry::metrics().snapshot();
        fetch(&cache, &f, &HlsConfig::default()).unwrap();
        let after = everest_telemetry::metrics().snapshot();
        // The registry is process-global and other tests run in
        // parallel, so assert growth rather than exact counts.
        let count = |snapshot: &everest_telemetry::MetricsSnapshot| {
            snapshot.histogram("dse.hls.cache.miss_synthesis_us").map_or(0, |h| h.count)
        };
        assert!(count(&after) > count(&before), "miss path timed");
    }

    #[test]
    fn clear_forgets_entries() {
        let f = kernel("kernel id(a: tensor<4xf64>) -> tensor<4xf64> { return a; }", "id");
        let cache = SynthCache::new();
        fetch(&cache, &f, &HlsConfig::default()).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
