//! The response cache of the PTDR serving engines: the cache identity
//! of a query ([`CacheKey`], [`cache_key`], [`derive_seed`],
//! [`bin_center_hour`]) and the fixed-capacity [`LruCache`] that
//! [`PtdrService`](super::service::PtdrService) and every shard of the
//! serving tier ([`super::serve`]) keep their finished responses in.
//! Everything here is re-exported from [`super::service`], where it
//! lived before the split.
//!
//! **One cache, any payload.** [`LruCache`] maps a [`CacheKey`] to a
//! `Copy` payload and knows nothing about time. The tier's two levels
//! store plain [`TravelTimeStats`](super::TravelTimeStats) — key, stats
//! and the two list links make a slot one 64-byte line — and
//! `PtdrService` stores `(TravelTimeStats, Instant)`, stamping an entry
//! on its own miss path (≈ 10 µs of sampling) for the one-in-sixteen
//! `ptdr.cache.hit_age_us` sample. A promote on the tier (edge miss,
//! cloud hit, insert into the full edge cache) therefore reads no clock;
//! it used to read one per insert, ≈ 55 ns that nobody looked at.
//!
//! **Why the table may hash by word mixing.** The `HashMap` inside the
//! cache hashes its key with a rotate-xor-multiply per word, not with
//! SipHash, and a promote is five probes, so the hasher was most of what
//! a cache-answered query cost (EXPERIMENTS.md E31). That is sound for
//! this key and no other: its first word, [`CacheKey::route_hash`], is
//! already a SipHash of the route, so the bits the table indexes by are
//! well mixed before the first multiply; keys are made by [`cache_key`]
//! from queries this program generated or was handed as routes over its
//! own road network, and the cache is capacity-bound, so the worst a
//! crafted set of colliding routes could do is slow one bounded table
//! down; and nothing iterates the map, so no output can depend on its
//! order. Correctness never rests on the hash: a proptest drives the
//! cache with keys that collide under any word-wise hasher against a
//! `Vec` kept in recency order.
//!
//! **What `#[derive(Hash)]` on [`CacheKey`] is still for.** Both hashers
//! go through it. [`derive_seed`] feeds the key to a `DefaultHasher`
//! (SipHash-1-3 under fixed keys), and [`cache_key`] hashes the route
//! with one: those values decide which shard a query lands on and which
//! seed its Monte-Carlo walk draws from — every answer, digest and
//! golden file — and are not touched. The table's hasher sees the same
//! three `write_*` calls and mixes them its own way.

use super::HOUR_BINS;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Departure-time quantization of the response cache: 15-minute bins.
pub const DEPARTURE_BINS_PER_HOUR: usize = 4;

/// Total departure bins per day.
pub const DEPARTURE_BINS: usize = HOUR_BINS * DEPARTURE_BINS_PER_HOUR;

/// Cache identity of a PTDR query: structural route hash, quantized
/// departure bin, and sample count. Queries with equal keys receive
/// bit-identical answers (the per-query seed is derived from the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Hash of the route's edge sequence.
    pub route_hash: u64,
    /// Departure bin, `0..DEPARTURE_BINS` (15-minute resolution).
    pub departure_bin: u32,
    /// Monte-Carlo sample count.
    pub samples: u64,
}

/// Hasher of the table inside [`LruCache`]: one rotate-xor-multiply per
/// word written (the FxHash step). Sound only because of what the table
/// is keyed by — see the module docs.
#[derive(Default)]
struct WordMix(u64);

impl Hasher for WordMix {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// Not reached by [`CacheKey`], whose derived `Hash` writes whole
    /// words; any other key is folded eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sentinel slot index for the intrusive recency list.
const NIL: usize = usize::MAX;

/// One slab slot of the [`LruCache`]: the entry plus its intrusive
/// doubly-linked recency list neighbours. With a
/// [`TravelTimeStats`](super::TravelTimeStats) payload a slot is one 64-byte cache line.
#[derive(Debug)]
struct LruSlot<V> {
    key: CacheKey,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map from [`CacheKey`] to a
/// `Copy` payload: a hash map from key to slot in a slab threaded with
/// an intrusive doubly-linked recency list. Lookups, inserts, *and
/// eviction* are O(1), and none of them reads a clock or allocates once
/// the slab is full.
#[derive(Debug)]
pub(crate) struct LruCache<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, usize, BuildHasherDefault<WordMix>>,
    slots: Vec<LruSlot<V>>,
    /// Most-recently-used slot, `NIL` when empty.
    head: usize,
    /// Least-recently-used slot (the eviction victim), `NIL` when empty.
    tail: usize,
}

impl<V: Copy> LruCache<V> {
    pub(crate) fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Detaches `at` from the recency list.
    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Attaches `at` at the most-recently-used end.
    fn link_front(&mut self, at: usize) {
        self.slots[at].prev = NIL;
        self.slots[at].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.slots[h].prev = at,
        }
        self.head = at;
    }

    /// Moves `at` to the most-recently-used end.
    fn touch(&mut self, at: usize) {
        if self.head != at {
            self.unlink(at);
            self.link_front(at);
        }
    }

    /// The payload cached under `key`, which becomes the most recently
    /// used entry.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.tick += 1;
        let at = *self.map.get(key)?;
        self.touch(at);
        Some(self.slots[at].value)
    }

    /// Caches `value` under `key` as the most recently used entry; a
    /// full cache gives up its least recently used one.
    pub(crate) fn insert(&mut self, key: CacheKey, value: V) {
        self.tick += 1;
        if let Some(&at) = self.map.get(&key) {
            self.slots[at].value = value;
            self.touch(at);
            return;
        }
        let at = if self.slots.len() < self.capacity {
            self.slots.push(LruSlot { key, value, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Full: reuse the least-recently-used slot in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim] = LruSlot { key, value, prev: NIL, next: NIL };
            victim
        };
        self.map.insert(key, at);
        self.link_front(at);
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Look-ups and inserts so far: what a caller that samples one
    /// operation in N counts on.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Every entry, most recently used first.
    #[cfg(test)]
    fn by_recency(&self) -> Vec<(CacheKey, V)> {
        let mut out = Vec::with_capacity(self.len());
        let mut at = self.head;
        while at != NIL {
            out.push((self.slots[at].key, self.slots[at].value));
            at = self.slots[at].next;
        }
        out
    }
}

/// The cache identity of a query: structural route hash, quantized
/// departure bin, sample count. Two queries with equal keys receive
/// bit-identical answers — the per-query seed is a pure function of
/// the key (see [`derive_seed`]).
pub fn cache_key(route: &[usize], depart_hour: f64, samples: usize) -> CacheKey {
    let mut hasher = DefaultHasher::new();
    route.hash(&mut hasher);
    let bin = (depart_hour * DEPARTURE_BINS_PER_HOUR as f64).floor();
    let bin = if bin.is_finite() && bin >= 0.0 { bin as usize % DEPARTURE_BINS } else { 0 };
    CacheKey { route_hash: hasher.finish(), departure_bin: bin as u32, samples: samples as u64 }
}

/// Deterministic per-query seed: a function of the cache key and the
/// serving seed only, so any two queries with the same key — and any
/// worker or shard interleaving — produce bit-identical statistics.
pub fn derive_seed(base_seed: u64, key: &CacheKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    base_seed.hash(&mut hasher);
    key.hash(&mut hasher);
    hasher.finish()
}

/// The canonical departure hour of a key's bin (its center) — the hour
/// every query in the bin is actually estimated at.
pub fn bin_center_hour(key: &CacheKey) -> f64 {
    (key.departure_bin as f64 + 0.5) / DEPARTURE_BINS_PER_HOUR as f64
}

#[cfg(test)]
mod tests {
    use super::super::TravelTimeStats;
    use super::*;
    use proptest::prelude::*;

    /// Twelve keys that share words with each other — equal route
    /// hashes under different bins and budgets, route hashes that differ
    /// in one high or one low bit — so that whatever the table hashes,
    /// some of them meet in a bucket.
    fn key(i: usize) -> CacheKey {
        let route_hash = [0, 1, 1 << 63, u64::MAX][i % 4];
        let (departure_bin, samples) = [(0, 64), (95, 64), (0, 65)][i / 4 % 3];
        CacheKey { route_hash, departure_bin, samples }
    }

    fn payload(v: u32) -> TravelTimeStats {
        TravelTimeStats { mean_h: f64::from(v), p95_h: 0.0, std_h: 0.0 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cache against the obvious model — a `Vec` kept in recency
        /// order — over random look-ups and inserts: the same hits with
        /// the same payloads, the same victim at every eviction (the
        /// whole recency order is compared after every step), the same
        /// length.
        #[test]
        fn cache_equals_a_vec_kept_in_recency_order(
            capacity in 1usize..9,
            ops in prop::collection::vec((any::<bool>(), 0usize..12, any::<u32>()), 1..200),
        ) {
            let mut lru = LruCache::new(capacity);
            let mut model: Vec<(CacheKey, TravelTimeStats)> = Vec::new();
            for (step, &(insert, k, v)) in ops.iter().enumerate() {
                let at = model.iter().position(|entry| entry.0 == key(k));
                if insert {
                    lru.insert(key(k), payload(v));
                    match at {
                        Some(at) => drop(model.remove(at)),
                        None if model.len() == capacity => drop(model.pop()),
                        None => {}
                    }
                    model.insert(0, (key(k), payload(v)));
                } else {
                    let hit = lru.get(&key(k));
                    let expected = at.map(|at| {
                        let entry = model.remove(at);
                        model.insert(0, entry);
                        entry.1
                    });
                    prop_assert_eq!(hit, expected, "step {}: look-up of key {}", step, k);
                }
                prop_assert_eq!(lru.len(), model.len(), "step {}", step);
                prop_assert_eq!(lru.by_recency(), model.clone(), "step {}", step);
            }
        }
    }
}
