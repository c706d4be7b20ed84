//! The response cache of the PTDR serving engines and the cache
//! identity of a query ([`CacheKey`], [`cache_key`], [`derive_seed`],
//! [`bin_center_hour`]; [`super::service`] re-exports the identity, not
//! the cache):
//!
//! * [`TierCache`] — both levels of one shard of either front-end (a
//!   part of [`PtdrService`](super::service::PtdrService), a shard of the
//!   serving tier, [`super::serve`]): a small edge level in front of a
//!   large cloud level, in one table. Nothing on its paths reads a clock.
//! * `LruCache` — one fixed-capacity level, kept under `#[cfg(test)]` as
//!   the reference the table is tested against: an edge and a cloud
//!   `LruCache` are the pair a shard kept before the table.
//!
//! **Two levels, one table.** Both levels of a shard hold the same
//! answer for a key — a cloud hit is promoted into the edge, a
//! recompute fills both — so [`TierCache`] keeps one entry a key: the
//! payload sits in the hash-map bucket beside the key's slot index, and
//! a slot carries a byte naming the levels that hold the key and one
//! `[prev, next]` link pair per level. A cache-answered query is one
//! probe. An edge hit moves the slot to the front of the edge list; a
//! cloud hit moves it to the front of the cloud list and links it into
//! the edge list, whose least recent slot leaves the edge — and the
//! table, with a second probe, only when the cloud has dropped it too.
//! Across two `LruCache`s the same promote is five table operations
//! (edge probe, cloud probe, edge presence probe, victim removal,
//! insert) and a copy of the payload (EXPERIMENTS.md E35). A released
//! slot goes onto a free list threaded through its links, so a filled
//! table allocates nothing, and a proptest drives the table and an edge
//! and a cloud `LruCache` through the same look-ups and fills.
//!
//! **Why the table may hash by word mixing.** The `HashMap` inside the
//! table (and inside the reference) hashes its key with a
//! rotate-xor-multiply per word, not with SipHash, which was most of
//! what a probe cost (EXPERIMENTS.md E31). That is sound for this key and no other: its first word,
//! [`CacheKey::route_hash`], is already a SipHash of the route, so the
//! bits the table indexes by are well mixed before the first multiply;
//! keys are made by [`cache_key`] from queries this program generated or
//! was handed as routes over its own road network, and the table is
//! capacity-bound, so the worst a crafted set of colliding routes could
//! do is slow one bounded table down; and nothing iterates a map, so no
//! output can depend on its order. Correctness never rests on the hash:
//! the proptests drive the caches with keys that collide under any
//! word-wise hasher.
//!
//! **What `#[derive(Hash)]` on [`CacheKey`] is still for.** Both hashers
//! go through it. [`derive_seed`] feeds the key to a `DefaultHasher`
//! (SipHash-1-3 under fixed keys), and [`cache_key`] hashes the route
//! with one: those values decide which shard a query lands on and which
//! seed its Monte-Carlo walk draws from — every answer, digest and
//! golden file — and are not touched. The table's hasher sees the same
//! three `write_*` calls and mixes them its own way.

use super::{TravelTimeStats, HOUR_BINS};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Departure-time quantization of the response cache: 15-minute bins.
pub(crate) const DEPARTURE_BINS_PER_HOUR: usize = 4;

/// Total departure bins per day.
pub(crate) const DEPARTURE_BINS: usize = HOUR_BINS * DEPARTURE_BINS_PER_HOUR;

/// Cache identity of a PTDR query: structural route hash, quantized
/// departure bin, and sample count. Queries with equal keys receive
/// bit-identical answers (the per-query seed is derived from the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Hash of the route's edge sequence.
    pub route_hash: u64,
    /// Departure bin, `0..DEPARTURE_BINS` (15-minute resolution).
    pub departure_bin: u32,
    /// Monte-Carlo sample count.
    pub samples: u64,
}

/// Hasher of the tables inside [`TierCache`] and `LruCache`: one
/// rotate-xor-multiply per word written (the FxHash step). Sound only
/// because of what the tables are keyed by — see the module docs.
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

/// Sentinel slot index of `LruCache`'s recency list.
#[cfg(test)]
const NIL: usize = usize::MAX;

/// Table of [`TierCache`] and `LruCache`.
type Table<V> = HashMap<CacheKey, V, BuildHasherDefault<WordMix>>;

/// One slab slot of the `LruCache`: the entry plus its intrusive
/// doubly-linked recency list neighbours.
#[cfg(test)]
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
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct LruCache<V> {
    capacity: usize,
    map: Table<usize>,
    slots: Vec<LruSlot<V>>,
    /// Most-recently-used slot, `NIL` when empty.
    head: usize,
    /// Least-recently-used slot (the eviction victim), `NIL` when empty.
    tail: usize,
}

#[cfg(test)]
impl<V: Copy> LruCache<V> {
    pub(crate) fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity: capacity.max(1),
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
        let at = *self.map.get(key)?;
        self.touch(at);
        Some(self.slots[at].value)
    }

    /// Caches `value` under `key` as the most recently used entry; a
    /// full cache gives up its least recently used one.
    pub(crate) fn insert(&mut self, key: CacheKey, value: V) {
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

    /// Every entry, most recently used first.
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

/// The level of a [`TierCache`] that answered a look-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lookup {
    /// The edge level held the key.
    Edge(TravelTimeStats),
    /// Only the cloud level held the key; it is now in the edge level too.
    Cloud(TravelTimeStats),
    /// Neither level held the key.
    Miss,
}

/// A [`TierCache`] level: its index into `links`, `capacity`, `len`,
/// `head` and `tail`, and the bit it sets in a slot's level byte.
const EDGE: usize = 0;
const CLOUD: usize = 1;

/// Sentinel slot index of [`TierCache`]'s lists; it bounds the table at
/// 2³² − 1 slots.
const NIL32: u32 = u32::MAX;

/// Index of the previous and the next slot in a `[u32; 2]` link pair.
const PREV: usize = 0;
const NEXT: usize = 1;

/// Both cache levels of one serving-tier shard in one table: a small
/// edge level in front of a large cloud level, each least-recently-used
/// with a fixed capacity, each its own recency list over one slab of
/// entries (see the module docs). A key's payload sits in the map's
/// bucket beside its slot index, so a look-up reads it from the probe
/// that finds the slot. An entry leaves the table when it is in neither
/// level. Look-ups, fills and evictions are O(1), and none of them
/// reads a clock or, once the slab has grown to the two capacities,
/// allocates.
pub(crate) struct TierCache {
    map: Table<(u32, TravelTimeStats)>,
    /// Per slot: the key, to find the bucket of a slot that leaves.
    keys: Vec<CacheKey>,
    /// Per slot: bit `1 << level` set while the level holds the key;
    /// 0 on a free slot.
    levels: Vec<u8>,
    /// Per level, per slot: `[prev, next]` in that level's recency
    /// list. A free slot's edge `next` is the next free slot.
    links: [Vec<[u32; 2]>; 2],
    capacity: [u32; 2],
    len: [u32; 2],
    /// Most recently used slot of each level, `NIL32` when it is empty.
    head: [u32; 2],
    /// Least recently used slot of each level (its next victim).
    tail: [u32; 2],
    /// First free slot, `NIL32` when none is.
    free: u32,
}

impl TierCache {
    /// An empty table holding up to `edge` keys in the edge level and up
    /// to `cloud` in the cloud level, each clamped to `1..=2³² − 1`.
    pub(crate) fn new(edge: usize, cloud: usize) -> TierCache {
        let clamp = |capacity: usize| u32::try_from(capacity.max(1)).unwrap_or(NIL32);
        TierCache {
            map: Table::default(),
            keys: Vec::new(),
            levels: Vec::new(),
            links: [Vec::new(), Vec::new()],
            capacity: [clamp(edge), clamp(cloud)],
            len: [0; 2],
            head: [NIL32; 2],
            tail: [NIL32; 2],
            free: NIL32,
        }
    }

    /// Keys held by either level.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every entry and keeps every allocation.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.keys.clear();
        self.levels.clear();
        self.links[EDGE].clear();
        self.links[CLOUD].clear();
        self.len = [0; 2];
        self.head = [NIL32; 2];
        self.tail = [NIL32; 2];
        self.free = NIL32;
    }

    /// The payload cached under `key` and the level that held it. An
    /// edge hit becomes the edge level's most recent entry; a cloud hit
    /// becomes the most recent entry of both levels, the edge level
    /// giving up its least recent one when full.
    pub(crate) fn lookup(&mut self, key: &CacheKey) -> Lookup {
        let Some(&(at, stats)) = self.map.get(key) else { return Lookup::Miss };
        if self.levels[at as usize] & 1 << EDGE != 0 {
            self.touch(EDGE, at);
            return Lookup::Edge(stats);
        }
        self.touch(CLOUD, at);
        self.make_room(EDGE);
        self.levels[at as usize] |= 1 << EDGE;
        self.link_front(EDGE, at);
        Lookup::Cloud(stats)
    }

    /// Caches `stats` under `key`, which [`TierCache::lookup`] has just
    /// missed, as the most recent entry of both levels. A full level gives
    /// up its least recent entry, the cloud level first.
    pub(crate) fn fill(&mut self, key: CacheKey, stats: TravelTimeStats) {
        self.make_room(CLOUD);
        self.make_room(EDGE);
        let at = self.alloc(key);
        let previous = self.map.insert(key, (at, stats));
        debug_assert!(previous.is_none(), "fill of a cached key");
        self.levels[at as usize] = 1 << EDGE | 1 << CLOUD;
        self.link_front(CLOUD, at);
        self.link_front(EDGE, at);
    }

    /// A free slot holding `key`, off the free list or new.
    fn alloc(&mut self, key: CacheKey) -> u32 {
        if self.free != NIL32 {
            let at = self.free;
            self.free = self.links[EDGE][at as usize][NEXT];
            self.keys[at as usize] = key;
            return at;
        }
        let at = u32::try_from(self.keys.len())
            .ok()
            .filter(|&at| at != NIL32)
            .expect("a tier cache indexes at most 2^32 - 1 entries");
        self.keys.push(key);
        self.levels.push(0);
        self.links[EDGE].push([NIL32; 2]);
        self.links[CLOUD].push([NIL32; 2]);
        at
    }

    /// Counts one more entry in `level`, or, when it is full, takes its
    /// least recent entry out of it — and out of the table, when the
    /// other level does not hold that entry either.
    fn make_room(&mut self, level: usize) {
        if self.len[level] < self.capacity[level] {
            self.len[level] += 1;
            return;
        }
        let victim = self.tail[level];
        self.unlink(level, victim);
        let levels = &mut self.levels[victim as usize];
        *levels &= !(1 << level);
        if *levels == 0 {
            self.map.remove(&self.keys[victim as usize]);
            self.links[EDGE][victim as usize][NEXT] = self.free;
            self.free = victim;
        }
    }

    /// Detaches `at` from `level`'s recency list.
    fn unlink(&mut self, level: usize, at: u32) {
        let [prev, next] = self.links[level][at as usize];
        match prev {
            NIL32 => self.head[level] = next,
            p => self.links[level][p as usize][NEXT] = next,
        }
        match next {
            NIL32 => self.tail[level] = prev,
            n => self.links[level][n as usize][PREV] = prev,
        }
    }

    /// Attaches `at` at the most recent end of `level`'s list.
    fn link_front(&mut self, level: usize, at: u32) {
        let head = self.head[level];
        self.links[level][at as usize] = [NIL32, head];
        match head {
            NIL32 => self.tail[level] = at,
            h => self.links[level][h as usize][PREV] = at,
        }
        self.head[level] = at;
    }

    /// Moves `at` to the most recent end of `level`'s list.
    fn touch(&mut self, level: usize, at: u32) {
        if self.head[level] != at {
            self.unlink(level, at);
            self.link_front(level, at);
        }
    }

    /// Every entry of `level`, most recently used first.
    #[cfg(test)]
    fn by_recency(&self, level: usize) -> Vec<(CacheKey, TravelTimeStats)> {
        let mut out = Vec::with_capacity(self.len[level] as usize);
        let mut at = self.head[level];
        while at != NIL32 {
            let key = self.keys[at as usize];
            out.push((key, self.map[&key].1));
            at = self.links[level][at as usize][NEXT];
        }
        out
    }
}

/// The cache identity of a query: structural route hash, quantized
/// departure bin, sample count. Two queries with equal keys receive
/// bit-identical answers — the per-query seed is a pure function of
/// the key (see [`derive_seed`]).
pub(crate) fn cache_key(route: &[usize], depart_hour: f64, samples: usize) -> CacheKey {
    let mut hasher = DefaultHasher::new();
    route.hash(&mut hasher);
    let bin = (depart_hour * DEPARTURE_BINS_PER_HOUR as f64).floor();
    let bin = if bin.is_finite() && bin >= 0.0 { bin as usize % DEPARTURE_BINS } else { 0 };
    CacheKey { route_hash: hasher.finish(), departure_bin: bin as u32, samples: samples as u64 }
}

/// Deterministic per-query seed: a function of the cache key and the
/// serving seed only, so any two queries with the same key — and any
/// worker or shard interleaving — produce bit-identical statistics.
pub(crate) fn derive_seed(base_seed: u64, key: &CacheKey) -> u64 {
    let mut hasher = DefaultHasher::new();
    base_seed.hash(&mut hasher);
    key.hash(&mut hasher);
    hasher.finish()
}

/// The canonical departure hour of a key's bin (its center) — the hour
/// every query in the bin is actually estimated at.
pub(crate) fn bin_center_hour(key: &CacheKey) -> f64 {
    (key.departure_bin as f64 + 0.5) / DEPARTURE_BINS_PER_HOUR as f64
}

#[cfg(test)]
mod tests {
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

    /// The two caches a shard kept before [`TierCache`], driven the way
    /// the tier drove them: probe the edge; on a miss probe the cloud and
    /// copy a hit into the edge; on a miss there too, insert into the
    /// cloud and then into the edge.
    struct TwoLevels {
        edge: LruCache<TravelTimeStats>,
        cloud: LruCache<TravelTimeStats>,
    }

    impl TwoLevels {
        fn lookup(&mut self, key: &CacheKey) -> Lookup {
            if let Some(stats) = self.edge.get(key) {
                return Lookup::Edge(stats);
            }
            if let Some(stats) = self.cloud.get(key) {
                self.edge.insert(*key, stats);
                return Lookup::Cloud(stats);
            }
            Lookup::Miss
        }

        fn fill(&mut self, key: CacheKey, stats: TravelTimeStats) {
            self.cloud.insert(key, stats);
            self.edge.insert(key, stats);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table against the pair of `LruCache`s it replaced, over
        /// random look-ups, fills after a miss and clears, at capacities
        /// where the cloud level is smaller than the edge level too (so
        /// the cloud drops keys the edge still holds, and entries leave
        /// the table from either level): the same level answers with the
        /// same payload, both recency orders and both lengths agree after
        /// every step, the table holds exactly the keys of either level,
        /// and its slab no more slots than the two capacities.
        #[test]
        fn tier_cache_equals_an_edge_and_a_cloud_lru(
            edge in 1usize..6,
            cloud in 1usize..9,
            ops in prop::collection::vec((0usize..12, 0u8..16, any::<u32>()), 1..300),
        ) {
            let mut table = TierCache::new(edge, cloud);
            let fresh = || TwoLevels { edge: LruCache::new(edge), cloud: LruCache::new(cloud) };
            let mut reference = fresh();
            for (step, &(k, action, v)) in ops.iter().enumerate() {
                if action == 0 {
                    table.clear();
                    reference = fresh();
                } else {
                    let answer = table.lookup(&key(k));
                    prop_assert_eq!(answer, reference.lookup(&key(k)), "step {}: key {}", step, k);
                    if answer == Lookup::Miss && action % 2 == 1 {
                        table.fill(key(k), payload(v));
                        reference.fill(key(k), payload(v));
                    }
                }
                let (edge_order, cloud_order) =
                    (reference.edge.by_recency(), reference.cloud.by_recency());
                prop_assert_eq!(table.by_recency(EDGE), edge_order.clone(), "step {}", step);
                prop_assert_eq!(table.by_recency(CLOUD), cloud_order.clone(), "step {}", step);
                prop_assert_eq!(
                    table.len.map(|n| n as usize),
                    [reference.edge.len(), reference.cloud.len()],
                    "step {}", step
                );
                let mut held: Vec<CacheKey> =
                    edge_order.iter().chain(&cloud_order).map(|entry| entry.0).collect();
                held.sort_by_key(|k| (k.route_hash, k.departure_bin, k.samples));
                held.dedup();
                prop_assert_eq!(table.map.len(), held.len(), "step {}", step);
                // Released slots are reused: the slab never outgrows the levels.
                prop_assert!(table.keys.len() <= edge + cloud, "step {}", step);
            }
        }

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
