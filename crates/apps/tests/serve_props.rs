//! Property tests for the sharded PTDR serving tier: the consistent-hash
//! ring must assign every key a valid shard deterministically and
//! exactly as a binary search over its points does, growing the ring may
//! move keys only onto the new shard, and a full tier run — routing,
//! admission, shedding, cache fills, Monte-Carlo recomputes — must be
//! bit-identical at any `jobs` count for any seed, topology, queue
//! depth, and shed policy, and must reproduce the digests pinned before
//! the per-query path was rearranged. The allocation pin on a replay is
//! why this binary installs the counting allocator; it counts per
//! thread, so the tests running beside the pin do not disturb it.

use everest_alloc_counter::{measure, CountingAllocator};
use everest_apps::traffic::serve::{
    Arrival, HashRing, LoadGen, ServeConfig, ServeReport, ServeTier, ShedPolicy,
};
use everest_apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};
use everest_workflow::seed::{fnv1a, mix};
use proptest::prelude::*;
use std::sync::OnceLock;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One synthetic city + learned profiles + route-pool generator, shared
/// across cases (building speed profiles dominates otherwise).
fn fixture() -> &'static (RoadNetwork, SpeedProfiles, LoadGen) {
    static FIXTURE: OnceLock<(RoadNetwork, SpeedProfiles, LoadGen)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let network = RoadNetwork::grid(1, 8, 1.0);
        let fcd = generate_fcd(&network, 2, 40_000);
        let profiles = SpeedProfiles::learn(&network, &fcd);
        let generator = LoadGen::new(&network, &profiles, 8, 3);
        (network, profiles, generator)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_assignment_is_total_and_deterministic(
        shards in 1usize..8,
        vnodes in 1usize..64,
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let again = HashRing::new(shards, vnodes);
        for &key in &keys {
            let shard = ring.shard_of(key);
            prop_assert!(shard < shards, "shard {shard} out of range for {shards} shards");
            prop_assert_eq!(shard, again.shard_of(key), "same topology must route identically");
        }
    }

    #[test]
    fn growing_the_ring_moves_keys_only_to_the_new_shard(
        shards in 1usize..7,
        vnodes in 8usize..64,
        keys in prop::collection::vec(any::<u64>(), 1..128),
    ) {
        // The consistent-hashing contract: adding shard N+1 leaves every
        // surviving ring point in place, so a key either keeps its shard
        // or lands on the newcomer — never migrates between survivors.
        let old = HashRing::new(shards, vnodes);
        let new = HashRing::new(shards + 1, vnodes);
        for &key in &keys {
            let before = old.shard_of(key);
            let after = new.shard_of(key);
            if before != after {
                prop_assert_eq!(
                    after, shards,
                    "key {} moved from shard {} to {} instead of the new shard",
                    key, before, after
                );
            }
        }
    }
}

/// Inverse of [`mix`] (the SplitMix64 finalizer is a bijection): the key
/// hash that lands on ring position `h`.
fn unmix(h: u64) -> u64 {
    let mut z = h;
    z = (z ^ (z >> 31) ^ (z >> 62)).wrapping_mul(0x3196_42b2_d24d_8ec3);
    z = (z ^ (z >> 27) ^ (z >> 54)).wrapping_mul(0x96de_1b17_3f11_9089);
    z = z ^ (z >> 30) ^ (z >> 60);
    z.wrapping_sub(0x9e37_79b9_7f4a_7c15)
}

/// The ring as first written, rebuilt from its definition: one point
/// `mix(shard << 32 | vnode)` per virtual node, sorted, and a key
/// belongs to the first point at or after `mix(key_hash)` — found by
/// binary search — or to the first point of all past the last.
struct ReferenceRing(Vec<(u64, u32)>);

impl ReferenceRing {
    fn new(shards: usize, vnodes: usize) -> ReferenceRing {
        let mut points: Vec<(u64, u32)> = (0..shards as u64)
            .flat_map(|shard| (0..vnodes as u64).map(move |v| (mix(shard << 32 | v), shard as u32)))
            .collect();
        points.sort_unstable();
        ReferenceRing(points)
    }

    fn shard_of(&self, key_hash: u64) -> usize {
        let h = mix(key_hash);
        let at = self.0.partition_point(|&(p, _)| p < h);
        self.0[if at == self.0.len() { 0 } else { at }].1 as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_look_up_equals_the_binary_search(
        shards in 1usize..10,
        vnodes in 1usize..129,
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let reference = ReferenceRing::new(shards, vnodes);
        let check = |key: u64| {
            prop_assert_eq!(ring.shard_of(key), reference.shard_of(key), "key hash {:#x}", key);
            Ok(())
        };
        for &key in &keys {
            prop_assert_eq!(mix(unmix(key)), key);
            check(key)?;
        }
        // Keys that land on a point, just before it and just after it
        // (past the last point the ring wraps to the first), and on
        // both ends of the ring.
        for &(p, _) in &reference.0 {
            check(unmix(p))?;
            check(unmix(p.wrapping_sub(1)))?;
            check(unmix(p.wrapping_add(1)))?;
        }
        for key in [0, u64::MAX, unmix(0), unmix(u64::MAX)] {
            check(key)?;
        }
    }
}

proptest! {
    // Each case runs the tier twice end-to-end (including real
    // Monte-Carlo recomputes), so fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tier_runs_are_bit_identical_at_any_jobs(
        seed in any::<u32>(),
        day in any::<u64>(),
        shards in 1usize..5,
        queue_depth in 1usize..24,
        shed_oldest in any::<bool>(),
        offered_qps in 10_000.0f64..80_000.0,
    ) {
        let (network, profiles, generator) = fixture();
        let workload = generator.generate(day, offered_qps, 150.0 / offered_qps, 150);
        prop_assume!(!workload.is_empty());
        let run = |jobs: usize, workload: &[Arrival]| {
            let mut config = ServeConfig::new(shards);
            config.seed = seed as u64;
            config.jobs = jobs;
            config.queue_depth = queue_depth;
            config.policy =
                if shed_oldest { ShedPolicy::ShedOldest } else { ShedPolicy::RejectNew };
            let tier = ServeTier::new(network.clone(), profiles.clone(), config);
            let report = tier.run(workload);
            (report.fingerprint(), report.latency, report.wait, report.busy_us.to_bits())
        };
        // The fingerprint covers every per-query result bit-for-bit plus
        // the per-shard admit/shed/hit counters, so equal fingerprints
        // mean identical shard assignment and serving behaviour; the
        // histograms and the busy time are what the shard merge sums.
        let sequential = run(1, &workload);
        prop_assert_eq!(&sequential, &run(4, &workload), "jobs=4 diverged from jobs=1");
        prop_assert_eq!(&sequential, &run(3, &workload), "jobs=3 diverged from jobs=1");
        prop_assert_eq!(&sequential, &run(8, &workload), "jobs=8 diverged from jobs=1");
        // However arrivals are dealt to workers: fewer of them than
        // workers, and none at all.
        let few = &workload[..workload.len().min(5)];
        prop_assert_eq!(run(1, few), run(8, few), "jobs=8 diverged on {} arrivals", few.len());
        prop_assert_eq!(run(1, &[]), run(8, &[]), "jobs=8 diverged on an empty workload");
    }
}

/// `(seed, policy, phase, FNV-1a of fingerprint(), lines of fingerprint())`
/// of [`pinned_run`]. Taken on the build before the tier's per-query
/// path was rearranged (keys, ring look-ups and shard lists computed on
/// the calling thread; a SipHash per cache probe; a clock read per LRU
/// insert), and re-pinned once since, when the PTDR summary's mean and
/// std moved in their last bits under the committed tolerance policy
/// (`tests/golden/tolerance_policy.txt`): every p95, shed decision and
/// shard counter stayed. Admission, the caches and the merge may be
/// rearranged freely; these may not move.
const TIER_DIGESTS: [(u64, &str, &str, u64, usize); 8] = [
    (7, "reject-new", "cold", 0x26e6_8cd9_e3c0_edbe, 8_196),
    (7, "reject-new", "replay", 0xfa5e_5794_0597_6acb, 8_196),
    (7, "shed-oldest", "cold", 0x77ee_28bd_0195_d66f, 8_196),
    (7, "shed-oldest", "replay", 0x1630_528b_2b76_f483, 8_196),
    (2026, "reject-new", "cold", 0x0425_e553_6c50_e2c8, 8_196),
    (2026, "reject-new", "replay", 0x2302_a270_963e_310b, 8_196),
    (2026, "shed-oldest", "cold", 0xb897_ff56_fee2_0baf, 8_196),
    (2026, "shed-oldest", "replay", 0x83ce_f307_8a11_7b4c, 8_196),
];

/// Arrivals of one pinned day: offered at a rate a cold 4-shard tier
/// sheds under and a filled one mostly keeps up with.
const PINNED_ARRIVALS: usize = 8_192;
const PINNED_QPS: f64 = 60_000.0;

/// One pinned day served cold and then replayed on the tier it filled:
/// 4 shards, queue depth 16, caches small enough that both levels evict
/// — so the replay takes every branch of the hierarchy (edge hit, cloud
/// hit promoted into a full edge cache, recompute of what the cold run
/// shed or the cloud partition dropped).
fn pinned_run(workload: &[Arrival], seed: u64, policy: &str, jobs: usize) -> [String; 2] {
    let (network, profiles, _) = fixture();
    let mut config = ServeConfig::new(4);
    config.seed = seed;
    config.jobs = jobs;
    config.queue_depth = 16;
    config.policy = policy.parse().expect("a shed policy");
    config.edge_cache = 128;
    config.cloud_cache = 1_500;
    let tier = ServeTier::new(network.clone(), profiles.clone(), config);
    let cold = tier.run(workload);
    let replay = tier.run(workload);
    assert!(cold.dropped() > 0 && replay.dropped() > 0, "the pinned day must shed");
    assert!(replay.edge_hits() > 0 && replay.cloud_fills() > 0, "the replay must hit and fill");
    assert!(replay.edge_misses() > replay.cloud_fills(), "the replay must promote cloud hits");
    [cold.fingerprint(), replay.fingerprint()]
}

#[test]
fn tier_reproduces_the_digests_pinned_on_the_parent() {
    let (network, profiles, _) = fixture();
    let mut seen = Vec::new();
    for seed in [7u64, 2026] {
        let workload = LoadGen::new(network, profiles, 16, seed).generate(
            0,
            PINNED_QPS,
            1.05 * PINNED_ARRIVALS as f64 / PINNED_QPS,
            PINNED_ARRIVALS,
        );
        assert!(workload.len() >= 8_000, "only {} arrivals", workload.len());
        for policy in ["reject-new", "shed-oldest"] {
            let reference = pinned_run(&workload, seed, policy, 1);
            for jobs in [2usize, 4, 8] {
                assert!(
                    pinned_run(&workload, seed, policy, jobs) == reference,
                    "seed {seed}, {policy}: jobs {jobs} and 1 disagree"
                );
            }
            for (phase, fingerprint) in ["cold", "replay"].into_iter().zip(&reference) {
                seen.push((seed, policy, phase, fnv1a(fingerprint), fingerprint.lines().count()));
            }
        }
    }
    assert_eq!(seen, TIER_DIGESTS, "left: this build, right: pinned");
}

/// Allocations of a replay of `arrivals` arrivals on a tier of
/// `config` that served them once already, and the replay's report. At
/// `jobs = 1` admission and the shards run inline, on the thread the
/// allocator counts.
fn replay_allocations(config: ServeConfig, arrivals: usize) -> (u64, ServeReport) {
    let (network, profiles, generator) = fixture();
    // Slow enough that nothing is shed, so the first run computes every
    // answer the replay asks for.
    let qps = 10_000.0;
    let workload = generator.generate(0, qps, 1.05 * arrivals as f64 / qps, arrivals);
    assert_eq!(workload.len(), arrivals);
    let tier = ServeTier::new(network.clone(), profiles.clone(), config);
    assert_eq!(tier.run(&workload).dropped(), 0, "the fill must not shed");
    let mut replay = None;
    let (allocations, _) = measure(|| replay = Some(tier.run(&workload)));
    let replay = replay.expect("the replay ran");
    assert_eq!(replay.served(), arrivals as u64);
    (allocations, replay)
}

/// A replay on a filled tier allocates per buffer, never per arrival:
/// four times the arrivals may cost a few more doublings of the shard
/// lists and nothing else. Fails if a `Vec`, a `String` or a clone per
/// arrival comes back into the cache-answered path. Held on caches that
/// keep every answer and on [`pinned_run`]'s small ones, where the
/// replay promotes into full edge levels and, at 8 000 arrivals,
/// recomputes what the cloud levels dropped — so entries leave the
/// shards' tables and their slots are reused.
#[test]
fn a_replay_allocates_per_buffer_not_per_arrival() {
    let mut small_caches = ServeConfig::new(4);
    small_caches.edge_cache = 128;
    small_caches.cloud_cache = 1_500;
    // Warm-up: the registry's metric names.
    replay_allocations(ServeConfig::new(4), 64);
    for (config, evicts) in [(ServeConfig::new(4), false), (small_caches, true)] {
        let (small, _) = replay_allocations(config, 2_000);
        let (large, replay) = replay_allocations(config, 8_000);
        assert_eq!(replay.cloud_fills() > 0, evicts, "recomputes on {config:?}");
        assert!(!evicts || replay.edge_misses() > replay.cloud_fills(), "the replay must promote");
        assert!(
            large <= small + 64,
            "{config:?}: 2 000 arrivals made {small} allocations, 8 000 made {large}"
        );
    }
}
