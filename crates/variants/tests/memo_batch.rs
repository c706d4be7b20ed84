//! The batch evaluator against its references, on a memo the test owns:
//! the memoized engine equals the memo-free `jobs = 1` engine from any
//! memo state, it counts exactly the lookups it makes and times its
//! probes, a failing point fails the same way and is not remembered, and
//! a memo hit allocates nothing — the pin that fails if naming a point
//! per point comes back.

use everest_alloc_counter::{measure, CountingAllocator};
use everest_hls::cache::{func_fingerprint, ConfigKey, SynthCache};
use everest_ir::Func;
use everest_variants::space::DesignSpace;
use everest_variants::{generate_all_in, Layout, Target, Variant};
use proptest::prelude::*;
use std::collections::HashSet;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const SHAPES: [&str; 4] = [
    "(x: tensor<16xf64>) -> tensor<16xf64> { return relu(x); }",
    "(x: tensor<32xf64>) -> tensor<32xf64> { return sigmoid(x); }",
    "(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8x8xf64> { return a @ b; }",
    "(x: tensor<64xf64>) -> tensor<64xf64> { return stencil(x, [0.25, 0.5, 0.25]); }",
];
const NAMES: [&str; 2] = ["p", "q"];

/// Every shape under every name, each in a module of its own: a list of
/// draws from here repeats shapes under other names (one memo entry, two
/// kernels), names over other shapes, and whole kernels.
fn kernel_pool() -> Vec<Func> {
    let mut pool = Vec::new();
    for shape in SHAPES {
        for name in NAMES {
            let module = everest_dsl::compile_kernels(&format!("kernel {name}{shape}"))
                .expect("pool kernel compiles");
            pool.push(module.func(name).expect("kernel is in its module").clone());
        }
    }
    pool
}

/// The values of `all` a non-zero `mask` selects.
fn pick<T: Copy>(mask: usize, all: &[T]) -> Vec<T> {
    all.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, v)| *v).collect()
}

fn space(hw_targets: Vec<Target>, banks: Vec<usize>, pes: Vec<usize>) -> DesignSpace {
    DesignSpace {
        threads: vec![1, 4],
        layouts: vec![Layout::Aos],
        tiles: vec![None],
        hw_targets,
        banks,
        pes,
        pipeline: vec![true],
        dift: vec![false],
    }
}

/// The memo keys of `funcs` over `space`, derived here and not by the
/// code under test.
fn memo_keys(funcs: &[&Func], space: &DesignSpace) -> HashSet<(u64, ConfigKey)> {
    let configs: Vec<ConfigKey> = space
        .enumerate_knobs()
        .iter()
        .filter(|knob| knob.is_hardware())
        .map(|knob| ConfigKey::of(&knob.hls_config()))
        .collect();
    funcs
        .iter()
        .flat_map(|func| {
            let fingerprint = func_fingerprint(func);
            configs.iter().map(move |config| (fingerprint, *config))
        })
        .collect()
}

/// Ids and metric bit patterns: equal exactly when the sets are bit for
/// bit the same.
fn bits(sets: &[Vec<Variant>]) -> Vec<(String, [u64; 5])> {
    sets.iter()
        .flatten()
        .map(|v| {
            let m = &v.metrics;
            let metrics = [
                m.latency_us.to_bits(),
                m.transfer_us.to_bits(),
                m.energy_mj.to_bits(),
                m.area_luts,
                m.area_brams,
            ];
            (format!("{} {:?}", v.id, v.transforms), metrics)
        })
        .collect()
}

/// `(hits, misses)` that `f` adds to `cache`.
fn lookups_during<R>(cache: &SynthCache, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = cache.lookups();
    let out = f();
    let after = cache.lookups();
    (out, after.0 - before.0, after.1 - before.1)
}

proptest! {
    // Nine memos are filled and swept per case: the property is about
    // shapes of batches, not volume.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn memoized_batches_equal_the_reference_and_count_their_lookups(
        draws in proptest::collection::vec(0usize..8, 1..7),
        targets in 1usize..4,
        banks in 1usize..4,
        pes in 1usize..4,
        pipeline in 1usize..4,
    ) {
        let pool = kernel_pool();
        let funcs: Vec<&Func> = draws.iter().map(|&i| &pool[i]).collect();
        let space = DesignSpace {
            pipeline: pick(pipeline, &[true, false]),
            ..space(
                pick(targets, &[Target::FpgaBus, Target::FpgaNetwork]),
                pick(banks, &[4, 16]),
                pick(pes, &[8, 32]),
            )
        };
        let hardware = space.enumerate_knobs().iter().filter(|k| k.is_hardware()).count();
        let pairs = (funcs.len() * hardware) as u64;
        let all_keys = memo_keys(&funcs, &space);

        let untouched = SynthCache::new();
        let reference = generate_all_in(&untouched, &funcs, &space, 1).expect("reference runs");
        prop_assert!(untouched.is_empty() && untouched.lookups() == (0, 0));

        // Cold, half-filled and full.
        for prefill in [&funcs[..0], &funcs[..funcs.len().div_ceil(2)], &funcs[..]] {
            for jobs in [2, 3, 8] {
                let cache = SynthCache::new();
                if !prefill.is_empty() {
                    generate_all_in(&cache, prefill, &space, 2).expect("prefill runs");
                }
                let held = memo_keys(prefill, &space);
                prop_assert_eq!(cache.len(), held.len());

                let (got, hits, misses) =
                    lookups_during(&cache, || generate_all_in(&cache, &funcs, &space, jobs));
                prop_assert_eq!(bits(&got.expect("memoized run succeeds")), bits(&reference));
                prop_assert_eq!(hits + misses, pairs);
                prop_assert_eq!(misses, all_keys.difference(&held).count() as u64);
                prop_assert_eq!(cache.len(), all_keys.len());
            }
        }
    }
}

#[test]
fn a_memoized_batch_times_its_probes() {
    let pool = kernel_pool();
    let funcs: Vec<&Func> = pool.iter().take(2).collect();
    let space = space(vec![Target::FpgaBus], vec![4], vec![8]);
    // The registry is process-global and other tests run in parallel, so
    // assert growth rather than an exact count.
    let timed = || {
        everest_telemetry::metrics()
            .snapshot()
            .histogram("dse.hls.cache.hit_us")
            .map_or(0, |h| h.count)
    };
    let before = timed();
    generate_all_in(&SynthCache::new(), &funcs, &space, 2).expect("memoized run succeeds");
    assert!(timed() > before, "a memoized batch records its probe time");
}

#[test]
fn a_failing_point_fails_like_the_reference_and_is_not_remembered() {
    // Zero banks pass `validate` and fail in synthesis.
    let space = space(vec![Target::FpgaBus, Target::FpgaNetwork], vec![4, 0], vec![8, 32]);
    let pool = kernel_pool();
    let funcs: Vec<&Func> = vec![&pool[0], &pool[4], &pool[1]];
    let expected = generate_all_in(&SynthCache::new(), &funcs, &space, 1).unwrap_err();

    let good = memo_keys(&funcs, &DesignSpace { banks: vec![4], ..space.clone() });
    let bad = memo_keys(&funcs, &DesignSpace { banks: vec![0], ..space.clone() });
    assert_eq!((good.len(), bad.len()), (4, 4), "two distinct kernels × two PE counts, each way");

    for jobs in [2, 8] {
        let cache = SynthCache::new();
        let (first, hits, misses) =
            lookups_during(&cache, || generate_all_in(&cache, &funcs, &space, jobs));
        assert_eq!(first.unwrap_err(), expected, "jobs={jobs}");
        assert_eq!((hits, misses), (24 - 8, 8), "every distinct key is tried once, failing or not");
        assert_eq!(cache.len(), good.len(), "successes only");

        let (second, hits, misses) =
            lookups_during(&cache, || generate_all_in(&cache, &funcs, &space, jobs));
        assert_eq!(second.unwrap_err(), expected, "jobs={jobs}, second run");
        assert_eq!((hits, misses), (24 - 4, 4), "only the failing keys are tried again");
        assert_eq!(cache.len(), good.len());
    }
}

#[test]
fn a_memo_hit_allocates_nothing() {
    // Eight points per kernel either way, so the variant sets cost the
    // same; two of them are hardware points in one space, all eight in
    // the other.
    let two = DesignSpace {
        threads: vec![1, 2, 4, 8, 16, 32],
        ..space(vec![Target::FpgaBus], vec![4], vec![8, 32])
    };
    let eight = DesignSpace {
        threads: Vec::new(),
        layouts: Vec::new(),
        tiles: Vec::new(),
        ..space(vec![Target::FpgaBus, Target::FpgaNetwork], vec![4, 16], vec![8, 32])
    };
    let pool = kernel_pool();
    let funcs: Vec<&Func> = (0..32).map(|i| &pool[i % pool.len()]).collect();

    // What one more kernel costs an all-hit batch: its fingerprint, its
    // workload and its variant set. A print, a config or a key per point
    // would make that grow with the hardware points.
    let per_kernel = |space: &DesignSpace| {
        assert_eq!(space.size(), 8);
        let cache = SynthCache::new();
        generate_all_in(&cache, &funcs, space, 2).expect("fills the memo");
        let hardware = space.enumerate_knobs().iter().filter(|k| k.is_hardware()).count();
        let allocations = |kernels: usize| {
            let mut sets = None;
            let (counted, hits, misses) = lookups_during(&cache, || {
                measure(|| sets = Some(generate_all_in(&cache, &funcs[..kernels], space, 2))).0
            });
            assert_eq!((hits, misses), ((kernels * hardware) as u64, 0), "all hits");
            assert!(sets.expect("ran").is_ok());
            counted
        };
        let (half, full) = (allocations(16), allocations(32));
        // The pool repeats every eight kernels, so the second sixteen
        // cost what the first sixteen do.
        assert!(full > half);
        full - half
    };
    assert_eq!(per_kernel(&two), per_kernel(&eight));
}
