//! Enforces the PTDR engine's zero-allocation acceptance criterion:
//! once the scratch sample buffer reaches its high-water capacity,
//! repeated queries — fresh seeds, departures, routes, and sample counts
//! that leave a partial last block alike — perform no heap allocation
//! (the per-block buffers of times and normals live on the stack), and
//! neither does the service's cache-hit path; a pooled batch allocates
//! per buffer, not per query. Lives in its own integration-test
//! binary because it swaps in a counting global allocator (the same
//! technique as the telemetry crate's `no_alloc` test).

use everest_alloc_counter::{measure, CountingAllocator};
use everest_apps::traffic::service::{PtdrEngine, PtdrService, RouteQuery};
use everest_apps::traffic::{generate_fcd, shortest_route, RoadNetwork, SpeedProfiles};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn setup() -> (RoadNetwork, SpeedProfiles) {
    let net = RoadNetwork::grid(9, 8, 1.0);
    let fcd = generate_fcd(&net, 4, 60_000);
    let profiles = SpeedProfiles::learn(&net, &fcd);
    (net, profiles)
}

#[test]
fn warm_engine_queries_allocate_nothing() {
    let (net, profiles) = setup();
    let long = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).unwrap();
    let short = shortest_route(&net, &profiles, 0, 9, 8).unwrap();
    let mut engine: PtdrEngine = PtdrEngine::new();

    // Warm-up: reach the high-water capacity at the largest sample
    // count.
    engine.estimate(&net, &profiles, &long, 8.0, 4_000, 1);

    let (allocations, _) = measure(|| {
        for round in 0..50u64 {
            // Vary seed, departure, sample count (≤ high water), and route
            // — everything a steady-state request stream varies.
            engine.estimate(&net, &profiles, &long, (round % 24) as f64, 4_000, round);
            engine.estimate(&net, &profiles, &short, 17.25, 1_000, round);
            // A last block of 13 lanes, then a query narrower than a block.
            engine.estimate(&net, &profiles, &long, 23.875, 333, round);
            engine.estimate(&net, &profiles, &short, 0.125, 7, round);
        }
    });
    assert_eq!(allocations, 0, "warm engine queries must not allocate");
}

#[test]
fn service_cache_hits_allocate_nothing() {
    let (net, profiles) = setup();
    let route = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).unwrap();
    let service = PtdrService::new(net, profiles).with_seed(5);
    let query = RouteQuery { route, depart_hour: 8.1, samples: 2_000 };

    // In-bin departure wobble: four distinct departures, one cache key.
    // Built before the measured window — the hit path itself must not
    // touch the allocator.
    let warm: Vec<RouteQuery> = (0..4)
        .map(|i| RouteQuery { depart_hour: 8.0 + f64::from(i) * 0.05, ..query.clone() })
        .collect();

    // Warm-up: populate the cache entry and auto-register the telemetry
    // counters and histograms (first use allocates the name and bucket
    // storage). Hits are counted, never timed, so one warm hit registers
    // everything the hit path touches.
    service.query(&query);
    service.query(&query);

    let (allocations, _) = measure(|| {
        for i in 0..1_000usize {
            std::hint::black_box(service.query(&warm[i % warm.len()]));
        }
    });
    assert_eq!(allocations, 0, "cache hits must not allocate");
}

/// A pooled batch borrows its queries: on the calling thread (the
/// allocator counts per thread) a warm batch of four times the queries
/// may cost a few more doublings of its result table and nothing else.
/// Fails if the batch goes back to cloning its input, one route `Vec` a
/// query.
#[test]
fn a_pooled_batch_allocates_per_buffer_not_per_query() {
    let (net, profiles) = setup();
    let route = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).unwrap();
    let service = PtdrService::new(net, profiles).with_jobs(2).with_seed(5);
    let batch = |queries: usize| -> Vec<RouteQuery> {
        (0..queries)
            .map(|i| RouteQuery {
                route: route.clone(),
                depart_hour: (i % 96) as f64 * 0.25,
                samples: 500,
            })
            .collect()
    };
    // Warm-up: every departure bin cached, the metric names registered.
    service.route_batch(&batch(96));
    let allocations = |queries: usize| {
        let batch = batch(queries);
        let (allocations, _) = measure(|| drop(std::hint::black_box(service.route_batch(&batch))));
        allocations
    };
    let (small, large) = (allocations(1_024), allocations(4_096));
    assert!(large <= small + 64, "1 024 queries made {small} allocations, 4 096 made {large}");
}
