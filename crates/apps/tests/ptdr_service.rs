//! Determinism suite for the PTDR serving front-end: any worker count
//! reproduces the sequential reference bit-for-bit, a cache hit
//! short-circuits to the identical struct, and the telemetry counters
//! account for every lookup.
//!
//! The telemetry counters are process-global, so every test serializes
//! on one lock and measures deltas between snapshots.

use everest_apps::traffic::service::{PtdrService, RouteQuery};
use everest_apps::traffic::{generate_fcd, random_od, shortest_route, RoadNetwork, SpeedProfiles};
use everest_telemetry::MetricsSnapshot;
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn setup() -> (RoadNetwork, SpeedProfiles) {
    let net = RoadNetwork::grid(3, 8, 1.0);
    let fcd = generate_fcd(&net, 5, 60_000);
    let profiles = SpeedProfiles::learn(&net, &fcd);
    (net, profiles)
}

fn build_queries(net: &RoadNetwork, profiles: &SpeedProfiles) -> Vec<RouteQuery> {
    let od = random_od(net, 13, 24, 700.0);
    let routes: Vec<Vec<usize>> = od
        .iter()
        .filter_map(|pair| shortest_route(net, profiles, pair.from, pair.to, 8))
        .filter(|route| !route.is_empty())
        .take(8)
        .collect();
    assert!(routes.len() >= 4, "grid too sparse");
    let mut queries = Vec::new();
    for rep in 0..3 {
        for route in &routes {
            queries.push(RouteQuery {
                route: route.clone(),
                // Same 15-minute bin across reps — repeated keys.
                depart_hour: 8.0 + rep as f64 * 0.03,
                samples: 500,
            });
        }
    }
    queries
}

#[test]
fn any_job_count_reproduces_the_sequential_reference() {
    let _guard = counter_lock();
    let (net, profiles) = setup();
    let queries = build_queries(&net, &profiles);
    let reference = PtdrService::new(net.clone(), profiles.clone())
        .with_jobs(1)
        .with_seed(99)
        .route_batch(&queries);
    for jobs in [2usize, 8] {
        let pooled = PtdrService::new(net.clone(), profiles.clone())
            .with_jobs(jobs)
            .with_seed(99)
            .route_batch(&queries);
        assert_eq!(reference.len(), pooled.len());
        for (i, (r, p)) in reference.iter().zip(&pooled).enumerate() {
            assert_eq!(r.mean_h.to_bits(), p.mean_h.to_bits(), "jobs={jobs} query {i} mean");
            assert_eq!(r.p95_h.to_bits(), p.p95_h.to_bits(), "jobs={jobs} query {i} p95");
            assert_eq!(r.std_h.to_bits(), p.std_h.to_bits(), "jobs={jobs} query {i} std");
        }
    }
}

#[test]
fn cache_hit_short_circuits_to_the_identical_struct() {
    let _guard = counter_lock();
    let (net, profiles) = setup();
    let route = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).unwrap();
    let service = PtdrService::new(net, profiles).with_seed(3);
    let query = RouteQuery { route, depart_hour: 17.1, samples: 1_000 };

    let before = everest_telemetry::metrics().snapshot();
    let cold = service.query(&query);
    let mid = everest_telemetry::metrics().snapshot();
    // Same bin, different in-bin departure: the key matches, so the
    // cache answers without recomputing.
    let warm = service.query(&RouteQuery { depart_hour: 17.2, ..query.clone() });
    let after = everest_telemetry::metrics().snapshot();

    assert_eq!(cold.mean_h.to_bits(), warm.mean_h.to_bits());
    assert_eq!(cold.p95_h.to_bits(), warm.p95_h.to_bits());
    assert_eq!(cold.std_h.to_bits(), warm.std_h.to_bits());
    assert_eq!(service.cache_len(), 1, "one key, one entry");

    let miss_cold = mid.counter("ptdr.cache.miss") - before.counter("ptdr.cache.miss");
    let hit_cold = mid.counter("ptdr.cache.hit") - before.counter("ptdr.cache.hit");
    assert_eq!((miss_cold, hit_cold), (1, 0), "cold query must miss");
    let miss_warm = after.counter("ptdr.cache.miss") - mid.counter("ptdr.cache.miss");
    let hit_warm = after.counter("ptdr.cache.hit") - mid.counter("ptdr.cache.hit");
    assert_eq!((miss_warm, hit_warm), (0, 1), "warm query must hit");
}

#[test]
fn batch_counters_account_for_every_query() {
    let _guard = counter_lock();
    let (net, profiles) = setup();
    let queries = build_queries(&net, &profiles);
    let unique = queries.len() / 3; // three reps share each key

    // jobs = 1: the sequential reference path counts queries but never
    // consults the cache.
    let reference = PtdrService::new(net.clone(), profiles.clone()).with_jobs(1);
    let before = everest_telemetry::metrics().snapshot();
    reference.route_batch(&queries);
    let after = everest_telemetry::metrics().snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("ptdr.queries"), queries.len() as u64);
    assert_eq!(delta("ptdr.cache.hit"), 0);
    assert_eq!(delta("ptdr.cache.miss"), 0);
    assert_eq!(reference.cache_len(), 0, "jobs=1 must not populate the cache");

    // Pooled, cold cache: exactly one miss per unique key, every lookup
    // counted, and the same counts at every worker count. The pool gets
    // one task a missed key, not one a part, so however the keys fall
    // on the parts they spread over every worker; a warm batch gives it
    // none.
    let tasks = |snap: &MetricsSnapshot| snap.histogram("pool.task_run_us").map_or(0, |h| h.count);
    let mut counts = Vec::new();
    for jobs in [2usize, 4, 8] {
        let pooled = PtdrService::new(net.clone(), profiles.clone()).with_jobs(jobs);
        let before = everest_telemetry::metrics().snapshot();
        pooled.route_batch(&queries);
        let after = everest_telemetry::metrics().snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(delta("ptdr.queries"), queries.len() as u64, "jobs={jobs}");
        assert_eq!(delta("ptdr.cache.miss"), unique as u64, "jobs={jobs}");
        assert_eq!(
            delta("ptdr.cache.hit") + delta("ptdr.cache.miss"),
            queries.len() as u64,
            "jobs={jobs}"
        );
        assert_eq!(pooled.cache_len(), unique, "jobs={jobs}");
        assert_eq!(tasks(&after) - tasks(&before), unique as u64, "jobs={jobs}");
        counts.push((delta("ptdr.cache.hit"), delta("ptdr.cache.miss"), pooled.cache_len()));

        // Warm rerun: every lookup hits.
        let before = everest_telemetry::metrics().snapshot();
        pooled.route_batch(&queries);
        let after = everest_telemetry::metrics().snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(delta("ptdr.cache.miss"), 0, "jobs={jobs}");
        assert_eq!(delta("ptdr.cache.hit"), queries.len() as u64, "jobs={jobs}");
        assert_eq!(tasks(&after), tasks(&before), "jobs={jobs}");
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "counters moved with jobs: {counts:?}");
}

#[test]
fn per_query_latency_and_hit_age_are_recorded() {
    let _guard = counter_lock();
    let (net, profiles) = setup();
    let queries = build_queries(&net, &profiles);
    let service = PtdrService::new(net, profiles).with_jobs(2);

    let before = everest_telemetry::metrics().snapshot();
    service.route_batch(&queries); // cold: one miss per unique key
    for _ in 0..4 {
        service.route_batch(&queries); // warm: hits, counted and not timed
    }
    let after = everest_telemetry::metrics().snapshot();

    let count = |snap: &everest_telemetry::MetricsSnapshot, name: &str| {
        snap.histogram(name).map_or(0, |h| h.count)
    };
    let latency = count(&after, "ptdr.query.latency_us") - count(&before, "ptdr.query.latency_us");
    let misses = after.counter("ptdr.cache.miss") - before.counter("ptdr.cache.miss");
    // Every miss observes its latency, and nothing else does.
    assert_eq!(misses, queries.len() as u64 / 3, "one miss per unique key");
    assert_eq!(latency, misses, "one latency observation per miss");
    let h = after.histogram("ptdr.query.latency_us").unwrap();
    assert!(h.p99() >= h.p50(), "percentiles are ordered");
}

#[test]
fn two_services_on_one_thread_do_not_share_route_tables() {
    let _guard = counter_lock();
    let (net, morning) = setup();
    let evening = SpeedProfiles::learn(&net, &generate_fcd(&net, 77, 60_000));
    let route = shortest_route(&net, &morning, 0, net.nodes.len() - 1, 8).unwrap();
    let query = RouteQuery { route, depart_hour: 8.1, samples: 500 };

    // Both services compute on this thread, one after the other, over
    // the same route; only the profiles differ.
    let a = PtdrService::new(net.clone(), morning).with_seed(5).query(&query);
    let b = PtdrService::new(net.clone(), evening.clone()).with_seed(5).query(&query);

    // The same second service, alone on a fresh thread.
    let alone = std::thread::spawn({
        let query = query.clone();
        move || PtdrService::new(net, evening).with_seed(5).query(&query)
    })
    .join()
    .expect("fresh-thread service runs");
    assert_eq!(b, alone, "the second service answered from the first one's profiles");
    assert_ne!(a, b, "the two profile sets must disagree for the test to bite");
}
