//! E24: the sharded PTDR serving tier under open-loop overload. Drives
//! `everest_apps::traffic::serve::ServeTier` (4 edge shards + cloud
//! tier on a consistent-hash ring, bounded admission queues,
//! shed-oldest load shedding) with the deterministic diurnal/Zipf load
//! generator at 0.5×/1×/2× of its calibrated capacity, reporting
//! admitted/shed counts and virtual-time p50/p95/p99 per point, plus a
//! warm wall-clock throughput comparison against a single node — one
//! shard of the same tier on one worker — with the single-node
//! `PtdrService` timed alongside. A `jobs = 1` shadow tier replays
//! every run and must produce bit-identical fingerprints. Writes
//! `BENCH_serve.json` + `METRICS_serve.json` at the repository root.
//!
//! Run with `cargo bench -p everest-bench --bench serve`.

use everest::apps::traffic::serve::{Arrival, LoadGen, ServeConfig, ServeTier, ShedPolicy};
use everest::apps::traffic::service::{PtdrService, RouteQuery};
use everest::apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};
use serde_json::Value;
use std::time::Instant;

const SEED: u64 = 7;
const SHARDS: usize = 4;
const QUEUE_DEPTH: usize = 64;
const POOL_ROUTES: usize = 64;
const CALIBRATION_QUERIES: usize = 4_000;
const POINT_ARRIVALS: usize = 30_000;
const RUNS: usize = 7;

fn make_tier(network: &RoadNetwork, profiles: &SpeedProfiles, jobs: usize) -> ServeTier {
    let mut config = ServeConfig::new(SHARDS);
    config.seed = SEED;
    config.jobs = jobs;
    config.queue_depth = QUEUE_DEPTH;
    config.policy = ShedPolicy::ShedOldest;
    ServeTier::new(network.clone(), profiles.clone(), config)
}

fn main() {
    let network = RoadNetwork::grid(2026, 12, 1.0);
    let fcd = generate_fcd(&network, 7, 150_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let generator = LoadGen::new(&network, &profiles, POOL_ROUTES, SEED);

    let tier = make_tier(&network, &profiles, 4);
    let shadow = make_tier(&network, &profiles, 1);

    // Calibrate on two successive generator days: day 0 measures the
    // cold tier (and fills the caches as a side effect), day 1 the
    // steady-state mixed hit/miss capacity. Both are virtual-time
    // figures, deterministic at any jobs count — the jobs=1 shadow must
    // agree bit-for-bit.
    let cold_capacity = tier.calibrate(&generator, 0, CALIBRATION_QUERIES);
    let warm_capacity = tier.calibrate(&generator, 1, CALIBRATION_QUERIES);
    assert_eq!(cold_capacity, shadow.calibrate(&generator, 0, CALIBRATION_QUERIES));
    assert_eq!(warm_capacity, shadow.calibrate(&generator, 1, CALIBRATION_QUERIES));
    println!(
        "capacity ({SHARDS} shards, virtual): cold {cold_capacity:.0} q/s, \
         warm {warm_capacity:.0} q/s"
    );

    // Overload sweep at 0.5×/1×/2× warm capacity, one fresh compressed
    // diurnal day per point (days 2..4). The shadow tier replays each
    // point first; the measured tier's registry is reset after so
    // METRICS_serve.json carries exactly one sweep.
    let multiples = [0.5f64, 1.0, 2.0];
    let workloads: Vec<Vec<Arrival>> = multiples
        .iter()
        .enumerate()
        .map(|(day, mult)| {
            let offered = mult * warm_capacity;
            generator.generate(
                2 + day as u64,
                offered,
                POINT_ARRIVALS as f64 / offered,
                POINT_ARRIVALS * 2,
            )
        })
        .collect();
    let shadow_fps: Vec<String> = workloads.iter().map(|w| shadow.run(w).fingerprint()).collect();

    everest_telemetry::metrics().reset();
    let mut points = Vec::new();
    println!(
        "{:>6}  {:>10}  {:>8}  {:>8}  {:>6}  {:>8}  {:>8}  {:>8}",
        "load", "offered", "arrivals", "served", "shed", "p50_us", "p95_us", "p99_us"
    );
    for ((mult, workload), shadow_fp) in multiples.iter().zip(&workloads).zip(&shadow_fps) {
        let offered = mult * warm_capacity;
        let report = tier.run(workload);
        assert_eq!(
            &report.fingerprint(),
            shadow_fp,
            "jobs=4 tier diverged from the jobs=1 shadow at {mult}x load"
        );
        let shed: u64 = report.shards.iter().map(|s| s.shed).sum();
        let rejected: u64 = report.shards.iter().map(|s| s.rejected).sum();
        let peak_queue = report.shards.iter().map(|s| s.peak_queue).max().unwrap_or(0);
        println!(
            "{mult:>5.2}x  {offered:>10.0}  {:>8}  {:>8}  {shed:>6}  {:>8.1}  {:>8.1}  {:>8.1}",
            report.arrivals(),
            report.served(),
            report.latency.p50(),
            report.latency.p95(),
            report.latency.p99()
        );
        points.push(Value::Object(vec![
            ("load_multiple".to_owned(), Value::Float(*mult)),
            ("offered_qps".to_owned(), Value::Float(offered)),
            ("arrivals".to_owned(), Value::UInt(report.arrivals())),
            ("served".to_owned(), Value::UInt(report.served())),
            ("shed".to_owned(), Value::UInt(shed)),
            ("rejected".to_owned(), Value::UInt(rejected)),
            ("edge_hits".to_owned(), Value::UInt(report.edge_hits())),
            ("cloud_fills".to_owned(), Value::UInt(report.cloud_fills())),
            ("peak_queue_depth".to_owned(), Value::UInt(peak_queue as u64)),
            ("latency_p50_us".to_owned(), Value::Float(report.latency.p50())),
            ("latency_p95_us".to_owned(), Value::Float(report.latency.p95())),
            ("latency_p99_us".to_owned(), Value::Float(report.latency.p99())),
            ("wall_ms".to_owned(), Value::Float(report.wall_s * 1e3)),
        ]));
    }
    let sweep_snapshot = everest_telemetry::metrics().snapshot();

    // Shedding keeps the tail bounded: p99 at 2× overload can exceed
    // the in-capacity points only by the queue-implied bound.
    let overload_p99 = points
        .iter()
        .rev()
        .find_map(|p| match p {
            Value::Object(fields) => fields.iter().find_map(|(k, v)| match v {
                Value::Float(f) if k == "latency_p99_us" => Some(*f),
                _ => None,
            }),
            _ => None,
        })
        .expect("sweep recorded p99");
    let worst_query_us =
        tier.config().cost.worst_case_us(generator.longest_route_edges(), generator.max_samples());
    let p99_bound_us = (QUEUE_DEPTH + 2) as f64 * worst_query_us;
    assert!(
        overload_p99 <= p99_bound_us,
        "2x overload p99 {overload_p99:.0}us breaks the queue bound {p99_bound_us:.0}us"
    );
    println!("2x overload p99 {overload_p99:.0} us <= queue bound {p99_bound_us:.0} us");

    // Warm wall-clock throughput: what sharding buys. Two dedicated
    // tiers with the admission queue effectively unbounded (throughput
    // measurement, not a shedding scenario) replay the 1× day: the
    // 4-shard tier on 4 workers and a single node — one shard of the
    // same tier on one worker, with the same caches, admission and
    // virtual queue. The first pass fills the caches, every later pass
    // is pure hits; passes alternate between the two, best-of-RUNS
    // each, so a drift in the host's speed does not fall on one side.
    // The single-node `PtdrService` is timed on the same queries after,
    // and reported, not compared: it looks a warm batch up on one
    // thread, with no admission or virtual queue.
    let warm_workload = &workloads[1];
    let queries: Vec<RouteQuery> = warm_workload.iter().map(|a| a.query.clone()).collect();
    let warm_tier = |shards: usize, jobs: usize| {
        let mut config = *tier.config();
        config.shards = shards;
        config.jobs = jobs;
        config.queue_depth = usize::MAX >> 1;
        let tier = ServeTier::new(network.clone(), profiles.clone(), config);
        tier.run(warm_workload); // fill the caches
        tier
    };
    let (sharded, single) = (warm_tier(SHARDS, tier.config().jobs), warm_tier(1, 1));
    let mut tier_wall_ms = f64::INFINITY;
    let mut single_wall_ms = f64::INFINITY;
    let (mut sharded_fp, mut single_fp): (Option<String>, Option<String>) = (None, None);
    let mut warm_answers: Option<Vec<[u64; 3]>> = None;
    for _ in 0..RUNS {
        for (warm, wall_ms, warm_fp) in [
            (&sharded, &mut tier_wall_ms, &mut sharded_fp),
            (&single, &mut single_wall_ms, &mut single_fp),
        ] {
            let start = Instant::now();
            let report = warm.run(warm_workload);
            *wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(report.dropped(), 0, "unbounded warm pass must not shed");
            assert_eq!(report.cloud_fills(), 0, "replayed day must be all cache hits");
            let fp = report.fingerprint();
            match warm_fp {
                None => *warm_fp = Some(fp),
                Some(reference) => assert_eq!(reference, &fp, "warm passes diverged"),
            }
            // And every answer, bit for bit, whichever shard gave it.
            let answers: Vec<[u64; 3]> = report
                .results
                .iter()
                .map(|r| {
                    let stats = r.expect("an unbounded queue serves every query");
                    [stats.mean_h.to_bits(), stats.p95_h.to_bits(), stats.std_h.to_bits()]
                })
                .collect();
            match &warm_answers {
                None => warm_answers = Some(answers),
                Some(reference) => assert!(reference == &answers, "1 and {SHARDS} shards diverged"),
            }
        }
    }
    let tier_qps = queries.len() as f64 / (tier_wall_ms / 1e3);
    let single_qps = queries.len() as f64 / (single_wall_ms / 1e3);
    let speedup_vs_one_shard = tier_qps / single_qps;

    let baseline = PtdrService::new(network.clone(), profiles.clone()).with_jobs(4).with_seed(SEED);
    baseline.route_batch(&queries); // fill the cache
    let mut baseline_wall_ms = f64::INFINITY;
    for _ in 0..RUNS {
        let start = Instant::now();
        baseline.route_batch(&queries);
        baseline_wall_ms = baseline_wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let baseline_qps = queries.len() as f64 / (baseline_wall_ms / 1e3);
    let speedup = tier_qps / baseline_qps;
    println!(
        "warm wall-clock: {SHARDS} shards {tier_wall_ms:.2} ms ({tier_qps:.0} q/s) vs one shard \
         {single_wall_ms:.2} ms ({single_qps:.0} q/s) — {speedup_vs_one_shard:.2}x; \
         PtdrService {baseline_wall_ms:.2} ms ({baseline_qps:.0} q/s) — {speedup:.2}x"
    );
    assert!(
        tier_qps > single_qps,
        "sharded tier ({tier_qps:.0} q/s) must beat the single-node baseline, one shard of it \
         ({single_qps:.0} q/s)"
    );

    let json = Value::Object(vec![
        ("bench".to_owned(), Value::Str("serve".to_owned())),
        ("experiment".to_owned(), Value::Str("E24".to_owned())),
        (
            "topology".to_owned(),
            Value::Object(vec![
                ("shards".to_owned(), Value::UInt(SHARDS as u64)),
                ("vnodes".to_owned(), Value::UInt(tier.config().vnodes as u64)),
                ("queue_depth".to_owned(), Value::UInt(QUEUE_DEPTH as u64)),
                ("policy".to_owned(), Value::Str(tier.config().policy.to_string())),
                ("pool_routes".to_owned(), Value::UInt(POOL_ROUTES as u64)),
                ("zipf_users".to_owned(), Value::UInt(generator.users)),
                ("jobs".to_owned(), Value::UInt(4)),
            ]),
        ),
        (
            "capacity".to_owned(),
            Value::Object(vec![
                ("cold_qps_virtual".to_owned(), Value::Float(cold_capacity)),
                ("warm_qps_virtual".to_owned(), Value::Float(warm_capacity)),
            ]),
        ),
        ("load_points".to_owned(), Value::Array(points)),
        ("p99_bound_us".to_owned(), Value::Float(p99_bound_us)),
        (
            "warm".to_owned(),
            Value::Object(vec![
                ("queries".to_owned(), Value::UInt(queries.len() as u64)),
                ("wall_ms".to_owned(), Value::Float(tier_wall_ms)),
                ("queries_per_sec".to_owned(), Value::Float(tier_qps)),
                ("baseline_wall_ms".to_owned(), Value::Float(baseline_wall_ms)),
                ("one_shard_wall_ms".to_owned(), Value::Float(single_wall_ms)),
                ("one_shard_queries_per_sec".to_owned(), Value::Float(single_qps)),
                ("speedup_vs_one_shard".to_owned(), Value::Float(speedup_vs_one_shard)),
                ("baseline_queries_per_sec".to_owned(), Value::Float(baseline_qps)),
                ("speedup_vs_single_node".to_owned(), Value::Float(speedup)),
            ]),
        ),
        ("outputs_identical_across_jobs".to_owned(), Value::Bool(true)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, serde_json::to_string_pretty(&json).expect("serializes"))
        .expect("writes BENCH_serve.json");
    println!("wrote {path}");

    // The sweep's telemetry snapshot, reloadable by `everestc stats`.
    let metrics_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_serve.json");
    std::fs::write(
        metrics_path,
        serde_json::to_string_pretty(&sweep_snapshot).expect("serializes"),
    )
    .expect("writes METRICS_serve.json");
    println!("wrote {metrics_path}");
}
