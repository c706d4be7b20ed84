//! The process-wide pool starts its workers once: after one warm fan-out
//! at `jobs = J`, no later fan-out at `jobs <= J` starts a thread — not a
//! plain `parallel_map`, not a `ParallelGraph` run, not a serving-tier
//! day and not an offload batch. This binary holds one test so that no
//! other test shares its pool.

use everest::apps::traffic::serve::{LoadGen, ServeConfig, ServeTier};
use everest::apps::traffic::{generate_fcd, RoadNetwork, SpeedProfiles};
use everest::runtime::offload::{FaultPlan, OffloadCall, OffloadManager};
use everest::workflow::parallel::ParallelGraph;
use everest::workflow::pool::{parallel_map, threads_started};
use everest::System;

const J: usize = 4;

#[test]
fn a_warm_pool_starts_no_thread_at_jobs_up_to_the_warm_count() {
    assert_eq!(threads_started(), 0, "nothing fanned out yet");
    let warm = parallel_map("test.warm", J, (0..64).collect::<Vec<u64>>(), |_, x| x + 1);
    assert_eq!(warm.len(), 64);
    assert_eq!(threads_started(), J - 1, "the caller is worker 0");

    for call in 0..100 {
        let jobs = 1 + call % J;
        let out = parallel_map("test.map", jobs, (0..32).collect::<Vec<u64>>(), |_, x| 2 * x);
        assert_eq!(out[31], 62);
    }
    assert_eq!(threads_started(), J - 1, "100 parallel_map calls");

    let mut g: ParallelGraph<u64> = ParallelGraph::new();
    let a = g.add_task("a", &[], |_| Ok(2));
    let b = g.add_task("b", &[], |_| Ok(3));
    g.add_task("sum", &[a, b], |ins| Ok(*ins[0] + *ins[1]));
    assert_eq!(*g.run(J).unwrap()[2], 5);
    assert_eq!(threads_started(), J - 1, "a ParallelGraph run");

    let network = RoadNetwork::grid(1, 8, 1.0);
    let fcd = generate_fcd(&network, 2, 40_000);
    let profiles = SpeedProfiles::learn(&network, &fcd);
    let workload = LoadGen::new(&network, &profiles, 8, 3).generate(0, 10_000.0, 0.2, 2_000);
    let mut config = ServeConfig::new(4);
    config.jobs = J;
    let report = ServeTier::new(network, profiles, config).run(&workload);
    assert_eq!(report.served() + report.dropped(), workload.len() as u64);
    assert_eq!(threads_started(), J - 1, "a serving-tier day");

    let calls: Vec<OffloadCall> = (0..256)
        .map(|i| OffloadCall { kernel: format!("k{}", i % 8), payload_bytes: 4096, work_us: 100.0 })
        .collect();
    let plan = FaultPlan::from_profile("flaky", 7).unwrap();
    let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
    mgr.run_batch(&calls, J).unwrap();
    assert_eq!(threads_started(), J - 1, "an offload batch");
}
