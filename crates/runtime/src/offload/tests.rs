use super::*;
use everest_platform::{LinkProfile, System};

fn call(kernel: &str) -> OffloadCall {
    OffloadCall { kernel: kernel.into(), payload_bytes: 64 << 10, work_us: 400.0 }
}

fn manager(profile: &str, seed: u64) -> OffloadManager {
    let plan = FaultPlan::from_profile(profile, seed).unwrap();
    OffloadManager::for_system(&System::everest_reference(), plan).unwrap()
}

#[test]
fn chain_orders_network_then_bus_then_cpu() {
    let mgr = manager("none", 1);
    let classes: Vec<TargetClass> = mgr.chain().iter().map(|t| t.class).collect();
    assert_eq!(classes.len(), 8, "7 FPGAs + CPU");
    let first_bus = classes.iter().position(|c| *c == TargetClass::BusFpga).unwrap();
    assert!(classes[..first_bus].iter().all(|c| *c == TargetClass::NetworkFpga));
    assert_eq!(*classes.last().unwrap(), TargetClass::HostCpu);
    // Network FPGAs resolve their link profile for rate lookup.
    assert_eq!(mgr.chain()[0].profile, Some(LinkProfile::UdpDatacenter));
}

#[test]
fn healthy_plan_completes_on_first_rung_without_degradation() {
    let mut mgr = manager("none", 42);
    let outcome = mgr.execute(&call("fft")).unwrap();
    assert_eq!(outcome.attempts, 1);
    assert!(!outcome.degraded);
    assert_eq!(outcome.class, TargetClass::NetworkFpga);
    assert!(mgr.tripped_devices().is_empty());
}

#[test]
fn meltdown_falls_back_to_cpu_and_reports_degraded() {
    let mut mgr = manager("meltdown", 7);
    // One call per lane (one lane per FPGA) kills every FPGA in that
    // lane on first contact; after a full round of the lanes all 7 are
    // dead.
    for _ in 0..7 {
        let outcome = mgr.execute(&call("fft")).unwrap();
        assert_eq!(outcome.class, TargetClass::HostCpu);
        assert!(outcome.degraded);
    }
    assert_eq!(mgr.tripped_devices().len(), 7);
    let next = mgr.execute(&call("fft")).unwrap();
    assert_eq!(next.class, TargetClass::HostCpu);
    // Dead devices are skipped, not re-attempted.
    assert_eq!(next.attempts, 1);
}

#[test]
fn lanes_partition_fpgas_disjointly_and_share_the_cpu() {
    let mgr = manager("none", 1);
    let lanes = mgr.lane_devices();
    assert_eq!(lanes.len(), 7, "one lane per FPGA");
    // Every lane is one FPGA plus the shared CPU terminal.
    for lane in &lanes {
        assert_eq!(lane.len(), 2, "lane is [device, cpu]: {lane:?}");
        assert_eq!(*lane.last().unwrap(), "cloud-p9/cpu");
    }
    // The 7 FPGAs appear in exactly one lane each.
    let mut fpgas: Vec<&str> =
        lanes.iter().flatten().copied().filter(|d| *d != "cloud-p9/cpu").collect();
    fpgas.sort_unstable();
    let before = fpgas.len();
    fpgas.dedup();
    assert_eq!(before, 7);
    assert_eq!(fpgas.len(), 7, "no FPGA is shared between lanes");
}

#[test]
fn fault_outcomes_are_pure_functions_of_their_inputs() {
    let plan = FaultPlan::from_profile("flaky", 99).unwrap();
    for invocation in 0..50 {
        for attempt in 0..4 {
            let a = plan.outcome("rack/cf0", Some(LinkProfile::UdpDatacenter), invocation, attempt);
            let b = plan.outcome("rack/cf0", Some(LinkProfile::UdpDatacenter), invocation, attempt);
            assert_eq!(a, b);
        }
    }
    // Different seeds decorrelate.
    let other = FaultPlan::from_profile("flaky", 100).unwrap();
    let same = (0..200).all(|i| {
        plan.outcome("d", Some(LinkProfile::TcpDatacenter), i, 0)
            == other.outcome("d", Some(LinkProfile::TcpDatacenter), i, 0)
    });
    assert!(!same);
}

#[test]
fn rates_resolve_most_specific_key_first() {
    let lossy = FaultRates { drop: 0.5, ..FaultRates::NONE };
    let clean = FaultRates::NONE;
    let plan = FaultPlan::new(3, FaultRates { timeout: 0.1, ..FaultRates::NONE })
        .unwrap()
        .with_rates("udp-datacenter", lossy)
        .unwrap()
        .with_rates("rack/cf0", clean)
        .unwrap();
    assert_eq!(plan.rates_for("rack/cf0", Some(LinkProfile::UdpDatacenter)), clean);
    assert_eq!(plan.rates_for("rack/cf1", Some(LinkProfile::UdpDatacenter)), lossy);
    assert_eq!(plan.rates_for("p9/capi0", None).timeout, 0.1);
}

#[test]
fn invalid_rates_and_unknown_profiles_rejected() {
    assert!(FaultPlan::new(0, FaultRates { drop: 1.2, ..FaultRates::NONE }).is_err());
    assert!(FaultPlan::new(
        0,
        FaultRates { drop: 0.6, timeout: 0.6, corrupt: 0.0, device_loss: 0.0 }
    )
    .is_err());
    let err = FaultPlan::from_profile("apocalypse", 0).unwrap_err();
    assert!(err.to_string().contains("apocalypse"));
    assert!(err.to_string().contains("meltdown"), "lists the valid profiles");
}

#[test]
fn breaker_trips_probes_and_recloses() {
    let mut b =
        CircuitBreaker::new(BreakerConfig { trip_after: 3, cooldown_us: 100.0, close_after: 2 });
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(!b.on_failure(0.0));
    assert!(!b.on_failure(1.0));
    assert!(b.on_failure(2.0), "third consecutive failure trips");
    assert_eq!(b.state(), BreakerState::Open);
    // Still open inside the cooldown window.
    assert_eq!(b.poll(50.0), BreakerState::Open);
    assert_eq!(b.poll(102.0), BreakerState::HalfOpen);
    assert!(!b.on_success(), "first probe success is not enough");
    assert!(b.on_success(), "second probe success re-closes");
    assert_eq!(b.state(), BreakerState::Closed);
}

#[test]
fn half_open_failure_reopens_and_success_resets_closed_count() {
    let mut b =
        CircuitBreaker::new(BreakerConfig { trip_after: 2, cooldown_us: 10.0, close_after: 1 });
    b.on_failure(0.0);
    b.on_failure(0.0);
    assert_eq!(b.poll(20.0), BreakerState::HalfOpen);
    assert!(b.on_failure(20.0), "half-open failure re-trips immediately");
    assert_eq!(b.state(), BreakerState::Open);
    // A closed-state success clears the consecutive-failure count.
    let mut c = CircuitBreaker::new(BreakerConfig::default());
    c.on_failure(0.0);
    c.on_failure(0.0);
    c.on_success();
    assert!(!c.on_failure(1.0));
    assert!(!c.on_failure(2.0), "count restarted after the success");
}

#[test]
fn force_open_is_permanent() {
    let mut b = CircuitBreaker::new(BreakerConfig::default());
    b.force_open();
    assert_eq!(b.poll(f64::MAX / 2.0), BreakerState::Open);
}

#[test]
fn backoff_is_jittered_bounded_and_deterministic() {
    let retry = RetryPolicy::default();
    for attempt in 1..=8 {
        let nominal = retry.nominal_backoff_us(attempt);
        assert!(nominal <= retry.cap_us);
        let jittered = retry.backoff_us(5, "rack/cf0", 3, attempt);
        assert!(jittered >= 0.5 * nominal && jittered < nominal);
        assert_eq!(jittered, retry.backoff_us(5, "rack/cf0", 3, attempt));
    }
    assert!(retry.nominal_backoff_us(2) > retry.nominal_backoff_us(1));
}

#[test]
fn batch_trace_is_identical_at_any_job_count() {
    let calls: Vec<OffloadCall> = (0..24).map(|i| call(&format!("k{i}"))).collect();
    let mut serial = manager("flaky", 1234);
    let serial_out = serial.run_batch(&calls, 1).unwrap();
    for jobs in [2, 4, 8] {
        let mut parallel = manager("flaky", 1234);
        let out = parallel.run_batch(&calls, jobs).unwrap();
        assert_eq!(out, serial_out, "outcomes diverge at jobs={jobs}");
        assert_eq!(parallel.trace(), serial.trace(), "trace diverges at jobs={jobs}");
    }
    // The flaky profile actually exercises the recovery machinery.
    assert!(serial.trace().contains("backoff"), "expected retries in the trace");
}

#[test]
fn pacing_changes_nothing_but_the_wall_clock() {
    let calls: Vec<OffloadCall> = (0..16).map(|i| call(&format!("k{i}"))).collect();
    let mut plain = manager("flaky", 77);
    let plain_out = plain.run_batch(&calls, 1).unwrap();
    // A huge scale keeps the owed real time under the sleep quantum,
    // so the test stays fast; the pacing arithmetic still runs.
    let mut paced = manager("flaky", 77).with_pacing(1e9);
    let paced_out = paced.run_batch(&calls, 4).unwrap();
    assert_eq!(paced_out, plain_out);
    assert_eq!(paced.trace(), plain.trace());
    assert_eq!(paced.tripped_devices(), plain.tripped_devices());
}

#[test]
fn interleaved_execute_matches_batch() {
    let calls: Vec<OffloadCall> = (0..6).map(|i| call(&format!("k{i}"))).collect();
    let mut batch = manager("lossy", 9);
    batch.run_batch(&calls, 4).unwrap();
    let mut one_by_one = manager("lossy", 9);
    for c in &calls {
        one_by_one.execute(c).unwrap();
    }
    assert_eq!(one_by_one.trace(), batch.trace());
}

#[test]
fn empty_chain_rejected() {
    assert!(OffloadManager::new(vec![], FaultPlan::none(0)).is_err());
}

#[test]
fn trace_events_are_small_and_own_nothing() {
    // The fold is memory-bound, and the manager keeps every event it
    // writes: an event carries no task, which is where it sits.
    fn assert_copy<T: Copy>() {}
    assert_copy::<OffloadEvent>();
    assert!(std::mem::size_of::<OffloadEvent>() <= 16);
}

#[test]
fn a_chain_too_long_for_the_event_index_is_rejected() {
    let target = manager("none", 1).chain()[0].clone();
    let chain = vec![target; usize::from(u16::MAX) + 2];
    let err = OffloadManager::new(chain, FaultPlan::none(0)).unwrap_err();
    assert!(err.to_string().contains("65537 targets"), "{err}");
}

/// The flight events the calling thread's ring holds once `calls` calls
/// under `profile` are folded lane by lane (on the reference chain, or on
/// its FPGAs alone when `host_cpu` is false), as a batch at `jobs = 1`
/// folds them (through the reference fold, or the fold that skips what
/// its ring would drop), and how many events the thread wrote that the
/// ring no longer holds. Only this thread's events are read, so tests
/// recording on other threads do not disturb the answer.
fn fold_on_this_thread(
    profile: &str,
    host_cpu: bool,
    calls: usize,
    reference: bool,
) -> (Vec<(everest_telemetry::EventKind, &'static str, f64)>, u64) {
    use super::lane::{fold_lane, fold_lane_recording_every_call, partition_lanes};
    static NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    let flight = everest_telemetry::flight();
    let plan = FaultPlan::from_profile(profile, 2026).unwrap();
    let mut chain = manager(profile, 2026).chain().to_vec();
    chain.retain(|t| host_cpu || t.class != TargetClass::HostCpu);
    let lanes = partition_lanes(&chain, &plan, BreakerConfig::default());
    let calls: Vec<OffloadCall> = (0..calls).map(|i| call(&format!("k{}", i % 64))).collect();
    let retry = RetryPolicy::default();

    // Claims this thread's ring, which may be a retired one still holding
    // another thread's events; a marker names this thread in the dump.
    let written_before = flight.record_overwritten(0);
    let nonce = NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as f64;
    flight.marker("offload.test.thread", nonce);
    let tid = flight
        .dump("test")
        .events
        .iter()
        .find(|e| e.name == "offload.test.thread" && e.value == nonce)
        .expect("the marker is the ring's newest event")
        .tid;
    let nlanes = lanes.len();
    for (i, lane) in lanes.into_iter().enumerate() {
        let tasks: Vec<(u64, &OffloadCall)> =
            (i..calls.len()).step_by(nlanes).map(|t| (t as u64, &calls[t])).collect();
        if reference {
            fold_lane_recording_every_call(&retry, lane, &tasks);
        } else {
            fold_lane(&retry, lane, &tasks, None);
        }
    }
    let written = flight.record_overwritten(0) - written_before;
    let events: Vec<_> = flight
        .dump("test")
        .events
        .into_iter()
        .filter(|e| e.tid == tid)
        .map(|e| (e.kind, e.name, e.value))
        .collect();
    let dropped = written - events.len() as u64;
    (events, dropped)
}

#[test]
fn a_lane_skips_only_the_flight_events_its_ring_would_drop() {
    let capacity = everest_telemetry::flight().capacity();
    assert!(capacity >= 16, "the recorder is on at its default size");
    let lanes = manager("none", 1).lane_devices().len();
    // Lanes that end on the host CPU complete every call, three events or
    // more each: lanes around `capacity / 3` calls, at and past
    // `capacity / 2`, and far past the ring. Without the host CPU a failed
    // call records two events, so the lanes go around `capacity / 2`.
    let (third, half) = (capacity / 3, capacity / 2);
    let with_host =
        [capacity / 4, third - 1, third, third + 1, third + 2, half, half + 1, 3 * capacity];
    let fpgas_only = [third + 1, half - 1, half, half + 1, half + 2, 3 * capacity];
    let cases = with_host.map(|n| (true, n)).into_iter().chain(fpgas_only.map(|n| (false, n)));
    for (host_cpu, per_lane) in cases {
        for profile in FaultPlan::PROFILES {
            let calls = lanes * per_lane;
            let fold = |reference| {
                std::thread::scope(|s| {
                    s.spawn(|| fold_on_this_thread(profile, host_cpu, calls, reference))
                        .join()
                        .unwrap()
                })
            };
            let (expected, expected_dropped) = fold(true);
            let (events, dropped) = fold(false);
            let first_difference = events.iter().zip(&expected).position(|(a, b)| a != b);
            assert!(
                events == expected,
                "{profile}, host CPU {host_cpu}, {per_lane} calls a lane: {} events in the \
                 ring against {}, first difference at {first_difference:?}",
                events.len(),
                expected.len()
            );
            assert_eq!(
                dropped, expected_dropped,
                "{profile}, {host_cpu}, {per_lane} calls: dropped"
            );
            if per_lane > capacity {
                assert_eq!(events.len(), capacity, "{profile}: the ring is full");
                assert!(dropped > 0, "{profile}: the fold skipped events");
            }
        }
    }
}
