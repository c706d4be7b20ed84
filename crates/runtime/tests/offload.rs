//! Integration tests for the offload recovery layer: circuit-breaker
//! state machine transitions, deterministic bounded backoff schedules,
//! end-to-end batch recovery over the reference system, pinned trace
//! digests, and an allocation pin on the batch fold (which is why this
//! binary installs the counting allocator; it counts per thread, so the
//! tests running beside the pin do not disturb it).

use everest_alloc_counter::{measure, CountingAllocator};
use everest_platform::System;
use everest_runtime::offload::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultPlan, FaultRates, OffloadCall,
    OffloadManager, RetryPolicy, TargetClass,
};
use everest_workflow::seed::fnv1a;
use proptest::prelude::*;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn call(i: usize) -> OffloadCall {
    OffloadCall { kernel: format!("k{i}"), payload_bytes: 32 << 10, work_us: 250.0 }
}

#[test]
fn breaker_walks_the_full_state_machine() {
    let cfg = BreakerConfig { trip_after: 2, cooldown_us: 50.0, close_after: 2 };
    let mut b = CircuitBreaker::new(cfg);

    // Closed: failures below the threshold stay closed.
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(!b.on_failure(0.0));
    assert_eq!(b.state(), BreakerState::Closed);

    // Trip: the threshold failure opens it.
    assert!(b.on_failure(10.0));
    assert_eq!(b.state(), BreakerState::Open);

    // Open: rejects until the cooldown elapses, then probes.
    assert_eq!(b.poll(40.0), BreakerState::Open);
    assert_eq!(b.poll(60.0), BreakerState::HalfOpen);

    // Half-open probe failure re-opens with a fresh cooldown.
    assert!(b.on_failure(60.0));
    assert_eq!(b.poll(100.0), BreakerState::Open);
    assert_eq!(b.poll(111.0), BreakerState::HalfOpen);

    // Two probe successes re-close; the failure counter starts fresh.
    assert!(!b.on_success());
    assert!(b.on_success());
    assert_eq!(b.state(), BreakerState::Closed);
    assert!(!b.on_failure(200.0));
    assert!(b.on_failure(201.0), "threshold counts only post-close failures");
}

#[test]
fn flaky_batch_recovers_and_replays_identically() {
    let calls: Vec<OffloadCall> = (0..32).map(call).collect();
    let reference = {
        let plan = FaultPlan::from_profile("flaky", 2024).unwrap();
        let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
        let outcomes = mgr.run_batch(&calls, 1).unwrap();
        assert_eq!(outcomes.len(), calls.len(), "every call completes despite faults");
        (outcomes, mgr.trace())
    };
    for jobs in [2, 4, 8] {
        let plan = FaultPlan::from_profile("flaky", 2024).unwrap();
        let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
        let outcomes = mgr.run_batch(&calls, jobs).unwrap();
        assert_eq!(outcomes, reference.0, "outcomes diverge at jobs={jobs}");
        assert_eq!(mgr.trace(), reference.1, "trace diverges at jobs={jobs}");
    }
}

#[test]
fn meltdown_still_completes_every_call_on_the_cpu() {
    let plan = FaultPlan::from_profile("meltdown", 1).unwrap();
    let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
    let calls: Vec<OffloadCall> = (0..10).map(call).collect();
    let outcomes = mgr.run_batch(&calls, 4).unwrap();
    assert!(outcomes.iter().all(|o| o.class == TargetClass::HostCpu));
    assert!(outcomes.iter().all(|o| o.degraded));
    // All seven FPGAs of the reference system are gone for good.
    assert_eq!(mgr.tripped_devices().len(), 7);
    assert!(mgr.trace().contains("device LOST"));
}

/// Calls of mixed payload and work, so transfer and compute times (and
/// with them every virtual clock in the trace) differ from call to call.
fn mixed_call(i: usize) -> OffloadCall {
    OffloadCall {
        kernel: format!("k{}", i % 64),
        payload_bytes: 4096 << (i % 5),
        work_us: 50.0 + (i * 37 % 450) as f64,
    }
}

/// `(profile, seed, FNV-1a of trace(), lines of trace())` over 16 384
/// [`mixed_call`]s, taken on the build whose trace events still owned
/// their device names as `String`s. The fold, the merge and the
/// rendering may be rearranged freely; these may not move.
const TRACE_DIGESTS: [(&str, u64, u64, usize); 8] = [
    ("none", 7, 0xef45_28ad_33f3_e906, 32_768),
    ("none", 2026, 0xef45_28ad_33f3_e906, 32_768),
    ("lossy", 7, 0x40a1_29aa_fc5f_9b6f, 49_233),
    ("lossy", 2026, 0x0935_ce8a_c267_4f5c, 49_254),
    ("flaky", 7, 0x95f6_81bb_3b91_d6e1, 52_088),
    ("flaky", 2026, 0x409f_274f_af38_98bf, 52_026),
    ("meltdown", 7, 0xb106_a420_de40_661f, 65_550),
    ("meltdown", 2026, 0xb106_a420_de40_661f, 65_550),
];

#[test]
fn long_traces_reproduce_the_pinned_digests() {
    let calls: Vec<OffloadCall> = (0..16_384).map(mixed_call).collect();
    let mut seen = Vec::new();
    for (profile, seed, _, _) in TRACE_DIGESTS {
        let traces: Vec<String> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                let plan = FaultPlan::from_profile(profile, seed).unwrap();
                let mut mgr =
                    OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
                mgr.run_batch(&calls, jobs).unwrap();
                assert_eq!(mgr.events().len(), mgr.trace().lines().count());
                mgr.trace()
            })
            .collect();
        assert_eq!(traces[0], traces[1], "{profile}/{seed}: jobs 1 and 4 disagree");
        seen.push((profile, seed, fnv1a(&traces[0]), traces[0].lines().count()));
    }
    assert_eq!(seen, TRACE_DIGESTS, "left: this build, right: pinned");
}

/// A batch allocates per buffer, never per event, rung, attempt or call:
/// four times the calls may cost a few more doublings of the lane
/// buffers and nothing else. At `jobs = 1` the lanes fold inline, on the
/// thread the allocator counts. Fails if a `String` (or any other heap
/// value) comes back into the trace events, the per-rung state or the
/// outcomes.
#[test]
fn a_batch_allocates_per_buffer_not_per_call() {
    for profile in ["none", "flaky"] {
        let allocations = |n_calls: usize| {
            let calls: Vec<OffloadCall> = (0..n_calls).map(mixed_call).collect();
            let plan = FaultPlan::from_profile(profile, 2026).unwrap();
            let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
            let (allocations, _) = measure(|| {
                mgr.run_batch(&calls, 1).unwrap();
            });
            assert!(mgr.events().len() >= 2 * n_calls);
            allocations
        };
        // Warm-up: this thread's flight ring, the registry's metric names.
        allocations(16);
        let (small, large) = (allocations(1_024), allocations(4_096));
        assert!(
            large <= small + 64,
            "{profile}: 1 024 calls made {small} allocations, 4 096 made {large}"
        );
    }
}

/// The single-call path shares the fold and publishes its few
/// observations directly: once the manager's buffers and the registry's
/// names exist, a call allocates nothing of its own. What is left is the
/// trace doubling now and then (and one flight dump, if a timing alarm
/// fires for the first time).
#[test]
fn execute_allocates_nothing_per_call_after_warm_up() {
    let plan = FaultPlan::from_profile("flaky", 2026).unwrap();
    let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
    let calls: Vec<OffloadCall> = (0..1_064).map(mixed_call).collect();
    let (warm_up, measured) = calls.split_at(64);
    for call in warm_up {
        mgr.execute(call).unwrap();
    }
    let (allocations, _) = measure(|| {
        for call in measured {
            mgr.execute(call).unwrap();
        }
    });
    assert!(allocations <= 32, "1 000 calls made {allocations} allocations");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff schedules are deterministic per seed and monotonically
    /// bounded: the jittered wait always lands in `[nominal/2, nominal)`
    /// of a non-decreasing, capped nominal curve.
    #[test]
    fn backoff_schedules_are_deterministic_and_bounded(
        seed in any::<u64>(),
        invocation in any::<u64>(),
        base_us in 1.0f64..1_000.0,
        factor in 1.0f64..4.0,
        cap_mult in 1.0f64..64.0,
    ) {
        let retry = RetryPolicy {
            max_attempts: 8,
            timeout_us: 1_000.0,
            base_us,
            factor,
            cap_us: base_us * cap_mult,
        };
        let mut prev_nominal = 0.0f64;
        for attempt in 1..=retry.max_attempts {
            let nominal = retry.nominal_backoff_us(attempt);
            // Monotone, non-decreasing, capped.
            prop_assert!(nominal >= prev_nominal);
            prop_assert!(nominal <= retry.cap_us + 1e-9);
            prev_nominal = nominal;

            let wait = retry.backoff_us(seed, "node/dev", invocation, attempt);
            prop_assert!(wait >= 0.5 * nominal - 1e-9, "jitter below floor");
            prop_assert!(wait < nominal + 1e-9, "jitter above nominal");
            // Bit-identical replay for the same inputs.
            prop_assert_eq!(wait, retry.backoff_us(seed, "node/dev", invocation, attempt));
        }
    }

    /// Fault outcomes replay bit-identically for the same plan inputs and
    /// the no-fault profile never injects anything.
    #[test]
    fn fault_plans_replay_per_seed(seed in any::<u64>(), invocation in any::<u64>()) {
        let udp = Some(everest_platform::LinkProfile::UdpDatacenter);
        let plan = FaultPlan::from_profile("lossy", seed).unwrap();
        let twin = FaultPlan::from_profile("lossy", seed).unwrap();
        for attempt in 0..4 {
            prop_assert_eq!(
                plan.outcome("rack/cf0", udp, invocation, attempt),
                twin.outcome("rack/cf0", udp, invocation, attempt)
            );
        }
        let clean = FaultPlan::from_profile("none", seed).unwrap();
        prop_assert_eq!(clean.outcome("rack/cf0", udp, invocation, 0), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load-bearing invariant of the lane-partitioned parallel fold:
    /// for any fault plan (a named profile, or random rates on every
    /// FPGA), seed and batch size, `run_batch` at jobs ∈ {1, 2, 4, 8},
    /// `execute` call by call, and `execute` for a prefix followed by a
    /// batch over the rest all produce byte-identical traces (which embed
    /// every retry, fallback, breaker transition, and device loss in
    /// invocation order), identical outcomes, identical breaker states
    /// across the device chain, the same tripped set and the same
    /// monitor state.
    #[test]
    fn run_batch_is_jobs_invariant_over_random_fault_profiles(
        profile_idx in 0usize..=FaultPlan::PROFILES.len(),
        rates in (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.02),
        seed in any::<u64>(),
        n_calls in 1usize..2_000,
        split in 0usize..2_000,
    ) {
        let plan = match FaultPlan::PROFILES.get(profile_idx) {
            Some(profile) => FaultPlan::from_profile(profile, seed).unwrap(),
            None => {
                let (drop, timeout, corrupt, device_loss) = rates;
                FaultPlan::new(seed, FaultRates { drop, timeout, corrupt, device_loss }).unwrap()
            }
        };
        let calls: Vec<OffloadCall> = (0..n_calls).map(mixed_call).collect();

        // The first `one_by_one` calls through `execute`, the rest as one
        // batch at `jobs`.
        let run = |one_by_one: usize, jobs: usize| {
            let mut mgr =
                OffloadManager::for_system(&System::everest_reference(), plan.clone()).unwrap();
            let (head, tail) = calls.split_at(one_by_one.min(calls.len()));
            let mut outcomes: Vec<_> = head.iter().map(|c| mgr.execute(c).unwrap()).collect();
            outcomes.extend(mgr.run_batch(tail, jobs).unwrap());
            let breakers: Vec<(String, BreakerState)> = mgr
                .chain()
                .iter()
                .map(|t| {
                    (t.device.clone(), mgr.breaker(&t.device).map_or(BreakerState::Closed, |b| b.state()))
                })
                .collect();
            (outcomes, mgr.trace(), breakers, mgr.tripped_devices(), mgr.monitor().system_state())
        };

        let reference = run(0, 1);
        for (one_by_one, jobs) in [(0, 2), (0, 4), (0, 8), (n_calls, 1), (split, 2)] {
            let (outcomes, trace, breakers, tripped, state) = run(one_by_one, jobs);
            let at = format!("{one_by_one} calls one by one, then jobs={jobs}");
            prop_assert_eq!(&outcomes, &reference.0, "outcomes diverge: {}", at);
            prop_assert_eq!(&trace, &reference.1, "trace diverges: {}", at);
            prop_assert_eq!(&breakers, &reference.2, "breakers diverge: {}", at);
            prop_assert_eq!(&tripped, &reference.3, "tripped set diverges: {}", at);
            prop_assert_eq!(&state, &reference.4, "monitor state diverges: {}", at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch's trace stays in its lanes' buffers, one segment a batch,
    /// and calls made one at a time append to a trailing segment of their
    /// own. However a call list is cut into batches (at jobs ∈ {1, 2, 4,
    /// 8}) and runs of single calls, the trace reads back byte for byte as
    /// the calls made one by one write it, `events()` counts its lines,
    /// and the outcomes and the tripped set are those of the calls made
    /// one by one.
    #[test]
    fn any_cut_into_batches_and_single_calls_traces_like_calls_one_by_one(
        profile_idx in 0usize..=FaultPlan::PROFILES.len(),
        rates in (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.02),
        seed in any::<u64>(),
        pieces in prop::collection::vec((0usize..5, 1usize..400), 1..12),
    ) {
        let plan = match FaultPlan::PROFILES.get(profile_idx) {
            Some(profile) => FaultPlan::from_profile(profile, seed).unwrap(),
            None => {
                let (drop, timeout, corrupt, device_loss) = rates;
                FaultPlan::new(seed, FaultRates { drop, timeout, corrupt, device_loss }).unwrap()
            }
        };
        let manager =
            || OffloadManager::for_system(&System::everest_reference(), plan.clone()).unwrap();
        let calls: Vec<OffloadCall> =
            (0..pieces.iter().map(|&(_, len)| len).sum()).map(mixed_call).collect();

        let mut reference = manager();
        let expected: Vec<_> = calls.iter().map(|c| reference.execute(c).unwrap()).collect();
        let expected_trace = reference.trace();

        let mut mgr = manager();
        let mut outcomes = Vec::with_capacity(calls.len());
        let mut rest = &calls[..];
        for &(kind, len) in &pieces {
            let (piece, tail) = rest.split_at(len);
            rest = tail;
            match [1, 2, 4, 8].get(kind) {
                Some(&jobs) => outcomes.extend(mgr.run_batch(piece, jobs).unwrap()),
                None => outcomes.extend(piece.iter().map(|c| mgr.execute(c).unwrap())),
            }
        }
        let trace = mgr.trace();
        let first_difference = trace.lines().zip(expected_trace.lines()).position(|(a, b)| a != b);
        prop_assert!(
            trace == expected_trace,
            "trace diverges at line {:?} of {} ({:?})",
            first_difference,
            expected_trace.lines().count(),
            pieces
        );
        prop_assert_eq!(mgr.events().len(), trace.lines().count());
        prop_assert_eq!(&outcomes, &expected);
        prop_assert_eq!(mgr.tripped_devices(), reference.tripped_devices());
    }
}
