//! With the flight recorder off, a batch records nothing: not the calls
//! it folds, not the count of those it skips because its ring would drop
//! them. The capacity is process-wide, so this test has a binary of its
//! own.

use everest_platform::System;
use everest_runtime::offload::{FaultPlan, OffloadCall, OffloadManager};

#[test]
fn a_batch_records_nothing_while_the_recorder_is_off() {
    let flight = everest_telemetry::flight();
    flight.set_capacity(0);
    // Far more calls a lane than any ring holds, so a fold that still
    // counted the calls it skips would show as `dropped`.
    let calls: Vec<OffloadCall> = (0..20_000)
        .map(|i| OffloadCall { kernel: format!("k{}", i % 64), payload_bytes: 4096, work_us: 90.0 })
        .collect();
    for jobs in [1, 2] {
        let plan = FaultPlan::from_profile("flaky", 2026).unwrap();
        let mut mgr = OffloadManager::for_system(&System::everest_reference(), plan).unwrap();
        mgr.run_batch(&calls, jobs).unwrap();
        mgr.execute(&calls[0]).unwrap();
        let dump = flight.dump("off");
        assert!(dump.events.is_empty(), "jobs={jobs}: {} events recorded", dump.events.len());
        assert_eq!(dump.dropped, 0, "jobs={jobs}");
    }
    assert_eq!(flight.record_overwritten(5), 0, "nothing counts while off");
}
