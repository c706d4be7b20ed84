//! `runtime.hardened_switches` counts switches. The protection policy
//! answers "hardened variant" on every record once three range alarms
//! have been seen, so a counter bumped on each such answer grows with
//! the run's length; it has to move only when the monitor's mode does.
//! One test, alone in its binary: the counter is process-global, and any
//! other monitor fed a faulty batch beside it would move it too.

use everest_runtime::RuntimeMonitor;

#[test]
fn hardened_switches_count_mode_changes_not_records() {
    let switches = || everest_telemetry::metrics().snapshot().counter("runtime.hardened_switches");
    let mut m = RuntimeMonitor::new(0);
    for _ in 0..2 {
        m.record(100.0, false, true);
    }
    assert!(!m.system_state().require_hardened);
    assert_eq!(switches(), 0);
    m.record(100.0, false, true);
    assert!(m.system_state().require_hardened, "the third range alarm switches");
    assert_eq!(switches(), 1);

    // 1 000 clean records, one by one and as a batch: the policy keeps
    // asking for the hardened variant, the mode does not change again.
    for _ in 0..500 {
        m.record(100.0, false, false);
    }
    m.record_batch((0..500).map(|_| (100.0, false, false)));
    assert_eq!(switches(), 1);
    assert!(m.system_state().require_hardened);

    // An operator all-clear re-arms the switch.
    m.reset_protection();
    assert!(!m.system_state().require_hardened);
    m.record(100.0, false, true);
    assert!(m.system_state().require_hardened);
    assert_eq!(switches(), 2);
}
