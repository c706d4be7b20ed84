//! Runtime monitors: the bridge between the hardware monitors of the
//! data-protection layer and the autotuner's [`SystemState`].
//!
//! "Hardware monitors will collect the information to make the selection"
//! (paper IV): this module aggregates per-invocation measurements into the
//! dynamic state the selector consumes.

use crate::autotuner::SystemState;
use everest_security::{AutoProtect, ProtectAction, TimingMonitor};
use everest_telemetry::LogHistogram;

/// Aggregated runtime monitor for one kernel.
#[derive(Debug, Clone)]
pub struct RuntimeMonitor {
    timing: TimingMonitor,
    protect: AutoProtect,
    free_luts: u64,
    congestion: f64,
    hardened_mode: bool,
    isolations: usize,
}

impl RuntimeMonitor {
    /// Creates a monitor with the given initially-free fabric.
    pub fn new(free_luts: u64) -> RuntimeMonitor {
        RuntimeMonitor {
            timing: TimingMonitor::new(0.1, 5.0),
            protect: AutoProtect::new(),
            free_luts,
            congestion: 1.0,
            hardened_mode: false,
            isolations: 0,
        }
    }

    /// Records one invocation: observed latency plus monitor alarms from
    /// the data-protection layer.
    pub fn record(&mut self, latency_us: f64, access_alarm: bool, range_alarm: bool) {
        everest_telemetry::metrics().observe("runtime.latency_us", latency_us);
        self.step(latency_us, access_alarm, range_alarm);
    }

    /// Records a run of invocations in order — the same alarms, counters
    /// and state as [`RuntimeMonitor::record`] on each in turn — with
    /// their latencies gathered locally and folded into
    /// `runtime.latency_us` once, so a long run takes the registry lock
    /// once instead of once per invocation.
    pub fn record_batch(&mut self, records: impl IntoIterator<Item = (f64, bool, bool)>) {
        let mut latencies = LogHistogram::new();
        for (latency_us, access_alarm, range_alarm) in records {
            latencies.observe(latency_us);
            self.step(latency_us, access_alarm, range_alarm);
        }
        everest_telemetry::metrics().merge_histogram("runtime.latency_us", &latencies);
    }

    /// Feeds one observation to the timing monitor and the protection
    /// policy, raising alarms and switching mode as they decide.
    fn step(&mut self, latency_us: f64, access_alarm: bool, range_alarm: bool) {
        let telemetry = everest_telemetry::metrics();
        let flight = everest_telemetry::flight();
        let timing_alarm = self.timing.observe(latency_us);
        // Each alarm also snapshots the flight recorder, so the events
        // *leading up to* the alarm survive for post-hoc inspection
        // (everest_telemetry::flight().take_alarm_dump()).
        if timing_alarm {
            telemetry.counter_inc("runtime.alarm.timing");
            flight.alarm("runtime.alarm.timing", latency_us);
        }
        if access_alarm {
            telemetry.counter_inc("runtime.alarm.access");
            flight.alarm("runtime.alarm.access", latency_us);
        }
        if range_alarm {
            telemetry.counter_inc("runtime.alarm.range");
            flight.alarm("runtime.alarm.range", latency_us);
        }
        match self.protect.step(timing_alarm, access_alarm, range_alarm) {
            ProtectAction::None | ProtectAction::Audit => {}
            // The policy asks for the hardened variant on every step once
            // its alarm counts are past the threshold; the switch happens
            // (and is counted) when the mode actually changes.
            ProtectAction::SwitchHardenedVariant => {
                if !self.hardened_mode {
                    telemetry.counter_inc("runtime.hardened_switches");
                    self.hardened_mode = true;
                }
            }
            ProtectAction::Isolate => {
                telemetry.counter_inc("runtime.isolations");
                self.hardened_mode = true;
                self.isolations += 1;
            }
        }
    }

    /// Updates resource availability (fabric reclaimed or consumed).
    pub fn set_free_luts(&mut self, free: u64) {
        self.free_luts = free;
        everest_telemetry::metrics().gauge_set("runtime.free_luts", free as f64);
    }

    /// Updates the observed link congestion factor (≥ 1).
    pub fn set_congestion(&mut self, factor: f64) {
        self.congestion = factor.max(1.0);
        everest_telemetry::metrics().gauge_set("runtime.congestion", self.congestion);
    }

    /// Clears the hardened-mode latch (after an operator all-clear).
    pub fn reset_protection(&mut self) {
        self.hardened_mode = false;
    }

    /// Number of isolate-level escalations so far.
    pub fn isolations(&self) -> usize {
        self.isolations
    }

    /// The [`SystemState`] snapshot the autotuner consumes.
    pub fn system_state(&self) -> SystemState {
        SystemState {
            free_luts: self.free_luts,
            link_congestion: self.congestion,
            require_hardened: self.hardened_mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_history_keeps_default_state() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..50 {
            m.record(100.0, false, false);
        }
        let s = m.system_state();
        assert!(!s.require_hardened);
        assert_eq!(s.free_luts, 100_000);
    }

    #[test]
    fn access_alarms_latch_hardened_mode() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, false);
        assert!(m.system_state().require_hardened);
        m.reset_protection();
        assert!(!m.system_state().require_hardened);
    }

    #[test]
    fn a_batch_records_what_one_by_one_records() {
        let history =
            |i: u32| (100.0 + f64::from(i % 7), i % 97 == 96, i % 41 == 40 || i % 97 == 96);
        let mut one_by_one = RuntimeMonitor::new(5);
        let mut batched = one_by_one.clone();
        for i in 0..500 {
            let (latency_us, access, range) = history(i);
            one_by_one.record(latency_us, access, range);
        }
        batched.record_batch((0..500).map(history));
        assert_eq!(batched.system_state(), one_by_one.system_state());
        assert_eq!(batched.isolations(), one_by_one.isolations());
        assert!(one_by_one.isolations() > 0, "the history escalates");
    }

    #[test]
    fn combined_alarms_escalate_to_isolation() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, true);
        assert_eq!(m.isolations(), 1);
    }

    #[test]
    fn alarms_capture_a_flight_dump() {
        let mut m = RuntimeMonitor::new(100_000);
        for _ in 0..20 {
            m.record(100.0, false, false);
        }
        m.record(100.0, true, false);
        // Other tests in this binary may fire alarms concurrently (the
        // recorder is process-global), so assert on presence and shape
        // rather than on the exact alarm name.
        let dump = everest_telemetry::flight().take_alarm_dump().expect("alarm captured dump");
        assert!(dump.reason.starts_with("runtime.alarm."));
        assert!(dump.events.iter().any(|e| e.kind == everest_telemetry::EventKind::Alarm));
    }

    #[test]
    fn congestion_clamped_to_one() {
        let mut m = RuntimeMonitor::new(0);
        m.set_congestion(0.2);
        assert_eq!(m.system_state().link_congestion, 1.0);
        m.set_congestion(3.0);
        assert_eq!(m.system_state().link_congestion, 3.0);
    }

    #[test]
    fn fabric_updates_propagate() {
        let mut m = RuntimeMonitor::new(10);
        m.set_free_luts(999);
        assert_eq!(m.system_state().free_luts, 999);
    }
}
