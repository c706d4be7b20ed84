//! Hardware-monitor models and the auto-protection policy engine.
//!
//! "Dedicated hardware monitors will detect anomalies with respect to the
//! expected data behaviors (timing patterns, access patterns, typical
//! sizes and ranges), activating proper dynamic adaptation in the form of
//! 'auto-protection'" (paper III-B). Three monitors mirror those signal
//! classes; [`AutoProtect`] aggregates their alarms into actions the
//! runtime executes.

use std::collections::VecDeque;

/// Timing monitor: tracks an exponential moving average and variance of
/// observed latencies; flags observations too many sigmas from the mean.
#[derive(Debug, Clone)]
pub struct TimingMonitor {
    mean: f64,
    var: f64,
    alpha: f64,
    threshold_sigma: f64,
    warmup: usize,
    seen: usize,
}

impl TimingMonitor {
    /// Creates a monitor with smoothing factor `alpha` (0..1) and an alarm
    /// threshold in standard deviations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `threshold_sigma > 0`.
    pub fn new(alpha: f64, threshold_sigma: f64) -> TimingMonitor {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        assert!(threshold_sigma > 0.0, "threshold must be positive");
        TimingMonitor { mean: 0.0, var: 0.0, alpha, threshold_sigma, warmup: 16, seen: 0 }
    }

    /// Feeds one latency observation; returns `true` when it is anomalous.
    pub fn observe(&mut self, latency_us: f64) -> bool {
        self.seen += 1;
        if self.seen == 1 {
            self.mean = latency_us;
            self.var = 0.0;
            return false;
        }
        let sigma = self.var.sqrt();
        let anomalous = self.seen > self.warmup
            && sigma > 0.0
            && (latency_us - self.mean).abs() > self.threshold_sigma * sigma;
        if !anomalous {
            // Only clean samples update the profile (so an attack cannot
            // slowly poison the baseline).
            let delta = latency_us - self.mean;
            self.mean += self.alpha * delta;
            self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta);
        }
        anomalous
    }
}

/// Access-pattern monitor: learns the stride histogram of addresses during
/// a training phase, then flags accesses whose stride was never seen
/// (e.g. a buffer-overflow scan has stride patterns unlike the kernel's).
#[derive(Debug, Clone)]
pub struct AccessMonitor {
    last: Option<u64>,
    known_strides: Vec<i64>,
    training: bool,
    window: VecDeque<bool>,
    window_len: usize,
}

impl AccessMonitor {
    /// Creates a monitor that flags when more than half the last
    /// `window_len` accesses had unknown strides.
    pub fn new(window_len: usize) -> AccessMonitor {
        AccessMonitor {
            last: None,
            known_strides: Vec::new(),
            training: true,
            window: VecDeque::new(),
            window_len: window_len.max(1),
        }
    }

    /// Ends the training phase; subsequent unknown strides count as
    /// suspicious.
    pub fn freeze(&mut self) {
        self.training = false;
    }

    /// Feeds one address; returns `true` when the recent window is
    /// majority-suspicious.
    pub fn observe(&mut self, addr: u64) -> bool {
        let stride = self.last.map(|l| addr as i64 - l as i64);
        self.last = Some(addr);
        let Some(stride) = stride else {
            return false;
        };
        if self.training {
            if !self.known_strides.contains(&stride) {
                self.known_strides.push(stride);
            }
            return false;
        }
        let suspicious = !self.known_strides.contains(&stride);
        self.window.push_back(suspicious);
        if self.window.len() > self.window_len {
            self.window.pop_front();
        }
        let bad = self.window.iter().filter(|s| **s).count();
        self.window.len() == self.window_len && bad * 2 > self.window_len
    }
}

/// Value-range monitor: expected [lo, hi] interval for a data field.
#[derive(Debug, Clone, Copy)]
pub struct RangeMonitor {
    lo: f64,
    hi: f64,
}

impl RangeMonitor {
    /// Creates a monitor for the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> RangeMonitor {
        assert!(lo <= hi, "empty range");
        RangeMonitor { lo, hi }
    }

    /// `true` when `value` falls outside the expected range.
    pub fn observe(&self, value: f64) -> bool {
        !(self.lo..=self.hi).contains(&value)
    }
}

/// Actions the auto-protection policy can demand from the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtectAction {
    /// Nothing to do.
    None,
    /// Log and keep watching.
    Audit,
    /// Switch to a hardened (encrypted / DIFT-enabled) variant.
    SwitchHardenedVariant,
    /// Quarantine the task: stop scheduling it on shared resources.
    Isolate,
}

/// Aggregates monitor alarms into escalating actions.
#[derive(Debug, Clone, Default)]
pub struct AutoProtect {
    timing_alarms: usize,
    access_alarms: usize,
    range_alarms: usize,
}

impl AutoProtect {
    /// Creates a policy engine with zeroed counters.
    pub fn new() -> AutoProtect {
        AutoProtect::default()
    }

    /// Records alarms from one observation round and returns the action.
    ///
    /// Escalation: a single timing alarm → audit (performance jitter is not
    /// an attack by itself); an access anomaly or repeated range
    /// violations → hardened variant; sustained access anomalies or
    /// combined signals → isolate.
    pub fn step(&mut self, timing: bool, access: bool, range: bool) -> ProtectAction {
        if timing {
            self.timing_alarms += 1;
        }
        if access {
            self.access_alarms += 1;
        }
        if range {
            self.range_alarms += 1;
        }
        let kinds = usize::from(timing) + usize::from(access) + usize::from(range);
        if self.access_alarms >= 3 || kinds >= 2 {
            ProtectAction::Isolate
        } else if access || self.range_alarms >= 3 {
            ProtectAction::SwitchHardenedVariant
        } else if kinds == 1 {
            ProtectAction::Audit
        } else {
            ProtectAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_monitor_flags_outliers_after_warmup() {
        let mut m = TimingMonitor::new(0.1, 4.0);
        for i in 0..100 {
            // Stable latency around 100 us with small jitter.
            let jitter = (i % 5) as f64 * 0.5;
            assert!(!m.observe(100.0 + jitter), "baseline flagged at iter {i}");
        }
        assert!(m.observe(500.0), "5x latency spike must alarm");
        assert!((m.mean - 100.0).abs() < 5.0, "spike must not poison the mean");
    }

    #[test]
    fn timing_monitor_tolerates_warmup_noise() {
        let mut m = TimingMonitor::new(0.2, 3.0);
        for v in [10.0, 200.0, 50.0, 120.0] {
            assert!(!m.observe(v), "warmup must not alarm");
        }
    }

    #[test]
    fn access_monitor_learns_strides() {
        let mut m = AccessMonitor::new(4);
        // Train on a stride-8 scan.
        for i in 0..32 {
            m.observe(i * 8);
        }
        m.freeze();
        // Same pattern: fine.
        for i in 32..64 {
            assert!(!m.observe(i * 8));
        }
        // Byte-wise overflow-style scan: unknown stride 1.
        let mut alarms = 0;
        for a in 1_000..1_020u64 {
            if m.observe(a) {
                alarms += 1;
            }
        }
        assert!(alarms > 0, "unknown stride pattern must alarm");
    }

    #[test]
    fn range_monitor_bounds() {
        let m = RangeMonitor::new(-40.0, 60.0); // plausible temperatures
        assert!(!m.observe(21.5));
        assert!(m.observe(999.0));
        assert!(m.observe(-80.0));
    }

    #[test]
    fn autoprotect_escalates() {
        let mut p = AutoProtect::new();
        assert_eq!(p.step(false, false, false), ProtectAction::None);
        assert_eq!(p.step(true, false, false), ProtectAction::Audit);
        assert_eq!(p.step(false, true, false), ProtectAction::SwitchHardenedVariant);
        // Combined signals isolate immediately.
        assert_eq!(p.step(true, false, true), ProtectAction::Isolate);
        assert_eq!(p.timing_alarms + p.access_alarms + p.range_alarms, 4);
    }

    #[test]
    fn repeated_access_anomalies_isolate() {
        let mut p = AutoProtect::new();
        p.step(false, true, false);
        p.step(false, true, false);
        assert_eq!(p.step(false, true, false), ProtectAction::Isolate);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_rejected() {
        RangeMonitor::new(1.0, 0.0);
    }
}
