//! Named counters, gauges, and log-bucketed latency histograms.
//!
//! Histograms are [`LogHistogram`]s: HDR-style log-linear buckets with
//! percentile estimation (see [`crate::histogram`]). Snapshots of the
//! whole registry serialize to stable JSON and merge across invocations
//! via [`MetricsSnapshot::merge`].

pub(crate) use crate::histogram::HistogramSnapshot;
use crate::histogram::LogHistogram;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

#[derive(Default)]
struct Inner {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, LogHistogram)>,
}

fn slot<'a, T>(
    entries: &'a mut Vec<(String, T)>,
    name: &str,
    init: impl FnOnce() -> T,
) -> &'a mut T {
    if let Some(at) = entries.iter().position(|(n, _)| n == name) {
        return &mut entries[at].1;
    }
    entries.push((name.to_owned(), init()));
    &mut entries.last_mut().unwrap().1
}

/// A thread-safe registry of named metrics.
///
/// All operations auto-register the metric on first use.
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry (const, so it can back a `static`).
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(Inner {
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            }),
        }
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        *slot(&mut self.inner.lock().counters, name, || 0) += delta;
    }

    /// Increments the named counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        *slot(&mut self.inner.lock().gauges, name, || 0.0) = value;
    }

    /// Raises the named gauge to `value` if the current reading is
    /// lower (or the gauge is unset) — peak tracking, e.g. high-water
    /// queue depths. NaN is ignored so a bad sample cannot wedge the
    /// gauge.
    pub fn gauge_max(&self, name: &str, value: f64) {
        if value.is_nan() {
            return;
        }
        let mut inner = self.inner.lock();
        let slot = slot(&mut inner.gauges, name, || value);
        if value > *slot {
            *slot = value;
        }
    }

    /// Records `value` into the named histogram.
    ///
    /// NaN is rejected (it can no longer poison `sum`/mean) and negative
    /// values clamp to the zero bucket — see [`LogHistogram::observe`].
    pub fn observe(&self, name: &str, value: f64) {
        slot(&mut self.inner.lock().histograms, name, LogHistogram::new).observe(value);
    }

    /// Folds a locally-accumulated histogram into the named registry
    /// histogram under a single lock acquisition. This is the
    /// low-contention path for per-worker histograms: observe into a
    /// thread-local [`LogHistogram`], then merge once at the end.
    pub fn merge_histogram(&self, name: &str, local: &LogHistogram) {
        if local.count() == 0 {
            return;
        }
        slot(&mut self.inner.lock().histograms, name, LogHistogram::new).merge_from(local);
    }

    /// A point-in-time copy of every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let mut counters: Vec<CounterSnapshot> = inner
            .counters
            .iter()
            .map(|(name, value)| CounterSnapshot { name: name.clone(), value: *value })
            .collect();
        let mut gauges: Vec<GaugeSnapshot> = inner
            .gauges
            .iter()
            .map(|(name, value)| GaugeSnapshot { name: name.clone(), value: *value })
            .collect();
        let mut histograms: Vec<HistogramSnapshot> =
            inner.histograms.iter().map(|(name, h)| h.snapshot(name)).collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, gauges, histograms }
    }

    /// Clears every metric (used between CLI invocations and tests).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Monotonic total.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// Serializable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds another snapshot into this one: counters add, gauges take
    /// the other's value (last wins), histograms merge bucket-wise.
    /// Sorted-name order is preserved.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|mine| mine.name == g.name) {
                Some(mine) => mine.value = g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => mine.merge(h),
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter_inc("b.total");
        registry.counter_add("a.total", 41);
        registry.counter_inc("a.total");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a.total"), 42);
        assert_eq!(snap.counter("b.total"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.counters[0].name, "a.total");
    }

    #[test]
    fn gauges_keep_last_value() {
        let registry = MetricsRegistry::new();
        registry.gauge_set("free_luts", 1000.0);
        registry.gauge_set("free_luts", 640.0);
        assert_eq!(registry.snapshot().gauge("free_luts"), Some(640.0));
        assert_eq!(registry.snapshot().gauge("missing"), None);
    }

    #[test]
    fn gauge_max_tracks_the_peak() {
        let registry = MetricsRegistry::new();
        registry.gauge_max("queue.depth", 3.0);
        registry.gauge_max("queue.depth", 7.0);
        registry.gauge_max("queue.depth", 5.0);
        registry.gauge_max("queue.depth", f64::NAN);
        assert_eq!(registry.snapshot().gauge("queue.depth"), Some(7.0));
        // A later gauge_set still overwrites (last-wins semantics).
        registry.gauge_set("queue.depth", 1.0);
        assert_eq!(registry.snapshot().gauge("queue.depth"), Some(1.0));
    }

    #[test]
    fn histograms_report_count_sum_and_percentiles() {
        let registry = MetricsRegistry::new();
        for value in 1..=1000 {
            registry.observe("latency", value as f64);
        }
        let snap = registry.snapshot();
        let h = snap.histogram("latency").unwrap();
        assert_eq!(h.count, 1000);
        assert_eq!(h.sum, 500_500.0);
        assert!((h.p50() - 500.0).abs() / 500.0 < 0.02);
        assert!((h.p99() - 990.0).abs() / 990.0 < 0.02);
        assert_eq!(h.max, 1000.0);
    }

    #[test]
    fn observe_rejects_nan_and_clamps_negative() {
        // Regression: a single NaN used to make `sum` (and the mean)
        // NaN forever; negatives used to drag `sum` down.
        let registry = MetricsRegistry::new();
        registry.observe("h", 10.0);
        registry.observe("h", f64::NAN);
        registry.observe("h", -7.0);
        registry.observe("h", 30.0);
        let snap = registry.snapshot();
        let h = snap.histogram("h").unwrap();
        assert!(!h.sum.is_nan());
        assert_eq!(h.sum, 40.0);
        assert_eq!(h.count, 3); // NaN never counted
        assert_eq!(h.nan_rejected, 1);
        assert_eq!(h.zeros, 1); // the clamped negative
        assert!(!h.mean().is_nan());
    }

    #[test]
    fn merge_histogram_folds_local_worker_data() {
        let registry = MetricsRegistry::new();
        registry.observe("work", 5.0);
        let mut local = LogHistogram::new();
        local.observe(7.0);
        local.observe(9.0);
        registry.merge_histogram("work", &local);
        registry.merge_histogram("work", &LogHistogram::new()); // no-op
        let snap = registry.snapshot();
        let h = snap.histogram("work").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 21.0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let registry = MetricsRegistry::new();
        registry.counter_add("n", 3);
        registry.gauge_set("g", 1.5);
        registry.observe("h", 42.0);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_merge_across_invocations() {
        let a = {
            let r = MetricsRegistry::new();
            r.counter_add("calls", 2);
            r.gauge_set("depth", 1.0);
            r.observe("lat", 10.0);
            r.snapshot()
        };
        let b = {
            let r = MetricsRegistry::new();
            r.counter_add("calls", 3);
            r.counter_inc("faults");
            r.gauge_set("depth", 4.0);
            r.observe("lat", 30.0);
            r.snapshot()
        };
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("calls"), 5);
        assert_eq!(merged.counter("faults"), 1);
        assert_eq!(merged.gauge("depth"), Some(4.0));
        let lat = merged.histogram("lat").unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 40.0);
    }

    #[test]
    fn reset_clears_everything() {
        let registry = MetricsRegistry::new();
        registry.counter_inc("n");
        registry.reset();
        let snap = registry.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }
}
