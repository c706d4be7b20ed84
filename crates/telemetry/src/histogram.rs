//! HDR-style log-linear latency histograms with mergeable snapshots and
//! quantile estimation.
//!
//! A [`LogHistogram`] covers the full positive `f64` range with
//! log-linear buckets: each power-of-two octave is split into
//! `2^SUB_BITS = 32` linear sub-buckets, bounding the relative width of
//! any bucket to `1/32 ≈ 3.1%` (so a bucket-midpoint quantile estimate
//! is within ~1.6% of the true value). The bucket index is derived
//! directly from the IEEE-754 bit pattern — exponent plus the top five
//! mantissa bits — so `observe` is a handful of integer ops and two
//! array increments, cheap enough for always-on hot-path use.
//!
//! Octaves outside `[2^-20, 2^44)` clamp to the edge buckets; for the
//! microsecond-flavoured latencies recorded here that spans sub-ns to
//! ~200 days. Zero and negative values land in a dedicated zero bucket
//! and NaN is rejected outright (counted, never summed) — see
//! [`LogHistogram::observe`].
//!
//! [`HistogramSnapshot`] is the serializable point-in-time view: a
//! sparse list of non-empty buckets that can be merged across threads,
//! processes, or CLI invocations and re-queried for quantiles.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` linear
/// sub-buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: u32 = 1 << SUB_BITS;
/// Smallest tracked binary exponent (values below clamp to bucket 0).
const EXP_MIN: i32 = -20;
/// Largest tracked binary exponent (values at or above `2^(EXP_MAX+1)`
/// clamp to the last bucket).
const EXP_MAX: i32 = 43;
/// Number of octaves tracked.
const OCTAVES: u32 = (EXP_MAX - EXP_MIN + 1) as u32;
/// Total finite buckets (excluding the zero bucket).
const BUCKETS: usize = (OCTAVES * SUBS) as usize;

/// Largest value representable without clamping; observations above it
/// (including `+inf`) are clamped here so `sum` stays finite.
const MAX_TRACKABLE: f64 = (1u64 << (EXP_MAX + 1)) as f64;

/// Bucket index for a strictly positive finite value.
fn bucket_index(value: f64) -> usize {
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023; // subnormals => -1023, clamps low
    if exp < EXP_MIN {
        return 0;
    }
    if exp > EXP_MAX {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as u32;
    ((exp - EXP_MIN) as u32 * SUBS + sub) as usize
}

/// `[lower, upper)` value bounds of a bucket index.
pub(crate) fn bucket_bounds(index: u32) -> (f64, f64) {
    let octave = index / SUBS;
    let sub = index % SUBS;
    let base = (EXP_MIN + octave as i32) as f64;
    let lo = base.exp2() * (1.0 + sub as f64 / SUBS as f64);
    let hi = if sub + 1 == SUBS {
        (base + 1.0).exp2()
    } else {
        base.exp2() * (1.0 + (sub + 1) as f64 / SUBS as f64)
    };
    (lo, hi)
}

/// A mutable log-linear histogram. Not thread-safe by itself — wrap in
/// a lock (as [`crate::MetricsRegistry`] does) or keep one per thread
/// and [`merge`](LogHistogram::merge_from) at the end.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Observations of zero or negative values.
    zeros: u64,
    /// NaN observations rejected (never counted into `count`/`sum`).
    nan_rejected: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram. Bucket storage is allocated lazily on the
    /// first positive observation.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: Vec::new(),
            zeros: 0,
            nan_rejected: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one observation.
    ///
    /// NaN is rejected (tracked in the `nan_rejected` tally) so a single
    /// bad sample can never poison `sum`/`mean`; negative values clamp
    /// to the zero bucket; values above `MAX_TRACKABLE` (including
    /// `+inf`) clamp to the top bucket. Returns whether the value was
    /// accepted.
    pub fn observe(&mut self, value: f64) -> bool {
        if value.is_nan() {
            self.nan_rejected += 1;
            return false;
        }
        let clamped = value.clamp(0.0, MAX_TRACKABLE);
        if clamped <= 0.0 {
            self.zeros += 1;
        } else {
            if self.counts.is_empty() {
                self.counts = vec![0; BUCKETS];
            }
            self.counts[bucket_index(clamped)] += 1;
        }
        self.count += 1;
        self.sum += clamped;
        self.min = self.min.min(clamped);
        self.max = self.max.max(clamped);
        true
    }

    /// Total accepted observations.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram's observations into this one.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = vec![0; BUCKETS];
            }
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        }
        self.zeros += other.zeros;
        self.nan_rejected += other.nan_rejected;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A serializable snapshot holding only the non-empty buckets.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| HistogramBucket { index: index as u32, count })
            .collect();
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: self.max,
            zeros: self.zeros,
            nan_rejected: self.nan_rejected,
            buckets,
        }
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Dense log-linear bucket index (see `HistogramBucket::bounds`).
    pub index: u32,
    /// Observations in this bucket.
    pub count: u64,
}

impl HistogramBucket {
    /// `[lower, upper)` value bounds of this bucket.
    pub(crate) fn bounds(&self) -> (f64, f64) {
        bucket_bounds(self.index)
    }
}

/// Serializable, mergeable point-in-time view of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total accepted observations (including zeros).
    pub count: u64,
    /// Sum of accepted observations (clamped; never NaN).
    pub sum: f64,
    /// Smallest accepted observation, 0.0 when empty.
    pub min: f64,
    /// Largest accepted observation, 0.0 when empty.
    pub max: f64,
    /// Observations that were zero or negative.
    pub zeros: u64,
    /// NaN observations rejected.
    pub nan_rejected: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean of accepted observations, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by walking the
    /// cumulative bucket counts and reporting the matched bucket's
    /// midpoint, clamped to the observed `[min, max]`. Relative error is
    /// bounded by half the bucket width (~1.6%).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = self.zeros;
        if cumulative >= rank {
            return 0.0;
        }
        for bucket in &self.buckets {
            cumulative += bucket.count;
            if cumulative >= rank {
                let (lo, hi) = bucket.bounds();
                return (0.5 * (lo + hi)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one (sparse bucket-list merge).
    /// The result is identical to snapshotting a single histogram that
    /// saw both observation streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 && other.nan_rejected == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
            match x.index.cmp(&y.index) {
                std::cmp::Ordering::Less => {
                    merged.push(x.clone());
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push(y.clone());
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push(HistogramBucket { index: x.index, count: x.count + y.count });
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.cloned());
        merged.extend(b.cloned());
        self.buckets = merged;
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        self.nan_rejected += other.nan_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_all(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn bucket_bounds_contain_the_values_that_map_to_them() {
        for &v in &[1e-6, 0.004, 0.72, 1.0, 3.5, 17.0, 1000.0, 123456.789, 9.9e12] {
            let idx = bucket_index(v) as u32;
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v < hi, "value {v} outside bucket {idx} bounds [{lo}, {hi})");
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for idx in [0u32, 31, 32, 640, 1000, BUCKETS as u32 - 1] {
            let (lo, hi) = bucket_bounds(idx);
            assert!((hi - lo) / lo <= 1.0 / 16.0 + 1e-12, "bucket {idx} too wide");
        }
    }

    #[test]
    fn quantiles_are_within_bucket_error_of_exact() {
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let snap = observe_all(&values).snapshot("t");
        for (q, exact) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0), (0.999, 9990.0)] {
            let est = snap.quantile(q);
            let err = (est - exact).abs() / exact;
            assert!(err < 0.02, "q={q}: estimate {est} vs exact {exact} (err {err})");
        }
        assert_eq!(snap.quantile(1.0), 10_000.0);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 10_000.0);
    }

    #[test]
    fn nan_is_rejected_and_cannot_poison_the_mean() {
        let mut h = LogHistogram::new();
        assert!(h.observe(10.0));
        assert!(!h.observe(f64::NAN));
        assert!(h.observe(30.0));
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.nan_rejected, 1);
        assert_eq!(snap.mean(), 20.0);
        assert!(!snap.sum.is_nan());
    }

    #[test]
    fn negative_and_zero_values_clamp_to_the_zero_bucket() {
        let snap = observe_all(&[-5.0, 0.0, 2.0]).snapshot("t");
        assert_eq!(snap.zeros, 2);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 2.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.quantile(0.5), 0.0);
    }

    #[test]
    fn infinity_clamps_to_the_top_bucket() {
        let mut h = LogHistogram::new();
        h.observe(f64::INFINITY);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1);
        assert!(snap.sum.is_finite());
        assert_eq!(snap.buckets.len(), 1);
        assert_eq!(snap.buckets[0].index, BUCKETS as u32 - 1);
    }

    #[test]
    fn snapshot_merge_matches_single_histogram() {
        let left: Vec<f64> = (1..500).map(|i| i as f64 * 1.7).collect();
        let right: Vec<f64> = (1..800).map(|i| i as f64 * 0.3).collect();
        let mut both = left.clone();
        both.extend(&right);

        let mut merged = observe_all(&left).snapshot("t");
        merged.merge(&observe_all(&right).snapshot("t"));
        let single = observe_all(&both).snapshot("t");
        assert_eq!(merged, single);
    }

    #[test]
    fn live_merge_matches_snapshot_merge() {
        let mut a = observe_all(&[1.0, 2.0, 3.0]);
        let b = observe_all(&[0.5, 9.0, -1.0]);
        let mut expect = a.snapshot("t");
        expect.merge(&b.snapshot("t"));
        a.merge_from(&b);
        assert_eq!(a.snapshot("t"), expect);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = observe_all(&[0.001, 1.0, 250.0, 1e9, -3.0]).snapshot("lat");
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let snap = LogHistogram::new().snapshot("t");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0.0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min, 0.0);
    }
}
