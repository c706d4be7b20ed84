//! Clocks and order statistics: wall time from `Instant`, CPU time, peak
//! resident set and page faults from `getrusage`, and the
//! median/quartile summary every timing is reported as.

use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _ix: [i64; 3],
    minflt: i64,
    majflt: i64,
    _rest: [i64; 8],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Resource use of this process (all threads, exited ones included).
#[derive(Debug, Clone, Copy)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// High-water mark of the resident set (`VmHWM`), MiB.
    pub peak_rss_mib: f64,
    pub page_faults: u64,
}

pub fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
    // SAFETY: `raw` is a writable, correctly sized and aligned `struct
    // rusage` for this target (x86-64/aarch64 Linux: 18 longs), which is
    // all `getrusage(2)` requires; it fills the struct or returns -1.
    let rc = unsafe { getrusage(RUSAGE_SELF, raw.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // SAFETY: the call succeeded, so every field is initialized (and the
    // buffer was zeroed beforehand regardless).
    let raw = unsafe { raw.assume_init() };
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Rusage {
        user_s: secs(raw.utime),
        sys_s: secs(raw.stime),
        peak_rss_mib: raw.maxrss_kib as f64 / 1024.0,
        page_faults: (raw.minflt + raw.majflt) as u64,
    }
}

/// Wall and CPU time of one measured region.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub page_faults: u64,
}

/// Runs `f` and returns its result with what it cost.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let before = rusage();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = rusage();
    let cost = Cost {
        wall_s,
        user_s: after.user_s - before.user_s,
        sys_s: after.sys_s - before.sys_s,
        page_faults: after.page_faults - before.page_faults,
    };
    (out, cost)
}

/// The tenth of `costs` (at least one) with the least wall time.
pub fn fastest_tenth(costs: &[Cost]) -> Vec<Cost> {
    let mut sorted = costs.to_vec();
    sorted.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    sorted.truncate((costs.len() / 10).max(1));
    sorted
}

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (must not be empty). Quartiles interpolate
    /// linearly between order statistics, so one sample is its own
    /// median and quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Nanoseconds per call of `f`, measured over `iters` calls.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}
