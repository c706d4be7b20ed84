//! E18: parallel, memoized design-space exploration. Compiles a
//! four-kernel source (two structurally identical pairs) over the default
//! design space at `jobs = 1` (sequential reference), `2` and `4`
//! (pooled, memoized engine), checks the outputs are bit-identical, and
//! writes the wall-clock/cache trajectory to `BENCH_dse.json` at the
//! repository root. A second row (`wide`) sweeps four structurally
//! distinct kernels over a 7×9×2×2 hardware grid the same way: the
//! exhaustive cost of a 2 080-point space, the number E25 closes on.
//!
//! The memoized engine is timed twice per worker count: `cold`, from a
//! cleared memo, and `warm`, the same compile with the memo kept — every
//! hardware point a hit, outputs equal to the cold run's. The two
//! headline ratios keep the two effects apart: `speedup_jobs4_vs_jobs2`
//! is one engine at two worker counts (parallelism only),
//! `warm_vs_cold_jobs2` one worker count with and without the memo's
//! content (memo only). Neither divides by the memo-free `jobs = 1` run.
//!
//! Run with `cargo bench -p everest-bench --bench dse`.

use everest::variants::space::DesignSpace;
use everest::Sdk;
use serde_json::Value;
use std::time::Instant;

/// Two gemm kernels and two stencil kernels: the pairs are structurally
/// identical, so the synthesis cache shares results across kernels on top
/// of collapsing same-config points within one kernel.
const SRC: &str = "
    kernel gemm_a(a: tensor<32x32xf64>, b: tensor<32x32xf64>) -> tensor<32x32xf64> {
        return a @ b;
    }
    kernel gemm_b(a: tensor<32x32xf64>, b: tensor<32x32xf64>) -> tensor<32x32xf64> {
        return a @ b;
    }
    kernel smooth_a(x: tensor<256xf64>) -> tensor<256xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
    kernel smooth_b(x: tensor<256xf64>) -> tensor<256xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
";

/// Four structurally distinct kernels — dense matmul, stencil, streaming
/// triad, pointwise scale — so the synthesis cache cannot share results
/// across kernels.
const WIDE_SRC: &str = "
    kernel gemm(a: tensor<24x24xf64>, b: tensor<24x24xf64>) -> tensor<24x24xf64> {
        return a @ b;
    }
    kernel smooth(x: tensor<256xf64>) -> tensor<256xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
    kernel axpy(a: tensor<256xf64>, b: tensor<256xf64>) -> tensor<256xf64> {
        return 2.0 * a + b;
    }
    kernel scale(x: tensor<48x48xf64>) -> tensor<48x48xf64> {
        return 3.0 * x;
    }
";

/// The default software knobs crossed with a 7×9×2×2 hardware grid per
/// attachment target: 520 points per kernel.
fn wide_space() -> DesignSpace {
    DesignSpace {
        banks: vec![1, 2, 4, 8, 16, 32, 64],
        pes: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        pipeline: vec![true, false],
        dift: vec![false, true],
        ..DesignSpace::default()
    }
}

const RUNS: usize = 5;

struct Run {
    jobs: usize,
    wall_ms: f64,
    points: usize,
    points_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    /// The same compile with the memo kept; `None` at `jobs = 1`, which
    /// has no memo to keep.
    warm_points_per_sec: Option<f64>,
}

fn fingerprint(compiled: &everest::Compiled) -> String {
    let mut out = String::new();
    for kernel in &compiled.kernels {
        for v in &kernel.variants {
            out.push_str(&serde_json::to_string(v).expect("variant serializes"));
            out.push('\n');
        }
    }
    out
}

/// The fastest of RUNS compiles (to suppress scheduler noise), each
/// checked against `fp`, from a cleared memo (`cold`) or the memo as the
/// last compile left it: `(wall ms, hits, misses)` of that compile.
fn fastest(sdk: &Sdk, src: &str, fp: &str, cold: bool) -> (f64, u64, u64) {
    let mut best = (f64::INFINITY, 0, 0);
    for _ in 0..RUNS {
        if cold {
            everest::hls::cache::global().clear();
        }
        let before = everest_telemetry::metrics().snapshot();
        let start = Instant::now();
        let out = sdk.compile(src).expect("compiles");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let after = everest_telemetry::metrics().snapshot();
        assert_eq!(fp, fingerprint(&out), "jobs={} output drifted between runs", sdk.jobs);
        if wall < best.0 {
            let delta = |name: &str| after.counter(name) - before.counter(name);
            best = (wall, delta("dse.hls.cache.hit"), delta("dse.hls.cache.miss"));
        }
    }
    best
}

/// Times one full compile at the given worker count, cold and (for the
/// memoized engine) warm, returning the wall clocks, cache counters and
/// output fingerprint.
fn measure(src: &str, space: &DesignSpace, jobs: usize) -> (Run, String) {
    let sdk = Sdk::builder().space(space.clone()).jobs(jobs).build();

    // Warm-up run (cold allocator, lazy statics).
    everest::hls::cache::global().clear();
    let compiled = sdk.compile(src).expect("compiles");
    let fp = fingerprint(&compiled);
    let total_points = sdk.space.size() * compiled.kernels.len();
    let per_sec = |wall_ms: f64| total_points as f64 / (wall_ms / 1e3);

    let (wall_ms, hits, misses) = fastest(&sdk, src, &fp, true);
    let warm_points_per_sec = (jobs >= 2).then(|| {
        // The last cold compile left the memo full.
        let (warm_ms, warm_hits, warm_misses) = fastest(&sdk, src, &fp, false);
        assert_eq!(
            (warm_hits, warm_misses),
            (hits + misses, 0),
            "jobs={jobs}: a warm compile makes the cold one's lookups and hits on every one"
        );
        per_sec(warm_ms)
    });

    let lookups = hits + misses;
    let run = Run {
        jobs,
        wall_ms,
        points: total_points,
        points_per_sec: per_sec(wall_ms),
        cache_hits: hits,
        cache_misses: misses,
        hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        warm_points_per_sec,
    };
    (run, fp)
}

/// One sweep of `src` over `space` at jobs 1, 2 and 4, asserting every
/// worker count produces the sequential reference's output.
fn sweep(label: &str, src: &str, space: &DesignSpace) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut reference_fp: Option<String> = None;
    for jobs in [1usize, 2, 4] {
        let (run, fp) = measure(src, space, jobs);
        match &reference_fp {
            None => reference_fp = Some(fp),
            Some(reference) => {
                assert_eq!(reference, &fp, "jobs={jobs} diverged from the sequential reference");
            }
        }
        println!(
            "{label:<8} jobs={:<2} wall={:>8.2} ms  {:>8.0} points/s  cache {}h/{}m ({:.0}% hit)  \
             warm {:>9} points/s",
            run.jobs,
            run.wall_ms,
            run.points_per_sec,
            run.cache_hits,
            run.cache_misses,
            run.hit_rate * 100.0,
            run.warm_points_per_sec.map_or("-".to_owned(), |warm| format!("{warm:.0}")),
        );
        runs.push(run);
    }
    runs
}

fn runs_json(runs: &[Run]) -> Value {
    Value::Array(
        runs.iter()
            .map(|r| {
                let mut row = vec![
                    ("jobs".to_owned(), Value::UInt(r.jobs as u64)),
                    ("wall_ms".to_owned(), Value::Float(r.wall_ms)),
                    ("points".to_owned(), Value::UInt(r.points as u64)),
                    ("points_per_sec".to_owned(), Value::Float(r.points_per_sec)),
                    ("cache_hits".to_owned(), Value::UInt(r.cache_hits)),
                    ("cache_misses".to_owned(), Value::UInt(r.cache_misses)),
                    ("hit_rate".to_owned(), Value::Float(r.hit_rate)),
                ];
                if let Some(warm) = r.warm_points_per_sec {
                    row.push(("warm_points_per_sec".to_owned(), Value::Float(warm)));
                }
                Value::Object(row)
            })
            .collect(),
    )
}

fn main() {
    let runs = sweep("default", SRC, &DesignSpace::default());
    let wide = sweep("wide", WIDE_SRC, &wide_space());

    // runs[1] is jobs = 2, runs[2] jobs = 4: the memoized engine both times.
    let speedup = runs[1].wall_ms / runs[2].wall_ms;
    let warm_vs_cold =
        runs[1].warm_points_per_sec.expect("jobs=2 has a warm run") / runs[1].points_per_sec;
    println!(
        "jobs=4 vs jobs=2 (cold): {speedup:.2}x, warm vs cold at jobs=2: {warm_vs_cold:.2}x, \
         cold hit rate {:.0}%",
        runs[2].hit_rate * 100.0
    );

    let json = Value::Object(vec![
        ("bench".to_owned(), Value::Str("dse".to_owned())),
        ("experiment".to_owned(), Value::Str("E18".to_owned())),
        ("kernels".to_owned(), Value::UInt(4)),
        ("runs".to_owned(), runs_json(&runs)),
        ("speedup_jobs4_vs_jobs2".to_owned(), Value::Float(speedup)),
        ("warm_vs_cold_jobs2".to_owned(), Value::Float(warm_vs_cold)),
        ("outputs_identical".to_owned(), Value::Bool(true)),
        (
            "wide".to_owned(),
            Value::Object(vec![
                ("kernels".to_owned(), Value::UInt(4)),
                ("points".to_owned(), Value::UInt(wide[0].points as u64)),
                ("runs".to_owned(), runs_json(&wide)),
                ("outputs_identical".to_owned(), Value::Bool(true)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dse.json");
    std::fs::write(path, serde_json::to_string_pretty(&json).expect("serializes"))
        .expect("writes BENCH_dse.json");
    println!("wrote {path}");
}
