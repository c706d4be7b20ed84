//! Determinism and caching guarantees of the parallel DSE engine: any
//! worker count must produce bit-identical variant sets, the synthesis
//! cache must actually hit on the default space, and the `--jobs` CLI
//! flag must be wired through `everestc`.

use everest::Sdk;
use std::process::Command;
use std::sync::Mutex;

/// The telemetry counters and the synthesis cache are process-global;
/// tests that compile in-process serialize on this lock so counter deltas
/// are attributable.
static COMPILE_LOCK: Mutex<()> = Mutex::new(());

fn compile_lock() -> std::sync::MutexGuard<'static, ()> {
    COMPILE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const SRC: &str = "
    kernel gemm(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
        return a @ b;
    }
    kernel gemm2(a: tensor<16x16xf64>, b: tensor<16x16xf64>) -> tensor<16x16xf64> {
        return a @ b;
    }
    kernel smooth(x: tensor<64xf64>) -> tensor<64xf64> {
        return stencil(x, [0.25, 0.5, 0.25]);
    }
";

/// Serializes every variant of every kernel so two compilations can be
/// compared bit-for-bit (ids, transform lists and full metrics included).
fn fingerprint(compiled: &everest::Compiled) -> String {
    let mut out = String::new();
    for kernel in &compiled.kernels {
        out.push_str(&kernel.name);
        out.push('\n');
        for v in &kernel.variants {
            out.push_str(&serde_json::to_string(v).expect("variant serializes"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn any_job_count_is_bit_identical_to_the_sequential_reference() {
    let _guard = compile_lock();
    let reference = fingerprint(&Sdk::builder().jobs(1).build().compile(SRC).unwrap());
    for jobs in [2, 3, 8] {
        let parallel = fingerprint(&Sdk::builder().jobs(jobs).build().compile(SRC).unwrap());
        assert_eq!(reference, parallel, "jobs={jobs} diverged from the sequential reference");
    }
}

#[test]
fn memoized_engine_hits_the_synthesis_cache_on_the_default_space() {
    let _guard = compile_lock();
    everest::hls::cache::global().clear();
    let before = everest_telemetry::metrics().snapshot();
    let hits_before = before.counter("dse.hls.cache.hit");
    let misses_before = before.counter("dse.hls.cache.miss");

    Sdk::builder().jobs(4).build().compile(SRC).unwrap();

    let after = everest_telemetry::metrics().snapshot();
    let hits = after.counter("dse.hls.cache.hit") - hits_before;
    let misses = after.counter("dse.hls.cache.miss") - misses_before;
    // Default space: 8 hardware points per kernel collapse to 4 unique
    // HLS configs, and gemm/gemm2 are structurally identical — so well
    // over half of the 24 hardware lookups must be served by the cache.
    assert!(hits > 0, "cache never hit (hits={hits}, misses={misses})");
    assert!(hits > misses, "hit rate should exceed 50% (hits={hits}, misses={misses})");
}

#[test]
fn sequential_reference_does_not_touch_the_cache() {
    let _guard = compile_lock();
    let before = everest_telemetry::metrics().snapshot();
    let lookups_before = before.counter("dse.hls.cache.hit") + before.counter("dse.hls.cache.miss");

    Sdk::builder().jobs(1).build().compile(SRC).unwrap();

    let after = everest_telemetry::metrics().snapshot();
    let lookups = after.counter("dse.hls.cache.hit") + after.counter("dse.hls.cache.miss");
    assert_eq!(lookups, lookups_before, "jobs=1 must synthesize directly");
}

#[test]
fn empty_knob_dimension_is_rejected_before_enumeration() {
    let mut sdk = Sdk::builder().build();
    sdk.space.banks.clear();
    let err = sdk.compile(SRC).unwrap_err();
    let everest::SdkError::DesignSpace(msg) = err else {
        panic!("expected a design-space error, got {err}");
    };
    assert!(msg.contains("banks"), "error should name the empty knob: {msg}");
}

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

fn fixture() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels.edsl")
}

#[test]
fn cli_help_documents_the_jobs_flag() {
    let output = everestc().arg("--help").output().expect("everestc runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("--jobs"), "help must document --jobs:\n{stdout}");
}

#[test]
fn cli_variant_table_is_identical_across_job_counts() {
    let cascade = fixture().with_file_name("cascade.edsl");
    for input in [fixture(), cascade] {
        let all_jobs = ["1", "2", "4"];
        let mut outputs = Vec::new();
        for jobs in all_jobs {
            let output = everestc()
                .arg("--jobs")
                .arg(jobs)
                .arg("variants")
                .arg(&input)
                .output()
                .expect("everestc runs");
            assert!(output.status.success(), "variants {input:?} --jobs {jobs} failed");
            outputs.push(String::from_utf8_lossy(&output.stdout).into_owned());
        }
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "variants {input:?} printed different tables at --jobs {all_jobs:?}"
        );
        // The table is all there is: no exploration summary line.
        assert!(
            !outputs[0].lines().any(|l| l.starts_with("surrogate:")),
            "summary line:\n{}",
            outputs[0]
        );
    }
}

#[test]
fn cli_rejects_bad_jobs_values() {
    for bad in [&["--jobs"][..], &["--jobs", "0"][..], &["--jobs", "many"][..]] {
        let output =
            everestc().args(bad).arg("variants").arg(fixture()).output().expect("everestc runs");
        assert_eq!(output.status.code(), Some(2), "{bad:?} should be rejected");
        assert!(String::from_utf8_lossy(&output.stderr).contains("--jobs requires"));
    }
    // `variants` takes no options of its own.
    for stray in [&["--surrogate"][..], &["--margin", "0.1"][..]] {
        let output =
            everestc().arg("variants").args(stray).arg(fixture()).output().expect("everestc runs");
        assert_eq!(output.status.code(), Some(2), "{stray:?} should be rejected");
        assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
    }
}
