//! Pins what high-level synthesis produces for the air-quality cascade
//! (`examples/cascade.edsl`, full size): the `SynthSummary` of every
//! kernel at every distinct `HlsConfig` of `DesignSpace::default()`, and
//! each kernel's Pareto-front variant ids. The golden file was written by
//! this test on the commit *before* the scheduler and RTL emitter became
//! independent of loop trip counts (`EVEREST_BLESS=1 cargo test --test
//! cascade_synthesis`), so reproducing it byte for byte proves that
//! change moved no number. The CLI case at the end pins the other half
//! of that change: the RTL of a million-cycle kernel is kilobytes.
//!
//! `tests/golden/example_rtl.txt` pins `everestc rtl` for the seven
//! kernels of `examples/{kernels,cascade}.edsl`: the summary line on
//! stderr and the RTL on stdout. It was written before the synthesis
//! driver was rewritten to build each table and schedule once, so
//! reproducing it proves that rewrite moved no state, wait or unit.

use everest::hls::cache::ConfigKey;
use everest::hls::HlsConfig;
use everest::{DesignSpace, Sdk};
use std::fmt::Write;

const GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/cascade_synthesis.json");
const CASCADE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/cascade.edsl");
const KERNELS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels.edsl");
const RTL_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/example_rtl.txt");

/// The distinct synthesis configurations among the space's hardware
/// points, in enumeration order (points that differ only in attachment
/// share one).
fn distinct_hls_configs(space: &DesignSpace) -> Vec<HlsConfig> {
    let mut configs: Vec<HlsConfig> = Vec::new();
    for knob in space.enumerate_knobs().iter().filter(|k| k.is_hardware()) {
        let config = knob.hls_config();
        if !configs.iter().any(|c| ConfigKey::of(c) == ConfigKey::of(&config)) {
            configs.push(config);
        }
    }
    configs
}

fn render() -> String {
    let source = std::fs::read_to_string(CASCADE).expect("cascade example is committed");
    let compiled = Sdk::builder().jobs(2).build().compile(&source).expect("cascade compiles");
    let configs = distinct_hls_configs(&DesignSpace::default());

    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"kernels\": [\n");
    for (ki, kernel) in compiled.kernels.iter().enumerate() {
        let func = compiled.module.func(&kernel.name).expect("kernel is in the module");
        writeln!(out, "    {{\n      \"name\": \"{}\",\n      \"synthesis\": [", kernel.name)
            .unwrap();
        for (ci, config) in configs.iter().enumerate() {
            let s = everest::hls::synthesize(func, config).expect("synthesizes").summary();
            let comma = if ci + 1 < configs.len() { "," } else { "" };
            writeln!(
                out,
                "        {{\"banks\": {}, \"pe_requested\": {}, \"pipeline\": {}, \
                 \"latency_cycles\": {}, \"innermost_ii\": {}, \"pe\": {}, \"luts\": {}, \
                 \"ffs\": {}, \"dsps\": {}, \"brams\": {}, \"clock_mhz\": {:?}}}{comma}",
                config.banks,
                config.pe,
                config.pipeline,
                s.latency_cycles,
                s.innermost_ii,
                s.pe,
                s.area.luts,
                s.area.ffs,
                s.area.dsps,
                s.area.brams,
                s.clock_mhz,
            )
            .unwrap();
        }
        let front: Vec<String> =
            kernel.pareto_front().iter().map(|v| format!("\"{}\"", v.id)).collect();
        writeln!(out, "      ],\n      \"pareto_front\": [{}]", front.join(", ")).unwrap();
        let comma = if ki + 1 < compiled.kernels.len() { "," } else { "" };
        writeln!(out, "    }}{comma}").unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn cascade_synthesis_reproduces_the_golden_file_byte_for_byte() {
    let rendered = render();
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden synthesis file is committed");
    assert_eq!(rendered, golden, "synthesis results moved; see {GOLDEN}");
}

#[test]
fn rtl_of_the_full_size_ensemble_kernel_prints_under_a_mebibyte() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_everestc"))
        .args(["rtl", CASCADE, "ensemble"])
        .output()
        .expect("everestc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.len() < 1 << 20, "{} bytes of RTL", out.stdout.len());
    let rtl = String::from_utf8(out.stdout).expect("RTL is UTF-8");
    assert!(rtl.contains("module ensemble_loops ("), "{rtl}");
    assert!(everest::hls::rtl::check_structure(&rtl));
}

#[test]
fn rtl_of_every_example_kernel_reproduces_the_golden_file_byte_for_byte() {
    let kernels = [
        (KERNELS, "gemm"),
        (KERNELS, "smooth"),
        (CASCADE, "assimilate"),
        (CASCADE, "ensemble"),
        (CASCADE, "plume"),
        (CASCADE, "exceedance"),
        (CASCADE, "report"),
    ];
    let mut rendered = String::new();
    for (source, kernel) in kernels {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_everestc"))
            .args(["rtl", source, kernel])
            .output()
            .expect("everestc runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8(out.stderr).expect("summary is UTF-8");
        let stdout = String::from_utf8(out.stdout).expect("RTL is UTF-8");
        writeln!(rendered, "==> {kernel}").unwrap();
        rendered.push_str(&stderr);
        rendered.push_str(&stdout);
    }
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(RTL_GOLDEN, &rendered).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(RTL_GOLDEN).expect("golden RTL file is committed");
    assert_eq!(rendered, golden, "example RTL moved; see {RTL_GOLDEN}");
}
