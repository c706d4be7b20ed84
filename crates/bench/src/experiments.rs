//! The E1–E16 experiments: every figure and every Section VI-D claim of
//! the paper, regenerated as a table. See `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for paper-vs-measured commentary.
//!
//! Two outputs. [`full_report`] holds only cells that are functions of the
//! code (seeded inputs, virtual time) and is pinned byte for byte by
//! `tests/golden/report.txt`; [`timings`] holds the cells read from the
//! wall clock (E8's software crypto throughput, E11's PTDR CPU time, E13's
//! plume time per hour-step), which vary from run to run.

use crate::table::{f, Table};
use everest::apps::{airquality, traffic, weather};
use everest::hls::accel::{synthesize, HlsConfig};
use everest::hls::dift::DiftConfig;
use everest::hls::memory::Scheme;
use everest::platform::ecosystem::{all_placements, evaluate, Stage, Tier};
use everest::platform::Link;
use everest::runtime::adaptation::{run_scenario, Phase, Strategy};
use everest::runtime::autotuner::{Constraint, Metric as TuneMetric, SystemState};
use everest::runtime::Autotuner;
use everest::security::modes::AesGcm;
use everest::security::{hmac_sha256, sha256};
use everest::variants::Variant;
use everest::workflow::{exec::simulate, Policy, TaskGraph, Worker};
use everest::Sdk;
use std::fmt::Write as _;
use std::time::Instant;

const GEMM: &str =
    "kernel gemm(a: tensor<64x64xf64>, b: tensor<64x64xf64>) -> tensor<64x64xf64> { return a @ b; }";
const STENCIL: &str =
    "kernel smooth(x: tensor<4096xf64>) -> tensor<4096xf64> { return stencil(x, [0.25, 0.5, 0.25]); }";
const SIGMOID: &str =
    "kernel activate(x: tensor<4096xf64>) -> tensor<4096xf64> { return sigmoid(x); }";

/// First line of [`full_report`]; bump it when a table gains or loses a
/// column, and re-bless the golden in the same commit.
const REPORT_SCHEMA_VERSION: u32 = 1;

fn section(id: &str, title: &str, body: &str) -> String {
    format!("\n=== {id}: {title} ===\n{body}")
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1: the data-driven compilation flow
// ---------------------------------------------------------------------------

/// E1: runs the full DSL → IR → variants flow on three kernels and reports
/// per-stage artifacts.
pub(crate) fn e1_compilation_flow() -> String {
    let sdk = Sdk::builder().build();
    let mut t = Table::new(&[
        "kernel",
        "IR ops",
        "loop-nest ops",
        "variants",
        "pareto",
        "best sw us",
        "best hw us",
        "hw energy mJ",
    ]);
    for (name, src) in [("gemm", GEMM), ("smooth", STENCIL), ("activate", SIGMOID)] {
        let raw = everest::dsl::compile_kernels(src).expect("compiles");
        let ops_before = raw.func(name).unwrap().op_count();
        let compiled = sdk.compile(src).expect("flow runs");
        let kernel = compiled.kernel(name).unwrap();
        let lowered = everest::hls::tensor_to_loops::lower_to_loops(raw.func(name).unwrap())
            .expect("lowers to loops");
        let ops_after = lowered.op_count();
        let best_sw = kernel
            .variants
            .iter()
            .filter(|v| !v.is_hardware())
            .map(|v| v.metrics.total_us())
            .fold(f64::INFINITY, f64::min);
        let best_hw = kernel
            .variants
            .iter()
            .filter(|v| v.is_hardware())
            .min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
            .unwrap();
        t.row(&[
            name.into(),
            ops_before.to_string(),
            ops_after.to_string(),
            kernel.variants.len().to_string(),
            kernel.pareto_front().len().to_string(),
            f(best_sw, 2),
            f(best_hw.metrics.total_us(), 2),
            f(best_hw.metrics.energy_mj, 4),
        ]);
    }
    section(
        "E1",
        "data-driven compilation flow (paper Fig. 1)",
        &format!(
            "{}\nEvery kernel flows DSL -> unified IR -> canonicalized IR -> HW/SW variants\n\
             -> Pareto set exposed to the runtime; HLS supplies hardware estimates.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2: virtualized runtime adaptation
// ---------------------------------------------------------------------------

fn scenario_points() -> Vec<Variant> {
    // The activation kernel: its accelerator wins calm-phase latency, so
    // the adaptation story exercises real switching.
    let sdk = Sdk::builder().space(everest::DesignSpace::small()).build();
    let compiled = sdk.compile(SIGMOID).unwrap();
    compiled.kernels[0].variants.clone()
}

fn scenario_phases() -> Vec<Phase> {
    vec![
        Phase::calm("steady", 60),
        Phase { congestion: 200.0, ..Phase::calm("congested", 60) },
        Phase { free_luts: 0, ..Phase::calm("fabric-busy", 60) },
        Phase { hw_slowdown: 6.0, ..Phase::calm("throttled", 60) },
        Phase::calm("recovered", 60),
    ]
}

/// E2: the dynamic-adaptation loop vs static choices vs the oracle across
/// workload phases.
pub(crate) fn e2_runtime_adaptation() -> String {
    let points = scenario_points();
    let phases = scenario_phases();
    let mut t = Table::new(&["strategy", "total ms", "vs oracle", "fallbacks"]);
    let oracle = run_scenario(&points, &phases, Strategy::Oracle);
    let mut add = |label: String, strategy: Strategy| {
        let r = run_scenario(&points, &phases, strategy);
        t.row(&[
            label,
            f(r.total_us / 1e3, 2),
            format!("{:.2}x", r.total_us / oracle.total_us),
            r.fallbacks.to_string(),
        ]);
    };
    for (i, p) in points.iter().enumerate() {
        add(format!("static {}", p.id), Strategy::Static(i));
    }
    add("adaptive (mARGOt)".into(), Strategy::Adaptive);
    add("oracle".into(), Strategy::Oracle);
    section(
        "E2",
        "virtualized runtime adaptation (paper Fig. 2)",
        &format!(
            "{}\nPhases: steady / congested links / fabric taken / clock throttled / recovered.\n\
             The adaptive loop tracks the clairvoyant oracle and beats every static choice.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3: ecosystem hierarchy placement
// ---------------------------------------------------------------------------

/// E3: sweeps every valid placement of a streaming inference pipeline over
/// the endpoint/inner-edge/cloud hierarchy.
pub(crate) fn e3_ecosystem_placement() -> String {
    let stages = vec![
        Stage::new("pre-process", 2e6, 10_000, false),
        Stage::new("inference", 5e8, 1_000, true),
        Stage::new("model-update", 5e9, 500, true),
    ];
    let input_bytes = 1_000_000;
    let mut results: Vec<(Vec<Tier>, _)> = all_placements(stages.len())
        .into_iter()
        .map(|p| {
            let r = evaluate(&stages, &p, input_bytes);
            (p, r)
        })
        .collect();
    results.sort_by(|a, b| a.1.latency_us.total_cmp(&b.1.latency_us));
    let mut t = Table::new(&["placement", "latency ms", "energy mJ", "WAN bytes"]);
    for (p, r) in &results {
        let label: Vec<String> = p.iter().map(|t| t.to_string()).collect();
        t.row(&[
            label.join(" / "),
            f(r.latency_us / 1e3, 2),
            f(r.energy_mj, 1),
            r.wan_bytes.to_string(),
        ]);
    }
    section(
        "E3",
        "endpoint -> inner-edge -> cloud placement (paper Fig. 3)",
        &format!(
            "{}\nFiltering early at the edge slashes WAN traffic; heavy model updates\n\
             belong in the cloud — the hierarchy of Fig. 3 emerges from the sweep.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: bus-attached vs network-attached FPGAs
// ---------------------------------------------------------------------------

/// E4: effective bandwidth and scale-out crossover between OpenCAPI
/// bus-attached and TCP/UDP network-attached FPGAs.
pub(crate) fn e4_attachment_comparison() -> String {
    let bus = Link::opencapi();
    let udp = Link::udp_datacenter();
    let tcp = Link::tcp_datacenter();
    let mut t = Table::new(&[
        "transfer",
        "bus eff GB/s",
        "udp eff GB/s",
        "tcp eff GB/s",
        "1x bus ms",
        "4x udp ms",
        "winner",
    ]);
    // A streaming job: each FPGA role processes its stream at 2 GB/s, so a
    // 4-device disaggregated pool has 4x the aggregate compute of one card.
    for size in [4u64 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20] {
        let compute_ms = |bytes: u64| bytes as f64 / (2.0 * 1e3) / 1e3;
        let bus_ms = bus.transfer_us(size) / 1e3 + compute_ms(size);
        // Scale-out: 4 network FPGAs each take a quarter of the stream.
        let quarter = size / 4;
        let net_ms = udp.transfer_us(quarter) / 1e3 + compute_ms(quarter);
        let label = if size < 1 << 20 {
            format!("{} KiB", size >> 10)
        } else {
            format!("{} MiB", size >> 20)
        };
        t.row(&[
            label,
            f(bus.effective_bandwidth_gbps(size), 2),
            f(udp.effective_bandwidth_gbps(size), 2),
            f(tcp.effective_bandwidth_gbps(size), 2),
            f(bus_ms, 3),
            f(net_ms, 3),
            if bus_ms <= net_ms { "bus".into() } else { "network x4".to_string() },
        ]);
    }
    section(
        "E4",
        "OpenCAPI bus vs TCP/UDP network attachment (paper Fig. 4)",
        &format!(
            "{}\nSmall transfers are latency-bound: the coherent bus wins. Large parallel\n\
             streams amortize the network latency and the disaggregated pool scales out.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E5 — VI-D: acceleration vs software
// ---------------------------------------------------------------------------

/// E5: per-kernel best-hardware vs software latency and energy.
pub(crate) fn e5_acceleration() -> String {
    let sdk = Sdk::builder().build();
    let mut t = Table::new(&[
        "kernel",
        "sw 1t us",
        "sw 8t us",
        "hw us",
        "hw vs 1t",
        "sw mJ",
        "hw mJ",
        "energy gain",
    ]);
    for (name, src) in [("gemm", GEMM), ("smooth", STENCIL), ("activate", SIGMOID)] {
        let compiled = sdk.compile(src).unwrap();
        let kernel = compiled.kernel(name).unwrap();
        let sw_t = |threads: u32| {
            kernel
                .variants
                .iter()
                .filter(|v| {
                    !v.is_hardware()
                        && v.transforms.iter().any(
                            |tr| matches!(tr, everest::variants::Transform::Threads(n) if *n == threads),
                        )
                })
                .map(|v| v.metrics.total_us())
                .fold(f64::INFINITY, f64::min)
        };
        let hw = kernel
            .variants
            .iter()
            .filter(|v| v.is_hardware())
            .min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
            .unwrap();
        let best_sw_energy = kernel
            .variants
            .iter()
            .filter(|v| !v.is_hardware())
            .map(|v| v.metrics.energy_mj)
            .fold(f64::INFINITY, f64::min);
        let best_hw_energy = kernel
            .variants
            .iter()
            .filter(|v| v.is_hardware())
            .map(|v| v.metrics.energy_mj)
            .fold(f64::INFINITY, f64::min);
        t.row(&[
            name.into(),
            f(sw_t(1), 2),
            f(sw_t(8), 2),
            f(hw.metrics.total_us(), 2),
            format!("{:.1}x", sw_t(1) / hw.metrics.total_us()),
            f(best_sw_energy, 4),
            f(best_hw_energy, 4),
            format!("{:.0}x", best_sw_energy / best_hw_energy),
        ]);
    }
    section(
        "E5",
        "hardware acceleration vs software (claim VI-D: performance & energy)",
        &format!(
            "{}\nWith host-resident data the accelerators win transcendental kernels on\n\
             latency and *every* kernel on energy (10-100x), matching the FPGA literature.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E6 — memory partitioning ablation
// ---------------------------------------------------------------------------

/// E6: banks x scheme ablation on the 5-point stencil (single PE to
/// isolate the memory effect).
pub(crate) fn e6_memory_partitioning() -> String {
    let module = everest::dsl::compile_kernels(
        "kernel s(x: tensor<1024xf64>) -> tensor<1024xf64> { return stencil(x, [0.1, 0.2, 0.4, 0.2, 0.1]); }",
    )
    .unwrap();
    let func = module.func("s").unwrap();
    let mut t = Table::new(&["banks", "scheme", "II", "cycles", "BRAM"]);
    for scheme in [Scheme::Block, Scheme::Cyclic] {
        for banks in [1usize, 2, 4, 8] {
            let config = HlsConfig {
                banks,
                scheme,
                pe: 1,
                ports_per_bank: 1,
                // Generous compute budget so memory is the only bottleneck.
                budget: everest::hls::schedule::ResourceBudget::uniform(8),
                ..HlsConfig::default()
            };
            let acc = synthesize(func, &config).unwrap();
            t.row(&[
                banks.to_string(),
                scheme.to_string(),
                acc.innermost_ii.to_string(),
                acc.latency_cycles.to_string(),
                acc.area.brams.to_string(),
            ]);
        }
    }
    section(
        "E6",
        "on-chip memory partitioning (paper III-B, refs [28][29])",
        &format!(
            "{}\nCyclic partitioning spreads the 5 stencil taps across banks: II collapses\n\
             to 1 once banks >= taps; block partitioning keeps neighbours together and\n\
             stays port-limited regardless of bank count.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E7 — TaintHLS DIFT overhead
// ---------------------------------------------------------------------------

/// E7: area/latency overhead of DIFT instrumentation per kernel.
pub(crate) fn e7_dift_overhead() -> String {
    let mut t = Table::new(&[
        "kernel",
        "LUTs",
        "LUTs+DIFT",
        "overhead %",
        "cycles",
        "cycles+DIFT",
        "shadow kbit",
    ]);
    for (name, src) in [("gemm", GEMM), ("smooth", STENCIL), ("activate", SIGMOID)] {
        let module = everest::dsl::compile_kernels(src).unwrap();
        let func = module.func(name).unwrap();
        let plain = synthesize(func, &HlsConfig::default()).unwrap();
        let hardened = synthesize(
            func,
            &HlsConfig { dift: Some(DiftConfig::default()), ..HlsConfig::default() },
        )
        .unwrap();
        let report = hardened.dift.as_ref().unwrap();
        t.row(&[
            name.into(),
            plain.area.luts.to_string(),
            hardened.area.luts.to_string(),
            f(100.0 * (hardened.area.luts - plain.area.luts) as f64 / plain.area.luts as f64, 1),
            plain.latency_cycles.to_string(),
            hardened.latency_cycles.to_string(),
            (report.shadow_bits / 1024).to_string(),
        ]);
    }
    section(
        "E7",
        "TaintHLS information-flow tracking overhead (paper III-B, ref [18])",
        &format!(
            "{}\nDIFT shadows every register and functional unit with 1-bit taint logic:\n\
             modest LUT overhead and ~2 cycles of latency, as TaintHLS reports.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E8 — crypto library throughput
// ---------------------------------------------------------------------------

/// The near-memory engine model, MB/s per primitive: one 16-byte AES block
/// per cycle at 200 MHz (round-unrolled pipeline); SHA-256 chains within a
/// stream, so the engine hashes 4 independent lanes at 64 bytes per
/// 64-cycle block.
fn crypto_engines() -> [(&'static str, f64); 3] {
    let aes_hw = 16.0 * 200e6 / 1e6;
    let sha_hw = 4.0 * 64.0 * 200e6 / 64.0 / 1e6;
    [("AES-128-GCM seal", aes_hw), ("SHA-256", sha_hw), ("HMAC-SHA256", sha_hw)]
}

/// E8: the modeled near-memory crypto engines. The measured software
/// throughput they are compared against is in [`timings`].
pub(crate) fn e8_crypto() -> String {
    let mut t = Table::new(&["primitive", "near-mem model MB/s"]);
    for (name, hw) in crypto_engines() {
        t.row(&[name.into(), f(hw, 0)]);
    }
    section(
        "E8",
        "memory/near-memory encryption library (paper III-A/B)",
        &format!(
            "{}\nThe software reference (this crate, pure Rust, no AES-NI) vs the modeled\n\
             pipelined near-memory engines the HLS library generates.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E9 — mARGOt under constraints
// ---------------------------------------------------------------------------

/// E9: operating-point selection under an energy cap as conditions change.
pub(crate) fn e9_autotuning() -> String {
    let points = scenario_points();
    let sw_energy_floor = points
        .iter()
        .filter(|p| !p.is_hardware())
        .map(|p| p.metrics.energy_mj)
        .fold(f64::INFINITY, f64::min);
    let hw_energy = points
        .iter()
        .filter(|p| p.is_hardware())
        .map(|p| p.metrics.energy_mj)
        .fold(f64::INFINITY, f64::min);
    // A cap between hardware and software energy makes hardware mandatory —
    // unless the fabric disappears and the constraint must be traded off.
    let cap = (hw_energy * 4.0).min(sw_energy_floor * 0.8);
    let mut tuner = Autotuner::new(points.clone());
    tuner.add_constraint(Constraint { metric: TuneMetric::EnergyMj, max: cap });

    let mut t = Table::new(&["system state", "selected point", "energy mJ", "meets cap"]);
    let states = [
        ("calm", SystemState::default()),
        ("congested x50", SystemState { link_congestion: 50.0, ..Default::default() }),
        ("fabric gone", SystemState { free_luts: 0, ..Default::default() }),
    ];
    for (label, state) in states {
        match tuner.select(&state) {
            Ok(p) => {
                t.row(&[
                    label.into(),
                    p.id.clone(),
                    f(p.metrics.energy_mj, 4),
                    (p.metrics.energy_mj <= cap).to_string(),
                ]);
            }
            Err(_) => {
                t.row(&[label.into(), "(infeasible)".into(), "-".into(), "false".into()]);
            }
        }
    }
    section(
        "E9",
        "mARGOt operating-point selection under an energy cap (paper IV, ref [11])",
        &format!(
            "{}\nEnergy cap: {:.4} mJ. The selector keeps the constraint while fabric\n\
             exists and reports infeasibility (triggering operator policy) when not.\n",
            t.render(),
            cap
        ),
    )
}

// ---------------------------------------------------------------------------
// E10 — HyperLoom workflow scalability
// ---------------------------------------------------------------------------

/// E10: makespan vs worker count for canonical DAG shapes + scheduler
/// comparison.
pub(crate) fn e10_workflow_scalability() -> String {
    let graphs = vec![
        TaskGraph::wide(64, 1_000.0, 10_000),
        TaskGraph::deep(32, 1_000.0, 10_000),
        TaskGraph::diamond(16, 1_000.0, 10_000),
        TaskGraph::random(11, 6, 10, 1_000.0),
    ];
    let mut t = Table::new(&["graph", "w=1", "w=4", "w=16", "w=64", "speedup@16"]);
    for g in &graphs {
        let mk = |w: usize| {
            simulate(g, &Worker::uniform_pool(w, 1.0), Policy::Heft).unwrap().makespan_us / 1e3
        };
        let (m1, m4, m16, m64) = (mk(1), mk(4), mk(16), mk(64));
        t.row(&[
            g.name.clone(),
            f(m1, 1),
            f(m4, 1),
            f(m16, 1),
            f(m64, 1),
            format!("{:.1}x", m1 / m16),
        ]);
    }
    let g = TaskGraph::random(11, 6, 10, 1_000.0);
    let workers = Worker::heterogeneous_pool(4, 12);
    let mut s = Table::new(&["scheduler", "makespan ms", "mean util %"]);
    for policy in [Policy::Fifo, Policy::MinLoad, Policy::Heft] {
        let run = simulate(&g, &workers, policy).unwrap();
        s.row(&[
            policy.to_string(),
            f(run.makespan_us / 1e3, 2),
            f(100.0 * run.mean_utilization(), 1),
        ]);
    }
    section(
        "E10",
        "HyperLoom-style workflow platform scalability (paper III-A, ref [10])",
        &format!(
            "{}\nScheduler comparison on a random DAG over 4 fast + 12 slow workers:\n{}\n\
             Wide graphs scale near-linearly, chains are bound by the critical path,\n\
             and HEFT dominates the naive schedulers on heterogeneous pools.\n",
            t.render(),
            s.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E11 — PTDR Monte-Carlo routing
// ---------------------------------------------------------------------------

const PTDR_SAMPLES: [usize; 4] = [10, 100, 1_000, 10_000];

/// The E11 query: corner to corner across a 12×12 grid at 8:00, on speed
/// profiles learned from 200 000 floating-car points.
fn ptdr_query() -> (traffic::RoadNetwork, traffic::SpeedProfiles, Vec<usize>) {
    let network = traffic::RoadNetwork::grid(2026, 12, 0.8);
    let fcd = traffic::generate_fcd(&network, 7, 200_000);
    let profiles = traffic::SpeedProfiles::learn(&network, &fcd);
    let route =
        traffic::shortest_route(&network, &profiles, 0, network.nodes.len() - 1, 8).unwrap();
    (network, profiles, route)
}

/// FPGA model: 32 parallel samplers, one segment sample per cycle each at
/// 200 MHz (ref \[37\] accelerates exactly this kernel).
fn ptdr_fpga_ms(samples: usize, route_len: usize) -> f64 {
    (samples * route_len) as f64 / (32.0 * 200e6) * 1e3
}

/// E11: PTDR estimator error vs sample count, with the modeled FPGA
/// sampling time. The CPU time it is compared against is in [`timings`].
pub(crate) fn e11_ptdr() -> String {
    let (network, profiles, route) = ptdr_query();
    let reference = traffic::ptdr_travel_time(&network, &profiles, &route, 8.0, 100_000, 999);

    let mut t = Table::new(&["samples", "mean err %", "p95 min", "fpga ms (model)"]);
    for samples in PTDR_SAMPLES {
        // Average error over seeds to show the 1/sqrt(N) trend.
        let mut err = 0.0;
        for seed in 0..10 {
            let est = traffic::ptdr_travel_time(&network, &profiles, &route, 8.0, samples, seed);
            err += (est.mean_h - reference.mean_h).abs() / reference.mean_h;
        }
        err /= 10.0;
        let stats = traffic::ptdr_travel_time(&network, &profiles, &route, 8.0, samples, 1);
        t.row(&[
            samples.to_string(),
            f(err * 100.0, 2),
            f(stats.p95_h * 60.0, 1),
            f(ptdr_fpga_ms(samples, route.len()), 4),
        ]);
    }
    section(
        "E11",
        "probabilistic time-dependent routing (paper VI-C, ref [37])",
        &format!(
            "{}\nEstimator error decays ~1/sqrt(N); the modeled 32-lane sampling engine\n\
             turns 10k-sample queries into sub-millisecond service calls.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E12 — wind-energy resolution sweep
// ---------------------------------------------------------------------------

/// E12: forecast skill and compute cost vs ensemble grid resolution.
pub(crate) fn e12_wind_resolution() -> String {
    let mut t = Table::new(&["res km", "cells", "RMSE MW", "imbalance EUR/day", "rel. compute"]);
    let mut base_cells = 0.0;
    for res_km in [25.0, 12.0, 6.0, 3.0] {
        let report = weather::evaluate_resolution(42, 100.0, 2.0, res_km, 8);
        let cells = (100.0 / res_km) * (100.0 / res_km);
        if base_cells == 0.0 {
            base_cells = cells;
        }
        t.row(&[
            f(res_km, 0),
            (cells as usize).to_string(),
            f(report.rmse_mw(), 2),
            f(report.imbalance_cost_eur(60.0), 0),
            format!("{:.0}x", cells / base_cells),
        ]);
    }
    let (raw, corrected) = weather::mlp_corrected_forecast(7, 20, 20.0);
    section(
        "E12",
        "wind-farm day-ahead forecast vs ensemble resolution (paper VI-A)",
        &format!(
            "{}\nAI correction with historical data (20 training days at 20 km):\n\
             raw RMSE {:.2} MW -> corrected {:.2} MW; imbalance saved {:.0} EUR/day.\n\
             Finer ensembles cut the imbalance cost superlinearly in compute —\n\
             the cost transparent acceleration absorbs.\n",
            t.render(),
            raw.rmse_mw(),
            corrected.rmse_mw(),
            raw.imbalance_cost_eur(60.0) - corrected.imbalance_cost_eur(60.0)
        ),
    )
}

// ---------------------------------------------------------------------------
// E13 — air-quality forecast latency budget
// ---------------------------------------------------------------------------

const PLUME_CELLS: [usize; 4] = [16, 32, 64, 128];

fn plume_meteo() -> airquality::Meteo {
    airquality::Meteo { wind_ms: 2.5, wind_dir_rad: 0.35, stability: airquality::Stability::E }
}

/// E13: plume-forecast fidelity vs grid resolution on the 10-km domain.
/// The time per hour-step is in [`timings`].
pub(crate) fn e13_air_quality() -> String {
    let met = plume_meteo();
    let mut t = Table::new(&["cells/edge", "peak ug/m3", ">50 ug/m3 %"]);
    for cells in PLUME_CELLS {
        let (frac, peak) = airquality::reference_site(cells).exceedance(&met, 50.0);
        t.row(&[cells.to_string(), f(peak, 0), f(frac * 100.0, 1)]);
    }
    section(
        "E13",
        "industrial air-quality forecasting within 10 km (paper VI-B)",
        &format!(
            "{}\nEven the finest grid forecasts a full 24 h x 10-member ensemble in well\n\
             under the hourly decision budget; resolution sharpens the plume core that\n\
             coarse grids smear out.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E14 — dynamic adaptation under failures
// ---------------------------------------------------------------------------

/// E14: edge-node failure with and without runtime migration.
pub(crate) fn e14_failure_migration() -> String {
    // A stream of 100 identical inference tasks on an edge worker; the
    // worker dies after 40. With adaptation the remainder migrates to the
    // cloud (slower link, faster compute); without it they are lost.
    let task_us = 2_000.0;
    let tasks = 100usize;
    let fail_after = 40usize;
    let edge_exec = task_us / 1.0;
    let cloud_exec = task_us / 6.0;
    let cloud_link_us = Link::tcp_datacenter().transfer_us(50_000);

    let healthy: f64 = (tasks as f64) * edge_exec;
    let migrated: f64 = (fail_after as f64) * edge_exec
        + 60_000.0 // detection + VM/vFPGA migration (reconfig) penalty
        + ((tasks - fail_after) as f64) * (cloud_exec + cloud_link_us);
    let stranded_completion = fail_after as f64 / tasks as f64;

    let mut t = Table::new(&["scenario", "completed %", "makespan ms"]);
    t.row(&["no failure (edge)".into(), "100".into(), f(healthy / 1e3, 1)]);
    t.row(&["failure, no adaptation".into(), f(stranded_completion * 100.0, 0), "stalled".into()]);
    t.row(&["failure + migration (EVEREST)".into(), "100".into(), f(migrated / 1e3, 1)]);
    section(
        "E14",
        "edge-node failure and transparent migration (claim VI-D: dynamic adaptation)",
        &format!(
            "{}\nThe virtualized runtime re-homes the computation (VM + vFPGA roles) to\n\
             the cloud: full completion at a bounded makespan penalty instead of a stall.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E15 — cache-model validation of the tiling transform
// ---------------------------------------------------------------------------

/// E15: validates the variants cost model's tiling knob against the
/// trace-driven cache hierarchy (the gem5-class model of paper refs
/// \[25\]\[26\]).
pub(crate) fn e15_cache_tiling() -> String {
    use everest::platform::cache::{matmul_trace, Hierarchy};
    let mut t = Table::new(&["n", "tile", "L1 miss %", "L2 miss %", "AMAT cyc"]);
    for n in [64usize, 128] {
        for tile in [None, Some(16usize), Some(32)] {
            let mut h = Hierarchy::typical();
            matmul_trace(&mut h, n, tile);
            t.row(&[
                n.to_string(),
                tile.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
                f(100.0 * h.l1.miss_rate(), 2),
                f(100.0 * h.l2.miss_rate(), 2),
                f(h.amat(), 2),
            ]);
        }
    }
    section(
        "E15",
        "cache-model validation of the tiling variant (paper III-B, refs [25][26])",
        &format!(
            "{}\nBlocked matmul keeps the 3 x tile^2 working set inside L1: the trace-driven\n\
             model confirms the miss-rate collapse the software cost model's tiling\n\
             boost assumes.\n",
            t.render()
        ),
    )
}

// ---------------------------------------------------------------------------
// E16 — multi-VM accelerator sharing
// ---------------------------------------------------------------------------

/// E16: consolidation of tenant VMs onto shared vFPGA slots (paper IV:
/// "parallel application instances running in different virtual
/// machines").
pub(crate) fn e16_multi_tenant() -> String {
    use everest::runtime::contention::{share_slots, slots_for_slo, Tenant};
    let tenants = vec![
        Tenant::new("vm-energy", 120.0, 400.0, 80),
        Tenant::new("vm-airq", 200.0, 700.0, 50),
        Tenant::new("vm-traffic", 60.0, 150.0, 150),
    ];
    let mut t = Table::new(&["slots", "vm-energy us", "vm-airq us", "vm-traffic us", "util %"]);
    for slots in [1usize, 2, 4] {
        let r = share_slots(&tenants, slots);
        t.row(&[
            slots.to_string(),
            f(r.response_of("vm-energy").unwrap(), 0),
            f(r.response_of("vm-airq").unwrap(), 0),
            f(r.response_of("vm-traffic").unwrap(), 0),
            f(100.0 * r.slot_utilization, 1),
        ]);
    }
    let needed = slots_for_slo(&tenants, 1.5, 8);
    section(
        "E16",
        "multi-VM accelerator sharing (paper IV / Fig. 2)",
        &format!(
            "{}\nThree use-case VMs co-located on shared vFPGA slots: consolidation keeps\n\
             utilization high; the sizing helper picks {} slot(s) for a 1.5x response SLO.\n",
            t.render(),
            needed.map(|n| n.to_string()).unwrap_or_else(|| "-".into())
        ),
    )
}

/// Runs every experiment and concatenates the report. No cell is read from
/// the wall clock, so the text is the same on every run and every build
/// profile: `tests/golden/report.txt` pins it.
pub fn full_report() -> String {
    let mut out = String::new();
    writeln!(out, "report schema_version {REPORT_SCHEMA_VERSION}").unwrap();
    writeln!(out, "EVEREST reproduction — experiment report (E1-E16)").unwrap();
    writeln!(out, "==================================================").unwrap();
    out.push_str(&e1_compilation_flow());
    out.push_str(&e2_runtime_adaptation());
    out.push_str(&e3_ecosystem_placement());
    out.push_str(&e4_attachment_comparison());
    out.push_str(&e5_acceleration());
    out.push_str(&e6_memory_partitioning());
    out.push_str(&e7_dift_overhead());
    out.push_str(&e8_crypto());
    out.push_str(&e9_autotuning());
    out.push_str(&e10_workflow_scalability());
    out.push_str(&e11_ptdr());
    out.push_str(&e12_wind_resolution());
    out.push_str(&e13_air_quality());
    out.push_str(&e14_failure_migration());
    out.push_str(&e15_cache_tiling());
    out.push_str(&e16_multi_tenant());
    out
}

/// The wall-clock cells E8, E11 and E13 set against their hardware
/// models. They vary from run to run, so `report` prints them on stderr;
/// use a release build for representative numbers.
pub fn timings() -> String {
    let mut out = String::from("EVEREST reproduction — wall-clock cells (E8, E11, E13)\n");

    let payload = vec![0xa5u8; 1 << 20];
    let gcm = AesGcm::new(&[7u8; 16]);
    let nonce = [1u8; 12];
    let measured = [
        mb_per_s(payload.len(), || gcm.seal(&nonce, &payload, b"")[0]),
        mb_per_s(payload.len(), || sha256(&payload)[0]),
        mb_per_s(payload.len(), || hmac_sha256(b"key", &payload)[0]),
    ];
    let mut t = Table::new(&["primitive", "sw MB/s (measured)", "near-mem model MB/s", "speedup"]);
    for ((name, hw), sw) in crypto_engines().into_iter().zip(measured) {
        t.row(&[name.into(), f(sw, 1), f(hw, 0), format!("{:.0}x", hw / sw)]);
    }
    out.push_str(&section("E8", "software crypto throughput", &t.render()));

    let (network, profiles, route) = ptdr_query();
    let mut t = Table::new(&["samples", "cpu ms", "fpga ms (model)", "model speedup"]);
    for samples in PTDR_SAMPLES {
        let start = Instant::now();
        std::hint::black_box(traffic::ptdr_travel_time(
            &network, &profiles, &route, 8.0, samples, 1,
        ));
        let cpu_ms = start.elapsed().as_secs_f64() * 1e3;
        let fpga_ms = ptdr_fpga_ms(samples, route.len());
        t.row(&[
            samples.to_string(),
            f(cpu_ms, 3),
            f(fpga_ms, 4),
            format!("{:.0}x", cpu_ms / fpga_ms),
        ]);
    }
    out.push_str(&section("E11", "PTDR estimate on the CPU", &t.render()));

    let met = plume_meteo();
    let mut t = Table::new(&["cells/edge", "ms per hour-step"]);
    for cells in PLUME_CELLS {
        let model = airquality::reference_site(cells);
        let start = Instant::now();
        std::hint::black_box(model.exceedance(&met, 50.0));
        t.row(&[cells.to_string(), f(start.elapsed().as_secs_f64() * 1e3, 2)]);
    }
    out.push_str(&section("E13", "plume forecast per hour-step", &t.render()));
    out
}

/// Throughput of `op` over a `bytes`-long payload in MB/s, from 8 timed
/// repetitions.
fn mb_per_s(bytes: usize, mut op: impl FnMut() -> u8) -> f64 {
    const REPS: usize = 8;
    let start = Instant::now();
    let mut sink = 0u8;
    for _ in 0..REPS {
        sink ^= op();
    }
    std::hint::black_box(sink);
    (REPS as f64 * bytes as f64 / 1e6) / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_three_kernels() {
        let r = e1_compilation_flow();
        for k in ["gemm", "smooth", "activate"] {
            assert!(r.contains(k), "missing kernel {k}");
        }
    }

    #[test]
    fn e2_adaptive_beats_statics() {
        let points = scenario_points();
        let phases = scenario_phases();
        let adaptive = run_scenario(&points, &phases, Strategy::Adaptive);
        for i in 0..points.len() {
            let st = run_scenario(&points, &phases, Strategy::Static(i));
            assert!(adaptive.total_us <= st.total_us + 1e-6);
        }
    }

    #[test]
    fn e4_bus_wins_small_network_wins_large() {
        let r = e4_attachment_comparison();
        let lines: Vec<&str> =
            r.lines().filter(|l| l.contains("KiB") || l.contains("MiB")).collect();
        assert!(lines.first().unwrap().trim_end().ends_with("bus"));
        assert!(lines.last().unwrap().trim_end().ends_with("network x4"));
    }

    #[test]
    fn e6_cyclic_reaches_ii_one_with_enough_banks() {
        let r = e6_memory_partitioning();
        // The cyclic/8-bank row must achieve II = 1.
        let row = r
            .lines()
            .find(|l| l.trim_start().starts_with('8') && l.contains("cyclic"))
            .expect("cyclic 8-bank row present");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[2], "1", "II must be 1: {row}");
    }

    #[test]
    fn e7_overhead_is_modest() {
        let r = e7_dift_overhead();
        assert!(r.contains("TaintHLS"));
        // Parse overhead column: all < 40%.
        for line in r.lines().filter(|l| {
            let t = l.trim_start();
            t.starts_with("gemm") || t.starts_with("smooth") || t.starts_with("activate")
        }) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let pct: f64 = cells[3].parse().unwrap();
            assert!(pct < 40.0, "overhead {pct}% too high: {line}");
        }
    }

    #[test]
    fn e15_tiling_cuts_amat() {
        let r = e15_cache_tiling();
        // For n=128 the tiled AMAT must be below the untiled one.
        let rows: Vec<&str> = r.lines().filter(|l| l.trim_start().starts_with("128")).collect();
        let amat = |row: &str| -> f64 { row.split_whitespace().last().unwrap().parse().unwrap() };
        assert!(amat(rows[1]) < amat(rows[0]), "tiling must cut AMAT: {rows:?}");
    }

    #[test]
    fn e14_migration_bounds_the_penalty() {
        let r = e14_failure_migration();
        assert!(r.contains("stalled"));
        assert!(r.contains("100"));
    }
}
