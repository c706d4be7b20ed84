//! Pins every bit the PTDR sampling kernel produces. The golden table
//! (`tests/golden/ptdr_golden.txt`) was written by this test on the commit
//! *before* the sampler became branch-free and block-buffered
//! (`EVEREST_BLESS=1 cargo test -p everest-apps --test ptdr_golden`), so
//! reproducing it byte for byte proves that change moved no answer: the
//! RNG words are consumed in the same order and every floating-point
//! operation rounds the same way. It was re-blessed once since, when the
//! summary's mean and std left Welford's streaming form for two passes:
//! a numeric change under the committed tolerance policy
//! (`tests/golden/tolerance_policy.txt`) that moved only `mean=` and
//! `std=` fields and the two tier rows' fingerprints, and no `p95=`.
//! Every row is a bit-exact pin for the current code; a change that
//! moves one changes the draw order or a floating-point operation.
//!
//! The corpus crosses what the kernel branches on: route length (1, 4, 22
//! edges), departure (night, both rushes, and 23.875 h so a 22-edge walk
//! crosses midnight), sample counts around the block width (1, 2, 31, 32,
//! 33), the serving tier's budgets (192, 312) and a long run (10 000 —
//! enough draws to take the wedge and tail paths), three seeds, and block
//! widths 32 and 4. One 4-shard `ServeTier` day at jobs 1 and 2 pins the
//! path the benchmark's `serve_cold` workload drives.

use everest_apps::traffic::serve::{LoadGen, ServeConfig, ServeTier, ShedPolicy};
use everest_apps::traffic::service::PtdrEngine;
use everest_apps::traffic::{generate_fcd, shortest_route, RoadNetwork, SpeedProfiles};
use std::fmt::Write;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ptdr_golden.txt");

const DEPARTURES: [f64; 4] = [0.125, 8.125, 17.625, 23.875];
const SAMPLES: [usize; 8] = [1, 2, 31, 32, 33, 192, 312, 10_000];
const SEEDS: [u64; 3] = [1, 2026, 0x9E37_79B9_7F4A_7C15];

fn setup() -> (RoadNetwork, SpeedProfiles) {
    let net = RoadNetwork::grid(2026, 12, 1.0);
    let fcd = generate_fcd(&net, 7, 150_000);
    let profiles = SpeedProfiles::learn(&net, &fcd);
    (net, profiles)
}

fn engine_rows<const LANES: usize>(
    out: &mut String,
    net: &RoadNetwork,
    profiles: &SpeedProfiles,
    routes: &[&[usize]],
) {
    // One engine for the whole sweep, as a serving thread would use it.
    let mut engine: PtdrEngine<LANES> = PtdrEngine::new();
    for route in routes {
        for depart in DEPARTURES {
            for samples in SAMPLES {
                for seed in SEEDS {
                    let s = engine.estimate(net, profiles, route, depart, samples, seed);
                    writeln!(
                        out,
                        "lanes={LANES} edges={} depart={depart} samples={samples} seed={seed:x} \
                         mean={:016x} p95={:016x} std={:016x}",
                        route.len(),
                        s.mean_h.to_bits(),
                        s.p95_h.to_bits(),
                        s.std_h.to_bits()
                    )
                    .unwrap();
                }
            }
        }
    }
}

/// FNV-1a, so the pinned digest does not depend on the standard
/// library's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn tier_row(out: &mut String, net: &RoadNetwork, profiles: &SpeedProfiles, jobs: usize) {
    let gen = LoadGen::new(net, profiles, 24, 2026);
    let mut config = ServeConfig::new(4);
    config.seed = 2026;
    config.jobs = jobs;
    config.queue_depth = 16;
    config.policy = ShedPolicy::ShedOldest;
    let tier = ServeTier::new(net.clone(), profiles.clone(), config);
    let day = gen.generate(3, 40_000.0, 0.05, 1_500);
    let report = tier.run(&day);
    writeln!(
        out,
        "tier shards=4 jobs={jobs} arrivals={} served={} cloud_fills={} fingerprint_fnv1a={:016x}",
        report.arrivals(),
        report.served(),
        report.cloud_fills(),
        fnv1a(&report.fingerprint())
    )
    .unwrap();
}

fn render() -> String {
    let (net, profiles) = setup();
    let long = shortest_route(&net, &profiles, 0, net.nodes.len() - 1, 8).expect("grid connects");
    assert_eq!(long.len(), 22, "the corpus is pinned to the 22-edge corner-to-corner route");
    let routes: [&[usize]; 3] = [&long[..1], &long[..4], &long];
    let mut out = String::new();
    engine_rows::<32>(&mut out, &net, &profiles, &routes);
    engine_rows::<4>(&mut out, &net, &profiles, &routes);
    tier_row(&mut out, &net, &profiles, 1);
    tier_row(&mut out, &net, &profiles, 2);
    out
}

#[test]
fn ptdr_answers_reproduce_the_golden_table_byte_for_byte() {
    let rendered = render();
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden PTDR table is committed");
    assert_eq!(rendered.lines().count(), golden.lines().count(), "row count moved; see {GOLDEN}");
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "a PTDR answer moved; see {GOLDEN}");
    }
}
