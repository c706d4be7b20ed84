//! Property tests for the PTDR summary (`service::summarize`).
//!
//! * Against the sorted-`Vec` reference the scalar kernel uses: within
//!   1e-9 on arbitrary, duplicate-heavy and single-sample inputs.
//! * Against the committed tolerance policy
//!   (`tests/golden/tolerance_policy.txt`): the p95 is the element
//!   `select_nth_unstable_by(total_cmp)` returns, bit for bit, on any bit
//!   pattern — negatives, ±0.0, NaN and ±∞ included — on all-equal
//!   buffers, and beside one 1e300 outlier, so that every other sample
//!   sits at one end of the value range; the mean and std stay within the
//!   policy's bounds of Welford. Sizes 1, 2, 3, 312 and 10 000 are each
//!   taken. CI runs this file in release as well, since that is the code
//!   generation that ships.

use everest_apps::traffic::service::summarize;
use everest_apps::traffic::TravelTimeStats;
use proptest::prelude::*;

#[path = "../src/traffic/summary_reference.rs"]
mod summary_reference;

/// Sizes every policy test takes: the smallest buffers, the tier's
/// largest budget and the golden table's long run.
const SIZES: [usize; 5] = [1, 2, 3, 312, 10_000];

/// Summarizes a copy of `times`, checks the copy came back a permutation
/// of it, and holds the summary to the policy.
fn keeps_the_policy(times: &[f64]) -> Result<(), String> {
    let mut buf = times.to_vec();
    let stats = summarize(&mut buf);
    let sorted_bits = |v: &[f64]| {
        let mut bits: Vec<u64> = v.iter().map(|t| t.to_bits()).collect();
        bits.sort_unstable();
        bits
    };
    if sorted_bits(&buf) != sorted_bits(times) {
        return Err("the buffer is no longer a permutation of the samples".into());
    }
    summary_reference::check(times, (stats.mean_h, stats.p95_h, stats.std_h))
}

/// One sample from the families that stress a summary, picked by the
/// word's bits. `rare` sets how often it is NaN or ±∞: one draw in
/// 2^`rare`, and never at 8. Otherwise: negatives and positives that
/// cancel, tier-like travel times, ±0.0, subnormals, or one of three
/// values repeated often enough to tie.
fn hostile(word: u64, rare: u32) -> f64 {
    const TIES: [f64; 3] = [1.0, -1.0, 0.5];
    let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
    if rare < 8 && (word >> 3) & ((1u64 << rare) - 1) == 0 {
        return [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(word & 3) as usize];
    }
    match word & 7 {
        0 | 1 => 2e3 * unit - 1e3,
        2 | 3 => 0.05 + 3.0 * unit,
        4 => [0.0, -0.0][((word >> 3) & 1) as usize],
        5 => [f64::from_bits(1), -f64::MIN_POSITIVE / 2.0][((word >> 3) & 1) as usize],
        _ => TIES[(word >> 3) as usize % 3],
    }
}

/// The reference summary: full sort, two-pass moments, indexed p95 —
/// exactly what `ptdr_travel_time_reference` computes.
fn summarize_sorted(times: &[f64]) -> TravelTimeStats {
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    let mean = sorted.iter().sum::<f64>() / n;
    let var = sorted.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
    let p95 = sorted[((0.95 * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)];
    TravelTimeStats { mean_h: mean, p95_h: p95, std_h: var.sqrt() }
}

fn assert_close(streaming: &TravelTimeStats, reference: &TravelTimeStats) {
    assert!(
        (streaming.mean_h - reference.mean_h).abs() <= 1e-9,
        "mean {} vs {}",
        streaming.mean_h,
        reference.mean_h
    );
    assert!(
        (streaming.std_h - reference.std_h).abs() <= 1e-9,
        "std {} vs {}",
        streaming.std_h,
        reference.std_h
    );
    // The selected percentile element is an input value, so the match is
    // exact, not approximate.
    assert_eq!(streaming.p95_h.to_bits(), reference.p95_h.to_bits(), "p95 diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streaming_summary_matches_sorted_reference(
        times in prop::collection::vec(0.001f64..10.0, 1..200),
    ) {
        let reference = summarize_sorted(&times);
        let mut buf = times.clone();
        let streaming = summarize(&mut buf);
        assert_close(&streaming, &reference);
    }

    #[test]
    fn duplicate_heavy_inputs_agree(
        value in 0.5f64..1.5,
        copies in 1usize..50,
        extras in prop::collection::vec(0.5f64..1.5, 0..5),
    ) {
        // Mostly one repeated value, with a few distinct stragglers —
        // the worst case for pivot-based selection.
        let mut times = vec![value; copies];
        times.extend_from_slice(&extras);
        let reference = summarize_sorted(&times);
        let streaming = summarize(&mut times);
        assert_close(&streaming, &reference);
    }

    #[test]
    fn single_sample_is_its_own_summary(value in 0.001f64..100.0) {
        let mut times = [value];
        let stats = summarize(&mut times);
        assert_eq!(stats.mean_h.to_bits(), value.to_bits());
        assert_eq!(stats.p95_h.to_bits(), value.to_bits());
        assert!(stats.std_h.abs() <= 1e-12);
        assert_close(&stats, &summarize_sorted(&[value]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p95_is_the_selections_element_on_any_bits(
        words in prop::collection::vec(any::<u64>(), 10_000),
        pool in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        // Every bit pattern, and the same from a pool of a few patterns
        // so that ties are the rule.
        let any: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let tied: Vec<f64> =
            words.iter().map(|&w| f64::from_bits(pool[w as usize % pool.len()])).collect();
        for times in [&any, &tied] {
            for n in SIZES {
                let mut buf = times[..n].to_vec();
                let p95 = summarize(&mut buf).p95_h;
                let want = summary_reference::p95(&times[..n]);
                prop_assert_eq!(p95.to_bits(), want.to_bits(), "n {}", n);
            }
        }
    }

    #[test]
    fn hostile_buffers_keep_the_policy(
        words in prop::collection::vec(any::<u64>(), 10_000),
        rare in 0u32..9,
    ) {
        let times: Vec<f64> = words.iter().map(|&w| hostile(w, rare)).collect();
        for n in SIZES {
            let verdict = keeps_the_policy(&times[..n]);
            prop_assert!(verdict.is_ok(), "n {}, rare {}: {:?}", n, rare, verdict);
        }
    }

    #[test]
    fn one_outlier_keeps_the_policy(
        times in prop::collection::vec(0.05f64..3.0, 10_000),
        at in any::<prop::sample::Index>(),
    ) {
        for n in SIZES {
            let mut times = times[..n].to_vec();
            times[at.index(n)] = 1e300;
            let verdict = keeps_the_policy(&times);
            prop_assert!(verdict.is_ok(), "n {}: {:?}", n, verdict);
        }
    }
}

#[test]
fn all_equal_buffers_keep_the_policy() {
    let values = [0.0, -0.0, 0.1, 1.5, -2.25, 1e300, f64::from_bits(1), f64::NAN, f64::INFINITY];
    for value in values {
        for n in SIZES {
            if let Err(verdict) = keeps_the_policy(&vec![value; n]) {
                panic!("{n} × {value:e}: {verdict}");
            }
        }
    }
}
