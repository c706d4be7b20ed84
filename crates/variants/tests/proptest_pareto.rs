//! Property test: the O(n log n) sort-then-sweep Pareto filter is
//! observably identical to the naive O(n²) reference on random variant
//! sets, including ties, duplicated points and degenerate axes.

use everest_variants::pareto::{dominates, pareto_front};
use everest_variants::variant::{Metrics, Variant};
use proptest::prelude::*;

fn variant(i: usize, time: f64, energy: f64, luts: u64) -> Variant {
    Variant {
        id: format!("v{i}"),
        kernel: "k".into(),
        transforms: [].into(),
        metrics: Metrics {
            latency_us: time,
            transfer_us: 0.0,
            energy_mj: energy,
            area_luts: luts,
            area_brams: 0,
        },
    }
}

/// The naive reference: keep every variant no other variant dominates,
/// preserving input order.
fn naive_front(variants: &[Variant]) -> Vec<Variant> {
    variants.iter().filter(|v| !variants.iter().any(|other| dominates(other, v))).cloned().collect()
}

fn ids(front: &[Variant]) -> Vec<String> {
    front.iter().map(|v| v.id.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sweep_matches_naive_on_random_sets(
        // Small discrete domains force plenty of ties and duplicates,
        // which is where a sweep is easiest to get wrong.
        points in prop::collection::vec((0u8..6, 0u8..6, 0u64..6), 0..40),
    ) {
        let variants: Vec<Variant> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, e, a))| variant(i, f64::from(t), f64::from(e), a))
            .collect();
        prop_assert_eq!(ids(&pareto_front(&variants)), ids(&naive_front(&variants)));
    }

    #[test]
    fn sweep_matches_naive_on_continuous_sets(
        points in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0u64..10_000),
            0..40,
        ),
    ) {
        let variants: Vec<Variant> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, e, a))| variant(i, t, e, a))
            .collect();
        prop_assert_eq!(ids(&pareto_front(&variants)), ids(&naive_front(&variants)));
    }

    #[test]
    fn sweep_matches_naive_on_degenerate_axes(
        // Everything shares one time value: dominance is decided purely
        // by the (energy, area) staircase.
        points in prop::collection::vec((0u8..4, 0u64..4), 0..30),
    ) {
        let variants: Vec<Variant> = points
            .iter()
            .enumerate()
            .map(|(i, &(e, a))| variant(i, 1.0, f64::from(e), a))
            .collect();
        prop_assert_eq!(ids(&pareto_front(&variants)), ids(&naive_front(&variants)));
    }

    #[test]
    fn front_members_are_mutually_non_dominating(
        points in prop::collection::vec((0u8..8, 0u8..8, 0u64..8), 1..30),
    ) {
        let variants: Vec<Variant> = points
            .iter()
            .enumerate()
            .map(|(i, &(t, e, a))| variant(i, f64::from(t), f64::from(e), a))
            .collect();
        let front = pareto_front(&variants);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(a, b));
            }
        }
    }
}
