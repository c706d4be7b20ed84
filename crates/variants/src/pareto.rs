//! Pareto-front filtering over (time, energy, area).

use crate::variant::Variant;

/// Objective vector of a variant: minimize all three components.
pub(crate) fn objectives(v: &Variant) -> (f64, f64, u64) {
    (v.metrics.total_us(), v.metrics.energy_mj, v.metrics.area_luts)
}

/// `a` dominates `b` when it is no worse in every objective and strictly
/// better in at least one.
pub fn dominates(a: &Variant, b: &Variant) -> bool {
    let (at, ae, aa) = objectives(a);
    let (bt, be, ba) = objectives(b);
    let no_worse = at <= bt && ae <= be && aa <= ba;
    let better = at < bt || ae < be || aa < ba;
    no_worse && better
}

/// An `f64` ordered by [`f64::total_cmp`], usable as a `BTreeMap` key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &OrdF64) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &OrdF64) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Flags the dominated variants in O(n log n): sort by (time, energy,
/// area), then sweep groups of equal objective vectors against a
/// staircase of the processed points' (energy, min area). A point is
/// dominated iff some lexicographically smaller point (which necessarily
/// has time ≤ its time, and differs in at least one objective) is no
/// worse in energy and area — exactly the strict-dominance predicate of
/// [`dominates`]. Equal vectors share a group and never dominate each
/// other.
fn dominated_flags(variants: &[Variant]) -> Vec<bool> {
    dominated_objective_flags(&variants.iter().map(objectives).collect::<Vec<_>>())
}

/// The sweep itself, over bare objective triples.
fn dominated_objective_flags(objs: &[(f64, f64, u64)]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.sort_by(|&a, &b| {
        objs[a]
            .0
            .total_cmp(&objs[b].0)
            .then(objs[a].1.total_cmp(&objs[b].1))
            .then(objs[a].2.cmp(&objs[b].2))
    });

    let mut dominated = vec![false; objs.len()];
    // Staircase over processed groups: energy → minimal area among points
    // with energy ≤ key; areas strictly decrease as energies increase.
    let mut stairs: std::collections::BTreeMap<OrdF64, u64> = std::collections::BTreeMap::new();
    let mut g = 0;
    while g < order.len() {
        let mut h = g + 1;
        while h < order.len() && objs[order[h]] == objs[order[g]] {
            h += 1;
        }
        let (_, energy, area) = objs[order[g]];
        if stairs.range(..=OrdF64(energy)).next_back().is_some_and(|(_, &a)| a <= area) {
            for &i in &order[g..h] {
                dominated[i] = true;
            }
        } else {
            // The group improves the staircase: remove the entries it
            // covers (energy ≥ this, area ≥ this), then insert. Each
            // entry is inserted and removed at most once overall.
            let covered: Vec<OrdF64> = stairs
                .range(OrdF64(energy)..)
                .take_while(|(_, &a)| a >= area)
                .map(|(&e, _)| e)
                .collect();
            for e in covered {
                stairs.remove(&e);
            }
            stairs.insert(OrdF64(energy), area);
        }
        g = h;
    }
    dominated
}

/// Extracts the Pareto-optimal subset (non-dominated variants), preserving
/// input order. Runs in O(n log n) via a sort-then-sweep filter.
pub fn pareto_front(variants: &[Variant]) -> Vec<Variant> {
    let mut span = everest_telemetry::span("variants.pareto", "variants");
    span.attr("candidates", variants.len());
    let dominated = dominated_flags(variants);
    let front: Vec<Variant> = variants
        .iter()
        .zip(&dominated)
        .filter(|(_, dominated)| !**dominated)
        .map(|(v, _)| v.clone())
        .collect();
    span.attr("front", front.len());
    front
}

/// A reference point for [`hypervolume`]: the componentwise worst
/// objectives across `variants`, padded by 10% so every point dominates
/// it strictly. Compare two fronts against the SAME reference —
/// conventionally the one computed from the full variant set.
pub fn reference_point(variants: &[Variant]) -> (f64, f64, f64) {
    let mut r = (0.0f64, 0.0f64, 0.0f64);
    for v in variants {
        let (t, e, a) = objectives(v);
        r.0 = r.0.max(t);
        r.1 = r.1.max(e);
        r.2 = r.2.max(a as f64);
    }
    (r.0 * 1.1 + 1e-9, r.1 * 1.1 + 1e-9, r.2 * 1.1 + 1.0)
}

/// The dominated hypervolume of `variants` against `reference` — the
/// volume of objective space (time × energy × area, all minimized) that
/// at least one variant dominates, the standard scalar measure of front
/// quality. Larger is better; two fronts measured against the same
/// reference are directly comparable.
///
/// Implemented as a slab sweep along the area axis with a 2D staircase
/// union per slab: O(n² log n), exact, and deterministic.
pub fn hypervolume(variants: &[Variant], reference: (f64, f64, f64)) -> f64 {
    let mut pts: Vec<(f64, f64, f64)> = variants
        .iter()
        .map(objectives)
        .map(|(t, e, a)| (t, e, a as f64))
        .filter(|&(t, e, a)| t < reference.0 && e < reference.1 && a < reference.2)
        .collect();
    pts.sort_by(|x, y| x.2.total_cmp(&y.2));
    let mut volume = 0.0;
    for (k, &(_, _, a)) in pts.iter().enumerate() {
        // Skip duplicated slab boundaries: the first point at each
        // distinct area owns the whole slab.
        if k > 0 && pts[k - 1].2 == a {
            continue;
        }
        let a_next = pts.iter().map(|p| p.2).find(|&z| z > a).unwrap_or(reference.2);
        let active: Vec<(f64, f64)> = pts.iter().filter(|p| p.2 <= a).map(|p| (p.0, p.1)).collect();
        volume += staircase_area(&active, (reference.0, reference.1)) * (a_next - a);
    }
    volume
}

/// Area of the union of rectangles `[t, r.0] × [e, r.1]` over `points`
/// (the 2D dominated region): sweep by ascending time, accumulating each
/// strictly-improving energy step.
fn staircase_area(points: &[(f64, f64)], r: (f64, f64)) -> f64 {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_e = r.1;
    for &(t, e) in &pts {
        if e < best_e {
            area += (r.0 - t) * (best_e - e);
            best_e = e;
        }
    }
    area
}

/// The variant with the lowest end-to-end time.
pub fn fastest(variants: &[Variant]) -> Option<&Variant> {
    variants.iter().min_by(|a, b| a.metrics.total_us().total_cmp(&b.metrics.total_us()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Metrics;

    fn v(id: &str, time: f64, energy: f64, luts: u64) -> Variant {
        Variant {
            id: id.into(),
            kernel: "k".into(),
            transforms: vec![],
            metrics: Metrics {
                latency_us: time,
                transfer_us: 0.0,
                energy_mj: energy,
                area_luts: luts,
                area_brams: 0,
            },
        }
    }

    #[test]
    fn dominated_points_are_filtered() {
        let variants = vec![
            v("good", 10.0, 1.0, 0),
            v("dominated", 20.0, 2.0, 0),
            v("tradeoff", 5.0, 3.0, 1000),
        ];
        let front = pareto_front(&variants);
        let ids: Vec<&str> = front.iter().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, vec!["good", "tradeoff"]);
    }

    #[test]
    fn identical_points_all_survive() {
        let variants = vec![v("a", 1.0, 1.0, 0), v("b", 1.0, 1.0, 0)];
        assert_eq!(pareto_front(&variants).len(), 2);
    }

    #[test]
    fn front_never_empty_for_nonempty_input() {
        let variants = vec![v("x", 3.0, 9.0, 7)];
        assert_eq!(pareto_front(&variants).len(), 1);
    }

    #[test]
    fn dominance_is_strict() {
        let a = v("a", 1.0, 1.0, 0);
        let b = v("b", 1.0, 1.0, 0);
        assert!(!dominates(&a, &b));
        let c = v("c", 0.5, 1.0, 0);
        assert!(dominates(&c, &a));
        assert!(!dominates(&a, &c));
    }

    #[test]
    fn hypervolume_of_one_point_is_its_box() {
        let variants = vec![v("p", 1.0, 2.0, 3)];
        let hv = hypervolume(&variants, (2.0, 4.0, 5.0));
        assert!((hv - 1.0 * 2.0 * 2.0).abs() < 1e-9, "hv={hv}");
    }

    #[test]
    fn hypervolume_unions_overlapping_boxes() {
        // Two symmetric trade-off points against reference (2,2,2):
        // each box is 1×1×2 = 2; the overlap region is 1×1×2 ... computed
        // by inclusion-exclusion: union = 2 + 2 - (0.0) with disjoint
        // time/energy? Points (0,1,0) and (1,0,0): boxes [0,2]×[1,2]×[0,2]
        // = 2·1·2 = 4 and [1,2]×[0,2]×[0,2] = 1·2·2 = 4, overlap
        // [1,2]×[1,2]×[0,2] = 2 → union 6.
        let variants = vec![v("a", 0.0, 1.0, 0), v("b", 1.0, 0.0, 0)];
        let hv = hypervolume(&variants, (2.0, 2.0, 2.0));
        assert!((hv - 6.0).abs() < 1e-9, "hv={hv}");
    }

    #[test]
    fn dominated_point_adds_no_hypervolume() {
        let front = vec![v("a", 1.0, 1.0, 1)];
        let padded = vec![v("a", 1.0, 1.0, 1), v("worse", 2.0, 2.0, 2)];
        let r = reference_point(&padded);
        assert_eq!(hypervolume(&front, r), hypervolume(&padded, r));
    }

    #[test]
    fn points_outside_the_reference_are_ignored() {
        let variants = vec![v("out", 10.0, 10.0, 10)];
        assert_eq!(hypervolume(&variants, (2.0, 2.0, 2.0)), 0.0);
    }

    #[test]
    fn extreme_selectors() {
        let variants = vec![v("fast", 1.0, 10.0, 0), v("eff", 10.0, 1.0, 0)];
        assert_eq!(fastest(&variants).unwrap().id, "fast");
        assert!(fastest(&[]).is_none());
    }
}
