//! The references the PTDR summary is judged by, and the committed
//! tolerance policy (`tests/golden/tolerance_policy.txt`) that says how
//! closely. Test-only: the library's unit tests compile it as a
//! `#[cfg(test)]` module and `tests/ptdr_props.rs` includes the same file,
//! so there is one Welford and one reading of the policy.

// Each includer uses a different part.
#![allow(dead_code)]

const POLICY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/tolerance_policy.txt");

/// One output's rule in the policy file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// The same bits.
    Exact,
    /// Within this fraction of the samples' scale.
    Rel(f64),
}

/// The policy's rule for `output` (`ptdr.mean`, say).
fn rule(output: &str) -> Rule {
    let text = std::fs::read_to_string(POLICY).expect("the tolerance policy is committed");
    let fields: Vec<&str> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|fields| fields.first() == Some(&output))
        .unwrap_or_else(|| panic!("{output} has no rule in {POLICY}"));
    match fields[2..] {
        ["exact"] => Rule::Exact,
        ["rel", bound] => Rule::Rel(bound.parse().expect("a rel bound is a number")),
        _ => panic!("{output}: unreadable rule {fields:?} in {POLICY}"),
    }
}

/// Welford's streaming mean and standard deviation, pushed in buffer
/// order: the PTDR summary's moments before the two-pass form, and the
/// policy's `welford`.
pub(crate) fn welford(times: &[f64]) -> (f64, f64) {
    let (mut mean, mut m2) = (0.0f64, 0.0f64);
    for (i, &t) in times.iter().enumerate() {
        let delta = t - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (t - mean);
    }
    (mean, (m2 / times.len() as f64).max(0.0).sqrt())
}

/// The policy's `select_nth_unstable_by(total_cmp)`: the element at rank
/// `round(0.95 · (n − 1))` in `total_cmp` order.
pub(crate) fn p95(times: &[f64]) -> f64 {
    let mut copy = times.to_vec();
    let rank = ((0.95 * (copy.len() - 1) as f64).round() as usize).min(copy.len() - 1);
    *copy.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// Neumaier's compensated sum: each addition's rounding error is
/// collected and added back once, so the result is within an ulp or two of
/// the exactly rounded sum whatever the order.
fn neumaier(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut lost) = (0.0f64, 0.0f64);
    for x in values {
        let next = sum + x;
        lost += if sum.abs() >= x.abs() { (sum - next) + x } else { (x - next) + sum };
        sum = next;
    }
    sum + lost
}

/// Mean and standard deviation from compensated sums: the accuracy
/// reference both summary forms are measured against.
pub(crate) fn compensated(times: &[f64]) -> (f64, f64) {
    let n = times.len() as f64;
    let mean = neumaier(times.iter().copied()) / n;
    (mean, (neumaier(times.iter().map(|t| (t - mean) * (t - mean))) / n).sqrt())
}

/// Whether `new` keeps `rule` against `reference` for an output over
/// samples of size `scale`, all finite or not (see the policy's header).
fn keeps(rule: Rule, new: f64, reference: f64, scale: f64, samples_finite: bool) -> bool {
    match rule {
        _ if new.to_bits() == reference.to_bits() => true,
        Rule::Exact => false,
        Rule::Rel(bound) => match (new.is_finite(), reference.is_finite()) {
            (true, true) => (new - reference).abs() <= bound * scale + f64::MIN_POSITIVE,
            (false, false) => true,
            _ => samples_finite && scale == f64::INFINITY,
        },
    }
}

/// Checks a summary `(mean, p95, std)` of `times` against the policy:
/// p95 against the selection, mean and std against Welford.
pub(crate) fn check(times: &[f64], (mean, p95_got, std): (f64, f64, f64)) -> Result<(), String> {
    static RULES: std::sync::OnceLock<[Rule; 3]> = std::sync::OnceLock::new();
    let rules = RULES.get_or_init(|| ["ptdr.p95", "ptdr.mean", "ptdr.std"].map(rule));
    let n = times.len() as f64;
    let mean_scale = times.iter().map(|t| t.abs()).sum::<f64>() / n;
    let std_scale = (times.iter().map(|t| t * t).sum::<f64>() / n).sqrt();
    let samples_finite = times.iter().all(|t| t.is_finite());
    let (welford_mean, welford_std) = welford(times);
    let outputs = [
        ("ptdr.p95", p95_got, p95(times), 0.0),
        ("ptdr.mean", mean, welford_mean, mean_scale),
        ("ptdr.std", std, welford_std, std_scale),
    ];
    for ((output, new, reference, scale), &rule) in outputs.into_iter().zip(rules) {
        if !keeps(rule, new, reference, scale, samples_finite) {
            return Err(format!(
                "{output} {new:e} against {reference:e} breaks {rule:?} (scale {scale:e}, n {})",
                times.len()
            ));
        }
    }
    Ok(())
}
