//! `benchmark compare A.json B.json`: for every workload and end-to-end
//! metric of two result files, whether B is `better`, the `same`,
//! `worse` or `unresolved` against A, by the bound `BENCHMARK.json`
//! fixes and the spread the runs themselves show.

use crate::manifest::{number, Declared};
use serde_json::Value;

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// What the run reports for the metric.
    value: f64,
    /// Spread of the samples (passes, set-ups) it was taken from.
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

fn sample(v: &Value) -> Option<Sample> {
    Some(Sample {
        value: number(v.get("value"))?,
        median: number(v.get("median"))?,
        q1: number(v.get("q1"))?,
        q3: number(v.get("q3"))?,
        min: number(v.get("min"))?,
        max: number(v.get("max"))?,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("{path}: {e}"))
}

/// A `setup_s` that moved by less than this many seconds is the `same`
/// whatever share of the baseline that is: a run sets up three times,
/// and 25 % of a short set-up is scheduling noise.
const SETUP_FLOOR_S: f64 = 0.25;

/// Verdict on B against A. `higher` says which way is better; a metric
/// without a `bound` is exact (the simulated-time and failure metrics
/// `BENCHMARK.json` does not declare: functions of the seed alone) and
/// compares bit for bit. A change of the reported values below `floor`
/// counts for nothing.
fn verdict(a: Sample, b: Sample, higher: bool, bound: Option<f64>, floor: f64) -> &'static str {
    if a.value.to_bits() == b.value.to_bits() {
        return "same";
    }
    let improved = if higher { b.value > a.value } else { b.value < a.value };
    let Some(bound) = bound else {
        return if improved { "better" } else { "worse" };
    };
    if (b.value - a.value).abs() < floor {
        return "same";
    }
    // A side's spread: the quartile distance of its passes as a share of
    // their median.
    let spread = |s: Sample| if s.median == 0.0 { 0.0 } else { (s.q3 - s.q1) / s.median.abs() };
    let change = (b.value - a.value).abs() / a.value.abs();
    if spread(a).max(spread(b)) > bound {
        // Too noisy for the bound: only ranges that do not overlap decide.
        let b_above_a = b.min > a.max;
        let b_below_a = b.max < a.min;
        let (all_better, all_worse) =
            if higher { (b_above_a, b_below_a) } else { (b_below_a, b_above_a) };
        return if all_better {
            "better"
        } else if all_worse && change > bound {
            "worse"
        } else {
            "unresolved"
        };
    }
    match (change > bound, improved) {
        (false, _) => "same",
        (true, true) => "better",
        (true, false) => "worse",
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<(), String> {
    let declared = Declared::load()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        return Err(format!("{path_a}: no 'workloads' object"));
    };
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    let mut regressions = 0;
    for (workload, record_a) in workloads {
        let record_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{path_b}: workload '{workload}' missing"))?;
        let mut rows: Vec<(String, Sample, Sample)> = Vec::new();
        let Some(Value::Object(metrics)) = record_a.get("end_to_end") else {
            return Err(format!("{path_a}: {workload} has no 'end_to_end' object"));
        };
        for (name, value_a) in metrics {
            // A metric one file has and the other lost is an error, not a
            // row left out.
            let read = |path: &str, v: Option<&Value>| {
                v.and_then(sample)
                    .ok_or_else(|| format!("{path}: {workload} has no summary of '{name}'"))
            };
            let value_b = record_b.get("end_to_end").and_then(|m| m.get(name));
            rows.push((name.clone(), read(path_a, Some(value_a))?, read(path_b, value_b)?));
        }
        let failed_share = |path: &str, record: &Value| {
            number(record.get("failed_share"))
                .map(|v| Sample { value: v, median: v, q1: v, q3: v, min: v, max: v })
                .ok_or_else(|| format!("{path}: {workload} has no 'failed_share'"))
        };
        rows.push((
            "failed_share".into(),
            failed_share(path_a, record_a)?,
            failed_share(path_b, record_b)?,
        ));
        for (name, sa, sb) in rows {
            let decl = declared.end_to_end.iter().find(|m| m.name == name);
            let higher = decl.map_or(name.ends_with("_qps"), |m| m.higher_is_better);
            let floor = if name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
            let v = verdict(sa, sb, higher, decl.and_then(|m| m.bound), floor);
            if v == "worse" || v == "unresolved" {
                regressions += 1;
            }
            let change =
                if sa.value == 0.0 { 0.0 } else { (sb.value - sa.value) / sa.value * 100.0 };
            println!(
                "{workload:<14} {name:<20} {:>16.6} {:>16.6} {change:>+8.2}%  {v}",
                sa.value, sb.value
            );
        }
    }
    if regressions > 0 {
        return Err(format!("{regressions} metric(s) worse or unresolved"));
    }
    Ok(())
}
