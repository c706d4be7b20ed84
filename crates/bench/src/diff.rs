//! Regression gate over `BENCH_*.json` trajectories.
//!
//! Every bench binary writes its results as a JSON tree whose throughput
//! leaves follow the `*_per_sec` naming convention (`calls_per_sec`,
//! `queries_per_sec`, ...). This module diffs a committed baseline tree
//! against a freshly measured one: it walks both trees, pairs throughput
//! leaves by their structural path (object keys and array indices, so
//! `batch_runs[2].queries_per_sec` in the baseline lines up with the same
//! run in the fresh file), and flags any leaf whose fresh value falls
//! more than a threshold below the baseline. Higher is better by
//! construction — only `*_per_sec` leaves participate, so latency noise
//! in `wall_ms` fields never trips the gate.
//!
//! The `bench_diff` binary wraps this into a CI step: nonzero exit on
//! regression, a human-readable table either way.

use serde_json::Value;

/// One throughput leaf present in the baseline tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Structural path, e.g. `batch_runs[0].queries_per_sec`.
    pub path: String,
    /// Baseline throughput.
    pub baseline: f64,
    /// Fresh throughput, `None` when the leaf disappeared.
    pub fresh: Option<f64>,
}

impl DiffEntry {
    /// `fresh / baseline`; 0 when the leaf vanished or baseline is 0.
    pub(crate) fn ratio(&self) -> f64 {
        match self.fresh {
            Some(fresh) if self.baseline > 0.0 => fresh / self.baseline,
            _ => 0.0,
        }
    }

    /// `true` when fresh throughput dropped more than `threshold`
    /// (a fraction: 0.10 = 10%) below the baseline, or vanished.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio() < 1.0 - threshold
    }
}

/// `true` for keys that name a higher-is-better throughput leaf.
fn is_throughput_key(key: &str) -> bool {
    key.contains("per_sec")
}

fn numeric(value: &Value) -> Option<f64> {
    match value {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Collects every `(path, value)` throughput leaf in a JSON tree, in
/// deterministic traversal order.
pub(crate) fn throughput_leaves(tree: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(tree, "", &mut out);
    out
}

fn walk(value: &Value, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                if is_throughput_key(key) {
                    if let Some(n) = numeric(child) {
                        out.push((child_path, n));
                        continue;
                    }
                }
                walk(child, &child_path, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                walk(child, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Pairs the baseline's throughput leaves with the fresh tree's by path.
/// Leaves that exist only in the fresh tree are new metrics and never
/// regressions, so they are ignored.
pub fn diff(baseline: &Value, fresh: &Value) -> Vec<DiffEntry> {
    let fresh_leaves = throughput_leaves(fresh);
    throughput_leaves(baseline)
        .into_iter()
        .map(|(path, base)| {
            let fresh = fresh_leaves.iter().find(|(p, _)| *p == path).map(|(_, v)| *v);
            DiffEntry { path, baseline: base, fresh }
        })
        .collect()
}

/// Renders the diff as an aligned report; `threshold` is a fraction.
pub fn render(entries: &[DiffEntry], threshold: f64) -> String {
    let mut out = String::new();
    let width = entries.iter().map(|e| e.path.len()).max().unwrap_or(4).max(4);
    out.push_str(&format!(
        "{:<width$}  {:>12}  {:>12}  {:>7}  status\n",
        "path", "baseline", "fresh", "ratio"
    ));
    for e in entries {
        let (fresh, ratio, status) = match e.fresh {
            Some(f) => {
                let status = if e.regressed(threshold) { "REGRESSED" } else { "ok" };
                (format!("{f:.1}"), format!("{:.3}", e.ratio()), status)
            }
            None => ("missing".to_owned(), "-".to_owned(), "REGRESSED"),
        };
        out.push_str(&format!(
            "{:<width$}  {:>12.1}  {:>12}  {:>7}  {}\n",
            e.path, e.baseline, fresh, ratio, status
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(text: &str) -> Value {
        serde_json::from_str(text).expect("valid JSON")
    }

    #[test]
    fn collects_per_sec_leaves_with_structural_paths() {
        let t = tree(
            r#"{"bench":"x","runs":[{"jobs":1,"calls_per_sec":100.0},
                {"jobs":4,"calls_per_sec":250.0}],
                "warm":{"queries_per_sec":900.0},"wall_ms":17.5}"#,
        );
        let leaves = throughput_leaves(&t);
        assert_eq!(
            leaves,
            vec![
                ("runs[0].calls_per_sec".to_owned(), 100.0),
                ("runs[1].calls_per_sec".to_owned(), 250.0),
                ("warm.queries_per_sec".to_owned(), 900.0),
            ]
        );
    }

    #[test]
    fn flags_drops_beyond_threshold_only() {
        let base = tree(r#"{"a_per_sec":100.0,"b_per_sec":100.0,"c_per_sec":100.0}"#);
        let fresh = tree(r#"{"a_per_sec":95.0,"b_per_sec":89.0,"c_per_sec":130.0}"#);
        let entries = diff(&base, &fresh);
        let regressed: Vec<&str> =
            entries.iter().filter(|e| e.regressed(0.10)).map(|e| e.path.as_str()).collect();
        assert_eq!(regressed, vec!["b_per_sec"], "only the 11% drop trips a 10% gate");
    }

    #[test]
    fn missing_leaf_counts_as_regression() {
        let base = tree(r#"{"runs":[{"calls_per_sec":10.0}]}"#);
        let fresh = tree(r#"{"runs":[]}"#);
        let entries = diff(&base, &fresh);
        assert_eq!(entries.len(), 1);
        assert!(entries[0].fresh.is_none());
        assert!(entries[0].regressed(0.10));
    }

    #[test]
    fn new_fresh_leaves_are_ignored() {
        let base = tree(r#"{"a_per_sec":10.0}"#);
        let fresh = tree(r#"{"a_per_sec":10.0,"brand_new_per_sec":1.0}"#);
        let entries = diff(&base, &fresh);
        assert_eq!(entries.len(), 1, "new metrics never gate");
        assert!(!entries[0].regressed(0.10));
    }

    #[test]
    fn integer_throughputs_are_numeric_leaves() {
        let base = tree(r#"{"calls_per_sec":100}"#);
        let fresh = tree(r#"{"calls_per_sec":50}"#);
        let entries = diff(&base, &fresh);
        assert_eq!(entries[0].baseline, 100.0);
        assert!(entries[0].regressed(0.10));
    }

    #[test]
    fn render_marks_status_per_row() {
        let base = tree(r#"{"a_per_sec":100.0,"b_per_sec":100.0}"#);
        let fresh = tree(r#"{"a_per_sec":100.0,"b_per_sec":10.0}"#);
        let report = render(&diff(&base, &fresh), 0.10);
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[1].ends_with("ok"));
        assert!(lines[2].ends_with("REGRESSED"));
    }
}
