//! `run.sh` without `--workload`: every workload in a child process of
//! its own (so each has its own peak resident set and a cold program),
//! the records gathered into `out/result.json`.

use crate::harness::Options;
use crate::manifest::{number, out_dir, Declared, MetricDecl};
use crate::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn child(workload: &str, opts: &Options, traced: bool, detail: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail);
    if opts.quick {
        command.arg("--quick");
    }
    if opts.full {
        command.arg("--full");
    }
    let status = command.status().map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} (traced={traced}) exited with {status}"));
    }
    let raw = std::fs::read_to_string(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    std::fs::remove_file(detail).map_err(|e| format!("{}: {e}", detail.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", detail.display()))
}

fn keys(v: Option<&Value>) -> BTreeSet<String> {
    match v {
        Some(Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => BTreeSet::new(),
    }
}

pub fn run(opts: &Options, trace: bool) -> Result<(), String> {
    // `--quick` exists to check the emitted names, so it always traces.
    let trace = trace || opts.quick;
    let out = out_dir()?;
    let mut provenance = Value::Null;
    let mut records = Vec::new();
    let mut measured_layers = BTreeSet::new();
    let mut measured_end_to_end: Option<BTreeSet<String>> = None;
    for name in WORKLOADS {
        let mut record = child(name, opts, false, &out.join(format!("{name}.detail.json")))?;
        // Refused (shed or rejected) queries count as failures here.
        let count = |key: &str| number(record.get(key)).unwrap_or(0.0);
        let failed_share = (count("failed") + count("refused")) / count("attempted");
        let names = keys(record.get("end_to_end"));
        let Value::Object(fields) = &mut record else {
            return Err(format!("{name}: detail record is not an object"));
        };
        fields.push(("failed_share".into(), Value::Float(failed_share)));
        if let Some(at) = fields.iter().position(|(k, _)| k == "provenance") {
            provenance = fields.remove(at).1;
        }
        measured_end_to_end = Some(match measured_end_to_end {
            Some(common) => common.intersection(&names).cloned().collect(),
            None => names,
        });
        if trace {
            let traced = child(name, opts, true, &out.join(format!("{name}.trace-detail.json")))?;
            let layers = traced.get("per_layer").cloned().unwrap_or(Value::Null);
            measured_layers.extend(keys(Some(&layers)));
            fields.retain(|(k, _)| k != "per_layer");
            fields.push(("per_layer".into(), layers));
        }
        records.push((name.to_owned(), record));
    }

    let declared = Declared::load()?;
    let names =
        |decls: &[MetricDecl]| decls.iter().map(|m| m.name.clone()).collect::<BTreeSet<_>>();
    let missing: Vec<String> = names(&declared.end_to_end)
        .difference(&measured_end_to_end.unwrap_or_default())
        .cloned()
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "declared end-to-end metrics not measured on every workload: {missing:?}"
        ));
    }
    if trace {
        let unmeasured: Vec<String> =
            names(&declared.per_layer).difference(&measured_layers).cloned().collect();
        if !unmeasured.is_empty() {
            return Err(format!("declared per-layer metrics no workload measures: {unmeasured:?}"));
        }
    }
    let run: BTreeSet<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    if run != declared.workloads.iter().cloned().collect() {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the program runs {run:?}",
            declared.workloads
        ));
    }

    let result = Value::Object(vec![
        ("schema_version".into(), Value::UInt(crate::SCHEMA_VERSION)),
        ("provenance".into(), provenance),
        ("workloads".into(), Value::Object(records)),
    ]);
    let path = out.join("result.json");
    let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("every declared name was measured; wrote {}", path.display());
    Ok(())
}
