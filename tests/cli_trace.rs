//! End-to-end check of the `everestc` CLI observability surface: the
//! global `--trace` flag must produce a valid Chrome trace-event JSON
//! array covering the parse, pass-pipeline, variant-generation and
//! Pareto phases, and `help`/`--version`/`profile` must behave.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels.edsl")
}

fn temp_trace(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("everestc-{}-{name}.json", std::process::id()))
}

#[test]
fn trace_flag_writes_chrome_trace_covering_all_compile_phases() {
    let out = temp_trace("variants");
    let status = everestc()
        .arg("--trace")
        .arg(&out)
        .arg("variants")
        .arg(fixture())
        .status()
        .expect("everestc runs");
    assert!(status.success());

    let text = std::fs::read_to_string(&out).expect("trace file exists");
    std::fs::remove_file(&out).ok();
    let value: Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let Value::Array(events) = value else {
        panic!("Chrome trace must be a JSON array of events");
    };
    assert!(!events.is_empty());
    for event in &events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(event.get(field).is_some(), "event missing required field '{field}'");
        }
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for phase in ["dsl.parse", "ir.pipeline", "variants.generate", "variants.pareto"] {
        assert!(names.contains(&phase), "trace must cover phase '{phase}', got {names:?}");
    }
    // One variants.generate span per kernel in the fixture.
    assert_eq!(names.iter().filter(|n| **n == "variants.generate").count(), 2);
}

/// The names of the events in the Chrome trace `everestc --trace` writes
/// for `args`.
fn traced_names(name: &str, args: &[&PathBuf]) -> Vec<String> {
    let out = temp_trace(name);
    let status = everestc().arg("--trace").arg(&out).args(args).status().expect("everestc runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&out).expect("trace file exists");
    std::fs::remove_file(&out).ok();
    let Value::Array(events) = serde_json::from_str(&text).expect("trace is valid JSON") else {
        panic!("Chrome trace must be a JSON array of events");
    };
    events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn check_compiles_each_kernel_file_once() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let (cascade, workflow) = (examples.join("cascade.edsl"), examples.join("pipeline.ewf"));
    let check = PathBuf::from("check");
    let lowered = |names: &[String]| names.iter().filter(|n| *n == "dsl.lower").count();
    assert_eq!(lowered(&traced_names("check-one", &[&check, &fixture()])), 1);
    assert_eq!(lowered(&traced_names("check-two", &[&check, &fixture(), &cascade])), 2);
    // A workflow resolves its tasks against the same compiled kernels.
    let names = traced_names("check-wf", &[&check, &fixture(), &cascade, &workflow]);
    assert_eq!(lowered(&names), 2);
    assert!(names.iter().any(|n| n == "workflow.check"), "{names:?}");
}

#[test]
fn trace_flag_is_position_independent() {
    let out = temp_trace("tail");
    let status = everestc()
        .arg("ir")
        .arg(fixture())
        .arg(format!("--trace={}", out.display()))
        .status()
        .expect("everestc runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&out).expect("trace file exists");
    std::fs::remove_file(&out).ok();
    assert!(text.contains("dsl.parse"));
}

#[test]
fn profile_prints_per_phase_summary_table() {
    let output = everestc().arg("profile").arg(fixture()).output().expect("everestc runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("profiled 2 kernels"));
    for column in ["span", "calls", "total"] {
        assert!(stdout.contains(column), "summary table missing '{column}':\n{stdout}");
    }
    for phase in ["sdk.compile", "dsl.parse", "variants.pareto"] {
        assert!(stdout.contains(phase), "summary table missing row '{phase}':\n{stdout}");
    }
}

#[test]
fn help_and_version_exit_zero() {
    for flag in ["help", "--help", "-h"] {
        let output = everestc().arg(flag).output().expect("everestc runs");
        assert!(output.status.success(), "'{flag}' must exit 0");
        assert!(String::from_utf8_lossy(&output.stdout).contains("usage:"));
    }
    for flag in ["--version", "-V"] {
        let output = everestc().arg(flag).output().expect("everestc runs");
        assert!(output.status.success(), "'{flag}' must exit 0");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("everestc "));
    }
}

#[test]
fn unknown_command_still_exits_two_with_usage() {
    let output = everestc().arg("frobnicate").output().expect("everestc runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

#[test]
fn trace_without_file_argument_is_an_error() {
    let output = everestc().arg("--trace").output().expect("everestc runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--trace requires"));
}
