//! End-to-end checks of `everestc dataset`: the table's schema is stable,
//! the bytes are a pure function of `--seed` (pinned by a committed golden
//! file), and the worker count never shows through.

use std::path::PathBuf;
use std::process::Command;

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("everestc-dataset-{}-{name}", std::process::id()))
}

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/dataset_seed7_p24.csv");
    std::fs::read_to_string(path).expect("golden dataset file is committed")
}

fn produce(args: &[&str]) -> String {
    let out = everestc().args(args).output().expect("everestc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("CSV is UTF-8")
}

#[test]
fn pinned_seed_reproduces_the_golden_table_at_any_job_count() {
    let args = ["dataset", "--seed", "7", "--points", "24"];
    for jobs in ["1", "2", "4"] {
        let csv = produce(&[&args[..], &["--jobs", jobs]].concat());
        assert_eq!(csv, golden(), "--jobs {jobs} must reproduce the golden table byte-for-byte");
    }
}

#[test]
fn schema_carries_provenance_then_features_then_targets() {
    let header = golden().lines().next().expect("golden has a header").to_owned();
    assert!(header.starts_with("kernel,fingerprint,seed,index,"), "provenance first: {header}");
    for column in ["flops", "banks", "pe", "eff_pe", "log_banks"] {
        assert!(header.split(',').any(|c| c == column), "missing feature '{column}': {header}");
    }
    assert!(header.ends_with("latency_cycles,luts,ffs,dsps,brams"), "targets last: {header}");
}

#[test]
fn a_different_seed_changes_the_table_but_not_the_schema() {
    let base = produce(&["dataset", "--seed", "7", "--points", "12", "--jobs", "2"]);
    let other = produce(&["dataset", "--seed", "8", "--points", "12", "--jobs", "2"]);
    assert_ne!(base, other, "the seed must steer the knob sampling");
    assert_eq!(base.lines().next(), other.lines().next(), "schema is seed-independent");
    assert_eq!(base.lines().count(), other.lines().count());
}

#[test]
fn out_flag_writes_the_same_bytes_as_stdout() {
    let path = tmp("out.csv");
    let out = everestc()
        .args(["dataset", "--seed", "7", "--points", "24", "--jobs", "2"])
        .arg("--out")
        .arg(&path)
        .output()
        .expect("everestc runs");
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "--out must silence stdout");
    let written = std::fs::read_to_string(&path).expect("--out file written");
    assert_eq!(written, golden());
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_flags_are_rejected() {
    let out = everestc().args(["dataset", "--points", "0"]).output().expect("everestc runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive count"));

    let out = everestc().args(["dataset", "--seed", "x"]).output().expect("everestc runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed requires"));

    // The exporter writes a table and nothing else.
    for stray in [&["stray"][..], &["--model", "m.json"][..]] {
        let out = everestc().arg("dataset").args(stray).output().expect("everestc runs");
        assert_eq!(out.status.code(), Some(2), "stray arguments are a usage error: {stray:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

/// A reader that stops early (`everestc dataset … | head -1`) ends the run
/// quietly: the table is far larger than a pipe's buffer, so the write
/// that finds the pipe closed is a real one.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let mut child = everestc()
        .args(["dataset", "--seed", "7", "--points", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("everestc runs");
    let mut header = String::new();
    BufReader::new(child.stdout.take().expect("piped")).read_line(&mut header).unwrap();
    assert!(!header.is_empty(), "the table starts with its header");
    // The reader is dropped above: the pipe is closed.
    let mut stderr = String::new();
    child.stderr.take().expect("piped").read_to_string(&mut stderr).unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(status.code(), Some(0), "{stderr}");
}
