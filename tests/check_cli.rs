//! End-to-end check of `everestc check`: every lint code must report a
//! true positive on its seeded fixture under `examples/lints/`, the clean
//! examples must come back empty with exit code 0, and `--format json`
//! must emit a parseable, versioned diagnostics envelope.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples").join(name)
}

fn check(args: &[&PathBuf], format: Option<&str>) -> (String, i32) {
    let mut cmd = everestc();
    cmd.arg("check");
    if let Some(f) = format {
        cmd.arg("--format").arg(f);
    }
    for a in args {
        cmd.arg(a);
    }
    let out = cmd.output().expect("everestc runs");
    assert!(
        out.stderr.is_empty(),
        "check must not error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), out.status.code().unwrap())
}

#[test]
fn every_lint_code_fires_on_its_seeded_fixture() {
    let fixtures = [
        example("lints/dead_store.eir"),
        example("lints/range_oob.eir"),
        example("lints/taint_flow.eir"),
        example("lints/race.ewf"),
    ];
    let (stdout, code) = check(&fixtures.iter().collect::<Vec<_>>(), None);
    assert_eq!(code, 1, "error diagnostics must fail the check:\n{stdout}");
    for lint in ["dead-store", "unused-result", "range-oob", "taint-flow", "wf-race"] {
        assert!(stdout.contains(&format!("[{lint}]")), "missing lint '{lint}':\n{stdout}");
    }
    // Each diagnostic line carries its file, function, and location.
    assert!(stdout.contains("examples/lints/range_oob.eir: error[range-oob] @overrun"));
    assert!(stdout.contains("^bb0 op 1 / ^bb1 op 0"), "nested loop site:\n{stdout}");
    assert!(stdout.contains("check: 3 errors, 2 warnings"), "{stdout}");
}

#[test]
fn clean_examples_produce_no_diagnostics() {
    // With the kernel sources on the search path the workflow's tasks must
    // all resolve; a missing kernel would be a wf-unresolved-kernel error.
    let clean = [example("kernels.edsl"), example("cascade.edsl"), example("pipeline.ewf")];
    let (stdout, code) = check(&clean.iter().collect::<Vec<_>>(), None);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout, "check: 0 errors, 0 warnings\n");
}

#[test]
fn json_format_is_a_parseable_diagnostics_array() {
    let fixtures = [example("lints/taint_flow.eir"), example("lints/race.ewf")];
    let (stdout, code) = check(&fixtures.iter().collect::<Vec<_>>(), Some("json"));
    assert_eq!(code, 1);
    let value: Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(value.get("schema_version"), Some(&Value::Int(1)), "{stdout}");
    let Some(Value::Array(diags)) = value.get("diagnostics") else {
        panic!("diagnostics must be a JSON array: {stdout}")
    };
    assert_eq!(diags.len(), 2, "{stdout}");
    for d in diags {
        for field in ["severity", "code", "func", "location", "message", "snippet", "file"] {
            assert!(d.get(field).is_some(), "diagnostic missing field '{field}': {stdout}");
        }
    }
    let codes: Vec<&str> = diags
        .iter()
        .filter_map(|d| match d.get("code") {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(codes, ["taint-flow", "wf-race"]);
}

#[test]
fn json_format_on_clean_input_is_an_empty_envelope() {
    let clean = [example("pipeline.ewf")];
    let (stdout, code) = check(&clean.iter().collect::<Vec<_>>(), Some("json"));
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "{\"schema_version\": 1, \"diagnostics\": []}");
}

#[test]
fn bad_format_and_missing_paths_are_usage_errors() {
    let out = everestc().arg("check").arg("--format").arg("xml").arg("x.eir").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format"));

    let out = everestc().arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no paths is a usage error");
}

/// Runs `check` on `range_oob.eir` with its loop bounds replaced by
/// `bounds`, written to a temp file: `(path, stdout, stderr, exit code)`.
fn check_overrun_with(name: &str, bounds: &str) -> (String, String, String, i32) {
    let source = std::fs::read_to_string(example("lints/range_oob.eir")).expect("fixture");
    let seeded = "{hi = 12, lo = 0, step = 1}";
    assert!(source.contains(seeded));
    let path = std::env::temp_dir().join(format!("check_cli_{}_{name}.eir", std::process::id()));
    std::fs::write(&path, source.replace(seeded, bounds)).expect("temp file");
    let out = everestc().arg("check").arg(&path).output().expect("everestc runs");
    std::fs::remove_file(&path).expect("temp file removed");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    let path = path.to_string_lossy().into_owned();
    (path, text(out.stdout), text(out.stderr), out.status.code().unwrap())
}

#[test]
fn a_loop_with_a_zero_step_fails_verification() {
    let (_, stdout, stderr, code) = check_overrun_with("zero_step", "{hi = 12, lo = 0, step = 0}");
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert_eq!(
        stderr,
        "error: verification failed: in @overrun: at ^bb0 op 1 (loop.for): \
         loop.for: step 0 is not positive\n"
    );
}

#[test]
fn a_loop_with_a_float_bound_fails_verification() {
    let (_, stdout, stderr, code) = check_overrun_with("float_hi", "{hi = 12.0, lo = 0, step = 1}");
    assert_eq!(code, 1);
    assert_eq!(stdout, "");
    assert_eq!(
        stderr,
        "error: verification failed: in @overrun: at ^bb0 op 1 (loop.for): \
         loop.for: hi = 12.0 is not an integer\n"
    );
}

#[test]
fn a_loop_spanning_the_whole_i64_range_is_out_of_bounds() {
    let (path, stdout, stderr, code) = check_overrun_with(
        "i64_span",
        "{hi = 9223372036854775807, lo = -9223372036854775807, step = 1}",
    );
    assert_eq!(code, 1, "{stderr}");
    assert_eq!(stderr, "");
    assert_eq!(
        stdout,
        format!(
            "{path}: error[range-oob] @overrun at ^bb0 op 1 / ^bb1 op 0: index %3 ranges over \
             [-9223372036854775807, 9223372036854775806] but dimension 0 of %0 has size 8\n    \
             %5 = mem.load %0, %3\ncheck: 1 error, 0 warnings\n"
        )
    );
}
