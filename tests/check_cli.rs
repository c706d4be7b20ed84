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

/// Runs `check` on `source`, written to a temp file named after `name`
/// (whose extension picks the front end): `(path, stdout, stderr, exit code)`.
fn check_text(name: &str, source: &str) -> (String, String, String, i32) {
    let path = std::env::temp_dir().join(format!("check_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, source).expect("temp file");
    let out = everestc().arg("check").arg(&path).output().expect("everestc runs");
    std::fs::remove_file(&path).expect("temp file removed");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    let path = path.to_string_lossy().into_owned();
    (path, text(out.stdout), text(out.stderr), out.status.code().unwrap())
}

/// Runs `check` on `range_oob.eir` with its loop bounds replaced by
/// `bounds`: `(path, stdout, stderr, exit code)`.
fn check_overrun_with(name: &str, bounds: &str) -> (String, String, String, i32) {
    let source = std::fs::read_to_string(example("lints/range_oob.eir")).expect("fixture");
    let seeded = "{hi = 12, lo = 0, step = 1}";
    assert!(source.contains(seeded));
    check_text(&format!("{name}.eir"), &source.replace(seeded, bounds))
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

/// One `tensor.*` op on `%0: tensor<4x6xf64>` and `%1: tensor<5x5xf64>`,
/// returned as `ret`; each would index out of bounds or compute something
/// other than what the interpreter and the HLS lowering agree on.
#[test]
fn tensor_ops_that_no_reader_can_run_fail_verification() {
    let cases = [
        (
            "%2 = tensor.reduce %0 {dims = [7], kind = \"sum\"} : tensor<4xf64>",
            "tensor.reduce",
            "dim 7 is out of range for rank 2",
        ),
        (
            "%2 = tensor.reduce %0 {dims = [1, 1], kind = \"sum\"} : tensor<4xf64>",
            "tensor.reduce",
            "dim 1 is listed twice",
        ),
        (
            "%2 = tensor.reduce %0 {dims = [1], kind = \"median\"} : tensor<4xf64>",
            "tensor.reduce",
            "kind \"median\" is not sum, max, min or mean",
        ),
        (
            "%2 = tensor.transpose %0 {perm = [5, 0]} : tensor<6x4xf64>",
            "tensor.transpose",
            "perm [5, 0] is not a permutation of the 2 dimensions",
        ),
        (
            "%2 = tensor.stencil %0 {weights = [0.5, 0.5]} : tensor<4x6xf64>",
            "tensor.stencil",
            "width 2 is not odd",
        ),
        (
            "%2 = tensor.stencil %0 {weights = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]} \
             : tensor<4x6xf64>",
            "tensor.stencil",
            "width 9 is wider than the last dimension 6",
        ),
        (
            "%2 = tensor.conv2d %0, %1 : tensor<4x6xf64>",
            "tensor.conv2d",
            "kernel [5, 5] is larger than the input [4, 6]",
        ),
        (
            "%2 = tensor.relu %0 : tensor<3xf64>",
            "tensor.relu",
            "declares tensor<3xf64> but computes tensor<4x6xf64>",
        ),
    ];
    for (i, (op, name, reason)) in cases.iter().enumerate() {
        let ret = op.rsplit(" : ").next().unwrap();
        let source = format!(
            "module @m {{\n  func @f(%0: tensor<4x6xf64>, %1: tensor<5x5xf64>) -> ({ret}) {{\n    \
             {op}\n    func.return %2\n  }}\n}}\n"
        );
        let (_, stdout, stderr, code) = check_text(&format!("tensor_op_{i}.eir"), &source);
        let want =
            format!("error: verification failed: in @f: at ^bb0 op 0 ({name}): {name}: {reason}\n");
        assert_eq!((stdout.as_str(), stderr.as_str(), code), ("", want.as_str(), 1), "{op}");
    }
}

/// Intrinsic lists that once passed the checker and were then cast or
/// folded into some other program.
#[test]
fn intrinsic_lists_that_are_not_dimension_indices_are_type_errors() {
    let cases = [
        ("reduce_sum(x, [1, 1])", "tensor<4xf64>", "'reduce_sum': dim 1 is listed twice"),
        (
            "reduce_sum(x, [-1])",
            "tensor<4xf64>",
            "'reduce_sum': list entry -1 is not a dimension index",
        ),
        (
            "transpose(x, [1.7, 0.2])",
            "tensor<6x4xf64>",
            "'transpose': list entry 1.7 is not a dimension index",
        ),
    ];
    for (i, (call, ret, reason)) in cases.iter().enumerate() {
        let source = format!("kernel f(x: tensor<4x6xf64>) -> {ret} {{\n    return {call};\n}}\n");
        let (_, stdout, stderr, code) = check_text(&format!("list_{i}.edsl"), &source);
        let want = format!("error: type error at line 2: {reason}\n");
        assert_eq!((stdout.as_str(), stderr.as_str(), code), ("", want.as_str(), 1), "{call}");
    }
}
