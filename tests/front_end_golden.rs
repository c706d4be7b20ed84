//! Pins the workflow front end's outputs byte for byte: `everestc
//! workflow`, `fuse` and `check` on the shipped examples, plus the `Debug`
//! of the task graph `task_graph_from_workflow` builds from
//! `examples/pipeline.ewf`. Each command runs from the workspace root with
//! relative paths, so the file holds no machine path.
//! `EVEREST_BLESS=1 cargo test --test front_end_golden` rewrites
//! `tests/golden/front_end.txt`.

use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/front_end.txt");

const RUNS: &[&[&str]] = &[
    &["workflow", "examples/pipeline.ewf"],
    &["fuse", "--format", "json", "examples/pipeline.ewf"],
    &["fuse", "--explain", "examples/pipeline.ewf", "examples/cascade.edsl"],
    &["fuse", "--format", "json", "examples/lints/fusion_alias.ewf"],
    &["check", "--format", "json", "examples/lints/race.ewf"],
    &[
        "check",
        "--format",
        "json",
        "examples/kernels.edsl",
        "examples/cascade.edsl",
        "examples/pipeline.ewf",
    ],
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn front_end_outputs_match_the_golden_file_byte_for_byte() {
    let mut text = String::new();
    for args in RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_everestc"))
            .current_dir(root())
            .args(*args)
            .output()
            .expect("everestc runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        text.push_str(&format!("== everestc {}\n", args.join(" ")));
        text.push_str(&stdout);
        text.push_str(&format!("-- exit {}\n", out.status.code().expect("exit code")));
    }
    let source = std::fs::read_to_string(root().join("examples/pipeline.ewf")).unwrap();
    let spec = everest_dsl::WorkflowSpec::parse(&source).unwrap();
    let graph =
        everest::task_graph_from_workflow(&spec, |n| (100.0 * n.len() as f64, n.len() as u64));
    text.push_str(&format!("== task_graph_from_workflow examples/pipeline.ewf\n{graph:#?}\n"));
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(GOLDEN, &text).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden front-end text is committed");
    assert_eq!(text, golden, "a front-end output moved; see {GOLDEN}");
}
