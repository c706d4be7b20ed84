//! End-to-end check of `everestc serve`: the admit/shed/latency table is
//! a pure function of the seed and the topology, so it must be byte-
//! identical at any `--jobs` count; every serve flag parses; bad values
//! exit 1 and malformed command lines exit 2 with the usage text.

use std::process::{Command, Output};

/// A small sweep: three offered-load points of 0.05 virtual seconds each.
const SMALL: [&str; 5] = ["serve", "--duration", "0.05", "--queries", "3000"];

fn everestc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_everestc")).args(args).output().expect("everestc runs")
}

/// Stdout minus the header line (the only line that mentions `jobs=`).
fn table_of(out: &Output) -> String {
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().filter(|l| !l.starts_with("serve tier:")).collect::<Vec<_>>().join("\n")
}

#[test]
fn table_is_byte_identical_at_any_jobs_count() {
    let tables: Vec<String> = ["1", "2", "4"]
        .iter()
        .map(|jobs| table_of(&everestc(&[&SMALL[..], &["--jobs", jobs]].concat())))
        .collect();
    assert!(tables[0].contains("calibrated capacity"), "{}", tables[0]);
    assert_eq!(tables[0].lines().count(), 5, "capacity, column header, three load points");
    assert_eq!(tables[0], tables[1], "--jobs 1 and --jobs 2 differ");
    assert_eq!(tables[0], tables[2], "--jobs 1 and --jobs 4 differ");
}

#[test]
fn seed_and_policy_are_accepted_and_take_effect() {
    let base = table_of(&everestc(&SMALL));
    let reseeded = everestc(&[&SMALL[..], &["--seed", "3"]].concat());
    assert_ne!(table_of(&reseeded), base, "--seed must steer the load generator");

    let out = everestc(&[&SMALL[..], &["--policy", "shed-oldest", "--queue-depth", "8"]].concat());
    table_of(&out);
    let header = String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or_default().to_owned();
    assert!(header.contains("queue depth 8 (shed-oldest)"), "{header}");
}

#[test]
fn bad_values_exit_one() {
    for bad in [["--policy", "bogus"], ["--duration", "0"], ["--shards", "0"]] {
        let out = everestc(&[&["serve"][..], &bad].concat());
        assert_eq!(out.status.code(), Some(1), "{bad:?} must exit 1");
        assert!(String::from_utf8_lossy(&out.stderr).contains(bad[1]), "{bad:?} not named");
    }
}

#[test]
fn malformed_command_lines_exit_two_with_usage() {
    for bad in [&["stray"][..], &["--frobnicate"], &["--seed", "1", "--seed", "2"]] {
        let out = everestc(&[&SMALL[..], bad].concat());
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bad:?}");
    }
}
