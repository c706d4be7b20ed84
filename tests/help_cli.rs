//! Pins `everestc help` byte for byte. The text is generated from the
//! flag table the parser reads, so a changed flag, default or help text
//! shows up in review as a diff of `tests/golden/everestc_help.txt`
//! (`EVEREST_BLESS=1 cargo test --test help_cli` rewrites it). The same
//! table is the parser's: a flag no row declares is a usage error for
//! every command.

use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/everestc_help.txt");

fn everestc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_everestc"))
}

#[test]
fn help_matches_the_golden_file_byte_for_byte() {
    let out = everestc().arg("help").output().expect("everestc runs");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(GOLDEN, &help).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden help text is committed");
    assert_eq!(help, golden, "everestc help moved; see {GOLDEN}");
}

#[test]
fn every_command_refuses_an_undeclared_flag_with_usage() {
    let commands = [
        "ir", "variants", "rtl", "workflow", "check", "fuse", "profile", "dataset", "route",
        "offload", "serve", "stats",
    ];
    for command in commands {
        let out = everestc().args([command, "--undeclared", "x"]).output().expect("everestc runs");
        assert_eq!(out.status.code(), Some(2), "{command} --undeclared must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option '--undeclared'"), "{command}: {stderr}");
        assert!(stderr.contains("usage:"), "{command}: {stderr}");
    }
}
