//! Pins the E1–E16 report (`report`'s stdout) byte for byte. Every cell
//! of `full_report` is a function of the code — seeded inputs, virtual
//! time — so a moved cell means an experiment's model or input changed;
//! the wall-clock cells live in `timings` and are not pinned. Re-bless
//! (`EVEREST_BLESS=1 cargo test -p everest-bench --test report_golden`)
//! only in a commit that changes nothing else and says which rows moved.

use everest_bench::experiments::full_report;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.txt");

#[test]
fn report_reproduces_the_golden_file_byte_for_byte() {
    let rendered = full_report();
    if std::env::var_os("EVEREST_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("golden file is writable");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden report is committed");
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "report line {} moved; see {GOLDEN}", line + 1);
    }
    assert_eq!(rendered, golden, "report length moved; see {GOLDEN}");
}
