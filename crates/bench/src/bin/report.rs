//! Prints the E1–E16 experiment report.
//!
//! Run with: `cargo run -p everest-bench --bin report`. Stdout is exact and
//! equals `crates/bench/tests/golden/report.txt` in any build profile;
//! stderr carries the wall-clock cells of E8/E11/E13 (use `--release` for
//! representative numbers).

fn main() {
    print!("{}", everest_bench::experiments::full_report());
    eprint!("{}", everest_bench::experiments::timings());
}
