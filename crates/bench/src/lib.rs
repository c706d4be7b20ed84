//! # everest-bench — the experiment harness
//!
//! The EVEREST paper (DATE 2021) is a project-overview paper without
//! quantitative tables; its four figures are architecture diagrams and its
//! Section VI-D lists claimed benefits. This crate turns **every figure
//! and every claim into an executable experiment** (E1–E16, indexed in
//! `DESIGN.md`):
//!
//! * the `report` binary (`cargo run -p everest-bench --bin report`)
//!   prints every experiment table on stdout, byte for byte the committed
//!   `tests/golden/report.txt`, and the wall-clock cells (E8/E11/E13) on
//!   stderr; `EXPERIMENTS.md` records the paper-claim vs. measured
//!   comparison;
//! * the benches under `benches/` (DSE, PTDR, offload, SIMD kernels, the
//!   serving tier) each write a tracked `BENCH_*.json` that the
//!   `bench_diff` binary gates.

pub mod diff;
pub mod experiments;
pub(crate) mod table;
