//! # everest-apps — the three EVEREST industrial use cases
//!
//! The project drives its research with three HPDA applications (paper
//! Section VI). The real deployments consume proprietary data (NWP
//! ensembles, Plum'air emissions, Sygic floating-car data); this crate
//! substitutes statistically-shaped synthetic generators so every
//! experiment is reproducible on a laptop:
//!
//! * [`weather`] — **renewable-energy prediction** (VI-A): synthetic NWP
//!   ensembles on coarse grids, downscaling, a wind-farm power curve and an
//!   MLP regressor, with the day-ahead imbalance-cost model the use case
//!   optimizes;
//! * [`airquality`] — **industrial air-quality monitoring** (VI-B):
//!   Gaussian-plume dispersion of point sources over a ≤10 km domain with
//!   exceedance detection for production-delay decisions;
//! * [`traffic`] — **intelligent transportation** (VI-C): synthetic road
//!   networks, floating-car-data generation, speed-profile learning,
//!   probabilistic time-dependent routing (PTDR, ref \[37\]) by Monte-Carlo
//!   sampling, and a macroscopic traffic simulator with O/D demand;
//! * [`micro`] — the microscopic half of VI-C: the Intelligent Driver
//!   Model on a ring road and its fundamental diagram;
//! * [`mlp`] — a small from-scratch neural network shared by the use
//!   cases;
//! * [`synthetic`] — seeded smooth-field and time-series generators.

// Index arithmetic over flat buffers (strided weights, grids) reads better
// as explicit loops than as iterator chains here.
#![allow(clippy::needless_range_loop)]

pub mod airquality;
pub mod micro;
pub mod mlp;
pub mod synthetic;
pub mod traffic;
pub mod weather;
