//! # everest-workflow — the workflow execution platform
//!
//! EVEREST "will feature a scalable platform based on HyperLoom for
//! describing and executing complex workflows in large scale distributed
//! environments" (paper III-A, ref \[10\]). This crate is that substrate:
//!
//! * [`graph`] — task DAGs with costs, output sizes and dependency edges,
//!   plus generators for the canonical wide/deep/diamond/random topologies;
//! * [`worker`] — heterogeneous worker descriptions (speed factor + link);
//! * [`scheduler`] — FIFO, min-load and HEFT schedulers;
//! * [`exec`] — a deterministic distributed-execution simulator producing
//!   makespans, schedules and utilization;
//! * [`parallel`] — a real multi-threaded executor that runs closures as
//!   tasks with dependency-ordered hand-off, on the pool's workers;
//! * [`pool`] — the process-wide pool of parked workers and its
//!   parallel-map over independent items with index-stable result order
//!   (every fan-out in the workspace runs on it);
//! * [`race`] — a static detector for read-write/write-write dataset
//!   conflicts between tasks with no ordering edge;
//! * [`seed`] — the shared hashing/mixing primitives and the
//!   stream-derivation rules every seeded layer follows;
//! * [`fuse`] — the stream-fusion legality classifier: every dataset edge
//!   gets a fusable/must-spill/racy verdict with a machine-checkable proof
//!   ([`fuse::FusionPlan`]), the contract the P2P transport layer consumes.
//!
//! ## Example
//!
//! ```
//! use everest_workflow::graph::TaskGraph;
//! use everest_workflow::worker::Worker;
//! use everest_workflow::scheduler::Policy;
//! use everest_workflow::exec::simulate;
//!
//! let mut g = TaskGraph::new("demo");
//! let a = g.add_task("load", 100.0, 1_000, &[]);
//! let b = g.add_task("clean", 200.0, 1_000, &[a]);
//! let _ = g.add_task("predict", 400.0, 100, &[b]);
//! let workers = Worker::uniform_pool(4, 1.0);
//! let run = simulate(&g, &workers, Policy::Heft).unwrap();
//! assert!(run.makespan_us >= 700.0);
//! ```

pub mod error;
pub mod exec;
pub mod fuse;
pub mod graph;
pub mod parallel;
pub mod pool;
pub mod race;
pub mod scheduler;
pub mod seed;
pub mod worker;

pub use error::{WorkflowError, WorkflowResult};
pub use exec::{simulate, simulate_available, RunReport};
pub use fuse::{
    classify, DataEdge, EdgeClass, EdgeEnd, EndpointRole, FusionEdge, FusionPlan,
    FUSION_SCHEMA_VERSION,
};
pub use graph::{TaskGraph, TaskId, TaskSpec};
pub use race::{
    canonical_pair, detect_races, ordering_evidence, OrderingEvidence, Race, RaceKind, TaskAccess,
};
pub use scheduler::Policy;
pub use worker::Worker;
