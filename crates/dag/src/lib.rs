//! # pcaps-dag — job DAG model for data processing clusters
//!
//! Data processing frameworks such as Apache Spark represent each job as a
//! directed acyclic graph (DAG) of *stages*.  Each stage encapsulates a set of
//! *tasks* that can execute in parallel over partitions of input data, and an
//! edge `u -> v` means stage `v` cannot start until stage `u` has completed
//! (all of its tasks have finished).
//!
//! This crate provides the job model shared by every other crate in the
//! workspace:
//!
//! * [`Task`], [`Stage`], [`JobDag`] — the static description of a job,
//! * [`JobDagBuilder`] — validated construction (rejects cycles, dangling
//!   edges, empty stages),
//! * [`analysis`] — critical path, bottom/top levels, work, width and other
//!   graph measures used by schedulers,
//! * [`frontier`] — incremental tracking of which stages are runnable as
//!   upstream stages complete,
//! * [`JobState`](frontier::JobProgress) style progress helpers used by the
//!   simulator,
//! * [`SubmittedJob`] — a job with its arrival time, the one job type that
//!   workload generators yield and the simulator consumes.
//!
//! All durations are in (simulated) seconds and carried as `f64`.  The model
//! is deliberately free of any scheduling or carbon logic so that baselines
//! and carbon-aware schedulers operate on exactly the same representation.
//!
//! ## Example
//!
//! ```
//! use pcaps_dag::{JobDagBuilder, Task};
//!
//! // A three-stage "map -> shuffle -> reduce" job.
//! let job = JobDagBuilder::new("example")
//!     .stage("map", vec![Task::new(10.0); 8])
//!     .stage("shuffle", vec![Task::new(5.0); 4])
//!     .stage("reduce", vec![Task::new(20.0)])
//!     .edge_by_name("map", "shuffle").unwrap()
//!     .edge_by_name("shuffle", "reduce").unwrap()
//!     .build()
//!     .unwrap();
//!
//! assert_eq!(job.num_stages(), 3);
//! assert!(job.total_work() > 0.0);
//! // The reduce stage is runnable only after the other two complete.
//! let roots = job.source_stages();
//! assert_eq!(roots.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod error;
pub mod frontier;
pub mod graph;
pub mod ids;
pub mod job;
pub mod stage;
pub mod submitted;
pub mod task;

pub use builder::JobDagBuilder;
pub use error::DagError;
pub use frontier::{Frontier, JobProgress};
pub use graph::Adjacency;
pub use ids::{JobId, StageId, TaskId};
pub use job::JobDag;
pub use stage::Stage;
pub use submitted::{SubmittedJob, DEFAULT_DATA_GB_PER_WORK_SECOND};
pub use task::Task;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DagError>;
