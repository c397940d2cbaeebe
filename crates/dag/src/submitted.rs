//! A job together with its arrival time: what workload generators yield
//! and what the simulator consumes.

use crate::job::JobDag;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default job data footprint per executor-second of work, in GB: 0.01 GB/s
/// models a compute-heavy analytics job (100 executor-seconds of work per
/// gigabyte of input).  Used by [`SubmittedJob::at`] when no explicit size
/// is given; override with [`SubmittedJob::with_data_gb`].
pub const DEFAULT_DATA_GB_PER_WORK_SECOND: f64 = 0.01;

/// A job together with its arrival time — one element of the workload handed
/// to the simulator.
///
/// The DAG is held behind an [`Arc`] so that activating a job (and running
/// the same workload repeatedly under different schedulers) shares the
/// stage/task tables instead of deep-cloning them per run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmittedJob {
    /// Arrival time (schedule seconds).
    pub arrival: f64,
    /// The job DAG (shared, immutable).
    pub dag: Arc<JobDag>,
    /// Size of the job's input data set in gigabytes — what a cross-region
    /// migration has to move (scaled down by the fraction of work already
    /// done; see the `TransferMatrix` docs in `pcaps_cluster::routing`).
    /// Defaults to [`DEFAULT_DATA_GB_PER_WORK_SECOND`] × the DAG's total
    /// work.
    pub data_gb: f64,
}

impl SubmittedJob {
    /// Submits `dag` at time `arrival`.  Accepts an owned [`JobDag`] or an
    /// already shared `Arc<JobDag>`.  The data size defaults to
    /// [`DEFAULT_DATA_GB_PER_WORK_SECOND`] × total work; override it with
    /// [`SubmittedJob::with_data_gb`].
    pub fn at(arrival: f64, dag: impl Into<Arc<JobDag>>) -> Self {
        assert!(
            arrival.is_finite() && arrival >= 0.0,
            "arrival time must be finite and non-negative"
        );
        let dag = dag.into();
        let data_gb = dag.total_work() * DEFAULT_DATA_GB_PER_WORK_SECOND;
        SubmittedJob { arrival, dag, data_gb }
    }

    /// Overrides the job's input data size (GB).
    ///
    /// # Panics
    /// Panics if `gb` is negative or not finite.
    pub fn with_data_gb(mut self, gb: f64) -> Self {
        assert!(gb >= 0.0 && gb.is_finite(), "data size must be non-negative and finite");
        self.data_gb = gb;
        self
    }
}
