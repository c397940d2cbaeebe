//! Per-job runtime state and completion records.
//!
//! The submitted form of a job, [`SubmittedJob`], lives in `pcaps_dag` —
//! workload generators yield it and the engine pulls it, so both sides
//! share one type — and is re-exported here at its historical path.

use crate::error::SimError;
use pcaps_dag::{JobDag, JobId, JobProgress, StageId};
pub use pcaps_dag::{SubmittedJob, DEFAULT_DATA_GB_PER_WORK_SECOND};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Rejects an arrival time that [`SubmittedJob::at`] would have refused.
/// The field is public, so a struct literal can bypass that assert.  A NaN
/// arrival has no place in the arrival order, a negative one precedes the
/// start of the schedule, and an infinite one never comes.
pub(crate) fn check_arrival(job: &SubmittedJob) -> Result<(), SimError> {
    if job.arrival.is_finite() && job.arrival >= 0.0 {
        return Ok(());
    }
    Err(SimError::InvalidJob {
        job: job.dag.name.clone(),
        reason: format!(
            "arrival time must be finite and non-negative, got {} s",
            job.arrival
        ),
    })
}

/// Rejects a data size that [`SubmittedJob::with_data_gb`] would have
/// refused.  The field is public, so a struct literal can bypass that
/// assert.  A NaN or infinite size has no finite transfer time, and a
/// negative one would arrive before it departed.
pub(crate) fn check_data_gb(job: &SubmittedJob) -> Result<(), SimError> {
    if job.data_gb >= 0.0 && job.data_gb.is_finite() {
        return Ok(());
    }
    Err(SimError::InvalidJob {
        job: job.dag.name.clone(),
        reason: format!(
            "data size must be non-negative and finite, got {} GB",
            job.data_gb
        ),
    })
}

/// Runtime state of a job once it has arrived at the cluster.
#[derive(Debug, Clone)]
pub struct ActiveJob {
    /// The job's id (its index in the workload).
    pub id: JobId,
    /// The static DAG (shared with the submitted workload).
    pub dag: Arc<JobDag>,
    /// Task-level progress.
    pub progress: JobProgress,
    /// Arrival time.
    pub arrival: f64,
    /// Completion time, set when the last task finishes.
    pub completion: Option<f64>,
    /// Time the job's *first* task was dispatched (`None` while it is still
    /// queued).  `first_start - arrival` is the job's queueing delay, the
    /// steady-state serving mode's figure of merit.  Set once and carried
    /// through migrations and crash refunds — a retry re-dispatch does not
    /// reset it.
    pub first_start: Option<f64>,
    /// Number of executors currently running tasks of this job.
    pub busy_executors: usize,
    /// Executor-seconds of task work dispatched so far (excluding executor
    /// movement delays).
    pub executor_seconds: f64,
    /// The job's declared input data size (GB), carried over from its
    /// [`SubmittedJob`] so migration pricing needs no lookup into a
    /// materialized workload — under streaming intake the submitted form is
    /// dropped once the job is activated.
    pub data_gb: f64,
    /// Tasks of this job currently in retry backoff after an executor crash
    /// (failed, not yet released for re-dispatch).  A job with cooling-down
    /// tasks cannot migrate — the retry timer is anchored to its member.
    /// Always 0 on fault-free runs.
    pub retrying: usize,
    /// Per-task failure counters, sparse: `(stage, task, failures)` entries
    /// exist only for tasks that have crashed at least once, so fault-free
    /// jobs carry an empty (unallocated) vector.
    pub attempts: Vec<(StageId, u32, u32)>,
    /// Drain-then-move destination: `Some(member)` while the job is
    /// draining toward a migration.  A draining job dispatches no new tasks
    /// (assignments for it are forgiven no-ops); once its last running or
    /// retrying task resolves, the engine detaches it and starts the
    /// transfer to this member.  A later drain verb overwrites the
    /// destination (last one wins).  `None` for non-draining jobs.
    pub draining: Option<u32>,
}

impl ActiveJob {
    /// Creates runtime state for a job arriving at `arrival`.  Cloning the
    /// `Arc` is a reference-count bump, not a deep copy of the DAG.  The
    /// data size defaults to the [`SubmittedJob::at`] derivation — this
    /// constructor is for hand-assembled harnesses; the engine activates
    /// jobs through [`ActiveJob::from_submitted`], which carries the
    /// declared size without recomputing the default.
    pub fn new(id: JobId, dag: Arc<JobDag>, arrival: f64) -> Self {
        let data_gb = dag.total_work() * DEFAULT_DATA_GB_PER_WORK_SECOND;
        let progress = JobProgress::new(&dag);
        ActiveJob {
            id,
            dag,
            progress,
            arrival,
            completion: None,
            first_start: None,
            busy_executors: 0,
            executor_seconds: 0.0,
            data_gb,
            retrying: 0,
            attempts: Vec::new(),
            draining: None,
        }
    }

    /// Activates a submitted job, consuming it: the DAG moves (no refcount
    /// churn) and the declared `data_gb` travels with the job — no
    /// per-activation work traversal.
    pub fn from_submitted(id: JobId, job: SubmittedJob) -> Self {
        let progress = JobProgress::new(&job.dag);
        ActiveJob {
            id,
            dag: job.dag,
            progress,
            arrival: job.arrival,
            completion: None,
            first_start: None,
            busy_executors: 0,
            executor_seconds: 0.0,
            data_gb: job.data_gb,
            retrying: 0,
            attempts: Vec::new(),
            draining: None,
        }
    }

    /// True once every stage has completed.
    pub fn is_complete(&self) -> bool {
        self.completion.is_some()
    }

    /// Records one more failure of `(stage, task)` and returns the task's
    /// total failure count (1-based).  O(task's failed siblings): the
    /// counter table is sparse and empty until a task actually crashes.
    pub fn record_failure(&mut self, stage: StageId, task: usize) -> u32 {
        let task = task as u32;
        for entry in &mut self.attempts {
            if entry.0 == stage && entry.1 == task {
                entry.2 += 1;
                return entry.2;
            }
        }
        self.attempts.push((stage, task, 1));
        1
    }
}

/// Completion record for one job, used to compute JCT and per-job carbon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// The job's name (from the DAG).
    pub name: String,
    /// Arrival time (schedule seconds).
    pub arrival: f64,
    /// Completion time (schedule seconds).
    pub completion: f64,
    /// Time the job's first task was dispatched (schedule seconds).  Equals
    /// `completion` in the degenerate case of a job that completed without
    /// dispatching (impossible for validated DAGs, but the record stays
    /// total).
    pub first_start: f64,
    /// Total executor-seconds consumed by the job's tasks (excluding
    /// movement delays).
    pub executor_seconds: f64,
    /// Total work of the job as described by its DAG.
    pub total_work: f64,
    /// Number of stages in the job.
    pub num_stages: usize,
}

impl JobRecord {
    /// Job completion time: completion minus arrival.
    pub fn jct(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Queueing delay: how long the job waited before its first task was
    /// dispatched.
    pub fn queue_delay(&self) -> f64 {
        self.first_start - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_dag::{JobDagBuilder, Task};

    fn dag() -> JobDag {
        JobDagBuilder::new("j")
            .stage("a", vec![Task::new(1.0)])
            .build()
            .unwrap()
    }

    #[test]
    fn submitted_job_holds_arrival() {
        let s = SubmittedJob::at(12.0, dag());
        assert_eq!(s.arrival, 12.0);
        assert_eq!(s.dag.name, "j");
        // Default data size derives from the DAG's total work (1.0 s here).
        assert!((s.data_gb - DEFAULT_DATA_GB_PER_WORK_SECOND).abs() < 1e-12);
        let sized = s.with_data_gb(7.5);
        assert_eq!(sized.data_gb, 7.5);
    }

    #[test]
    #[should_panic(expected = "data size")]
    fn negative_data_size_rejected() {
        let _ = SubmittedJob::at(0.0, dag()).with_data_gb(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_arrival_rejected() {
        let _ = SubmittedJob::at(-1.0, dag());
    }

    #[test]
    fn active_job_lifecycle() {
        let mut a = ActiveJob::new(JobId(0), Arc::new(dag()), 3.0);
        assert!(!a.is_complete());
        a.completion = Some(10.0);
        assert!(a.is_complete());
    }

    #[test]
    fn failure_counters_are_sparse_and_per_task() {
        let mut a = ActiveJob::new(JobId(0), Arc::new(dag()), 0.0);
        assert!(a.attempts.is_empty(), "fault-free jobs allocate no counters");
        assert_eq!(a.record_failure(StageId(0), 0), 1);
        assert_eq!(a.record_failure(StageId(0), 0), 2);
        assert_eq!(a.record_failure(StageId(0), 1), 1, "counters are per task");
        assert_eq!(a.record_failure(StageId(0), 0), 3);
        assert_eq!(a.attempts.len(), 2);
    }

    #[test]
    fn record_jct() {
        let r = JobRecord {
            id: JobId(1),
            name: "x".into(),
            arrival: 5.0,
            completion: 30.0,
            first_start: 8.0,
            executor_seconds: 12.0,
            total_work: 12.0,
            num_stages: 3,
        };
        assert_eq!(r.jct(), 25.0);
        assert_eq!(r.queue_delay(), 3.0);
    }
}
