//! Simulator error type.

use pcaps_dag::{JobId, StageId};
use std::fmt;

/// What a run had accomplished when it was cut short — attached to
/// [`SimError::TimeLimitExceeded`] so long-running sweeps can *report* a
/// truncated trial instead of discarding it.
///
/// All figures are totals over the federation at the moment the limit was
/// crossed.  `accrued_carbon_grams` is computed from each member's usage
/// profile against its own trace, so under
/// [`ProfileMode::Light`](crate::config::ProfileMode) (which records no
/// usage samples) it is 0.0.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialRunSummary {
    /// Jobs that completed before the limit, ascending by id.
    pub completed_jobs: Vec<JobId>,
    /// Jobs that had arrived (or were in transit) but not completed,
    /// ascending by id.  Jobs the source had not yet yielded are not
    /// listed.
    pub incomplete_jobs: Vec<JobId>,
    /// Executor-seconds of task work dispatched before the limit, including
    /// in-flight (pre-charged) tasks of incomplete jobs.
    pub elapsed_executor_seconds: f64,
    /// Carbon accrued by executor usage up to the limit (grams CO₂eq);
    /// 0.0 under `ProfileMode::Light`.
    pub accrued_carbon_grams: f64,
}

/// Errors that can abort a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The workload list is empty — there is nothing to simulate.
    EmptyWorkload,
    /// A submitted job failed validation: its DAG, arrival time or data
    /// size is malformed.
    InvalidJob {
        /// Name of the offending job.
        job: String,
        /// The validation failure message.
        reason: String,
    },
    /// The simulation exceeded `max_sim_time` without completing all jobs.
    /// Possible causes are a policy that never dispatches, an outage that
    /// never ends, or a task or executor-move delay that ends past the
    /// limit.  `partial` summarises what the run had accomplished so sweeps
    /// can report instead of aborting.
    TimeLimitExceeded {
        /// The configured limit (schedule seconds).
        limit: f64,
        /// Number of jobs that had not completed (counting jobs the source
        /// had not yet yielded, unlike `partial.incomplete_jobs`).
        incomplete_jobs: usize,
        /// What completed, what did not, and what the run had consumed.
        partial: Box<PartialRunSummary>,
    },
    /// Internal invariant violation (a bug in the engine or a scheduler that
    /// returned an assignment for a non-existent job/stage).
    InvalidAssignment {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A router placed a job on a member cluster that does not exist.
    InvalidRoute {
        /// The job being routed.
        job: String,
        /// The member index the router returned.
        member: usize,
        /// How many members the federation actually has.
        members: usize,
    },
    /// A streaming arrival source yielded a job whose arrival time is
    /// earlier than a job it already yielded, violating the
    /// ascending-arrival contract of
    /// [`ArrivalSource`](crate::source::ArrivalSource) (materialized
    /// workloads are sorted at construction and cannot trip this).
    OutOfOrderArrival {
        /// Name of the out-of-order job.
        job: String,
        /// The offending arrival time.
        arrival: f64,
        /// The latest arrival time the source had yielded before it.
        previous: f64,
    },
    /// A migration policy emitted a verb the engine cannot apply: the
    /// destination member does not exist, the job has running tasks on its
    /// source member, is already in transit, or has not arrived yet.
    /// (Migrating a *completed* job is a harmless no-op, matching the
    /// historical semantics of stale assignments.)
    InvalidMigration {
        /// The job being migrated.
        job: String,
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A fault schedule referenced a member or executor that does not exist
    /// in the federation it was attached to.
    InvalidFault {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A member's [`ClusterConfig`](crate::config::ClusterConfig) holds a
    /// value its builder methods refuse (its fields are public, so a struct
    /// literal can bypass them).  Reported by every run entry point, like
    /// [`SimError::InvalidJob`] found at construction.
    InvalidConfig {
        /// Label of the offending member.
        member: String,
        /// Which field is malformed, and its value.
        reason: String,
    },
    /// A transfer matrix or network topology does not fit the federation it
    /// was attached to (wrong member dimension), so its pair lookups would
    /// misprice or panic deep inside the engine.  Reported on the first
    /// `run_*` call, like [`SimError::InvalidFault`].
    InvalidTopology {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A serve-session snapshot cannot be installed: the engine shape or
    /// source position does not line up with what the snapshot captured
    /// (a different member count, executor-pool size or network link count,
    /// a source that drained before reaching the snapshot's pull position,
    /// or a session that already pulled past it).
    SnapshotMismatch {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A task crashed [`RetryPolicy::max_attempts`] times — the workload
    /// cannot complete under the configured fault plan.
    ///
    /// [`RetryPolicy::max_attempts`]: crate::faults::RetryPolicy::max_attempts
    RetriesExhausted {
        /// Name of the job whose task kept failing.
        job: String,
        /// The stage the task belongs to.
        stage: StageId,
        /// The task's index within the stage.
        task: usize,
        /// How many times it failed (equals the policy's `max_attempts`).
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyWorkload => write!(f, "workload contains no jobs"),
            SimError::InvalidJob { job, reason } => {
                write!(f, "job {job:?} failed validation: {reason}")
            }
            SimError::TimeLimitExceeded { limit, incomplete_jobs, partial } => write!(
                f,
                "simulation exceeded the time limit of {limit} s with {incomplete_jobs} incomplete job(s) \
                 ({} completed, {:.1} executor-seconds dispatched); possible causes: a policy that \
                 never dispatches, an outage that never ends, or a task or move delay that ends \
                 past the limit",
                partial.completed_jobs.len(),
                partial.elapsed_executor_seconds,
            ),
            SimError::InvalidAssignment { reason } => {
                write!(f, "scheduler returned an invalid assignment: {reason}")
            }
            SimError::InvalidRoute { job, member, members } => write!(
                f,
                "router placed {job} on member {member}, but the federation only has {members} member cluster(s)"
            ),
            SimError::OutOfOrderArrival { job, arrival, previous } => write!(
                f,
                "arrival source yielded job {job:?} at time {arrival} after a job at time {previous}; \
                 sources must yield jobs in non-decreasing arrival order"
            ),
            SimError::InvalidMigration { job, reason } => {
                write!(f, "migration policy emitted an invalid move of {job}: {reason}")
            }
            SimError::InvalidFault { reason } => {
                write!(f, "fault schedule is invalid for this federation: {reason}")
            }
            SimError::InvalidConfig { member, reason } => {
                write!(f, "member {member:?} has an invalid cluster configuration: {reason}")
            }
            SimError::InvalidTopology { reason } => {
                write!(f, "transfer topology is invalid for this federation: {reason}")
            }
            SimError::SnapshotMismatch { reason } => {
                write!(f, "snapshot cannot be restored into this session: {reason}")
            }
            SimError::RetriesExhausted { job, stage, task, attempts } => write!(
                f,
                "task {task} of {stage} of job {job:?} failed {attempts} time(s), exhausting the retry policy"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SimError::EmptyWorkload.to_string().contains("no jobs"));
        let limited = SimError::TimeLimitExceeded {
            limit: 10.0,
            incomplete_jobs: 3,
            partial: Box::new(PartialRunSummary {
                completed_jobs: vec![JobId(0), JobId(2)],
                incomplete_jobs: vec![JobId(1)],
                elapsed_executor_seconds: 42.5,
                accrued_carbon_grams: 7.0,
            }),
        };
        assert!(limited.to_string().contains("3 incomplete"));
        assert!(limited.to_string().contains("2 completed"));
        assert!(limited.to_string().contains("42.5 executor-seconds"));
        // A move delay past the limit: the policy dispatched everything at
        // once, so the message lists causes instead of blaming it.
        let delayed = SimError::TimeLimitExceeded {
            limit: 1e9,
            incomplete_jobs: 3,
            partial: Box::new(PartialRunSummary {
                completed_jobs: vec![],
                incomplete_jobs: vec![JobId(0), JobId(1), JobId(2)],
                elapsed_executor_seconds: 9.2,
                accrued_carbon_grams: 0.0,
            }),
        }
        .to_string();
        assert!(
            delayed.contains("0 completed, 9.2 executor-seconds dispatched"),
            "{delayed}"
        );
        for cause in ["never dispatches", "outage that never ends", "move delay"] {
            assert!(delayed.contains(cause), "{cause}: {delayed}");
        }
        assert!(!delayed.contains("appears to defer"), "{delayed}");
        assert!(SimError::InvalidJob { job: "x".into(), reason: "cycle".into() }
            .to_string()
            .contains("cycle"));
        assert!(SimError::InvalidAssignment { reason: "bad stage".into() }
            .to_string()
            .contains("bad stage"));
        assert!(SimError::InvalidRoute { job: "job 3".into(), member: 9, members: 2 }
            .to_string()
            .contains("member 9"));
        let unsorted = SimError::OutOfOrderArrival {
            job: "late".into(),
            arrival: 3.0,
            previous: 7.0,
        };
        assert!(unsorted.to_string().contains("non-decreasing"));
        assert!(unsorted.to_string().contains("late"));
        let migration = SimError::InvalidMigration {
            job: "job 4".into(),
            reason: "member 7 does not exist (the federation has 2 members)".into(),
        };
        assert!(migration.to_string().contains("job 4"));
        assert!(migration.to_string().contains("member 7"));
        let fault = SimError::InvalidFault {
            reason: "injection targets member 5 of a 2-member federation".into(),
        };
        assert!(fault.to_string().contains("member 5"));
        let config = SimError::InvalidConfig {
            member: "DE".into(),
            reason: "time_scale must be positive and finite, got 0".into(),
        };
        assert!(config.to_string().contains("\"DE\""));
        assert!(config.to_string().contains("time_scale"));
        let topology = SimError::InvalidTopology {
            reason: "the transfer matrix covers 4 member(s), this federation has 3".into(),
        };
        assert!(topology.to_string().contains("transfer topology is invalid"));
        assert!(topology.to_string().contains("4 member(s)"));
        let snapshot = SimError::SnapshotMismatch {
            reason: "the snapshot covers 2 member(s), this federation has 3".into(),
        };
        assert!(snapshot.to_string().contains("cannot be restored"));
        assert!(snapshot.to_string().contains("2 member(s)"));
        let exhausted = SimError::RetriesExhausted {
            job: "q17".into(),
            stage: StageId(2),
            task: 4,
            attempts: 3,
        };
        assert!(exhausted.to_string().contains("q17"));
        assert!(exhausted.to_string().contains("failed 3 time(s)"));
        assert!(exhausted.to_string().contains("task 4"));
    }

    #[test]
    fn partial_summary_travels_with_the_time_limit_error() {
        let partial = PartialRunSummary {
            completed_jobs: vec![JobId(1)],
            incomplete_jobs: vec![JobId(0), JobId(2)],
            elapsed_executor_seconds: 10.0,
            accrued_carbon_grams: 0.0,
        };
        let err = SimError::TimeLimitExceeded {
            limit: 100.0,
            incomplete_jobs: 2,
            partial: Box::new(partial.clone()),
        };
        // Pattern matching with `..` stays compatible with pre-partial code.
        match &err {
            SimError::TimeLimitExceeded { incomplete_jobs, .. } => {
                assert_eq!(*incomplete_jobs, 2)
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match err {
            SimError::TimeLimitExceeded { partial: p, .. } => assert_eq!(*p, partial),
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(PartialRunSummary::default().completed_jobs, Vec::<JobId>::new());
    }
}
