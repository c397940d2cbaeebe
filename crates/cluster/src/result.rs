//! Output of a simulation run.

use crate::faults::FaultRecord;
use crate::job_state::JobRecord;
use crate::profile::UsageProfile;
use pcaps_dag::JobId;
use serde::{Deserialize, Serialize};

/// Everything recorded during one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Name of the scheduler that produced the run.
    pub scheduler: String,
    /// Per-job completion records, ordered by job id.
    pub jobs: Vec<JobRecord>,
    /// Executor usage profile.
    pub profile: UsageProfile,
    /// Schedule time at which the last job completed (end-to-end completion
    /// time measured from time 0).
    pub makespan: f64,
    /// Total number of tasks dispatched.
    pub tasks_dispatched: usize,
    /// Number of jobs submitted in the workload.
    pub jobs_submitted: usize,
    /// Jobs turned away by an [`AdmissionPolicy`] while routed to this
    /// member.  Always 0 without a policy (finite runs never consult one),
    /// so `jobs_submitted` keeps its meaning: rejected jobs are *not*
    /// submitted — `accepted + rejected == arrivals seen` holds per member.
    /// Defaults to 0 when deserializing results recorded before admission
    /// control existed.
    ///
    /// [`AdmissionPolicy`]: crate::admission::AdmissionPolicy
    #[serde(default)]
    pub jobs_rejected: usize,
    /// Executor-seconds of work lost to executor crashes: for every killed
    /// task, the dispatch-to-crash interval.  0.0 on fault-free runs.
    pub wasted_seconds: f64,
    /// Number of tasks killed by executor crashes (each later retry that
    /// also crashes counts again).
    pub tasks_failed: usize,
    /// Number of crashed tasks re-released for dispatch after their retry
    /// backoff.  `tasks_failed - retries` is the number of in-flight
    /// cooldowns at the end of the run (0 when the run completes).
    pub retries: usize,
    /// What the fault layer actually did to this member, in event order:
    /// crashes (with their victims), outage windows and retry releases.
    /// Empty on fault-free runs.
    pub faults: Vec<FaultRecord>,
}

impl SimulationResult {
    /// True if every submitted job completed.
    pub fn all_jobs_complete(&self) -> bool {
        self.jobs.len() == self.jobs_submitted
    }

    /// End-to-end completion time (ECT): total time to complete all jobs in
    /// the experiment, i.e. the makespan of the whole batch.
    pub fn ect(&self) -> f64 {
        self.makespan
    }

    /// Average job completion time across all completed jobs.
    pub fn average_jct(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(JobRecord::jct).sum::<f64>() / self.jobs.len() as f64
    }

    /// Total executor-seconds consumed by all jobs.
    pub fn total_executor_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.executor_seconds).sum()
    }

    /// Goodput as a fraction of all executor-seconds spent: useful work over
    /// useful plus wasted.  1.0 on fault-free runs (and on empty runs, where
    /// no work was spent at all).
    pub fn goodput(&self) -> f64 {
        let useful = self.total_executor_seconds();
        let spent = useful + self.wasted_seconds;
        if spent <= 0.0 {
            return 1.0;
        }
        useful / spent
    }
}

/// One member cluster's share of a federated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemberResult {
    /// Index of the member within the federation.
    pub member: usize,
    /// The member's label (usually its grid region code).
    pub label: String,
    /// The member's own simulation result.  `jobs_submitted` counts the jobs
    /// *this member ended the run owning* (routed here and never moved, or
    /// migrated in; migration departures decrement it), so
    /// [`SimulationResult::all_jobs_complete`] keeps its meaning per member.
    pub result: SimulationResult,
}

/// One applied job migration: which job moved where, when, and what the
/// transfer cost in time and carbon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The migrated job.
    pub job: JobId,
    /// Source member index.
    pub from: usize,
    /// Destination member index.
    pub to: usize,
    /// Schedule time at which the job left its source member.
    pub departed: f64,
    /// Schedule time at which it re-registered at the destination
    /// (`departed + transfer_seconds`).
    pub arrived: f64,
    /// Gigabytes of state moved (the job's data size scaled by its
    /// remaining-work fraction at departure).
    pub gb: f64,
    /// Transfer delay charged (schedule seconds).
    pub transfer_seconds: f64,
    /// Carbon attributed to the transfer itself (grams CO₂eq): the transfer
    /// energy priced at the mean of the two endpoints' *average* intensities
    /// over `[departed, arrived]` (each endpoint trace integrated over the
    /// transfer interval, half attribution each; instantaneous intensities
    /// for a zero-duration transfer).
    pub transfer_carbon_grams: f64,
}

/// Everything recorded during one federated run: one [`MemberResult`] per
/// member cluster plus federation-level aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationResult {
    /// Name of the router that placed the jobs.
    pub router: String,
    /// Name of the migration policy that (possibly) moved them afterwards.
    pub migration_policy: String,
    /// Per-member results, ordered by member index.
    pub members: Vec<MemberResult>,
    /// Every applied migration, in application order.
    pub migrations: Vec<MigrationRecord>,
    /// Schedule time at which the last job of the whole federation completed.
    pub makespan: f64,
}

impl FederationResult {
    /// True if every job routed to every member completed.
    pub fn all_jobs_complete(&self) -> bool {
        self.members.iter().all(|m| m.result.all_jobs_complete())
    }

    /// Total jobs routed across all members.
    pub fn jobs_submitted(&self) -> usize {
        self.members.iter().map(|m| m.result.jobs_submitted).sum()
    }

    /// Total tasks dispatched across all members.
    pub fn tasks_dispatched(&self) -> usize {
        self.members.iter().map(|m| m.result.tasks_dispatched).sum()
    }

    /// Number of job migrations applied during the run.
    pub fn num_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Executor-seconds lost to crashes across all members.
    pub fn wasted_seconds(&self) -> f64 {
        self.members.iter().fold(0.0, |acc, m| acc + m.result.wasted_seconds)
    }

    /// Tasks killed by crashes across all members.
    pub fn tasks_failed(&self) -> usize {
        self.members.iter().map(|m| m.result.tasks_failed).sum()
    }

    /// Crashed tasks re-released for dispatch across all members.
    pub fn retries(&self) -> usize {
        self.members.iter().map(|m| m.result.retries).sum()
    }

    /// Federation-wide goodput: useful executor-seconds over useful plus
    /// wasted, job-weighted across members.  1.0 when nothing was wasted.
    pub fn goodput(&self) -> f64 {
        let useful: f64 = self
            .members
            .iter()
            .fold(0.0, |acc, m| acc + m.result.total_executor_seconds());
        let spent = useful + self.wasted_seconds();
        if spent <= 0.0 {
            return 1.0;
        }
        useful / spent
    }

    /// Total schedule seconds jobs spent in cross-region transfer.
    /// (Folded from `+0.0` so an empty log reports positive zero — `f64`'s
    /// `Sum` yields `-0.0` for empty iterators, which formats as `-0`.)
    pub fn total_transfer_seconds(&self) -> f64 {
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.transfer_seconds)
    }

    /// Total carbon attributed to cross-region transfers (grams CO₂eq).
    /// This is *in addition to* the execution carbon accounted from each
    /// member's usage profile.
    pub fn transfer_carbon_grams(&self) -> f64 {
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.transfer_carbon_grams)
    }

    /// Migrations that departed from `member`, in application order.
    pub fn migrations_from(&self, member: usize) -> impl Iterator<Item = &MigrationRecord> {
        self.migrations.iter().filter(move |m| m.from == member)
    }

    /// Average job completion time over every job in the federation
    /// (job-weighted, not member-weighted).
    pub fn average_jct(&self) -> f64 {
        let jobs: usize = self.members.iter().map(|m| m.result.jobs.len()).sum();
        if jobs == 0 {
            return 0.0;
        }
        let total: f64 = self
            .members
            .iter()
            .flat_map(|m| m.result.jobs.iter())
            .map(JobRecord::jct)
            .sum();
        total / jobs as f64
    }

    /// Unwraps a single-member federation into that member's result.
    ///
    /// # Panics
    /// Panics if the federation has more than one member.
    pub fn into_single(mut self) -> SimulationResult {
        assert_eq!(
            self.members.len(),
            1,
            "into_single requires exactly one member, got {}",
            self.members.len()
        );
        self.members.pop().expect("one member").result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_dag::JobId;

    fn record(id: u64, arrival: f64, completion: f64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            name: format!("j{id}"),
            arrival,
            completion,
            first_start: arrival,
            executor_seconds: 10.0,
            total_work: 10.0,
            num_stages: 2,
        }
    }

    fn result() -> SimulationResult {
        SimulationResult {
            scheduler: "test".into(),
            jobs: vec![record(0, 0.0, 10.0), record(1, 5.0, 25.0)],
            profile: UsageProfile::new(),
            makespan: 25.0,
            tasks_dispatched: 4,
            jobs_submitted: 2,
            jobs_rejected: 0,
            wasted_seconds: 0.0,
            tasks_failed: 0,
            retries: 0,
            faults: Vec::new(),
        }
    }

    #[test]
    fn aggregates() {
        let r = result();
        assert!(r.all_jobs_complete());
        assert_eq!(r.ect(), 25.0);
        assert!((r.average_jct() - 15.0).abs() < 1e-12);
        assert!((r.total_executor_seconds() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn goodput_counts_wasted_work() {
        let mut r = result();
        assert_eq!(r.goodput(), 1.0, "fault-free runs have perfect goodput");
        r.wasted_seconds = 5.0;
        // 20 useful executor-seconds vs 5 wasted.
        assert!((r.goodput() - 0.8).abs() < 1e-12);
        r.jobs.clear();
        r.wasted_seconds = 0.0;
        assert_eq!(r.goodput(), 1.0, "an empty run wastes nothing");
    }

    #[test]
    fn incomplete_detected() {
        let mut r = result();
        r.jobs_submitted = 3;
        assert!(!r.all_jobs_complete());
    }

    #[test]
    fn federation_aggregates_span_members() {
        let fed = FederationResult {
            router: "test-router".into(),
            migration_policy: "never-migrate".into(),
            members: vec![
                MemberResult { member: 0, label: "DE".into(), result: result() },
                MemberResult {
                    member: 1,
                    label: "CAISO".into(),
                    result: SimulationResult {
                        jobs: vec![record(2, 0.0, 40.0)],
                        makespan: 40.0,
                        jobs_submitted: 1,
                        tasks_dispatched: 2,
                        ..result()
                    },
                },
            ],
            migrations: vec![],
            makespan: 40.0,
        };
        assert!(fed.all_jobs_complete());
        assert_eq!(fed.jobs_submitted(), 3);
        assert_eq!(fed.tasks_dispatched(), 6);
        // JCTs: 10, 20 and 40 → job-weighted mean 70/3.
        assert!((fed.average_jct() - 70.0 / 3.0).abs() < 1e-12);
        assert_eq!(fed.num_migrations(), 0);
        assert_eq!(fed.total_transfer_seconds(), 0.0);
        assert_eq!(fed.transfer_carbon_grams(), 0.0);
    }

    #[test]
    fn migration_aggregates_sum_the_log() {
        let migration = |from: usize, to: usize, secs: f64, grams: f64| MigrationRecord {
            job: JobId(0),
            from,
            to,
            departed: 10.0,
            arrived: 10.0 + secs,
            gb: 2.0,
            transfer_seconds: secs,
            transfer_carbon_grams: grams,
        };
        let fed = FederationResult {
            router: "rr".into(),
            migration_policy: "test".into(),
            members: vec![MemberResult { member: 0, label: "a".into(), result: result() }],
            migrations: vec![migration(0, 1, 5.0, 30.0), migration(1, 0, 7.0, 12.0)],
            makespan: 25.0,
        };
        assert_eq!(fed.num_migrations(), 2);
        assert!((fed.total_transfer_seconds() - 12.0).abs() < 1e-12);
        assert!((fed.transfer_carbon_grams() - 42.0).abs() < 1e-12);
        assert_eq!(fed.migrations_from(0).count(), 1);
        assert_eq!(fed.migrations_from(1).count(), 1);
        assert_eq!(fed.migrations_from(2).count(), 0);
    }

    #[test]
    fn into_single_unwraps_one_member() {
        let fed = FederationResult {
            router: "static".into(),
            migration_policy: "never-migrate".into(),
            members: vec![MemberResult { member: 0, label: "DE".into(), result: result() }],
            migrations: vec![],
            makespan: 25.0,
        };
        assert_eq!(fed.into_single().makespan, 25.0);
    }

    #[test]
    #[should_panic(expected = "exactly one member")]
    fn into_single_rejects_multiple_members() {
        let fed = FederationResult {
            router: "rr".into(),
            migration_policy: "never-migrate".into(),
            members: vec![
                MemberResult { member: 0, label: "a".into(), result: result() },
                MemberResult { member: 1, label: "b".into(), result: result() },
            ],
            migrations: vec![],
            makespan: 25.0,
        };
        let _ = fed.into_single();
    }

    #[test]
    fn empty_jobs_give_zero_jct() {
        let mut r = result();
        r.jobs.clear();
        assert_eq!(r.average_jct(), 0.0);
    }
}
