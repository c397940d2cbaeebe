//! A federation of member clusters under one deterministic event loop.
//!
//! The paper evaluates PCAPS one grid at a time; a production carbon-aware
//! system places work *across* grids.  A [`Federation`] models that: N
//! member clusters, each with its own executor pool, carbon trace (one grid
//! region each) and [`Scheduler`] instance, driven by a single shared
//! discrete-event loop so that runs are deterministic and member results are
//! directly comparable.  A [`Router`] decides, at each job's arrival, which
//! member the job runs in; scheduling *within* the chosen member then works
//! exactly as in the single-cluster simulator.
//!
//! The single-cluster [`Simulator`] is a thin wrapper around a one-member
//! federation with a [`StaticRouter`] — its results are bit-identical to the
//! pre-federation engine.
//!
//! ## Example
//!
//! ```
//! use pcaps_cluster::federation::{Federation, Member};
//! use pcaps_cluster::routing::StaticRouter;
//! use pcaps_cluster::schedulers::SimpleFifo;
//! use pcaps_cluster::{ClusterConfig, Scheduler, SubmittedJob};
//! use pcaps_carbon::CarbonTrace;
//! use pcaps_dag::{JobDagBuilder, Task};
//!
//! let job = |name: &str| {
//!     JobDagBuilder::new(name)
//!         .stage("s", vec![Task::new(5.0); 2])
//!         .build()
//!         .unwrap()
//! };
//! let fed = Federation::new(
//!     vec![
//!         Member::new("A", ClusterConfig::new(2), CarbonTrace::constant("A", 100.0, 48)),
//!         Member::new("B", ClusterConfig::new(2), CarbonTrace::constant("B", 300.0, 48)),
//!     ],
//!     vec![SubmittedJob::at(0.0, job("j0")), SubmittedJob::at(1.0, job("j1"))],
//! );
//! let mut fifo_a = SimpleFifo::new();
//! let mut fifo_b = SimpleFifo::new();
//! let mut schedulers: [&mut dyn Scheduler; 2] = [&mut fifo_a, &mut fifo_b];
//! let result = fed.run(&mut StaticRouter::new(0), &mut schedulers).unwrap();
//! assert!(result.all_jobs_complete());
//! assert_eq!(result.members[0].result.jobs_submitted, 2);
//! assert_eq!(result.members[1].result.jobs_submitted, 0);
//! ```
//!
//! [`Scheduler`]: crate::scheduler_api::Scheduler
//! [`Simulator`]: crate::engine::Simulator
//! [`StaticRouter`]: crate::routing::StaticRouter

use crate::config::ClusterConfig;
use crate::engine::Engine;
use crate::error::SimError;
use crate::faults::{FaultContext, FaultPlan, FaultSchedule, RetryPolicy};
use crate::job_state::{check_arrival, check_data_gb, SubmittedJob};
use crate::network::NetworkTopology;
use crate::result::FederationResult;
use crate::routing::{MigrationPolicy, NeverMigrate, Router, TransferMatrix};
use crate::scheduler_api::Scheduler;
use crate::source::{ArrivalSource, MaterializedJobs};
use pcaps_carbon::CarbonTrace;

/// One member cluster of a federation: a label (usually the grid region
/// code), the cluster's static configuration, and the carbon trace its
/// region is accounted against.
#[derive(Debug, Clone)]
pub struct Member {
    /// Human-readable member label used in results (e.g. `"CAISO"`).
    pub label: String,
    /// The member cluster's configuration.
    pub config: ClusterConfig,
    /// The member's carbon intensity trace.
    pub carbon: CarbonTrace,
}

impl Member {
    /// Creates a member cluster.
    pub fn new(label: impl Into<String>, config: ClusterConfig, carbon: CarbonTrace) -> Self {
        Member { label: label.into(), config, carbon }
    }
}

/// A configured federation, ready to be run against a router and one
/// scheduler per member.
///
/// Like [`Simulator`], the same `Federation` can be run any number of times
/// with different routers/schedulers — every run starts from a pristine copy
/// of the workload, so results are directly comparable.
///
/// [`Simulator`]: crate::engine::Simulator
#[derive(Debug, Clone)]
pub struct Federation {
    members: Vec<Member>,
    /// The materialized workload, sorted and validated once by
    /// [`Federation::new`]; every materialized run pulls from a clone.
    workload: MaterializedJobs,
    /// The transfer model migrations are priced by: fixed per-pair delays
    /// for pairs that cross no capacitated link, max-min fair-shared flows
    /// for pairs that do (see [`NetworkTopology`]).  Defaults to
    /// [`NetworkTopology::new`], under which every move is free and
    /// instantaneous.
    network: NetworkTopology,
    /// First workload validation failure, if any — detected once at
    /// construction and reported by every [`Federation::run`] call.
    invalid: Option<SimError>,
    /// The fault injections every run replays.  Defaults to
    /// [`FaultSchedule::none`], which reproduces the fault-free engine bit
    /// for bit.
    faults: FaultSchedule,
    /// How crashed tasks are retried.  Irrelevant (never consulted) under an
    /// empty fault schedule.
    retry: RetryPolicy,
}

impl Federation {
    /// Creates a federation.  The workload is sorted by arrival time; job
    /// ids are assigned in arrival order *across the whole federation* (a
    /// job's id is its index in the global workload, whichever member it is
    /// later routed to).  Every member's configuration, and every job's
    /// arrival time, DAG and data size, is validated here, once; the first
    /// failure is reported by every run.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Member>, mut workload: Vec<SubmittedJob>) -> Self {
        assert!(!members.is_empty(), "federation must have at least one member cluster");
        workload.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        let invalid_job = workload.iter().find_map(|job| {
            check_arrival(job)
                .and_then(|()| {
                    job.dag.validate().map_err(|e| SimError::InvalidJob {
                        job: job.dag.name.clone(),
                        reason: e.to_string(),
                    })
                })
                .and_then(|()| check_data_gb(job))
                .err()
        });
        let invalid = members
            .iter()
            .find_map(|m| {
                let reason = m.config.check().err()?;
                Some(SimError::InvalidConfig { member: m.label.clone(), reason })
            })
            .or(invalid_job);
        let network = NetworkTopology::new(members.len());
        Federation {
            members,
            workload: MaterializedJobs::presorted(workload),
            network,
            invalid,
            faults: FaultSchedule::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Creates a federation with no materialized workload, for streaming
    /// runs via [`Federation::run_source`]: the workload is pulled from an
    /// [`ArrivalSource`] per run instead of being stored on the federation.
    /// Calling the materialized [`Federation::run`] on a streaming
    /// federation reports [`SimError::EmptyWorkload`].
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn streaming(members: Vec<Member>) -> Self {
        Federation::new(members, Vec::new())
    }

    /// Prices migrations with a fixed per-pair cost matrix (see
    /// [`TransferMatrix`] for units): shorthand for
    /// [`Federation::with_network`] over
    /// [`NetworkTopology::from_matrix`], the link-free topology that
    /// carries the matrix's per-GB latencies and energy figure.  Only
    /// migrations pay these costs — initial routing at arrival stays free,
    /// because the job's input is assumed to be uploaded to wherever the
    /// router placed it.
    ///
    /// This and [`Federation::with_network`] set the same transfer model,
    /// so the last call wins.
    pub fn with_transfer_matrix(self, transfer: TransferMatrix) -> Self {
        self.with_network(NetworkTopology::from_matrix(&transfer))
    }

    /// Sets the federation's transfer model to a link-level network:
    /// transfers over pairs whose [`NetworkTopology::path`] crosses modeled
    /// links are max-min fair-shared among every transfer in flight, pairs
    /// that cross none keep their fixed per-pair delay, and transfer carbon
    /// uses the topology's energy figure.  This and
    /// [`Federation::with_transfer_matrix`] set the same transfer model, so
    /// the last call wins.
    ///
    /// A topology (or matrix) whose dimension differs from the member count
    /// poisons the federation like an invalid fault plan: the builder chain
    /// stays infallible and the first run reports a descriptive
    /// [`SimError::InvalidTopology`].
    pub fn with_network(mut self, network: NetworkTopology) -> Self {
        if network.num_members() != self.members.len() {
            if self.invalid.is_none() {
                self.invalid = Some(SimError::InvalidTopology {
                    reason: format!(
                        "the transfer model covers {} member(s), this federation has {}",
                        network.num_members(),
                        self.members.len()
                    ),
                });
            }
            return self;
        }
        self.network = network;
        self
    }

    /// The transfer model migrations are priced by (see
    /// [`Federation::with_network`]).
    pub fn network(&self) -> &NetworkTopology {
        &self.network
    }

    /// The member clusters, in member-index order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The materialized workload (sorted by arrival; index = job id).
    /// Empty for a [`Federation::streaming`] federation, whose jobs exist
    /// only while a [`Federation::run_source`] run pulls them.
    pub fn workload(&self) -> &[SubmittedJob] {
        self.workload.as_slice()
    }

    /// Materializes `plan` against this federation's topology and attaches
    /// the resulting schedule: every subsequent run replays exactly these
    /// injections.  The plan sees a [`FaultContext`] with one entry per
    /// member (its executor count) and the earliest member `max_sim_time` as
    /// the horizon.
    ///
    /// A plan the context cannot support (e.g. an open-ended
    /// [`PoissonCrashes`](crate::faults::PoissonCrashes) process against a
    /// federation with no real horizon) poisons the federation the same way
    /// an invalid workload does: the builder chain stays infallible, and the
    /// first run reports the descriptive [`SimError::InvalidFault`].
    pub fn with_fault_plan(mut self, plan: &dyn FaultPlan) -> Self {
        let ctx = FaultContext {
            executors: self.members.iter().map(|m| m.config.num_executors).collect(),
            horizon: self
                .members
                .iter()
                .map(|m| m.config.max_sim_time)
                .fold(f64::INFINITY, f64::min),
        };
        match plan.schedule(&ctx) {
            Ok(faults) => self.with_fault_schedule(faults),
            Err(e) => {
                if self.invalid.is_none() {
                    self.invalid = Some(e);
                }
                self.with_fault_schedule(FaultSchedule::none())
            }
        }
    }

    /// Attaches an already materialized fault schedule (see
    /// [`Federation::with_fault_plan`] for the plan-driven form).  Injections
    /// are validated against the topology when a run starts.
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy applied when an executor crash kills a task.
    ///
    /// A policy whose backoff is NaN, infinite or negative poisons the
    /// federation like an invalid fault plan: the first run reports a
    /// [`SimError::InvalidFault`] naming the field.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        if let Err(e) = retry.check() {
            if self.invalid.is_none() {
                self.invalid = Some(e);
            }
        }
        self.retry = retry;
        self
    }

    /// The fault schedule every run replays (empty by default).
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// The retry policy applied to crashed tasks.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The construction-time poison (invalid configuration, workload or
    /// fault plan), if any, reported by every run entry point including the
    /// serving mode.
    pub(crate) fn invalid(&self) -> Option<&SimError> {
        self.invalid.as_ref()
    }

    /// Runs the federation to completion with the given router and one
    /// scheduler per member.  Placement is final: this is
    /// [`Federation::run_with_migration`] under the [`NeverMigrate`] policy,
    /// and it reproduces the pre-migration engine bit for bit.
    ///
    /// # Panics
    /// Panics if `schedulers.len()` differs from the number of members.
    pub fn run(
        &self,
        router: &mut dyn Router,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<FederationResult, SimError> {
        self.run_with_migration(router, &mut NeverMigrate, schedulers)
    }

    /// Runs the federation to completion with the given router, migration
    /// policy, and one scheduler per member.  The migration policy is
    /// consulted on every member's carbon step (federations of two or more
    /// members only) and may move idle jobs between members, paying the
    /// transfer costs of the federation's network topology.
    ///
    /// This is [`Federation::run_source_with_migration`] over a clone of
    /// the materialized workload, which is prevalidated, so the engine
    /// skips per-pull DAG validation.
    ///
    /// # Panics
    /// Panics if `schedulers.len()` differs from the number of members.
    pub fn run_with_migration(
        &self,
        router: &mut dyn Router,
        migration: &mut dyn MigrationPolicy,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<FederationResult, SimError> {
        assert_eq!(
            schedulers.len(),
            self.members.len(),
            "a federation needs exactly one scheduler per member cluster"
        );
        if self.workload.remaining() == 0 {
            return Err(SimError::EmptyWorkload);
        }
        let mut source = self.workload.clone();
        self.run_source_with_migration(&mut source, router, migration, schedulers)
    }

    /// Runs the federation to completion, pulling the workload from
    /// `source` instead of the federation's materialized workload (which is
    /// not consulted; a [`Federation::streaming`] federation has none).
    ///
    /// The engine holds only a one-job arrival lookahead window plus the
    /// active jobs, so a lazy source opens trace-scale runs: job ids are
    /// assigned in pull order, the source's ascending-arrival contract is
    /// enforced per pull ([`SimError::OutOfOrderArrival`]), DAGs are
    /// validated as they are pulled (unless the source is
    /// [prevalidated](ArrivalSource::prevalidated)), and a source that
    /// yields nothing reports [`SimError::EmptyWorkload`].  The source is
    /// consumed; streaming reruns construct a fresh source per run.
    ///
    /// # Panics
    /// Panics if `schedulers.len()` differs from the number of members.
    pub fn run_source(
        &self,
        source: &mut dyn ArrivalSource,
        router: &mut dyn Router,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<FederationResult, SimError> {
        self.run_source_with_migration(source, router, &mut NeverMigrate, schedulers)
    }

    /// [`Federation::run_source`] with a migration policy (the streaming
    /// analogue of [`Federation::run_with_migration`]).
    ///
    /// # Panics
    /// Panics if `schedulers.len()` differs from the number of members.
    pub fn run_source_with_migration(
        &self,
        source: &mut dyn ArrivalSource,
        router: &mut dyn Router,
        migration: &mut dyn MigrationPolicy,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<FederationResult, SimError> {
        assert_eq!(
            schedulers.len(),
            self.members.len(),
            "a federation needs exactly one scheduler per member cluster"
        );
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        Engine::from_source(self, source).run(router, migration, schedulers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{Router, RoutingContext, StaticRouter};
    use crate::schedulers::SimpleFifo;
    use pcaps_dag::{JobDagBuilder, JobId, Task};

    fn job(name: &str, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(dur); tasks])
            .build()
            .unwrap()
    }

    fn two_member_fed(workload: Vec<SubmittedJob>) -> Federation {
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        Federation::new(
            vec![
                Member::new("A", config.clone(), CarbonTrace::constant("A", 100.0, 100)),
                Member::new("B", config, CarbonTrace::constant("B", 300.0, 100)),
            ],
            workload,
        )
    }

    /// Routes job ids alternately to members 0 and 1.
    struct ParityRouter;
    impl Router for ParityRouter {
        fn name(&self) -> &str {
            "parity"
        }
        fn route(&mut self, id: JobId, _job: &SubmittedJob, _ctx: &RoutingContext<'_>) -> usize {
            (id.0 % 2) as usize
        }
    }

    fn run_fed(
        fed: &Federation,
        router: &mut dyn Router,
    ) -> Result<FederationResult, SimError> {
        let mut a = SimpleFifo::new();
        let mut b = SimpleFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        fed.run(router, &mut schedulers)
    }

    #[test]
    fn jobs_land_on_the_routed_member() {
        let fed = two_member_fed(vec![
            SubmittedJob::at(0.0, job("j0", 2, 5.0)),
            SubmittedJob::at(1.0, job("j1", 2, 5.0)),
            SubmittedJob::at(2.0, job("j2", 2, 5.0)),
        ]);
        let result = run_fed(&fed, &mut ParityRouter).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(result.router, "parity");
        let ids = |m: usize| -> Vec<u64> {
            result.members[m].result.jobs.iter().map(|j| j.id.0).collect()
        };
        assert_eq!(ids(0), vec![0, 2]);
        assert_eq!(ids(1), vec![1]);
        assert_eq!(result.jobs_submitted(), 3);
        // Member A serves jobs 0 and 2 serially on its two executors (job 2
        // arrives at t=2, waits until t=5, finishes at t=10); member B
        // finishes job 1 at t=6.
        assert!((result.members[1].result.makespan - 6.0).abs() < 1e-9);
        assert!((result.makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn static_router_leaves_other_members_idle() {
        let fed = two_member_fed(vec![
            SubmittedJob::at(0.0, job("j0", 2, 5.0)),
            SubmittedJob::at(0.0, job("j1", 2, 5.0)),
        ]);
        let result = run_fed(&fed, &mut StaticRouter::new(1)).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(result.members[0].result.jobs_submitted, 0);
        assert_eq!(result.members[1].result.jobs_submitted, 2);
        assert_eq!(result.members[0].result.tasks_dispatched, 0);
        // Two jobs of 2 tasks share member B's two executors serially.
        assert!((result.makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_route_is_an_error() {
        struct Lost;
        impl Router for Lost {
            fn name(&self) -> &str {
                "lost"
            }
            fn route(&mut self, _: JobId, _: &SubmittedJob, _: &RoutingContext<'_>) -> usize {
                7
            }
        }
        let fed = two_member_fed(vec![SubmittedJob::at(0.0, job("j", 1, 1.0))]);
        match run_fed(&fed, &mut Lost) {
            Err(SimError::InvalidRoute { member, members, .. }) => {
                assert_eq!(member, 7);
                assert_eq!(members, 2);
            }
            other => panic!("expected InvalidRoute, got {other:?}"),
        }
    }

    #[test]
    fn reruns_are_independent() {
        let fed = two_member_fed(vec![
            SubmittedJob::at(0.0, job("j0", 4, 5.0)),
            SubmittedJob::at(0.0, job("j1", 4, 5.0)),
        ]);
        let a = run_fed(&fed, &mut ParityRouter).unwrap();
        let b = run_fed(&fed, &mut ParityRouter).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_dispatched(), b.tasks_dispatched());
    }

    #[test]
    fn empty_workload_is_error() {
        let fed = two_member_fed(vec![]);
        assert_eq!(run_fed(&fed, &mut ParityRouter).unwrap_err(), SimError::EmptyWorkload);
        // An empty workload is reported before a construction-time poison.
        let poisoned = fed.with_network(NetworkTopology::new(3));
        assert_eq!(run_fed(&poisoned, &mut ParityRouter).unwrap_err(), SimError::EmptyWorkload);
    }

    #[test]
    #[should_panic(expected = "one scheduler per member")]
    fn scheduler_count_must_match_members() {
        let fed = two_member_fed(vec![SubmittedJob::at(0.0, job("j", 1, 1.0))]);
        let mut only = SimpleFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut only];
        let _ = fed.run(&mut StaticRouter::new(0), &mut schedulers);
    }

    /// The scheduler count is checked before the workload: an empty
    /// federation with the wrong count panics rather than reporting
    /// `EmptyWorkload`.
    #[test]
    #[should_panic(expected = "one scheduler per member")]
    fn scheduler_count_is_checked_before_the_workload() {
        let fed = two_member_fed(vec![]);
        let mut only = SimpleFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut only];
        let _ = fed.run(&mut StaticRouter::new(0), &mut schedulers);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_federation_rejected() {
        let _ = Federation::new(vec![], vec![]);
    }

    #[test]
    fn run_source_matches_the_materialized_run() {
        let workload = vec![
            SubmittedJob::at(0.0, job("j0", 2, 5.0)),
            SubmittedJob::at(1.0, job("j1", 2, 5.0)),
            SubmittedJob::at(2.0, job("j2", 2, 5.0)),
        ];
        let fed = two_member_fed(workload.clone());
        let expected = run_fed(&fed, &mut ParityRouter).unwrap();

        let streaming = Federation::streaming(fed.members().to_vec());
        let mut a = SimpleFifo::new();
        let mut b = SimpleFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        let mut source = crate::source::MaterializedJobs::new(workload).unwrap();
        let got = streaming
            .run_source(&mut source, &mut ParityRouter, &mut schedulers)
            .unwrap();
        assert_eq!(got.makespan, expected.makespan);
        assert_eq!(got.jobs_submitted(), expected.jobs_submitted());
        for (g, e) in got.members.iter().zip(&expected.members) {
            assert_eq!(g.result.jobs, e.result.jobs);
        }
        // A streaming federation's materialized run is an empty workload.
        assert_eq!(
            run_fed(&streaming, &mut ParityRouter).unwrap_err(),
            SimError::EmptyWorkload
        );
    }

    /// A transfer model sized for another member count poisons the
    /// federation, whichever builder attached it, and every entry point
    /// reports it naming both counts.
    #[test]
    fn mismatched_transfer_model_is_reported_by_every_entry_point() {
        let workload = vec![SubmittedJob::at(0.0, job("j", 1, 1.0))];
        let base = two_member_fed(workload.clone());
        for fed in [
            base.clone().with_transfer_matrix(TransferMatrix::uniform(3, 1.0)),
            base.clone().with_network(NetworkTopology::new(3)),
        ] {
            let check = |result: Result<(), SimError>| match result {
                Err(SimError::InvalidTopology { reason }) => {
                    assert!(reason.contains("3 member(s)") && reason.contains("has 2"), "{reason}")
                }
                other => panic!("expected InvalidTopology, got {other:?}"),
            };
            check(run_fed(&fed, &mut StaticRouter::new(0)).map(drop));
            let mut a = SimpleFifo::new();
            let mut b = SimpleFifo::new();
            let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
            let mut source = crate::source::MaterializedJobs::new(workload.clone()).unwrap();
            let mut router = StaticRouter::new(0);
            check(fed.run_source(&mut source, &mut router, &mut schedulers).map(drop));
            let mut source = crate::source::MaterializedJobs::new(workload.clone()).unwrap();
            check(fed.serve(&mut source).map(drop));
        }
    }

    /// The routing context the router sees must reflect each member's
    /// incrementally maintained backlog.
    #[test]
    fn routing_context_tracks_backlog() {
        struct Inspect {
            seen: Vec<(f64, f64)>,
        }
        impl Router for Inspect {
            fn name(&self) -> &str {
                "inspect"
            }
            fn route(&mut self, _: JobId, _: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
                let m = ctx.members();
                self.seen.push((m[0].outstanding_work, m[1].outstanding_work));
                0
            }
        }
        // Two jobs arrive before anything can be dispatched in between?  No —
        // the first job is dispatched immediately, so the second arrival sees
        // the already-drained backlog.  Use a job wider than the member (4
        // tasks on 2 executors) so undispatched work remains at the second
        // arrival.
        let fed = two_member_fed(vec![
            SubmittedJob::at(0.0, job("j0", 4, 5.0)),
            SubmittedJob::at(1.0, job("j1", 1, 5.0)),
        ]);
        let mut router = Inspect { seen: Vec::new() };
        let result = run_fed(&fed, &mut router).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(router.seen.len(), 2);
        // First arrival: both members empty.
        assert_eq!(router.seen[0], (0.0, 0.0));
        // Second arrival at t=1: job 0 brought 20 s of work, 2 tasks (10 s)
        // already dispatched on member A's two executors.
        assert!((router.seen[1].0 - 10.0).abs() < 1e-9);
        assert_eq!(router.seen[1].1, 0.0);
    }
}
