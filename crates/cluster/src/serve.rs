//! Open-arrival steady-state serving mode.
//!
//! The finite entry points ([`Federation::run`], [`Simulator::run`] and
//! their streaming variants) run a workload to *completion*: the run ends
//! when the source drains and every job settles.  A serving system never
//! drains — arrivals are an unbounded process (sources such as an unbounded
//! [`WorkloadStream`] yield forever) and the quantity of interest is the *steady
//! state*: queueing-delay percentiles, throughput, carbon per job-hour over
//! sliding windows, not a makespan.
//!
//! A [`ServeSession`] is the serving counterpart of a run: it owns a live
//! engine over a federation and an arrival source and advances it in
//! caller-controlled slices of simulated time ([`ServeSession::run_until`]),
//! returning control at the horizon with all state intact.  Between slices
//! the caller can sample metrics, drain completion records into windowed
//! accumulators ([`ServeSession::drain_completions`]), swap admission
//! policies, or [`snapshot`](ServeSession::snapshot) the engine.
//!
//! Three properties make the mode usable for long-running studies:
//!
//! * **Determinism across slicing.**  Stopping at a horizon and resuming
//!   is invisible to the simulation: a session driven `run_until(a)` then
//!   `run_until(b)` is bit-identical to one driven straight to `b`.  The
//!   engine checks the next event's fire time *before* applying any of its
//!   side effects and parks it untouched when it lies past the horizon.
//! * **Bounded memory.**  Serving sessions compact retired jobs off the
//!   front of the engine's per-job tables, so resident state scales with
//!   jobs *in the system*, not jobs *ever seen*.  Recorded state (completion
//!   records, usage samples) is bounded by the caller's drain cadence.
//! * **Snapshot/restore.**  [`ServeSession::snapshot`] clones the engine's
//!   run state — one struct holding every field a run changes, so nothing
//!   can be left out — into an [`EngineSnapshot`];
//!   [`ServeSession::restore`] checks that the snapshot fits the session's
//!   federation (member count, executor pools), re-attaches
//!   a fresh (deterministic) source at the snapshot's pull position and
//!   assigns the state back, after which the continuation is bit-identical
//!   to a run that never stopped.  Policy objects live outside the engine:
//!   callers warm them equivalently (drive a twin session to the snapshot's
//!   horizon, or use stateless policies).
//!
//! Overload is handled at the arrival window: an [`AdmissionPolicy`]
//! (e.g. [`BoundedQueue`](crate::admission::BoundedQueue)) may reject
//! arrivals, keeping queues — and therefore memory and delay — bounded when
//! the arrival rate exceeds the service rate.  `accepted + rejected ==
//! arrivals seen` always holds ([`ServeSession::jobs_rejected`]).
//!
//! ## Example
//!
//! ```
//! use pcaps_cluster::federation::{Federation, Member};
//! use pcaps_cluster::routing::StaticRouter;
//! use pcaps_cluster::schedulers::SparkStandaloneFifo;
//! use pcaps_cluster::source::MaterializedJobs;
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
//! let fed = Federation::streaming(vec![Member::new(
//!     "A",
//!     ClusterConfig::new(2).with_time_scale(1.0),
//!     CarbonTrace::constant("A", 100.0, 48),
//! )]);
//! let mut source = MaterializedJobs::new(vec![
//!     SubmittedJob::at(0.0, job("j0")),
//!     SubmittedJob::at(1.0, job("j1")),
//! ])
//! .unwrap();
//! let mut session = fed.serve(&mut source).unwrap();
//! let mut fifo = SparkStandaloneFifo::new();
//! {
//!     let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
//!     let mut router = StaticRouter::new(0);
//!     // Advance in two slices; the split is invisible to the simulation.
//!     session.run_until(4.0, &mut router, &mut schedulers, None).unwrap();
//!     assert_eq!(session.time(), 4.0);
//!     let drained = session.run_until(100.0, &mut router, &mut schedulers, None).unwrap();
//!     assert!(drained, "a finite source eventually drains");
//! }
//! let result = session.finish();
//! assert!(result.all_jobs_complete());
//! ```
//!
//! [`Federation::run`]: crate::federation::Federation::run
//! [`Simulator::run`]: crate::engine::Simulator::run
//! [`WorkloadStream`]: https://docs.rs/pcaps-workloads

use crate::admission::AdmissionPolicy;
use crate::engine::{Engine, EngineSnapshot, Simulator};
use crate::error::SimError;
use crate::federation::Federation;
use crate::job_state::JobRecord;
use crate::result::{FederationResult, SimulationResult};
use crate::routing::{MigrationPolicy, NeverMigrate, Router, StaticRouter};
use crate::scheduler_api::Scheduler;
use crate::source::ArrivalSource;

/// Placeholder recorded in a [`FederationResult`] for a policy slot that was
/// never consulted (a session finished before any `run_until` call).
const NOT_CONSULTED: &str = "(not-consulted)";

/// A live open-arrival serving session (see the module docs).
///
/// Created by [`Federation::serve`] or [`Simulator::serve`]; borrows the
/// federation and the arrival source for its whole lifetime.  Policy objects
/// (router, schedulers, migration, admission) are passed per advancing call,
/// so the caller may swap them between slices — determinism is then the
/// caller's contract, exactly as it is across separate finite runs.
pub struct ServeSession<'a> {
    engine: Engine<'a>,
    router_name: String,
    migration_name: String,
    scheduler_names: Vec<String>,
}

impl<'a> ServeSession<'a> {
    fn new(fed: &'a Federation, source: &'a mut dyn ArrivalSource) -> Result<Self, SimError> {
        if let Some(e) = fed.invalid() {
            return Err(e.clone());
        }
        let mut engine = Engine::from_source(fed, source);
        engine.enable_compaction();
        let members = fed.members().len();
        Ok(ServeSession {
            engine,
            router_name: NOT_CONSULTED.to_string(),
            migration_name: NOT_CONSULTED.to_string(),
            scheduler_names: vec![NOT_CONSULTED.to_string(); members],
        })
    }

    /// Advances the session until the engine clock reaches `horizon`
    /// (schedule seconds, absolute), or until the source drains and every
    /// admitted job settles — whichever comes first.  Returns `Ok(true)` on
    /// drain, `Ok(false)` on reaching the horizon; either way
    /// [`ServeSession::time`] equals `min(horizon, …)` afterwards — the
    /// clock lands exactly on the horizon even if no event fires there.
    ///
    /// Migration is disabled ([`NeverMigrate`]); use
    /// [`ServeSession::run_until_with_migration`] to enable it.
    ///
    /// # Panics
    /// Panics if `horizon` is not finite or `schedulers.len()` differs from
    /// the member count.
    pub fn run_until(
        &mut self,
        horizon: f64,
        router: &mut dyn Router,
        schedulers: &mut [&mut dyn Scheduler],
        admission: Option<&mut dyn AdmissionPolicy>,
    ) -> Result<bool, SimError> {
        self.run_until_with_migration(horizon, router, &mut NeverMigrate, schedulers, admission)
    }

    /// [`ServeSession::run_until`] with a migration policy.
    pub fn run_until_with_migration(
        &mut self,
        horizon: f64,
        router: &mut dyn Router,
        migration: &mut dyn MigrationPolicy,
        schedulers: &mut [&mut dyn Scheduler],
        admission: Option<&mut dyn AdmissionPolicy>,
    ) -> Result<bool, SimError> {
        assert!(horizon.is_finite(), "serving horizon must be finite, got {horizon}");
        assert_eq!(
            schedulers.len(),
            self.engine.num_members(),
            "a serving session needs exactly one scheduler per member cluster"
        );
        self.router_name = router.name().to_string();
        self.migration_name = migration.name().to_string();
        for (name, s) in self.scheduler_names.iter_mut().zip(schedulers.iter()) {
            *name = s.name().to_string();
        }
        self.engine.preflight()?;
        self.engine
            .step_until(Some(horizon), router, migration, schedulers, admission)
    }

    /// The engine clock (schedule seconds).
    pub fn time(&self) -> f64 {
        self.engine.now()
    }

    /// Number of member clusters.
    pub fn num_members(&self) -> usize {
        self.engine.num_members()
    }

    /// Arrivals pulled from the source so far (admitted + rejected +
    /// the one job in the lookahead window, if any).
    pub fn jobs_seen(&self) -> usize {
        self.engine.jobs_seen_count()
    }

    /// Jobs that have completed.
    pub fn jobs_completed(&self) -> usize {
        self.engine.completed_count()
    }

    /// Jobs turned away by admission policies, over the whole session.
    pub fn jobs_rejected(&self) -> usize {
        self.engine.rejected_count()
    }

    /// Jobs currently occupying simulation state (active on a member or in
    /// cross-region transit) — the "jobs in system" of queueing theory.
    pub fn jobs_in_system(&self) -> usize {
        self.engine.resident_jobs()
    }

    /// Resident per-job bookkeeping slots after compaction.  Bounded by
    /// jobs in system plus the retired-but-not-yet-compacted tail; the
    /// steady-state tests pin long-run residency with this.
    pub fn resident_table_len(&self) -> usize {
        self.engine.resident_table_len()
    }

    /// Takes every completion record accumulated since the last drain
    /// (merged across members, ordered by completion time then job id) and
    /// clears the per-window usage-profile series.  Draining regularly is
    /// what keeps an unbounded session's memory bounded; records not
    /// drained before [`ServeSession::finish`] appear in the final result
    /// instead.
    pub fn drain_completions(&mut self) -> Vec<JobRecord> {
        self.engine.drain_completions()
    }

    /// Captures the engine's full dynamic state (see [`EngineSnapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.engine.snapshot()
    }

    /// Installs `snap` into this session, re-attaching this session's source
    /// at the snapshot's pull position (the source must replay the same
    /// deterministic stream; the session must not have pulled past the
    /// snapshot).  After a successful restore the session continues
    /// bit-identically to the run the snapshot was taken from.
    ///
    /// Reports [`SimError::SnapshotMismatch`] when the snapshot comes from a
    /// differently shaped federation (member count, any member's executor
    /// count) or when the source cannot reach the snapshot's pull position.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SimError> {
        self.engine.restore(snap)
    }

    /// Ends the session and assembles the accumulated records into a
    /// [`FederationResult`].  Completion records previously taken by
    /// [`ServeSession::drain_completions`] are *not* re-included; on a
    /// never-drained session this is exactly the result a finite run would
    /// have produced.
    pub fn finish(mut self) -> FederationResult {
        let router_name = std::mem::take(&mut self.router_name);
        let migration_name = std::mem::take(&mut self.migration_name);
        let names = std::mem::take(&mut self.scheduler_names);
        self.engine.assemble(&router_name, &migration_name, &names)
    }
}

impl Federation {
    /// Opens an open-arrival serving session over this federation, pulling
    /// arrivals from `source` (see the [module docs](crate::serve)).
    /// Reports the federation's construction-time poison (invalid
    /// configuration, workload or fault plan), if any.
    pub fn serve<'a>(
        &'a self,
        source: &'a mut dyn ArrivalSource,
    ) -> Result<ServeSession<'a>, SimError> {
        ServeSession::new(self, source)
    }

    /// One-shot open-loop run: serves arrivals from `source` until the
    /// clock reaches `horizon` (or the source drains), then assembles the
    /// result.  Equivalent to [`Federation::serve`] + one
    /// [`ServeSession::run_until`] + [`ServeSession::finish`].
    pub fn run_until(
        &self,
        source: &mut dyn ArrivalSource,
        horizon: f64,
        router: &mut dyn Router,
        schedulers: &mut [&mut dyn Scheduler],
        admission: Option<&mut dyn AdmissionPolicy>,
    ) -> Result<FederationResult, SimError> {
        let mut session = self.serve(source)?;
        session.run_until(horizon, router, schedulers, admission)?;
        Ok(session.finish())
    }
}

impl Simulator {
    /// Opens an open-arrival serving session over this single-member
    /// cluster (see the [module docs](crate::serve)).  The returned session
    /// is federation-shaped: pass a one-element scheduler slice and any
    /// router (e.g. [`StaticRouter::new(0)`](StaticRouter)).
    pub fn serve<'a>(
        &'a self,
        source: &'a mut dyn ArrivalSource,
    ) -> Result<ServeSession<'a>, SimError> {
        self.federation().serve(source)
    }

    /// One-shot single-cluster open-loop run to an absolute horizon.
    pub fn run_until(
        &self,
        source: &mut dyn ArrivalSource,
        horizon: f64,
        scheduler: &mut dyn Scheduler,
        admission: Option<&mut dyn AdmissionPolicy>,
    ) -> Result<SimulationResult, SimError> {
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler];
        let result =
            self.federation()
                .run_until(source, horizon, &mut router, &mut schedulers, admission)?;
        Ok(result.into_single())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::BoundedQueue;
    use crate::config::ClusterConfig;
    use crate::federation::Member;
    use crate::schedulers::SparkStandaloneFifo;
    use crate::source::MaterializedJobs;
    use crate::SubmittedJob;
    use pcaps_carbon::CarbonTrace;
    use pcaps_dag::{JobDagBuilder, Task};

    fn job(name: &str, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(dur); tasks])
            .build()
            .unwrap()
    }

    fn one_member_fed() -> Federation {
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        Federation::streaming(vec![Member::new(
            "A",
            config,
            CarbonTrace::constant("A", 100.0, 100),
        )])
    }

    fn workload() -> Vec<SubmittedJob> {
        vec![
            SubmittedJob::at(0.0, job("j0", 2, 5.0)),
            SubmittedJob::at(1.0, job("j1", 2, 5.0)),
            SubmittedJob::at(2.0, job("j2", 2, 5.0)),
        ]
    }

    #[test]
    fn sliced_run_matches_straight_run() {
        let fed = one_member_fed();

        let run = |slices: &[f64]| {
            let mut source = MaterializedJobs::new(workload()).unwrap();
            let mut session = fed.serve(&mut source).unwrap();
            let mut fifo = SparkStandaloneFifo::new();
            let mut router = StaticRouter::new(0);
            for &h in slices {
                let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
                session.run_until(h, &mut router, &mut schedulers, None).unwrap();
            }
            session.finish()
        };

        let straight = run(&[1000.0]);
        let sliced = run(&[0.5, 3.0, 7.25, 1000.0]);
        assert!(straight.all_jobs_complete());
        assert_eq!(straight.makespan, sliced.makespan);
        assert_eq!(
            straight.members[0].result.jobs,
            sliced.members[0].result.jobs,
            "slicing the horizon must be invisible to the simulation"
        );
    }

    #[test]
    fn horizon_stop_lands_exactly_on_the_horizon() {
        let fed = one_member_fed();
        let mut source = MaterializedJobs::new(workload()).unwrap();
        let mut session = fed.serve(&mut source).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        let drained = session.run_until(4.25, &mut router, &mut schedulers, None).unwrap();
        assert!(!drained, "work remains past the horizon");
        assert_eq!(session.time(), 4.25);
        assert!(session.jobs_in_system() > 0);
        let drained = session.run_until(1000.0, &mut router, &mut schedulers, None).unwrap();
        assert!(drained);
        assert_eq!(session.jobs_in_system(), 0);
    }

    #[test]
    fn admission_conservation_in_one_shot_run() {
        let fed = one_member_fed();
        let mut source = MaterializedJobs::new(workload()).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        let mut admission = BoundedQueue::new(1);
        let result = fed
            .run_until(&mut source, 1000.0, &mut router, &mut schedulers, Some(&mut admission))
            .unwrap();
        let m = &result.members[0].result;
        assert!(m.jobs_rejected > 0, "a 1-deep bound must turn jobs away");
        assert_eq!(
            m.jobs.len() + m.jobs_rejected,
            3,
            "accepted + rejected must equal arrivals seen"
        );
    }

    #[test]
    fn simulator_one_shot_matches_finite_run() {
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        let carbon = CarbonTrace::constant("A", 100.0, 100);
        let finite = Simulator::new(config.clone(), workload(), carbon.clone());
        let expected = finite.run(&mut SparkStandaloneFifo::new()).unwrap();

        let streaming = Simulator::streaming(config, carbon);
        let mut source = MaterializedJobs::new(workload()).unwrap();
        let got = streaming
            .run_until(&mut source, 1000.0, &mut SparkStandaloneFifo::new(), None)
            .unwrap();
        assert_eq!(got.jobs, expected.jobs);
        assert_eq!(got.makespan, expected.makespan);
        assert_eq!(got.tasks_dispatched, expected.tasks_dispatched);
    }

    #[test]
    fn drain_completions_moves_records_out_of_the_final_result() {
        let fed = one_member_fed();
        let mut source = MaterializedJobs::new(workload()).unwrap();
        let mut session = fed.serve(&mut source).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        session.run_until(6.0, &mut router, &mut schedulers, None).unwrap();
        let early = session.drain_completions();
        assert!(!early.is_empty(), "at least one job completes by t=6");
        assert!(
            early.windows(2).all(|w| w[0].completion <= w[1].completion),
            "drained records are ordered by completion"
        );
        session.run_until(1000.0, &mut router, &mut schedulers, None).unwrap();
        let result = session.finish();
        assert_eq!(
            early.len() + result.members[0].result.jobs.len(),
            3,
            "drained and final records partition the completions"
        );
    }

    #[test]
    fn snapshot_restore_into_fresh_session_continues_identically() {
        let fed = one_member_fed();

        // Uninterrupted reference run.
        let mut src_ref = MaterializedJobs::new(workload()).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        let expected = fed
            .run_until(&mut src_ref, 1000.0, &mut router, &mut schedulers, None)
            .unwrap();

        // Run to t=4, snapshot, and restore into a *fresh* session over a
        // fresh source; continue to drain.
        let mut src_a = MaterializedJobs::new(workload()).unwrap();
        let mut session_a = fed.serve(&mut src_a).unwrap();
        let mut fifo_a = SparkStandaloneFifo::new();
        {
            let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo_a];
            session_a.run_until(4.0, &mut router, &mut schedulers, None).unwrap();
        }
        let snap = session_a.snapshot();
        assert_eq!(snap.time(), 4.0);

        let mut src_b = MaterializedJobs::new(workload()).unwrap();
        let mut session_b = fed.serve(&mut src_b).unwrap();
        session_b.restore(&snap).unwrap();
        assert_eq!(session_b.time(), 4.0);
        // SparkStandaloneFifo is stateless, so a fresh instance is "equivalently
        // warmed" by construction.
        let mut fifo_b = SparkStandaloneFifo::new();
        {
            let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo_b];
            session_b.run_until(1000.0, &mut router, &mut schedulers, None).unwrap();
        }
        let got = session_b.finish();
        assert_eq!(got.members[0].result.jobs, expected.members[0].result.jobs);
        assert_eq!(got.makespan, expected.makespan);
    }

    #[test]
    fn restore_rejects_a_session_that_pulled_past_the_snapshot() {
        let fed = one_member_fed();
        let mut src_a = MaterializedJobs::new(workload()).unwrap();
        let session_a = fed.serve(&mut src_a).unwrap();
        let snap = session_a.snapshot(); // before any pulls

        let mut src_b = MaterializedJobs::new(workload()).unwrap();
        let mut session_b = fed.serve(&mut src_b).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        session_b.run_until(4.0, &mut router, &mut schedulers, None).unwrap();
        match session_b.restore(&snap) {
            Err(SimError::SnapshotMismatch { reason }) => {
                assert!(reason.contains("pulled"), "got: {reason}")
            }
            other => panic!("expected SnapshotMismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_different_member_count() {
        let fed1 = one_member_fed();
        let mut src1 = MaterializedJobs::new(workload()).unwrap();
        let snap = fed1.serve(&mut src1).unwrap().snapshot();

        let config = ClusterConfig::new(2).with_time_scale(1.0);
        let fed2 = Federation::streaming(vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 100.0, 100)),
            Member::new("B", config, CarbonTrace::constant("B", 300.0, 100)),
        ]);
        let mut src2 = MaterializedJobs::new(workload()).unwrap();
        let mut session2 = fed2.serve(&mut src2).unwrap();
        assert!(matches!(
            session2.restore(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "horizon must be finite")]
    fn non_finite_horizon_rejected() {
        let fed = one_member_fed();
        let mut source = MaterializedJobs::new(workload()).unwrap();
        let mut session = fed.serve(&mut source).unwrap();
        let mut fifo = SparkStandaloneFifo::new();
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [&mut fifo];
        let _ = session.run_until(f64::INFINITY, &mut router, &mut schedulers, None);
    }
}
