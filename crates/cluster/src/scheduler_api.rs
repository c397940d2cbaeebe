//! The interface between the simulation engine and scheduling policies
//! (API v2).
//!
//! At every *scheduling event* the engine builds a [`SchedulingContext`]
//! describing the cluster and invokes [`Scheduler::on_event`] with a typed
//! [`SchedEvent`] saying *why* the policy is being consulted (a job arrived,
//! tasks completed or failed, the carbon intensity changed, or the engine is
//! re-invoking after applying assignments) and an engine-owned
//! [`DecisionSink`] to write [`Assignment`]s into.  The engine applies what
//! the policy writes at every consultation; it never consults a policy only
//! to discard the answer.
//!
//! A policy defers by writing nothing: the free executors idle until the
//! next scheduling event (Algorithm 1, line 10).  The engine consults the
//! policy again at the next job arrival, task finish or failure, or carbon
//! step, so a policy holding work back for a cleaner hour is consulted at
//! every carbon step while it waits, with no timer to request.
//!
//! The engine keeps re-invoking the scheduler (with [`SchedEvent::Kick`])
//! while it keeps producing applicable assignments and free executors
//! remain, so a policy may either emit one stage per invocation (as Decima
//! and PCAPS do) or fill the whole cluster in a single call (as FIFO does);
//! both styles compose with the engine identically.
//!
//! ## Hot-path contract
//!
//! The steady state of a scheduling invocation is **allocation-free**:
//!
//! * building a context is a pair of slice borrows of the engine's
//!   incrementally maintained active-job table; [`SchedulingContext::jobs`]
//!   materialises lightweight [`JobView`]s on the fly (a `JobView` is two
//!   references and three scalars — `Copy`, cheap to produce per iteration),
//!   and [`JobView::dispatchable_stages`] borrows the incrementally
//!   maintained set from [`pcaps_dag::JobProgress`],
//! * the [`DecisionSink`] is owned by the engine and *reused* across
//!   invocations: its buffer is cleared, not dropped, so once its capacity
//!   has warmed up a decision costs zero allocations,
//! * [`SchedEvent`] is a `Copy` view assembled from borrows,
//! * the engine journals which jobs' progress it mutated, so a policy that
//!   caches per-job values revalidates only those:
//!   [`SchedulingContext::changes_since`] hands back the active-table
//!   indices touched since a [`ChangeCursor`] the policy kept from its
//!   previous pass, or `None` when it cannot vouch for them (a job joined
//!   or left the table, the journal overflowed, or the cursor comes from
//!   another context).  On `None` the policy reconciles against
//!   [`SchedulingContext::jobs`].  The journal is authoritative; the
//!   advisory [`SchedEvent`] stream is never a substitute for it.
//!
//! Schedulers that need scratch space (to sort or score stages) keep
//! policy-owned buffers.  (The v1 `LegacyScheduler` trait — return a fresh
//! `Vec<Assignment>` per invocation — and its blanket adapter were removed
//! after one deprecation cycle; implement [`Scheduler::on_event`] directly.)

use crate::job_state::ActiveJob;
use pcaps_dag::{JobDag, JobId, JobProgress, StageId};
use serde::{Deserialize, Serialize};

/// Snapshot of the carbon signal at the current scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CarbonView {
    /// Current carbon intensity `c(t)` in gCO₂eq/kWh.
    pub intensity: f64,
    /// Forecast lower bound `L` over the lookahead window.
    pub lower_bound: f64,
    /// Forecast upper bound `U` over the lookahead window.
    pub upper_bound: f64,
}

impl CarbonView {
    /// A carbon view with explicit forecast bounds.
    ///
    /// This is the one constructor every hand-assembled view should go
    /// through: it checks (in debug builds) the invariant the bounds
    /// definition promises — the current intensity lies inside the forecast
    /// band, `lower <= intensity <= upper`.
    pub fn new(intensity: f64, lower_bound: f64, upper_bound: f64) -> Self {
        debug_assert!(
            lower_bound <= intensity && intensity <= upper_bound,
            "carbon view bounds must contain the intensity: \
             L={lower_bound}, c={intensity}, U={upper_bound}"
        );
        CarbonView { intensity, lower_bound, upper_bound }
    }

    /// A carbon view for a grid with no variability (L = U = c); useful in
    /// tests and for carbon-agnostic runs.
    pub fn flat(intensity: f64) -> Self {
        CarbonView::new(intensity, intensity, intensity)
    }
}

/// Read-only view of one active (incomplete) job.  Materialised on demand by
/// [`SchedulingContext::jobs`]; copying it is free.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// The job's id.
    pub id: JobId,
    /// The static DAG.
    pub dag: &'a JobDag,
    /// Task-level progress.
    pub progress: &'a JobProgress,
    /// Arrival time (schedule seconds).
    pub arrival: f64,
    /// Executors currently running tasks of this job.
    pub busy_executors: usize,
}

impl<'a> JobView<'a> {
    /// Builds the view over an active job's state.
    pub fn of(job: &'a ActiveJob) -> Self {
        JobView {
            id: job.id,
            dag: &job.dag,
            progress: &job.progress,
            arrival: job.arrival,
            busy_executors: job.busy_executors,
        }
    }

    /// Stages of this job that are runnable and still have undispatched
    /// tasks (the job's contribution to the set `A_t` of Definition 4.1).
    /// Borrows the incrementally maintained set — O(1), no allocation.
    pub fn dispatchable_stages(&self) -> &'a [StageId] {
        self.progress.dispatchable_stages()
    }

    /// Remaining undispatched work in executor-seconds (O(stages with
    /// fresh pending tasks), answered from cached per-stage duration
    /// suffix sums).
    pub fn remaining_work(&self) -> f64 {
        self.progress.remaining_work(self.dag)
    }
}

/// Everything a scheduler can see when making a decision.
#[derive(Debug)]
pub struct SchedulingContext<'a> {
    /// Current schedule time (seconds).
    pub time: f64,
    /// Carbon intensity and forecast bounds.
    pub carbon: CarbonView,
    /// Total number of executors in the cluster (`K`).
    pub total_executors: usize,
    /// Executors currently idle.
    pub free_executors: usize,
    /// Executors currently running tasks.
    pub busy_executors: usize,
    /// Per-job executor cap enforced by the engine.
    pub per_job_cap: usize,
    /// Active jobs, ordered by arrival time (FIFO order).
    active: &'a [ActiveJob],
    /// `slots[id - slot_base] = index into `active``, for O(1) lookup by job
    /// id.
    slots: &'a [Option<u32>],
    /// Id of the first job the slot table still covers.  Open-loop serving
    /// runs compact retired jobs off the front of the engine's tables; the
    /// base keeps id lookups O(1) without the table growing with every job
    /// ever seen.  Always 0 for finite runs.
    slot_base: usize,
    /// Engine-maintained total of owned-but-undispatched task work
    /// (executor-seconds) across the active jobs — the same incremental
    /// counter routers and migration policies see as
    /// `MemberView::outstanding_work`.
    outstanding_work: f64,
    /// The member's change journal: its run stamp (0: no journal, as for
    /// a hand-built context), its generation within the run, and its
    /// entries so far in that generation.
    journal_run: u64,
    generation: u64,
    changes: &'a [u32],
}

/// A position in a member's change journal, taken by
/// [`SchedulingContext::cursor`] and handed back to
/// [`SchedulingContext::changes_since`] at a later pass.
///
/// A cursor names the member's run, a journal generation within it and a
/// position in that generation.  The engine starts a new generation
/// whenever a job joins or leaves the member's active table and when the
/// journal outgrows a small multiple of that table.  Run stamps come from
/// one process-wide counter, and a restored snapshot draws a fresh one, so
/// a cursor from another member, another run or another timeline never
/// matches ([`SchedulingContext::same_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeCursor {
    run: u64,
    generation: u64,
    position: usize,
}

impl<'a> SchedulingContext<'a> {
    /// Builds a context over a slice of active jobs (ordered by arrival).
    ///
    /// `slots[id - slot_base]` must hold every active job's index in
    /// `active`, and `outstanding_work` the member's undispatched task
    /// work; the engine maintains both incrementally.
    // Every argument is one observable of the member, so the flat list is
    // the API, not an accident.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        time: f64,
        carbon: CarbonView,
        total_executors: usize,
        free_executors: usize,
        busy_executors: usize,
        per_job_cap: usize,
        active: &'a [ActiveJob],
        slots: &'a [Option<u32>],
        slot_base: usize,
        outstanding_work: f64,
    ) -> Self {
        SchedulingContext {
            time,
            carbon,
            total_executors,
            free_executors,
            busy_executors,
            per_job_cap,
            active,
            slots,
            slot_base,
            outstanding_work,
            journal_run: 0,
            generation: 0,
            changes: &[],
        }
    }

    /// Attaches the member's change journal: its run stamp (never 0), its
    /// current generation and the active-table indices recorded in it so
    /// far.
    pub(crate) fn with_journal(mut self, run: u64, generation: u64, changes: &'a [u32]) -> Self {
        debug_assert_ne!(run, 0, "run stamp 0 means no journal");
        self.journal_run = run;
        self.generation = generation;
        self.changes = changes;
        self
    }

    /// This context's position in its member's change journal.  Keep it
    /// and pass it to [`SchedulingContext::changes_since`] at the next pass.
    pub fn cursor(&self) -> ChangeCursor {
        ChangeCursor {
            run: self.journal_run,
            generation: self.generation,
            position: self.changes.len(),
        }
    }

    /// True when `cursor` was taken on this member in this run and
    /// timeline, even if the journal can no longer list what changed since:
    /// job ids then still name the same jobs, so per-job caches may be
    /// reconciled by their stamps.  False for a cursor from another member,
    /// run or restored timeline (whose caches describe other progress under
    /// the same ids), and always for a hand-built context.
    pub fn same_run(&self, cursor: ChangeCursor) -> bool {
        self.journal_run != 0 && cursor.run == self.journal_run
    }

    /// The active-table indices ([`SchedulingContext::job_at`] positions)
    /// of the jobs whose [`JobProgress`] the engine mutated since `cursor`
    /// was taken, in mutation order and possibly repeated; a job absent
    /// from the slice has the progress it had then.  Every dispatch, task
    /// finish and retry release is journaled.
    ///
    /// `Some` also promises that no job joined or left the active table in
    /// between, so index `i` still names the job it named then.  `None`
    /// means the caller must reconcile against [`SchedulingContext::jobs`]:
    /// the table's roster changed, the journal overflowed, or the cursor
    /// was taken in another generation, member, run or timeline.  A
    /// hand-built context has no journal and always answers `None`.
    pub fn changes_since(&self, cursor: ChangeCursor) -> Option<&'a [u32]> {
        if !self.same_run(cursor) || cursor.generation != self.generation {
            return None;
        }
        self.changes.get(cursor.position..)
    }

    /// Total undispatched task work (executor-seconds) across the active
    /// jobs, in O(1): the same incremental per-member counter that routing
    /// and migration consult.  It accumulates arrival, dispatch and
    /// migration deltas over the run and excludes tasks sitting in retry
    /// backoff, so it can differ from a per-job remaining-work fold in the
    /// last bits and on faulted runs; compare against a recomputation with
    /// a tolerance, not bit equality.
    pub fn outstanding_work(&self) -> f64 {
        self.outstanding_work
    }

    /// Iterates over the active jobs in arrival (FIFO) order.  Views are
    /// materialised per iteration; no allocation happens.
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = JobView<'a>> + '_ {
        self.active.iter().map(JobView::of)
    }

    /// The `i`-th active job in arrival order.
    ///
    /// # Panics
    /// Panics if `i >= queue_length()`.
    pub fn job_at(&self, i: usize) -> JobView<'a> {
        JobView::of(&self.active[i])
    }

    /// All `(job, stage)` pairs that could be dispatched right now, as an
    /// allocation-free iterator in arrival order.
    pub fn dispatchable_iter(&self) -> impl Iterator<Item = (JobId, StageId)> + '_ {
        self.jobs().flat_map(|j| {
            j.dispatchable_stages()
                .iter()
                .map(move |&s| (j.id, s))
        })
    }

    /// True if at least one stage has undispatched tasks whose precedence
    /// constraints are satisfied.  O(active jobs): each job answers from its
    /// incrementally maintained dispatchable set.
    pub fn has_dispatchable_work(&self) -> bool {
        self.active.iter().any(|j| j.progress.has_dispatchable_work())
    }

    /// Looks up the view for a job id in O(1).
    pub fn job(&self, id: JobId) -> Option<JobView<'a>> {
        let idx = id.index().checked_sub(self.slot_base)?;
        let slot = (*self.slots.get(idx)?)?;
        Some(JobView::of(&self.active[slot as usize]))
    }

    /// Number of active (incomplete) jobs — the "queue length" reported by
    /// the latency experiments (Fig. 20).
    pub fn queue_length(&self) -> usize {
        self.active.len()
    }
}

/// A scheduling decision: dispatch up to `executors` tasks of `stage` (of
/// job `job`) onto free executors now.  The engine clamps the count by the
/// number of free executors, the job's remaining pending tasks, and the
/// per-job executor cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Target job.
    pub job: JobId,
    /// Target stage within the job.
    pub stage: StageId,
    /// Maximum number of tasks to dispatch now (the stage's parallelism
    /// allowance for this scheduling event).
    pub executors: usize,
}

impl Assignment {
    /// Creates an assignment.
    pub fn new(job: JobId, stage: StageId, executors: usize) -> Self {
        Assignment { job, stage, executors }
    }
}

/// Why the scheduler is being invoked: a typed view of the triggering
/// event.
///
/// The event only says why the policy runs.  What changed since a
/// policy's previous call comes from the change journal
/// ([`SchedulingContext::changes_since`]), never from this stream, and
/// stateless policies simply ignore it.
///
/// **The event stream is not a complete log.**  The engine consults a
/// policy only when there is something to decide — at least one free
/// executor and at least one dispatchable stage — so events that occur
/// while the cluster is saturated or drained (e.g. a job arriving while
/// every executor is busy) are never delivered.  Treat events as incremental
/// hints for state you could also recover from the context, not as the sole
/// source of truth: reconcile against [`SchedulingContext`] when exactness
/// matters.
#[derive(Debug, Clone, Copy)]
pub enum SchedEvent<'a> {
    /// A new job entered the system; `job` is its view in the current
    /// context.  Also delivered when a migrated job finishes its
    /// cross-region transfer and re-registers at this member — to the new
    /// owner, a migrant is indistinguishable from a fresh arrival (with
    /// progress already made).
    JobArrived {
        /// The newly arrived job.
        job: JobView<'a>,
    },
    /// `n` task(s) of `stage` of `job` finished, freeing executor(s).  The
    /// job may have completed (and left the active table) as a result.
    TasksCompleted {
        /// Job whose task(s) finished.
        job: JobId,
        /// Stage whose task(s) finished.
        stage: StageId,
        /// How many tasks finished in this event.
        n: usize,
    },
    /// The carbon intensity stepped from `prev` to `now` (the values may be
    /// equal if adjacent trace steps repeat).
    CarbonChanged {
        /// Intensity in effect before this carbon step.
        prev: f64,
        /// Intensity in effect from now on.
        now: f64,
    },
    /// `n` task(s) of `stage` of `job` were lost to an executor crash and
    /// will be re-dispatched after their retry backoff.  Advisory, like the
    /// rest of the stream: delivered only when the member still has
    /// something to decide at the crash instant.
    TasksFailed {
        /// Job whose task(s) were lost.
        job: JobId,
        /// Stage whose task(s) were lost.
        stage: StageId,
        /// How many tasks were lost in this event.
        n: usize,
    },
    /// The engine is re-invoking the policy at the same instant after
    /// applying its previous assignments, because free executors remain,
    /// or consulting a member whose outage just ended.
    Kick,
}

/// The engine-owned, reused buffer a scheduler writes its decisions into.
///
/// One sink lives for a whole simulation run; the engine clears it before
/// every invocation (keeping capacity), so pushing decisions allocates
/// nothing in the steady state.  Wrapper schedulers that need to inspect an
/// inner policy's decisions before forwarding them own a private sink of
/// their own (see `Cap` in `pcaps-core`).
#[derive(Debug, Clone, Default)]
pub struct DecisionSink {
    assignments: Vec<Assignment>,
}

impl DecisionSink {
    /// Creates an empty sink.  The engine creates one per run; tests and
    /// wrapper schedulers create their own.
    pub fn new() -> Self {
        DecisionSink::default()
    }

    /// Records an assignment.
    pub fn assign(&mut self, assignment: Assignment) {
        self.assignments.push(assignment);
    }

    /// Convenience for `assign(Assignment::new(job, stage, executors))`.
    pub fn dispatch(&mut self, job: JobId, stage: StageId, executors: usize) {
        self.assign(Assignment::new(job, stage, executors));
    }

    /// The assignments recorded since the last [`DecisionSink::clear`].
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Clears the recorded assignments while keeping buffer capacity —
    /// called by the engine before every invocation.
    pub fn clear(&mut self) {
        self.assignments.clear();
    }
}

/// A scheduling policy (API v2).
///
/// Implementations must be deterministic given their own internal RNG state;
/// the engine itself introduces no randomness.  Recording no decision idles
/// the free executors until the next scheduling event.
pub trait Scheduler {
    /// Human-readable policy name used in result tables.
    fn name(&self) -> &str;

    /// Called at every scheduling event with the triggering event, the
    /// cluster context, and the sink to write decisions into.
    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_dag::{JobDagBuilder, Task};
    use std::sync::Arc;

    fn make_dag() -> JobDag {
        JobDagBuilder::new("j")
            .stage("a", vec![Task::new(1.0), Task::new(1.0)])
            .stage("b", vec![Task::new(2.0)])
            .edge_by_name("a", "b")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn context_dispatchable_lists_ready_stages() {
        let dag = Arc::new(make_dag());
        let active = vec![ActiveJob::new(JobId(0), dag, 0.0)];
        let slots = vec![Some(0u32)];
        let ctx = SchedulingContext::new(
            0.0,
            CarbonView::flat(300.0),
            4,
            4,
            0,
            4,
            &active,
            &slots,
            0,
            4.0,
        );
        assert!(ctx.has_dispatchable_work());
        let pairs: Vec<_> = ctx.dispatchable_iter().collect();
        assert_eq!(pairs, vec![(JobId(0), StageId(0))]);
        assert_eq!(ctx.queue_length(), 1);
        assert_eq!(ctx.jobs().len(), 1);
        assert_eq!(ctx.job_at(0).id, JobId(0));
        assert!(ctx.job(JobId(0)).is_some());
        assert!(ctx.job(JobId(9)).is_none());
        assert!((ctx.job(JobId(0)).unwrap().remaining_work() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn slot_table_lookup_matches_linear_scan() {
        let dag = Arc::new(make_dag());
        // Jobs 1 and 3 are active; 0 completed, 2 not arrived.
        let active = vec![
            ActiveJob::new(JobId(1), dag.clone(), 1.0),
            ActiveJob::new(JobId(3), dag, 3.0),
        ];
        let slots = vec![None, Some(0u32), None, Some(1u32)];
        let ctx = SchedulingContext::new(
            5.0,
            CarbonView::flat(100.0),
            4,
            4,
            0,
            4,
            &active,
            &slots,
            0,
            0.0,
        );
        assert_eq!(ctx.job(JobId(1)).unwrap().arrival, 1.0);
        assert_eq!(ctx.job(JobId(3)).unwrap().arrival, 3.0);
        assert!(ctx.job(JobId(0)).is_none());
        assert!(ctx.job(JobId(2)).is_none());
        assert!(ctx.job(JobId(40)).is_none());
    }

    #[test]
    fn flat_carbon_view() {
        let c = CarbonView::flat(123.0);
        assert_eq!(c.intensity, 123.0);
        assert_eq!(c.lower_bound, c.upper_bound);
    }

    #[test]
    fn carbon_view_constructor_keeps_bounds() {
        let c = CarbonView::new(200.0, 100.0, 300.0);
        assert_eq!(c.intensity, 200.0);
        assert_eq!(c.lower_bound, 100.0);
        assert_eq!(c.upper_bound, 300.0);
    }

    #[test]
    #[should_panic(expected = "bounds must contain")]
    #[cfg(debug_assertions)]
    fn carbon_view_rejects_inverted_bounds() {
        let _ = CarbonView::new(50.0, 100.0, 300.0);
    }

    #[test]
    fn assignment_constructor() {
        let a = Assignment::new(JobId(1), StageId(2), 3);
        assert_eq!(a.job, JobId(1));
        assert_eq!(a.stage, StageId(2));
        assert_eq!(a.executors, 3);
    }

    #[test]
    fn sink_records_and_clears() {
        let mut sink = DecisionSink::new();
        assert!(sink.assignments().is_empty());
        sink.dispatch(JobId(0), StageId(1), 2);
        sink.assign(Assignment::new(JobId(1), StageId(0), 1));
        assert_eq!(
            sink.assignments(),
            &[
                Assignment::new(JobId(0), StageId(1), 2),
                Assignment::new(JobId(1), StageId(0), 1),
            ]
        );
        sink.clear();
        assert!(sink.assignments().is_empty());
    }

    #[test]
    fn change_cursors_match_only_their_own_run_and_generation() {
        let dag = Arc::new(make_dag());
        let active = vec![ActiveJob::new(JobId(0), dag.clone(), 0.0), ActiveJob::new(JobId(1), dag, 0.0)];
        let slots = vec![Some(0u32), Some(1u32)];
        let ctx = |run, generation, changes| {
            SchedulingContext::new(0.0, CarbonView::flat(1.0), 4, 4, 0, 4, &active, &slots, 0, 0.0)
                .with_journal(run, generation, changes)
        };
        let hand_built =
            SchedulingContext::new(0.0, CarbonView::flat(1.0), 4, 4, 0, 4, &active, &slots, 0, 0.0);
        assert_eq!(hand_built.changes_since(hand_built.cursor()), None, "no journal");
        assert!(!hand_built.same_run(hand_built.cursor()));

        let taken = ctx(7, 2, &[1]).cursor();
        let later = ctx(7, 2, &[1, 0, 1]);
        assert!(later.same_run(taken));
        assert_eq!(later.changes_since(taken), Some(&[0, 1][..]));
        assert_eq!(later.changes_since(later.cursor()), Some(&[][..]));
        assert_eq!(ctx(7, 3, &[0]).changes_since(taken), None, "a newer generation");
        assert!(ctx(7, 3, &[0]).same_run(taken));
        assert_eq!(ctx(8, 2, &[1, 0, 1]).changes_since(taken), None, "another run");
        assert!(!ctx(8, 2, &[1, 0, 1]).same_run(taken));
        assert_eq!(hand_built.changes_since(taken), None);
    }

    /// A slot table carried with a non-zero base (serve-mode compaction)
    /// must still resolve ids O(1) and reject ids below the base.
    #[test]
    fn slot_lookup_honours_compaction_base() {
        let dag = Arc::new(make_dag());
        let active = vec![ActiveJob::new(JobId(101), dag, 1.0)];
        // Jobs 0..100 retired and compacted away; the table starts at 100.
        let slots = vec![None, Some(0u32)];
        let ctx = SchedulingContext::new(
            5.0,
            CarbonView::flat(100.0),
            4,
            4,
            0,
            4,
            &active,
            &slots,
            100,
            0.0,
        );
        assert_eq!(ctx.job(JobId(101)).unwrap().arrival, 1.0);
        assert!(ctx.job(JobId(100)).is_none(), "retired slot");
        assert!(ctx.job(JobId(7)).is_none(), "below the base");
        assert!(ctx.job(JobId(400)).is_none(), "past the table");
    }
}
