//! The interface between the simulation engine and scheduling policies
//! (API v2).
//!
//! At every *scheduling event* the engine builds a [`SchedulingContext`]
//! describing the cluster and invokes [`Scheduler::on_event`] with a typed
//! [`SchedEvent`] saying *why* the policy is being consulted (a job arrived,
//! tasks completed, the carbon intensity changed, a requested wakeup fired,
//! or the engine is re-invoking after applying assignments) and an
//! engine-owned [`DecisionSink`] to write decisions into.  Writing nothing
//! means "idle the free executors until the next event" — this is how
//! carbon-aware policies defer work (Algorithm 1, line 10).
//!
//! Beyond [`Assignment`]s, the sink accepts two *control verbs* that turn
//! passive deferral into scheduled resumption:
//!
//! * [`DecisionSink::defer_until`] — ask the engine to enqueue a
//!   [`SchedEvent::Wakeup`] at an exact future time.  Timer wakeups pierce
//!   the carbon-step granularity: a policy can resume at 13:41:07, not just
//!   at the next hourly carbon boundary.
//! * [`DecisionSink::defer_below`] — ask to be woken the first time the
//!   carbon intensity drops to or below a threshold.  The engine resolves
//!   the crossing against the carbon trace (O(log trace) via its range-min
//!   index) and enqueues the wakeup at that instant, so a deferring policy
//!   is not re-invoked to rescan the world at every intermediate event.
//!
//! Both verbs return a [`WakeupToken`] that is echoed back in the matching
//! [`SchedEvent::Wakeup`].  Wakeups are *advisory*: they are delivered only
//! if there are free executors and dispatchable work at the fire time (when
//! there is nothing to decide the engine does not consult policies at all),
//! and wrapper schedulers (CAP) may re-issue an inner policy's verbs under
//! fresh tokens, so a policy must treat an unrecognised token as a generic
//! "conditions may have changed" nudge rather than an error.
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
//!   invocations: its buffers are cleared, not dropped, so once their
//!   capacity has warmed up a decision costs zero allocations,
//! * [`SchedEvent`] is a `Copy` view assembled from borrows.
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
    /// True if the carbon signal has dropped out and this view is frozen at
    /// the last-known intensity (with `L = c = U`, since no forecast is
    /// available either).  Carbon-aware policies may fall back to
    /// carbon-agnostic behaviour while the signal is stale; ignoring the
    /// flag degrades gracefully to scheduling against the frozen value.
    pub stale: bool,
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
        CarbonView {
            intensity,
            lower_bound,
            upper_bound,
            stale: false,
        }
    }

    /// A carbon view for a grid with no variability (L = U = c); useful in
    /// tests and for carbon-agnostic runs.
    pub fn flat(intensity: f64) -> Self {
        CarbonView::new(intensity, intensity, intensity)
    }

    /// The view of a member whose carbon signal has dropped out: frozen
    /// flat at the last-known `intensity` with [`CarbonView::stale`] set.
    pub fn stale_at(intensity: f64) -> Self {
        CarbonView { intensity, lower_bound: intensity, upper_bound: intensity, stale: true }
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

    /// Remaining undispatched work in executor-seconds (O(num_stages),
    /// answered from cached per-stage duration suffix sums).
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
    /// id.  `None` for contexts assembled outside the engine (lookup falls
    /// back to a linear scan).
    slots: Option<&'a [Option<u32>]>,
    /// Id of the first job the slot table still covers.  Open-loop serving
    /// runs compact retired jobs off the front of the engine's tables; the
    /// base keeps id lookups O(1) without the table growing with every job
    /// ever seen.  Always 0 for finite runs and hand-built contexts.
    slot_base: usize,
    /// Engine-maintained total of owned-but-undispatched task work
    /// (executor-seconds) across the active jobs — the same incremental
    /// counter routers and migration policies see as
    /// `MemberView::outstanding_work`.  `None` for hand-built contexts;
    /// [`SchedulingContext::outstanding_work`] then falls back to a
    /// per-job fold.
    outstanding_work: Option<f64>,
}

impl<'a> SchedulingContext<'a> {
    /// Builds a context over a slice of active jobs (ordered by arrival).
    ///
    /// `slots`, if provided, must map every active job's id to its index in
    /// `active`; the engine maintains this table incrementally.  Pass `None`
    /// when assembling a context by hand (tests, custom harnesses).
    pub fn new(
        time: f64,
        carbon: CarbonView,
        total_executors: usize,
        free_executors: usize,
        busy_executors: usize,
        per_job_cap: usize,
        active: &'a [ActiveJob],
        slots: Option<&'a [Option<u32>]>,
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
            slot_base: 0,
            outstanding_work: None,
        }
    }

    /// Sets the id offset of the slot table (see the `slot_base` field).
    /// The engine threads its compaction base through here; hand-built
    /// contexts can ignore it.
    pub fn with_slot_base(mut self, base: usize) -> Self {
        self.slot_base = base;
        self
    }

    /// Supplies the engine's incrementally maintained outstanding-work
    /// aggregate (see the `outstanding_work` field).  Hand-built contexts
    /// can skip this; the accessor falls back to a fold.
    pub fn with_outstanding_work(mut self, work: f64) -> Self {
        self.outstanding_work = Some(work);
        self
    }

    /// Total undispatched task work (executor-seconds) across the active
    /// jobs.  O(1) for engine-built contexts — answered from the same
    /// incremental per-member counter that routing and migration consult —
    /// and an O(jobs × stages) remaining-work fold for hand-built ones.
    ///
    /// The two forms can differ in the last bits (the counter accumulates
    /// arrival/dispatch/migration deltas over the run; the fold re-sums per
    /// call) and, on faulted runs, by tasks sitting in retry backoff (the
    /// counter excludes work that cannot be dispatched yet; the fold
    /// includes it) — callers comparing against a recomputation should use
    /// a tolerance, not bit equality.
    pub fn outstanding_work(&self) -> f64 {
        self.outstanding_work
            .unwrap_or_else(|| self.jobs().map(|j| j.remaining_work()).sum())
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

    /// Looks up the view for a job id.  O(1) for engine-built contexts.
    pub fn job(&self, id: JobId) -> Option<JobView<'a>> {
        match self.slots {
            Some(slots) => {
                let idx = id.index().checked_sub(self.slot_base)?;
                let slot = *slots.get(idx)?;
                slot.map(|i| JobView::of(&self.active[i as usize]))
            }
            None => self
                .active
                .iter()
                .find(|j| j.id == id)
                .map(JobView::of),
        }
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

/// Identifies a wakeup requested through [`DecisionSink::defer_until`] or
/// [`DecisionSink::defer_below`]; echoed back in [`SchedEvent::Wakeup`].
///
/// Tokens are unique within one simulation run.  They identify *which*
/// request fired; policies holding several outstanding wakeups can tell
/// them apart, and policies holding none should treat any token as a
/// generic nudge (wrappers may re-issue inner verbs under fresh tokens).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WakeupToken(pub u64);

/// Why the scheduler is being invoked: a typed view of the triggering
/// event.
///
/// Stateful policies use this to update incrementally instead of rescanning
/// the whole context on every call; stateless policies simply ignore it.
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
    /// A wakeup requested via [`DecisionSink::defer_until`] or
    /// [`DecisionSink::defer_below`] fired.
    Wakeup {
        /// The token the verb returned when the wakeup was requested.
        token: WakeupToken,
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
    /// This member's availability changed: `false` when a region outage
    /// starts (the member stops dispatching and drains), `true` when it
    /// ends.  Advisory and lossy — a policy that needs exact availability
    /// must reconcile against the context like any other derived state.
    MemberAvailability {
        /// Whether the member is dispatching from now on.
        available: bool,
    },
    /// The engine is re-invoking the policy at the same instant after
    /// applying its previous assignments, because free executors remain.
    Kick,
}

/// A control verb recorded in a [`DecisionSink`], to be resolved by the
/// engine into a real timer/threshold event on the event queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeferRequest {
    /// Wake the policy at an exact schedule time.
    Until {
        /// Absolute schedule time (seconds) at which to fire.
        time: f64,
        /// Token echoed back in the wakeup event.
        token: WakeupToken,
    },
    /// Wake the policy the first time the carbon intensity is at or below
    /// `intensity`.
    Below {
        /// Intensity threshold (gCO₂eq/kWh).
        intensity: f64,
        /// Token echoed back in the wakeup event.
        token: WakeupToken,
    },
}

/// The engine-owned, reused buffer a scheduler writes its decisions into.
///
/// One sink lives for a whole simulation run; the engine clears it before
/// every invocation (keeping capacity and the token counter), so pushing
/// decisions allocates nothing in the steady state.  Wrapper schedulers that
/// need to inspect an inner policy's decisions before forwarding them own a
/// private sink of their own (see `Cap` in `pcaps-core`).
#[derive(Debug, Clone, Default)]
pub struct DecisionSink {
    assignments: Vec<Assignment>,
    deferrals: Vec<DeferRequest>,
    next_token: u64,
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

    /// Asks the engine to fire a [`SchedEvent::Wakeup`] at the absolute
    /// schedule time `time`.  Requests at or before the current instant are
    /// dropped by the engine (the policy is being invoked *now*).
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn defer_until(&mut self, time: f64) -> WakeupToken {
        assert!(time.is_finite(), "wakeup time must be finite, got {time}");
        let token = self.issue_token();
        self.deferrals.push(DeferRequest::Until { time, token });
        token
    }

    /// Asks the engine to fire a [`SchedEvent::Wakeup`] at the first future
    /// carbon step whose intensity is at or below `intensity`.  If the trace
    /// never goes that low, no wakeup is scheduled (the regular carbon-step
    /// events still occur).
    ///
    /// # Panics
    /// Panics if `intensity` is not finite.
    pub fn defer_below(&mut self, intensity: f64) -> WakeupToken {
        assert!(
            intensity.is_finite(),
            "intensity threshold must be finite, got {intensity}"
        );
        let token = self.issue_token();
        self.deferrals.push(DeferRequest::Below { intensity, token });
        token
    }

    /// The assignments recorded since the last [`DecisionSink::clear`].
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The control verbs recorded since the last [`DecisionSink::clear`].
    pub fn deferrals(&self) -> &[DeferRequest] {
        &self.deferrals
    }

    /// True if neither assignments nor deferrals were recorded.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty() && self.deferrals.is_empty()
    }

    /// Clears the recorded decisions while keeping buffer capacity and the
    /// token counter — called by the engine before every invocation.
    pub fn clear(&mut self) {
        self.assignments.clear();
        self.deferrals.clear();
    }

    fn issue_token(&mut self) -> WakeupToken {
        let token = WakeupToken(self.next_token);
        self.next_token += 1;
        token
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
        let ctx = SchedulingContext::new(
            0.0,
            CarbonView::flat(300.0),
            4,
            4,
            0,
            4,
            &active,
            None,
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
    fn context_is_usable_without_a_slot_table() {
        let dag = Arc::new(make_dag());
        let active = vec![ActiveJob::new(JobId(0), dag, 0.0)];
        let ctx = SchedulingContext::new(
            0.0,
            CarbonView::flat(300.0),
            4,
            4,
            0,
            4,
            &active,
            None,
        );
        assert!(ctx.has_dispatchable_work());
        assert_eq!(
            ctx.dispatchable_iter().collect::<Vec<_>>(),
            vec![(JobId(0), StageId(0))]
        );
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
            Some(&slots),
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
        assert!(!c.stale, "live views are not stale");
    }

    #[test]
    fn stale_carbon_view_is_frozen_flat() {
        let c = CarbonView::stale_at(321.0);
        assert!(c.stale);
        assert_eq!((c.intensity, c.lower_bound, c.upper_bound), (321.0, 321.0, 321.0));
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
        assert!(sink.is_empty());
        sink.dispatch(JobId(0), StageId(1), 2);
        sink.assign(Assignment::new(JobId(1), StageId(0), 1));
        let t0 = sink.defer_until(10.0);
        let t1 = sink.defer_below(250.0);
        assert_ne!(t0, t1, "tokens must be unique");
        assert_eq!(sink.assignments().len(), 2);
        assert_eq!(
            sink.deferrals(),
            &[
                DeferRequest::Until { time: 10.0, token: t0 },
                DeferRequest::Below { intensity: 250.0, token: t1 },
            ]
        );
        assert!(!sink.is_empty());
        sink.clear();
        assert!(sink.is_empty());
        // Tokens keep counting after a clear — they are run-scoped.
        let t2 = sink.defer_until(20.0);
        assert!(t2.0 > t1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sink_rejects_nan_wakeup_time() {
        let mut sink = DecisionSink::new();
        let _ = sink.defer_until(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sink_rejects_nan_threshold() {
        let mut sink = DecisionSink::new();
        let _ = sink.defer_below(f64::INFINITY);
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
            Some(&slots),
        )
        .with_slot_base(100);
        assert_eq!(ctx.job(JobId(101)).unwrap().arrival, 1.0);
        assert!(ctx.job(JobId(100)).is_none(), "retired slot");
        assert!(ctx.job(JobId(7)).is_none(), "below the base");
        assert!(ctx.job(JobId(400)).is_none(), "past the table");
    }
}
