//! The discrete-event simulation engine (federated).
//!
//! One `Engine` drives every member cluster of a [`Federation`] from a
//! single shared event queue, so multi-region runs are exactly as
//! deterministic as single-cluster runs.  The single-cluster [`Simulator`]
//! is a thin wrapper over a one-member federation.
//!
//! ## Hot-path design
//!
//! The engine is built so that the per-event cost of a scheduling decision is
//! *incremental* rather than recomputed, per member:
//!
//! * the workload is **pulled, not preloaded**: arrivals come from an
//!   [`ArrivalSource`] through a one-job lookahead window that the event
//!   loop interleaves with the queue by time (arrivals win ties, preserving
//!   the ordering that enqueueing the whole workload up front used to give),
//!   so a lazy source builds each job only when its arrival is imminent and
//!   resident state is O(active jobs + O(1)-per-seen-job bookkeeping) —
//!   never O(total workload) of materialized DAGs,
//! * each member's active-job table (`active` + `slots`) is maintained
//!   across events — arrival pushes, completion removes — so building a
//!   [`SchedulingContext`] is a pair of slice borrows with **zero
//!   allocation** per invocation,
//! * each member owns one run-scoped [`DecisionSink`] whose buffers are
//!   cleared (not reallocated) per invocation, so a native v2 scheduler
//!   invocation allocates nothing in the steady state,
//! * job DAGs are shared (`Arc<JobDag>`), so activating a job bumps a
//!   reference count instead of deep-cloning every stage and task, and
//!   workload validation happens once in [`Federation::new`], not per run;
//!   a DAG is flat (one task array, one name arena), so a dispatch reads
//!   its task from one contiguous array and retiring a job frees a fixed
//!   handful of blocks, not two per stage,
//! * runnable/dispatchable stage sets and remaining-work sums are maintained
//!   incrementally inside [`pcaps_dag::JobProgress`], whose packed
//!   per-stage task counts let a task finish decide stage completion
//!   without reading the DAG,
//! * each member's executor pool keeps an idle-executor bitmask, so picking
//!   an executor for a dispatch visits only the idle ones (O(words + idle),
//!   not O(executors)) and still returns the executor the full scan would,
//! * a scheduling pass first checks that some active job has dispatchable
//!   work and returns before building the carbon view and the
//!   [`SchedulingContext`] when none has — the common case after a task
//!   finish whose stage-mates are still running,
//! * each member journals the active-table index of every job whose
//!   progress it mutates (every such mutation goes through
//!   `MemberState::job_mut`), so a policy revalidates only the jobs that
//!   moved ([`SchedulingContext::changes_since`]),
//! * carbon bounds come from each member trace's O(1) forecast-bounds table,
//! * routing decisions see per-member queue depth and outstanding work that
//!   are maintained incrementally (O(1) per arrival/dispatch), and the
//!   [`MemberView`] buffer handed to the router is reused across arrivals,
//! * migration consultations (multi-member federations with a non-inert
//!   policy only) reuse that same view buffer plus a candidate buffer, and
//!   applying a migration fixes both members' counters in O(changed) — the
//!   source slot reindex costs what a completion does, and nothing is
//!   rescanned,
//! * a scheduler call is one virtual call and nothing else: the engine
//!   reads no wall clock, so timing a policy is a forwarding [`Scheduler`]
//!   outside the engine.
//!
//! ## State layout
//!
//! An `Engine` is four things: the borrowed [`Federation`] (members'
//! static configuration and traces, the network topology, the fault
//! schedule), the run's one [`ArrivalSource`] (a materialized run pulls
//! from a clone of the federation's workload), scratch buffers that are
//! cleared before every use, and one `RunState` holding every field a run
//! changes.  A serve-mode [`EngineSnapshot`] is that state's `Clone`, so a
//! field added to the run state is captured by construction.
//!
//! [`Federation`]: crate::federation::Federation
//! [`Federation::new`]: crate::federation::Federation::new

use crate::admission::{AdmissionDecision, AdmissionPolicy};
use crate::config::{ClusterConfig, ProfileMode};
use crate::error::{PartialRunSummary, SimError};
use crate::event::{Event, EventQueue};
use crate::executor::{ExecutorPool, RunningTask};
use crate::faults::{
    CrashVictim, FaultEffect, FaultInjection, FaultKind, FaultPlan, FaultRecord, FaultSchedule,
    RetryPolicy,
};
use crate::federation::{Federation, Member};
use crate::job_state::{check_arrival, check_data_gb, ActiveJob, JobRecord, SubmittedJob};
use crate::network::{FlowArrivalPlan, FlowSet};
use crate::source::ArrivalSource;
use crate::profile::UsageProfile;
use crate::result::{FederationResult, MemberResult, MigrationRecord, SimulationResult};
use crate::routing::{
    MemberView, MigrationCandidate, MigrationContext, MigrationPolicy, MigrationSink, Router,
    RoutingContext, StaticRouter,
};
use crate::scheduler_api::{
    Assignment, CarbonView, DecisionSink, SchedEvent, Scheduler, SchedulingContext,
};
use pcaps_carbon::{CarbonAccountant, CarbonTrace};
use pcaps_dag::{JobId, StageId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A configured single-cluster simulation, ready to be run against a
/// scheduling policy.
///
/// Since the federation refactor this is a thin wrapper over a one-member
/// [`Federation`] driven by a [`StaticRouter`]; its results are bit-identical
/// to the pre-federation single-cluster engine.  The same `Simulator` can be
/// run multiple times with different schedulers — every run starts from a
/// pristine copy of the workload, so results are directly comparable (this
/// is how the experiment harness produces the "normalised with respect to
/// baseline" numbers of Tables 2 and 3).
#[derive(Debug, Clone)]
pub struct Simulator {
    federation: Federation,
}

impl Simulator {
    /// Creates a simulator.  The workload is sorted by arrival time; job ids
    /// are assigned in arrival order.  The configuration and every job are
    /// validated here, once — [`Simulator::run`] reports the failure without
    /// re-walking the DAGs.
    pub fn new(config: ClusterConfig, workload: Vec<SubmittedJob>, carbon: CarbonTrace) -> Self {
        let label = carbon.label.clone();
        Simulator {
            federation: Federation::new(vec![Member::new(label, config, carbon)], workload),
        }
    }

    /// Creates a simulator with no materialized workload, for streaming runs
    /// via [`Simulator::run_source`]: jobs are pulled from an
    /// [`ArrivalSource`] per run instead of being stored on the simulator.
    /// [`Simulator::run`] on a streaming simulator reports
    /// [`SimError::EmptyWorkload`].
    pub fn streaming(config: ClusterConfig, carbon: CarbonTrace) -> Self {
        let label = carbon.label.clone();
        Simulator {
            federation: Federation::streaming(vec![Member::new(label, config, carbon)]),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.federation.members()[0].config
    }

    /// Attaches a fault plan, materialising it against this cluster's shape
    /// (see [`Federation::with_fault_plan`]).
    pub fn with_fault_plan(mut self, plan: &dyn FaultPlan) -> Self {
        self.federation = self.federation.with_fault_plan(plan);
        self
    }

    /// Attaches an already materialised fault schedule (see
    /// [`Federation::with_fault_schedule`]).
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.federation = self.federation.with_fault_schedule(schedule);
        self
    }

    /// Sets the retry policy applied to crashed tasks (see
    /// [`Federation::with_retry_policy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.federation = self.federation.with_retry_policy(retry);
        self
    }

    /// The jobs known up front: the full workload for a materialized
    /// simulator ([`Simulator::new`]), empty for a streaming one
    /// ([`Simulator::streaming`], where jobs exist only as a run pulls them
    /// — the per-run count is [`SimulationResult::jobs_submitted`] and the
    /// per-job records are [`SimulationResult::jobs`]).
    ///
    /// [`SimulationResult::jobs`]: crate::result::SimulationResult::jobs
    /// [`SimulationResult::jobs_submitted`]: crate::result::SimulationResult::jobs_submitted
    pub fn known_jobs(&self) -> &[SubmittedJob] {
        self.federation.workload()
    }

    /// The carbon trace the run is accounted against.
    pub fn carbon(&self) -> &CarbonTrace {
        &self.federation.members()[0].carbon
    }

    /// The underlying one-member federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Runs the simulation to completion with the given scheduler.
    pub fn run(&self, scheduler: &mut dyn Scheduler) -> Result<SimulationResult, SimError> {
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler];
        let result = self.federation.run(&mut router, &mut schedulers)?;
        Ok(result.into_single())
    }

    /// Runs the simulation to completion, pulling the workload from
    /// `source` instead of the simulator's materialized workload (see
    /// [`Federation::run_source`] for the intake semantics).  The source is
    /// consumed; streaming reruns construct a fresh source per run.
    pub fn run_source(
        &self,
        source: &mut dyn ArrivalSource,
        scheduler: &mut dyn Scheduler,
    ) -> Result<SimulationResult, SimError> {
        let mut router = StaticRouter::new(0);
        let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler];
        let result = self.federation.run_source(source, &mut router, &mut schedulers)?;
        Ok(result.into_single())
    }
}

impl Member {
    /// Converts a schedule time to this member's carbon-trace time.
    fn carbon_time(&self, t: f64) -> f64 {
        t * self.config.time_scale
    }

    /// The member's carbon step expressed in schedule time.
    fn carbon_step_schedule(&self) -> f64 {
        self.carbon.step / self.config.time_scale
    }

    /// The carbon signal at schedule time `time`: the trace's intensity and
    /// its bounds over the next
    /// [`FORECAST_HORIZON`](crate::config::FORECAST_HORIZON).
    fn carbon_view(&self, time: f64) -> CarbonView {
        let ct = self.carbon_time(time);
        let intensity = self.carbon.intensity(ct);
        let (lower_bound, upper_bound) = self.carbon.bounds(ct);
        CarbonView::new(intensity, lower_bound, upper_bound)
    }

    /// Mean intensity of the member's trace over the schedule-time interval
    /// `[t0, t1]` (converted to its carbon time), degenerating to the
    /// instantaneous intensity for a zero-duration interval.
    fn mean_intensity(&self, t0: f64, t1: f64) -> f64 {
        let ct0 = self.carbon_time(t0);
        let ct1 = self.carbon_time(t1);
        if ct1 > ct0 {
            self.carbon.integrate(ct0, ct1) / (ct1 - ct0)
        } else {
            self.carbon.intensity(ct0)
        }
    }
}

/// Source of change-journal run stamps, shared by every member of every
/// run in the process, so no two runs (or restored timelines) share one.
/// It starts at 1: stamp 0 marks a context without a journal.
static NEXT_RUN_STAMP: AtomicU64 = AtomicU64::new(1);

/// A member's change journal: the active-table indices of the jobs whose
/// progress the engine mutated during the current generation, in mutation
/// order.  A scheduling context exposes it through
/// [`SchedulingContext::changes_since`].
#[derive(Debug, Clone)]
struct ChangeJournal {
    /// Identifies this member's run and timeline: drawn when the run state
    /// is built and again when a snapshot is restored.
    run: u64,
    /// Counts resets within the run.
    generation: u64,
    entries: Vec<u32>,
}

impl ChangeJournal {
    fn new() -> Self {
        ChangeJournal {
            run: NEXT_RUN_STAMP.fetch_add(1, Ordering::Relaxed),
            generation: 0,
            entries: Vec::new(),
        }
    }

    /// Starts a new generation: no cursor taken before matches it.
    fn reset(&mut self) {
        self.generation += 1;
        self.entries.clear();
    }

    /// Records a mutation of the job at `idx` in a table of `active` jobs.
    /// A journal holding four entries per active job starts a new
    /// generation instead of growing.  A repeat of the latest entry is
    /// kept: a cursor may have been taken between the two.
    fn record(&mut self, idx: usize, active: usize) {
        if self.entries.len() >= 4 * active {
            self.reset();
        }
        self.entries.push(idx as u32);
    }
}

/// Mutable state of one member cluster during a run.  The member's static
/// description (label, configuration, carbon trace) stays on the
/// federation's [`Member`], passed alongside as `spec` where both are
/// needed, so this state borrows nothing and its `Clone` is a snapshot.
#[derive(Debug, Clone)]
struct MemberState {
    executors: ExecutorPool,
    /// Arrived, incomplete jobs routed to this member, in arrival
    /// (= ascending id) order.  This is the table the scheduling context
    /// borrows; arrival pushes to the back, completion removes in place — no
    /// per-invocation rebuild.
    active: Vec<ActiveJob>,
    /// Indices into `active` of the jobs whose progress changed, for the
    /// scheduler's next pass (see [`MemberState::job_mut`]).  Reset
    /// whenever `active` gains or loses a job.
    journal: ChangeJournal,
    /// `slots[id - slot_base]` is the job's index in `active` (`None`: not
    /// arrived, not routed here, or already complete — the engine's global
    /// job table disambiguates).  Grows as jobs are seen (streaming intake
    /// has no up-front workload length); ids past the end read as `None`.
    slots: Vec<Option<u32>>,
    /// Ids below this base were retired by serve-mode compaction and their
    /// slot entries dropped; such jobs are settled everywhere, so their
    /// slots were already `None`.  Always 0 on finite runs.
    slot_base: usize,
    /// Arrivals turned away by the run's [`AdmissionPolicy`] after the
    /// router chose this member.  Always 0 without a policy.
    jobs_rejected: usize,
    profile: UsageProfile,
    records: Vec<JobRecord>,
    tasks_dispatched: usize,
    /// Jobs this member currently owns or has completed: incremented by
    /// routing and migration arrivals, decremented by migration departures.
    /// At the end of a run this is the number of jobs that *finished* here.
    routed_jobs: usize,
    /// Executor-seconds of owned-but-undispatched task work (incremental:
    /// routing/migration-arrival adds a job's remaining work, each dispatch
    /// subtracts the task's duration, migration departure subtracts the
    /// job's remaining work).  Exposed to routers and migration policies as
    /// [`MemberView::outstanding_work`].
    outstanding_work: f64,
    /// Next carbon-intensity change of this member, in schedule time.
    next_carbon_change: f64,
    /// Intensity in effect as of the member's last carbon step (the `prev`
    /// of its next [`SchedEvent::CarbonChanged`]).
    current_intensity: f64,
    /// The member's run-scoped decision sink (cleared, never reallocated,
    /// per invocation).
    sink: DecisionSink,

    // --- Fault-layer state (all inert on fault-free runs) ---
    /// False while a [`FaultKind::RegionOutageStart`] window is open: the
    /// member stops dispatching (its scheduler is not consulted), running
    /// tasks drain, and routers/migration policies see
    /// [`MemberView::available`] `== false`.
    available: bool,
    /// Executor-seconds of work lost to crashes (dispatch-to-crash,
    /// move delay included).
    wasted_seconds: f64,
    /// Tasks killed by executor crashes.
    tasks_failed: usize,
    /// Crashed tasks re-released for dispatch after their backoff.
    retries: usize,
    /// Everything the fault layer did to this member, in firing order.
    fault_log: Vec<FaultRecord>,
}

impl MemberState {
    fn new(spec: &Member, jobs_hint: usize) -> Self {
        MemberState {
            executors: ExecutorPool::new(spec.config.num_executors),
            active: Vec::with_capacity(jobs_hint.min(1024)),
            journal: ChangeJournal::new(),
            slots: Vec::with_capacity(jobs_hint.min(1024)),
            slot_base: 0,
            jobs_rejected: 0,
            profile: UsageProfile::new(),
            records: Vec::new(),
            tasks_dispatched: 0,
            routed_jobs: 0,
            outstanding_work: 0.0,
            next_carbon_change: spec.carbon_step_schedule(),
            current_intensity: spec.carbon.intensity(0.0),
            sink: DecisionSink::new(),
            available: true,
            wasted_seconds: 0.0,
            tasks_failed: 0,
            retries: 0,
            fault_log: Vec::new(),
        }
    }

    /// The router's snapshot of this member.
    fn view(&self, spec: &Member, member: usize, time: f64) -> MemberView {
        MemberView {
            member,
            carbon: spec.carbon_view(time),
            queue_depth: self.active.len(),
            outstanding_work: self.outstanding_work,
            total_executors: spec.config.num_executors,
            free_executors: self.executors.free_count(),
            available: self.available,
        }
    }

    /// The scheduling context over this member's active table.
    fn context(&self, spec: &Member, time: f64) -> SchedulingContext<'_> {
        SchedulingContext::new(
            time,
            spec.carbon_view(time),
            spec.config.num_executors,
            self.executors.free_count(),
            self.executors.busy_count(),
            spec.config.job_cap(),
            &self.active,
            &self.slots,
            self.slot_base,
            self.outstanding_work,
        )
        .with_journal(self.journal.run, self.journal.generation, &self.journal.entries)
    }

    /// The active job at `idx`, borrowed to mutate its progress.  Every
    /// dispatch, task finish and retry release goes through here, so the
    /// change journal records the job before its progress moves.
    fn job_mut(&mut self, idx: usize) -> &mut ActiveJob {
        self.journal.record(idx, self.active.len());
        &mut self.active[idx]
    }

    /// Index of `job` in `active`, if it is active on this member.  Ids
    /// beyond the slots table (jobs this member never registered) or below
    /// the compaction base (retired, hence settled) read as not-active.
    fn slot(&self, job: JobId) -> Option<usize> {
        let idx = job.index().checked_sub(self.slot_base)?;
        self.slots.get(idx).copied().flatten().map(|i| i as usize)
    }

    /// Registers `job` at the back of the active table (fresh or migration
    /// arrival), growing the slots table as needed.  Retired ids never
    /// re-register (retirement requires settlement), so the base offset
    /// cannot underflow.
    fn register_active(&mut self, job: ActiveJob) {
        debug_assert!(
            job.id.index() >= self.slot_base,
            "a retired job cannot become active again"
        );
        let idx = job.id.index() - self.slot_base;
        if self.slots.len() <= idx {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx] = Some(self.active.len() as u32);
        self.active.push(job);
        self.journal.reset();
    }

    /// Drops slot entries for ids retired by engine compaction (all `None`
    /// already: retirement requires global settlement, and settled jobs hold
    /// no slot anywhere).  Amortised O(1) per retired job — each entry is
    /// drained exactly once over the life of the run.
    fn compact_slots(&mut self, new_base: usize) {
        let k = new_base.saturating_sub(self.slot_base).min(self.slots.len());
        if k > 0 {
            debug_assert!(self.slots[..k].iter().all(Option::is_none));
            self.slots.drain(..k);
        }
        self.slot_base = new_base;
    }

    /// Records a busy-executor sample unless the profile mode omits the
    /// usage series.
    fn record_usage_sample(&mut self, spec: &Member, time: f64) {
        if spec.config.profile_mode == ProfileMode::Full {
            self.profile.record_usage(time, self.executors.busy_count());
        }
    }

    /// Removes the job at `idx` from the active table (completion or
    /// migration departure), keeping `slots` consistent.  O(active jobs) on
    /// these (rare) paths so every scheduling invocation stays
    /// O(active jobs) overall.
    fn retire_active(&mut self, idx: usize) -> ActiveJob {
        let done = self.active.remove(idx);
        self.slots[done.id.index() - self.slot_base] = None;
        for (i, job) in self.active.iter().enumerate().skip(idx) {
            self.slots[job.id.index() - self.slot_base] = Some(i as u32);
        }
        self.journal.reset();
        done
    }
}

/// The next arrival, pulled from the source but not yet admitted — the
/// engine's entire lookahead window.
#[derive(Debug, Clone)]
struct PendingArrival {
    id: JobId,
    job: SubmittedJob,
}

/// Engine-global bookkeeping for one pulled job.
#[derive(Debug, Clone)]
struct JobSlot {
    /// Member the job currently belongs to (`None` before its arrival was
    /// processed; updated when a migration is applied — during the transfer
    /// the entry already names the destination, and `in_transit`
    /// disambiguates).
    routed: Option<u32>,
    /// True once the job's last task finished (global — a job completes on
    /// exactly one member).
    completed: bool,
    /// True if an [`AdmissionPolicy`] turned the arrival away — the job was
    /// never activated anywhere and counts as settled.
    rejected: bool,
    /// True once the job has left its original member at least once — stale
    /// assignments from a former owner are then forgiven as no-ops, while
    /// cross-member assignments to never-migrated jobs stay hard errors.
    migrated: bool,
    /// The job's stage count, kept so stale assignments to *completed* jobs
    /// retain their historical validation (out-of-range stage = hard error)
    /// without keeping the DAG alive after completion.
    stage_count: u32,
    /// Detached runtime state of a job currently migrating between members
    /// (on no member's active table); its flow's [`Event::FlowArrival`]
    /// re-registers it.  Boxed: a finite run keeps one slot per job it has
    /// seen, and few of them are ever in transit.
    in_transit: Option<Box<ActiveJob>>,
}

impl JobSlot {
    /// The job needs no further simulation: completed or rejected.
    fn settled(&self) -> bool {
        self.completed || self.rejected
    }
}

/// The engine's per-job table, indexed by id with a retirement base.
///
/// Finite runs keep `base == 0` and the table is exactly the old parallel
/// per-job vectors.  Serve-mode compaction pops settled, non-transit slots
/// off the front and advances `base`, so resident bookkeeping grows with
/// jobs *in system*, never with total jobs seen — the open-loop bounded-
/// memory invariant.  A retired id reads as "settled history": migrations
/// to it no-op and stale assignments are forgiven unconditionally (the
/// stage-count validation is the only thing compaction costs).
#[derive(Debug, Clone, Default)]
struct JobTable {
    base: usize,
    slots: VecDeque<JobSlot>,
}

impl JobTable {
    fn with_capacity(hint: usize) -> Self {
        JobTable { base: 0, slots: VecDeque::with_capacity(hint) }
    }

    fn push(&mut self, stage_count: u32) {
        self.slots.push_back(JobSlot {
            routed: None,
            completed: false,
            rejected: false,
            migrated: false,
            stage_count,
            in_transit: None,
        });
    }

    /// The slot for `id`, or `None` if the id was retired by compaction.
    /// Ids never pushed panic on the callers' index arithmetic by design —
    /// every caller bound-checks against [`JobTable::seen`] first.
    fn get(&self, id: usize) -> Option<&JobSlot> {
        self.slots.get(id.checked_sub(self.base)?)
    }

    fn get_mut(&mut self, id: usize) -> Option<&mut JobSlot> {
        let idx = id.checked_sub(self.base)?;
        self.slots.get_mut(idx)
    }

    /// Resident (non-retired) slots — what serve-mode memory is bounded by.
    fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Jobs pulled from the source so far: every pull pushes one slot and
    /// compaction only moves slots into `base`, so the next pull is
    /// assigned `JobId(seen())`.
    fn seen(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Pops settled, non-transit slots off the front and returns the new
    /// base.  Amortised O(1) per job over the life of the run.
    fn compact(&mut self) -> usize {
        while let Some(front) = self.slots.front() {
            if front.settled() && front.in_transit.is_none() {
                self.slots.pop_front();
                self.base += 1;
            } else {
                break;
            }
        }
        self.base
    }
}

/// Everything one run changes.  A serve-mode [`EngineSnapshot`] is this
/// struct's `Clone` and a restore is one assignment of it (plus a fresh
/// change-journal run stamp per member), so a field added here is captured
/// by construction.  The rest of the engine is the
/// read-only federation, the arrival source (which a restore re-attaches
/// at the snapshot's pull position) and scratch buffers cleared before
/// every use.
#[derive(Debug, Clone)]
struct RunState {
    time: f64,
    events: EventQueue,
    /// The one-job arrival lookahead window.  `None` once the source is
    /// drained — the window is refilled eagerly after every admission, so
    /// an empty window means exhaustion, never "not pulled yet".
    pending: Option<PendingArrival>,
    /// Latest arrival time pulled, for enforcing the source's
    /// ascending-arrival contract.
    last_arrival: f64,
    /// Per-job bookkeeping (routing, settlement, migration, transit state),
    /// indexed by id with a serve-mode retirement base; its length is the
    /// number of jobs pulled so far ([`JobTable::seen`]).
    jobs: JobTable,
    completed_jobs: usize,
    /// Arrivals turned away by the run's [`AdmissionPolicy`] (counted per
    /// member too).  A rejected job is settled: it never activates and the
    /// termination condition treats it like a completion.
    jobs_rejected: usize,
    /// True once [`Engine::preflight`] ran — serve sessions call it once
    /// and keep stepping the same engine.
    primed: bool,
    /// Every migration applied so far, in application order.
    migrations: Vec<MigrationRecord>,
    /// Cursor into the federation's fault schedule: the next injection to
    /// fire.  The no-fault hot path costs exactly one exhaustion check per
    /// loop iteration.
    next_fault: usize,
    /// Every migration in flight, as a flow over the federation's network
    /// topology.
    flows: FlowSet,
    /// Jobs currently draining toward a migration (their `ActiveJob` holds
    /// the destination).  At zero the event path skips the drain trigger's
    /// per-event lookup, so drain-free runs pay nothing for it.
    draining_jobs: usize,
    members: Vec<MemberState>,
}

/// One federated run: the federation it runs, where its arrivals come from,
/// its [`RunState`], and scratch buffers.
pub(crate) struct Engine<'a> {
    /// Members' static configuration and carbon traces, the network
    /// topology, the fault schedule and the retry policy — everything a run
    /// reads but never changes.
    fed: &'a Federation,
    /// Where arrivals come from (pulled through `state.pending`, never
    /// preloaded): an external source, or a clone of the federation's
    /// materialized workload.
    source: &'a mut dyn ArrivalSource,
    /// Whether pulled DAGs still need validation (false for a
    /// [prevalidated](ArrivalSource::prevalidated) source).
    validate_pulls: bool,
    /// Serve-mode flag: retire settled front slots of the job table (and
    /// every member's slot prefix) as arrivals come in.  Finite runs leave
    /// this off, so their per-job tables are bit-identical to the
    /// pre-compaction engine.
    compact: bool,
    /// The binding time limit: the smallest `max_sim_time` of any member.
    max_sim_time: f64,
    state: RunState,

    // --- Scratch buffers, cleared before every use (never snapshotted) ---
    /// Reused buffer for flow-arrival (re)scheduling plans.
    flow_plan_buf: Vec<FlowArrivalPlan>,
    /// Reused buffer for the per-arrival [`RoutingContext`] and the
    /// per-carbon-step [`MigrationContext`] — cleared and refilled per
    /// decision, never reallocated in the steady state.
    view_buf: Vec<MemberView>,
    /// Reused buffer for the per-carbon-step migration candidate list.
    candidate_buf: Vec<MigrationCandidate>,
    /// The run-scoped migration sink (cleared, never reallocated, per
    /// consultation).
    migration_sink: MigrationSink,
}

/// A job's migratable remainder: `(remaining executor-seconds of
/// undispatched work, remaining gigabytes to move)`.  The GB figure scales
/// the job's declared data size (carried on the [`ActiveJob`] since
/// streaming intake dropped the materialized workload) by its
/// undispatched-work fraction — migration moves in-flight DAG state, not a
/// full re-upload.  Both the candidate list offered to policies and the
/// charge applied by [`Engine::apply_migration`] go through this one
/// definition.
fn remaining_state(job: &ActiveJob) -> (f64, f64) {
    let remaining_work = job.progress.remaining_work(&job.dag);
    let total = job.total_work;
    let fraction = if total > 0.0 { remaining_work / total } else { 0.0 };
    (remaining_work, job.data_gb * fraction)
}

/// Engine-internal, borrow-free description of the event that triggers a
/// scheduling pass; materialised into a [`SchedEvent`] (which may borrow the
/// active-job table) per invocation inside [`Engine::schedule_loop`].
#[derive(Debug, Clone, Copy)]
enum EventSeed {
    JobArrived(JobId),
    TasksCompleted { job: JobId, stage: StageId, n: usize },
    TasksFailed { job: JobId, stage: StageId, n: usize },
    CarbonChanged { prev: f64, now: f64 },
    Kick,
}

/// One member's scheduling pass: consults the policy, applies its
/// assignments, and repeats with a `Kick` while dispatches land.  A free
/// function rather than an engine method because the context borrows the
/// member's active table while dispatches push onto the shared queue and
/// read the global job table: the arguments are that borrow split.
#[allow(clippy::too_many_arguments)]
#[inline]
fn member_schedule_pass(
    spec: &Member,
    member: &mut MemberState,
    target: usize,
    time: f64,
    jobs: &JobTable,
    events: &mut EventQueue,
    scheduler: &mut dyn Scheduler,
    sink: &mut DecisionSink,
    mut seed: EventSeed,
) -> Result<(), SimError> {
    loop {
        // An outaged member never dispatches — its scheduler is not even
        // consulted until the outage ends (running tasks drain on their
        // own; arrivals and completions still mutate state silently).
        if !member.available {
            return Ok(());
        }
        if member.executors.free_count() == 0 {
            return Ok(());
        }
        // Most task finishes leave every runnable stage fully dispatched
        // (the finished task's stage-mates are still running), so test for
        // work before paying for the carbon view and the context.
        // `carbon_view` is pure, so the order changes nothing else.
        if !member.active.iter().any(|j| j.progress.has_dispatchable_work()) {
            return Ok(());
        }
        let ctx = member.context(spec, time);
        let event = match seed {
            EventSeed::JobArrived(id) => match ctx.job(id) {
                Some(job) => SchedEvent::JobArrived { job },
                // Unreachable in practice: an arrival is active when its
                // scheduling pass starts.  Degrade to a kick, never skip.
                None => SchedEvent::Kick,
            },
            EventSeed::TasksCompleted { job, stage, n } => {
                SchedEvent::TasksCompleted { job, stage, n }
            }
            EventSeed::TasksFailed { job, stage, n } => {
                SchedEvent::TasksFailed { job, stage, n }
            }
            EventSeed::CarbonChanged { prev, now } => SchedEvent::CarbonChanged { prev, now },
            EventSeed::Kick => SchedEvent::Kick,
        };
        sink.clear();
        scheduler.on_event(event, &ctx, sink);
        if sink.assignments().is_empty() {
            return Ok(());
        }
        let dispatched =
            apply_assignments_for(spec, member, target, time, jobs, events, sink.assignments())?;
        if dispatched == 0 {
            return Ok(());
        }
        seed = EventSeed::Kick;
    }
}

/// Applies one member's assignments, returning the number of tasks
/// actually dispatched.  Task-finish events go to the shared queue.
#[inline]
fn apply_assignments_for(
    spec: &Member,
    member: &mut MemberState,
    target: usize,
    time: f64,
    jobs: &JobTable,
    events: &mut EventQueue,
    assignments: &[Assignment],
) -> Result<usize, SimError> {
    let mut dispatched = 0;
    for a in assignments {
        if a.job.index() >= jobs.seen() {
            return Err(SimError::InvalidAssignment {
                reason: format!("unknown job {}", a.job),
            });
        }
        let Some(idx) = member.slot(a.job) else {
            let Some(slot) = jobs.get(a.job.index()) else {
                // Retired by serve-mode compaction: settled history;
                // the stale assignment is forgiven unconditionally (the
                // stage-count validation retired with the slot).
                continue;
            };
            if slot.settled() {
                // An assignment to an already finished (or rejected) job
                // is a harmless no-op — but an out-of-range stage is
                // still a scheduler bug and keeps being reported (the
                // retained stage count outlives the retired job's DAG).
                if a.stage.index() >= slot.stage_count as usize {
                    return Err(SimError::InvalidAssignment {
                        reason: format!("{} has no {}", a.job, a.stage),
                    });
                }
                continue;
            }
            // Not settled and not active here: mid-migration, routed
            // to a different member, or not arrived at all.  A job that
            // has migrated at least once gets the same forgiveness as a
            // completed one — its former member's scheduler had no event
            // through which to learn it left (the SchedEvent stream is
            // advisory), so a stale assignment is a harmless no-op.  A
            // *never*-migrated job on another member stays a hard error:
            // a scheduler can only name such a job by bug.
            if slot.migrated {
                continue;
            }
            if let Some(other) = slot.routed {
                return Err(SimError::InvalidAssignment {
                    reason: format!(
                        "{} is routed to member {}, not this member",
                        a.job, other
                    ),
                });
            }
            return Err(SimError::InvalidAssignment {
                reason: format!("{} has not arrived yet", a.job),
            });
        };
        if a.stage.index() >= member.active[idx].dag.num_stages() {
            return Err(SimError::InvalidAssignment {
                reason: format!("{} has no {}", a.job, a.stage),
            });
        }
        // A draining job dispatches nothing: its running tasks finish in
        // place and it then migrates.  The SchedEvent stream is advisory,
        // so the scheduler may still name it — a forgiven no-op, like an
        // assignment to a job that already migrated.
        if member.active[idx].draining.is_some() {
            continue;
        }
        if a.executors == 0 {
            continue;
        }
        let cap_room = spec
            .config
            .job_cap()
            .saturating_sub(member.active[idx].busy_executors);
        let budget = a
            .executors
            .min(member.executors.free_count())
            .min(cap_room)
            .min(member.active[idx].progress.pending_tasks(a.stage));
        // Once a pick comes back cold, no idle executor last ran this job,
        // and none can until a task finishes, which no dispatch here does:
        // every later pick is the lowest idle executor.
        let mut cold = false;
        for _ in 0..budget {
            let pick = if cold {
                member.executors.first_free()
            } else {
                member.executors.pick_free_for(a.job)
            };
            debug_assert_eq!(pick, member.executors.pick_free_for(a.job), "shortcut pick");
            let Some(exec_idx) = pick else {
                break;
            };
            cold = cold || member.executors.get(exec_idx).needs_move_delay(a.job);
            let move_delay = if cold { spec.config.executor_move_delay } else { 0.0 };
            let active = member.job_mut(idx);
            let Some(task_idx) = active.progress.dispatch_task(&active.dag, a.stage) else {
                break;
            };
            let task = active.dag.stage(a.stage).tasks[task_idx];
            active.first_start.get_or_insert(time);
            active.busy_executors += 1;
            active.executor_seconds += task.duration;
            let finish_time = time + move_delay + task.duration;
            member.executors.start(
                exec_idx,
                RunningTask {
                    job: a.job,
                    stage: a.stage,
                    task: task_idx,
                    started: time,
                    duration: task.duration,
                },
            );
            member.outstanding_work -= task.duration;
            events.push(
                finish_time,
                Event::TaskFinish {
                    member: target,
                    executor: exec_idx,
                    job: a.job,
                    stage: a.stage,
                    epoch: member.executors.get(exec_idx).epoch,
                },
            );
            dispatched += 1;
            member.tasks_dispatched += 1;
        }
    }
    if dispatched > 0 {
        member.record_usage_sample(spec, time);
    }
    Ok(dispatched)
}

impl<'a> Engine<'a> {
    /// An engine over the federation's members pulling its workload from
    /// `source` — the only intake: a materialized run passes a clone of the
    /// federation's workload.
    pub(crate) fn from_source(fed: &'a Federation, source: &'a mut dyn ArrivalSource) -> Self {
        let jobs_hint = source.size_hint().0;
        let validate_pulls = !source.prevalidated();
        let members = fed.members();
        Engine {
            fed,
            source,
            validate_pulls,
            compact: false,
            max_sim_time: members
                .iter()
                .map(|m| m.config.max_sim_time)
                .fold(f64::INFINITY, f64::min),
            state: RunState {
                time: 0.0,
                events: EventQueue::new(),
                pending: None,
                last_arrival: 0.0,
                jobs: JobTable::with_capacity(jobs_hint.min(1024)),
                completed_jobs: 0,
                jobs_rejected: 0,
                primed: false,
                migrations: Vec::new(),
                next_fault: 0,
                flows: FlowSet::new(fed.network()),
                draining_jobs: 0,
                members: members.iter().map(|m| MemberState::new(m, jobs_hint)).collect(),
            },
            flow_plan_buf: Vec::new(),
            view_buf: Vec::with_capacity(members.len()),
            candidate_buf: Vec::new(),
            migration_sink: MigrationSink::new(),
        }
    }

    /// Refills the arrival window: pulls the next job from the source,
    /// checks that its arrival time is finite and non-negative, enforces
    /// the ascending-arrival contract, validates the DAG if the source is
    /// not prevalidated, checks the data size (O(1), so even prevalidated
    /// sources get it), assigns the job its id and grows the per-job
    /// tables.  A no-op once the source is drained.
    fn refill_window(&mut self) -> Result<(), SimError> {
        let st = &mut self.state;
        debug_assert!(st.pending.is_none(), "the window holds at most one arrival");
        // Serve-mode compaction rides the arrival cadence: settled front
        // slots retire here, once per pull, so resident bookkeeping stays
        // O(jobs in system + 1) however many jobs the source has produced.
        if self.compact {
            let base = st.jobs.compact();
            for m in &mut st.members {
                m.compact_slots(base);
            }
        }
        let Some(job) = self.source.next_job() else {
            return Ok(());
        };
        check_arrival(&job)?;
        if job.arrival < st.last_arrival {
            return Err(SimError::OutOfOrderArrival {
                job: job.dag.name.clone(),
                arrival: job.arrival,
                previous: st.last_arrival,
            });
        }
        if self.validate_pulls {
            if let Err(e) = job.dag.validate() {
                return Err(SimError::InvalidJob {
                    job: job.dag.name.clone(),
                    reason: e.to_string(),
                });
            }
        }
        check_data_gb(&job)?;
        st.last_arrival = job.arrival;
        let id = JobId(st.jobs.seen() as u64);
        st.jobs.push(job.dag.num_stages() as u32);
        st.pending = Some(PendingArrival { id, job });
        Ok(())
    }

    /// Incomplete jobs = pulled-but-unsettled plus (a lower bound on) the
    /// jobs still inside the source; exact for materialized workloads.  The
    /// saturating add keeps unbounded sources (which hint `usize::MAX`)
    /// from overflowing.
    fn incomplete_jobs(&self) -> usize {
        let st = &self.state;
        (st.jobs.seen() - st.completed_jobs - st.jobs_rejected)
            .saturating_add(self.source.size_hint().0)
    }

    /// Builds the time-limit error together with a partial summary of what
    /// the run accomplished, so sweeps can report a truncated trial instead
    /// of discarding it.  Cold path (the run is aborting): cloning each
    /// member's trace into an accountant is fine here.
    fn time_limit_error(&self) -> SimError {
        let st = &self.state;
        let mut completed_jobs = Vec::new();
        let mut incomplete_jobs = Vec::new();
        for id in 0..st.jobs.seen() {
            // A retired id (serve-mode compaction) is settled by definition.
            let settled = st.jobs.get(id).is_none_or(JobSlot::settled);
            if settled {
                completed_jobs.push(JobId(id as u64));
            } else {
                incomplete_jobs.push(JobId(id as u64));
            }
        }
        let mut elapsed_executor_seconds = 0.0;
        let mut accrued_carbon_grams = 0.0;
        for (m, spec) in st.members.iter().zip(self.fed.members()) {
            for r in &m.records {
                elapsed_executor_seconds += r.executor_seconds;
            }
            for j in &m.active {
                elapsed_executor_seconds += j.executor_seconds;
            }
            // Usage is empty under ProfileMode::Light, in which case the
            // carbon figure degrades to 0 (documented on PartialRunSummary).
            if !m.profile.usage.is_empty() {
                let accountant = CarbonAccountant::new(spec.carbon.clone())
                    .with_time_scale(spec.config.time_scale);
                accrued_carbon_grams += accountant.footprint_grams(&m.profile.usage, st.time);
            }
        }
        for j in st.jobs.slots.iter().filter_map(|s| s.in_transit.as_ref()) {
            elapsed_executor_seconds += j.executor_seconds;
        }
        SimError::TimeLimitExceeded {
            limit: self.max_sim_time,
            incomplete_jobs: self.incomplete_jobs(),
            partial: Box::new(PartialRunSummary {
                completed_jobs,
                incomplete_jobs,
                elapsed_executor_seconds,
                accrued_carbon_grams,
            }),
        }
    }

    pub(crate) fn run(
        &mut self,
        router: &mut dyn Router,
        migration: &mut dyn MigrationPolicy,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<FederationResult, SimError> {
        self.preflight()?;
        self.step_until(None, router, migration, schedulers, None)?;
        let names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
        Ok(self.assemble(router.name(), migration.name(), &names))
    }

    /// One-time run preparation: validates the fault schedule against the
    /// federation's shape and primes the arrival window.  Idempotent — a
    /// serve session calls it once and keeps stepping the same engine.
    pub(crate) fn preflight(&mut self) -> Result<(), SimError> {
        if self.state.primed {
            return Ok(());
        }
        // A fault schedule naming a member or executor the federation does
        // not have is a configuration error, reported before any simulation
        // state exists.
        let members = self.fed.members();
        for inj in self.fed.fault_schedule().injections() {
            if inj.member >= members.len() {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "injection at t={} targets member {}, but the federation has {} member(s)",
                        inj.time,
                        inj.member,
                        members.len()
                    ),
                });
            }
            if let FaultKind::ExecutorCrash { executor } = inj.kind {
                let pool = members[inj.member].config.num_executors;
                if executor >= pool {
                    return Err(SimError::InvalidFault {
                        reason: format!(
                            "crash at t={} targets executor {} of member {}, which has {} executor(s)",
                            inj.time, executor, inj.member, pool
                        ),
                    });
                }
            }
        }
        // Prime the arrival window.  A source that yields nothing at all is
        // an empty workload (the materialized entry points report this
        // before the engine is even built).
        self.refill_window()?;
        if self.state.pending.is_none() && self.state.jobs.seen() == 0 {
            return Err(SimError::EmptyWorkload);
        }
        self.state.primed = true;
        Ok(())
    }

    /// The event loop.  With `stop_at == None` this runs to drain: every
    /// pulled job settled (completed or rejected) and the source exhausted —
    /// the classic finite-trial semantics, bit-identical to the
    /// pre-serving engine.  With `stop_at == Some(h)` the loop additionally
    /// stops *before* processing the first thing scheduled after `h` and
    /// advances the clock to exactly `h`: the unprocessed event stays
    /// queued (and the unprocessed arrival stays in the window, the fault
    /// cursor unadvanced), so a later call — on this engine or on one
    /// restored from a snapshot of it — continues bit-identically to a run
    /// that never stopped.
    ///
    /// Returns `true` when the run drained, `false` when it stopped at the
    /// horizon.
    pub(crate) fn step_until(
        &mut self,
        stop_at: Option<f64>,
        router: &mut dyn Router,
        migration: &mut dyn MigrationPolicy,
        schedulers: &mut [&mut dyn Scheduler],
        mut admission: Option<&mut dyn AdmissionPolicy>,
    ) -> Result<bool, SimError> {
        // Single-member federations (and declared-inert policies) skip the
        // migration layer entirely, so the single-cluster `Simulator` and
        // plain routed runs pay nothing for it.
        let consult_migrations = self.state.members.len() >= 2 && !migration.never_migrates();
        let faults = self.fed.fault_schedule().injections();
        loop {
            let st = &mut self.state;
            // Settlement is the sole drain condition: a non-empty arrival
            // window or pending task finishes imply unsettled jobs, and a
            // superseded flow arrival still queued past the last
            // completion must not keep the clock running.  (The window is
            // refilled eagerly, so `pending == None` means the source is
            // drained.)
            if st.pending.is_none() && st.completed_jobs + st.jobs_rejected == st.jobs.seen() {
                if let Some(stop) = stop_at {
                    st.time = st.time.max(stop);
                }
                return Ok(true);
            }
            // The earliest member carbon step (ties broken by member index,
            // so multi-member runs stay deterministic).
            let mut carbon_member = 0usize;
            let mut carbon_time = st.members[0].next_carbon_change;
            for (i, m) in st.members.iter().enumerate().skip(1) {
                if m.next_carbon_change < carbon_time {
                    carbon_member = i;
                    carbon_time = m.next_carbon_change;
                }
            }
            // The earliest non-carbon event: the arrival window vs the
            // queue.  The arrival wins ties — historically the whole
            // workload was enqueued before any runtime event, so on equal
            // times the queue's insertion-order tie-break always chose the
            // arrival; the window preserves that ordering exactly.
            let arrival_time = st.pending.as_ref().map(|p| p.job.arrival);
            let (next_time, next_is_arrival) = match (arrival_time, st.events.peek_time()) {
                (Some(a), Some(q)) => (Some(a.min(q)), a <= q),
                (Some(a), None) => (Some(a), true),
                (None, q) => (q, false),
            };
            let wake_on_carbon = match next_time {
                Some(ht) => carbon_time < ht,
                None => true,
            };
            // A pending fault fires only when STRICTLY earlier than every
            // other event class (carbon steps, arrivals, queue events) — on
            // a tie the pre-fault event order is preserved exactly, which is
            // what keeps `FaultSchedule::none()` runs bit-identical (the
            // cursor is exhausted, so this is one `Option` comparison).
            // Same-time faults fire one per iteration in schedule order.
            let fault_fires = match faults.get(st.next_fault) {
                Some(inj) => inj.time < carbon_time && next_time.is_none_or(|ht| inj.time < ht),
                None => false,
            };
            // The horizon gate: peek at the firing branch's time *before*
            // any side effect.  Nothing past the horizon is processed — it
            // stays queued / in the window / behind the fault cursor — so a
            // later `step_until` continues exactly where an uninterrupted
            // run would have been.  The finite path (`stop_at == None`)
            // skips this entirely and is bit-identical to the pre-serving
            // loop.
            if let Some(stop) = stop_at {
                let next = if fault_fires {
                    faults[st.next_fault].time.max(st.time)
                } else if wake_on_carbon {
                    carbon_time
                } else {
                    next_time.expect("no carbon wake implies a pending event or arrival")
                };
                if next > stop {
                    st.time = st.time.max(stop);
                    return Ok(false);
                }
            }
            if fault_fires {
                let inj = faults[st.next_fault];
                st.next_fault += 1;
                // A fault scheduled before the current instant (possible
                // when the plan's horizon outruns a quiet schedule) fires
                // now rather than turning the clock back.
                st.time = st.time.max(inj.time);
                if st.time > self.max_sim_time {
                    return Err(self.time_limit_error());
                }
                self.apply_fault(inj, schedulers)?;
            } else if wake_on_carbon {
                st.time = carbon_time;
                let spec = &self.fed.members()[carbon_member];
                let member = &mut st.members[carbon_member];
                member.next_carbon_change += spec.carbon_step_schedule();
                if st.time > self.max_sim_time {
                    return Err(self.time_limit_error());
                }
                let prev = member.current_intensity;
                let now = spec.carbon.intensity(spec.carbon_time(st.time));
                member.current_intensity = now;
                // Migration first, scheduling second: a member whose grid
                // just turned dirty ships its idle jobs away *before* its
                // scheduler gets a chance to pin them down with dispatches.
                if consult_migrations {
                    self.consult_migrations(carbon_member, migration)?;
                }
                self.schedule_loop(
                    carbon_member,
                    &mut *schedulers[carbon_member],
                    EventSeed::CarbonChanged { prev, now },
                )?;
            } else if next_is_arrival {
                let arrival = st.pending.take().expect("next_is_arrival implies a window");
                st.time = arrival.job.arrival;
                if st.time > self.max_sim_time {
                    return Err(self.time_limit_error());
                }
                let admitted = self.admit_arrival(arrival, router, admission.as_deref_mut())?;
                // Refill before the scheduling pass: the window never holds
                // more than one job, and the pass must observe the same
                // engine state it did when arrivals came off the queue.
                // Rejected arrivals (`None`) trigger no pass — the member
                // state they would have touched never changed.
                self.refill_window()?;
                if let Some((target, seed)) = admitted {
                    self.schedule_loop(target, &mut *schedulers[target], seed)?;
                }
            } else {
                let (t, event) = st.events.pop().expect("peeked time implies non-empty");
                st.time = t;
                if st.time > self.max_sim_time {
                    return Err(self.time_limit_error());
                }
                // `None`: the event was recognised as stale (a finish whose
                // executor crashed under it, a superseded flow arrival) and
                // dropped without a pass.
                if let Some((target, seed)) = self.handle_event(event)? {
                    self.schedule_loop(target, &mut *schedulers[target], seed)?;
                }
            }
        }
    }

    /// Drains the engine's recorded state into a [`FederationResult`].
    /// Names are passed in (rather than read off live policy objects) so a
    /// serve session can assemble after its policies went out of scope.
    pub(crate) fn assemble(
        &mut self,
        router_name: &str,
        migration_name: &str,
        scheduler_names: &[String],
    ) -> FederationResult {
        let st = &mut self.state;
        let mut members_out = Vec::with_capacity(st.members.len());
        for (i, (m, spec)) in st.members.iter_mut().zip(self.fed.members()).enumerate() {
            let makespan = m.records.iter().map(|r| r.completion).fold(0.0_f64, f64::max);
            m.records.sort_by_key(|r| r.id);
            members_out.push(MemberResult {
                member: i,
                label: spec.label.clone(),
                result: SimulationResult {
                    scheduler: scheduler_names[i].clone(),
                    jobs: std::mem::take(&mut m.records),
                    profile: std::mem::take(&mut m.profile),
                    makespan,
                    tasks_dispatched: m.tasks_dispatched,
                    jobs_submitted: m.routed_jobs,
                    jobs_rejected: m.jobs_rejected,
                    wasted_seconds: m.wasted_seconds,
                    tasks_failed: m.tasks_failed,
                    retries: m.retries,
                    faults: std::mem::take(&mut m.fault_log),
                },
            });
        }
        let makespan = members_out
            .iter()
            .map(|m| m.result.makespan)
            .fold(0.0_f64, f64::max);
        FederationResult {
            router: router_name.to_string(),
            migration_policy: migration_name.to_string(),
            members: members_out,
            migrations: std::mem::take(&mut st.migrations),
            makespan,
        }
    }

    /// Fills the reused view buffer with every member's router snapshot and
    /// hands it out; callers put it back when their context is done.
    fn take_views(&mut self) -> Vec<MemberView> {
        let mut views = std::mem::take(&mut self.view_buf);
        views.clear();
        let st = &self.state;
        for (i, (m, spec)) in st.members.iter().zip(self.fed.members()).enumerate() {
            views.push(m.view(spec, i, st.time));
        }
        views
    }

    /// Consults the router for the arriving job, validating the returned
    /// member index.  The view buffer is reused across arrivals.
    fn route(
        &mut self,
        router: &mut dyn Router,
        id: JobId,
        job: &SubmittedJob,
    ) -> Result<usize, SimError> {
        let views = self.take_views();
        let ctx = RoutingContext::new(self.state.time, &views);
        let target = router.route(id, job, &ctx);
        self.view_buf = views;
        let members = self.state.members.len();
        if target >= members {
            return Err(SimError::InvalidRoute { job: id.to_string(), member: target, members });
        }
        Ok(target)
    }

    /// Admits the arrival pulled from the source: routes it, consults the
    /// admission policy (if any), activates it on the chosen member (the
    /// source contract makes this a push to the back of the member's
    /// ascending-id active table) and fixes the member's incremental
    /// counters.  Returns the member to consult plus the typed event seed,
    /// exactly like [`Engine::handle_event`] does for queue events — or
    /// `None` when the policy rejected the arrival (the job settles
    /// immediately, counted on the routed member, and no one is consulted).
    fn admit_arrival(
        &mut self,
        arrival: PendingArrival,
        router: &mut dyn Router,
        // `+ '_` decouples the trait object's lifetime from the reborrow's,
        // so the loop in `step_until` can hand out a fresh short reborrow of
        // its long-lived policy reference on every arrival.
        admission: Option<&mut (dyn AdmissionPolicy + '_)>,
    ) -> Result<Option<(usize, EventSeed)>, SimError> {
        let PendingArrival { id, job } = arrival;
        let target = self.route(router, id, &job)?;
        if let Some(policy) = admission {
            // The policy sees the same per-member views the router saw
            // (rebuilt: routing may have consumed the buffer's content, the
            // state is unchanged).
            let views = self.take_views();
            let ctx = RoutingContext::new(self.state.time, &views);
            let decision = policy.admit(&job, target, &ctx);
            self.view_buf = views;
            match decision {
                AdmissionDecision::Accept => {}
                AdmissionDecision::Reject => {
                    let st = &mut self.state;
                    let slot = st.jobs.get_mut(id.index()).expect("window jobs are resident");
                    slot.routed = Some(target as u32);
                    slot.rejected = true;
                    st.jobs_rejected += 1;
                    st.members[target].jobs_rejected += 1;
                    return Ok(None);
                }
            }
        }
        let st = &mut self.state;
        st.jobs.get_mut(id.index()).expect("window jobs are resident").routed =
            Some(target as u32);
        let member = &mut st.members[target];
        debug_assert!(
            member.active.last().is_none_or(|last| last.id < id),
            "arrivals must come in ascending id order"
        );
        let active = ActiveJob::from_submitted(id, job);
        member.outstanding_work += active.total_work;
        member.register_active(active);
        member.routed_jobs += 1;
        member.profile.record_jobs_in_system(st.time, member.active.len());
        Ok(Some((target, EventSeed::JobArrived(id))))
    }

    /// Applies a queue event's state changes and returns the member to
    /// consult plus the seed of the typed [`SchedEvent`] the scheduling
    /// pass is invoked with, or `None` when the event is stale (a task
    /// finish whose executor crashed under it, a superseded flow arrival)
    /// and must be dropped without a scheduling pass.  (Workload arrivals
    /// are not queue events — see [`Engine::admit_arrival`].)
    fn handle_event(&mut self, event: Event) -> Result<Option<(usize, EventSeed)>, SimError> {
        let time = self.state.time;
        match event {
            Event::TaskFinish { member: target, executor, job, stage, epoch } => {
                // A crash bumps the executor's epoch, so a finish stamped
                // with an older one belongs to a killed task: the queue's
                // deterministic analogue of cancelling the event.  Always
                // equal on fault-free runs.
                if epoch != self.state.members[target].executors.get(executor).epoch {
                    return Ok(None);
                }
                // Read before the finish: a completion retires the
                // `ActiveJob` along with its drain flag.
                let was_draining = self.is_draining(target, job);
                let spec = &self.fed.members()[target];
                let st = &mut self.state;
                let member = &mut st.members[target];
                member.executors.finish(executor);
                let Some(idx) = member.slot(job) else {
                    return Err(SimError::InvalidAssignment {
                        reason: format!(
                            "task of {stage} finished for {job}, which is not active on member {target}"
                        ),
                    });
                };
                let active = member.job_mut(idx);
                active.busy_executors = active.busy_executors.saturating_sub(1);
                let stage_done = active.progress.finish_task(&active.dag, stage);
                let job_done = stage_done && active.progress.job_complete();
                if job_done {
                    let done = member.retire_active(idx);
                    member.records.push(JobRecord {
                        id: done.id,
                        name: done.dag.name.clone(),
                        arrival: done.arrival,
                        completion: time,
                        first_start: done.first_start.unwrap_or(time),
                        executor_seconds: done.executor_seconds,
                        total_work: done.total_work,
                        num_stages: done.dag.num_stages(),
                    });
                    member.profile.record_jobs_in_system(time, member.active.len());
                }
                member.record_usage_sample(spec, time);
                let seed = EventSeed::TasksCompleted { job, stage, n: 1 };
                if job_done {
                    // A draining job whose last task completed the whole job
                    // has nothing left to move: the drain dissolves with it.
                    if was_draining {
                        st.draining_jobs -= 1;
                    }
                    st.jobs.get_mut(job.index()).expect("a completing job is resident").completed =
                        true;
                    st.completed_jobs += 1;
                    return Ok(Some((target, seed)));
                }
                self.move_if_idle(target, job, was_draining)?;
                Ok(Some((target, seed)))
            }
            Event::RetryRelease { member: target, job, stage, task } => {
                let was_draining = self.is_draining(target, job);
                // The job cannot have completed (the killed task's stage is
                // still held open) and cannot have migrated (cooling-down
                // tasks pin it to this member), so it must be active here —
                // anything else is an engine bug worth a descriptive error.
                let member = &mut self.state.members[target];
                let Some(idx) = member.slot(job) else {
                    return Err(SimError::InvalidAssignment {
                        reason: format!(
                            "retry release of task {task} of {stage} for {job}, which is not \
                             active on member {target}"
                        ),
                    });
                };
                let active = member.job_mut(idx);
                active.retrying -= 1;
                active.progress.fail_task(&active.dag, stage, task);
                member.retries += 1;
                member.fault_log.push(FaultRecord {
                    time,
                    member: target,
                    effect: FaultEffect::TaskRetried { job, stage, task },
                });
                self.move_if_idle(target, job, was_draining)?;
                Ok(Some((target, EventSeed::Kick)))
            }
            Event::FlowArrival { member: target, job, epoch } => {
                self.state.flows.settle(time);
                if self.state.flows.finish(job, epoch).is_none() {
                    // The flow's rate changed after this event was pushed —
                    // a replacement event with the current epoch is queued.
                    return Ok(None);
                }
                // The plan that queued this event wrote the record; the
                // departed flow's bandwidth is redistributed.
                self.reallocate_flows();
                self.register_migration_arrival(target, job);
                Ok(Some((target, EventSeed::JobArrived(job))))
            }
        }
    }

    /// Moves `job` off member `target` if a task finish or a retry release
    /// left it idle there: a draining job departs for its policy's
    /// destination (which outranks the evacuation heuristic), and an
    /// outaged member evacuates it exactly like the idle jobs at outage
    /// start, so it strands no work it can no longer dispatch.
    fn move_if_idle(
        &mut self,
        target: usize,
        job: JobId,
        was_draining: bool,
    ) -> Result<(), SimError> {
        if was_draining && self.depart_if_drained(target, job)? {
            return Ok(());
        }
        let member = &self.state.members[target];
        if !member.available {
            let idx = member.slot(job).expect("an uncompleted job stays active");
            let j = &member.active[idx];
            if j.busy_executors == 0 && j.retrying == 0 {
                if let Some(dest) = self.evacuation_target(target) {
                    self.apply_migration(job, dest, false)?;
                }
            }
        }
        Ok(())
    }

    /// Whether `job` is draining toward a migration on member `target`.
    /// Guarded by the drain counter, so drain-free runs pay one comparison.
    fn is_draining(&self, target: usize, job: JobId) -> bool {
        self.state.draining_jobs > 0 && {
            let m = &self.state.members[target];
            m.slot(job).is_some_and(|idx| m.active[idx].draining.is_some())
        }
    }

    /// Drain-then-move trigger: the moment a draining job's last running or
    /// retrying task resolves, it departs for the destination its policy
    /// chose.  Returns whether it departed.
    fn depart_if_drained(&mut self, target: usize, job: JobId) -> Result<bool, SimError> {
        let st = &mut self.state;
        let member = &mut st.members[target];
        let idx = member.slot(job).expect("an uncompleted job stays active");
        let j = &mut member.active[idx];
        if j.busy_executors > 0 || j.retrying > 0 {
            return Ok(false);
        }
        let dest = j.draining.take().expect("only draining jobs are checked") as usize;
        st.draining_jobs -= 1;
        self.apply_migration(job, dest, false)?;
        Ok(true)
    }

    /// Re-registers a migrated job at its destination member once its
    /// flow's [`Event::FlowArrival`] fires.
    fn register_migration_arrival(&mut self, target: usize, job: JobId) {
        let st = &mut self.state;
        let state = st
            .jobs
            .get_mut(job.index())
            .expect("in-transit jobs are never retired")
            .in_transit
            .take()
            .map(|state| *state)
            .expect("migration arrival for a job that is not in transit");
        let remaining = state.progress.remaining_work(&state.dag);
        let member = &mut st.members[target];
        // The destination table stays ordered by arrival *at this
        // member* — a migrated job joins the back of the queue like
        // a fresh arrival would, whatever its global id.  If the
        // destination went down while the job was in flight, it
        // queues here until the outage ends (or a later carbon step
        // migrates it again) — the transfer was already paid.
        member.register_active(state);
        member.routed_jobs += 1;
        member.outstanding_work += remaining;
        member.profile.record_jobs_in_system(st.time, member.active.len());
    }

    /// Carbon attributed to a transfer of `gb` gigabytes `from → to` over
    /// `[departed, arrived]`: the network energy priced at the mean of the
    /// two endpoints' average intensities over the interval (half
    /// attribution each).  Integrating — rather than sampling the departure
    /// instant — is what prices a transfer that spans carbon steps against
    /// every step it crosses.
    fn transfer_carbon(&self, gb: f64, from: usize, to: usize, departed: f64, arrived: f64) -> f64 {
        let members = self.fed.members();
        let avg_src = members[from].mean_intensity(departed, arrived);
        let avg_dst = members[to].mean_intensity(departed, arrived);
        gb * self.fed.network().energy_kwh_per_gb() * 0.5 * (avg_src + avg_dst)
    }

    /// Re-divides the uplinks among the (settled) flow set, turns
    /// each changed flow's new arrival estimate into a queue event, and
    /// writes it into that flow's migration record: the arrival, the
    /// transfer time (time already spent plus the plan's seconds, so a
    /// flow planned once at departure records its priced seconds exactly)
    /// and the interval's carbon.  The last plan is the one that arrives,
    /// and a serve-mode assemble with flows still in flight reports
    /// estimates rather than placeholders.
    fn reallocate_flows(&mut self) {
        let mut plans = std::mem::take(&mut self.flow_plan_buf);
        plans.clear();
        let now = self.state.time;
        self.state.flows.reallocate(self.fed.network(), now, &mut plans);
        for p in &plans {
            self.state
                .events
                .push(p.at, Event::FlowArrival { member: p.to, job: p.job, epoch: p.epoch });
            let r = self.state.migrations[p.record];
            let grams = self.transfer_carbon(r.gb, r.from, r.to, r.departed, p.at);
            let r = &mut self.state.migrations[p.record];
            r.arrived = p.at;
            r.transfer_seconds = (now - r.departed) + p.seconds;
            r.transfer_carbon_grams = grams;
        }
        self.flow_plan_buf = plans;
    }

    /// Where an outaged member's idle jobs go: the available member with the
    /// least backlog per executor (outstanding work normalised by pool size),
    /// ties to the lowest index.  `None` when every other member is also
    /// down — the job then stays where it is until an outage ends.
    fn evacuation_target(&self, from: usize) -> Option<usize> {
        self.state
            .members
            .iter()
            .zip(self.fed.members())
            .enumerate()
            .filter(|(i, (m, _))| *i != from && m.available)
            .map(|(i, (m, spec))| (i, m.outstanding_work / spec.config.num_executors as f64))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
    }

    /// Consults the migration policy for the member whose carbon intensity
    /// just stepped, then applies the emitted verbs.  The view and candidate
    /// buffers are engine-owned and reused across consultations, and the
    /// candidate list covers only the stepped member's active jobs, so one
    /// consultation costs O(members + that member's active jobs) — never
    /// O(federation).
    fn consult_migrations(
        &mut self,
        changed: usize,
        policy: &mut dyn MigrationPolicy,
    ) -> Result<(), SimError> {
        if self.state.members[changed].active.is_empty() {
            return Ok(());
        }
        let views = self.take_views();
        let mut candidates = std::mem::take(&mut self.candidate_buf);
        candidates.clear();
        for job in &self.state.members[changed].active {
            let (remaining_work, remaining_gb) = remaining_state(job);
            candidates.push(MigrationCandidate {
                job: job.id,
                remaining_work,
                remaining_gb,
                busy_executors: job.busy_executors,
                retrying_tasks: job.retrying,
                draining: job.draining.is_some(),
            });
        }
        let mut sink = std::mem::take(&mut self.migration_sink);
        sink.clear();
        let ctx = MigrationContext::new(
            self.state.time,
            changed,
            self.fed.members()[changed].config.time_scale,
            &views,
            self.fed.network(),
            &self.state.flows,
        );
        policy.on_carbon_change(&ctx, &candidates, &mut sink);
        self.view_buf = views;
        self.candidate_buf = candidates;
        let mut result = Ok(());
        for &m in sink.moves() {
            result = self.apply_migration(m.job, m.to, m.drain);
            if result.is_err() {
                break;
            }
        }
        self.migration_sink = sink;
        result
    }

    /// Validates and applies one migration verb: detaches the job from its
    /// source member and starts its transfer as a flow over the federation's
    /// network topology (a max-min fair share of the source's uplink, or
    /// the per-GB cap when the source has none, as no member of a
    /// matrix-built topology does), whose plan prices the arrival that
    /// re-registers it at the destination and the interval-integrated
    /// transfer carbon.  With `drain` set, a busy or retrying job is flagged
    /// instead of rejected: it stops dispatching and departs when its last
    /// task resolves.  Both members' incremental
    /// counters (queue depth, outstanding work) are fixed up in O(changed)
    /// — the slot reindex on the source is O(its active jobs), the same
    /// cost class as the completion path.
    fn apply_migration(&mut self, job: JobId, to: usize, drain: bool) -> Result<(), SimError> {
        let invalid = |reason: String| SimError::InvalidMigration {
            job: job.to_string(),
            reason,
        };
        let st = &mut self.state;
        if job.index() >= st.jobs.seen() {
            return Err(invalid("the job does not exist in the workload".into()));
        }
        // A retired id (serve-mode compaction) is settled history — moving
        // it is a no-op, exactly like a completed job below.
        let Some(slot) = st.jobs.get(job.index()) else {
            return Ok(());
        };
        // A settled job is history — moving it is a no-op, exactly like a
        // stale assignment to it.
        if slot.settled() {
            return Ok(());
        }
        if to >= st.members.len() {
            return Err(invalid(format!(
                "member {to} does not exist (the federation has {} members)",
                st.members.len()
            )));
        }
        if slot.in_transit.is_some() {
            return Err(invalid("the job is already migrating between members".into()));
        }
        let Some(src) = slot.routed.map(|m| m as usize) else {
            return Err(invalid("the job has not arrived yet".into()));
        };
        if src == to {
            return Ok(());
        }
        let idx = st.members[src]
            .slot(job)
            .expect("an incomplete, routed, non-transit job is active on its member");
        let a = &mut st.members[src].active[idx];
        if a.busy_executors > 0 || a.retrying > 0 {
            if drain {
                // Drain-then-move: flag the job instead of moving it.  It
                // dispatches nothing from here on and departs for `to` when
                // its last running or retrying task resolves.  A later
                // drain verb overwrites the destination (last one wins).
                if a.draining.is_none() {
                    st.draining_jobs += 1;
                }
                a.draining = Some(to as u32);
                return Ok(());
            }
            if a.busy_executors > 0 {
                return Err(invalid(format!(
                    "the job still has {} running task(s) on member {src}; drain them first",
                    a.busy_executors
                )));
            }
            return Err(invalid(format!(
                "the job has {} task(s) in retry backoff on member {src}; they must release first",
                a.retrying
            )));
        }
        // An idle job moves immediately, whether the verb was a migrate or a
        // drain.  Any pending drain flag dissolves into this move.
        if a.draining.take().is_some() {
            st.draining_jobs -= 1;
        }

        // Detach from the source and fix its incremental counters.  The
        // remaining work/GB here match what the candidate reported — both
        // sites go through `remaining_state`.
        let member = &mut st.members[src];
        let state = member.retire_active(idx);
        let (remaining_work, gb) = remaining_state(&state);
        member.outstanding_work -= remaining_work;
        member.routed_jobs -= 1;
        member.profile.record_jobs_in_system(st.time, member.active.len());
        let slot = st.jobs.get_mut(job.index()).expect("checked resident above");
        slot.routed = Some(to as u32);
        slot.migrated = true;
        slot.in_transit = Some(Box::new(state));
        let departed = st.time;

        // The flow's record is written by every plan of its arrival, the
        // first one in the reallocation right below.
        let record = st.migrations.len();
        st.migrations.push(MigrationRecord {
            job,
            from: src,
            to,
            departed,
            arrived: departed,
            gb,
            transfer_seconds: 0.0,
            transfer_carbon_grams: 0.0,
        });
        st.flows.settle(departed);
        st.flows.begin(job, src, to, gb, record);
        self.reallocate_flows();
        Ok(())
    }

    /// Applies one fault injection.  Dispatched from the run loop when the
    /// injection is strictly earlier than every other pending event.
    fn apply_fault(
        &mut self,
        inj: FaultInjection,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<(), SimError> {
        match inj.kind {
            FaultKind::ExecutorCrash { executor } => {
                self.apply_crash(inj.member, executor, schedulers)
            }
            FaultKind::RegionOutageStart => self.apply_outage_start(inj.member),
            FaultKind::RegionOutageEnd => self.apply_outage_end(inj.member, schedulers),
        }
    }

    /// Kills executor `exec` of member `target`.  An idle executor crashes
    /// harmlessly (logged, nothing lost).  A busy one loses its in-flight
    /// task: the pre-charged accounting is unwound, the dispatch-to-crash
    /// interval is booked as wasted work, the finish event is invalidated by
    /// bumping the executor's epoch, and the task is released for
    /// re-dispatch after the retry policy's backoff — unless this failure
    /// exhausts the policy, which aborts the run.
    fn apply_crash(
        &mut self,
        target: usize,
        exec: usize,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<(), SimError> {
        let spec = &self.fed.members()[target];
        let retry = self.fed.retry_policy();
        let st = &mut self.state;
        let time = st.time;
        let member = &mut st.members[target];
        // A busy executor's crash invalidates the pending finish event and
        // cold-resets it (it comes back immediately, but its warm-start
        // affinity is gone).
        let Some(rt) = member.executors.crash(exec) else {
            member.fault_log.push(FaultRecord {
                time,
                member: target,
                effect: FaultEffect::ExecutorCrashed { executor: exec, victim: None },
            });
            return Ok(());
        };
        let Some(idx) = member.slot(rt.job) else {
            return Err(SimError::InvalidAssignment {
                reason: format!(
                    "executor {exec} of member {target} crashed while running a task of {}, \
                     which is not active on that member",
                    rt.job
                ),
            });
        };
        let active = &mut member.active[idx];
        active.busy_executors = active.busy_executors.saturating_sub(1);
        // Undo the dispatch-time pre-charge: the work was not done, and the
        // retry's own dispatch will charge it again.
        active.executor_seconds -= rt.duration;
        let attempts = active.record_failure(rt.stage, rt.task);
        let exhausted = attempts >= retry.max_attempts;
        let job_name = if exhausted { active.dag.name.clone() } else { String::new() };
        if !exhausted {
            active.retrying += 1;
        }
        member.outstanding_work += rt.duration;
        let wasted = time - rt.started;
        member.wasted_seconds += wasted;
        member.tasks_failed += 1;
        member.record_usage_sample(spec, time);
        if exhausted {
            return Err(SimError::RetriesExhausted {
                job: job_name,
                stage: rt.stage,
                task: rt.task,
                attempts,
            });
        }
        member.fault_log.push(FaultRecord {
            time,
            member: target,
            effect: FaultEffect::ExecutorCrashed {
                executor: exec,
                victim: Some(CrashVictim {
                    job: rt.job,
                    stage: rt.stage,
                    task: rt.task,
                    wasted_seconds: wasted,
                    attempt: attempts,
                }),
            },
        });
        st.events.push(
            time + retry.backoff_after(attempts),
            Event::RetryRelease { member: target, job: rt.job, stage: rt.stage, task: rt.task },
        );
        // The crash freed an executor, so other work may dispatch right now;
        // the advisory TasksFailed event tells the scheduler why.
        self.schedule_loop(
            target,
            &mut *schedulers[target],
            EventSeed::TasksFailed { job: rt.job, stage: rt.stage, n: 1 },
        )
    }

    /// Takes member `target` down: dispatching stops (running tasks drain)
    /// and idle jobs are evacuated to the least-loaded available member over
    /// the transfer-priced migration path.  The member's scheduler is not
    /// consulted: an unavailable member cannot dispatch.  Idempotent: a
    /// start inside an already open window is a no-op.
    fn apply_outage_start(&mut self, target: usize) -> Result<(), SimError> {
        let member = &mut self.state.members[target];
        if !member.available {
            return Ok(());
        }
        member.available = false;
        // All evacuees go to the same member, chosen once against the
        // backlog at outage start — one decision, deterministic order.
        let evacuees: Vec<JobId> = member
            .active
            .iter()
            .filter(|j| j.busy_executors == 0 && j.retrying == 0)
            .map(|j| j.id)
            .collect();
        let mut evacuated = 0;
        if let Some(dest) = self.evacuation_target(target) {
            for job in evacuees {
                self.apply_migration(job, dest, false)?;
                evacuated += 1;
            }
        }
        let time = self.state.time;
        self.state.members[target].fault_log.push(FaultRecord {
            time,
            member: target,
            effect: FaultEffect::OutageStarted { evacuated },
        });
        Ok(())
    }

    /// Brings member `target` back up and kicks its scheduler (jobs that
    /// queued or arrived during the window are now dispatchable again).
    /// Idempotent: an end without an open window is a no-op.
    fn apply_outage_end(
        &mut self,
        target: usize,
        schedulers: &mut [&mut dyn Scheduler],
    ) -> Result<(), SimError> {
        let time = self.state.time;
        let member = &mut self.state.members[target];
        if member.available {
            return Ok(());
        }
        member.available = true;
        member.fault_log.push(FaultRecord {
            time,
            member: target,
            effect: FaultEffect::OutageEnded,
        });
        self.schedule_loop(target, &mut *schedulers[target], EventSeed::Kick)
    }

    /// Repeatedly invokes one member's scheduler until it defers, produces
    /// nothing applicable, or the member is saturated.  The first invocation
    /// carries the typed triggering event; re-invocations at the same
    /// instant carry [`SchedEvent::Kick`].
    fn schedule_loop(
        &mut self,
        target: usize,
        scheduler: &mut dyn Scheduler,
        seed: EventSeed,
    ) -> Result<(), SimError> {
        // The member's sink is moved out for the duration of the loop so the
        // scheduler can write into it while the member (whose active table
        // the context borrows) stays immutably borrowed.
        let st = &mut self.state;
        let member = &mut st.members[target];
        let mut sink = std::mem::take(&mut member.sink);
        let result = member_schedule_pass(
            &self.fed.members()[target],
            member,
            target,
            st.time,
            &st.jobs,
            &mut st.events,
            scheduler,
            &mut sink,
            seed,
        );
        st.members[target].sink = sink;
        result
    }

    // --- Serve-mode surface (used by `crate::serve`) ---

    /// Turns on serve-mode compaction of the per-job tables (see
    /// [`JobTable`]).  Finite runs never enable this, so their bookkeeping
    /// is bit-identical to the pre-compaction engine.
    pub(crate) fn enable_compaction(&mut self) {
        self.compact = true;
    }

    /// The engine clock (schedule seconds).
    pub(crate) fn now(&self) -> f64 {
        self.state.time
    }

    pub(crate) fn num_members(&self) -> usize {
        self.state.members.len()
    }

    /// Jobs pulled from the source so far (including the one in the
    /// lookahead window, if any).
    pub(crate) fn jobs_seen_count(&self) -> usize {
        self.state.jobs.seen()
    }

    pub(crate) fn completed_count(&self) -> usize {
        self.state.completed_jobs
    }

    pub(crate) fn rejected_count(&self) -> usize {
        self.state.jobs_rejected
    }

    /// Jobs currently occupying simulation state: active on some member or
    /// migrating between members.
    pub(crate) fn resident_jobs(&self) -> usize {
        let active: usize = self.state.members.iter().map(|m| m.active.len()).sum();
        let transit = self.state.jobs.slots.iter().filter(|s| s.in_transit.is_some()).count();
        active + transit
    }

    /// Resident per-job bookkeeping slots — what serve-mode compaction
    /// bounds (the long-run residency assertion pins this).
    pub(crate) fn resident_table_len(&self) -> usize {
        self.state.jobs.resident()
    }

    /// Takes every member's accumulated completion records (merged, ordered
    /// by completion time then id) and clears the per-window profile series,
    /// so an open-loop run's memory is bounded by the drain cadence, never
    /// by total jobs seen.
    pub(crate) fn drain_completions(&mut self) -> Vec<JobRecord> {
        let mut out = Vec::new();
        for m in &mut self.state.members {
            out.append(&mut m.records);
            m.profile = UsageProfile::new();
        }
        out.sort_by(|a, b| a.completion.total_cmp(&b.completion).then(a.id.cmp(&b.id)));
        out
    }

    /// Captures the run state.  Together with a source re-attached at the
    /// same pull position (see [`Engine::restore`]) and equivalently-warmed
    /// policy objects, the snapshot continues bit-identically to a run that
    /// never stopped.
    pub(crate) fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot { state: self.state.clone() }
    }

    /// Installs a snapshot into this engine, re-attaching the source.
    ///
    /// The snapshot must come from a federation of the same shape: the
    /// same member count and executor pools of the same sizes (every
    /// network carries every flow, so the topology is not checked).
    /// It is RNG-free: it does not capture the source.  Instead, the engine
    /// discards pulls from its *own* (freshly constructed, deterministic)
    /// source until it reaches the snapshot's pull position — the discarded
    /// jobs are exactly the ones the snapshotted run already consumed, and
    /// the snapshot's lookahead window carries the last pull's content.  A
    /// session that has already pulled past the snapshot cannot rewind its
    /// source and is rejected.  Every member's change journal takes a fresh
    /// run stamp: the restored state is a new timeline, so a journal cursor
    /// a policy took on any other timeline is never honored, and the
    /// policy's first pass reconciles.
    pub(crate) fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SimError> {
        let mismatch = |reason: String| Err(SimError::SnapshotMismatch { reason });
        let members = self.fed.members();
        if snap.state.members.len() != members.len() {
            return mismatch(format!(
                "the snapshot covers {} member(s), this federation has {}",
                snap.state.members.len(),
                members.len()
            ));
        }
        for (i, (m, spec)) in snap.state.members.iter().zip(members).enumerate() {
            if m.executors.len() != spec.config.num_executors {
                return mismatch(format!(
                    "the snapshot's member {i} has {} executor(s), this federation's has {}",
                    m.executors.len(),
                    spec.config.num_executors
                ));
            }
        }
        let (seen, target) = (self.state.jobs.seen(), snap.jobs_seen());
        if seen > target {
            return mismatch(format!(
                "this session has pulled {seen} job(s), past the snapshot's {target} — restore \
                 onto a fresh session over a fresh source"
            ));
        }
        for _ in seen..target {
            if self.source.next_job().is_none() {
                return mismatch(format!(
                    "the source drained before reaching the snapshot's position ({target} jobs \
                     pulled)"
                ));
            }
        }
        self.state = snap.state.clone();
        // The restored state is a new timeline: a cursor a policy took in
        // the snapshotted run after the snapshot must not be honored here,
        // and a fresh run stamp makes policies drop what they cached.
        for m in &mut self.state.members {
            m.journal = ChangeJournal::new();
        }
        Ok(())
    }
}

/// A point-in-time copy of a serving engine's full dynamic state, produced
/// by [`ServeSession::snapshot`] and installed by [`ServeSession::restore`]:
/// the engine's run state, cloned whole.
///
/// The snapshot is *RNG-free and source-free*: arrival sources and policy
/// objects (schedulers, routers, admission) live outside the engine and
/// travel outside the snapshot.  Restoring re-attaches a deterministic
/// source by discarding the pulls the snapshotted run already consumed;
/// callers warm their policy objects equivalently (e.g. by driving a twin
/// session to the same horizon, or by using stateless policies).
///
/// [`ServeSession::snapshot`]: crate::serve::ServeSession::snapshot
/// [`ServeSession::restore`]: crate::serve::ServeSession::restore
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    state: RunState,
}

impl EngineSnapshot {
    /// The schedule time the snapshot was taken at.
    pub fn time(&self) -> f64 {
        self.state.time
    }

    /// Jobs the snapshotted run had pulled from its source (the pull
    /// position a restore re-attaches at).
    pub fn jobs_seen(&self) -> usize {
        self.state.jobs.seen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::TransferMatrix;
    use crate::schedulers::SparkStandaloneFifo;
    use pcaps_dag::{JobDagBuilder, StageId, Task};

    fn chain_job(name: &str, stages: usize, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        let mut b = JobDagBuilder::new(name);
        for i in 0..stages {
            b = b.stage(format!("s{i}"), vec![Task::new(dur); tasks]);
        }
        let mut b2 = b;
        for i in 1..stages {
            b2 = b2
                .edge(pcaps_dag::StageId((i - 1) as u32), pcaps_dag::StageId(i as u32))
                .unwrap();
        }
        b2.build().unwrap()
    }

    fn flat_trace() -> CarbonTrace {
        CarbonTrace::constant("flat", 300.0, 26_304)
    }

    #[test]
    fn single_job_single_executor_makespan_is_total_work() {
        let job = chain_job("j", 3, 2, 5.0);
        let total = job.total_work();
        let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(result.all_jobs_complete());
        assert!((result.makespan - total).abs() < 1e-9);
        assert_eq!(result.tasks_dispatched, 6);
    }

    #[test]
    fn parallelism_reduces_makespan() {
        let job = chain_job("j", 1, 8, 10.0);
        let mk = |k: usize| {
            let config = ClusterConfig::new(k).with_move_delay(0.0).with_time_scale(1.0);
            let sim = Simulator::new(
                config,
                vec![SubmittedJob::at(0.0, job.clone())],
                flat_trace(),
            );
            sim.run(&mut SparkStandaloneFifo::new()).unwrap().makespan
        };
        assert!((mk(1) - 80.0).abs() < 1e-9);
        assert!((mk(4) - 20.0).abs() < 1e-9);
        assert!((mk(8) - 10.0).abs() < 1e-9);
        assert!((mk(100) - 10.0).abs() < 1e-9, "cannot go below one task length");
    }

    #[test]
    fn precedence_is_respected() {
        // Two stages of one task each: total makespan is serial even with
        // many executors.
        let job = chain_job("j", 2, 1, 7.0);
        let config = ClusterConfig::new(10).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!((result.makespan - 14.0).abs() < 1e-9);
    }

    #[test]
    fn per_job_cap_limits_parallelism() {
        let job = chain_job("j", 1, 8, 10.0);
        let config = ClusterConfig::new(8)
            .with_per_job_cap(Some(2))
            .with_move_delay(0.0)
            .with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        // 8 tasks of 10 s on at most 2 executors → 40 s.
        assert!((result.makespan - 40.0).abs() < 1e-9);
    }

    #[test]
    fn move_delay_charged_when_switching_jobs() {
        // One executor, two single-task jobs: the second task pays the move
        // delay, and the first does too (fresh executor).
        let j0 = chain_job("a", 1, 1, 10.0);
        let j1 = chain_job("b", 1, 1, 10.0);
        let config = ClusterConfig::new(1).with_move_delay(2.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, j0), SubmittedJob::at(0.0, j1)],
            flat_trace(),
        );
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!((result.makespan - 24.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_respected() {
        let j0 = chain_job("a", 1, 1, 5.0);
        let j1 = chain_job("b", 1, 1, 5.0);
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(100.0, j1), SubmittedJob::at(0.0, j0)],
            flat_trace(),
        );
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(result.all_jobs_complete());
        // Second job cannot start before its arrival at t=100.
        assert!((result.makespan - 105.0).abs() < 1e-9);
        // Job records are sorted by id and ids by arrival.
        assert!(result.jobs[0].arrival < result.jobs[1].arrival);
    }

    #[test]
    fn empty_workload_is_error() {
        let sim = Simulator::new(ClusterConfig::new(1), vec![], flat_trace());
        assert_eq!(sim.run(&mut SparkStandaloneFifo::new()).unwrap_err(), SimError::EmptyWorkload);
    }

    /// `bad` with its second stage emptied through the public flat fields.
    fn empty_second_stage(mut bad: pcaps_dag::JobDag) -> pcaps_dag::JobDag {
        bad.tasks.truncate(1);
        bad.stage_ends[1] = 1;
        bad
    }

    #[test]
    fn invalid_dag_is_detected_once_at_construction() {
        let bad = empty_second_stage(chain_job("bad", 2, 1, 1.0));
        let sim = Simulator::new(
            ClusterConfig::new(1),
            vec![SubmittedJob::at(0.0, bad)],
            flat_trace(),
        );
        // Every run reports the cached validation failure.
        for _ in 0..2 {
            match sim.run(&mut SparkStandaloneFifo::new()) {
                Err(SimError::InvalidJob { job, .. }) => assert_eq!(job, "bad"),
                other => panic!("expected invalid-job error, got {other:?}"),
            }
        }
    }

    /// `Task`'s fields are public, so a duration can bypass `Task::new`'s
    /// check.  Unvalidated, a NaN duration panics in the event queue and a
    /// negative one runs to a zero makespan; validation must turn both into
    /// an invalid job.
    fn job_with_task_duration(duration: f64) -> pcaps_dag::JobDag {
        let mut job = chain_job("bad", 2, 2, 1.0);
        // Task 1 of stage 1: the flat task array holds stage 0's two first.
        job.tasks[3].duration = duration;
        job
    }

    fn assert_invalid_duration(result: Result<SimulationResult, SimError>) {
        match result {
            Err(SimError::InvalidJob { job, reason }) => {
                assert_eq!(job, "bad");
                assert!(reason.contains("task 1 of stage1"), "{reason}");
            }
            other => panic!("expected invalid-job error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_task_duration_is_detected_once_at_construction() {
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            let sim = Simulator::new(
                ClusterConfig::new(1),
                vec![SubmittedJob::at(0.0, job_with_task_duration(bad))],
                flat_trace(),
            );
            assert_invalid_duration(sim.run(&mut SparkStandaloneFifo::new()));
        }
    }

    #[test]
    fn streamed_invalid_task_duration_is_rejected_on_pull() {
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            let sim = Simulator::streaming(ClusterConfig::new(1), flat_trace());
            let mut source = vec![
                SubmittedJob::at(0.0, chain_job("good", 1, 1, 1.0)),
                SubmittedJob::at(1.0, job_with_task_duration(bad)),
            ]
            .into_iter();
            assert_invalid_duration(sim.run_source(&mut source, &mut SparkStandaloneFifo::new()));
        }
    }

    /// A DAG whose flat layout was corrupted through its public fields is an
    /// invalid job naming the layout error, both at federation construction
    /// and on a streamed pull — never an index or slice panic, in
    /// `SubmittedJob::at`'s work sum included.
    #[test]
    fn corrupt_flat_layouts_are_invalid_jobs_at_construction_and_on_pull() {
        type Corruption = fn(&mut pcaps_dag::JobDag);
        let cases: [(Corruption, &str); 6] = [
            (|j| j.stage_ends[0] = 5, "the tasks of stage1 end before they start"),
            (|j| j.stage_ends[1] = 5, "the last stage ends at task 5, but the job holds 4"),
            (|j| j.name_ends[1] = 40, "the name bounds of stage1"),
            (|j| j.name_ends[0] = 1, "the name bounds of stage0"),
            (|j| j.stage_ends[0] = 0, "stage0 has no tasks"),
            (|j| j.tasks[1].duration = f64::NAN, "task 1 of stage0"),
        ];
        for (corrupt, reason_part) in cases {
            let bad = || {
                let mut job = JobDagBuilder::new("bad")
                    .uniform_stage("ü", 2, 1.0)
                    .uniform_stage("s1", 2, 1.0)
                    .build()
                    .unwrap();
                corrupt(&mut job);
                SubmittedJob::at(1.0, job)
            };
            let assert_invalid = |result: Result<SimulationResult, SimError>| match result {
                Err(SimError::InvalidJob { job, reason }) => {
                    assert_eq!(job, "bad");
                    assert!(reason.contains(reason_part), "{reason}");
                }
                other => panic!("expected invalid-job error, got {other:?}"),
            };
            let good = || SubmittedJob::at(0.0, chain_job("good", 1, 1, 1.0));
            let sim = Simulator::new(ClusterConfig::new(1), vec![good(), bad()], flat_trace());
            assert_invalid(sim.run(&mut SparkStandaloneFifo::new()));
            let sim = Simulator::streaming(ClusterConfig::new(1), flat_trace());
            let mut source = vec![good(), bad()].into_iter();
            assert_invalid(sim.run_source(&mut source, &mut SparkStandaloneFifo::new()));
        }
    }

    #[test]
    fn records_capture_executor_seconds() {
        let job = chain_job("j", 2, 3, 4.0);
        let config = ClusterConfig::new(3).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!((result.jobs[0].executor_seconds - 24.0).abs() < 1e-9);
        assert_eq!(result.jobs[0].num_stages, 2);
    }

    #[test]
    fn usage_profile_is_recorded() {
        let job = chain_job("j", 1, 4, 5.0);
        let config = ClusterConfig::new(4).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        let result = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(!result.profile.usage.is_empty());
        // Four 5 s tasks on four executors: 20 executor-seconds of area.
        assert!((result.profile.average_utilization(5.0) * 5.0 - 20.0).abs() < 1e-9);
        // At time just after 0 all four executors are busy.
        assert_eq!(result.profile.busy_at(0.1), 4.0);
        // After completion nobody is busy.
        assert_eq!(result.profile.busy_at(100.0), 0.0);
    }

    /// A scheduler that always defers — the run must abort with a time-limit
    /// error instead of hanging.
    struct NeverSchedule;
    impl Scheduler for NeverSchedule {
        fn name(&self) -> &str {
            "never"
        }
        fn on_event(
            &mut self,
            _event: SchedEvent<'_>,
            _ctx: &SchedulingContext<'_>,
            _out: &mut DecisionSink,
        ) {
        }
    }

    #[test]
    fn deferring_forever_hits_time_limit() {
        let job = chain_job("j", 1, 1, 5.0);
        let config = ClusterConfig::new(1)
            .with_time_scale(1.0)
            .with_max_sim_time(10_000.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        match sim.run(&mut NeverSchedule) {
            Err(SimError::TimeLimitExceeded { incomplete_jobs, .. }) => {
                assert_eq!(incomplete_jobs, 1)
            }
            other => panic!("expected time limit error, got {other:?}"),
        }
    }

    /// A scheduler that returns an assignment for a bogus job id.
    struct BadScheduler;
    impl Scheduler for BadScheduler {
        fn name(&self) -> &str {
            "bad"
        }
        fn on_event(
            &mut self,
            _event: SchedEvent<'_>,
            _ctx: &SchedulingContext<'_>,
            out: &mut DecisionSink,
        ) {
            out.dispatch(JobId(999), pcaps_dag::StageId(0), 1);
        }
    }

    #[test]
    fn invalid_assignment_is_an_error() {
        let job = chain_job("j", 1, 1, 5.0);
        let config = ClusterConfig::new(1).with_time_scale(1.0);
        let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], flat_trace());
        assert!(matches!(
            sim.run(&mut BadScheduler),
            Err(SimError::InvalidAssignment { .. })
        ));
    }

    /// A scheduler that keeps assigning to job 0 / stage 0 forever; once the
    /// job completes the engine must treat the stale assignment as a no-op
    /// (historical behaviour), ending the run normally.
    struct StaleAssigner;
    impl Scheduler for StaleAssigner {
        fn name(&self) -> &str {
            "stale"
        }
        fn on_event(
            &mut self,
            _event: SchedEvent<'_>,
            ctx: &SchedulingContext<'_>,
            out: &mut DecisionSink,
        ) {
            out.dispatch(JobId(0), StageId(0), 1);
            for job in ctx.jobs() {
                for &stage in job.dispatchable_stages() {
                    out.dispatch(job.id, stage, 1);
                }
            }
        }
    }

    #[test]
    fn assignments_to_completed_jobs_are_ignored() {
        let j0 = chain_job("a", 1, 1, 1.0);
        let j1 = chain_job("b", 1, 2, 5.0);
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, j0), SubmittedJob::at(0.0, j1)],
            flat_trace(),
        );
        let result = sim.run(&mut StaleAssigner).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(result.tasks_dispatched, 3);
    }

    /// A scheduler dispatching a job that was routed to *another* member
    /// must get a descriptive error, not silently steal the job.  (Driven
    /// through the engine internals: a member's scheduler is only consulted
    /// when its own member has dispatchable work, so a full run cannot reach
    /// this path without a second, unrelated job.)
    #[test]
    fn cross_member_assignment_is_an_error() {
        use crate::federation::{Federation, Member};
        use crate::routing::{Router, RoutingContext};

        struct ToOne;
        impl Router for ToOne {
            fn name(&self) -> &str {
                "to-one"
            }
            fn route(&mut self, _: JobId, _: &SubmittedJob, _: &RoutingContext<'_>) -> usize {
                1
            }
        }
        let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
        let fed = Federation::new(
            vec![
                Member::new("A", config.clone(), flat_trace()),
                Member::new("B", config, flat_trace()),
            ],
            vec![SubmittedJob::at(0.0, chain_job("j", 1, 2, 5.0))],
        );
        let mut source = fed.workload().to_vec().into_iter();
        let mut engine = Engine::from_source(&fed, &mut source);
        let mut router = ToOne;
        engine.refill_window().unwrap();
        let arrival = engine.state.pending.take().expect("one job in the workload");
        let (target, _) = engine
            .admit_arrival(arrival, &mut router, None)
            .unwrap()
            .expect("no admission policy, so the job is admitted");
        assert_eq!(target, 1, "the router placed the job on member 1");
        // Member 0 now tries to dispatch member 1's job.
        let st = &mut engine.state;
        let err = apply_assignments_for(
            &fed.members()[0],
            &mut st.members[0],
            0,
            st.time,
            &st.jobs,
            &mut st.events,
            &[Assignment::new(JobId(0), StageId(0), 1)],
        )
        .unwrap_err();
        match err {
            SimError::InvalidAssignment { reason } => {
                assert!(reason.contains("routed to member 1"), "got: {reason}")
            }
            other => panic!("expected InvalidAssignment, got {other:?}"),
        }
    }

    #[test]
    fn streaming_run_matches_the_materialized_run() {
        let workload = vec![
            SubmittedJob::at(0.0, chain_job("a", 2, 3, 4.0)),
            SubmittedJob::at(7.0, chain_job("b", 1, 5, 2.0)),
            SubmittedJob::at(7.0, chain_job("c", 3, 1, 6.0)),
        ];
        let config = ClusterConfig::new(3).with_move_delay(0.5).with_time_scale(1.0);
        let materialized = Simulator::new(config.clone(), workload.clone(), flat_trace());
        let expected = materialized.run(&mut SparkStandaloneFifo::new()).unwrap();

        let streaming = Simulator::streaming(config, flat_trace());
        let mut source = workload.into_iter();
        let got = streaming
            .run_source(&mut source, &mut SparkStandaloneFifo::new())
            .unwrap();
        assert_eq!(got.makespan, expected.makespan);
        assert_eq!(got.tasks_dispatched, expected.tasks_dispatched);
        assert_eq!(got.jobs_submitted, expected.jobs_submitted);
        assert_eq!(got.jobs, expected.jobs);
        assert!(streaming.known_jobs().is_empty(), "streaming simulators hold no workload");
    }

    #[test]
    fn streaming_simulator_without_source_is_an_empty_workload() {
        let sim = Simulator::streaming(ClusterConfig::new(1), flat_trace());
        assert_eq!(sim.run(&mut SparkStandaloneFifo::new()).unwrap_err(), SimError::EmptyWorkload);
        let mut empty = std::iter::empty::<SubmittedJob>();
        assert_eq!(
            sim.run_source(&mut empty, &mut SparkStandaloneFifo::new()).unwrap_err(),
            SimError::EmptyWorkload
        );
    }

    #[test]
    fn out_of_order_sources_are_rejected() {
        let sim = Simulator::streaming(
            ClusterConfig::new(1).with_time_scale(1.0),
            flat_trace(),
        );
        let jobs = vec![
            SubmittedJob::at(10.0, chain_job("late", 1, 1, 1.0)),
            SubmittedJob::at(3.0, chain_job("early", 1, 1, 1.0)),
        ];
        let mut source = jobs.into_iter();
        match sim.run_source(&mut source, &mut SparkStandaloneFifo::new()) {
            Err(SimError::OutOfOrderArrival { job, arrival, previous }) => {
                assert_eq!(job, "early");
                assert_eq!(arrival, 3.0);
                assert_eq!(previous, 10.0);
            }
            other => panic!("expected OutOfOrderArrival, got {other:?}"),
        }
    }

    #[test]
    fn streamed_dags_are_validated_unless_prevalidated() {
        let bad = empty_second_stage(chain_job("bad", 2, 1, 1.0));
        let sim = Simulator::streaming(ClusterConfig::new(1), flat_trace());
        let mut source = vec![SubmittedJob::at(0.0, bad)].into_iter();
        match sim.run_source(&mut source, &mut SparkStandaloneFifo::new()) {
            Err(SimError::InvalidJob { job, .. }) => assert_eq!(job, "bad"),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
    }

    #[test]
    fn light_profile_mode_records_jobs_but_not_tasks() {
        let workload = vec![
            SubmittedJob::at(0.0, chain_job("a", 2, 3, 4.0)),
            SubmittedJob::at(5.0, chain_job("b", 1, 4, 2.0)),
        ];
        let run_with = |mode: ProfileMode| {
            let config = ClusterConfig::new(3)
                .with_move_delay(0.0)
                .with_time_scale(1.0)
                .with_profile_mode(mode);
            Simulator::new(config, workload.clone(), flat_trace())
                .run(&mut SparkStandaloneFifo::new())
                .unwrap()
        };
        let full = run_with(ProfileMode::Full);
        let light = run_with(ProfileMode::Light);
        // The schedule itself must be unaffected by the recording mode.
        assert_eq!(full.makespan, light.makespan);
        assert_eq!(full.tasks_dispatched, light.tasks_dispatched);
        assert_eq!(full.jobs, light.jobs);
        assert!(!full.profile.usage.is_empty());
        assert!(light.profile.usage.is_empty(), "light mode must skip usage samples");
        // Jobs-in-system is what the scale experiments need — always kept.
        assert_eq!(full.profile.jobs_in_system, light.profile.jobs_in_system);
    }

    /// A migration policy that moves every idle candidate to a fixed member.
    struct MoveIdleTo {
        to: usize,
    }
    impl MigrationPolicy for MoveIdleTo {
        fn name(&self) -> &str {
            "move-idle"
        }
        fn on_carbon_change(
            &mut self,
            _ctx: &MigrationContext<'_>,
            candidates: &[MigrationCandidate],
            out: &mut MigrationSink,
        ) {
            for c in candidates {
                if c.migratable() {
                    out.migrate(c.job, self.to);
                }
            }
        }
    }

    #[test]
    fn migration_moves_idle_jobs_and_charges_the_transfer() {
        use crate::federation::{Federation, Member};

        // Member A has one executor; two 4000 s single-task jobs arrive at
        // t=0 and are both routed to A.  At the first carbon step (3600 s)
        // the policy ships the still-queued second job to B, paying
        // 1 GB × 10 s/GB of transfer delay and 1 GB × 0.1 kWh/GB × 300 g/kWh
        // of transfer carbon (both grids are flat at 300).
        let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
        let fed = Federation::new(
            vec![
                Member::new("A", config.clone(), flat_trace()),
                Member::new("B", config, flat_trace()),
            ],
            vec![
                SubmittedJob::at(0.0, chain_job("a", 1, 1, 4000.0)).with_data_gb(1.0),
                SubmittedJob::at(0.0, chain_job("b", 1, 1, 4000.0)).with_data_gb(1.0),
            ],
        )
        .with_transfer_matrix(TransferMatrix::uniform(2, 10.0).with_energy_per_gb(0.1));
        let mut a = SparkStandaloneFifo::new();
        let mut b = SparkStandaloneFifo::new();
        let mut policy = MoveIdleTo { to: 1 };
        let result = {
            let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
            fed.run_with_migration(&mut StaticRouter::new(0), &mut policy, &mut schedulers)
                .unwrap()
        };
        assert!(result.all_jobs_complete());
        assert_eq!(result.migration_policy, "move-idle");
        assert_eq!(result.num_migrations(), 1);
        let m = result.migrations[0];
        assert_eq!((m.from, m.to), (0, 1));
        assert!((m.departed - 3600.0).abs() < 1e-9);
        assert!((m.gb - 1.0).abs() < 1e-12, "nothing dispatched, full data set moves");
        assert!((m.transfer_seconds - 10.0).abs() < 1e-9);
        assert!((m.arrived - 3610.0).abs() < 1e-9);
        assert!((m.transfer_carbon_grams - 30.0).abs() < 1e-9);
        // Job 0 runs on A [0, 4000]; job 1 runs on B [3610, 7610].
        assert!((result.members[0].result.makespan - 4000.0).abs() < 1e-9);
        assert!((result.members[1].result.makespan - 7610.0).abs() < 1e-9);
        assert_eq!(result.members[0].result.jobs_submitted, 1);
        assert_eq!(result.members[1].result.jobs_submitted, 1);
        assert_eq!(result.members[0].result.jobs.len(), 1);
        assert_eq!(result.members[1].result.jobs.len(), 1);
        // The migrated job keeps its original arrival for JCT purposes.
        assert_eq!(result.members[1].result.jobs[0].arrival, 0.0);
    }

    /// A scheduler that remembers every job it has ever seen arrive and
    /// stubbornly re-assigns all of them on every invocation — the worst
    /// case for stale references after a migration.
    struct Clingy {
        seen: Vec<JobId>,
    }
    impl Scheduler for Clingy {
        fn name(&self) -> &str {
            "clingy"
        }
        fn on_event(
            &mut self,
            event: SchedEvent<'_>,
            _ctx: &SchedulingContext<'_>,
            out: &mut DecisionSink,
        ) {
            if let SchedEvent::JobArrived { job } = event {
                self.seen.push(job.id);
            }
            for &job in &self.seen {
                out.dispatch(job, StageId(0), 1);
            }
        }
    }

    /// A stale assignment to a job that migrated away must be forgiven as a
    /// no-op (like completed-job staleness): the source's scheduler had no
    /// event through which to learn the job left.  Never-migrated jobs on
    /// other members keep the hard cross-member error (previous test).
    #[test]
    fn stale_assignments_to_migrated_jobs_are_forgiven() {
        use crate::federation::{Federation, Member};

        let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
        let fed = Federation::new(
            vec![
                Member::new("A", config.clone(), flat_trace()),
                Member::new("B", config, flat_trace()),
            ],
            // Jobs 0 and 1 arrive on A; 1 queues idle and migrates to B at
            // the first carbon step; job 2's arrival later makes A's clingy
            // scheduler re-emit assignments for all three.
            vec![
                SubmittedJob::at(0.0, chain_job("a", 1, 1, 4000.0)),
                SubmittedJob::at(0.0, chain_job("b", 1, 1, 4000.0)),
                SubmittedJob::at(5000.0, chain_job("c", 1, 1, 4000.0)),
            ],
        );
        let mut a = Clingy { seen: Vec::new() };
        let mut b = SparkStandaloneFifo::new();
        let mut policy = MoveIdleTo { to: 1 };
        let result = {
            let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
            fed.run_with_migration(&mut StaticRouter::new(0), &mut policy, &mut schedulers)
                .unwrap()
        };
        assert!(result.all_jobs_complete());
        assert_eq!(result.num_migrations(), 1);
        let ids = |m: usize| -> Vec<u64> {
            result.members[m].result.jobs.iter().map(|j| j.id.0).collect()
        };
        assert_eq!(ids(0), vec![0, 2], "jobs 0 and 2 finish on A");
        assert_eq!(ids(1), vec![1], "the migrated job finishes on B");
        // Job 2 dispatched at its arrival despite the stale verbs alongside.
        assert!((result.members[0].result.makespan - 9000.0).abs() < 1e-9);
    }
}
