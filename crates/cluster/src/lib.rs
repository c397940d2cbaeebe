//! # pcaps-cluster — a discrete-event Spark-like cluster simulator
//!
//! The paper evaluates PCAPS and CAP in two environments: a 100-node Spark on
//! Kubernetes prototype and a high-fidelity simulator of Spark's standalone
//! mode (Mao et al. \[48\]).  This crate implements the latter from scratch and
//! exposes enough configuration (per-job executor caps, executor-movement
//! delays, time scaling) to emulate the prototype's behaviour as well — see
//! Appendix A.1.2 of the paper for how the two environments differ.
//!
//! The simulator is event driven.  Jobs arrive over time; each job is a
//! [`pcaps_dag::JobDag`] of stages; each stage consists of tasks that run on
//! executors.  A *scheduling event* occurs whenever a job arrives, a task
//! finishes (freeing an executor), the carbon intensity changes — exactly
//! the event set of Algorithm 1 — or a scheduler-requested wakeup fires.
//! At each scheduling event the engine invokes the [`Scheduler`] with a
//! typed [`SchedEvent`] and a [`DecisionSink`]; the policy writes
//! [`Assignment`]s into the sink, or writes nothing to idle the free
//! executors, or asks to be woken later ([`DecisionSink::defer_until`] /
//! [`DecisionSink::defer_below`]) — which is how carbon-aware deferral is
//! expressed as a first-class scheduled event instead of a passive wait.
//!
//! Since the federation refactor the engine natively drives a
//! [`Federation`]: N member clusters, each with its own executor pool,
//! carbon trace (one grid region each) and scheduler instance, under one
//! shared deterministic event loop.  A [`Router`] places each arriving job
//! on a member, and a [`MigrationPolicy`] may later *move* it — paying the
//! cross-region transfer costs of the federation's [`NetworkTopology`] —
//! when a member's grid turns dirty after placement.  The single-cluster
//! [`Simulator`] is a thin wrapper around a one-member federation and
//! reproduces the pre-federation engine bit for bit.
//!
//! The engine records per-member executor-usage profiles and per-job
//! records, from which the metrics crate derives the carbon footprint (ex
//! post facto, §5.2), JCT, and ECT.
//!
//! ## Incremental-engine architecture (federated, v2 scheduler API)
//!
//! The scheduling hot path is *incremental and allocation-free in the
//! steady state*, per member cluster: nothing linear in total jobs, stages,
//! or forecast steps is recomputed per event, and no heap allocation happens
//! per decision.  Future schedulers, routers and engine changes must
//! preserve these invariants:
//!
//! * **Streaming intake.**  The workload is *pulled*, never preloaded: the
//!   engine draws arrivals from one [`ArrivalSource`] (a materialized run
//!   pulls from a clone of the federation's [`MaterializedJobs`]) through a
//!   one-job lookahead window that the event loop interleaves with the
//!   queue by time (arrivals win ties — the ordering that enqueueing the
//!   whole workload up front used to guarantee via insertion order, so
//!   materialized runs are bit-identical to the pre-streaming engine).
//!   The "arrivals come in ascending id order" invariant lives in the
//!   source contract: ids are assigned in pull order and the engine rejects
//!   out-of-order sources ([`SimError::OutOfOrderArrival`]).  Resident
//!   state is the window, the active jobs, and O(1)-per-seen-job
//!   bookkeeping (ownership/completion flags, stage counts — DAGs are
//!   dropped at completion under a lazy source); with
//!   [`ProfileMode::Light`] nothing recorded grows with the task count
//!   either, which is what lets 100k-job Alibaba-style runs fit.  New
//!   engine features must not reintroduce whole-workload borrows or
//!   preloading.
//!
//! * **Federation layering.**  One engine run owns a single shared
//!   event queue and a vector of member states; every event except a job
//!   arrival carries the index of the member it belongs to, and a
//!   scheduling pass touches *only* that member's state.  Per-event cost is
//!   therefore O(one member's active jobs), never O(federation).  The only
//!   O(members) steps are the per-event earliest-carbon-step scan and the
//!   per-arrival routing snapshot — both linear in the (small) member
//!   count, never in jobs, stages or trace length.
//! * **Routing layer.**  A [`Router`] is consulted exactly once per job, at
//!   arrival, with a [`RoutingContext`] of per-member [`MemberView`]s.  Each
//!   view is assembled in O(1) from incrementally maintained counters
//!   (queue depth, outstanding work, free executors) plus the trace's O(1)
//!   bounds index; the view buffer is engine-owned and reused across
//!   arrivals.
//! * **Migration layer.**  Placement is *not* permanent: a
//!   [`MigrationPolicy`] is consulted on every member's carbon step
//!   (multi-member federations with a non-inert policy only — the
//!   single-cluster `Simulator` and plain [`Federation::run`] skip the layer
//!   entirely via [`NeverMigrate`] and reproduce the pre-migration engine
//!   bit for bit) and may move jobs between members — *idle* jobs
//!   immediately, busy ones via a drain verb that stops their dispatching
//!   and moves them when the last running task resolves.  One transfer
//!   model prices a move, the federation's [`NetworkTopology`]: a pair that
//!   crosses no capacitated link pays a fixed delay (the job spends
//!   `remaining_gb × seconds_per_gb(from, to) + latency(from, to)` schedule
//!   seconds in transit on no member, the cross-region analogue of the
//!   in-cluster executor-move delay; a [`TransferMatrix`] is exactly this
//!   case and enters as [`NetworkTopology::from_matrix`]), and a pair that
//!   crosses capacitated links becomes a flow, max-min fair-shared with
//!   every transfer in flight — concurrent transfers over a congested link
//!   slow each other down, and the engine recomputes the allocation as a
//!   deterministic event whenever a flow starts or finishes.  Either way
//!   the transfer carbon integrates each endpoint's trace over the whole
//!   in-transit interval (`remaining_gb × energy_kwh_per_gb × ½(avg_from + avg_to)`
//!   grams, logged in the [`FederationResult::migrations`] records), so a
//!   transfer that spans carbon steps is priced against every step it
//!   crosses, not the departure instant.  Applying a move re-registers
//!   the job's `Arc<JobDag>`/`JobProgress` wholesale under the destination
//!   (joining the back of its arrival-ordered queue) and fixes both
//!   members' incremental counters in O(changed) — the source slot reindex
//!   costs what a completion does; nothing linear in the federation, trace
//!   or total jobs is rescanned.  One consultation costs O(members + the
//!   stepped member's active jobs), with the view/candidate buffers and the
//!   [`MigrationSink`] engine-owned and reused.  Deferral wakeups remain
//!   member-scoped and advisory: after a job migrates away, a wakeup its
//!   old member requested still fires *there* (and is suppressed like any
//!   wakeup when that member has nothing to decide); the new owner is
//!   instead re-invoked with a `JobArrived` event when the transfer
//!   completes.  Stale *assignments* to a job that migrated away are
//!   forgiven as no-ops, exactly like completed-job staleness — the former
//!   owner's scheduler had no event through which to learn the job left —
//!   while cross-member assignments to never-migrated jobs stay hard
//!   errors.
//! * **Active-job index.**  Each member maintains its arrived-incomplete job
//!   table (`active`, ordered by arrival, plus the global-id → slot map)
//!   across events; arrivals push, completions remove.  A
//!   [`SchedulingContext`] is a borrow of that table — building one
//!   allocates nothing, and [`SchedulingContext::jobs`] materialises
//!   [`JobView`]s on the fly.  Schedulers must not assume views outlive the
//!   invocation.
//! * **Push-based decisions.**  Each member owns one [`DecisionSink`] per
//!   run; the engine clears (never drops) its buffers between invocations.
//!   Policies that need scratch buffers (sorting, scoring) must own and
//!   reuse them.  (The deprecated v1 `LegacyScheduler` trait and its
//!   per-event-allocating blanket adapter were removed after one
//!   deprecation cycle; every policy implements [`Scheduler`] natively.)
//! * **Steady-state serving.**  The open-arrival mode ([`serve`]) advances
//!   the same engine in caller-controlled time slices instead of to
//!   completion: a [`ServeSession`] stops *before* applying any event past
//!   the horizon, so slicing is invisible to the simulation, and finite
//!   runs (`stop_at = None`) take the untouched historical loop.  Serving
//!   sessions compact retired jobs off the front of the per-job tables
//!   (resident state scales with jobs in system, never jobs ever seen —
//!   the slot maps carry a compaction base so id lookups stay O(1)), an
//!   [`AdmissionPolicy`] consulted once per arrival keeps queues bounded
//!   under overload (`accepted + rejected == arrivals`, counted per
//!   member in [`SimulationResult::jobs_rejected`]), and an
//!   [`EngineSnapshot`] — the `Clone` of the engine's one run-state struct,
//!   which holds every field a run changes — gives bit-identical
//!   stop/restore across sessions.  New engine features must keep the
//!   horizon check side-effect-free and put every field a run changes in
//!   the run state, where the snapshot captures it by construction.
//! * **One event loop.**  Each iteration takes the earliest of the next
//!   fault injection, carbon step, arrival and queue event, applies it,
//!   and runs at most one member's scheduling pass, on the caller's
//!   thread.  Same-instant events are never coalesced, so each one reaches
//!   its member's scheduler as its own typed [`SchedEvent`].  Sweeps get
//!   their parallelism from independent trials, not from inside a run.
//! * **Typed events, engine-managed timers.**  Policies learn *why* they run
//!   from [`SchedEvent`] and resume from deferral through engine-scheduled
//!   wakeups: `defer_until` enqueues a timer event at an exact instant
//!   (piercing the carbon-step granularity) and `defer_below` resolves the
//!   threshold crossing against *the requesting member's* trace range-min
//!   index in O(log trace) — never by linear forecast walks in the event
//!   loop.  Wakeup events carry their member and are delivered only to it.
//! * **Shared DAGs.**  Workloads hold `Arc<JobDag>`; activating a job bumps
//!   a reference count (no deep clone), and [`Federation::new`] validates
//!   every DAG exactly once.  DAGs are immutable once submitted — caches
//!   hang off them (bottleneck scores on `JobDag`, the range-min/max bounds
//!   index on `CarbonTrace`), so mutating a submitted DAG in place is a
//!   contract violation.
//! * **Incremental frontier sets.**  `JobProgress` keeps the runnable and
//!   dispatchable stage sets sorted and up to date in O(children) per
//!   completion; `dispatchable_stages()` returns a borrowed slice and
//!   `remaining_work` answers in O(stages) from the DAG's cached duration
//!   suffix sums.  A task's completion reads no DAG: the stage's packed
//!   pending/running/finished counts and the retry queue decide whether the
//!   stage completed (only a stage completion walks its children), and a
//!   fresh task's index is its stage's running + finished count.  Any new
//!   mutation of task state must go through
//!   `dispatch_task`/`fail_task`/`finish_task` so those sets and counts
//!   stay coherent.
//! * **Schedulers are incremental too.**  The O(changed) discipline does not
//!   stop at the engine boundary: policy-side derived state (score tables,
//!   per-job feature caches, aggregate counts) persists across invocations
//!   and is revalidated per event against `JobProgress`'s monotonic mutation
//!   version — equal job id + equal version means equal observable progress,
//!   so a cached entry is reused bit for bit and only mutated jobs are
//!   recomputed.  Revalidation keys off engine-owned state, never off the
//!   [`SchedEvent`] stream: events are advisory (wakeups are suppressed,
//!   migrations arrive as plain `JobArrived`, a departing job sends its
//!   former member no event), so a policy that trusted event delivery for
//!   cache invalidation would silently go stale.  Aggregates a policy needs every event (e.g. total
//!   outstanding work) come from the engine's incrementally maintained
//!   counters via [`SchedulingContext`] accessors rather than per-event
//!   folds over the job table.  Derived values that depend on *every* job
//!   are cached under the bits of the global input they were computed
//!   from.  `DecimaLike` factorises its softmax into a per-job factor and a
//!   per-job sum of stage factors, keys each job's entry by job version,
//!   and recomputes every job factor only when the max-remaining
//!   normaliser's bits change (or its overflow guard rebases the
//!   reference score).  Nothing is stored or folded per stage: the sum and
//!   the max probability are folds over jobs, and sampling walks the jobs,
//!   then the chosen job's stages.  `tests/scheduler_state.rs` pins it bit
//!   for bit against a from-scratch factorised recomputation, and within
//!   rounding of the textbook softmax, across arrivals, completions,
//!   serve-mode compaction and migration, through both the distribution
//!   and the sampling paths.
//! * **O(1) carbon bounds.**  Per-event `CarbonView`s (for scheduling and
//!   routing alike) are served by each trace's sparse-table index; linear
//!   walks over the forecast horizon belong in trace construction, never in
//!   the event loop.
//! * **Fault layer.**  Failures are *scheduled data*, not randomness at run
//!   time: a [`FaultPlan`] materialises into a sorted [`FaultSchedule`]
//!   attached to the federation, and the event loop interleaves injections
//!   with the queue by time (an injection fires only when strictly earlier
//!   than every queued event and carbon step, so the empty schedule — the
//!   default — reproduces the fault-free engine bit for bit at one `Option`
//!   comparison per iteration).  An executor crash kills the in-flight task
//!   by bumping the executor's *epoch* (the stale finish event is dropped on
//!   pop — no queue surgery), books the dispatch-to-crash interval as wasted
//!   work, and re-releases the task after the [`RetryPolicy`] backoff; a
//!   region outage stops a member's dispatching, drains its running tasks,
//!   and evacuates its idle jobs over the priced migration path; a
//!   carbon-signal dropout freezes the member's [`CarbonView`] at the last
//!   seen intensity with [`CarbonView::stale`] set.  Recovery bookkeeping is
//!   O(affected member), allocation-free on the no-fault path, and fully
//!   deterministic: same schedule, same seeds, same run.
//! * **No wall clock.**  The engine keeps only simulated time and reads no
//!   host clock, so a run is a pure function of its inputs.  Harnesses that
//!   time a policy (the Fig. 20 latency experiment, the benchmark's
//!   per-layer split) wrap it in a forwarding [`Scheduler`] outside the
//!   engine.
//!
//! ## Example
//!
//! ```
//! use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob, schedulers::SimpleFifo};
//! use pcaps_carbon::CarbonTrace;
//! use pcaps_dag::{JobDagBuilder, Task};
//!
//! let job = JobDagBuilder::new("j")
//!     .stage("a", vec![Task::new(5.0); 4])
//!     .stage("b", vec![Task::new(2.0)])
//!     .edge_by_name("a", "b").unwrap()
//!     .build().unwrap();
//! let config = ClusterConfig::new(4);
//! let carbon = CarbonTrace::constant("flat", 300.0, 48);
//! let sim = Simulator::new(config, vec![SubmittedJob::at(0.0, job)], carbon);
//! let mut fifo = SimpleFifo::new();
//! let result = sim.run(&mut fifo).unwrap();
//! assert!(result.all_jobs_complete());
//! ```
//!
//! See the [`federation`] module for the multi-cluster equivalent.
//!
//! [`Federation`]: federation::Federation
//! [`Federation::new`]: federation::Federation::new
//! [`FaultPlan`]: faults::FaultPlan
//! [`FaultSchedule`]: faults::FaultSchedule
//! [`RetryPolicy`]: faults::RetryPolicy
//! [`CarbonView::stale`]: scheduler_api::CarbonView::stale

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod executor;
pub mod faults;
pub mod federation;
pub mod job_state;
pub mod network;
pub mod profile;
pub mod result;
pub mod routing;
pub mod scheduler_api;
pub mod schedulers;
pub mod serve;
pub mod source;

pub use admission::{AdmissionDecision, AdmissionPolicy, BoundedQueue};
pub use config::{ClusterConfig, ProfileMode};
pub use engine::{EngineSnapshot, Simulator};
pub use serve::ServeSession;
pub use error::{PartialRunSummary, SimError};
pub use faults::{
    CarbonSignalDropout, CrashVictim, FaultContext, FaultEffect, FaultInjection, FaultKind,
    FaultPlan, FaultRecord, FaultSchedule, PoissonCrashes, RegionOutage, RetryPolicy,
};
pub use federation::{Federation, Member};
pub use job_state::{JobRecord, SubmittedJob};
pub use network::{FlowArrivalPlan, FlowSet, NetworkLink, NetworkTopology, TransferFlow};
pub use profile::{ExecutorSegment, UsageProfile};
pub use result::{FederationResult, LinkUtilization, MemberResult, MigrationRecord, SimulationResult};
pub use routing::{
    MemberView, Migration, MigrationCandidate, MigrationContext, MigrationPolicy, MigrationSink,
    NeverMigrate, Router, RoutingContext, StaticRouter, TransferMatrix,
};
pub use source::{ArrivalSource, MaterializedJobs};
pub use scheduler_api::{
    Assignment, CarbonView, DecisionSink, DeferRequest, JobView, SchedEvent, Scheduler,
    SchedulingContext, WakeupToken,
};
