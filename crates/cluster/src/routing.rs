//! The placement layers of a [`Federation`]: deciding *which member cluster*
//! a job runs in, one level above the per-cluster scheduling decided by
//! [`Scheduler`].  Two sibling policies share this module's vocabulary:
//!
//! * a [`Router`] is consulted exactly once per job, at the job's arrival
//!   event, with a [`RoutingContext`] summarising every member cluster
//!   (carbon signal, queue depth, outstanding work, executor occupancy),
//! * a [`MigrationPolicy`] may later *revise* that placement: it is
//!   consulted on every member's carbon step (the federated analogue of
//!   [`SchedEvent::CarbonChanged`]) with that member's still-idle jobs as
//!   [`MigrationCandidate`]s, and may emit `Migrate { job, to }` verbs into
//!   a [`MigrationSink`].  Placement is therefore no longer permanent — a
//!   job stranded on a grid that turned dirty after arrival can be re-routed
//!   mid-flight.
//!
//! ## Migration pricing
//!
//! Moving a job is not free.  A migrating job's remaining state
//! (`remaining_gb` — the job's [`SubmittedJob::data_gb`] scaled by its
//! fraction of undispatched work, modelling in-flight DAG state rather than
//! a full re-upload) crosses the federation's network, during which the job
//! runs nowhere.  One model prices that crossing, the federation's
//! [`NetworkTopology`] (see the `network` module), and every migrating job
//! is one *flow* out of its source member, its rate capped at
//! `1 / seconds_per_gb`:
//!
//! * a member without an uplink is an uncapacitated source, so a job
//!   leaving it moves at the cap and pays exactly
//!   `remaining_gb × seconds_per_gb(from, to)` schedule seconds (the
//!   cross-region analogue of the in-cluster
//!   [`ClusterConfig::executor_move_delay`]), independent of how many other
//!   transfers are in flight.  A [`TransferMatrix`] describes exactly this
//!   case and enters a federation as [`NetworkTopology::from_matrix`];
//! * a job leaving a member with an uplink shares the uplink's bandwidth
//!   **evenly** with the other flows leaving that member (the max-min fair
//!   share), so the delay of a transfer depends on the contention it meets.
//!
//! The transfer's **carbon** is priced against both endpoint grids, half
//! each: the energy `remaining_gb × energy_kwh_per_gb` is charged at
//! `½(avg_from + avg_to)` grams/kWh, where each average is the endpoint
//! trace's mean intensity over the transfer interval
//! `[departure, arrival]` (via the trace integral, so a transfer spanning
//! carbon steps prices every step it crosses — not a snapshot of the
//! departure instant, which mispriced long transfers).  For a zero-duration
//! transfer the mean degenerates to the instantaneous intensity.
//!
//! ## Drain-then-move
//!
//! A candidate with running or retrying tasks cannot be moved immediately,
//! but a policy may emit a [`MigrationSink::drain`] verb for it: the job
//! stops dispatching new tasks (assignments for it become forgiven no-ops),
//! its running tasks finish in place, and when the last one resolves the
//! engine detaches the job and transfers its remaining state as usual.
//! Candidates expose [`MigrationCandidate::draining`] so policies can avoid
//! re-draining a job already on its way out.
//!
//! [`NetworkTopology`]: crate::network::NetworkTopology
//! [`NetworkTopology::from_matrix`]: crate::network::NetworkTopology::from_matrix
//!
//! Both layers obey the same hot-path discipline as scheduling: the engine
//! maintains each member's queue depth and outstanding (undispatched) work
//! incrementally, each [`MemberView`]'s carbon bounds come from the trace's
//! O(1) forecast-bounds table, and the view/candidate buffers are engine-owned
//! and reused, so building a routing or migration context is
//! O(members + one member's active jobs) with no allocation in the steady
//! state.
//!
//! Built-in policies (round-robin, least-outstanding-work, carbon-greedy,
//! carbon+queue-aware routers; the carbon-delta-vs-transfer-cost migrator
//! with hysteresis) live in `pcaps-schedulers::routing`; this module only
//! defines the interfaces plus the trivial [`StaticRouter`] /
//! [`NeverMigrate`] policies that the single-member [`Simulator`] wrapper
//! and plain [`Federation::run`] use.
//!
//! [`ClusterConfig::executor_move_delay`]: crate::config::ClusterConfig::executor_move_delay
//! [`Federation`]: crate::federation::Federation
//! [`Federation::run`]: crate::federation::Federation::run
//! [`Scheduler`]: crate::scheduler_api::Scheduler
//! [`SchedEvent::CarbonChanged`]: crate::scheduler_api::SchedEvent::CarbonChanged
//! [`Simulator`]: crate::engine::Simulator

use crate::job_state::SubmittedJob;
use crate::network::{FlowSet, NetworkTopology};
use crate::scheduler_api::CarbonView;
use pcaps_dag::JobId;

/// Read-only snapshot of one member cluster at a routing decision.
#[derive(Debug, Clone, Copy)]
pub struct MemberView {
    /// Index of the member within the federation (the value a router
    /// returns to place a job here).
    pub member: usize,
    /// The member's carbon signal: current intensity plus forecast bounds
    /// over the [`FORECAST_HORIZON`](crate::config::FORECAST_HORIZON).
    pub carbon: CarbonView,
    /// Number of active (arrived, incomplete) jobs on the member.
    pub queue_depth: usize,
    /// Executor-seconds of routed-but-not-yet-dispatched task work queued on
    /// the member (maintained incrementally: routing a job adds its total
    /// work, dispatching a task subtracts that task's duration).
    pub outstanding_work: f64,
    /// Total executors in the member cluster.
    pub total_executors: usize,
    /// Currently idle executors in the member cluster.
    pub free_executors: usize,
    /// False while the member is in a region outage: it is not dispatching
    /// and routers must treat it as unroutable.  Routing a job to an
    /// unavailable member is not an error — the job simply queues until the
    /// outage ends — but every built-in router filters unavailable members
    /// out (falling back to all members only if the whole federation is
    /// down).
    pub available: bool,
}

impl MemberView {
    /// Outstanding work per executor — the member's backlog expressed in
    /// seconds of work per machine, a scale-free congestion measure routers
    /// can compare across members of different sizes.
    pub fn backlog_seconds(&self) -> f64 {
        self.outstanding_work / self.total_executors as f64
    }
}

/// Everything a router can see when placing a job: one [`MemberView`] per
/// member cluster, in member-index order.
#[derive(Debug)]
pub struct RoutingContext<'a> {
    /// Current schedule time (seconds).
    pub time: f64,
    members: &'a [MemberView],
}

impl<'a> RoutingContext<'a> {
    /// Builds a context over per-member views (ordered by member index).
    pub fn new(time: f64, members: &'a [MemberView]) -> Self {
        RoutingContext { time, members }
    }

    /// The member views, ordered by member index.
    pub fn members(&self) -> &'a [MemberView] {
        self.members
    }

    /// Number of member clusters in the federation.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }
}

/// A job-placement policy for a federation of clusters.
///
/// Implementations must be deterministic given their own internal state; the
/// engine introduces no randomness.  `route` must return a member index in
/// `0..ctx.num_members()` — out-of-range indices abort the run with
/// [`SimError::InvalidRoute`].
///
/// [`SimError::InvalidRoute`]: crate::error::SimError::InvalidRoute
pub trait Router {
    /// Human-readable policy name used in result tables.
    fn name(&self) -> &str;

    /// Places the arriving job `id` (with static description `job`) on a
    /// member cluster, returning the member index.
    fn route(&mut self, id: JobId, job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize;
}

/// Routes every job to one fixed member.  This is the degenerate router the
/// single-cluster [`Simulator`] wrapper uses (member 0), and a useful
/// baseline for "best single grid" comparisons.
///
/// [`Simulator`]: crate::engine::Simulator
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRouter {
    /// The member every job is routed to.
    pub member: usize,
}

impl StaticRouter {
    /// Routes everything to `member`.
    pub fn new(member: usize) -> Self {
        StaticRouter { member }
    }
}

impl Router for StaticRouter {
    fn name(&self) -> &str {
        "static"
    }

    fn route(&mut self, _id: JobId, _job: &SubmittedJob, _ctx: &RoutingContext<'_>) -> usize {
        self.member
    }
}

/// Cross-region transfer costs: a builder for the link-free
/// [`NetworkTopology`] that [`NetworkTopology::from_matrix`] (and so
/// [`Federation::with_transfer_matrix`]) turns it into.
///
/// The matrix prices the link from every member to every other member at
/// one rate in **schedule seconds per gigabyte** — the time a migrating job
/// spends in transit per GB of remaining state — plus one scalar
/// [`energy_kwh_per_gb`] used to attribute carbon to the movement itself.
/// The diagonal is always zero (a job is never "transferred" to the member
/// it is already on; same-member migrations are no-ops).
///
/// Units recap:
///
/// * `seconds_per_gb(from, to)` — schedule seconds per GB.  At the paper's
///   60× time scale, 1 schedule second is 1 carbon minute, so a per-GB
///   rate of 2.0 means a 10 GB job spends 20 carbon-minutes on the wire.
/// * `energy_kwh_per_gb` — kWh drawn by the network path per GB moved;
///   a migration is charged `gb × energy × ½(c̄_from + c̄_to)` grams, each
///   `c̄` the endpoint's mean intensity over the transfer interval.
///
/// [`energy_kwh_per_gb`]: TransferMatrix::energy_kwh_per_gb
/// [`Federation::with_transfer_matrix`]: crate::federation::Federation::with_transfer_matrix
#[derive(Debug, Clone, PartialEq)]
pub struct TransferMatrix {
    /// Per-GB rate (schedule seconds per GB) of every off-diagonal pair.
    pub(crate) seconds_per_gb: f64,
    /// Energy drawn by the network per GB moved (kWh/GB).
    energy_kwh_per_gb: f64,
    n: usize,
}

impl TransferMatrix {
    /// A free matrix: every link costs zero time and zero energy —
    /// migration semantics without movement cost.  Its
    /// [`NetworkTopology::from_matrix`] is [`NetworkTopology::new`], the
    /// default transfer model of [`Federation::new`].
    ///
    /// [`Federation::new`]: crate::federation::Federation::new
    pub fn zero(members: usize) -> Self {
        TransferMatrix::uniform(members, 0.0)
    }

    /// A uniform matrix: every off-diagonal link costs `seconds_per_gb`
    /// schedule seconds per GB (the diagonal stays zero).
    ///
    /// # Panics
    /// Panics if `members` is zero or `seconds_per_gb` is negative or not
    /// finite.
    pub fn uniform(members: usize, seconds_per_gb: f64) -> Self {
        assert!(members > 0, "transfer matrix needs at least one member");
        assert!(
            seconds_per_gb >= 0.0 && seconds_per_gb.is_finite(),
            "per-GB transfer rate must be non-negative and finite"
        );
        TransferMatrix { seconds_per_gb, energy_kwh_per_gb: 0.0, n: members }
    }

    /// Sets the network energy per GB moved (kWh/GB).
    ///
    /// # Panics
    /// Panics if `kwh` is negative or not finite.
    pub fn with_energy_per_gb(mut self, kwh: f64) -> Self {
        assert!(
            kwh >= 0.0 && kwh.is_finite(),
            "transfer energy per GB must be non-negative and finite"
        );
        self.energy_kwh_per_gb = kwh;
        self
    }

    /// Number of members the matrix covers.
    pub fn num_members(&self) -> usize {
        self.n
    }

    /// Per-GB rate (schedule seconds) of the directed link `from → to`:
    /// the matrix's one rate off the diagonal, 0 on it.
    pub fn seconds_per_gb(&self, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.seconds_per_gb
        }
    }

    /// Network energy per GB moved (kWh/GB).
    pub fn energy_kwh_per_gb(&self) -> f64 {
        self.energy_kwh_per_gb
    }
}

/// One job a [`MigrationPolicy`] may consider moving: a snapshot of its
/// remaining state on the consulted member.
///
/// The engine offers **every** active job of the consulted member (so a
/// policy — or a property test — can recompute the member's aggregate
/// counters from scratch), but only [`migratable`] jobs may legally be
/// migrated: a job with running tasks stays until they drain.
///
/// [`migratable`]: MigrationCandidate::migratable
#[derive(Debug, Clone, Copy)]
pub struct MigrationCandidate {
    /// The job's id.
    pub job: JobId,
    /// Undispatched executor-seconds of work remaining.
    pub remaining_work: f64,
    /// Gigabytes of state a migration would move now
    /// ([`SubmittedJob::data_gb`] scaled by the remaining-work fraction).
    pub remaining_gb: f64,
    /// Executors currently running tasks of this job on the member.
    pub busy_executors: usize,
    /// Tasks of this job in retry backoff after an executor crash.  A job
    /// with cooling-down tasks cannot migrate: the retry timer is anchored
    /// to the member that owns the job.  Always 0 on fault-free runs.
    pub retrying_tasks: usize,
    /// True if the job is already draining toward a migration (a previous
    /// [`MigrationSink::drain`] verb is pending its running tasks).
    /// Policies typically skip draining candidates to avoid churning the
    /// destination while the job is on its way out.
    pub draining: bool,
}

impl MigrationCandidate {
    /// True if the job may be migrated right now (no running tasks and no
    /// tasks in retry backoff on the source member).  Non-migratable
    /// candidates can still be *drained* toward a destination with
    /// [`MigrationSink::drain`].
    pub fn migratable(&self) -> bool {
        self.busy_executors == 0 && self.retrying_tasks == 0
    }
}

/// Everything a migration policy can see when consulted: the carbon step
/// that triggered it, one [`MemberView`] per member, and the federation's
/// transfer model with the transfers currently in flight over it.
#[derive(Debug)]
pub struct MigrationContext<'a> {
    /// Current schedule time (seconds).
    pub time: f64,
    /// The member whose carbon intensity just stepped (the member the
    /// offered candidates live on).
    pub member: usize,
    /// That member's carbon-trace seconds per schedule second (its
    /// [`ClusterConfig::time_scale`]): what turns a candidate's remaining
    /// executor-seconds into carbon time, as the member's accountant does.
    ///
    /// [`ClusterConfig::time_scale`]: crate::config::ClusterConfig::time_scale
    pub time_scale: f64,
    members: &'a [MemberView],
    network: &'a NetworkTopology,
    flows: &'a FlowSet,
}

impl<'a> MigrationContext<'a> {
    /// Builds a context for a consultation of `member` (whose time scale
    /// is `time_scale`) over per-member views (ordered by member index),
    /// the federation's network topology and its in-flight flow set.
    pub fn new(
        time: f64,
        member: usize,
        time_scale: f64,
        members: &'a [MemberView],
        network: &'a NetworkTopology,
        flows: &'a FlowSet,
    ) -> Self {
        MigrationContext { time, member, time_scale, members, network, flows }
    }

    /// The member views, ordered by member index.
    pub fn members(&self) -> &'a [MemberView] {
        self.members
    }

    /// Number of member clusters in the federation.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Estimated transfer delay (schedule seconds) of moving `gb` gigabytes
    /// `from → to` *right now*: 0 when `from == to`, otherwise `gb` at the
    /// fair share a new flow would get against the transfers currently
    /// leaving `from`, held constant (a lower bound on interference — rates
    /// can drop further if more flows start).  When `from` has no uplink
    /// that share is the per-GB cap and the estimate is exactly
    /// `gb × seconds_per_gb`.
    pub fn estimated_transfer_seconds(&self, from: usize, to: usize, gb: f64) -> f64 {
        self.flows.estimate_seconds(self.network, from, to, gb)
    }

    /// Estimated transfer carbon (grams) of moving `gb` gigabytes between
    /// grids at `c_from` and `c_to` g/kWh: the network energy priced at the
    /// endpoint mean.  The engine charges a migration through the same
    /// formula with each endpoint's *mean intensity over the transfer
    /// interval* (see the module docs); called with instantaneous
    /// intensities, as policies do, it is exact for a transfer that crosses
    /// no carbon step.
    pub fn estimated_transfer_carbon_grams(&self, gb: f64, c_from: f64, c_to: f64) -> f64 {
        gb * self.network.energy_kwh_per_gb() * 0.5 * (c_from + c_to)
    }
}

/// A migration verb: move `job` to member `to`, either immediately
/// (`drain: false`, legal only for idle jobs) or by drain-then-move
/// (`drain: true`, which also accepts jobs with running/retrying tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The job to move.
    pub job: JobId,
    /// Destination member index.
    pub to: usize,
    /// True for a drain-then-move verb: the job stops dispatching, running
    /// tasks finish in place, then the remaining state transfers.  A drain
    /// verb for an already-idle job migrates it immediately.
    pub drain: bool,
}

/// The engine-owned, reused buffer a migration policy writes its verbs
/// into.  Like [`DecisionSink`], one sink lives for a whole run and is
/// cleared (never reallocated) between consultations.
///
/// [`DecisionSink`]: crate::scheduler_api::DecisionSink
#[derive(Debug, Clone, Default)]
pub struct MigrationSink {
    moves: Vec<Migration>,
}

impl MigrationSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MigrationSink::default()
    }

    /// Records an immediate-migration verb (legal only for idle jobs).
    pub fn migrate(&mut self, job: JobId, to: usize) {
        self.moves.push(Migration { job, to, drain: false });
    }

    /// Records a drain-then-move verb: `job` stops dispatching, its running
    /// tasks finish in place, then it migrates to `to`.  Legal for any
    /// active job; an already-idle job migrates immediately.
    pub fn drain(&mut self, job: JobId, to: usize) {
        self.moves.push(Migration { job, to, drain: true });
    }

    /// The verbs recorded since the last [`MigrationSink::clear`].
    pub fn moves(&self) -> &[Migration] {
        &self.moves
    }

    /// True if no verbs were recorded.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Clears the recorded verbs, keeping capacity.
    pub fn clear(&mut self) {
        self.moves.clear();
    }
}

/// A live-migration policy for a federation of clusters.
///
/// The engine consults the policy on **every member's carbon step** (for
/// federations of at least two members), offering that member's active jobs
/// as [`MigrationCandidate`]s.  The policy may emit `Migrate` verbs for any
/// *migratable* candidate (no running tasks) and `Drain` verbs for any
/// candidate at all; the engine validates each verb — migrating a completed
/// job is a no-op (historical semantics, matching stale assignments), every
/// other invalid verb aborts the run with [`SimError::InvalidMigration`] —
/// then charges the transfer delay and carbon over the federation's
/// [`NetworkTopology`] and re-registers the job under the destination
/// member.
///
/// Implementations must be deterministic given their own internal state; the
/// engine introduces no randomness.
///
/// [`SimError::InvalidMigration`]: crate::error::SimError::InvalidMigration
pub trait MigrationPolicy {
    /// Human-readable policy name used in result tables.
    fn name(&self) -> &str;

    /// True if the policy can never emit a verb.  The engine skips building
    /// candidate lists entirely for such policies, so plain routed runs pay
    /// nothing for the migration layer.  Defaults to `false`.
    fn never_migrates(&self) -> bool {
        false
    }

    /// Consulted when `ctx.member`'s carbon intensity steps; `candidates`
    /// are that member's active jobs.
    fn on_carbon_change(
        &mut self,
        ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    );
}

/// The do-nothing migration policy: placement stays wherever the router put
/// it.  This is what plain [`Federation::run`] (and therefore the
/// single-cluster [`Simulator`]) uses, and the baseline every migration
/// experiment compares against.
///
/// [`Federation::run`]: crate::federation::Federation::run
/// [`Simulator`]: crate::engine::Simulator
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverMigrate;

impl NeverMigrate {
    /// Creates the policy.
    pub fn new() -> Self {
        NeverMigrate
    }
}

impl MigrationPolicy for NeverMigrate {
    fn name(&self) -> &str {
        "never-migrate"
    }

    fn never_migrates(&self) -> bool {
        true
    }

    fn on_carbon_change(
        &mut self,
        _ctx: &MigrationContext<'_>,
        _candidates: &[MigrationCandidate],
        _out: &mut MigrationSink,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(member: usize, intensity: f64, outstanding: f64) -> MemberView {
        MemberView {
            member,
            carbon: CarbonView::flat(intensity),
            queue_depth: 0,
            outstanding_work: outstanding,
            total_executors: 4,
            free_executors: 4,
            available: true,
        }
    }

    #[test]
    fn context_exposes_members_in_order() {
        let views = [view(0, 100.0, 8.0), view(1, 50.0, 0.0)];
        let ctx = RoutingContext::new(3.0, &views);
        assert_eq!(ctx.num_members(), 2);
        assert_eq!(ctx.members()[1].member, 1);
        assert_eq!(ctx.time, 3.0);
    }

    #[test]
    fn backlog_is_per_executor() {
        assert!((view(0, 100.0, 8.0).backlog_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn static_router_is_constant() {
        use pcaps_dag::{JobDagBuilder, Task};
        let dag = JobDagBuilder::new("j")
            .stage("s", vec![Task::new(1.0)])
            .build()
            .unwrap();
        let job = SubmittedJob::at(0.0, dag);
        let views = [view(0, 100.0, 0.0), view(1, 50.0, 0.0)];
        let ctx = RoutingContext::new(0.0, &views);
        let mut r = StaticRouter::new(1);
        assert_eq!(r.name(), "static");
        for i in 0..4 {
            assert_eq!(r.route(JobId(i), &job, &ctx), 1);
        }
    }

    #[test]
    fn transfer_matrix_zero_and_uniform() {
        let z = TransferMatrix::zero(3);
        assert_eq!(z.num_members(), 3);
        assert_eq!(z.seconds_per_gb(0, 2), 0.0);
        assert_eq!(z.energy_kwh_per_gb(), 0.0);
        let u = TransferMatrix::uniform(3, 2.5).with_energy_per_gb(0.05);
        for from in 0..3 {
            for to in 0..3 {
                let expected = if from == to { 0.0 } else { 2.5 };
                assert_eq!(u.seconds_per_gb(from, to), expected);
            }
        }
        assert_eq!(u.energy_kwh_per_gb(), 0.05);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn transfer_matrix_rejects_negative_latency() {
        let _ = TransferMatrix::uniform(2, -1.0);
    }

    #[test]
    fn migration_sink_records_and_clears() {
        let mut sink = MigrationSink::new();
        assert!(sink.is_empty());
        sink.migrate(JobId(3), 1);
        sink.migrate(JobId(5), 0);
        sink.drain(JobId(7), 2);
        assert_eq!(
            sink.moves(),
            &[
                Migration { job: JobId(3), to: 1, drain: false },
                Migration { job: JobId(5), to: 0, drain: false },
                Migration { job: JobId(7), to: 2, drain: true },
            ]
        );
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn migration_context_exposes_members_and_transfer() {
        let views = [view(0, 400.0, 0.0), view(1, 100.0, 0.0)];
        let topo =
            NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 3.0).with_energy_per_gb(0.05));
        let flows = FlowSet::new(&topo);
        let ctx = MigrationContext::new(7.0, 0, 60.0, &views, &topo, &flows);
        assert_eq!(ctx.num_members(), 2);
        assert_eq!(ctx.member, 0);
        assert_eq!(ctx.time, 7.0);
        assert_eq!(ctx.time_scale, 60.0);
        assert_eq!(ctx.members()[1].member, 1);
        // A matrix-built topology prices each pair at its fixed per-GB rate.
        assert_eq!(ctx.estimated_transfer_seconds(0, 1, 4.0), 12.0);
        assert_eq!(ctx.estimated_transfer_seconds(1, 1, 4.0), 0.0);
        // 4 GB × 0.05 kWh/GB priced at the endpoint mean (300 g/kWh).
        assert!((ctx.estimated_transfer_carbon_grams(4.0, 500.0, 100.0) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn migration_context_estimates_through_an_attached_network() {
        let views = [view(0, 400.0, 0.0), view(1, 100.0, 0.0)];
        let topo = NetworkTopology::new(2).with_uplink(0, 2.0).with_energy_per_gb(0.1);
        let flows = FlowSet::new(&topo);
        let ctx = MigrationContext::new(0.0, 0, 60.0, &views, &topo, &flows);
        // 10 GB over an idle 2 GB/s uplink.
        assert!((ctx.estimated_transfer_seconds(0, 1, 10.0) - 5.0).abs() < 1e-12);
        // Carbon prices through the topology's energy scalar.
        assert!((ctx.estimated_transfer_carbon_grams(10.0, 500.0, 100.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn candidate_migratable_requires_idle_job() {
        let idle = MigrationCandidate {
            job: JobId(0),
            remaining_work: 10.0,
            remaining_gb: 0.1,
            busy_executors: 0,
            retrying_tasks: 0,
            draining: false,
        };
        let busy = MigrationCandidate { busy_executors: 2, ..idle };
        let cooling = MigrationCandidate { retrying_tasks: 1, ..idle };
        assert!(idle.migratable());
        assert!(!busy.migratable());
        assert!(!cooling.migratable(), "tasks in retry backoff pin the job");
    }

    #[test]
    fn never_migrate_is_inert() {
        let mut policy = NeverMigrate::new();
        assert_eq!(policy.name(), "never-migrate");
        assert!(policy.never_migrates());
        let views = [view(0, 500.0, 0.0), view(1, 100.0, 0.0)];
        let topo = NetworkTopology::new(2);
        let flows = FlowSet::new(&topo);
        let ctx = MigrationContext::new(0.0, 0, 60.0, &views, &topo, &flows);
        let mut sink = MigrationSink::new();
        policy.on_carbon_change(&ctx, &[], &mut sink);
        assert!(sink.is_empty());
    }
}
