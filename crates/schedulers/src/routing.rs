//! Built-in job-routing and job-migration policies for federated
//! (multi-region) simulations.
//!
//! A [`Router`] sits one level above the per-cluster scheduling policies of
//! this crate: it is consulted once per job, at arrival, and places the job
//! on one member cluster of a [`pcaps_cluster::Federation`].  Four built-in
//! policies cover the classic design space:
//!
//! * [`RoundRobinRouter`] — carbon- and load-blind rotation; the fairness
//!   baseline,
//! * [`LeastOutstandingWorkRouter`] — pure load balancing on each member's
//!   backlog of undispatched work,
//! * [`CarbonGreedyRouter`] — chase the grid with the lowest *current*
//!   intensity, ignoring queues (the geo-distributed analogue of a
//!   threshold-free carbon-agnostic greedy),
//! * [`CarbonQueueAwareRouter`] — blend the carbon signal (current intensity
//!   tempered by the forecast lower bound, both O(1) from the trace's
//!   forecast-bounds table) with queue pressure, so a green but congested
//!   region stops attracting every job.
//!
//! A [`MigrationPolicy`] sits *beside* the router and may revise its
//! placements after the fact: it is consulted on every member's carbon step
//! with that member's idle jobs as candidates, and each move it emits pays
//! the transfer costs of the federation's network topology (a flow at the
//! one per-GB rate when the source member has no uplink — no member of a
//! topology built from a `TransferMatrix` has one — or at a fair share of
//! the source's uplink when it does, plus per-GB network energy priced at
//! the endpoint-mean intensity; see the `TransferMatrix` docs for units).  Two
//! built-ins:
//!
//! * [`pcaps_cluster::NeverMigrate`] (re-exported by `pcaps-cluster`) —
//!   placement is final; the baseline,
//! * [`CarbonDeltaMigrator`] — greedy carbon-delta-vs-transfer-cost: move a
//!   job to the currently greenest grid when the carbon saved by running its
//!   remaining work there outweighs the carbon cost of moving its remaining
//!   data.  **Hysteresis rule** (so jobs don't ping-pong between two grids
//!   whose intensities oscillate around each other): a move needs (1) an
//!   intensity gap of at least 30 g/kWh, (2) an execution-carbon saving of
//!   at least twice the transfer carbon (the move must pay for itself with
//!   margin), and (3) at least 120 schedule seconds since the same job last
//!   moved.  Returning to a previously left grid therefore requires that
//!   grid to be 30 g/kWh cleaner *and* the transfer to be re-paid with
//!   margin, after the cooldown — oscillation is priced out.  Two opt-in
//!   extensions: [`with_drain`] also moves *busy* jobs by
//!   drain-then-move (they stop dispatching and depart when their running
//!   tasks finish), and [`with_max_transfer_seconds`] skips moves whose
//!   estimated transfer delay — contention-aware when the source member has
//!   an uplink in the federation's
//!   [`NetworkTopology`](pcaps_cluster::NetworkTopology) — exceeds a cap, so
//!   a move over a congested uplink stops attracting work whose green
//!   window would close mid-transfer.
//!
//! All policies are deterministic and allocation-free per decision (a single
//! pass over the member views / candidates; the migrator's cooldown table
//! holds only the moves younger than the cooldown).  Ties break toward the
//! lower member index so federated runs replay bit-identically.
//!
//! [`with_drain`]: CarbonDeltaMigrator::with_drain
//! [`with_max_transfer_seconds`]: CarbonDeltaMigrator::with_max_transfer_seconds

use pcaps_cluster::job_state::SubmittedJob;
use pcaps_cluster::routing::{
    MemberView, MigrationCandidate, MigrationContext, MigrationPolicy, MigrationSink, Router,
    RoutingContext,
};
use pcaps_dag::JobId;

/// Returns the index of the *available* member minimising `score` (first
/// minimum wins, so ties deterministically favour the lower member index).
/// Members in a region outage are skipped; only when the whole federation is
/// down does the argmin fall back to all members — placing a job on a downed
/// member is legal (it queues until the outage ends), just never preferred.
fn argmin_by(members: &[MemberView], mut score: impl FnMut(&MemberView) -> f64) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, m) in members.iter().enumerate() {
        if !m.available {
            continue;
        }
        let s = score(m);
        if best.is_none_or(|(_, b)| s.total_cmp(&b).is_lt()) {
            best = Some((i, s));
        }
    }
    if let Some((i, _)) = best {
        return i;
    }
    let mut best = 0;
    let mut best_score = score(&members[0]);
    for (i, m) in members.iter().enumerate().skip(1) {
        let s = score(m);
        if s.total_cmp(&best_score).is_lt() {
            best = i;
            best_score = s;
        }
    }
    best
}

/// Rotates jobs over the members in arrival order, ignoring both the carbon
/// signal and the members' load.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinRouter {
    next: usize,
}

impl RoundRobinRouter {
    /// Creates the router (first job goes to member 0).
    pub fn new() -> Self {
        RoundRobinRouter { next: 0 }
    }
}

impl Router for RoundRobinRouter {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _id: JobId, _job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        let n = ctx.num_members();
        // Skip members that are in a region outage (at most one full turn of
        // the rotation); if the whole federation is down the blind rotation
        // stands and the job queues where it lands.
        let mut target = self.next % n;
        for offset in 0..n {
            let i = (self.next + offset) % n;
            if ctx.members()[i].available {
                target = i;
                break;
            }
        }
        self.next = (target + 1) % n;
        target
    }
}

/// Sends each job to the member with the least outstanding (routed but
/// undispatched) work, normalised per executor so differently sized members
/// compare fairly.  Pure load balancing: carbon-blind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstandingWorkRouter;

impl LeastOutstandingWorkRouter {
    /// Creates the router.
    pub fn new() -> Self {
        LeastOutstandingWorkRouter
    }
}

impl Router for LeastOutstandingWorkRouter {
    fn name(&self) -> &str {
        "least-work"
    }

    fn route(&mut self, _id: JobId, _job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        argmin_by(ctx.members(), MemberView::backlog_seconds)
    }
}

/// Sends each job to the member whose grid currently reports the lowest
/// carbon intensity, ignoring load.  Under sustained arrivals this piles
/// work onto whichever grid is momentarily greenest — exactly the herding
/// behaviour [`CarbonQueueAwareRouter`] is designed to avoid.
#[derive(Debug, Clone, Copy, Default)]
pub struct CarbonGreedyRouter;

impl CarbonGreedyRouter {
    /// Creates the router.
    pub fn new() -> Self {
        CarbonGreedyRouter
    }
}

impl Router for CarbonGreedyRouter {
    fn name(&self) -> &str {
        "carbon-greedy"
    }

    fn route(&mut self, _id: JobId, _job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        argmin_by(ctx.members(), |m| m.carbon.intensity)
    }
}

/// Carbon- and queue-aware placement: minimises
///
/// ```text
/// score(m) = (w · c_m + (1 − w) · L_m) · (1 + backlog_m / τ)
/// ```
///
/// where `c_m` is member `m`'s current intensity, `L_m` the forecast lower
/// bound over the forecast horizon (both O(1) via the trace's
/// forecast-bounds table), `backlog_m` its outstanding work per executor
/// in seconds, `w = 0.5` the intensity weight (trust the forecast as much as
/// the present), and `τ = 600 s` the backlog tolerance (10 schedule minutes,
/// i.e. 10 carbon-hours at the paper's 60× time scale).
///
/// The `L_m` term lets a region that is *about to turn green* win over one
/// that is marginally greener right now but forecast to stay flat — that is
/// where precedence-aware deferral inside the member pays off, because the
/// member's scheduler can hold the non-critical stages until the dip.  The
/// queue factor makes a member's effective intensity grow linearly with its
/// backlog, so sustained arrivals spread out instead of herding onto the
/// greenest grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct CarbonQueueAwareRouter;

impl CarbonQueueAwareRouter {
    /// Weight `w` of the current intensity versus the forecast lower bound.
    const INTENSITY_WEIGHT: f64 = 0.5;
    /// Backlog tolerance `τ`: seconds of per-executor backlog that double a
    /// member's effective intensity.
    const BACKLOG_TOLERANCE: f64 = 600.0;

    /// Creates the router.
    pub fn new() -> Self {
        CarbonQueueAwareRouter
    }

    fn score(m: &MemberView) -> f64 {
        let w = Self::INTENSITY_WEIGHT;
        let effective = w * m.carbon.intensity + (1.0 - w) * m.carbon.lower_bound;
        effective * (1.0 + m.backlog_seconds() / Self::BACKLOG_TOLERANCE)
    }
}

impl Router for CarbonQueueAwareRouter {
    fn name(&self) -> &str {
        "carbon-queue-aware"
    }

    fn route(&mut self, _id: JobId, _job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        argmin_by(ctx.members(), Self::score)
    }
}

/// Greedy carbon-delta-vs-transfer-cost live migration with hysteresis.
///
/// When a member's carbon intensity steps, every idle job on it is compared
/// against the currently greenest member `g`:
///
/// ```text
/// saving(job)  = (c_member − c_g) · remaining_work · time_scale/3600 · kW      [grams]
/// transfer(job) = remaining_gb · energy_kwh_per_gb · ½(c_member + c_g)         [grams]
/// migrate  ⇔  c_member − c_g ≥ 30 g/kWh
///           ∧ saving ≥ 2 · transfer
///           ∧ time − last_move(job) ≥ 120 s
/// ```
///
/// The three conjuncts are the hysteresis rule (see the module docs): a
/// dead band on the intensity gap, a required margin over the transfer
/// carbon, and a per-job cooldown.  Together they make ping-ponging between
/// two grids whose intensities oscillate around each other strictly
/// unprofitable.
///
/// `saving` converts the job's remaining executor-seconds into kWh with the
/// same convention the carbon accountant uses (the consulted member's
/// `time_scale` carbon-seconds per schedule second, read off the
/// [`MigrationContext`], and the accountant's default 0.2 kW per busy
/// executor), so the comparison against the transfer carbon — computed from
/// the federation's network energy figure exactly as the engine will charge
/// it — is apples to apples.
#[derive(Debug, Clone)]
pub struct CarbonDeltaMigrator {
    /// When true, a profitable candidate with running or retrying tasks gets
    /// a drain-then-move verb instead of being skipped: it stops dispatching
    /// and migrates once its tasks finish in place.  Off by default — the
    /// default policy only moves idle jobs, bit-identical to the
    /// pre-drain migrator.
    pub drain: bool,
    /// Skip moves whose estimated transfer delay exceeds this many schedule
    /// seconds (contention-aware when the federation has a network
    /// attached).  `f64::INFINITY` by default — no estimate is computed and
    /// decisions match the pre-network migrator exactly.
    pub max_transfer_seconds: f64,
    /// `(job, time)` of every move younger than the cooldown, in time
    /// order; older ones are pruned at each consultation.
    recent_moves: Vec<(JobId, f64)>,
}

impl CarbonDeltaMigrator {
    /// Dead band: the destination must be at least this much cleaner
    /// (g/kWh) than the job's current grid.
    const MIN_INTENSITY_DELTA: f64 = 30.0;
    /// Required margin: the execution-carbon saving must be at least this
    /// multiple of the transfer carbon.
    const COST_FACTOR: f64 = 2.0;
    /// Minimum schedule seconds between two migrations of the same job
    /// (2 carbon-hours at the paper's 60× time scale).
    const COOLDOWN_S: f64 = 120.0;

    /// The policy: a 30 g/kWh dead band, a 2× transfer-cost margin and a
    /// 120 s schedule cooldown, moving idle jobs only, with no cap on the
    /// transfer delay.
    pub fn new() -> Self {
        CarbonDeltaMigrator {
            drain: false,
            max_transfer_seconds: f64::INFINITY,
            recent_moves: Vec::new(),
        }
    }

    /// Enables drain-then-move: profitable candidates with running or
    /// retrying tasks are drained toward the greenest grid instead of
    /// skipped.  The policy reports itself as `"carbon-delta-drain"` so
    /// sweeps can tell the two modes apart.
    pub fn with_drain(mut self) -> Self {
        self.drain = true;
        self
    }

    /// Caps the estimated transfer delay a move may incur (schedule
    /// seconds): moves whose data would take longer than this to arrive —
    /// under current link contention, when a network is attached — are
    /// skipped even if the carbon arithmetic favours them.  This is the
    /// guard that keeps a "green" destination behind a congested link from
    /// attracting work whose green window closes mid-transfer.
    ///
    /// # Panics
    /// Panics unless `seconds` is positive (infinity disables the cap, the
    /// default).
    pub fn with_max_transfer_seconds(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "transfer-delay cap must be positive");
        self.max_transfer_seconds = seconds;
        self
    }

    /// True if `job` moved less than the cooldown ago.  Only such moves
    /// are kept: simulated time never decreases, so a pruned move would
    /// have passed this check too.
    fn cooling_down(&self, job: JobId) -> bool {
        self.recent_moves.iter().any(|&(moved, _)| moved == job)
    }
}

impl Default for CarbonDeltaMigrator {
    fn default() -> Self {
        CarbonDeltaMigrator::new()
    }
}

impl MigrationPolicy for CarbonDeltaMigrator {
    fn name(&self) -> &str {
        if self.drain {
            "carbon-delta-drain"
        } else {
            "carbon-delta"
        }
    }

    fn on_carbon_change(
        &mut self,
        ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        let src = ctx.member;
        self.recent_moves.retain(|&(_, time)| ctx.time - time < Self::COOLDOWN_S);
        let greenest = argmin_by(ctx.members(), |m| m.carbon.intensity);
        // argmin_by prefers available members; if it still landed on an
        // unavailable one the whole federation is down — nowhere to move to.
        if greenest == src || !ctx.members()[greenest].available {
            return;
        }
        let c_src = ctx.members()[src].carbon.intensity;
        let c_dst = ctx.members()[greenest].carbon.intensity;
        let delta = c_src - c_dst;
        if delta <= 0.0 || delta < Self::MIN_INTENSITY_DELTA {
            return;
        }
        for c in candidates {
            // A job already committed to a drain keeps its destination
            // until it departs — re-draining it every carbon step would
            // just churn the flag.
            if c.draining {
                continue;
            }
            let idle = c.migratable();
            if !idle && !self.drain {
                continue;
            }
            if self.cooling_down(c.job) {
                continue;
            }
            let job_kwh = c.remaining_work * ctx.time_scale / 3600.0
                * pcaps_carbon::accounting::DEFAULT_EXECUTOR_POWER_KW;
            let saving = delta * job_kwh;
            let transfer_grams =
                ctx.estimated_transfer_carbon_grams(c.remaining_gb, c_src, c_dst);
            if saving < Self::COST_FACTOR * transfer_grams {
                continue;
            }
            if self.max_transfer_seconds.is_finite()
                && ctx.estimated_transfer_seconds(src, greenest, c.remaining_gb)
                    > self.max_transfer_seconds
            {
                continue;
            }
            if idle {
                out.migrate(c.job, greenest);
            } else {
                out.drain(c.job, greenest);
            }
            self.recent_moves.push((c.job, ctx.time));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_cluster::scheduler_api::CarbonView;
    use pcaps_dag::{JobDagBuilder, Task};

    fn job() -> SubmittedJob {
        SubmittedJob::at(
            0.0,
            JobDagBuilder::new("j")
                .stage("s", vec![Task::new(1.0)])
                .build()
                .unwrap(),
        )
    }

    fn view(member: usize, carbon: CarbonView, outstanding: f64) -> MemberView {
        MemberView {
            member,
            carbon,
            queue_depth: 0,
            outstanding_work: outstanding,
            total_executors: 10,
            free_executors: 10,
            available: true,
        }
    }

    fn down(view: MemberView) -> MemberView {
        MemberView { available: false, ..view }
    }

    fn route_once(router: &mut dyn Router, views: &[MemberView]) -> usize {
        router.route(JobId(0), &job(), &RoutingContext::new(0.0, views))
    }

    #[test]
    fn round_robin_cycles() {
        let views = [
            view(0, CarbonView::flat(100.0), 0.0),
            view(1, CarbonView::flat(100.0), 0.0),
            view(2, CarbonView::flat(100.0), 0.0),
        ];
        let mut r = RoundRobinRouter::new();
        let picks: Vec<usize> = (0..7).map(|_| route_once(&mut r, &views)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_work_balances_per_executor() {
        // Member 0 has 100 s over 10 executors (10 s each); member 1 has
        // 30 s over 10 executors (3 s each) — member 1 wins despite what a
        // raw total would suggest if sizes differed.
        let views = [
            view(0, CarbonView::flat(50.0), 100.0),
            view(1, CarbonView::flat(500.0), 30.0),
        ];
        assert_eq!(route_once(&mut LeastOutstandingWorkRouter::new(), &views), 1);
        // Ties go to the lower index.
        let tied = [
            view(0, CarbonView::flat(50.0), 30.0),
            view(1, CarbonView::flat(500.0), 30.0),
        ];
        assert_eq!(route_once(&mut LeastOutstandingWorkRouter::new(), &tied), 0);
    }

    #[test]
    fn carbon_greedy_picks_lowest_intensity() {
        let views = [
            view(0, CarbonView::flat(400.0), 0.0),
            view(1, CarbonView::flat(120.0), 1.0e9),
            view(2, CarbonView::flat(300.0), 0.0),
        ];
        // Load is ignored entirely.
        assert_eq!(route_once(&mut CarbonGreedyRouter::new(), &views), 1);
    }

    #[test]
    fn queue_aware_stops_herding_onto_the_green_grid() {
        let green_busy = view(0, CarbonView::new(100.0, 100.0, 100.0), 12_000.0);
        let brown_idle = view(1, CarbonView::new(140.0, 140.0, 140.0), 0.0);
        let views = [green_busy, brown_idle];
        // Greedy still herds...
        assert_eq!(route_once(&mut CarbonGreedyRouter::new(), &views), 0);
        // ...but with 1 200 s of per-executor backlog (2× the default τ of
        // 600 s) the green member's effective intensity triples: 300 > 140.
        assert_eq!(route_once(&mut CarbonQueueAwareRouter::new(), &views), 1);
    }

    #[test]
    fn queue_aware_rewards_a_forecast_dip() {
        // Equal current intensity, but member 1's grid is forecast to drop
        // to 50 within the horizon.
        let flat = view(0, CarbonView::new(200.0, 200.0, 220.0), 0.0);
        let dipping = view(1, CarbonView::new(200.0, 50.0, 220.0), 0.0);
        assert_eq!(route_once(&mut CarbonQueueAwareRouter::new(), &[flat, dipping]), 1);
    }

    #[test]
    fn routers_avoid_members_in_outage() {
        let views = [
            down(view(0, CarbonView::flat(100.0), 0.0)),
            view(1, CarbonView::flat(400.0), 50.0),
            view(2, CarbonView::flat(500.0), 100.0),
        ];
        // Member 0 is greenest, emptiest — and down.  Everyone skips it.
        assert_eq!(route_once(&mut CarbonGreedyRouter::new(), &views), 1);
        assert_eq!(route_once(&mut LeastOutstandingWorkRouter::new(), &views), 1);
        assert_eq!(route_once(&mut CarbonQueueAwareRouter::new(), &views), 1);
        let mut rr = RoundRobinRouter::new();
        let picks: Vec<usize> = (0..4).map(|_| route_once(&mut rr, &views)).collect();
        assert_eq!(picks, vec![1, 2, 1, 2], "the rotation skips the downed member");
    }

    #[test]
    fn routers_fall_back_to_the_rotation_when_all_members_are_down() {
        let views = [
            down(view(0, CarbonView::flat(100.0), 0.0)),
            down(view(1, CarbonView::flat(400.0), 0.0)),
        ];
        // Jobs queue wherever the policy lands — routing never fails.
        assert_eq!(route_once(&mut CarbonGreedyRouter::new(), &views), 0);
        assert_eq!(route_once(&mut RoundRobinRouter::new(), &views), 0);
    }

    #[test]
    fn router_names_are_stable() {
        assert_eq!(RoundRobinRouter::new().name(), "round-robin");
        assert_eq!(LeastOutstandingWorkRouter::new().name(), "least-work");
        assert_eq!(CarbonGreedyRouter::new().name(), "carbon-greedy");
        assert_eq!(CarbonQueueAwareRouter::new().name(), "carbon-queue-aware");
    }

    mod migrator {
        use super::*;
        use pcaps_cluster::routing::TransferMatrix;
        use pcaps_cluster::{FlowSet, NetworkTopology};

        fn candidate(job: u64, remaining_work: f64, remaining_gb: f64, busy: usize) -> MigrationCandidate {
            MigrationCandidate {
                job: JobId(job),
                remaining_work,
                remaining_gb,
                busy_executors: busy,
                retrying_tasks: 0,
                draining: false,
            }
        }

        fn consult(
            policy: &mut CarbonDeltaMigrator,
            time: f64,
            member: usize,
            views: &[MemberView],
            transfer: &TransferMatrix,
            candidates: &[MigrationCandidate],
        ) -> Vec<(u64, usize)> {
            let topo = NetworkTopology::from_matrix(transfer);
            let flows = FlowSet::new(&topo);
            let ctx = MigrationContext::new(time, member, 60.0, views, &topo, &flows);
            let mut sink = MigrationSink::new();
            policy.on_carbon_change(&ctx, candidates, &mut sink);
            sink.moves().iter().map(|m| (m.job.0, m.to)).collect()
        }

        #[test]
        fn moves_idle_jobs_to_the_greenest_grid_when_saving_covers_the_transfer() {
            // 500 vs 100 g/kWh; a 600 s job at 60× / 0.2 kW holds 2 kWh →
            // saving = 400 × 2 = 800 g.  Moving 1 GB at 0.05 kWh/GB priced
            // at the endpoint mean (300) costs 15 g; 800 ≥ 2 × 15.
            let views = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let transfer = TransferMatrix::uniform(2, 1.0).with_energy_per_gb(0.05);
            let mut p = CarbonDeltaMigrator::new();
            let moves = consult(
                &mut p,
                0.0,
                0,
                &views,
                &transfer,
                &[candidate(0, 600.0, 1.0, 0), candidate(1, 600.0, 1.0, 2)],
            );
            assert_eq!(moves, vec![(0, 1)], "only the idle job moves");
        }

        #[test]
        fn dead_band_blocks_marginal_gains() {
            // A 20 g/kWh gap is inside the 30 g/kWh dead band.
            let narrow = [view(0, CarbonView::flat(120.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let transfer = TransferMatrix::zero(2);
            let mut p = CarbonDeltaMigrator::new();
            assert!(consult(&mut p, 0.0, 0, &narrow, &transfer, &[candidate(0, 600.0, 1.0, 0)])
                .is_empty());
            // A 40 g/kWh gap clears it and the same job moves.
            let wide = [view(0, CarbonView::flat(140.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            assert_eq!(
                consult(&mut p, 0.0, 0, &wide, &transfer, &[candidate(0, 600.0, 1.0, 0)]),
                vec![(0, 1)]
            );
        }

        #[test]
        fn transfer_cost_margin_blocks_expensive_moves() {
            // Saving = 400 × (60 × 60/3600 × 0.2) = 320 g; transfer of 20 GB
            // at 0.1 kWh/GB × 300 = 600 g.  Even the bare cost exceeds the
            // saving, and the 2× margin makes it clearly unprofitable.
            let views = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let transfer = TransferMatrix::uniform(2, 1.0).with_energy_per_gb(0.1);
            let mut p = CarbonDeltaMigrator::new();
            assert!(consult(&mut p, 0.0, 0, &views, &transfer, &[candidate(0, 60.0, 20.0, 0)])
                .is_empty());
            // The same job with a tiny data set moves.
            assert_eq!(
                consult(&mut p, 0.0, 0, &views, &transfer, &[candidate(0, 60.0, 0.1, 0)]),
                vec![(0, 1)]
            );
        }

        #[test]
        fn cooldown_prevents_ping_pong() {
            let a_dirty = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let b_dirty = [view(0, CarbonView::flat(100.0), 0.0), view(1, CarbonView::flat(500.0), 0.0)];
            let transfer = TransferMatrix::zero(2);
            let mut p = CarbonDeltaMigrator::new();
            // t=0: job 0 leaves member 0 for member 1.
            assert_eq!(
                consult(&mut p, 0.0, 0, &a_dirty, &transfer, &[candidate(0, 600.0, 1.0, 0)]),
                vec![(0, 1)]
            );
            // t=60: the grids flipped, but the cooldown holds the job still.
            assert!(consult(&mut p, 60.0, 1, &b_dirty, &transfer, &[candidate(0, 600.0, 1.0, 0)])
                .is_empty());
            // t=150: the 120 s cooldown expired — now it may return.
            assert_eq!(
                consult(&mut p, 150.0, 1, &b_dirty, &transfer, &[candidate(0, 600.0, 1.0, 0)]),
                vec![(0, 0)]
            );
        }

        #[test]
        fn cooldown_table_keeps_only_moves_inside_the_cooldown() {
            // An open-loop run moves ever-larger job ids; the table must not
            // grow with them.  Moves 121 s apart each outlive the cooldown
            // by the next consultation, so one entry remains at a time.
            let views = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let transfer = TransferMatrix::zero(2);
            let mut p = CarbonDeltaMigrator::new();
            for k in 0..200u64 {
                let job = 1_000 * k;
                let time = 121.0 * k as f64;
                assert_eq!(
                    consult(&mut p, time, 0, &views, &transfer, &[candidate(job, 600.0, 1.0, 0)]),
                    vec![(job, 1)]
                );
                assert!(p.recent_moves.len() <= 1, "{} entries after move {k}", p.recent_moves.len());
            }
            // Two moves inside one cooldown window are both kept, and each
            // blocks its own job only.
            consult(&mut p, 30_000.0, 0, &views, &transfer, &[candidate(1, 600.0, 1.0, 0)]);
            consult(&mut p, 30_060.0, 0, &views, &transfer, &[candidate(2, 600.0, 1.0, 0)]);
            assert_eq!(p.recent_moves.len(), 2);
            let both = [candidate(1, 600.0, 1.0, 0), candidate(2, 600.0, 1.0, 0), candidate(3, 600.0, 1.0, 0)];
            assert_eq!(consult(&mut p, 30_100.0, 0, &views, &transfer, &both), vec![(3, 1)]);
            // At 30 150 s job 1's move is 150 s old: pruned, so job 1 may move
            // again; job 2's (90 s) and job 3's (50 s) still hold.
            assert_eq!(consult(&mut p, 30_150.0, 0, &views, &transfer, &both), vec![(1, 1)]);
        }

        #[test]
        fn no_moves_when_already_on_the_greenest_grid() {
            let views = [view(0, CarbonView::flat(100.0), 0.0), view(1, CarbonView::flat(500.0), 0.0)];
            let transfer = TransferMatrix::zero(2);
            let mut p = CarbonDeltaMigrator::new();
            assert!(consult(&mut p, 0.0, 0, &views, &transfer, &[candidate(0, 600.0, 1.0, 0)])
                .is_empty());
        }

        #[test]
        fn migrator_never_moves_jobs_to_a_downed_grid() {
            // Member 1 is far greener but in an outage — the job stays put.
            let views = [
                view(0, CarbonView::flat(500.0), 0.0),
                down(view(1, CarbonView::flat(100.0), 0.0)),
            ];
            let transfer = TransferMatrix::zero(2);
            let mut p = CarbonDeltaMigrator::new();
            assert!(consult(&mut p, 0.0, 0, &views, &transfer, &[candidate(0, 600.0, 1.0, 0)])
                .is_empty());
        }

        #[test]
        fn migrator_name_is_stable() {
            let p = CarbonDeltaMigrator::new();
            assert_eq!(p.name(), "carbon-delta");
            assert!(!p.never_migrates());
            assert_eq!(CarbonDeltaMigrator::new().with_drain().name(), "carbon-delta-drain");
        }

        #[test]
        fn drain_mode_drains_busy_jobs_and_skips_committed_ones() {
            let views = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            let transfer = TransferMatrix::uniform(2, 1.0).with_energy_per_gb(0.05);
            let busy = candidate(0, 600.0, 1.0, 2);
            // Without drain the busy job is skipped entirely.
            let mut plain = CarbonDeltaMigrator::new();
            assert!(consult(&mut plain, 0.0, 0, &views, &transfer, std::slice::from_ref(&busy))
                .is_empty());
            // With drain it gets a drain verb toward the greenest member...
            let mut draining = CarbonDeltaMigrator::new().with_drain();
            let topo = NetworkTopology::from_matrix(&transfer);
            let flows = FlowSet::new(&topo);
            let ctx = MigrationContext::new(0.0, 0, 60.0, &views, &topo, &flows);
            let mut sink = MigrationSink::new();
            draining.on_carbon_change(&ctx, std::slice::from_ref(&busy), &mut sink);
            assert_eq!(sink.moves().len(), 1);
            assert!(sink.moves()[0].drain, "busy candidates get drain verbs");
            assert_eq!(sink.moves()[0].to, 1);
            // ...and one already flagged as draining is left alone.
            let committed = MigrationCandidate { draining: true, ..busy };
            let mut again = CarbonDeltaMigrator::new().with_drain();
            assert!(consult(&mut again, 0.0, 0, &views, &transfer, &[committed]).is_empty());
        }

        #[test]
        fn transfer_delay_cap_blocks_slow_moves() {
            let views = [view(0, CarbonView::flat(500.0), 0.0), view(1, CarbonView::flat(100.0), 0.0)];
            // 10 s/GB × 1 GB = 10 s of transfer delay.
            let transfer = TransferMatrix::uniform(2, 10.0).with_energy_per_gb(0.05);
            let idle = candidate(0, 600.0, 1.0, 0);
            let mut capped = CarbonDeltaMigrator::new().with_max_transfer_seconds(5.0);
            assert!(consult(&mut capped, 0.0, 0, &views, &transfer, std::slice::from_ref(&idle))
                .is_empty());
            let mut roomy = CarbonDeltaMigrator::new().with_max_transfer_seconds(20.0);
            assert_eq!(
                consult(&mut roomy, 0.0, 0, &views, &transfer, std::slice::from_ref(&idle)),
                vec![(0, 1)]
            );
        }
    }
}
