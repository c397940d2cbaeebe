//! Inter-region network model for federated migrations.
//!
//! A [`TransferMatrix`] prices every migration with a fixed per-GB scalar,
//! so ten simultaneous transfers over the same backbone each move as fast as
//! one would — placement policies can never observe congestion.  This module
//! is the federation's one transfer model, with the contention the matrix
//! lacks: a [`NetworkTopology`] gives some members a capacitated *uplink*
//! that every transfer leaving the member crosses, on top of one per-GB
//! rate and the network energy per GB; a [`FlowSet`] tracks every transfer
//! in flight as a flow and re-divides each uplink among the flows leaving
//! its member, as a deterministic engine event, whenever a flow starts or
//! finishes.
//!
//! ## The per-uplink share
//!
//! A migrating job is one *flow* out of its source member, over the
//! member's uplink if it has one, its rate capped at `1 / seconds_per_gb`
//! when the per-GB rate is non-zero.  Every flow crosses at most one
//! capacitated link and all flows share the one cap, so the max-min fair
//! allocation has a closed form ([`NetworkTopology::fair_share`]): each of
//! the `n` flows still delivering bytes out of member `m` gets
//! `min(capacity(m) / n, 1 / seconds_per_gb)`, and flows leaving different
//! members never interact.  `tests/network.rs` holds a progressive-filling
//! max-min solver as the oracle this share is checked against.
//!
//! Between flow starts and finishes every flow progresses at a constant
//! rate, so the engine only needs events at those instants:
//!
//! * **start** — settle all flows to `now`, add the new flow, re-divide
//!   the uplinks, and re-schedule the arrival event of every flow whose
//!   rate changed (stale arrival events are invalidated by an epoch stamp,
//!   exactly like crashed-task finishes),
//! * **finish** — settle, remove the completed flow, re-divide,
//!   re-schedule.
//!
//! A flow whose bytes are fully delivered but whose arrival event has not
//! yet fired holds **no** bandwidth: it is not counted on its uplink and
//! its queued arrival event stays valid.  A flow that starts with nothing
//! to deliver (a 0 GB move) arrives at the instant it starts.
//!
//! ## How a matrix enters: uncapacitated sources
//!
//! A member without an uplink is a source of unbounded capacity: each flow
//! leaving it gets the per-GB cap `1 / seconds_per_gb` whatever else is in
//! flight, or arrives at once when that rate is 0.  A flow at the cap is
//! priced `remaining_gb × seconds_per_gb`, the matrix's own arithmetic, so
//! a job leaving such a member takes exactly `gb × seconds_per_gb`.
//! [`NetworkTopology::from_matrix`] is how a [`TransferMatrix`] enters a
//! federation: no member has an uplink, and the matrix's per-GB rate and
//! energy figure carry over.  The default topology,
//! [`NetworkTopology::new`], is the free matrix's:
//! `from_matrix(&TransferMatrix::zero(n))`.
//!
//! [`TransferMatrix`]: crate::routing::TransferMatrix

use crate::routing::TransferMatrix;
use pcaps_dag::JobId;

/// Remaining gigabytes below which a flow counts as delivered (it stops
/// holding bandwidth and waits for its queued arrival event).
const EPS_GB: f64 = 1e-9;

/// An inter-region network topology: capacitated member uplinks, one
/// per-GB rate, and the network energy per GB.
///
/// Built like the [`TransferMatrix`] it generalises — a chain of `with_*`
/// calls, each validating its arguments with the same panic discipline
/// (indices range-checked, magnitudes finite).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    /// Per-member uplink capacity (GB per schedule second), shared by all
    /// flows leaving the member; `None` = an uncapacitated source.
    uplink: Vec<Option<f64>>,
    /// The per-GB rate (schedule seconds per GB, 0 = free) of every
    /// off-diagonal pair.  This is the `TransferMatrix` scalar carried
    /// over: it caps every flow's rate at `1 / seconds_per_gb`, so a
    /// transfer from a member without an uplink is priced exactly like the
    /// matrix did.
    seconds_per_gb: f64,
    energy_kwh_per_gb: f64,
}

impl NetworkTopology {
    /// A free topology over `members` regions: no uplinks, zero per-GB
    /// rate, zero energy — every transfer is instantaneous.
    ///
    /// # Panics
    /// Panics if `members` is zero.
    pub fn new(members: usize) -> Self {
        assert!(members > 0, "network topology needs at least one member");
        NetworkTopology {
            uplink: vec![None; members],
            seconds_per_gb: 0.0,
            energy_kwh_per_gb: 0.0,
        }
    }

    /// The uncapacitated topology equivalent to `matrix`: its per-GB rate
    /// and energy scalar carry over; no member has an uplink, so concurrent
    /// flows never interact and every transfer takes exactly
    /// `gb × seconds_per_gb`.
    pub fn from_matrix(matrix: &TransferMatrix) -> Self {
        let mut topo = NetworkTopology::new(matrix.num_members());
        topo.seconds_per_gb = matrix.seconds_per_gb;
        topo.energy_kwh_per_gb = matrix.energy_kwh_per_gb();
        topo
    }

    /// Gives member `member` a shared egress link: every flow leaving the
    /// member crosses it.  Replaces any previous uplink capacity.
    ///
    /// # Panics
    /// Panics if `member` is out of range or the capacity is not positive
    /// and finite.
    pub fn with_uplink(mut self, member: usize, gb_per_s: f64) -> Self {
        assert!(member < self.uplink.len(), "member {member} out of range");
        assert!(
            gb_per_s > 0.0 && gb_per_s.is_finite(),
            "link capacity must be positive and finite"
        );
        self.uplink[member] = Some(gb_per_s);
        self
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

    /// Number of members the topology covers.
    pub fn num_members(&self) -> usize {
        self.uplink.len()
    }

    /// The capacity (GB per schedule second) of `member`'s uplink, which
    /// every flow leaving the member crosses (`None` = an uncapacitated
    /// source).
    pub fn uplink(&self, member: usize) -> Option<f64> {
        self.uplink[member]
    }

    /// The pair's per-GB rate (schedule seconds per GB): the topology's
    /// one rate off the diagonal, 0 on it.
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

    /// The max-min fair rate (GB per schedule second) of each of `flows`
    /// flows leaving `member` at once: an even split of the member's
    /// uplink, capped at `1 / seconds_per_gb` when the per-GB rate is
    /// non-zero.  A member without an uplink has unbounded capacity, so its
    /// flows get the cap, or `f64::INFINITY` (an instant transfer) when the
    /// rate is 0.  Every flow crosses only its source's uplink, so this is
    /// the whole allocation; flows leaving other members do not enter it.
    pub fn fair_share(&self, member: usize, flows: usize) -> f64 {
        debug_assert!(flows > 0, "a share is taken among at least one flow");
        let share = self.uplink[member].map_or(f64::INFINITY, |c| c / flows as f64);
        if self.seconds_per_gb > 0.0 {
            share.min(1.0 / self.seconds_per_gb)
        } else {
            share
        }
    }

    /// Seconds a flow at `rate` takes to deliver `gb`: `gb ×
    /// seconds_per_gb` at the per-GB cap, which is the matrix's own
    /// arithmetic, and `gb / rate` below it (0 at an infinite rate).
    fn seconds_at(&self, rate: f64, gb: f64) -> f64 {
        if self.seconds_per_gb > 0.0 && rate == 1.0 / self.seconds_per_gb {
            gb * self.seconds_per_gb
        } else {
            gb / rate
        }
    }
}

/// One in-flight transfer flow of a [`FlowSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFlow {
    /// The migrating job.
    pub job: JobId,
    /// Source member.
    pub from: usize,
    /// Destination member.
    pub to: usize,
    /// Gigabytes still to deliver.  At or below 1e-9 GB (`EPS_GB`) the flow
    /// is delivered: it holds no bandwidth and waits for its queued arrival
    /// event.
    pub remaining_gb: f64,
    /// The rate (GB per schedule second) its queued arrival was planned
    /// at; 0 until its first [`FlowSet::reallocate`].
    pub rate: f64,
    /// Arrival-event validity stamp: a queued `FlowArrival` whose epoch
    /// differs from the flow's current one is stale and dropped, exactly
    /// like a crashed executor's task-finish event.
    pub epoch: u64,
    /// Index of the flow's record in the engine's migration log, rewritten
    /// at every plan of its arrival.
    pub record: usize,
}

/// A re-scheduled arrival the engine must turn into a queue event: flow
/// `job` (stamped `epoch`) now arrives at member `to` at time `at`,
/// `seconds` after the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowArrivalPlan {
    /// The migrating job.
    pub job: JobId,
    /// Destination member (the event's member dimension).
    pub to: usize,
    /// The epoch the new arrival event must carry.
    pub epoch: u64,
    /// Estimated arrival instant (schedule seconds).
    pub at: f64,
    /// Seconds from the plan instant to `at`: the flow's remaining
    /// gigabytes priced at its new rate.
    pub seconds: f64,
    /// Index of the flow's migration record, so the engine can keep the
    /// log's arrival, transfer time and carbon current.
    pub record: usize,
}

/// The engine-side incremental state of the fluid model: the flows in
/// flight and their rates.
///
/// The engine drives it with three calls — [`settle`] to advance all flows
/// to the current instant, [`begin`]/[`finish`] to add or remove a flow,
/// and [`reallocate`] to re-divide the uplinks and collect the arrival
/// events that must be (re-)scheduled.  All state is plain data: `Clone`
/// makes it snapshot-safe.
///
/// [`settle`]: FlowSet::settle
/// [`begin`]: FlowSet::begin
/// [`finish`]: FlowSet::finish
/// [`reallocate`]: FlowSet::reallocate
#[derive(Debug, Clone)]
pub struct FlowSet {
    flows: Vec<TransferFlow>,
    /// The instant every flow's `remaining_gb` is current at.
    last_update: f64,
    /// Monotonic epoch source for arrival-event stamps.
    next_epoch: u64,
    /// Scratch for `reallocate`: delivering flows per source member
    /// (sized once, never reallocated).
    sharing: Vec<usize>,
}

impl FlowSet {
    /// An empty flow set over `topology`'s members.
    pub fn new(topology: &NetworkTopology) -> Self {
        FlowSet {
            flows: Vec::new(),
            last_update: 0.0,
            next_epoch: 0,
            sharing: vec![0; topology.num_members()],
        }
    }

    /// Advances every flow to `now` at its current rate.  Idempotent at a
    /// fixed instant; must be called before any
    /// `begin`/`finish`/`reallocate` at a new instant.
    pub fn settle(&mut self, now: f64) {
        let dt = now - self.last_update;
        self.last_update = now;
        if dt <= 0.0 {
            return;
        }
        for f in self.flows.iter_mut().filter(|f| f.remaining_gb > 0.0) {
            f.remaining_gb -= (f.rate * dt).min(f.remaining_gb);
            if f.remaining_gb < EPS_GB {
                f.remaining_gb = 0.0;
            }
        }
    }

    /// Registers a new flow (rate 0 until the next [`reallocate`]).
    /// `record` is the index of the flow's entry in the engine's migration
    /// log.
    ///
    /// [`reallocate`]: FlowSet::reallocate
    pub fn begin(&mut self, job: JobId, from: usize, to: usize, gb: f64, record: usize) {
        self.flows.push(TransferFlow {
            job,
            from,
            to,
            remaining_gb: gb,
            rate: 0.0,
            epoch: 0,
            record,
        });
    }

    /// Completes `job`'s flow if `epoch` matches its current stamp,
    /// removing and returning it.  A mismatch means the arrival event was
    /// superseded by a rate change — the caller drops it as stale.
    pub fn finish(&mut self, job: JobId, epoch: u64) -> Option<TransferFlow> {
        let idx = self
            .flows
            .iter()
            .position(|f| f.job == job && f.epoch == epoch)?;
        Some(self.flows.remove(idx))
    }

    /// Re-divides every uplink among the flows still delivering over it
    /// ([`NetworkTopology::fair_share`]) and appends a [`FlowArrivalPlan`]
    /// to `plans` for every flow whose rate changed (plus every brand-new
    /// flow; one with nothing to deliver arrives at `now`).  Delivered
    /// flows keep their queued event.
    ///
    /// Must be called with the set already settled to `now`.
    pub fn reallocate(
        &mut self,
        topology: &NetworkTopology,
        now: f64,
        plans: &mut Vec<FlowArrivalPlan>,
    ) {
        debug_assert_eq!(self.last_update, now, "reallocate on an unsettled flow set");
        self.sharing.fill(0);
        for f in self.flows.iter().filter(|f| f.remaining_gb > 0.0) {
            self.sharing[f.from] += 1;
        }
        for f in self.flows.iter_mut() {
            let rate = if f.remaining_gb > 0.0 {
                topology.fair_share(f.from, self.sharing[f.from])
            } else if f.rate == 0.0 {
                // Begun with nothing to deliver: it has no arrival yet.
                f64::INFINITY
            } else {
                // Delivered: holds no bandwidth, its queued arrival event
                // stays valid.
                continue;
            };
            if rate != f.rate {
                let seconds = topology.seconds_at(rate, f.remaining_gb);
                f.rate = rate;
                f.epoch = self.next_epoch;
                self.next_epoch += 1;
                plans.push(FlowArrivalPlan {
                    job: f.job,
                    to: f.to,
                    epoch: f.epoch,
                    at: now + seconds,
                    seconds,
                    record: f.record,
                });
            }
            // Unchanged rate: the queued event's estimate still holds.
        }
    }

    /// Estimated completion time (seconds from now) of a *hypothetical*
    /// `gb`-gigabyte flow `from → to` added to the current flow set, under
    /// the static-rate approximation (the fair share it would get right
    /// now, held constant), priced like [`FlowSet::reallocate`] prices it:
    /// a flow out of a member without an uplink takes exactly
    /// `gb × seconds_per_gb`.  A same-member move transfers nothing and
    /// takes 0.  This is what network-aware migration policies consult
    /// before committing to a move.
    pub fn estimate_seconds(
        &self,
        topology: &NetworkTopology,
        from: usize,
        to: usize,
        gb: f64,
    ) -> f64 {
        if from == to {
            return 0.0;
        }
        let sharing = self
            .flows
            .iter()
            .filter(|f| f.from == from && f.remaining_gb > 0.0)
            .count();
        topology.seconds_at(topology.fair_share(from, sharing + 1), gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_matrix_is_uncontended_and_carries_scalars() {
        let m = TransferMatrix::uniform(3, 2.5).with_energy_per_gb(0.05);
        let t = NetworkTopology::from_matrix(&m);
        assert_eq!(t.num_members(), 3);
        assert!((0..3).all(|member| t.uplink(member).is_none()));
        assert_eq!(t.seconds_per_gb(0, 1), 2.5);
        assert_eq!(t.seconds_per_gb(1, 0), 2.5);
        assert_eq!(t.seconds_per_gb(1, 1), 0.0);
        assert_eq!(t.energy_kwh_per_gb(), 0.05);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_link() {
        let _ = NetworkTopology::new(2).with_uplink(2, 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = NetworkTopology::new(2).with_uplink(0, 0.0);
    }

    #[test]
    fn fair_share_splits_a_shared_link_evenly() {
        let t = NetworkTopology::new(3).with_uplink(0, 1.0);
        assert_eq!(t.fair_share(0, 2), 0.5);
    }

    #[test]
    fn fair_share_textbook_max_min() {
        // Flow A alone on member 0's uplink (cap 10); B and C share member
        // 2's uplink (cap 4); the per-GB rate caps every flow at 3 GB/s.
        // Max-min: B and C get 2 each, where their uplink saturates; A is
        // stopped by its cap at 3.
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(4, 1.0 / 3.0))
            .with_uplink(0, 10.0)
            .with_uplink(2, 4.0);
        assert!((t.fair_share(0, 1) - 3.0).abs() < 1e-9, "A = {}", t.fair_share(0, 1));
        assert_eq!(t.fair_share(2, 2), 2.0, "B and C");
    }

    #[test]
    fn fair_share_respects_the_pair_cap() {
        // A 1.5 GB/s uplink under a per-GB rate of 1 s/GB: one flow alone
        // stops at the 1 GB/s cap; two flows share the uplink instead.
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(3, 1.0))
            .with_uplink(0, 1.5);
        assert_eq!(t.fair_share(0, 1), 1.0);
        assert_eq!(t.fair_share(0, 2), 0.75);
    }

    #[test]
    fn unconstrained_flows_are_instantaneous() {
        // No uplink and a zero per-GB rate: nothing bounds a transfer.
        let t = NetworkTopology::new(2);
        assert_eq!(t.fair_share(0, 3), f64::INFINITY);
        assert_eq!(FlowSet::new(&t).estimate_seconds(&t, 0, 1, 10.0), 0.0);
    }

    #[test]
    fn an_uncapacitated_source_gives_every_flow_the_per_gb_cap() {
        // Member 1 has no uplink: however many flows leave it, each gets
        // 1 / seconds_per_gb and is priced gb × seconds_per_gb exactly.
        let spg = 0.1 + 0.2;
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(2, spg)).with_uplink(0, 1.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(2.0);
        fs.begin(JobId(0), 1, 0, 7.0, 0);
        fs.begin(JobId(1), 1, 0, 3.0, 1);
        fs.reallocate(&t, 2.0, &mut plans);
        assert_eq!(plans.len(), 2);
        for (p, gb) in plans.iter().zip([7.0, 3.0]) {
            assert_eq!(p.seconds.to_bits(), (gb * spg).to_bits());
            assert_eq!(p.at.to_bits(), (2.0 + gb * spg).to_bits());
        }
        assert_eq!(fs.estimate_seconds(&t, 1, 0, 5.0).to_bits(), (5.0 * spg).to_bits());
    }

    #[test]
    fn a_flow_with_nothing_to_deliver_arrives_at_once() {
        // With an uplink and without one, a 0 GB flow is planned at the
        // instant it begins, and only once.
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 2.0)).with_uplink(0, 1.0);
        for from in [0, 1] {
            let mut fs = FlowSet::new(&t);
            let mut plans = Vec::new();
            fs.settle(4.0);
            fs.begin(JobId(0), from, 1 - from, 0.0, 0);
            fs.reallocate(&t, 4.0, &mut plans);
            assert_eq!(plans.len(), 1, "from {from}");
            assert_eq!((plans[0].at, plans[0].seconds), (4.0, 0.0), "from {from}");
            fs.reallocate(&t, 4.0, &mut plans);
            assert_eq!(plans.len(), 1, "from {from}: re-planned");
            assert!(fs.finish(JobId(0), plans[0].epoch).is_some());
        }
    }

    #[test]
    fn flow_set_settles_and_finishes_with_exact_accounting() {
        let t = NetworkTopology::new(2).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(0.0);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        assert_eq!(plans.len(), 1);
        assert!((plans[0].at - 5.0).abs() < 1e-12, "10 GB at 2 GB/s");
        let epoch = plans[0].epoch;
        fs.settle(2.0);
        assert_eq!(fs.flows[0].remaining_gb, 6.0, "4 GB delivered by t=2");
        fs.settle(plans[0].at);
        let flow = fs.finish(JobId(0), epoch).expect("epoch matches");
        assert_eq!(flow.remaining_gb, 0.0);
        assert!(fs.flows.is_empty());
    }

    #[test]
    fn a_second_flow_halves_the_first_and_reschedules_it() {
        let t = NetworkTopology::new(3).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(0.0);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        let first_epoch = plans[0].epoch;
        plans.clear();
        // At t=1 the first flow has moved 2 GB; a second flow starts and
        // both drop to 1 GB/s → the first's 8 GB now need 8 more seconds.
        fs.settle(1.0);
        fs.begin(JobId(1), 0, 2, 4.0, 1);
        fs.reallocate(&t, 1.0, &mut plans);
        assert_eq!(plans.len(), 2, "both flows' rates changed");
        let re = plans.iter().find(|p| p.job == JobId(0)).unwrap();
        assert!((re.at - 9.0).abs() < 1e-9);
        assert_ne!(re.epoch, first_epoch, "the old arrival event is stale");
        assert!(
            fs.finish(JobId(0), first_epoch).is_none(),
            "stale epochs do not complete flows"
        );
    }

    #[test]
    fn estimate_matches_the_share_a_new_flow_would_get() {
        let t = NetworkTopology::new(3).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        assert!((fs.estimate_seconds(&t, 0, 1, 10.0) - 5.0).abs() < 1e-12);
        fs.settle(0.0);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        // With one flow in flight a newcomer would get 1 GB/s.
        assert!((fs.estimate_seconds(&t, 0, 2, 10.0) - 10.0).abs() < 1e-12);
        // Transfers from a member without an uplink price exactly like the
        // matrix.
        let free = NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 3.0));
        let fs2 = FlowSet::new(&free);
        assert_eq!(fs2.estimate_seconds(&free, 0, 1, 4.0), 12.0);
    }

    #[test]
    fn a_same_member_transfer_estimate_is_zero() {
        // With an uplink and a flow in flight over it, and without one: a
        // move from a member to itself transfers nothing.
        let contended = NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 2.0))
            .with_uplink(0, 0.5);
        let mut fs = FlowSet::new(&contended);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&contended, 0.0, &mut Vec::new());
        assert_eq!(fs.estimate_seconds(&contended, 0, 0, 4.0), 0.0);
        let uncontended = NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 2.0));
        assert_eq!(FlowSet::new(&uncontended).estimate_seconds(&uncontended, 1, 1, 4.0), 0.0);
    }
}
