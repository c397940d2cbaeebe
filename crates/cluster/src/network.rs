//! Inter-region network model for federated migrations.
//!
//! A [`TransferMatrix`] prices every migration with a fixed per-GB scalar,
//! so ten simultaneous transfers over the same backbone each move as fast as
//! one would — placement policies can never observe congestion.  This module
//! is the federation's one transfer model, with the physical layer the
//! matrix lacks: a [`NetworkTopology`] gives some members a capacitated
//! *uplink* that every transfer leaving the member crosses, on top of one
//! uncontended per-GB rate and the network energy per GB; a [`FlowSet`]
//! tracks the transfer flows currently in flight and shares each uplink's
//! bandwidth among them by **max-min fairness**, recomputed as a
//! deterministic engine event whenever a flow starts or finishes.
//!
//! ## The fluid model
//!
//! A job migrating away from a member with an uplink is one *flow* over
//! that uplink, its rate also capped at `1 / seconds_per_gb` when the
//! per-GB rate is non-zero.  Between recomputation points every flow
//! progresses at a constant rate, so the engine only needs events at flow
//! starts and finishes:
//!
//! * **start** — settle all flows to `now`, add the new flow, re-solve the
//!   max-min allocation, and re-schedule the arrival event of every flow
//!   whose rate changed (stale arrival events are invalidated by an epoch
//!   stamp, exactly like crashed-task finishes),
//! * **finish** — settle, remove the completed flow, re-solve, re-schedule.
//!
//! A flow whose bytes are fully delivered but whose arrival event has not
//! yet fired holds **no** bandwidth: it is excluded from the allocation and
//! its queued arrival event stays valid.
//!
//! ## How a matrix enters: the uncontended topology
//!
//! A job leaving a member without an uplink crosses no capacitated link and
//! pays a fixed delay, `gb × seconds_per_gb`, whatever else is in flight.
//! [`NetworkTopology::from_matrix`] is how a [`TransferMatrix`] enters a
//! federation: no member has an uplink, and the matrix's per-GB rate and
//! energy figure carry over.  The default topology,
//! [`NetworkTopology::new`], is the free matrix's:
//! `from_matrix(&TransferMatrix::zero(n))`.
//!
//! [`TransferMatrix`]: crate::routing::TransferMatrix

use crate::result::LinkUtilization;
use crate::routing::TransferMatrix;
use pcaps_dag::JobId;

/// Remaining gigabytes below which a flow counts as delivered (it stops
/// holding bandwidth and waits for its queued arrival event).
const EPS_GB: f64 = 1e-9;

/// One capacitated link of a [`NetworkTopology`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLink {
    /// Human-readable label used in per-link utilization reports
    /// (`uplink(m)`).
    pub label: String,
    /// The link's capacity in gigabytes per schedule second, shared
    /// max-min-fairly among the flows crossing it.
    pub capacity_gb_per_s: f64,
}

/// An inter-region network topology: capacitated member uplinks, one
/// uncontended per-GB rate, and the network energy per GB.
///
/// Built like the [`TransferMatrix`] it generalises — a chain of `with_*`
/// calls, each validating its arguments with the same panic discipline
/// (indices range-checked, magnitudes finite).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    n: usize,
    links: Vec<NetworkLink>,
    /// Per-member shared egress link (all flows leaving the member).
    uplink: Vec<Option<usize>>,
    /// The *uncontended* per-GB rate (schedule seconds per GB, 0 = free)
    /// of every off-diagonal pair.  This is the `TransferMatrix` scalar
    /// carried over: a transfer from a member without an uplink is priced
    /// exactly like the matrix did; a flow over an uplink has its rate
    /// capped at `1 / seconds_per_gb` on top of its fair share.
    seconds_per_gb: f64,
    energy_kwh_per_gb: f64,
}

impl NetworkTopology {
    /// A free topology over `members` regions: no links, zero per-GB rate,
    /// zero energy — every transfer is instantaneous.
    ///
    /// # Panics
    /// Panics if `members` is zero.
    pub fn new(members: usize) -> Self {
        assert!(members > 0, "network topology needs at least one member");
        NetworkTopology {
            n: members,
            links: Vec::new(),
            uplink: vec![None; members],
            seconds_per_gb: 0.0,
            energy_kwh_per_gb: 0.0,
        }
    }

    /// The uncontended topology equivalent to `matrix`: its per-GB rate
    /// and energy scalar carry over; no member has an uplink, so concurrent
    /// flows never interact and the engine prices every pair at its fixed
    /// `gb × seconds_per_gb` delay.
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
        assert!(member < self.n, "member {member} out of range");
        assert!(
            gb_per_s > 0.0 && gb_per_s.is_finite(),
            "link capacity must be positive and finite"
        );
        match self.uplink[member] {
            Some(id) => self.links[id].capacity_gb_per_s = gb_per_s,
            None => {
                self.links.push(NetworkLink {
                    label: format!("uplink({member})"),
                    capacity_gb_per_s: gb_per_s,
                });
                self.uplink[member] = Some(self.links.len() - 1);
            }
        }
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
        self.n
    }

    /// Number of capacitated links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The capacitated links, in creation order (link ids index this).
    pub fn links(&self) -> &[NetworkLink] {
        &self.links
    }

    /// The link id of `member`'s uplink, which every flow leaving the
    /// member crosses (`None` = transfers from it are uncontended).
    pub fn uplink(&self, member: usize) -> Option<usize> {
        self.uplink[member]
    }

    /// The pair's uncontended per-GB rate (schedule seconds per GB): the
    /// topology's one rate off the diagonal, 0 on it.
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

    /// The pair's per-flow rate cap: `1 / seconds_per_gb` GB/s, infinite
    /// when the pair's uncontended rate is zero.
    fn flow_cap(&self, from: usize, to: usize) -> f64 {
        let spg = self.seconds_per_gb(from, to);
        if spg > 0.0 {
            1.0 / spg
        } else {
            f64::INFINITY
        }
    }

    /// Max-min fair rate allocation for a set of concurrent flows given as
    /// `(from, to)` pairs.  Progressive filling: every unfrozen flow's rate
    /// grows at the same pace until an uplink saturates or a flow hits its
    /// per-pair cap, at which point the binding flows freeze and the rest
    /// keep filling.  A flow with no finite constraint gets
    /// `f64::INFINITY` (its transfer is instantaneous).
    ///
    /// This is the from-scratch oracle the incremental [`FlowSet`] is
    /// validated against; the allocation is pure deterministic arithmetic.
    pub fn fair_share_rates(&self, flows: &[(usize, usize)]) -> Vec<f64> {
        let nf = flows.len();
        let mut rates = vec![0.0; nf];
        if nf == 0 {
            return rates;
        }
        let routes: Vec<Option<usize>> = flows.iter().map(|&(f, _)| self.uplink(f)).collect();
        let caps: Vec<f64> = flows.iter().map(|&(f, t)| self.flow_cap(f, t)).collect();
        let mut remaining: Vec<f64> =
            self.links.iter().map(|l| l.capacity_gb_per_s).collect();
        let mut counts = vec![0usize; self.links.len()];
        let mut frozen = vec![false; nf];
        let mut unfrozen = nf;
        while unfrozen > 0 {
            for c in counts.iter_mut() {
                *c = 0;
            }
            for f in 0..nf {
                if !frozen[f] {
                    if let Some(l) = routes[f] {
                        counts[l] += 1;
                    }
                }
            }
            let mut delta = f64::INFINITY;
            for (l, &c) in counts.iter().enumerate() {
                if c > 0 {
                    delta = delta.min(remaining[l].max(0.0) / c as f64);
                }
            }
            for f in 0..nf {
                if !frozen[f] && caps[f].is_finite() {
                    delta = delta.min((caps[f] - rates[f]).max(0.0));
                }
            }
            if !delta.is_finite() {
                // No finite constraint binds the remaining flows.
                for f in 0..nf {
                    if !frozen[f] {
                        rates[f] = f64::INFINITY;
                    }
                }
                break;
            }
            for f in 0..nf {
                if !frozen[f] {
                    rates[f] += delta;
                    if let Some(l) = routes[f] {
                        remaining[l] -= delta;
                    }
                }
            }
            // Freeze flows at a saturated constraint.  The chosen delta is
            // one of the minima, so at least one flow freezes per round and
            // the loop terminates in at most `nf` rounds.
            let mut any = false;
            for f in 0..nf {
                if frozen[f] {
                    continue;
                }
                let capped =
                    caps[f].is_finite() && caps[f] - rates[f] <= caps[f] * 1e-12;
                let saturated = routes[f].is_some_and(|l| {
                    remaining[l] <= self.links[l].capacity_gb_per_s * 1e-12
                });
                if capped || saturated {
                    frozen[f] = true;
                    unfrozen -= 1;
                    any = true;
                }
            }
            debug_assert!(any, "progressive filling froze no flow — delta was not a minimum");
            if !any {
                break;
            }
        }
        rates
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
    /// Current allocated rate (GB per schedule second); 0 once delivered.
    pub rate: f64,
    /// Arrival-event validity stamp: a queued `FlowArrival` whose epoch
    /// differs from the flow's current one is stale and dropped, exactly
    /// like a crashed executor's task-finish event.
    pub epoch: u64,
    /// Index of the flow's provisional record in the engine's migration
    /// log, finalized when the flow completes.
    pub record: usize,
}

/// A re-scheduled arrival the engine must turn into a queue event: flow
/// `job` (stamped `epoch`) now arrives at member `to` at time `at`.
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
    /// Index of the flow's provisional migration record, so the engine can
    /// keep the log's estimate current.
    pub record: usize,
}

/// The engine-side incremental state of the fluid model: the flows in
/// flight, their rates, and per-link traffic accumulators.
///
/// The engine drives it with three calls — [`settle`] to advance all flows
/// to the current instant, [`begin`]/[`finish`] to add or remove a flow,
/// and [`reallocate`] to re-solve the max-min allocation and collect the
/// arrival events that must be (re-)scheduled.  All state is plain data:
/// `Clone` makes it snapshot-safe.
///
/// [`settle`]: FlowSet::settle
/// [`begin`]: FlowSet::begin
/// [`finish`]: FlowSet::finish
/// [`reallocate`]: FlowSet::reallocate
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    flows: Vec<TransferFlow>,
    /// The instant every flow's `remaining_gb` is current at.
    last_update: f64,
    /// Monotonic epoch source for arrival-event stamps.
    next_epoch: u64,
    /// Per-link gigabytes carried so far.
    link_gb: Vec<f64>,
    /// Per-link seconds with at least one active flow crossing the link.
    link_busy: Vec<f64>,
    /// Scratch for `reallocate` (reused, never reallocated steady-state).
    pair_buf: Vec<(usize, usize)>,
}

impl FlowSet {
    /// An empty flow set sized for `topology`'s links.
    pub fn new(topology: &NetworkTopology) -> Self {
        FlowSet {
            flows: Vec::new(),
            last_update: 0.0,
            next_epoch: 0,
            link_gb: vec![0.0; topology.num_links()],
            link_busy: vec![0.0; topology.num_links()],
            pair_buf: Vec::new(),
        }
    }

    /// Number of links the set was sized for (its topology's
    /// [`NetworkTopology::num_links`]).
    pub(crate) fn num_links(&self) -> usize {
        self.link_gb.len()
    }

    /// Flows currently in flight (including delivered ones whose arrival
    /// event has not fired yet).
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flow is in flight.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The in-flight flows, in start order.
    pub fn flows(&self) -> &[TransferFlow] {
        &self.flows
    }

    /// Advances every flow to `now` at its current rate, accumulating
    /// per-link traffic.  Idempotent at a fixed instant; must be called
    /// before any `begin`/`finish`/`reallocate` at a new instant.
    pub fn settle(&mut self, topology: &NetworkTopology, now: f64) {
        let dt = now - self.last_update;
        self.last_update = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        // Busy time first, against the pre-settle rates: a link is busy for
        // the whole inter-event interval if any flow was crossing it.
        for (l, busy) in self.link_busy.iter_mut().enumerate() {
            let active = self
                .flows
                .iter()
                .any(|f| f.rate > 0.0 && topology.uplink(f.from) == Some(l));
            if active {
                *busy += dt;
            }
        }
        for f in self.flows.iter_mut() {
            if f.rate <= 0.0 {
                continue;
            }
            let delivered = (f.rate * dt).min(f.remaining_gb);
            f.remaining_gb -= delivered;
            if f.remaining_gb < EPS_GB {
                f.remaining_gb = 0.0;
            }
            if let Some(l) = topology.uplink(f.from) {
                self.link_gb[l] += delivered;
            }
        }
    }

    /// Registers a new flow (rate 0 until the next [`reallocate`]).
    /// `record` is the index of the flow's provisional entry in the
    /// engine's migration log.
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
    /// superseded by a rate change — the caller drops it as stale.  Any
    /// float-drift remainder is delivered to the flow's links so per-link
    /// gigabytes stay exact.
    pub fn finish(&mut self, topology: &NetworkTopology, job: JobId, epoch: u64) -> Option<TransferFlow> {
        let idx = self
            .flows
            .iter()
            .position(|f| f.job == job && f.epoch == epoch)?;
        let mut flow = self.flows.remove(idx);
        if flow.remaining_gb > 0.0 {
            if let Some(l) = topology.uplink(flow.from) {
                self.link_gb[l] += flow.remaining_gb;
            }
            flow.remaining_gb = 0.0;
        }
        Some(flow)
    }

    /// Re-solves the max-min allocation over the still-delivering flows and
    /// appends a [`FlowArrivalPlan`] to `plans` for every flow whose rate
    /// changed (plus every brand-new flow).  Delivered flows keep their
    /// queued event.  Every flow crosses its source's uplink, whose finite
    /// capacity bounds its rate.
    ///
    /// Must be called with the set already settled to `now`.
    pub fn reallocate(
        &mut self,
        topology: &NetworkTopology,
        now: f64,
        plans: &mut Vec<FlowArrivalPlan>,
    ) {
        debug_assert_eq!(self.last_update, now, "reallocate on an unsettled flow set");
        let mut pairs = std::mem::take(&mut self.pair_buf);
        pairs.clear();
        let mut active: Vec<usize> = Vec::new();
        for (i, f) in self.flows.iter_mut().enumerate() {
            if f.remaining_gb > 0.0 {
                pairs.push((f.from, f.to));
                active.push(i);
            } else {
                // Delivered: holds no bandwidth, its queued arrival event
                // stays valid.
                f.rate = 0.0;
            }
        }
        let rates = topology.fair_share_rates(&pairs);
        for (&i, rate) in active.iter().zip(rates) {
            let f = &mut self.flows[i];
            debug_assert!(rate.is_finite(), "a flow must cross its source's uplink");
            if rate != f.rate {
                f.rate = rate;
                f.epoch = self.next_epoch;
                self.next_epoch += 1;
                plans.push(FlowArrivalPlan {
                    job: f.job,
                    to: f.to,
                    epoch: f.epoch,
                    at: now + f.remaining_gb / rate,
                    record: f.record,
                });
            }
            // Unchanged rate: the queued event's estimate still holds.
        }
        self.pair_buf = pairs;
    }

    /// Estimated completion time (seconds from now) of a *hypothetical*
    /// `gb`-gigabyte flow `from → to` added to the current flow set, under
    /// the static-rate approximation (the fair share it would get right
    /// now, held constant).  This is what network-aware migration policies
    /// consult before committing to a move.
    pub fn estimate_seconds(
        &self,
        topology: &NetworkTopology,
        from: usize,
        to: usize,
        gb: f64,
    ) -> f64 {
        if topology.uplink(from).is_none() {
            // Uncontended pair: the exact matrix arithmetic.
            return gb * topology.seconds_per_gb(from, to);
        }
        let mut pairs: Vec<(usize, usize)> = self
            .flows
            .iter()
            .filter(|f| f.remaining_gb > 0.0)
            .map(|f| (f.from, f.to))
            .collect();
        pairs.push((from, to));
        let rates = topology.fair_share_rates(&pairs);
        gb / rates[pairs.len() - 1]
    }

    /// Per-link traffic report: gigabytes carried, busy seconds, and the
    /// utilization ratio `gb / (capacity × busy_seconds)` (0 for an idle
    /// link).
    pub fn utilization(&self, topology: &NetworkTopology) -> Vec<LinkUtilization> {
        topology
            .links()
            .iter()
            .enumerate()
            .map(|(l, link)| {
                let gb = self.link_gb[l];
                let busy = self.link_busy[l];
                let utilization = if busy > 0.0 {
                    gb / (link.capacity_gb_per_s * busy)
                } else {
                    0.0
                };
                LinkUtilization {
                    label: link.label.clone(),
                    capacity_gb_per_s: link.capacity_gb_per_s,
                    gb_carried: gb,
                    busy_seconds: busy,
                    utilization,
                }
            })
            .collect()
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
        assert_eq!(t.num_links(), 0);
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
        let rates = t.fair_share_rates(&[(0, 1), (0, 2)]);
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert!((rates[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fair_share_textbook_max_min() {
        // Flow A alone on L1 (member 0's uplink, cap 10); B and C share L2
        // (member 2's uplink, cap 4); the per-GB rate caps every flow at
        // 3 GB/s.  Max-min: all rise to 2, where L2 saturates and freezes
        // B and C; A keeps filling until its cap stops it at 3.
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(4, 1.0 / 3.0))
            .with_uplink(0, 10.0)
            .with_uplink(2, 4.0);
        let rates = t.fair_share_rates(&[(0, 1), (2, 3), (2, 1)]);
        assert!((rates[0] - 3.0).abs() < 1e-9, "A = {}", rates[0]);
        assert!((rates[1] - 2.0).abs() < 1e-9, "B = {}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-9, "C = {}", rates[2]);
    }

    #[test]
    fn fair_share_respects_the_pair_cap() {
        // A 1.5 GB/s uplink under a per-GB rate of 1 s/GB: one flow alone
        // stops at the 1 GB/s cap; two flows share the uplink instead.
        let t = NetworkTopology::from_matrix(&TransferMatrix::uniform(3, 1.0))
            .with_uplink(0, 1.5);
        let alone = t.fair_share_rates(&[(0, 1)]);
        assert!((alone[0] - 1.0).abs() < 1e-9);
        let shared = t.fair_share_rates(&[(0, 1), (0, 2)]);
        assert!((shared[0] - 0.75).abs() < 1e-9);
        assert!((shared[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_flows_are_instantaneous() {
        let t = NetworkTopology::new(2);
        let rates = t.fair_share_rates(&[(0, 1)]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn flow_set_settles_and_finishes_with_exact_accounting() {
        let t = NetworkTopology::new(2).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(&t, 0.0);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        assert_eq!(plans.len(), 1);
        assert!((plans[0].at - 5.0).abs() < 1e-12, "10 GB at 2 GB/s");
        let epoch = plans[0].epoch;
        fs.settle(&t, plans[0].at);
        let flow = fs.finish(&t, JobId(0), epoch).expect("epoch matches");
        assert_eq!(flow.remaining_gb, 0.0);
        assert!(fs.is_empty());
        let util = fs.utilization(&t);
        assert!((util[0].gb_carried - 10.0).abs() < 1e-9);
        assert!((util[0].busy_seconds - 5.0).abs() < 1e-9);
        assert!((util[0].utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_second_flow_halves_the_first_and_reschedules_it() {
        let t = NetworkTopology::new(3).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(&t, 0.0);
        fs.begin(JobId(0), 0, 1, 10.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        let first_epoch = plans[0].epoch;
        plans.clear();
        // At t=1 the first flow has moved 2 GB; a second flow starts and
        // both drop to 1 GB/s → the first's 8 GB now need 8 more seconds.
        fs.settle(&t, 1.0);
        fs.begin(JobId(1), 0, 2, 4.0, 1);
        fs.reallocate(&t, 1.0, &mut plans);
        assert_eq!(plans.len(), 2, "both flows' rates changed");
        let re = plans.iter().find(|p| p.job == JobId(0)).unwrap();
        assert!((re.at - 9.0).abs() < 1e-9);
        assert_ne!(re.epoch, first_epoch, "the old arrival event is stale");
        assert!(
            fs.finish(&t, JobId(0), first_epoch).is_none(),
            "stale epochs do not complete flows"
        );
    }

    #[test]
    fn estimate_matches_the_share_a_new_flow_would_get() {
        let t = NetworkTopology::new(3).with_uplink(0, 2.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        assert!((fs.estimate_seconds(&t, 0, 1, 10.0) - 5.0).abs() < 1e-12);
        fs.settle(&t, 0.0);
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
}
