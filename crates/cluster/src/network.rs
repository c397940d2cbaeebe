//! Link-level inter-region network model for federated migrations.
//!
//! A [`TransferMatrix`] prices every migration with a fixed per-GB scalar,
//! so ten simultaneous transfers over the same backbone each move as fast as
//! one would — placement policies can never observe congestion.  This module
//! is the federation's one transfer model, with the physical layer the
//! matrix lacks: a [`NetworkTopology`] describes
//! capacitated links (per-member uplinks/downlinks plus optional dedicated
//! pair links), fixed propagation latencies and the network energy per GB;
//! a [`FlowSet`] tracks the transfer flows currently in flight and shares
//! each link's bandwidth among them by **max-min fairness**, recomputed as a
//! deterministic engine event whenever a flow starts or finishes.
//!
//! ## The fluid model
//!
//! A migrating job's remaining state is one *flow* from its source member to
//! its destination.  The flow's route is the (up to three) links configured
//! for the pair: the source's uplink, the pair's dedicated link, and the
//! destination's downlink — whichever of those exist.  Between recomputation
//! points every flow progresses at a constant rate, so the engine only needs
//! events at flow starts and finishes:
//!
//! * **start** — settle all flows to `now`, add the new flow, re-solve the
//!   max-min allocation, and re-schedule the arrival event of every flow
//!   whose rate changed (stale arrival events are invalidated by an epoch
//!   stamp, exactly like crashed-task finishes),
//! * **finish** — settle, remove the completed flow, re-solve, re-schedule.
//!
//! A flow whose bytes are fully delivered but whose fixed `latency` tail has
//! not yet elapsed holds **no** bandwidth: it is excluded from the
//! allocation and its queued arrival event stays valid.
//!
//! ## How a matrix enters: the degenerate uncontended topology
//!
//! [`NetworkTopology::from_matrix`] is how a [`TransferMatrix`] enters a
//! federation: every pair keeps its per-GB latency as an *uncontended*
//! rate (no capacitated links, so flows never interact) and the engine
//! prices each such pair at a fixed delay, `gb × seconds_per_gb + latency`
//! with zero latency.  The default topology, [`NetworkTopology::new`], is
//! the free matrix's: `from_matrix(&TransferMatrix::zero(n))`.
//!
//! [`TransferMatrix`]: crate::routing::TransferMatrix

use crate::result::LinkUtilization;
use crate::routing::TransferMatrix;
use pcaps_dag::JobId;

/// Remaining gigabytes below which a flow counts as delivered (it enters its
/// latency tail and stops holding bandwidth).
const EPS_GB: f64 = 1e-9;

/// One capacitated link of a [`NetworkTopology`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLink {
    /// Human-readable label used in per-link utilization reports
    /// (`uplink(m)`, `downlink(m)`, `link(a->b)`).
    pub label: String,
    /// The link's capacity in gigabytes per schedule second, shared
    /// max-min-fairly among the flows crossing it.
    pub capacity_gb_per_s: f64,
}

/// The (at most three) link ids a flow between one member pair crosses.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowPath {
    ids: [usize; 3],
    len: usize,
}

impl FlowPath {
    fn push(&mut self, id: usize) {
        self.ids[self.len] = id;
        self.len += 1;
    }

    /// The link ids, in route order (uplink, pair link, downlink).
    pub fn as_slice(&self) -> &[usize] {
        &self.ids[..self.len]
    }

    /// True if the pair crosses no capacitated link (uncontended).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An inter-region network topology: capacitated links, per-pair
/// uncontended rates, fixed latencies, and the network energy per GB.
///
/// Built like the [`TransferMatrix`] it generalises — a chain of `with_*`
/// calls, each validating its arguments with the same panic discipline
/// (diagonal pairs rejected, indices range-checked, magnitudes finite).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    n: usize,
    links: Vec<NetworkLink>,
    /// Per-member shared egress link (all flows leaving the member).
    uplink: Vec<Option<usize>>,
    /// Per-member shared ingress link (all flows entering the member).
    downlink: Vec<Option<usize>>,
    /// Per-pair dedicated link, row-major `n × n`.
    pair_link: Vec<Option<usize>>,
    /// Per-pair *uncontended* per-GB latency (schedule seconds per GB,
    /// 0 = free), row-major.  This is the `TransferMatrix` scalar carried
    /// over: for pairs with no capacitated link it prices the transfer
    /// exactly like the matrix did; for pairs with links it caps the flow's
    /// rate at `1 / seconds_per_gb` on top of the fair shares.
    seconds_per_gb: Vec<f64>,
    /// Per-pair fixed propagation latency (schedule seconds), row-major.
    /// Charged once per transfer, after the last byte.
    latency: Vec<f64>,
    energy_kwh_per_gb: f64,
}

impl NetworkTopology {
    /// A free topology over `members` regions: no links, zero per-pair
    /// latency, zero energy — every transfer is instantaneous.
    ///
    /// # Panics
    /// Panics if `members` is zero.
    pub fn new(members: usize) -> Self {
        assert!(members > 0, "network topology needs at least one member");
        NetworkTopology {
            n: members,
            links: Vec::new(),
            uplink: vec![None; members],
            downlink: vec![None; members],
            pair_link: vec![None; members * members],
            seconds_per_gb: vec![0.0; members * members],
            latency: vec![0.0; members * members],
            energy_kwh_per_gb: 0.0,
        }
    }

    /// The degenerate uncontended topology equivalent to `matrix`: every
    /// pair keeps its per-GB latency and the energy scalar carries over; no
    /// capacitated links exist, so concurrent flows never interact and the
    /// engine prices every pair at its fixed `gb × seconds_per_gb` delay.
    pub fn from_matrix(matrix: &TransferMatrix) -> Self {
        let n = matrix.num_members();
        let mut topo = NetworkTopology::new(n);
        for from in 0..n {
            for to in 0..n {
                topo.seconds_per_gb[from * n + to] = matrix.seconds_per_gb(from, to);
            }
        }
        topo.energy_kwh_per_gb = matrix.energy_kwh_per_gb();
        topo
    }

    fn check_capacity(gb_per_s: f64) {
        assert!(
            gb_per_s > 0.0 && gb_per_s.is_finite(),
            "link capacity must be positive and finite"
        );
    }

    fn check_pair(&self, from: usize, to: usize) {
        assert!(from != to, "the diagonal of a network topology is always free");
        assert!(from < self.n && to < self.n, "pair ({from}, {to}) out of range");
    }

    /// Gives member `member` a shared egress link: every flow leaving the
    /// member crosses it.  Replaces any previous uplink capacity.
    ///
    /// # Panics
    /// Panics if `member` is out of range or the capacity is not positive
    /// and finite.
    pub fn with_uplink(mut self, member: usize, gb_per_s: f64) -> Self {
        assert!(member < self.n, "member {member} out of range");
        Self::check_capacity(gb_per_s);
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

    /// Gives member `member` a shared ingress link: every flow entering the
    /// member crosses it.  Replaces any previous downlink capacity.
    ///
    /// # Panics
    /// Panics if `member` is out of range or the capacity is not positive
    /// and finite.
    pub fn with_downlink(mut self, member: usize, gb_per_s: f64) -> Self {
        assert!(member < self.n, "member {member} out of range");
        Self::check_capacity(gb_per_s);
        match self.downlink[member] {
            Some(id) => self.links[id].capacity_gb_per_s = gb_per_s,
            None => {
                self.links.push(NetworkLink {
                    label: format!("downlink({member})"),
                    capacity_gb_per_s: gb_per_s,
                });
                self.downlink[member] = Some(self.links.len() - 1);
            }
        }
        self
    }

    /// Gives the directed pair `from → to` a dedicated capacitated link.
    /// Replaces any previous dedicated capacity for the pair.
    ///
    /// # Panics
    /// Panics if `from == to` (the diagonal is definitionally free — the
    /// same guard [`TransferMatrix::with_link`] applies), either index is
    /// out of range, or the capacity is not positive and finite.
    pub fn with_link(mut self, from: usize, to: usize, gb_per_s: f64) -> Self {
        self.check_pair(from, to);
        Self::check_capacity(gb_per_s);
        match self.pair_link[from * self.n + to] {
            Some(id) => self.links[id].capacity_gb_per_s = gb_per_s,
            None => {
                self.links.push(NetworkLink {
                    label: format!("link({from}->{to})"),
                    capacity_gb_per_s: gb_per_s,
                });
                self.pair_link[from * self.n + to] = Some(self.links.len() - 1);
            }
        }
        self
    }

    /// Sets the pair's uncontended per-GB latency (the [`TransferMatrix`]
    /// scalar): an upper bound of `1 / seconds_per_gb` GB/s on the pair's
    /// flow rate, and the exact matrix pricing when the pair crosses no
    /// capacitated link.
    ///
    /// # Panics
    /// Panics if `from == to`, either index is out of range, or the latency
    /// is negative or not finite.
    pub fn with_seconds_per_gb(mut self, from: usize, to: usize, seconds_per_gb: f64) -> Self {
        self.check_pair(from, to);
        assert!(
            seconds_per_gb >= 0.0 && seconds_per_gb.is_finite(),
            "per-GB transfer latency must be non-negative and finite"
        );
        self.seconds_per_gb[from * self.n + to] = seconds_per_gb;
        self
    }

    /// Sets the pair's fixed propagation latency (schedule seconds),
    /// charged once per transfer after the last byte is delivered.
    ///
    /// # Panics
    /// Panics if `from == to`, either index is out of range, or the latency
    /// is negative or not finite.
    pub fn with_latency(mut self, from: usize, to: usize, seconds: f64) -> Self {
        self.check_pair(from, to);
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "propagation latency must be non-negative and finite"
        );
        self.latency[from * self.n + to] = seconds;
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

    /// The link ids a `from → to` flow crosses (empty = uncontended pair).
    pub fn path(&self, from: usize, to: usize) -> FlowPath {
        let mut p = FlowPath::default();
        if let Some(id) = self.uplink[from] {
            p.push(id);
        }
        if let Some(id) = self.pair_link[from * self.n + to] {
            p.push(id);
        }
        if let Some(id) = self.downlink[to] {
            p.push(id);
        }
        p
    }

    /// The pair's uncontended per-GB latency (schedule seconds per GB).
    pub fn seconds_per_gb(&self, from: usize, to: usize) -> f64 {
        self.seconds_per_gb[from * self.n + to]
    }

    /// The pair's fixed propagation latency (schedule seconds).
    pub fn latency(&self, from: usize, to: usize) -> f64 {
        self.latency[from * self.n + to]
    }

    /// Network energy per GB moved (kWh/GB).
    pub fn energy_kwh_per_gb(&self) -> f64 {
        self.energy_kwh_per_gb
    }

    /// The pair's per-flow rate cap: `1 / seconds_per_gb` GB/s, infinite
    /// when the pair's uncontended latency is zero.
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
    /// grows at the same pace until a link saturates or a flow hits its
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
        let paths: Vec<FlowPath> = flows.iter().map(|&(f, t)| self.path(f, t)).collect();
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
                    for &l in paths[f].as_slice() {
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
                    for &l in paths[f].as_slice() {
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
                let saturated = paths[f].as_slice().iter().any(|&l| {
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
    /// is in its latency tail: delivered, holding no bandwidth, waiting for
    /// its queued arrival event.
    pub remaining_gb: f64,
    /// Current allocated rate (GB per schedule second); 0 in the tail.
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

    /// Flows currently in flight (including latency tails).
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
            let active = self.flows.iter().any(|f| {
                f.rate > 0.0 && topology.path(f.from, f.to).as_slice().contains(&l)
            });
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
            for &l in topology.path(f.from, f.to).as_slice() {
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
            for &l in topology.path(flow.from, flow.to).as_slice() {
                self.link_gb[l] += flow.remaining_gb;
            }
            flow.remaining_gb = 0.0;
        }
        Some(flow)
    }

    /// Re-solves the max-min allocation over the still-delivering flows and
    /// appends a [`FlowArrivalPlan`] to `plans` for every flow whose rate
    /// changed (plus every brand-new flow).  Flows in their latency tail
    /// keep their queued event; flows whose allocation is unconstrained
    /// deliver instantly and enter the tail at once.
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
                // Latency tail: delivered, holds no bandwidth, queued
                // arrival event stays valid.
                f.rate = 0.0;
            }
        }
        let rates = topology.fair_share_rates(&pairs);
        for (&i, rate) in active.iter().zip(rates) {
            let f = &mut self.flows[i];
            if rate.is_infinite() {
                // Unconstrained: the transfer is instantaneous.  Deliver
                // now and wait out the propagation tail only.
                for &l in topology.path(f.from, f.to).as_slice() {
                    self.link_gb[l] += f.remaining_gb;
                }
                f.remaining_gb = 0.0;
                f.rate = 0.0;
                f.epoch = self.next_epoch;
                self.next_epoch += 1;
                plans.push(FlowArrivalPlan {
                    job: f.job,
                    to: f.to,
                    epoch: f.epoch,
                    at: now + topology.latency(f.from, f.to),
                    record: f.record,
                });
            } else if rate != f.rate {
                f.rate = rate;
                f.epoch = self.next_epoch;
                self.next_epoch += 1;
                plans.push(FlowArrivalPlan {
                    job: f.job,
                    to: f.to,
                    epoch: f.epoch,
                    at: now + f.remaining_gb / rate + topology.latency(f.from, f.to),
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
        let latency = topology.latency(from, to);
        if topology.path(from, to).is_empty() {
            // Uncontended pair: the exact matrix arithmetic.
            return gb * topology.seconds_per_gb(from, to) + latency;
        }
        let mut pairs: Vec<(usize, usize)> = self
            .flows
            .iter()
            .filter(|f| f.remaining_gb > 0.0)
            .map(|f| (f.from, f.to))
            .collect();
        pairs.push((from, to));
        let rates = topology.fair_share_rates(&pairs);
        let rate = rates[pairs.len() - 1];
        if rate.is_infinite() {
            latency
        } else {
            gb / rate + latency
        }
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
        let m = TransferMatrix::uniform(3, 2.5)
            .with_link(0, 1, 9.0)
            .with_energy_per_gb(0.05);
        let t = NetworkTopology::from_matrix(&m);
        assert_eq!(t.num_members(), 3);
        assert_eq!(t.num_links(), 0);
        assert!(t.path(0, 1).is_empty());
        assert_eq!(t.seconds_per_gb(0, 1), 9.0);
        assert_eq!(t.seconds_per_gb(1, 0), 2.5);
        assert_eq!(t.seconds_per_gb(1, 1), 0.0);
        assert_eq!(t.energy_kwh_per_gb(), 0.05);
    }

    #[test]
    fn paths_compose_uplink_pair_downlink() {
        let t = NetworkTopology::new(3)
            .with_uplink(0, 1.0)
            .with_link(0, 2, 0.5)
            .with_downlink(2, 2.0);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.path(0, 2).as_slice(), &[0, 1, 2]);
        assert_eq!(t.path(0, 1).as_slice(), &[0], "only the uplink applies");
        assert!(t.path(1, 0).is_empty());
        assert_eq!(t.links()[0].label, "uplink(0)");
        assert_eq!(t.links()[1].label, "link(0->2)");
        assert_eq!(t.links()[2].label, "downlink(2)");
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn rejects_diagonal_link() {
        let _ = NetworkTopology::new(2).with_link(1, 1, 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_link() {
        let _ = NetworkTopology::new(2).with_link(0, 2, 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = NetworkTopology::new(2).with_uplink(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_latency() {
        let _ = NetworkTopology::new(2).with_latency(0, 1, -1.0);
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
        // Flow A crosses only L1 (cap 10); B crosses L1 and L2 (cap 4);
        // C crosses only L2.  Max-min: B and C bottleneck on L2 at 2 each,
        // A soaks up L1's remainder: 8.
        let t = NetworkTopology::new(4)
            .with_uplink(0, 10.0) // L1: flows leaving member 0
            .with_downlink(3, 4.0); // L2: flows entering member 3
        let rates = t.fair_share_rates(&[(0, 1), (0, 3), (2, 3)]);
        assert!((rates[0] - 8.0).abs() < 1e-9, "A = {}", rates[0]);
        assert!((rates[1] - 2.0).abs() < 1e-9, "B = {}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-9, "C = {}", rates[2]);
    }

    #[test]
    fn fair_share_respects_the_pair_cap() {
        // Two flows over a 10 GB/s link, one capped at 1 GB/s by its
        // uncontended latency: the capped flow freezes at 1 and the other
        // takes the rest.
        let t = NetworkTopology::new(3)
            .with_uplink(0, 10.0)
            .with_seconds_per_gb(0, 1, 1.0);
        let rates = t.fair_share_rates(&[(0, 1), (0, 2)]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 9.0).abs() < 1e-9);
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
    fn latency_tail_holds_no_bandwidth() {
        let t = NetworkTopology::new(3)
            .with_uplink(0, 1.0)
            .with_latency(0, 1, 100.0);
        let mut fs = FlowSet::new(&t);
        let mut plans = Vec::new();
        fs.settle(&t, 0.0);
        fs.begin(JobId(0), 0, 1, 1.0, 0);
        fs.reallocate(&t, 0.0, &mut plans);
        assert!((plans[0].at - 101.0).abs() < 1e-12);
        let tail_epoch = plans[0].epoch;
        plans.clear();
        // Bytes done at t=1; at t=2 the flow is in its tail.  A new flow
        // gets the whole link and the tail flow is not rescheduled.
        fs.settle(&t, 2.0);
        fs.begin(JobId(1), 0, 2, 5.0, 1);
        fs.reallocate(&t, 2.0, &mut plans);
        assert_eq!(plans.len(), 1, "only the new flow is (re)scheduled");
        assert_eq!(plans[0].job, JobId(1));
        assert!((plans[0].at - 7.0).abs() < 1e-12, "full 1 GB/s for the new flow");
        assert_eq!(
            fs.flows()[0].epoch,
            tail_epoch,
            "the tail flow's queued arrival stays valid"
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
        // Uncontended pairs price exactly like the matrix.
        let free = NetworkTopology::new(2).with_seconds_per_gb(0, 1, 3.0);
        let fs2 = FlowSet::new(&free);
        assert_eq!(fs2.estimate_seconds(&free, 0, 1, 4.0), 12.0);
    }
}
