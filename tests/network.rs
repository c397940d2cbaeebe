//! Network-topology conformance suite.
//!
//! The network model is a federation's one transfer model: every job that
//! leaves a member is a flow, at its fair share of the member's uplink, or
//! at the per-GB cap, which takes exactly `gb × seconds_per_gb`, when the
//! member has none; a `TransferMatrix` enters as the uplink-free special
//! case.  It is pinned from seven directions:
//!
//! 1. **Fluid-model correctness** — driving a [`FlowSet`] through the
//!    engine's own `settle`/`begin`/`finish`/`reallocate` protocol over
//!    seeded random uplink topologies and flow sets must reproduce the
//!    completion times of an independent from-scratch fluid simulation
//!    built directly on [`fair_share_rates`].
//! 2. **Mixed shapes, end to end** — in federations where only some members
//!    have an uplink, every migration from a member without one takes
//!    exactly `gb × seconds_per_gb`, flows in flight or not, and every
//!    migration over an uplink lands when the fluid oracle says.
//! 3. **Matrix pricing, by value** — a `TransferMatrix` enters a federation
//!    as the link-free [`NetworkTopology::from_matrix`] topology, whichever
//!    builder attaches it, and both routes replay the `fed3_migrate_pcaps`
//!    per-member fingerprints and migration-log hash recorded when the
//!    engine still priced matrices through a branch of its own.
//! 4. **Determinism** — drain-then-move trials over a capacitated network
//!    replay bit-identically across {FIFO, PCAPS} × 3 seeds.
//! 5. **Settlement ends the run** — a superseded flow arrival still queued
//!    after the last job completes neither keeps the clock running nor
//!    trips the time limit.
//! 6. **The closed form is max-min fairness** — over seeded random
//!    topologies and flow multisets, [`NetworkTopology::fair_share`]'s
//!    per-uplink share matches [`fair_share_rates`], a progressive-filling
//!    max-min solver for arbitrary routes and per-pair caps kept here as
//!    the independent oracle.
//! 7. **0 GB moves arrive** — a job with nothing to move arrives at its
//!    departure instant, out of a member with an uplink or without one.

use carbon_aware_dag_sched::prelude::*;
use pcaps_cluster::{DecisionSink, FlowArrivalPlan, FlowSet, NetworkTopology};
use pcaps_dag::JobId;
use pcaps_experiments::multi_region::{
    run_federated_trial_with_migration, FederationExperimentConfig, MigrationSpec, RouterSpec,
};
use pcaps_experiments::runner::{BaseScheduler, SchedulerSpec};

/// xorshift64* — the suite's only randomness source, fully seeded.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn r01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n).
    fn below(&mut self, n: usize) -> usize {
        (self.r01() * n as f64) as usize % n
    }
}

/// One generated flow: `(from, to, gigabytes, start_time)`.
type FlowSpec = (usize, usize, f64, f64);

/// A random capacitated topology over `members` regions: each member gets
/// an uplink with probability `p_uplink`, and the per-GB rate, which caps
/// every flow at `1 / seconds_per_gb`, is zero (uncapped) for about a third
/// of topologies.
fn random_topology(rng: &mut Rng, members: usize, p_uplink: f64) -> NetworkTopology {
    let seconds_per_gb = if rng.r01() < 0.35 { 0.0 } else { 0.5 + 2.5 * rng.r01() };
    let mut topo = NetworkTopology::from_matrix(&TransferMatrix::uniform(members, seconds_per_gb));
    for m in 0..members {
        if rng.r01() < p_uplink {
            topo = topo.with_uplink(m, 0.05 + rng.r01());
        }
    }
    topo
}

/// Max-min fair rate allocation for a set of concurrent flows given as
/// `(from, to)` pairs, by progressive filling: every unfrozen flow's rate
/// grows at the same pace until an uplink saturates or a flow hits its
/// per-pair cap, at which point the binding flows freeze and the rest keep
/// filling.  A flow with no finite constraint gets `f64::INFINITY` (its
/// transfer is instantaneous).
///
/// This solver handles any route and any per-pair cap, which the network
/// model does not need (a flow crosses only its source's uplink, and every
/// pair has the one cap), so it is the independent oracle the closed-form
/// [`NetworkTopology::fair_share`] is checked against.
fn fair_share_rates(topo: &NetworkTopology, flows: &[(usize, usize)]) -> Vec<f64> {
    let nf = flows.len();
    let mut rates = vec![0.0; nf];
    if nf == 0 {
        return rates;
    }
    // One link id per member: a member's uplink, or a link no flow crosses.
    let links: Vec<f64> = (0..topo.num_members()).map(|m| topo.uplink(m).unwrap_or(0.0)).collect();
    let routes: Vec<Option<usize>> = flows.iter().map(|&(f, _)| topo.uplink(f).map(|_| f)).collect();
    let caps: Vec<f64> = flows
        .iter()
        .map(|&(f, t)| {
            let spg = topo.seconds_per_gb(f, t);
            if spg > 0.0 {
                1.0 / spg
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let mut remaining: Vec<f64> = links.clone();
    let mut counts = vec![0usize; links.len()];
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
            let capped = caps[f].is_finite() && caps[f] - rates[f] <= caps[f] * 1e-12;
            let saturated = routes[f].is_some_and(|l| remaining[l] <= links[l] * 1e-12);
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

/// (6) Property: over seeded random topologies (uplinks of 0.05–1.05 GB/s
/// on a random subset of members, a per-GB rate of 0 or 0.5–3 s/GB) and
/// random multisets of flows over 1–5 uplinks, each flow's
/// [`NetworkTopology::fair_share`] — its source's capacity split among the
/// flows leaving it, capped by the per-GB rate — matches the
/// progressive-filling max-min oracle within 1e-12 relative, and bit for
/// bit whenever one uplink carries every flow.
#[test]
fn fair_share_matches_the_progressive_filling_oracle() {
    let (mut single, mut capped) = (0, 0);
    for seed in 1..=400u64 {
        let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
        let members = 2 + rng.below(7);
        let mut topo = random_topology(&mut rng, members, 0.6);
        if (0..members).all(|m| topo.uplink(m).is_none()) {
            topo = topo.with_uplink(rng.below(members), 0.05 + rng.r01());
        }
        let mut uplinks: Vec<usize> = (0..members).filter(|&m| topo.uplink(m).is_some()).collect();
        let used = 1 + rng.below(uplinks.len().min(5));
        while uplinks.len() > used {
            uplinks.swap_remove(rng.below(uplinks.len()));
        }
        let nflows = used + rng.below(12);
        let pairs: Vec<(usize, usize)> = (0..nflows)
            .map(|k| {
                let from = if k < used { uplinks[k] } else { uplinks[rng.below(used)] };
                (from, (from + 1 + rng.below(members - 1)) % members)
            })
            .collect();
        let expected = fair_share_rates(&topo, &pairs);
        for (k, (&(from, to), e)) in pairs.iter().zip(&expected).enumerate() {
            let sharing = pairs.iter().filter(|p| p.0 == from).count();
            let got = topo.fair_share(from, sharing);
            if used == 1 {
                assert_eq!(got.to_bits(), e.to_bits(), "seed {seed}, flow {k}: {got} vs {e}");
            } else {
                assert!((got - e).abs() <= 1e-12 * e, "seed {seed}, flow {k}: {got} vs {e}");
            }
            let spg = topo.seconds_per_gb(from, to);
            capped += usize::from(spg > 0.0 && got == 1.0 / spg);
        }
        single += usize::from(used == 1);
    }
    assert!(single > 0 && single < 400, "both the one-uplink and the many-uplink case ran");
    assert!(capped > 0, "no flow was held at the per-GB cap, so the cap went untested");
}

/// From-scratch fluid simulation of flows that all leave members with an
/// uplink: piecewise-constant max-min rates recomputed at every start and
/// completion, flows draining at their allocated rates in between.
/// Returns each flow's completion time.
fn oracle_completions(topo: &NetworkTopology, specs: &[FlowSpec]) -> Vec<f64> {
    let n = specs.len();
    let mut remaining: Vec<f64> = specs.iter().map(|s| s.2).collect();
    let mut done: Vec<Option<f64>> = vec![None; n];
    let mut now = 0.0;
    while done.iter().any(Option::is_none) {
        let active: Vec<usize> = (0..n)
            .filter(|&i| done[i].is_none() && specs[i].3 <= now)
            .collect();
        let pairs: Vec<(usize, usize)> =
            active.iter().map(|&i| (specs[i].0, specs[i].1)).collect();
        let rates = fair_share_rates(topo, &pairs);
        let next_start = (0..n)
            .filter(|&i| done[i].is_none() && specs[i].3 > now)
            .map(|i| specs[i].3)
            .fold(f64::INFINITY, f64::min);
        let mut dt = next_start - now;
        for (k, &i) in active.iter().enumerate() {
            dt = dt.min(remaining[i] / rates[k]);
        }
        assert!(dt.is_finite(), "no event left but {} flows unfinished", n);
        let target = now + dt;
        for (k, &i) in active.iter().enumerate() {
            remaining[i] -= rates[k] * dt;
            if remaining[i] <= 1e-9 * specs[i].2 {
                remaining[i] = 0.0;
                done[i] = Some(target);
            }
        }
        // Pin start instants exactly so `<= now` matches the driver.
        now = if next_start <= target { next_start } else { target };
    }
    done.into_iter().map(|d| d.unwrap()).collect()
}

/// Drives a [`FlowSet`] through the engine's event protocol — begins at the
/// flows' start times, arrival events with epoch-staleness filtering, a
/// reallocation after every membership change — and returns each flow's
/// completion time.
fn flow_set_completions(topo: &NetworkTopology, specs: &[FlowSpec]) -> Vec<f64> {
    let mut flows = FlowSet::new(topo);
    let mut plans: Vec<FlowArrivalPlan> = Vec::new();
    let mut scratch: Vec<FlowArrivalPlan> = Vec::new();
    let mut starts: Vec<(f64, usize)> =
        specs.iter().enumerate().map(|(i, s)| (s.3, i)).collect();
    starts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut next_start = 0;
    let mut done: Vec<Option<f64>> = vec![None; specs.len()];
    while done.iter().any(Option::is_none) {
        // The earliest queued arrival (stale ones are filtered at pop, like
        // the engine's event queue).
        let arrival = plans
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.at.total_cmp(&b.at).then(a.epoch.cmp(&b.epoch)))
            .map(|(k, p)| (p.at, k));
        let start = starts.get(next_start).copied();
        let take_start = match (start, arrival) {
            (Some((st, _)), Some((at, _))) => st <= at,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => panic!("flows unfinished but no events queued"),
        };
        scratch.clear();
        if take_start {
            let (st, i) = start.unwrap();
            next_start += 1;
            flows.settle(st);
            flows.begin(JobId(i as u64), specs[i].0, specs[i].1, specs[i].2, i);
            flows.reallocate(topo, st, &mut scratch);
        } else {
            let (at, k) = arrival.unwrap();
            let plan = plans.swap_remove(k);
            flows.settle(at);
            let Some(flow) = flows.finish(plan.job, plan.epoch) else {
                continue; // superseded by a rate change — stale, dropped
            };
            done[flow.job.0 as usize] = Some(at);
            flows.reallocate(topo, at, &mut scratch);
        }
        plans.append(&mut scratch);
    }
    done.into_iter().map(|d| d.unwrap()).collect()
}

/// (1) Property: over seeded random topologies where every member has an
/// uplink, and staggered contended flow sets, the incremental `FlowSet` and
/// the from-scratch fluid oracle agree on every completion time.
#[test]
fn flow_completions_match_the_from_scratch_max_min_oracle() {
    for seed in 1..=24u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let members = 3 + rng.below(3);
        let topo = random_topology(&mut rng, members, 1.0);
        let nflows = 3 + rng.below(8);
        let specs: Vec<FlowSpec> = (0..nflows)
            .map(|_| {
                let from = rng.below(members);
                let to = (from + 1 + rng.below(members - 1)) % members;
                (from, to, 0.5 + 9.5 * rng.r01(), 5.0 * rng.r01())
            })
            .collect();
        let expected = oracle_completions(&topo, &specs);
        let got = flow_set_completions(&topo, &specs);
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert!(
                (e - g).abs() <= 1e-6 * e.max(1.0),
                "seed {seed}, flow {i} ({:?}): oracle {e}, flow set {g}",
                specs[i]
            );
        }
    }
}

/// Routes job `i` to source member `i % sources`, so every source holds
/// jobs.
struct BySourceIndex(usize);

impl Router for BySourceIndex {
    fn name(&self) -> &str {
        "by-source-index"
    }
    fn route(&mut self, id: JobId, _: &SubmittedJob, _: &RoutingContext<'_>) -> usize {
        id.0 as usize % self.0
    }
}

/// Moves every migratable candidate that has not moved yet to one member.
struct MoveOnceTo {
    to: usize,
    moved: Vec<JobId>,
}

impl MigrationPolicy for MoveOnceTo {
    fn name(&self) -> &str {
        "move-once"
    }
    fn on_carbon_change(
        &mut self,
        _ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        for c in candidates.iter().filter(|c| c.migratable()) {
            if !self.moved.contains(&c.job) {
                self.moved.push(c.job);
                out.migrate(c.job, self.to);
            }
        }
    }
}

/// (2) Property: federations of 2–4 source members, a random subset of
/// them with an uplink, and one destination.  The sources never dispatch,
/// and each ships its jobs to the destination at its own carbon steps
/// (trace steps differ per source, so transfers start at staggered
/// instants and overlap).  A migration from a source without an uplink
/// takes exactly `gb × seconds_per_gb`, bit for bit, even while other
/// sources' flows are in flight; the migrations over uplinks land when the
/// from-scratch fluid oracle, fed their departures, says.
#[test]
fn mixed_uplink_federations_price_each_migration_by_its_source() {
    let (mut fixed, mut flows, mut fixed_during_flows) = (0, 0, 0);
    for seed in 1..=12u64 {
        let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
        let sources = 2 + rng.below(3);
        let dest = sources;
        let mut topo = random_topology(&mut rng, sources + 1, 0.5);
        if (0..sources).all(|m| topo.uplink(m).is_none()) {
            topo = topo.with_uplink(rng.below(sources), 0.05 + rng.r01());
        }
        let spg = topo.seconds_per_gb(0, dest);
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        let members: Vec<Member> = (0..=sources)
            .map(|m| {
                let step = 300.0 + 100.0 * m as f64 + 50.0 * rng.below(4) as f64;
                let trace = CarbonTrace::new(format!("m{m}"), 0.0, step, vec![100.0; 48]);
                Member::new(format!("m{m}"), config.clone(), trace)
            })
            .collect();
        let jobs: Vec<SubmittedJob> = (0..3 * sources)
            .map(|i| {
                let dag = JobDagBuilder::new(format!("j{i}"))
                    .stage("s", vec![Task::new(1.0 + 4.0 * rng.r01())])
                    .build()
                    .unwrap();
                SubmittedJob::at(1500.0 * rng.r01(), dag).with_data_gb(1.0 + 40.0 * rng.r01())
            })
            .collect();
        let fed = Federation::new(members, jobs).with_network(topo.clone());
        let mut idle: Vec<Idle> = (0..sources).map(|_| Idle).collect();
        let mut fifo = SparkStandaloneFifo::new();
        let mut schedulers: Vec<&mut dyn Scheduler> =
            idle.iter_mut().map(|s| s as &mut dyn Scheduler).collect();
        schedulers.push(&mut fifo);
        let mut policy = MoveOnceTo { to: dest, moved: Vec::new() };
        let result = fed
            .run_with_migration(&mut BySourceIndex(sources), &mut policy, &mut schedulers)
            .expect("every job migrates to the destination and completes there");
        assert!(result.all_jobs_complete(), "seed {seed}");
        assert_eq!(result.migrations.len(), 3 * sources, "seed {seed}: every job moves once");

        let (over_uplinks, uncontended): (Vec<&MigrationRecord>, Vec<&MigrationRecord>) =
            result.migrations.iter().partition(|m| topo.uplink(m.from).is_some());
        for m in &uncontended {
            assert_eq!(
                m.transfer_seconds.to_bits(),
                (m.gb * spg).to_bits(),
                "seed {seed}: {:?} left a member without an uplink",
                m.job
            );
            assert_eq!(m.arrived.to_bits(), (m.departed + m.gb * spg).to_bits(), "seed {seed}");
            if over_uplinks.iter().any(|f| f.departed <= m.departed && m.departed < f.arrived) {
                fixed_during_flows += 1;
            }
        }
        let specs: Vec<FlowSpec> =
            over_uplinks.iter().map(|m| (m.from, m.to, m.gb, m.departed)).collect();
        let expected = oracle_completions(&topo, &specs);
        for (m, e) in over_uplinks.iter().zip(&expected) {
            assert!(
                (m.arrived - e).abs() <= 1e-6 * e.max(1.0),
                "seed {seed}, {:?} over uplink {:?}: oracle {e}, engine {}",
                m.job,
                topo.uplink(m.from),
                m.arrived
            );
        }
        fixed += uncontended.len();
        flows += over_uplinks.len();
    }
    assert!(fixed > 0 && flows > 0, "both pricing paths ran: {fixed} fixed, {flows} flows");
    assert!(
        fixed_during_flows > 0,
        "no fixed-delay migration departed while a flow was in flight, so the property is vacuous"
    );
}

/// The `fed3_migrate_pcaps` bench configuration (three grids, 10 jobs,
/// carbon+queue-aware routing, carbon-delta migration, one PCAPS instance
/// per member).
fn fed3_config() -> FederationExperimentConfig {
    let mut cfg = FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica],
        10,
        42,
    );
    cfg.executors_per_member = 7;
    cfg.trace_days = 7;
    cfg
}

/// FNV-1a over the schedule-defining outputs of a member's run — identical
/// to the fingerprint in `tests/determinism.rs` and `tests/migration.rs`.
fn fingerprint(result: &SimulationResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(result.makespan.to_bits());
    mix(result.tasks_dispatched as u64);
    mix(result.jobs_submitted as u64);
    for job in &result.jobs {
        mix(job.id.0);
        mix(job.arrival.to_bits());
        mix(job.completion.to_bits());
        mix(job.executor_seconds.to_bits());
    }
    h
}

fn run_fed3(config: &FederationExperimentConfig) -> FederationResult {
    let federation = config.federation_instance();
    let mut schedulers: Vec<Box<dyn Scheduler>> = federation
        .members()
        .iter()
        .enumerate()
        .map(|(i, member)| {
            SchedulerSpec::pcaps_moderate().build(config.member_seed(i), &member.carbon, 60.0)
        })
        .collect();
    let mut router = RouterSpec::CarbonQueueAware.build();
    let mut policy = MigrationSpec::CarbonDelta.build();
    let mut refs: Vec<&mut dyn Scheduler> = Vec::with_capacity(schedulers.len());
    for s in schedulers.iter_mut() {
        refs.push(&mut **s);
    }
    federation
        .run_with_migration(router.as_mut(), policy.as_mut(), &mut refs)
        .expect("the fed3 bench config always completes")
}

/// `fed3_migrate_pcaps`'s per-member fingerprints, recorded while the
/// engine still priced a bare `TransferMatrix` through a branch of its own.
const FED3_MIGRATE_PCAPS_FINGERPRINTS: [u64; 3] =
    [0xa526c979ee822164, 0xb17291d3cb345f93, 0x81d23fd7003c2305];
/// [`migration_log_hash`] of the same run.
const FED3_MIGRATE_PCAPS_MIGRATION_LOG: u64 = 0xd662d9fc86cd03e2;

/// FNV-1a over the bits of every migration record, in log order.
fn migration_log_hash(migrations: &[MigrationRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in migrations {
        mix(m.job.0);
        mix(m.from as u64);
        mix(m.to as u64);
        mix(m.departed.to_bits());
        mix(m.arrived.to_bits());
        mix(m.gb.to_bits());
        mix(m.transfer_seconds.to_bits());
        mix(m.transfer_carbon_grams.to_bits());
    }
    h
}

/// (3) Matrix pricing, pinned by value: both ways a matrix enters a
/// federation — `with_transfer_matrix`, and `with_network` over
/// `NetworkTopology::from_matrix` — replay the `fed3_migrate_pcaps`
/// fingerprints and migration log recorded before the two routes shared
/// one code path.
#[test]
fn from_matrix_topology_replays_the_fed3_migrate_pcaps_fingerprints() {
    let cfg = fed3_config();
    let wrapped =
        cfg.clone().with_network(NetworkTopology::from_matrix(&cfg.transfer_matrix()));
    for (route, cfg) in [("with_transfer_matrix", &cfg), ("with_network(from_matrix)", &wrapped)] {
        let result = run_fed3(cfg);
        assert!(
            !result.migrations.is_empty(),
            "fed3_migrate_pcaps must actually migrate, or this pin proves nothing"
        );
        let fingerprints: Vec<u64> =
            result.members.iter().map(|m| fingerprint(&m.result)).collect();
        assert_eq!(fingerprints, FED3_MIGRATE_PCAPS_FINGERPRINTS, "{route}: the schedule moved");
        assert_eq!(
            migration_log_hash(&result.migrations),
            FED3_MIGRATE_PCAPS_MIGRATION_LOG,
            "{route}: the migration log moved"
        );
    }
}

/// (4) Determinism: drain-then-move over a capacitated network replays bit
/// for bit across {FIFO, PCAPS} × 3 seeds, and at least one combination
/// actually migrates through contended flows.
#[test]
fn drain_then_move_trials_replay_bit_identically() {
    let mut saw_moves = false;
    for seed in [1u64, 11, 42] {
        for spec in
            [SchedulerSpec::Baseline(BaseScheduler::Fifo), SchedulerSpec::pcaps_moderate()]
        {
            let mut cfg = FederationExperimentConfig::standard(
                vec![GridRegion::Caiso, GridRegion::SouthAfrica],
                12,
                seed,
            );
            cfg.executors_per_member = 2;
            let network = NetworkTopology::from_matrix(&cfg.transfer_matrix())
                .with_uplink(0, 0.05)
                .with_uplink(1, 0.05);
            let cfg = cfg.with_network(network);
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    run_federated_trial_with_migration(
                        &cfg,
                        RouterSpec::RoundRobin,
                        MigrationSpec::CarbonDeltaDrain,
                        spec,
                    )
                })
                .collect();
            assert_eq!(
                runs[0].makespan.to_bits(),
                runs[1].makespan.to_bits(),
                "seed {seed}, {}: drained makespans diverged",
                spec.label()
            );
            assert_eq!(runs[0].avg_jct.to_bits(), runs[1].avg_jct.to_bits());
            assert_eq!(
                runs[0].total_carbon_grams.to_bits(),
                runs[1].total_carbon_grams.to_bits()
            );
            assert_eq!(runs[0].transfer_seconds.to_bits(), runs[1].transfer_seconds.to_bits());
            assert_eq!(runs[0].num_migrations, runs[1].num_migrations);
            saw_moves |= runs[0].num_migrations > 0;
        }
    }
    assert!(
        saw_moves,
        "at least one seed must migrate through the network, or this suite proves nothing"
    );
}

/// A scheduler that never dispatches, so its member's jobs stay idle (and
/// migratable) until a migration policy moves them.
struct Idle;

impl Scheduler for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn on_event(&mut self, _: SchedEvent<'_>, _: &SchedulingContext<'_>, _: &mut DecisionSink) {}
}

/// Moves every migratable candidate to one member.
struct MoveAllTo(usize);

impl MigrationPolicy for MoveAllTo {
    fn name(&self) -> &str {
        "move-all"
    }
    fn on_carbon_change(
        &mut self,
        _ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        for c in candidates.iter().filter(|c| c.migratable()) {
            out.migrate(c.job, self.0);
        }
    }
}

/// (5) At t=3600 two idle jobs (1 GB and 10 GB) leave A over its one shared
/// 1 GB/s uplink at 0.5 GB/s each.  The small job lands at 3602; the big
/// one's rate then doubles, so its 9 GB left land at 3611, superseding the
/// arrival still queued for 3620.  Its 1 s task finishes at 3612, and the
/// run must end there: the limit of 3615 falls before the stale event.
#[test]
fn a_superseded_flow_arrival_does_not_outlive_the_run() {
    let job = |name: &str, gb: f64| {
        let dag = JobDagBuilder::new(name)
            .stage("s", vec![Task::new(1.0)])
            .build()
            .unwrap();
        SubmittedJob::at(0.0, dag).with_data_gb(gb)
    };
    let config = ClusterConfig::new(1)
        .with_move_delay(0.0)
        .with_time_scale(1.0)
        .with_max_sim_time(3615.0);
    let fed = Federation::new(
        vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 100.0, 48)),
            Member::new("B", config, CarbonTrace::constant("B", 100.0, 48)),
        ],
        vec![job("small", 1.0), job("big", 10.0)],
    )
    .with_network(NetworkTopology::new(2).with_uplink(0, 1.0));
    let mut a = Idle;
    let mut b = SparkStandaloneFifo::new();
    let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
    let result = fed
        .run_with_migration(&mut StaticRouter::new(0), &mut MoveAllTo(1), &mut schedulers)
        .expect("the run ends when the last job completes");
    let arrivals: Vec<f64> = result.migrations.iter().map(|m| m.arrived).collect();
    assert_eq!(arrivals.len(), 2, "both jobs migrate");
    assert!((arrivals[0] - 3602.0).abs() < 1e-9, "got {arrivals:?}");
    assert!((arrivals[1] - 3611.0).abs() < 1e-9, "got {arrivals:?}");
    assert!(result.all_jobs_complete());
    assert!((result.makespan - 3612.0).abs() < 1e-9, "got {}", result.makespan);
}

/// (7) A 0 GB move arrives at its departure instant on every topology.  An
/// outage at t=10 evacuates an idle 0 GB job off member 0: once over its
/// 1 GB/s uplink, once with the uplink on member 1 instead, both at a
/// per-GB rate of 2 s/GB.  The job arrives at 10 with no transfer time and
/// its 5 s task ends at 15.  A flow that starts with nothing to deliver
/// must still have its arrival queued; without one the job stays in
/// transit until the time limit.
#[test]
fn a_zero_gb_move_arrives_at_its_departure_on_every_topology() {
    let config = ClusterConfig::new(1)
        .with_move_delay(0.0)
        .with_time_scale(1.0)
        .with_max_sim_time(50_000.0);
    for uplink in [0, 1] {
        let dag = JobDagBuilder::new("j").stage("s", vec![Task::new(5.0)]).build().unwrap();
        let fed = Federation::new(
            vec![
                Member::new("A", config.clone(), CarbonTrace::constant("A", 100.0, 48)),
                Member::new("B", config.clone(), CarbonTrace::constant("B", 100.0, 48)),
            ],
            vec![SubmittedJob::at(0.0, dag).with_data_gb(0.0)],
        )
        .with_network(
            NetworkTopology::from_matrix(&TransferMatrix::uniform(2, 2.0)).with_uplink(uplink, 1.0),
        )
        .with_fault_plan(&RegionOutage::new(0, 10.0, 20.0));
        let mut a = Idle;
        let mut b = SparkStandaloneFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        let result = fed
            .run(&mut StaticRouter::new(0), &mut schedulers)
            .unwrap_or_else(|e| panic!("uplink on member {uplink}: {e}"));
        assert_eq!(result.migrations.len(), 1, "uplink on member {uplink}");
        let m = &result.migrations[0];
        assert_eq!((m.from, m.to, m.gb), (0, 1, 0.0), "uplink on member {uplink}");
        assert_eq!((m.departed, m.arrived), (10.0, 10.0), "uplink on member {uplink}");
        assert_eq!(m.transfer_seconds, 0.0, "uplink on member {uplink}");
        assert_eq!(result.makespan, 15.0, "uplink on member {uplink}");
    }
}
