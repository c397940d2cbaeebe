//! Incremental scheduler-state conformance: the persistent
//! version-stamped score table inside `DecimaLike` (PR 10) must be
//! *bit-indistinguishable* from a from-scratch recomputation of the
//! original three-scan algorithm — at every scheduling event, across every
//! membership churn the engine can produce: plain arrivals and
//! completions, serve-mode compaction (slot-base shifts retiring jobs off
//! the front of the active table), and migration detach/reattach (jobs
//! leaving mid-table and reappearing appended, progress travelling with
//! them).  The checking schedulers below recompute the distribution and
//! the fair-share parallelism limit from scratch at every invocation and
//! compare probabilities bit for bit, so any staleness bug in the table —
//! a missed version bump, a block survived past a membership change, a
//! float op reordered — fails loudly with the event time attached.
//!
//! The per-pair score/weight cache is checked through the sampling fast
//! path too: with the same draw, `DecimaLike::sample` must pick the
//! oracle's `(job, stage)` with the oracle's probability, max-probability
//! and relative-importance bits, and every run tallies which cache regime
//! (full rescore, full re-weight, changed jobs only) each pass took, so a
//! test cannot pass without reaching all three.
//!
//! Pattern of `tests/properties.rs`: seeded ChaCha8-driven cases, no
//! external proptest dependency, every failure reproducible.

use carbon_aware_dag_sched::prelude::*;
use pcaps_core::{importance_ratio, relative_importance};
use pcaps_dag::JobId;
use pcaps_schedulers::probabilistic::{
    sample_cdf, softmax, ProbabilisticScheduler, SampledStage, StageProbability,
};
use pcaps_schedulers::{DecimaCacheStats, DecimaWeights};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Oracle: the distribution rebuilt from scratch with the pre-incremental
/// algorithm (max-remaining scan, score scan, softmax), exactly the float
/// operations the score table's fused pass must replicate bit for bit.
fn oracle_distribution(
    ctx: &SchedulingContext<'_>,
    w: DecimaWeights,
) -> Vec<StageProbability> {
    let max_remaining = ctx
        .jobs()
        .map(|j| j.remaining_work())
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut scored: Vec<(JobId, StageId, f64)> = Vec::new();
    for job in ctx.jobs() {
        let dispatchable = job.dispatchable_stages();
        if dispatchable.is_empty() {
            continue;
        }
        let remaining = job.remaining_work();
        let short_job_feature = 1.0 - (remaining / max_remaining);
        let bottleneck = job.dag.bottleneck_scores();
        let total_stages = job.dag.num_stages() as f64;
        let completed = job.progress.frontier().num_completed() as f64;
        let completion_feature = completed / total_stages;
        for &stage in dispatchable {
            let score = w.short_job * short_job_feature
                + w.bottleneck * bottleneck[stage.index()]
                + w.completion * completion_feature;
            scored.push((job.id, stage, score));
        }
    }
    let probs = softmax(
        &scored.iter().map(|s| s.2).collect::<Vec<_>>(),
        w.temperature,
    );
    scored
        .iter()
        .zip(probs)
        .map(|(&(job, stage, _), probability)| StageProbability { job, stage, probability })
        .collect()
}

/// Oracle: the fair-share parallelism limit recomputed with a full
/// jobs-with-work rescan (what the cached per-event count replaces).
fn oracle_limit(ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
    let jobs_with_work = ctx
        .jobs()
        .filter(|j| !j.dispatchable_stages().is_empty())
        .count()
        .max(1);
    let fair_share = ctx.total_executors.div_ceil(jobs_with_work);
    let pending = ctx
        .job(job)
        .map(|j| j.progress.pending_tasks(stage))
        .unwrap_or(0);
    fair_share.min(pending).max(1)
}

fn assert_matches_oracle(
    got: &[StageProbability],
    ctx: &SchedulingContext<'_>,
    label: &str,
) {
    let oracle = oracle_distribution(ctx, DecimaWeights::default());
    assert_eq!(
        got.len(),
        oracle.len(),
        "{label}: entry count diverged from scratch recomputation at t={}",
        ctx.time
    );
    for (g, o) in got.iter().zip(&oracle) {
        assert_eq!(
            (g.job, g.stage),
            (o.job, o.stage),
            "{label}: entry order diverged at t={}",
            ctx.time
        );
        assert!(
            g.probability.to_bits() == o.probability.to_bits(),
            "{label}: probability of ({}, {}) diverged from scratch \
             recomputation at t={}: {} vs {}",
            g.job,
            g.stage,
            ctx.time,
            g.probability,
            o.probability
        );
    }
}

/// How many passes took each cache regime, classified from the
/// `cache_stats` delta around a single pass.
#[derive(Debug, Default)]
struct Regimes {
    full_rescore: usize,
    full_reweight: usize,
    changed_only: usize,
}

impl Regimes {
    fn record(&mut self, before: DecimaCacheStats, after: DecimaCacheStats) {
        assert_eq!(after.passes, before.passes + 1, "one sample is one pass");
        if after.full_rescores > before.full_rescores {
            self.full_rescore += 1;
        } else if after.full_reweights > before.full_reweights {
            self.full_reweight += 1;
        } else {
            self.changed_only += 1;
        }
    }

    fn add(&mut self, other: &Regimes) {
        self.full_rescore += other.full_rescore;
        self.full_reweight += other.full_reweight;
        self.changed_only += other.changed_only;
    }

    fn assert_all_reached(&self, label: &str) {
        assert!(
            self.full_rescore > 0 && self.full_reweight > 0 && self.changed_only > 0,
            "{label}: every cache regime must be exercised, got {self:?}"
        );
    }
}

/// Samples through `DecimaLike::sample` and pins the result against the
/// oracle: with the same draw `r`, the oracle's `softmax` + `sample_cdf` +
/// `relative_importance` must give the same `(job, stage)` and the same
/// probability, max-probability and importance bits.  `draw` must be called
/// exactly once when a stage is sampled, and never otherwise.
fn checked_sample(
    inner: &mut DecimaLike,
    ctx: &SchedulingContext<'_>,
    draw: &mut dyn FnMut() -> f64,
    regimes: &mut Regimes,
    label: &str,
) -> Option<SampledStage> {
    let before = inner.cache_stats();
    let mut draws = Vec::new();
    let got = inner.sample(ctx, &mut || {
        let r = draw();
        draws.push(r);
        r
    });
    regimes.record(before, inner.cache_stats());
    let oracle = oracle_distribution(ctx, DecimaWeights::default());
    let Some(got) = got else {
        assert!(draws.is_empty(), "{label}: drew without sampling at t={}", ctx.time);
        assert!(oracle.is_empty(), "{label}: sampled nothing from work at t={}", ctx.time);
        return None;
    };
    assert_eq!(draws.len(), 1, "{label}: one draw per sample at t={}", ctx.time);
    let idx = sample_cdf(oracle.iter().map(|e| e.probability), draws[0])
        .expect("the oracle has work whenever the policy sampled");
    let max = oracle
        .iter()
        .map(|e| e.probability)
        .fold(f64::NEG_INFINITY, f64::max);
    let bits = |x: f64| x.to_bits();
    assert_eq!(
        (got.job, got.stage),
        (oracle[idx].job, oracle[idx].stage),
        "{label}: sampled a different pair at t={}",
        ctx.time
    );
    assert_eq!(
        (bits(got.probability), bits(got.max_probability)),
        (bits(oracle[idx].probability), bits(max)),
        "{label}: probability or max-probability bits diverged at t={}",
        ctx.time
    );
    assert_eq!(
        bits(importance_ratio(got.probability, got.max_probability)),
        bits(relative_importance(&oracle, idx)),
        "{label}: relative importance bits diverged at t={}",
        ctx.time
    );
    Some(got)
}

/// Which `DecimaLike` entry point a [`CheckingDecima`] drives.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// `distribution_into`, then the standalone `Scheduler::on_event`.
    Distribution,
    /// `ProbabilisticScheduler::sample` with the wrapper's own draws,
    /// dispatching the sampled stage as the standalone policy would.
    Sample,
}

/// A standalone Decima wrapper that, at every invocation, pins the
/// incremental distribution (or sample) and the cached-count parallelism
/// limit against the from-scratch oracles before making the decision.
struct CheckingDecima {
    inner: DecimaLike,
    route: Route,
    rng: ChaCha8Rng,
    checks: usize,
    regimes: Regimes,
}

impl CheckingDecima {
    fn new(seed: u64, route: Route) -> Self {
        CheckingDecima {
            inner: DecimaLike::new(seed),
            route,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xD4A3),
            checks: 0,
            regimes: Regimes::default(),
        }
    }

    fn check_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        let got = self.inner.parallelism_limit(ctx, job, stage);
        assert_eq!(
            got,
            oracle_limit(ctx, job, stage),
            "standalone: cached jobs-with-work limit diverged for ({job}, {stage}) at t={}",
            ctx.time
        );
        got
    }
}

impl Scheduler for CheckingDecima {
    fn name(&self) -> &str {
        "checking-decima"
    }

    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        self.checks += 1;
        match self.route {
            Route::Distribution => {
                let mut dist = Vec::new();
                self.inner.distribution_into(ctx, &mut dist);
                assert_matches_oracle(&dist, ctx, "standalone");
                for entry in &dist {
                    self.check_limit(ctx, entry.job, entry.stage);
                }
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
            Route::Sample => {
                let rng = &mut self.rng;
                let draw = &mut || rng.gen_range(0.0..1.0);
                let sampled =
                    checked_sample(&mut self.inner, ctx, draw, &mut self.regimes, "standalone-sample");
                if let Some(s) = sampled {
                    let limit = self.check_limit(ctx, s.job, s.stage);
                    out.dispatch(s.job, s.stage, limit);
                }
            }
        }
    }
}

/// The same cross-check through the PCAPS wrapping path: PCAPS samples
/// through `sample`, so the probabilistic-trait route (including the carbon
/// filter's throttled re-invocations) is exercised too.  After each sample
/// the full distribution is pinned as well (a pass that changes nothing,
/// so it does not disturb the cache under test).
struct CheckingProbabilistic {
    inner: DecimaLike,
    checks: usize,
    regimes: Regimes,
}

impl ProbabilisticScheduler for CheckingProbabilistic {
    fn name(&self) -> &str {
        "checking-prob"
    }

    fn distribution_into(
        &mut self,
        ctx: &SchedulingContext<'_>,
        out: &mut Vec<StageProbability>,
    ) {
        self.inner.distribution_into(ctx, out);
        assert_matches_oracle(out, ctx, "pcaps-wrapped");
    }

    fn sample(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage> {
        let got = checked_sample(&mut self.inner, ctx, draw, &mut self.regimes, "pcaps-wrapped");
        self.distribution_into(ctx, &mut Vec::new());
        self.checks += 1;
        got
    }

    fn parallelism_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        let got = self.inner.parallelism_limit(ctx, job, stage);
        assert_eq!(
            got,
            oracle_limit(ctx, job, stage),
            "pcaps-wrapped: cached jobs-with-work limit diverged at t={}",
            ctx.time
        );
        got
    }
}

/// A random layered DAG (forward-only edges), as in `tests/properties.rs`.
fn random_dag(rng: &mut ChaCha8Rng) -> JobDag {
    let n = rng.gen_range(2..10usize);
    let seed = rng.gen_range(0..1000usize);
    let mut builder = JobDagBuilder::new(format!("sched-state-{seed}"));
    for i in 0..n {
        let tasks = 1 + ((seed + i * 7) % 5);
        let dur = 1.0 + ((seed + i * 13) % 50) as f64;
        builder.add_stage(format!("s{i}"), vec![Task::new(dur); tasks]);
    }
    let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..n * 2))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|(a, z)| a < z)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut b = builder;
    for (a, z) in edges {
        b = b
            .edge(StageId(a as u32), StageId(z as u32))
            .expect("deduplicated forward edges are always valid");
    }
    b.build().expect("forward-edge DAGs always build")
}

/// Arrivals and completions on a single cluster: the score table sees jobs
/// appended at the back and removed in place, across several seeds and
/// both a flat and a volatile trace.
#[test]
fn incremental_scores_match_scratch_on_single_cluster_runs() {
    let mut regimes = Regimes::default();
    for seed in [1u64, 5, 11] {
        let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(12)
            .mean_interarrival(25.0)
            .build()
            .into_iter()
            .map(|j| SubmittedJob::at(j.arrival, j.dag))
            .collect();
        let trace = SyntheticTraceGenerator::new(GridRegion::Germany, seed).generate_days(30);
        let sim = Simulator::new(
            ClusterConfig::new(16).with_time_scale(60.0),
            workload,
            trace,
        );
        for route in [Route::Distribution, Route::Sample] {
            let mut checker = CheckingDecima::new(seed, route);
            let result = sim.run(&mut checker).expect("run completes");
            assert!(result.all_jobs_complete(), "seed {seed}, {route:?}");
            assert!(
                checker.checks > 50,
                "seed {seed}, {route:?}: the oracle must actually run ({} checks)",
                checker.checks
            );
            regimes.add(&checker.regimes);
        }
    }
    regimes.assert_all_reached("single cluster");
}

/// The PCAPS route on a volatile trace (real deferrals + throttled
/// same-instant re-invocations) must sample bit-identically to the oracle.
#[test]
fn incremental_scores_match_scratch_through_pcaps() {
    let mut values = Vec::new();
    for i in 0..2000 {
        values.push(if i % 24 < 12 { 800.0 } else { 50.0 });
    }
    let trace = CarbonTrace::hourly("alternating", values);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 9)
        .jobs(15)
        .build()
        .into_iter()
        .map(|j| SubmittedJob::at(j.arrival, j.dag))
        .collect();
    let sim = Simulator::new(ClusterConfig::new(20).with_time_scale(60.0), workload, trace);
    let mut pcaps = Pcaps::new(
        CheckingProbabilistic {
            inner: DecimaLike::new(1),
            checks: 0,
            regimes: Regimes::default(),
        },
        PcapsConfig::with_gamma(0.9),
    );
    let result = sim.run(&mut pcaps).expect("run completes");
    assert!(result.all_jobs_complete());
    assert!(pcaps.stats().deferred > 0, "the volatile trace must exercise deferrals");
    assert!(pcaps.inner().checks > 50, "the oracle must actually run");
    pcaps.inner().regimes.assert_all_reached("pcaps");
}

/// A fixed-spacing unbounded source, so the serving run stays sub-critical
/// and compaction genuinely retires jobs off the front of the table.
struct Trickle {
    spacing: f64,
    next_arrival: f64,
    issued: usize,
    rng: ChaCha8Rng,
}

impl ArrivalSource for Trickle {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let arrival = self.next_arrival;
        self.next_arrival += self.spacing;
        self.issued += 1;
        // Small chained DAGs (a few executor-seconds each) keep the run
        // sub-critical, so jobs complete and compaction genuinely retires
        // them; shape still varies with the seed.
        let stages = 2 + self.rng.gen_range(0..3usize);
        let mut builder = JobDagBuilder::new(format!("trickle#{}", self.issued));
        for i in 0..stages {
            let tasks = 1 + self.rng.gen_range(0..2usize);
            let dur = 1.0 + self.rng.gen_range(0.0..2.0);
            builder.add_stage(format!("s{i}"), vec![Task::new(dur); tasks]);
        }
        let mut b = builder;
        for i in 1..stages {
            b = b.edge(StageId((i - 1) as u32), StageId(i as u32)).unwrap();
        }
        Some(SubmittedJob::at(arrival, b.build().unwrap()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Serve-mode compaction: hundreds of arrivals stream through a bounded
/// resident table, so job ids climb far past the table length and the
/// slot base shifts under the score table — every distribution and every
/// sample must still match the oracle bit for bit.
#[test]
fn incremental_scores_match_scratch_across_serve_compaction() {
    let trace = CarbonTrace::constant("flat", 300.0, 26_304);
    let sim = Simulator::streaming(ClusterConfig::new(4).with_time_scale(1.0), trace);
    for route in [Route::Distribution, Route::Sample] {
        let mut source = Trickle {
            spacing: 12.0,
            next_arrival: 0.0,
            issued: 0,
            rng: ChaCha8Rng::seed_from_u64(0x5EED),
        };
        let mut session = sim.serve(&mut source).unwrap();
        let mut checker = CheckingDecima::new(3, route);
        let mut router = StaticRouter::new(0);
        for w in 1..=24 {
            let mut s: [&mut dyn Scheduler; 1] = [&mut checker];
            session
                .run_until(w as f64 * 100.0, &mut router, &mut s, None)
                .unwrap();
        }
        assert!(
            session.jobs_seen() >= 190,
            "{route:?}: 2400 s at 12 s spacing is ~200 arrivals, got {}",
            session.jobs_seen()
        );
        assert!(
            session.resident_table_len() < session.jobs_seen() / 4,
            "{route:?}: compaction must actually retire jobs ({} resident of {} seen)",
            session.resident_table_len(),
            session.jobs_seen()
        );
        // No regime assertion: the run is sub-critical (about one job in
        // the system at a time), so nearly every pass moves the normaliser
        // and rescores everything.
        assert!(checker.checks > 100, "{route:?}: the oracle must actually run");
    }
}

/// A migration policy that moves one random idle job to a random member on
/// roughly half its consultations — jobs detach mid-table and reattach
/// appended at another member whose scheduler has never seen them (or has
/// seen an older version of them).
struct RandomMover {
    rng: ChaCha8Rng,
    moves: usize,
}

impl MigrationPolicy for RandomMover {
    fn name(&self) -> &str {
        "random-mover"
    }

    fn on_carbon_change(
        &mut self,
        ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        if self.rng.gen_range(0.0..1.0) < 0.5 {
            let idle: Vec<&MigrationCandidate> =
                candidates.iter().filter(|c| c.migratable()).collect();
            if !idle.is_empty() {
                let job = idle[self.rng.gen_range(0..idle.len())].job;
                let to = self.rng.gen_range(0..ctx.num_members());
                out.migrate(job, to);
                self.moves += 1;
            }
        }
    }
}

/// Migration detach/reattach: random federated workloads with random
/// moves, a checking Decima per member.  A job that leaves member A and
/// reappears at member B (possibly returning to A later) must never
/// resurrect a stale cached block on either side.  Every case runs through
/// both the distribution route and the sampling route.
#[test]
fn incremental_scores_match_scratch_across_migrations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x919);
    let mut total_moves = 0usize;
    let mut regimes = Regimes::default();
    for case in 0..8u64 {
        let members = rng.gen_range(2..4usize);
        let njobs = rng.gen_range(4..9usize);
        let workload: Vec<SubmittedJob> = (0..njobs)
            .map(|i| SubmittedJob::at(i as f64 * rng.gen_range(5.0..40.0), random_dag(&mut rng)))
            .collect();
        let fed_members = (0..members)
            .map(|m| {
                let values: Vec<f64> = (0..48).map(|_| rng.gen_range(50.0..900.0)).collect();
                Member::new(
                    format!("m{m}"),
                    ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(60.0),
                    CarbonTrace::hourly(format!("m{m}"), values),
                )
            })
            .collect();
        let federation = Federation::new(fed_members, workload).with_transfer_matrix(
            TransferMatrix::uniform(members, rng.gen_range(0.0..2.0)).with_energy_per_gb(0.01),
        );
        for route in [Route::Distribution, Route::Sample] {
            let mut policy = RandomMover {
                rng: ChaCha8Rng::seed_from_u64(0xA10 ^ case),
                moves: 0,
            };
            let mut schedulers: Vec<CheckingDecima> = (0..members)
                .map(|m| CheckingDecima::new(case * 31 + m as u64, route))
                .collect();
            let result = {
                let mut refs: Vec<&mut dyn Scheduler> = Vec::new();
                for s in schedulers.iter_mut() {
                    refs.push(s);
                }
                let mut router = RoundRobinRouter::new();
                federation
                    .run_with_migration(&mut router, &mut policy, &mut refs)
                    .expect("randomized federated runs always complete")
            };
            assert!(result.all_jobs_complete(), "case {case}, {route:?}");
            assert!(
                schedulers.iter().map(|s| s.checks).sum::<usize>() > 0,
                "case {case}, {route:?}: the oracle must actually run"
            );
            total_moves += result.num_migrations();
            for s in &schedulers {
                regimes.add(&s.regimes);
            }
        }
    }
    assert!(
        total_moves > 0,
        "across all cases some migrations must apply, or detach/reattach is never exercised"
    );
    regimes.assert_all_reached("migrations");
}
