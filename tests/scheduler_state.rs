//! Incremental scheduler-state conformance: `DecimaLike`'s persistent
//! stamped table of factorised softmax terms (per-job factor and
//! stage-factor sum, see `crates/schedulers/src/decima.rs`), refreshed
//! through the engine's change journal, is checked at every scheduling
//! event, across every membership churn the engine can produce: plain
//! arrivals and completions, serve-mode compaction (slot-base shifts
//! retiring jobs off the front of the active table), migration
//! detach/reattach (jobs leaving mid-table and reappearing appended,
//! progress travelling with them), and cursors carried into another run or
//! a restored timeline.  Three oracles run per pass:
//!
//! * **Cache check, bit-strict.**  A from-scratch factorised recomputation
//!   (every job factor and stage factor recomputed, nothing carried between
//!   passes) must give the same probability bits, max-probability bits and
//!   sampled `(job, stage)`.  A missed journal entry, a stale stamp, a
//!   factor survived past a normaliser change, a fold resumed from the
//!   wrong entry or a reordered float op fails loudly with the event time
//!   attached.
//! * **Fidelity to the textbook softmax.**  Every probability is within
//!   `1e-12` relative of `softmax` over the raw scores, and the argmax
//!   stage's relative importance is exactly 1.
//! * **Sampling.**  The sampled pair equals `sample_cdf` over the textbook
//!   distribution, except when the draw lies within that tolerance of the
//!   CDF boundary; such draws are counted, and none are expected.
//!
//! The fair-share parallelism limit is pinned against a full rescan, and
//! every run tallies which cache regime (full refactor, changed jobs only)
//! and which refresh path (the journal, a full reconcile) each pass took,
//! so a test cannot pass without reaching both of each.  Runs with crashes
//! and retries also tally whether the entry refreshes kept their stage
//! terms (the job's dispatchable set had not moved) or rebuilt them.
//!
//! Pattern of `tests/properties.rs`: seeded ChaCha8-driven cases, no
//! external proptest dependency, every failure reproducible.

use carbon_aware_dag_sched::prelude::*;
use pcaps_core::{importance_ratio, relative_importance};
use pcaps_dag::JobId;
use pcaps_schedulers::probabilistic::{
    sample_cdf, softmax, ProbabilisticScheduler, SampledStage, StageProbability,
};
use pcaps_schedulers::DecimaCacheStats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `DecimaLike`'s feature weights: shortest remaining work, bottleneck
/// (critical path) and completed-stage fraction.  Its softmax runs at
/// temperature 1.
const SHORT_JOB: f64 = 2.0;
const BOTTLENECK: f64 = 1.5;
const COMPLETION: f64 = 0.5;

/// The pair scores of the textbook definition, in pair order (jobs in
/// `ctx.jobs()` order, each job's dispatchable stages in order).
fn textbook_scores(ctx: &SchedulingContext<'_>) -> Vec<(JobId, StageId, f64)> {
    let max_remaining = ctx
        .jobs()
        .map(|j| j.remaining_work())
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut scored = Vec::new();
    for job in ctx.jobs() {
        let dispatchable = job.dispatchable_stages();
        if dispatchable.is_empty() {
            continue;
        }
        let short_job_feature = 1.0 - (job.remaining_work() / max_remaining);
        let bottleneck = job.dag.bottleneck_scores();
        let completion_feature =
            job.progress.frontier().num_completed() as f64 / job.dag.num_stages() as f64;
        for &stage in dispatchable {
            let score = SHORT_JOB * short_job_feature
                + BOTTLENECK * bottleneck[stage.index()]
                + COMPLETION * completion_feature;
            scored.push((job.id, stage, score));
        }
    }
    scored
}

/// Oracle: the textbook distribution, `softmax` over the raw scores.
fn textbook_distribution(ctx: &SchedulingContext<'_>) -> Vec<StageProbability> {
    let scored = textbook_scores(ctx);
    let probs = softmax(&scored.iter().map(|s| s.2).collect::<Vec<_>>(), 1.0);
    scored
        .iter()
        .zip(probs)
        .map(|(&(job, stage, _), probability)| StageProbability { job, stage, probability })
        .collect()
}

/// Relative tolerance of the textbook comparison.  Scores carry a few ulps
/// of rounding, which the softmax amplifies by `|score| ≤ 4`.
const TEXTBOOK_TOLERANCE: f64 = 1e-12;

/// One job of the factorised recomputation.
struct OracleJob {
    id: JobId,
    factor: f64,
    stages: Vec<(StageId, f64)>,
    stage_sum: f64,
}

/// Oracle: the factorised distribution recomputed from scratch.
struct Factorised {
    jobs: Vec<OracleJob>,
    sum: f64,
    max_factor: f64,
}

impl Factorised {
    fn compute(ctx: &SchedulingContext<'_>) -> Self {
        let normaliser = ctx
            .jobs()
            .map(|j| j.remaining_work())
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        let mut oracle = Factorised { jobs: Vec::new(), sum: 0.0, max_factor: 0.0 };
        for job in ctx.jobs() {
            let dispatchable = job.dispatchable_stages();
            if dispatchable.is_empty() {
                continue;
            }
            let bottleneck = job.dag.bottleneck_scores();
            let best = dispatchable
                .iter()
                .map(|s| BOTTLENECK * bottleneck[s.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            let stages: Vec<(StageId, f64)> = dispatchable
                .iter()
                .map(|&s| (s, (BOTTLENECK * bottleneck[s.index()] - best).exp()))
                .collect();
            let completion =
                job.progress.frontier().num_completed() as f64 / job.dag.num_stages() as f64;
            let score = SHORT_JOB * (1.0 - job.remaining_work() / normaliser)
                + COMPLETION * completion
                + best;
            let factor = score.exp();
            assert!(
                (1.0..=4f64.exp()).contains(&factor),
                "job score {score} of {} at t={} left [0, 4]",
                job.id,
                ctx.time
            );
            let stage_sum: f64 = stages.iter().map(|s| s.1).sum();
            oracle.sum += factor * stage_sum;
            oracle.max_factor = oracle.max_factor.max(factor);
            oracle.jobs.push(OracleJob { id: job.id, factor, stages, stage_sum });
        }
        oracle
    }

    fn distribution(&self) -> Vec<StageProbability> {
        self.jobs
            .iter()
            .flat_map(|job| {
                job.stages.iter().map(|&(stage, e)| StageProbability {
                    job: job.id,
                    stage,
                    probability: job.factor * e / self.sum,
                })
            })
            .collect()
    }

    /// The first job whose cumulative `J·E` reaches `r·Σ`, then its first
    /// stage whose cumulative `e` reaches the remainder `÷ J`.
    fn sample(&self, r: f64) -> SampledStage {
        let target = r * self.sum;
        let mut acc = 0.0;
        let mut chosen = None;
        for job in &self.jobs {
            let before = acc;
            acc += job.factor * job.stage_sum;
            chosen = Some((job, before));
            if target <= acc {
                break;
            }
        }
        let (job, before) = chosen.expect("sampled from an empty distribution");
        let stage_target = (target - before) / job.factor;
        let mut acc = 0.0;
        let mut stage = None;
        for &(s, e) in &job.stages {
            acc += e;
            stage = Some((s, e));
            if stage_target <= acc {
                break;
            }
        }
        let (stage, e) = stage.expect("a job with work has a stage");
        SampledStage {
            job: job.id,
            stage,
            probability: job.factor * e / self.sum,
            max_probability: self.max_factor / self.sum,
        }
    }
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

/// How many passes took each cache regime and each refresh path,
/// classified from the `cache_stats` delta around a single pass.
#[derive(Default, Clone)]
struct Regimes {
    full_refactor: usize,
    changed_only: usize,
    journal: usize,
    reconcile: usize,
    /// Passes in which some entry refresh kept its stage terms.
    kept_terms: usize,
    /// Journal passes in which some entry refresh rebuilt its stage terms
    /// (a journal pass builds no new entry, so every stage `exp` it spent
    /// beyond the ones it walked or wrote out was a rebuild).
    rebuilt_terms: usize,
    /// Per pass, in order: whether it refreshed through the journal.
    journal_log: Vec<bool>,
}

impl Regimes {
    /// Classifies one pass; `walked` is the number of stage `exp`s it spent
    /// outside entry refreshes (the pairs `distribution_into` wrote out, or
    /// the stages a sample walked).
    fn record(&mut self, before: DecimaCacheStats, after: DecimaCacheStats, walked: u64) {
        assert_eq!(after.passes, before.passes + 1, "one call is one pass");
        if after.full_refactors > before.full_refactors {
            self.full_refactor += 1;
        } else {
            self.changed_only += 1;
        }
        let journal = after.journal_passes - before.journal_passes;
        let reconcile = after.reconciles - before.reconciles;
        assert_eq!(journal + reconcile, 1, "a pass reads the journal or reconciles");
        self.journal += journal as usize;
        self.reconcile += reconcile as usize;
        self.journal_log.push(journal == 1);
        let built = after.stage_exps - before.stage_exps - walked;
        self.kept_terms += usize::from(after.kept_stage_terms > before.kept_stage_terms);
        self.rebuilt_terms += usize::from(journal == 1 && built > 0);
    }

    fn add(&mut self, other: &Regimes) {
        self.full_refactor += other.full_refactor;
        self.changed_only += other.changed_only;
        self.journal += other.journal;
        self.reconcile += other.reconcile;
        self.kept_terms += other.kept_terms;
        self.rebuilt_terms += other.rebuilt_terms;
        self.journal_log.extend_from_slice(&other.journal_log);
    }

    fn assert_all_reached(&self, label: &str) {
        assert!(
            self.full_refactor > 0 && self.changed_only > 0,
            "{label}: every cache regime must be exercised, got {} full refactors and {} \
             changed-only passes",
            self.full_refactor,
            self.changed_only
        );
    }

    /// Both kinds of entry refresh ran: one that kept its stage terms and
    /// one that rebuilt them.
    fn assert_both_refreshes(&self, label: &str) {
        assert!(
            self.kept_terms > 0 && self.rebuilt_terms > 0,
            "{label}: both kinds of refresh must be exercised, got {} passes that kept stage \
             terms and {} that rebuilt them",
            self.kept_terms,
            self.rebuilt_terms
        );
    }

    /// Both refresh paths ran: the journal-driven one and the reconcile.
    fn assert_both_paths(&self, label: &str) {
        assert!(
            self.journal > 0 && self.reconcile > 0,
            "{label}: both refresh paths must be exercised, got {} journal passes and {} \
             reconciles",
            self.journal,
            self.reconcile
        );
    }
}

/// The per-pass oracles for one `DecimaLike`, with the tallies the tests
/// assert on.
#[derive(Clone, Default)]
struct Oracles {
    regimes: Regimes,
    /// Draws within the textbook tolerance of a CDF boundary (none are
    /// expected).
    near_boundary: usize,
}

impl Oracles {
    /// Pins a full distribution pass: bit for bit against the factorised
    /// recomputation, within tolerance of the textbook softmax, and the
    /// argmax's relative importance at exactly 1.
    fn check_distribution(
        &mut self,
        inner: &mut DecimaLike,
        ctx: &SchedulingContext<'_>,
        label: &str,
    ) -> Vec<StageProbability> {
        let before = inner.cache_stats();
        let mut got = Vec::new();
        inner.distribution_into(ctx, &mut got);
        self.regimes.record(before, inner.cache_stats(), got.len() as u64);
        let oracle = Factorised::compute(ctx).distribution();
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
                "{label}: probability of ({}, {}) diverged from the factorised \
                 recomputation at t={}: {} vs {}",
                g.job,
                g.stage,
                ctx.time,
                g.probability,
                o.probability
            );
        }
        self.check_textbook(&got, ctx, label);
        got
    }

    fn check_textbook(&self, got: &[StageProbability], ctx: &SchedulingContext<'_>, label: &str) {
        let textbook = textbook_distribution(ctx);
        assert_eq!(got.len(), textbook.len(), "{label}: pair count at t={}", ctx.time);
        for (g, t) in got.iter().zip(&textbook) {
            assert_eq!((g.job, g.stage), (t.job, t.stage), "{label}: pair order at t={}", ctx.time);
            let error = (g.probability - t.probability).abs();
            assert!(
                error <= TEXTBOOK_TOLERANCE * t.probability,
                "{label}: probability of ({}, {}) is {} vs the textbook {} at t={}",
                g.job,
                g.stage,
                g.probability,
                t.probability,
                ctx.time
            );
        }
        if !got.is_empty() {
            let argmax = (0..got.len()).fold(0, |best, i| {
                if got[i].probability > got[best].probability { i } else { best }
            });
            assert_eq!(
                relative_importance(got, argmax),
                1.0,
                "{label}: the argmax stage's importance must be exactly 1 at t={}",
                ctx.time
            );
        }
    }

    /// Samples through `DecimaLike::sample` and pins the result: bit for
    /// bit against the factorised recomputation's pick with the same draw,
    /// and against `sample_cdf` over the textbook distribution unless the
    /// draw lies within tolerance of that CDF boundary.  `draw` must be
    /// called exactly once when a stage is sampled, and never otherwise.
    fn checked_sample(
        &mut self,
        inner: &mut DecimaLike,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
        label: &str,
    ) -> Option<SampledStage> {
        let before = inner.cache_stats();
        let mut draws = Vec::new();
        let got = inner.sample(ctx, &mut || {
            let r = draw();
            draws.push(r);
            r
        });
        let after = inner.cache_stats();
        let oracle = Factorised::compute(ctx);
        let Some(got) = got else {
            self.regimes.record(before, after, 0);
            assert!(draws.is_empty(), "{label}: drew without sampling at t={}", ctx.time);
            assert!(oracle.jobs.is_empty(), "{label}: sampled nothing from work at t={}", ctx.time);
            return None;
        };
        assert_eq!(draws.len(), 1, "{label}: one draw per sample at t={}", ctx.time);
        let r = draws[0];
        let expected = oracle.sample(r);
        let bits = |s: &SampledStage| {
            (s.job, s.stage, s.probability.to_bits(), s.max_probability.to_bits())
        };
        assert_eq!(
            bits(&got),
            bits(&expected),
            "{label}: sample diverged from the factorised recomputation at t={}",
            ctx.time
        );
        // The sample walked the chosen job's stages up to the chosen one.
        let walked = oracle
            .jobs
            .iter()
            .find(|j| j.id == got.job)
            .and_then(|j| j.stages.iter().position(|&(s, _)| s == got.stage))
            .expect("the sampled pair is in the distribution");
        self.regimes.record(before, after, walked as u64 + 1);
        assert_eq!(
            importance_ratio(got.probability, got.max_probability).to_bits(),
            {
                let dist = oracle.distribution();
                let idx = dist
                    .iter()
                    .position(|e| (e.job, e.stage) == (got.job, got.stage))
                    .expect("the sampled pair is in the distribution");
                relative_importance(&dist, idx).to_bits()
            },
            "{label}: relative importance bits diverged at t={}",
            ctx.time
        );

        let textbook = textbook_distribution(ctx);
        let idx = sample_cdf(textbook.iter().map(|e| e.probability), r)
            .expect("the textbook has work whenever the policy sampled");
        let below: f64 = textbook[..idx].iter().map(|e| e.probability).sum();
        let above = below + textbook[idx].probability;
        let window = TEXTBOOK_TOLERANCE;
        if (r - below).abs() <= window || (r - above).abs() <= window {
            self.near_boundary += 1;
        } else {
            assert_eq!(
                (got.job, got.stage),
                (textbook[idx].job, textbook[idx].stage),
                "{label}: sampled a different pair than the textbook CDF with r={r} at t={}",
                ctx.time
            );
        }
        Some(got)
    }

    fn merge(&mut self, other: &Oracles) {
        self.regimes.add(&other.regimes);
        self.near_boundary += other.near_boundary;
    }

    fn assert_no_near_boundary_draws(&self, label: &str) {
        assert_eq!(
            self.near_boundary, 0,
            "{label}: draws within rounding of a textbook CDF boundary"
        );
    }
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
#[derive(Clone)]
struct CheckingDecima {
    inner: DecimaLike,
    oracles: Oracles,
    route: Route,
    rng: ChaCha8Rng,
    checks: usize,
}

impl CheckingDecima {
    fn new(seed: u64, route: Route) -> Self {
        CheckingDecima {
            inner: DecimaLike::new(seed),
            oracles: Oracles::default(),
            route,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xD4A3),
            checks: 0,
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
                let dist = self.oracles.check_distribution(&mut self.inner, ctx, "standalone");
                for entry in &dist {
                    self.check_limit(ctx, entry.job, entry.stage);
                }
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
            Route::Sample => {
                let rng = &mut self.rng;
                let draw = &mut || rng.gen_range(0.0..1.0);
                let sampled =
                    self.oracles.checked_sample(&mut self.inner, ctx, draw, "standalone-sample");
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
    oracles: Oracles,
    checks: usize,
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
        *out = self.oracles.check_distribution(&mut self.inner, ctx, "pcaps-wrapped");
    }

    fn sample(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage> {
        let got = self.oracles.checked_sample(&mut self.inner, ctx, draw, "pcaps-wrapped");
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

/// A single-cluster TPC-H run: the score table sees jobs appended at the
/// back and removed in place.
fn tpch_single_cluster(seed: u64) -> Simulator {
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
        .jobs(12)
        .mean_interarrival(25.0)
        .build();
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, seed).generate_days(30);
    Simulator::new(ClusterConfig::new(16).with_time_scale(60.0), workload, trace)
}

/// Arrivals and completions on a single cluster, across several seeds,
/// through both routes.
#[test]
fn incremental_scores_match_scratch_on_single_cluster_runs() {
    let label = "single cluster";
    let mut total = Oracles::default();
    for seed in [1u64, 5, 11] {
        let sim = tpch_single_cluster(seed);
        for route in [Route::Distribution, Route::Sample] {
            let mut checker = CheckingDecima::new(seed, route);
            let result = sim.run(&mut checker).expect("run completes");
            assert!(result.all_jobs_complete(), "{label}: seed {seed}, {route:?}");
            assert!(
                checker.checks > 50,
                "{label}: seed {seed}, {route:?}: the oracle must actually run ({} checks)",
                checker.checks
            );
            total.merge(&checker.oracles);
        }
    }
    total.assert_no_near_boundary_draws(label);
    total.regimes.assert_both_paths(label);
    total.regimes.assert_all_reached(label);
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
        .build();
    let sim = Simulator::new(ClusterConfig::new(20).with_time_scale(60.0), workload, trace);
    let mut pcaps = Pcaps::new(
        CheckingProbabilistic {
            inner: DecimaLike::new(1),
            oracles: Oracles::default(),
            checks: 0,
        },
        PcapsConfig::with_gamma(0.9),
    );
    let result = sim.run(&mut pcaps).expect("run completes");
    assert!(result.all_jobs_complete());
    assert!(pcaps.stats().deferred > 0, "the volatile trace must exercise deferrals");
    assert!(pcaps.inner().checks > 50, "the oracle must actually run");
    pcaps.inner().oracles.regimes.assert_all_reached("pcaps");
    pcaps.inner().oracles.regimes.assert_both_paths("pcaps");
    pcaps.inner().oracles.assert_no_near_boundary_draws("pcaps");
}

/// The retry path: PCAPS over executors that crash, their tasks released
/// for retry after a backoff.  A retry release puts its stage back into
/// the dispatchable set, also when the stage has no fresh task left, and
/// only the dispatchable stamp tells a cached entry to rebuild its stage
/// terms; every pass must still match the oracle bit for bit, and
/// refreshes that kept their stage terms and refreshes that rebuilt them
/// must both occur.
#[test]
fn incremental_scores_match_scratch_under_crashes_and_retries() {
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 4).generate_days(30);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 4)
        .jobs(15)
        .build();
    let sim = Simulator::new(ClusterConfig::new(20).with_time_scale(60.0), workload, trace)
        .with_fault_plan(&PoissonCrashes::new(4, 20.0).with_horizon(5_000.0))
        .with_retry_policy(RetryPolicy { max_attempts: 50, ..RetryPolicy::default() });
    let mut pcaps = Pcaps::new(
        CheckingProbabilistic {
            inner: DecimaLike::new(4),
            oracles: Oracles::default(),
            checks: 0,
        },
        PcapsConfig::moderate(),
    );
    let result = sim.run(&mut pcaps).expect("run completes");
    assert!(result.all_jobs_complete());
    assert!(result.retries > 0, "the plan must crash running tasks that retry");
    assert!(pcaps.inner().checks > 50, "the oracle must actually run");
    let regimes = &pcaps.inner().oracles.regimes;
    regimes.assert_both_refreshes("crashes and retries");
    regimes.assert_all_reached("crashes and retries");
    regimes.assert_both_paths("crashes and retries");
    pcaps.inner().oracles.assert_no_near_boundary_draws("crashes and retries");
}

/// A fixed-spacing unbounded source, so the serving run stays sub-critical
/// and compaction genuinely retires jobs off the front of the table.
#[derive(Clone)]
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
        // and recomputes every job factor.  Both refresh paths still run:
        // every arrival and completion forces a reconcile, and the
        // re-invocations between them read the journal.
        assert!(checker.checks > 100, "{route:?}: the oracle must actually run");
        checker.oracles.regimes.assert_both_paths("serve compaction");
        checker.oracles.assert_no_near_boundary_draws("serve compaction");
    }
}

/// A journal cursor is honored only in the context it was taken from.  A
/// `DecimaLike` reused for a second, different run, and serve sessions
/// restored from a snapshot under a fresh policy or under one warmed to
/// that snapshot, must reconcile on their first pass and keep matching
/// the oracles bit for bit throughout; the warmed restore must also
/// continue exactly as the snapshotted session did.
#[test]
fn journal_cursors_are_never_carried_across_runs_or_timelines() {
    // One job on one executor: the last pass is the arrival's, so the
    // cursor it leaves (first generation, nothing journaled yet) is where
    // the next run's first pass stands too.  Only the run stamp tells the
    // two apart, and the two jobs share an id and fresh-job stamps, so an
    // entry carried over would pass for current.
    let lone_job = |stages: usize| {
        let mut builder = JobDagBuilder::new(format!("lone-{stages}"));
        for i in 0..stages {
            builder.add_stage(format!("s{i}"), vec![Task::new(1.0 + i as f64)]);
        }
        let dag = builder.build().expect("independent stages always build");
        let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
        Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, dag)],
            CarbonTrace::constant("flat", 300.0, 1000),
        )
    };
    let mut reused = CheckingDecima::new(7, Route::Sample);
    let runs = [lone_job(1), lone_job(3), tpch_single_cluster(1), tpch_single_cluster(5)];
    for (run, sim) in runs.iter().enumerate() {
        let first = reused.oracles.regimes.journal_log.len();
        let result = sim.run(&mut reused).expect("run completes");
        assert!(result.all_jobs_complete(), "run {run}");
        assert!(
            !reused.oracles.regimes.journal_log[first],
            "run {run}: the first pass of a new run must reconcile"
        );
    }
    reused.oracles.regimes.assert_both_paths("reused instance");
    reused.oracles.assert_no_near_boundary_draws("reused instance");

    let trace = CarbonTrace::constant("flat", 300.0, 26_304);
    let sim = Simulator::streaming(ClusterConfig::new(4).with_time_scale(1.0), trace);
    let trickle = Trickle {
        spacing: 6.0,
        next_arrival: 0.0,
        issued: 0,
        rng: ChaCha8Rng::seed_from_u64(0xC0FFEE),
    };
    let mut router = StaticRouter::new(0);
    let mut run = |session: &mut ServeSession<'_>, policy: &mut CheckingDecima, until: f64| {
        let mut s: [&mut dyn Scheduler; 1] = [policy];
        session.run_until(until, &mut router, &mut s, None).expect("the slice runs");
    };
    let mut source = trickle.clone();
    let mut original = sim.serve(&mut source).unwrap();
    let mut policy = CheckingDecima::new(3, Route::Sample);
    run(&mut original, &mut policy, 600.0);
    let snapshot = original.snapshot();
    let warmed = policy.clone();
    run(&mut original, &mut policy, 1200.0);
    let expected = original.finish();
    policy.oracles.regimes.assert_both_paths("snapshotted session");

    for (label, mut restored_policy) in
        [("fresh policy", CheckingDecima::new(3, Route::Sample)), ("warmed policy", warmed)]
    {
        let mut source = trickle.clone();
        let mut session = sim.serve(&mut source).unwrap();
        session.restore(&snapshot).unwrap();
        let first = restored_policy.oracles.regimes.journal_log.len();
        run(&mut session, &mut restored_policy, 1200.0);
        assert!(
            !restored_policy.oracles.regimes.journal_log[first],
            "{label}: the first pass after a restore must reconcile"
        );
        restored_policy.oracles.regimes.assert_both_paths(label);
        restored_policy.oracles.assert_no_near_boundary_draws(label);
        let got = session.finish();
        if label == "warmed policy" {
            assert_eq!(
                got.members[0].result.jobs, expected.members[0].result.jobs,
                "the warmed restore must continue exactly as the snapshotted session"
            );
        }
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
    let mut total = Oracles::default();
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
                total.merge(&s.oracles);
            }
        }
    }
    assert!(
        total_moves > 0,
        "across all cases some migrations must apply, or detach/reattach is never exercised"
    );
    total.regimes.assert_all_reached("migrations");
    total.regimes.assert_both_paths("migrations");
    total.assert_no_near_boundary_draws("migrations");
}
