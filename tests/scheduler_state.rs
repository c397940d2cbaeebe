//! Incremental scheduler-state conformance: `DecimaLike`'s persistent
//! version-stamped table of factorised softmax terms (per-job factor and
//! stage-factor sum, see `crates/schedulers/src/decima.rs`) is checked at
//! every scheduling event, across every membership churn the engine can
//! produce: plain arrivals and completions, serve-mode compaction
//! (slot-base shifts retiring jobs off the front of the active table), and
//! migration detach/reattach (jobs leaving mid-table and reappearing
//! appended, progress travelling with them).  Three oracles run per pass:
//!
//! * **Cache check, bit-strict.**  A from-scratch factorised recomputation
//!   (every job factor and stage factor recomputed, the only carried state
//!   being the reference score and its rebase rule) must give the same
//!   probability bits, max-probability bits and sampled `(job, stage)`.  A
//!   missed version bump, a factor survived past a normaliser change, a
//!   skipped rebase or a reordered float op fails loudly with the event
//!   time attached.
//! * **Fidelity to the textbook softmax.**  Every probability is within
//!   `1e-12` relative of `softmax` over the raw scores (scaled by the
//!   softmax's conditioning at extreme temperatures), and the argmax
//!   stage's relative importance is exactly 1.
//! * **Sampling.**  The sampled pair equals `sample_cdf` over the textbook
//!   distribution, except when the draw lies within that tolerance of the
//!   CDF boundary; such draws are counted, and none are expected.
//!
//! The fair-share parallelism limit is pinned against a full rescan, and
//! every run tallies which cache regime (full refactor, changed jobs only)
//! each pass took, so a test cannot pass without reaching both.
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

/// The pair scores of the textbook definition, in pair order (jobs in
/// `ctx.jobs()` order, each job's dispatchable stages in order).
fn textbook_scores(ctx: &SchedulingContext<'_>, w: DecimaWeights) -> Vec<(JobId, StageId, f64)> {
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
            let score = w.short_job * short_job_feature
                + w.bottleneck * bottleneck[stage.index()]
                + w.completion * completion_feature;
            scored.push((job.id, stage, score));
        }
    }
    scored
}

/// Oracle: the textbook distribution, `softmax` over the raw scores.
fn textbook_distribution(ctx: &SchedulingContext<'_>, w: DecimaWeights) -> Vec<StageProbability> {
    let scored = textbook_scores(ctx, w);
    let probs = softmax(&scored.iter().map(|s| s.2).collect::<Vec<_>>(), w.temperature);
    scored
        .iter()
        .zip(probs)
        .map(|(&(job, stage, _), probability)| StageProbability { job, stage, probability })
        .collect()
}

/// Relative tolerance of the textbook comparison.  Scores carry a few ulps
/// of rounding, which the softmax amplifies by `|score| / T`; at the scale
/// of the default weights (`|score| ≤ 4`, `T = 1`) the bound is `1e-12`.
fn textbook_tolerance(w: DecimaWeights) -> f64 {
    let span = w.short_job.abs() + w.bottleneck.abs() + w.completion.abs();
    1e-12 * f64::max(1.0, span / (4.0 * w.temperature))
}

/// Probabilities below this may be subnormal or 0 in either computation
/// (the factorised weights sit up to `2⁶⁴` off the textbook's scale), so
/// they are compared absolutely.
const ABSOLUTE_FLOOR: f64 = 1e-280;

/// One job of the factorised recomputation.
struct OracleJob {
    id: JobId,
    score: f64,
    factor: f64,
    stages: Vec<(StageId, f64)>,
    stage_sum: f64,
}

/// Oracle: the factorised distribution recomputed from scratch.  The only
/// state carried between passes (by [`Oracles`]) is the reference score,
/// under the rule the module docs of `decima.rs` state: it starts at 0 and
/// is rebased to the largest job score whenever the largest job factor
/// leaves `[2⁻⁶⁴, 2⁶⁴]`.
struct Factorised {
    jobs: Vec<OracleJob>,
    sum: f64,
    max_factor: f64,
}

impl Factorised {
    fn compute(
        ctx: &SchedulingContext<'_>,
        w: DecimaWeights,
        reference: &mut f64,
        rebases: &mut usize,
    ) -> Self {
        let normaliser = ctx
            .jobs()
            .map(|j| j.remaining_work())
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        let mut jobs = Vec::new();
        for job in ctx.jobs() {
            let dispatchable = job.dispatchable_stages();
            if dispatchable.is_empty() {
                continue;
            }
            let bottleneck = job.dag.bottleneck_scores();
            let best = dispatchable
                .iter()
                .map(|s| w.bottleneck * bottleneck[s.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            let stages: Vec<(StageId, f64)> = dispatchable
                .iter()
                .map(|&s| {
                    let e = ((w.bottleneck * bottleneck[s.index()] - best) / w.temperature).exp();
                    (s, e)
                })
                .collect();
            let completion =
                job.progress.frontier().num_completed() as f64 / job.dag.num_stages() as f64;
            let score = w.short_job * (1.0 - job.remaining_work() / normaliser)
                + w.completion * completion
                + best;
            jobs.push(OracleJob {
                id: job.id,
                score,
                factor: f64::NAN,
                stage_sum: stages.iter().map(|s| s.1).sum(),
                stages,
            });
        }
        let mut oracle = Factorised { jobs, sum: 0.0, max_factor: 0.0 };
        oracle.fold(w, *reference);
        let bounds = 2f64.powi(-64)..=2f64.powi(64);
        if !oracle.jobs.is_empty() && !bounds.contains(&oracle.max_factor) {
            *reference = oracle.jobs.iter().map(|j| j.score).fold(f64::NEG_INFINITY, f64::max);
            *rebases += 1;
            oracle.fold(w, *reference);
        }
        oracle
    }

    fn fold(&mut self, w: DecimaWeights, reference: f64) {
        self.sum = 0.0;
        self.max_factor = 0.0;
        for job in &mut self.jobs {
            job.factor = ((job.score - reference) / w.temperature).exp();
            self.sum += job.factor * job.stage_sum;
            self.max_factor = self.max_factor.max(job.factor);
        }
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

/// How many passes took each cache regime, classified from the
/// `cache_stats` delta around a single pass.
#[derive(Debug, Default)]
struct Regimes {
    full_refactor: usize,
    changed_only: usize,
}

impl Regimes {
    fn record(&mut self, before: DecimaCacheStats, after: DecimaCacheStats) {
        assert_eq!(after.passes, before.passes + 1, "one call is one pass");
        if after.full_refactors > before.full_refactors {
            self.full_refactor += 1;
        } else {
            self.changed_only += 1;
        }
    }

    fn add(&mut self, other: &Regimes) {
        self.full_refactor += other.full_refactor;
        self.changed_only += other.changed_only;
    }

    fn assert_all_reached(&self, label: &str) {
        assert!(
            self.full_refactor > 0 && self.changed_only > 0,
            "{label}: every cache regime must be exercised, got {self:?}"
        );
    }
}

/// The per-pass oracles for one `DecimaLike`, with the reference score the
/// factorised recomputation carries and the tallies the tests assert on.
struct Oracles {
    weights: DecimaWeights,
    reference: f64,
    rebases: usize,
    regimes: Regimes,
    /// Draws within the textbook tolerance of a CDF boundary (none are
    /// expected).
    near_boundary: usize,
}

impl Oracles {
    fn new(weights: DecimaWeights) -> Self {
        Oracles {
            weights,
            reference: 0.0,
            rebases: 0,
            regimes: Regimes::default(),
            near_boundary: 0,
        }
    }

    fn factorised(&mut self, ctx: &SchedulingContext<'_>) -> Factorised {
        Factorised::compute(ctx, self.weights, &mut self.reference, &mut self.rebases)
    }

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
        self.regimes.record(before, inner.cache_stats());
        let oracle = self.factorised(ctx).distribution();
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
        let textbook = textbook_distribution(ctx, self.weights);
        let tolerance = textbook_tolerance(self.weights);
        assert_eq!(got.len(), textbook.len(), "{label}: pair count at t={}", ctx.time);
        for (g, t) in got.iter().zip(&textbook) {
            assert_eq!((g.job, g.stage), (t.job, t.stage), "{label}: pair order at t={}", ctx.time);
            let error = (g.probability - t.probability).abs();
            assert!(
                error <= tolerance * t.probability + ABSOLUTE_FLOOR,
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
        self.regimes.record(before, inner.cache_stats());
        let oracle = self.factorised(ctx);
        let Some(got) = got else {
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

        let textbook = textbook_distribution(ctx, self.weights);
        let idx = sample_cdf(textbook.iter().map(|e| e.probability), r)
            .expect("the textbook has work whenever the policy sampled");
        let below: f64 = textbook[..idx].iter().map(|e| e.probability).sum();
        let above = below + textbook[idx].probability;
        let window = textbook_tolerance(self.weights);
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
        self.rebases += other.rebases;
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
struct CheckingDecima {
    inner: DecimaLike,
    oracles: Oracles,
    route: Route,
    rng: ChaCha8Rng,
    checks: usize,
}

impl CheckingDecima {
    fn new(seed: u64, route: Route) -> Self {
        CheckingDecima::with_weights(seed, route, DecimaWeights::default())
    }

    fn with_weights(seed: u64, route: Route, weights: DecimaWeights) -> Self {
        CheckingDecima {
            inner: DecimaLike::with_weights(seed, weights),
            oracles: Oracles::new(weights),
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

/// Runs the standalone checking scheduler through both routes on several
/// seeds and returns the merged tallies.
fn check_single_cluster_runs(weights: DecimaWeights, label: &str) -> Oracles {
    let mut total = Oracles::new(weights);
    for seed in [1u64, 5, 11] {
        let sim = tpch_single_cluster(seed);
        for route in [Route::Distribution, Route::Sample] {
            let mut checker = CheckingDecima::with_weights(seed, route, weights);
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
    total
}

/// Arrivals and completions on a single cluster at the default weights,
/// across several seeds, through both routes.
#[test]
fn incremental_scores_match_scratch_on_single_cluster_runs() {
    let total = check_single_cluster_runs(DecimaWeights::default(), "single cluster");
    total.regimes.assert_all_reached("single cluster");
    assert_eq!(total.rebases, 0, "scores in [0, 4] at T = 1 never rebase the reference");
}

/// A near-greedy temperature: most textbook probabilities are exactly 0 and
/// the reference score must follow the best job as it moves, so the rebase
/// path runs again and again.
#[test]
fn factorised_softmax_matches_the_textbook_at_low_temperature() {
    let weights = DecimaWeights { temperature: 1e-3, ..DecimaWeights::default() };
    let total = check_single_cluster_runs(weights, "T = 1e-3");
    total.regimes.assert_all_reached("T = 1e-3");
    assert!(total.rebases > 10, "T = 1e-3 must rebase the reference, got {}", total.rebases);
}

/// A near-uniform temperature: every factor sits within rounding of 1.
#[test]
fn factorised_softmax_matches_the_textbook_at_high_temperature() {
    let weights = DecimaWeights { temperature: 1e3, ..DecimaWeights::default() };
    let total = check_single_cluster_runs(weights, "T = 1e3");
    total.regimes.assert_all_reached("T = 1e3");
}

/// Negative feature weights (favour long jobs and off-critical-path
/// stages): scores go negative, so the reference starts above them.
#[test]
fn factorised_softmax_matches_the_textbook_with_negative_weights() {
    let weights = DecimaWeights {
        short_job: -2.0,
        bottleneck: -1.5,
        ..DecimaWeights::default()
    };
    let total = check_single_cluster_runs(weights, "negative weights");
    total.regimes.assert_all_reached("negative weights");
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
            oracles: Oracles::new(DecimaWeights::default()),
            checks: 0,
        },
        PcapsConfig::with_gamma(0.9),
    );
    let result = sim.run(&mut pcaps).expect("run completes");
    assert!(result.all_jobs_complete());
    assert!(pcaps.stats().deferred > 0, "the volatile trace must exercise deferrals");
    assert!(pcaps.inner().checks > 50, "the oracle must actually run");
    pcaps.inner().oracles.regimes.assert_all_reached("pcaps");
    pcaps.inner().oracles.assert_no_near_boundary_draws("pcaps");
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
        // and recomputes every job factor.
        assert!(checker.checks > 100, "{route:?}: the oracle must actually run");
        checker.oracles.assert_no_near_boundary_draws("serve compaction");
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
    let mut total = Oracles::new(DecimaWeights::default());
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
    total.assert_no_near_boundary_draws("migrations");
}
