//! A Decima-like probabilistic scheduler.
//!
//! The paper's ML baseline is Decima [48], a GNN + reinforcement-learning
//! scheduler trained for 20 000 epochs.  Training a GNN is outside the scope
//! of this reproduction, but PCAPS does not need the GNN — it needs the
//! *interface* Decima exposes (a probability distribution over runnable
//! stages, Definition 4.1) and the *qualitative behaviour* Decima learns:
//!
//! * favour stages of jobs with little remaining work (shortest-remaining-
//!   processing-time-like behaviour, which is what drives Decima's JCT
//!   gains),
//! * favour stages on a job's critical path (bottleneck stages),
//! * bound each job's parallelism to roughly its fair share instead of
//!   flooding the cluster.
//!
//! `DecimaLike` computes those features directly from the DAG and turns them
//! into scores and a softmax distribution, which it both samples from (when
//! used as a standalone [`Scheduler`]) and exposes via
//! [`ProbabilisticScheduler`] (when wrapped by PCAPS).  The substitution is
//! sound for PCAPS's purposes because PCAPS only reads the distribution's
//! *shape* — relative importance `p / max p` and a sample — never how the
//! scores were learned, so a policy with the same preferences (short jobs
//! first, critical path first) exercises the same carbon filter.
//!
//! # Incremental passes
//!
//! Every pass (one per `on_event`, `sample` or `distribution_into` call)
//! must produce the bits a from-scratch computation would: max-remaining
//! normaliser, one score per dispatchable `(job, stage)` pair, then the
//! softmax `exp((s − max s) / T) / Σ`.  Most of that is reused between
//! passes, keyed on three things:
//!
//! * **Job version.**  Each job owns a block of per-pair records
//!   (`(job, stage)`, `w_b · bottleneck[stage]`, score, weight), cached
//!   under its [`JobProgress::version`].  Equal id and version mean an
//!   equal dispatchable set and remaining work, so only changed jobs
//!   rebuild their blocks.
//! * **Normaliser bits.**  Every score depends on the pass's max-remaining
//!   normaliser, so when its bits change every pair is rescored; otherwise
//!   only the rebuilt blocks are.
//! * **Max-score bits.**  Every weight depends on the max score, so when the
//!   normaliser's or the max score's bits change every pair is
//!   re-exponentiated; otherwise only the rebuilt blocks are.
//!
//! The max-score fold and the normalising sum still run over every pair each
//! pass — the same sequential folds in the same order — so cached and fresh
//! values are indistinguishable and schedules are bit-identical to a
//! from-scratch pass.  [`DecimaLike::cache_stats`] counts which regime each
//! pass took.  The reuse pays off when many jobs are resident, since the
//! normaliser and the max score then rarely move.  With a handful of jobs
//! nearly every pass re-weights everything (603 of 645 passes in the
//! `decima` reference trial), and a pass costs about what a from-scratch
//! one does.
//!
//! Sampling never materialises the distribution: it walks the CDF of
//! `weight / Σ` lazily (the divisions the softmax would make, in its order)
//! and reports `max p = 1 / Σ`.  That is exact: the argmax pair's weight is
//! `exp(0 / T) = 1` and every other weight is `exp(≤ 0) ≤ 1`, and correctly
//! rounded division by the same positive `Σ` preserves order, so the
//! largest `w / Σ` is `1 / Σ` bit for bit.
//!
//! [`JobProgress::version`]: pcaps_dag::JobProgress::version

use crate::probabilistic::{
    sample_cdf, ProbabilisticScheduler, SampledStage, StageProbability,
};
use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};
use pcaps_dag::{JobId, StageId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Feature weights for the Decima-like scoring function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecimaWeights {
    /// Weight of the shortest-remaining-work feature.
    pub short_job: f64,
    /// Weight of the critical-path (bottleneck) feature.
    pub bottleneck: f64,
    /// Weight of the stage-progress feature (stages of jobs that are almost
    /// done get a boost, freeing their executors sooner).
    pub completion: f64,
    /// Softmax temperature: lower values make the policy more deterministic.
    pub temperature: f64,
}

impl Default for DecimaWeights {
    fn default() -> Self {
        DecimaWeights {
            short_job: 2.0,
            bottleneck: 1.5,
            completion: 0.5,
            temperature: 1.0,
        }
    }
}

/// Counters of [`DecimaLike`]'s incremental passes (see the module docs):
/// plain integers, bumped once per pass or per regime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecimaCacheStats {
    /// Distribution passes (one per `on_event`, `sample` or
    /// `distribution_into` call).
    pub passes: u64,
    /// Passes whose max-remaining normaliser changed bits, so every pair
    /// was rescored (the first pass counts).
    pub full_rescores: u64,
    /// Passes that re-exponentiated every pair: every full rescore, plus the
    /// passes whose max score changed bits.  The remaining
    /// `passes − full_reweights` passes re-weighted changed jobs only.
    pub full_reweights: u64,
    /// `exp` evaluations over all passes.
    pub pairs_reweighted: u64,
}

/// One job's cached block, revalidated per pass by its
/// [`JobProgress::version`] stamp: equal id + equal version means the job's
/// observable progress — remaining work, completed stages, dispatchable
/// set — has not changed since the block was built.
///
/// [`JobProgress::version`]: pcaps_dag::JobProgress::version
#[derive(Debug, Clone, Copy)]
struct JobEntry {
    id: JobId,
    version: u64,
    /// Undispatched work (executor-seconds) — `JobView::remaining_work()`.
    remaining: f64,
    /// `w_c · completed stages / total stages`.
    completion_term: f64,
    /// The job's dispatchable pairs are `start..end` in the pair records
    /// (empty for a job with no dispatchable stage).
    start: usize,
    end: usize,
}

impl JobEntry {
    fn pairs(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// One dispatchable `(job, stage)` pair's cached values.  Pairs are kept in
/// pair order: jobs in `ctx.jobs()` order, each job's dispatchable stages
/// ascending.  One record per pair, so moving a run of surviving blocks is
/// a single copy.
#[derive(Debug, Clone, Copy)]
struct Pair {
    job: JobId,
    stage: StageId,
    /// `w_b · bottleneck[stage]`, fixed for the pair's lifetime.
    bottleneck: f64,
    /// Raw score `w_s · short-job feature + w_b · bottleneck + w_c · completion`.
    score: f64,
    /// Softmax weight `exp((score − max score) / T)`.
    weight: f64,
}

/// The Decima-like scheduler.
///
/// Holds a persistent per-job table and per-pair score/weight records (see
/// the module docs), so a steady-state pass costs O(active jobs) pointer
/// work, O(pairs) copying and folding, and feature plus `exp` work for
/// changed jobs only; it performs no heap allocation.  Correctness never
/// depends on the lossy-advisory `SchedEvent` stream: the table is
/// reconciled against the authoritative `ctx.jobs()` iteration (arrival
/// order) on every pass, which absorbs arrivals, completions, serve-mode
/// compaction's front retirement and slot-base shifts, and migration
/// detach/reattach uniformly.
#[derive(Debug, Clone)]
pub struct DecimaLike {
    weights: DecimaWeights,
    rng: ChaCha8Rng,
    /// Cached per-job blocks, aligned with the previous pass's `ctx.jobs()`
    /// order.
    table: Vec<JobEntry>,
    /// Scratch for the table rebuild (swapped with `table` each pass).
    scratch: Vec<JobEntry>,
    /// The previous pass's pairs, scores and weights.
    pairs: Vec<Pair>,
    /// Scratch for the pair rebuild (swapped with `pairs` each pass).
    pair_scratch: Vec<Pair>,
    /// Table indices of the blocks rebuilt this pass, whose scores and
    /// weights are still to be computed.
    rebuilt: Vec<usize>,
    /// Bits of the previous pass's normaliser and max score (`None` before
    /// the first pass).
    normaliser_bits: Option<u64>,
    max_score_bits: Option<u64>,
    /// The previous pass's normalising sum `Σ weight`.
    sum: f64,
    /// Jobs with non-empty dispatchable sets, counted during the table
    /// pass so the follow-up `parallelism_limit` call (same event, same
    /// context — see the trait contract) does not rescan.  `None` until
    /// the first distribution pass.
    jobs_with_work: Option<usize>,
    stats: DecimaCacheStats,
}

impl DecimaLike {
    /// Creates the scheduler with default weights and the given sampling
    /// seed.
    pub fn new(seed: u64) -> Self {
        DecimaLike::with_weights(seed, DecimaWeights::default())
    }

    /// Creates the scheduler with custom feature weights.
    pub fn with_weights(seed: u64, weights: DecimaWeights) -> Self {
        assert!(weights.temperature > 0.0, "softmax temperature must be positive");
        DecimaLike {
            weights,
            rng: ChaCha8Rng::seed_from_u64(seed),
            table: Vec::new(),
            scratch: Vec::new(),
            pairs: Vec::new(),
            pair_scratch: Vec::new(),
            rebuilt: Vec::new(),
            normaliser_bits: None,
            max_score_bits: None,
            sum: 0.0,
            jobs_with_work: None,
            stats: DecimaCacheStats::default(),
        }
    }

    /// Counters of the incremental passes so far.
    pub fn cache_stats(&self) -> DecimaCacheStats {
        self.stats
    }

    /// Reconciles the job table and the pair records with the current
    /// context and returns the pass's max-remaining normaliser.
    ///
    /// Both the cached table and `ctx.jobs()` list jobs in arrival order,
    /// and every membership change preserves the relative order of
    /// survivors (completions and migration departures remove in place,
    /// compaction retires off the front, arrivals and migrant reattachments
    /// append) — so one ordered sweep relocates every surviving block.  A
    /// cached id missing from the context (O(1) slot probe) was removed; a
    /// context id missing from the cache (or present with a different
    /// [`JobProgress::version`]) rebuilds its block and is listed in
    /// `rebuilt`, with scores and weights left for [`DecimaLike::compute`].
    /// Surviving blocks are copied into the new pair records in contiguous
    /// runs.  A rebuilt block is produced by the identical calls a
    /// from-scratch pass would make, so cache hits and misses are
    /// bit-indistinguishable.
    ///
    /// The max-remaining fold and the jobs-with-work count ride along in
    /// the same sweep (the fold is `f64::max` over the same values in the
    /// same order as a from-scratch scan, hence bit-identical).
    ///
    /// [`JobProgress::version`]: pcaps_dag::JobProgress::version
    fn refresh(&mut self, ctx: &SchedulingContext<'_>) -> f64 {
        let DecimaLike { weights, table, scratch, pairs, pair_scratch, rebuilt, .. } = self;
        scratch.clear();
        pair_scratch.clear();
        rebuilt.clear();
        let mut max_remaining = 0.0_f64;
        let mut jobs_with_work = 0usize;
        let mut cursor = 0usize;
        // Surviving blocks not yet copied: a contiguous range of `pairs`.
        let mut run = 0..0;
        let mut next = 0usize;
        for job in ctx.jobs() {
            let version = job.progress.version();
            let mut cached = None;
            while cursor < table.len() {
                let entry = table[cursor];
                if entry.id == job.id {
                    cursor += 1;
                    if entry.version == version {
                        cached = Some(entry);
                    }
                    break;
                }
                // Order mismatch: either the cached job left this member
                // (skip its block) or `job` was inserted ahead of it (a
                // reattached migrant — stop and recompute).  The slot
                // table answers membership in O(1).
                if ctx.job(entry.id).is_some() {
                    break;
                }
                cursor += 1;
            }
            let entry = match cached {
                Some(entry) => {
                    if run.end != entry.start {
                        pair_scratch.extend_from_slice(&pairs[run]);
                        run = entry.start..entry.start;
                    }
                    run.end = entry.end;
                    JobEntry { start: next, end: next + entry.pairs().len(), ..entry }
                }
                None => {
                    pair_scratch.extend_from_slice(&pairs[run]);
                    run = 0..0;
                    let dispatchable = job.dispatchable_stages();
                    if !dispatchable.is_empty() {
                        // Per-stage features from the DAG structure — cached
                        // on the (shared) DAG, so the graph analysis runs
                        // once per job instead of once per pass.
                        let bottleneck = job.dag.bottleneck_scores();
                        pair_scratch.extend(dispatchable.iter().map(|&stage| Pair {
                            job: job.id,
                            stage,
                            bottleneck: weights.bottleneck * bottleneck[stage.index()],
                            score: f64::NAN,
                            weight: f64::NAN,
                        }));
                        rebuilt.push(scratch.len());
                    }
                    let end = next + dispatchable.len();
                    let completion = job.progress.frontier().num_completed() as f64
                        / job.dag.num_stages() as f64;
                    JobEntry {
                        id: job.id,
                        version,
                        remaining: job.remaining_work(),
                        completion_term: weights.completion * completion,
                        start: next,
                        end,
                    }
                }
            };
            next = entry.end;
            if !entry.pairs().is_empty() {
                jobs_with_work += 1;
            }
            max_remaining = f64::max(max_remaining, entry.remaining);
            scratch.push(entry);
        }
        pair_scratch.extend_from_slice(&pairs[run]);
        std::mem::swap(table, scratch);
        std::mem::swap(pairs, pair_scratch);
        self.jobs_with_work = Some(jobs_with_work);
        max_remaining.max(1e-9)
    }

    /// One distribution pass: reconcile the table, then rescore and
    /// re-weight as much as the cache keys require (see the module docs),
    /// and re-sum the weights.  Every value is produced by the float
    /// operations, in the order, of a from-scratch pass.
    fn compute(&mut self, ctx: &SchedulingContext<'_>) {
        let normaliser = self.refresh(ctx);
        self.stats.passes += 1;
        let DecimaLike { weights, table, pairs, rebuilt, stats, .. } = self;
        let score = |entry: &JobEntry, pairs: &mut [Pair]| {
            // Feature 1: jobs with little remaining work score high.
            let short_job = weights.short_job * (1.0 - (entry.remaining / normaliser));
            for p in &mut pairs[entry.pairs()] {
                p.score = short_job + p.bottleneck + entry.completion_term;
            }
        };
        let rescore_all = self.normaliser_bits != Some(normaliser.to_bits());
        self.normaliser_bits = Some(normaliser.to_bits());
        if rescore_all {
            stats.full_rescores += 1;
            for entry in table.iter() {
                score(entry, pairs);
            }
        } else {
            for &i in rebuilt.iter() {
                score(&table[i], pairs);
            }
        }

        let max_score = pairs.iter().map(|p| p.score).fold(f64::NEG_INFINITY, f64::max);
        let reweight_all = rescore_all || self.max_score_bits != Some(max_score.to_bits());
        self.max_score_bits = Some(max_score.to_bits());
        let temperature = weights.temperature;
        let len = pairs.len();
        let mut reweight = |range: Range<usize>| {
            stats.pairs_reweighted += range.len() as u64;
            for p in &mut pairs[range] {
                p.weight = ((p.score - max_score) / temperature).exp();
            }
        };
        if reweight_all {
            stats.full_reweights += 1;
            reweight(0..len);
        } else {
            for &i in rebuilt.iter() {
                reweight(table[i].pairs());
            }
        }
        self.sum = self.pairs.iter().map(|p| p.weight).sum();
    }

    /// The pair the CDF of the latest pass's distribution reaches at `r`:
    /// a lazy walk over `weight / Σ` (see the module docs for why
    /// `max_probability = 1 / Σ` is exact).  Only called after a pass that
    /// found at least one pair.
    fn pick(&self, r: f64) -> SampledStage {
        let sum = self.sum;
        let idx = sample_cdf(self.pairs.iter().map(|p| p.weight / sum), r)
            .expect("callers check the pass found pairs");
        let Pair { job, stage, weight, .. } = self.pairs[idx];
        SampledStage {
            job,
            stage,
            probability: weight / sum,
            max_probability: 1.0 / sum,
        }
    }

    /// Decima-style parallelism limit: the job's fair share of the cluster
    /// (executors divided by active jobs with work), but never more than the
    /// stage's pending tasks and never less than one.  Answers the
    /// jobs-with-work count from the distribution pass of the same event
    /// (the trait contract); the from-scratch scan only runs if no
    /// distribution has ever been computed.
    fn limit_for(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        let jobs_with_work = self
            .jobs_with_work
            .unwrap_or_else(|| {
                ctx.jobs()
                    .filter(|j| !j.dispatchable_stages().is_empty())
                    .count()
            })
            .max(1);
        let fair_share = ctx.total_executors.div_ceil(jobs_with_work);
        let pending = ctx
            .job(job)
            .map(|j| j.progress.pending_tasks(stage))
            .unwrap_or(0);
        fair_share.min(pending).max(1)
    }
}

impl ProbabilisticScheduler for DecimaLike {
    fn name(&self) -> &str {
        "decima"
    }

    fn distribution_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<StageProbability>) {
        self.compute(ctx);
        let sum = self.sum;
        out.clear();
        out.extend(self.pairs.iter().map(|p| StageProbability {
            job: p.job,
            stage: p.stage,
            probability: p.weight / sum,
        }));
    }

    fn sample(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage> {
        self.compute(ctx);
        if self.pairs.is_empty() {
            return None;
        }
        Some(self.pick(draw()))
    }

    fn parallelism_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize {
        self.limit_for(ctx, job, stage)
    }
}

impl Scheduler for DecimaLike {
    fn name(&self) -> &str {
        "decima"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        self.compute(ctx);
        if self.pairs.is_empty() {
            return;
        }
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let chosen = self.pick(r);
        let limit = self.limit_for(ctx, chosen.job, chosen.stage);
        out.dispatch(chosen.job, chosen.stage, limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::SparkStandaloneFifo;
    use crate::probabilistic::is_valid_distribution;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_dag::{JobDagBuilder, Task};
    use pcaps_workloads::{WorkloadBuilder, WorkloadKind};

    fn tpch_sim(seed: u64, jobs: usize, executors: usize, interarrival: f64) -> Simulator {
        let workload = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(jobs)
            .mean_interarrival(interarrival)
            .build()
            .into_iter()
            .map(|j| SubmittedJob::at(j.arrival, j.dag))
            .collect();
        let config = ClusterConfig::new(executors).with_time_scale(60.0);
        Simulator::new(config, workload, CarbonTrace::constant("flat", 300.0, 26_304))
    }

    #[test]
    fn produces_valid_distribution() {
        // Build a context through the simulator by wrapping a probe
        // scheduler that checks the distribution at every event.
        struct Probe {
            inner: DecimaLike,
            checked: usize,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                let dist = self.inner.distribution(ctx);
                assert!(is_valid_distribution(&dist), "invalid distribution: {dist:?}");
                self.checked += 1;
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
        }
        let mut probe = Probe { inner: DecimaLike::new(1), checked: 0 };
        let result = tpch_sim(3, 10, 20, 30.0).run(&mut probe).unwrap();
        assert!(result.all_jobs_complete());
        assert!(probe.checked > 10);
    }

    #[test]
    fn improves_average_jct_over_standalone_fifo() {
        // One huge job followed by a stream of small jobs on a small cluster:
        // FIFO lets the huge job monopolise the executors, so the small jobs
        // queue behind it; the Decima-like policy favours the jobs with
        // little remaining work and cuts the average JCT substantially.
        let huge = JobDagBuilder::new("huge")
            .stage("wide", vec![Task::new(50.0); 64])
            .build()
            .unwrap();
        let small = |i: usize| {
            JobDagBuilder::new(format!("small{i}"))
                .stage("s", vec![Task::new(5.0); 2])
                .build()
                .unwrap()
        };
        let mut workload = vec![SubmittedJob::at(0.0, huge)];
        for i in 0..10 {
            workload.push(SubmittedJob::at(1.0 + i as f64, small(i)));
        }
        let make_sim = || {
            let config = ClusterConfig::new(8).with_move_delay(0.1).with_time_scale(1.0);
            Simulator::new(
                config,
                workload.clone(),
                CarbonTrace::constant("flat", 300.0, 26_304),
            )
        };
        let decima = make_sim().run(&mut DecimaLike::new(0)).unwrap();
        let fifo = make_sim().run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(decima.all_jobs_complete());
        assert!(
            decima.average_jct() < fifo.average_jct(),
            "Decima-like JCT {:.1} should beat FIFO {:.1}",
            decima.average_jct(),
            fifo.average_jct()
        );
    }

    #[test]
    fn bottleneck_stages_get_more_mass() {
        // A job where stage 1 is a heavy critical-path stage and stage 2 is
        // a tiny side stage: once both are runnable, the distribution should
        // put more mass on the bottleneck.
        let job = JobDagBuilder::new("j")
            .stage("root", vec![Task::new(1.0)])
            .stage("bottleneck", vec![Task::new(100.0); 4])
            .stage("side", vec![Task::new(1.0)])
            .stage("sink", vec![Task::new(50.0)])
            .edge_by_name("root", "bottleneck")
            .unwrap()
            .edge_by_name("root", "side")
            .unwrap()
            .edge_by_name("bottleneck", "sink")
            .unwrap()
            .edge_by_name("side", "sink")
            .unwrap()
            .build()
            .unwrap();

        struct Capture {
            inner: DecimaLike,
            snapshot: Option<Vec<StageProbability>>,
        }
        impl Scheduler for Capture {
            fn name(&self) -> &str {
                "capture"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                let dist = self.inner.distribution(ctx);
                if dist.len() == 2 && self.snapshot.is_none() {
                    self.snapshot = Some(dist.clone());
                }
                Scheduler::on_event(&mut self.inner, event, ctx, out)
            }
        }
        let mut cap = Capture { inner: DecimaLike::new(5), snapshot: None };
        let config = ClusterConfig::new(4).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, job)],
            CarbonTrace::constant("flat", 300.0, 1000),
        );
        sim.run(&mut cap).unwrap();
        let dist = cap.snapshot.expect("both stages were runnable at some point");
        let p = |stage: u32| {
            dist.iter()
                .find(|d| d.stage == StageId(stage))
                .map(|d| d.probability)
                .unwrap_or(0.0)
        };
        assert!(
            p(1) > p(2),
            "bottleneck stage should get more probability mass ({} vs {})",
            p(1),
            p(2)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tpch_sim(2, 10, 16, 30.0).run(&mut DecimaLike::new(11)).unwrap();
        let b = tpch_sim(2, 10, 16, 30.0).run(&mut DecimaLike::new(11)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.average_jct(), b.average_jct());
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn rejects_bad_temperature() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { temperature: 0.0, ..DecimaWeights::default() },
        );
    }
}
