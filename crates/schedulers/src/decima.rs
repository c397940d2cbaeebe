//! A Decima-like probabilistic scheduler.
//!
//! The paper's ML baseline is Decima \[48\], a GNN + reinforcement-learning
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
//! # Factorised softmax
//!
//! A dispatchable stage `i` of job `j` scores
//! `s = w_s·(1 − R_j/N) + w_c·C_j + w_b·b_i`: a job term (remaining work
//! `R_j` over the max-remaining normaliser `N`, completed-stage fraction
//! `C_j`) plus a stage term (the stage's bottleneck score `b_i`).  Its
//! softmax weight `exp((s − ref) / T)` therefore splits exactly into
//!
//! ```text
//! job factor    J_j = exp((w_s·(1 − R_j/N) + w_c·C_j + bmax_j − ref) / T)
//! stage factor  e_i = exp((w_b·b_i − bmax_j) / T)
//! ```
//!
//! where `bmax_j` is the largest `w_b·b_i` among the job's dispatchable
//! stages, so `e_i ≤ 1`, and exactly 1 for the job's best stage.  With
//! `E_j = Σ e_i` over the job's stages, `p_i = J_j·e_i / Σ` where
//! `Σ = Σ_j J_j·E_j`.
//!
//! Every pass (one per `on_event`, `sample` or `distribution_into` call)
//! reuses what its inputs allow:
//!
//! * **Job version.**  Each job's entry (`R_j`, `w_c·C_j`, `bmax_j`, `E_j`
//!   and `J_j`) is cached under its [`JobProgress::version`].  Equal id and
//!   version mean an equal dispatchable set and remaining work, so only
//!   changed jobs rebuild, at O(stages) `exp`s each.  Nothing is stored per
//!   stage: sampling recomputes the chosen job's few `e_i` with the same
//!   operations that summed them into `E_j`.
//! * **Normaliser bits.**  Every job factor depends on `N`, so when its
//!   bits change every `J_j` is recomputed; otherwise only rebuilt jobs'
//!   are.
//! * **Reference score.**  `ref` starts at 0 and is rebased only when the
//!   largest job factor leaves `[2⁻⁶⁴, 2⁶⁴]`.  It then becomes the largest
//!   job score, so the largest factor is exactly 1, and every factor is
//!   recomputed.  No factor overflows and `Σ` never underflows to 0, for
//!   any `T > 0`.  Scores lie within `±(|w_s| + |w_b| + |w_c|)`, so at the
//!   default weights (`T = 1`, scores in `[0, 4]`) `ref` never moves.
//!
//! The folds of `Σ` and `max_j J_j` run over jobs, not stages, so a pass
//! costs O(resident jobs) plus O(stages) per changed job.  Sampling picks
//! the first job whose cumulative `J_j·E_j` reaches `r·Σ`, then that job's
//! first stage whose cumulative `e_i` reaches the remainder `÷ J_j`, and
//! reports `max p = max_j J_j / Σ`.  That is exact: the best stage's weight
//! is `J_j·1`, every other is `J_j·e_i ≤ J_j`, and correctly rounded
//! division by the same `Σ` preserves order, so the argmax stage's relative
//! importance `p / max p` is exactly 1.
//!
//! The textbook softmax `exp((s − max s) / T) / Σ` ([`softmax`]) is the same
//! distribution up to rounding: probabilities differ by a few ulps, so a
//! sample can differ from [`sample_cdf`] over it only when `r` lies within
//! rounding of a CDF boundary.  `tests/scheduler_state.rs` pins every pass
//! bit for bit against a from-scratch factorised recomputation and within
//! `1e-12` relative of the textbook softmax; [`DecimaLike::cache_stats`]
//! counts the passes, full refactors and `exp`s.
//!
//! [`JobProgress::version`]: pcaps_dag::JobProgress::version
//! [`softmax`]: crate::probabilistic::softmax
//! [`sample_cdf`]: crate::probabilistic::sample_cdf

use crate::probabilistic::{ProbabilisticScheduler, SampledStage, StageProbability};
use pcaps_cluster::{DecisionSink, JobView, SchedEvent, Scheduler, SchedulingContext};
use pcaps_dag::{JobId, StageId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bounds on the largest job factor between rebases of the reference score
/// (see the module docs): `2⁻⁶⁴` and `2⁶⁴`.
const FACTOR_MAX: f64 = 18_446_744_073_709_551_616.0;
const FACTOR_MIN: f64 = 1.0 / FACTOR_MAX;

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

impl DecimaWeights {
    /// Job `j`'s best score `w_s·(1 − R_j/N) + w_c·C_j + bmax_j`.
    fn job_score(&self, entry: &JobEntry, normaliser: f64) -> f64 {
        self.short_job * (1.0 - entry.remaining / normaliser)
            + entry.completion_term
            + entry.best_bottleneck
    }

    /// The stage factor `e_i = exp((w_b·b_i − bmax_j) / T)`.
    fn stage_factor(&self, bottleneck: f64, best_bottleneck: f64) -> f64 {
        ((self.bottleneck * bottleneck - best_bottleneck) / self.temperature).exp()
    }
}

/// Counters of [`DecimaLike`]'s incremental passes (see the module docs):
/// plain integers, bumped once per pass or per `exp`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecimaCacheStats {
    /// Distribution passes (one per `on_event`, `sample` or
    /// `distribution_into` call).
    pub passes: u64,
    /// Passes that recomputed every job factor, because the max-remaining
    /// normaliser changed bits (the first pass counts) or the reference
    /// score was rebased.  The other passes recomputed changed jobs' only.
    pub full_refactors: u64,
    /// Job-factor (`J_j`) `exp` evaluations over all passes.
    pub job_exps: u64,
    /// Stage-factor (`e_i`) `exp` evaluations over all passes: every stage
    /// of a rebuilt job, plus the stages walked to pick a sample or written
    /// out by `distribution_into`.
    pub stage_exps: u64,
}

/// One job's cached entry, revalidated per pass by its
/// [`JobProgress::version`] stamp: equal id + equal version means the job's
/// observable progress — remaining work, completed stages, dispatchable
/// set — has not changed since the entry was built.
///
/// [`JobProgress::version`]: pcaps_dag::JobProgress::version
#[derive(Debug, Clone, Copy)]
struct JobEntry {
    id: JobId,
    version: u64,
    /// Undispatched work `R_j` (executor-seconds) — `JobView::remaining_work()`.
    remaining: f64,
    /// `w_c · completed stages / total stages`.
    completion_term: f64,
    /// `bmax_j`, the largest `w_b · bottleneck` among the dispatchable stages.
    best_bottleneck: f64,
    /// `E_j = Σ e_i` over the dispatchable stages in stage order: at least 1
    /// (the best stage's factor) for a job with work, 0 for one without.
    stage_sum: f64,
    /// The job factor `J_j`, or NaN until the pass computes it.
    factor: f64,
    /// `Σ J·E` over the entries up to and including this one, as the
    /// latest pass folded it.
    cumulative: f64,
}

impl JobEntry {
    /// Builds the entry from scratch: O(stages), one `exp` per dispatchable
    /// stage, job factor left for [`DecimaLike::fold`].
    fn build(weights: &DecimaWeights, job: &JobView<'_>, stats: &mut DecimaCacheStats) -> Self {
        let completion =
            job.progress.frontier().num_completed() as f64 / job.dag.num_stages() as f64;
        let mut entry = JobEntry {
            id: job.id,
            version: job.progress.version(),
            remaining: job.remaining_work(),
            completion_term: weights.completion * completion,
            best_bottleneck: f64::NEG_INFINITY,
            stage_sum: 0.0,
            factor: f64::NAN,
            cumulative: f64::NAN,
        };
        let dispatchable = job.dispatchable_stages();
        if !dispatchable.is_empty() {
            // Per-stage features from the DAG structure — cached on the
            // (shared) DAG, so the graph analysis runs once per job instead
            // of once per pass.
            let bottleneck = job.dag.bottleneck_scores();
            let best = dispatchable
                .iter()
                .map(|s| weights.bottleneck * bottleneck[s.index()])
                .fold(f64::NEG_INFINITY, f64::max);
            entry.best_bottleneck = best;
            entry.stage_sum = dispatchable
                .iter()
                .map(|s| weights.stage_factor(bottleneck[s.index()], best))
                .sum();
            stats.stage_exps += dispatchable.len() as u64;
        }
        entry
    }

    fn has_work(&self) -> bool {
        self.stage_sum > 0.0
    }
}

/// The Decima-like scheduler.
///
/// Holds a persistent per-job table of softmax factors (see the module
/// docs), so a steady-state pass costs O(active jobs) and stage work for
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
    /// Cached per-job entries, aligned with the latest pass's `ctx.jobs()`
    /// order (entry `i` is `ctx.job_at(i)`).
    table: Vec<JobEntry>,
    /// Scratch for the ordered merge (swapped with `table` when membership
    /// changes).
    scratch: Vec<JobEntry>,
    /// Bits of the previous pass's normaliser (`None` before the first pass).
    normaliser_bits: Option<u64>,
    /// The reference score `ref` the job factors are taken relative to.
    reference: f64,
    /// The latest pass's normalising sum `Σ_j J_j·E_j` and largest `J_j`.
    sum: f64,
    max_factor: f64,
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
    ///
    /// # Panics
    /// Panics unless every feature weight is finite and the temperature is
    /// positive and finite: a NaN or infinite weight would make every score,
    /// and with it the whole distribution, NaN.
    pub fn with_weights(seed: u64, weights: DecimaWeights) -> Self {
        let DecimaWeights { short_job, bottleneck, completion, temperature } = weights;
        assert!(
            short_job.is_finite() && bottleneck.is_finite() && completion.is_finite(),
            "Decima feature weights must be finite, got {weights:?}"
        );
        assert!(
            temperature > 0.0 && temperature.is_finite(),
            "softmax temperature must be positive and finite, got {temperature}"
        );
        DecimaLike {
            weights,
            rng: ChaCha8Rng::seed_from_u64(seed),
            table: Vec::new(),
            scratch: Vec::new(),
            normaliser_bits: None,
            reference: 0.0,
            sum: 0.0,
            max_factor: 0.0,
            jobs_with_work: None,
            stats: DecimaCacheStats::default(),
        }
    }

    /// Counters of the incremental passes so far.
    pub fn cache_stats(&self) -> DecimaCacheStats {
        self.stats
    }

    /// Reconciles the job table with the current context, leaving it
    /// aligned with `ctx.jobs()`, and returns the pass's max-remaining
    /// normaliser.
    ///
    /// While no job has arrived or left since the previous pass (the common
    /// case) the ids line up and entries update in place.  From the first
    /// mismatch on, an ordered merge takes over.  Both the table and
    /// `ctx.jobs()` list jobs in arrival order, and every membership change
    /// preserves the relative order of survivors (completions and migration
    /// departures remove in place, compaction retires off the front,
    /// arrivals and migrant reattachments append), so one sweep relocates
    /// every surviving entry.  A cached id missing from the context (O(1)
    /// slot probe) was removed.  A context id missing from the cache, or
    /// present with a different [`JobProgress::version`], rebuilds its
    /// entry with the calls a from-scratch pass would make.
    ///
    /// The max-remaining fold and the jobs-with-work count ride along in
    /// the same sweep.  The fold compares with `>` rather than `f64::max`
    /// (no value is NaN), which picks the same value without a serial
    /// dependency through `f64::max`'s NaN handling.
    ///
    /// [`JobProgress::version`]: pcaps_dag::JobProgress::version
    fn refresh(&mut self, ctx: &SchedulingContext<'_>) -> f64 {
        let DecimaLike { weights, table, scratch, stats, .. } = self;
        let mut max_remaining = 0.0_f64;
        let mut jobs_with_work = 0usize;
        let mut visit = |entry: &JobEntry| {
            if entry.remaining > max_remaining {
                max_remaining = entry.remaining;
            }
            jobs_with_work += usize::from(entry.has_work());
        };
        let mut jobs = ctx.jobs();
        let mut aligned = 0usize;
        let mut first_mismatch = None;
        for job in jobs.by_ref() {
            match table.get_mut(aligned) {
                Some(entry) if entry.id == job.id => {
                    if entry.version != job.progress.version() {
                        *entry = JobEntry::build(weights, &job, stats);
                    }
                    visit(entry);
                    aligned += 1;
                }
                _ => {
                    first_mismatch = Some(job);
                    break;
                }
            }
        }
        match first_mismatch {
            // Only departures off the back (if any).
            None => table.truncate(aligned),
            Some(first) => {
                scratch.clear();
                scratch.extend_from_slice(&table[..aligned]);
                let mut cursor = aligned;
                for job in std::iter::once(first).chain(jobs) {
                    let version = job.progress.version();
                    let mut cached = None;
                    while let Some(&entry) = table.get(cursor) {
                        if entry.id == job.id {
                            cursor += 1;
                            if entry.version == version {
                                cached = Some(entry);
                            }
                            break;
                        }
                        // Order mismatch: either the cached job left this
                        // member (skip its entry) or `job` was inserted ahead
                        // of it (a reattached migrant — stop and rebuild).
                        // The slot table answers membership in O(1).
                        if ctx.job(entry.id).is_some() {
                            break;
                        }
                        cursor += 1;
                    }
                    let entry = cached.unwrap_or_else(|| JobEntry::build(weights, &job, stats));
                    visit(&entry);
                    scratch.push(entry);
                }
                std::mem::swap(table, scratch);
            }
        }
        self.jobs_with_work = Some(jobs_with_work);
        max_remaining.max(1e-9)
    }

    /// One distribution pass: reconcile the table, recompute the job
    /// factors the cache keys require (see the module docs), fold `Σ` and
    /// the largest factor, and rebase the reference score if that factor
    /// left its bounds.
    fn compute(&mut self, ctx: &SchedulingContext<'_>) {
        let normaliser = self.refresh(ctx);
        self.stats.passes += 1;
        let refactor_all = self.normaliser_bits != Some(normaliser.to_bits());
        self.normaliser_bits = Some(normaliser.to_bits());
        if refactor_all {
            self.stats.full_refactors += 1;
        }
        self.fold(normaliser, refactor_all);
        if self.has_work() && !(FACTOR_MIN..=FACTOR_MAX).contains(&self.max_factor) {
            let weights = self.weights;
            self.reference = self
                .table
                .iter()
                .filter(|e| e.has_work())
                .map(|e| weights.job_score(e, normaliser))
                .fold(f64::NEG_INFINITY, f64::max);
            if !refactor_all {
                self.stats.full_refactors += 1;
            }
            self.fold(normaliser, true);
        }
    }

    /// Computes the job factors that are missing (all of them when
    /// `refactor_all`) and folds `Σ = Σ_j J_j·E_j` and `max_j J_j` over the
    /// jobs with work, in table order, recording each entry's running sum.
    fn fold(&mut self, normaliser: f64, refactor_all: bool) {
        let DecimaLike { weights, table, reference, stats, .. } = self;
        let mut sum = 0.0;
        let mut max_factor = 0.0_f64;
        for entry in table.iter_mut() {
            if entry.has_work() {
                if refactor_all || entry.factor.is_nan() {
                    let exponent =
                        (weights.job_score(entry, normaliser) - *reference) / weights.temperature;
                    entry.factor = exponent.exp();
                    stats.job_exps += 1;
                }
                sum += entry.factor * entry.stage_sum;
                if entry.factor > max_factor {
                    max_factor = entry.factor;
                }
            }
            entry.cumulative = sum;
        }
        self.sum = sum;
        self.max_factor = max_factor;
    }

    /// True when the latest pass found at least one dispatchable stage.
    fn has_work(&self) -> bool {
        self.jobs_with_work.is_some_and(|n| n > 0)
    }

    /// The stage the latest pass's distribution reaches at `r` (see the
    /// module docs).  Only called after a pass that found work.
    fn pick(&mut self, ctx: &SchedulingContext<'_>, r: f64) -> SampledStage {
        let target = r * self.sum;
        // `Σ` is the last running sum and `r < 1`, so some job reaches the
        // target; the fallback only guards against a caller's `r ≥ 1`.
        let i = self
            .table
            .iter()
            .position(|e| e.has_work() && target <= e.cumulative)
            .or_else(|| self.table.iter().rposition(JobEntry::has_work))
            .expect("callers check the pass found work");
        let before = if i == 0 { 0.0 } else { self.table[i - 1].cumulative };
        let entry = self.table[i];
        let job = ctx.job_at(i);
        let bottleneck = job.dag.bottleneck_scores();
        let stage_target = (target - before) / entry.factor;
        let mut acc = 0.0;
        let mut chosen = None;
        for &stage in job.dispatchable_stages() {
            let factor =
                self.weights.stage_factor(bottleneck[stage.index()], entry.best_bottleneck);
            self.stats.stage_exps += 1;
            acc += factor;
            chosen = Some((stage, factor));
            if stage_target <= acc {
                break;
            }
        }
        let (stage, factor) = chosen.expect("a job with work has a dispatchable stage");
        SampledStage {
            job: entry.id,
            stage,
            probability: entry.factor * factor / self.sum,
            max_probability: self.max_factor / self.sum,
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
        out.clear();
        let DecimaLike { weights, table, sum, stats, .. } = self;
        for (i, entry) in table.iter().enumerate().filter(|(_, e)| e.has_work()) {
            let job = ctx.job_at(i);
            let bottleneck = job.dag.bottleneck_scores();
            let stages = job.dispatchable_stages();
            stats.stage_exps += stages.len() as u64;
            out.extend(stages.iter().map(|&stage| StageProbability {
                job: entry.id,
                stage,
                probability: entry.factor
                    * weights.stage_factor(bottleneck[stage.index()], entry.best_bottleneck)
                    / *sum,
            }));
        }
    }

    fn sample(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage> {
        self.compute(ctx);
        if !self.has_work() {
            return None;
        }
        Some(self.pick(ctx, draw()))
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
        if !self.has_work() {
            return;
        }
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let chosen = self.pick(ctx, r);
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
            .build();
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

    #[test]
    #[should_panic(expected = "temperature")]
    fn rejects_infinite_temperature() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { temperature: f64::INFINITY, ..DecimaWeights::default() },
        );
    }

    #[test]
    #[should_panic(expected = "feature weights must be finite")]
    fn rejects_nan_feature_weight() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { short_job: f64::NAN, ..DecimaWeights::default() },
        );
    }

    #[test]
    #[should_panic(expected = "feature weights must be finite")]
    fn rejects_infinite_feature_weight() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { bottleneck: f64::INFINITY, ..DecimaWeights::default() },
        );
    }

    #[test]
    #[should_panic(expected = "feature weights must be finite")]
    fn rejects_negative_infinite_feature_weight() {
        let _ = DecimaLike::with_weights(
            0,
            DecimaWeights { completion: f64::NEG_INFINITY, ..DecimaWeights::default() },
        );
    }
}
