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
//! `s = 2·(1 − R_j/N) + 0.5·C_j + 1.5·b_i`: a job term (remaining work
//! `R_j` over the max-remaining normaliser `N`, completed-stage fraction
//! `C_j`) plus a stage term (the stage's bottleneck score `b_i`).  Its
//! softmax weight `exp(s)` therefore splits exactly into
//!
//! ```text
//! job factor    J_j = exp(2·(1 − R_j/N) + 0.5·C_j + bmax_j)
//! stage factor  e_i = exp(1.5·b_i − bmax_j)
//! ```
//!
//! where `bmax_j` is the largest `1.5·b_i` among the job's dispatchable
//! stages, so `e_i ≤ 1`, and exactly 1 for the job's best stage.  With
//! `E_j = Σ e_i` over the job's stages, `p_i = J_j·e_i / Σ` where
//! `Σ = Σ_j J_j·E_j`.
//!
//! # Incremental passes
//!
//! Every pass (one per `on_event`, `sample` or `distribution_into` call)
//! reuses what its inputs allow:
//!
//! * **Change journal.**  The table of per-job entries is aligned with
//!   `ctx.jobs()`.  A pass asks the context which jobs the engine mutated
//!   since the previous pass ([`SchedulingContext::changes_since`]) and
//!   revisits only those.  When the context cannot say (the first pass, a
//!   job joined or left the table, the journal overflowed, or the previous
//!   pass saw another run), the pass reconciles instead: one ordered merge
//!   of the table against every active job.
//! * **Job stamps.**  Each entry (`R_j`, `0.5·C_j`, `bmax_j`, `E_j` and
//!   `J_j`) is stamped with three counters of its job's progress:
//!   [`JobProgress::pending_version`] for `R_j`, the completed-stage count
//!   for `0.5·C_j`, and [`JobProgress::dispatchable_version`] for `bmax_j`
//!   and `E_j`.  An entry whose stamps all match is current, whatever else
//!   the job did (a task finish that completes no stage moves none).  A
//!   stale entry recomputes `R_j` only if the pending version moved (a
//!   dispatch or a failure), the stage terms, at O(dispatchable stages)
//!   `exp`s, only if the dispatchable set moved, and `0.5·C_j` and `J_j`
//!   always: a dispatch that leaves pending tasks in its stage costs one
//!   `remaining_work` fold and one job `exp`.  Nothing is stored per
//!   stage: sampling recomputes the chosen job's few `e_i` with the same
//!   operations that summed them into `E_j`.
//! * **Normaliser bits.**  `N` is the largest `R_j`, kept across passes
//!   and rescanned from the table only when the entry holding it shrinks.
//!   Every job factor depends on `N`, so when its bits change every `J_j`
//!   is recomputed; otherwise only refreshed jobs' are.
//! * **Dense fold table.**  The fold reads and writes one 32-byte slot per
//!   job, kept beside the table: `J_j·E_j`, `J_j`, and the running `Σ J·E`
//!   and `max J` up to and including the job.  A job without work holds
//!   `+0.0` in both terms, which leaves the running values (from `+0.0`)
//!   unchanged bit for bit.  A refreshed entry marks its slot stale, a
//!   reconcile marks every slot from its first mismatch stale, and the
//!   fold reloads stale slots from their entries.  It restarts at the
//!   first stale slot, from its predecessor's running values, so the
//!   prefix keeps its bits and the fold stays the sequential one.
//! * **Score range.**  A job score `2·(1 − R_j/N) + 0.5·C_j + bmax_j` lies
//!   in `[0, 4]`: `R_j ≤ N`, `C_j < 1` for a job with work, and
//!   `bottleneck_scores` clamps every `b_i` to `[0, 1]`.  So every job
//!   factor lies in `[1, e⁴ ≈ 54.6]`: no factor overflows and `Σ` never
//!   underflows to 0.  Debug builds assert that every job score lies in
//!   `[−1, 5]`, so a feature change that could overflow `exp` fails the
//!   tests instead of going silent.
//!
//! A journal-driven pass therefore costs O(changed jobs) plus O(stages)
//! per job whose dispatchable set moved, plus the fold from the first
//! stale slot to the end of the table, plus O(log jobs) to sample; a
//! rescan of the normaliser or a reconcile costs O(resident jobs).
//! Sampling binary-searches the slots' non-decreasing running sums for the
//! first job whose `Σ J·E` reaches `r·Σ`, then walks that job's stages for
//! the first whose cumulative `e_i` reaches the remainder `÷ J_j`, and
//! reports `max p = max_j J_j / Σ`.
//! That is exact: the best stage's weight is `J_j·1`, every other is
//! `J_j·e_i ≤ J_j`, and correctly rounded division by the same `Σ`
//! preserves order, so the argmax stage's relative importance `p / max p`
//! is exactly 1.
//!
//! The textbook softmax `exp(s − max s) / Σ` ([`softmax`]) is the same
//! distribution up to rounding: probabilities differ by a few ulps, so a
//! sample can differ from [`sample_cdf`] over it only when `r` lies within
//! rounding of a CDF boundary.  `tests/scheduler_state.rs` pins every pass
//! bit for bit against a from-scratch factorised recomputation and within
//! `1e-12` relative of the textbook softmax; [`DecimaLike::cache_stats`]
//! counts the passes of each kind, full refactors, `exp`s and the
//! refreshes that kept their stage terms.  Debug builds
//! also check, after every journal-driven pass, that every entry the pass
//! did not revisit is still current, so a mutation the engine failed to
//! journal fails the test suite.
//!
//! [`JobProgress::pending_version`]: pcaps_dag::JobProgress::pending_version
//! [`JobProgress::dispatchable_version`]: pcaps_dag::JobProgress::dispatchable_version
//! [`softmax`]: crate::probabilistic::softmax
//! [`sample_cdf`]: crate::probabilistic::sample_cdf

use crate::probabilistic::{ProbabilisticScheduler, SampledStage, StageProbability};
use pcaps_cluster::{
    ChangeCursor, DecisionSink, JobView, SchedEvent, Scheduler, SchedulingContext,
};
use pcaps_dag::{JobId, StageId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Weight of the shortest-remaining-work feature.
const SHORT_JOB: f64 = 2.0;
/// Weight of the critical-path (bottleneck) feature.
const BOTTLENECK: f64 = 1.5;
/// Weight of the stage-progress feature (stages of jobs that are almost
/// done get a boost, freeing their executors sooner).
const COMPLETION: f64 = 0.5;

/// The stage factor `e_i = exp(1.5·b_i − bmax_j)`.
fn stage_factor(bottleneck: f64, best_bottleneck: f64) -> f64 {
    (BOTTLENECK * bottleneck - best_bottleneck).exp()
}

/// Counters of [`DecimaLike`]'s incremental passes (see the module docs):
/// plain integers, bumped once per pass or per `exp`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecimaCacheStats {
    /// Distribution passes (one per `on_event`, `sample` or
    /// `distribution_into` call): `journal_passes + reconciles`.
    pub passes: u64,
    /// Passes that recomputed every job factor, because the max-remaining
    /// normaliser changed bits (the first pass counts).  The other passes
    /// recomputed changed jobs' only.
    pub full_refactors: u64,
    /// Job-factor (`J_j`) `exp` evaluations over all passes.
    pub job_exps: u64,
    /// Stage-factor (`e_i`) `exp` evaluations over all passes: every
    /// dispatchable stage of a new entry or of a refreshed one whose
    /// dispatchable set moved, plus the stages walked to pick a sample or
    /// written out by `distribution_into`.
    pub stage_exps: u64,
    /// Entry refreshes that kept their stage terms (`bmax_j` and `E_j`)
    /// because the job's dispatchable set had not moved, and recomputed
    /// only `R_j` (if the pending version moved), `0.5·C_j` and `J_j`.
    pub kept_stage_terms: u64,
    /// Passes that revisited only the jobs the engine's change journal
    /// named.
    pub journal_passes: u64,
    /// Passes that reconciled the table against every active job: the
    /// first pass, and every pass after a job joined or left the table,
    /// the journal overflowed, or the previous pass saw another context.
    pub reconciles: u64,
}

/// One job's cached entry, stamped with the three progress counters its
/// terms were computed at (see the module docs): while all three match,
/// the job's remaining work, completed stages and dispatchable set are
/// what the entry was built from.
#[derive(Debug, Clone, Copy)]
struct JobEntry {
    id: JobId,
    /// The pending version `remaining` was computed at.
    pending_version: u64,
    /// The completed-stage count `completion_term` was computed at.
    completed: usize,
    /// The dispatchable version the stage terms were computed at.
    dispatchable_version: u64,
    /// Undispatched work `R_j` (executor-seconds) — `JobView::remaining_work()`.
    remaining: f64,
    /// `0.5 · completed stages / total stages`.
    completion_term: f64,
    /// `bmax_j`, the largest `1.5 · bottleneck` among the dispatchable stages.
    best_bottleneck: f64,
    /// `E_j = Σ e_i` over the dispatchable stages in stage order: at least 1
    /// (the best stage's factor) for a job with work, 0 for one without.
    stage_sum: f64,
    /// The job factor `J_j`, or NaN until a fold computes it.
    factor: f64,
}

impl JobEntry {
    /// Builds the entry from scratch: O(stages), one `exp` per dispatchable
    /// stage, job factor left for [`DecimaLike::fold`].
    fn build(job: &JobView<'_>, stats: &mut DecimaCacheStats) -> Self {
        let mut entry = JobEntry {
            id: job.id,
            pending_version: job.progress.pending_version(),
            completed: 0,
            dispatchable_version: 0,
            remaining: job.remaining_work(),
            completion_term: 0.0,
            best_bottleneck: f64::NEG_INFINITY,
            stage_sum: 0.0,
            factor: f64::NAN,
        };
        entry.set_completion(job);
        entry.set_stage_terms(job, stats);
        entry
    }

    /// Recomputes `0.5·C_j` and its stamp.
    fn set_completion(&mut self, job: &JobView<'_>) {
        self.completed = job.progress.frontier().num_completed();
        self.completion_term = COMPLETION * (self.completed as f64 / job.dag.num_stages() as f64);
    }

    /// Recomputes `bmax_j` and `E_j` and their stamp: one `exp` per
    /// dispatchable stage.
    fn set_stage_terms(&mut self, job: &JobView<'_>, stats: &mut DecimaCacheStats) {
        self.dispatchable_version = job.progress.dispatchable_version();
        let dispatchable = job.dispatchable_stages();
        if dispatchable.is_empty() {
            self.best_bottleneck = f64::NEG_INFINITY;
            self.stage_sum = 0.0;
            return;
        }
        // Per-stage features from the DAG structure — cached on the
        // (shared) DAG, so the graph analysis runs once per job instead of
        // once per pass.
        let bottleneck = job.dag.bottleneck_scores();
        let best = dispatchable
            .iter()
            .map(|s| BOTTLENECK * bottleneck[s.index()])
            .fold(f64::NEG_INFINITY, f64::max);
        self.best_bottleneck = best;
        self.stage_sum = dispatchable
            .iter()
            .map(|s| stage_factor(bottleneck[s.index()], best))
            .sum();
        stats.stage_exps += dispatchable.len() as u64;
    }

    /// True while all three stamps match `job`'s progress (same id assumed).
    fn is_current(&self, job: &JobView<'_>) -> bool {
        self.pending_version == job.progress.pending_version()
            && self.completed == job.progress.frontier().num_completed()
            && self.dispatchable_version == job.progress.dispatchable_version()
    }

    /// Brings the entry up to date with `job` (same id): nothing if it is
    /// current, otherwise `R_j` if the pending version moved, the stage
    /// terms if the dispatchable set moved, and `0.5·C_j`, leaving the job
    /// factor for the fold.  Returns whether it refreshed.
    fn refresh(&mut self, job: &JobView<'_>, stats: &mut DecimaCacheStats) -> bool {
        if self.is_current(job) {
            return false;
        }
        if self.pending_version != job.progress.pending_version() {
            self.pending_version = job.progress.pending_version();
            self.remaining = job.remaining_work();
        }
        if self.dispatchable_version == job.progress.dispatchable_version() {
            stats.kept_stage_terms += 1;
        } else {
            self.set_stage_terms(job, stats);
        }
        self.set_completion(job);
        self.factor = f64::NAN;
        true
    }

    fn has_work(&self) -> bool {
        self.stage_sum > 0.0
    }

    /// Job `j`'s best score `2·(1 − R_j/N) + 0.5·C_j + bmax_j`.
    fn score(&self, normaliser: f64) -> f64 {
        SHORT_JOB * (1.0 - self.remaining / normaliser)
            + self.completion_term
            + self.best_bottleneck
    }
}

/// One job's fold terms and running values, kept in a dense array beside
/// the table (see the module docs), so the fold and the sample's binary
/// search read 32-byte slots instead of whole entries.
#[derive(Debug, Clone, Copy)]
struct FoldSlot {
    /// `J_j·E_j`, or `+0.0` for a job without work.
    weight: f64,
    /// `J_j`, `0.0` for a job without work, or NaN while the slot is stale.
    factor: f64,
    /// `Σ weight` over the slots up to and including this one, as the
    /// latest fold left it.
    sum: f64,
    /// The largest `factor` up to and including this one (at least `0.0`),
    /// as the latest fold left it.
    max: f64,
}

impl FoldSlot {
    /// A slot the next fold reloads from its entry.
    const STALE: FoldSlot = FoldSlot {
        weight: f64::NAN,
        factor: f64::NAN,
        sum: f64::NAN,
        max: f64::NAN,
    };

    /// A job factor is at least 1 and a job with work has `E_j ≥ 1`, so
    /// only a job without work has a zero weight.
    fn has_work(&self) -> bool {
        self.weight > 0.0
    }
}

/// The largest `R_j` in the table, folded from `0.0` with `>` (no value is
/// NaN), which picks the same value as `f64::max` without a serial
/// dependency through its NaN handling.
fn max_remaining(table: &[JobEntry]) -> f64 {
    table
        .iter()
        .fold(0.0, |max, e| if e.remaining > max { e.remaining } else { max })
}

/// The Decima-like scheduler.
///
/// Holds a persistent per-job table of softmax factors (see the module
/// docs), so a steady-state pass costs O(changed jobs) plus stage work for
/// jobs whose dispatchable set moved and the fold suffix; it performs no
/// heap allocation.
/// Correctness never depends on the advisory `SchedEvent` stream: which
/// jobs to revisit comes from the engine's change journal, and whenever
/// the journal cannot vouch for the table it is reconciled against the
/// authoritative `ctx.jobs()` iteration (arrival order), which absorbs
/// arrivals, completions, serve-mode compaction's front retirement and
/// slot-base shifts, and migration detach/reattach uniformly.
#[derive(Debug, Clone)]
pub struct DecimaLike {
    rng: ChaCha8Rng,
    /// Cached per-job entries, aligned with the latest pass's `ctx.jobs()`
    /// order (entry `i` is `ctx.job_at(i)`).
    table: Vec<JobEntry>,
    /// The fold's slots, aligned with `table` (slot `i` is entry `i`'s).
    slots: Vec<FoldSlot>,
    /// Scratch for the ordered merge (swapped with `table` when membership
    /// changes).
    scratch: Vec<JobEntry>,
    /// The change-journal position of the latest pass (`None` before the
    /// first).
    cursor: Option<ChangeCursor>,
    /// The largest `R_j` in the table (at least `0.0`), kept across passes.
    max_remaining: f64,
    /// Bits of the previous pass's normaliser (`None` before the first pass).
    normaliser_bits: Option<u64>,
    /// The latest pass's normalising sum `Σ_j J_j·E_j` and largest `J_j`.
    sum: f64,
    max_factor: f64,
    /// Jobs with non-empty dispatchable sets, kept across passes so the
    /// follow-up `parallelism_limit` call (same event, same context — see
    /// the trait contract) does not rescan.  `None` until the first
    /// distribution pass.
    jobs_with_work: Option<usize>,
    stats: DecimaCacheStats,
}

impl DecimaLike {
    /// Creates the scheduler with the given sampling seed.
    pub fn new(seed: u64) -> Self {
        DecimaLike {
            rng: ChaCha8Rng::seed_from_u64(seed),
            table: Vec::new(),
            slots: Vec::new(),
            scratch: Vec::new(),
            cursor: None,
            max_remaining: 0.0,
            normaliser_bits: None,
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

    /// Brings the job table up to date with the context, leaving it and
    /// the fold slots aligned with `ctx.jobs()`, every changed entry's slot
    /// stale, and the max-remaining fold and the jobs-with-work count
    /// current, and returns the index of the first stale slot (the table
    /// length if none is).
    fn refresh(&mut self, ctx: &SchedulingContext<'_>) -> usize {
        let cursor = self.cursor.replace(ctx.cursor());
        let Some(changes) = cursor.and_then(|cursor| ctx.changes_since(cursor)) else {
            if !cursor.is_some_and(|cursor| ctx.same_run(cursor)) {
                // Entries from another run or timeline describe other
                // progress under the same job ids: start over.
                self.table.clear();
            }
            self.stats.reconciles += 1;
            return self.reconcile(ctx);
        };
        self.stats.journal_passes += 1;
        let first = self.refresh_changed(ctx, changes);
        #[cfg(debug_assertions)]
        self.assert_current(ctx);
        first
    }

    /// The journal path: revisits the entries at the journaled indices
    /// only.  The journal promises the roster is unchanged since the
    /// previous pass, so entry `i` still belongs to `ctx.job_at(i)`.  A
    /// refreshed entry may raise the normaliser in O(1); only when the
    /// entry holding it shrinks is the table rescanned.
    fn refresh_changed(&mut self, ctx: &SchedulingContext<'_>, changes: &[u32]) -> usize {
        let DecimaLike { table, slots, max_remaining: max, stats, .. } = self;
        let mut jobs_with_work = self.jobs_with_work.expect("a journal pass follows a reconcile");
        let mut first = table.len();
        let mut rescan = false;
        for &i in changes {
            let i = i as usize;
            let job = ctx.job_at(i);
            let entry = &mut table[i];
            debug_assert_eq!(entry.id, job.id, "the journal promised an unchanged roster");
            let (old_remaining, had_work) = (entry.remaining, entry.has_work());
            if !entry.refresh(&job, stats) {
                continue;
            }
            slots[i] = FoldSlot::STALE;
            first = first.min(i);
            jobs_with_work = jobs_with_work - usize::from(had_work) + usize::from(entry.has_work());
            if entry.remaining > *max {
                *max = entry.remaining;
            } else if entry.remaining < old_remaining && old_remaining == *max {
                rescan = true;
            }
        }
        if rescan {
            *max = max_remaining(table);
        }
        self.jobs_with_work = Some(jobs_with_work);
        first
    }

    /// Debug check after a journal-driven pass: every entry, revisited or
    /// not, describes its job's current progress, and the kept normaliser
    /// and jobs-with-work count equal a from-scratch fold.  An entry the
    /// pass did not revisit is stale exactly when the engine mutated its
    /// job without journaling it.
    #[cfg(debug_assertions)]
    fn assert_current(&self, ctx: &SchedulingContext<'_>) {
        assert_eq!(self.table.len(), ctx.queue_length(), "the journal hid a roster change");
        assert_eq!(self.slots.len(), self.table.len(), "the fold slots left the table");
        for (i, (entry, job)) in self.table.iter().zip(ctx.jobs()).enumerate() {
            assert!(
                entry.id == job.id && entry.is_current(&job),
                "entry {i} ({}) is stale after a journal-driven pass at t={}: the engine \
                 mutated {}'s progress without journaling it",
                entry.id,
                ctx.time,
                job.id
            );
        }
        assert_eq!(self.max_remaining.to_bits(), max_remaining(&self.table).to_bits());
        let with_work = self.table.iter().filter(|e| e.has_work()).count();
        assert_eq!(self.jobs_with_work, Some(with_work));
    }

    /// The reconcile path: one sweep of the table against `ctx.jobs()`.
    ///
    /// While no job has arrived or left since the previous pass the ids
    /// line up and entries update in place.  From the first mismatch on,
    /// an ordered merge takes over.  Both the table and `ctx.jobs()` list
    /// jobs in arrival order, and every membership change preserves the
    /// relative order of survivors (completions and migration departures
    /// remove in place, compaction retires off the front, arrivals and
    /// migrant reattachments append), so one sweep relocates every
    /// surviving entry.  A cached id missing from the context (O(1) slot
    /// probe) was removed.  A context id missing from the cache gets a new
    /// entry; a cached one is refreshed against its stamps.
    ///
    /// The max-remaining fold and the jobs-with-work count ride along in
    /// the same sweep.  A refreshed entry's slot goes stale, and so does
    /// every slot from the first mismatch on.
    fn reconcile(&mut self, ctx: &SchedulingContext<'_>) -> usize {
        let DecimaLike { table, slots, scratch, stats, .. } = self;
        let mut max = 0.0_f64;
        let mut jobs_with_work = 0usize;
        let mut visit = |entry: &JobEntry| {
            if entry.remaining > max {
                max = entry.remaining;
            }
            jobs_with_work += usize::from(entry.has_work());
        };
        let mut jobs = ctx.jobs();
        let mut first = usize::MAX;
        let mut aligned = 0usize;
        let mut first_mismatch = None;
        for job in jobs.by_ref() {
            match table.get_mut(aligned) {
                Some(entry) if entry.id == job.id => {
                    if entry.refresh(&job, stats) {
                        slots[aligned] = FoldSlot::STALE;
                        first = first.min(aligned);
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
            None => {
                table.truncate(aligned);
                slots.truncate(aligned);
            }
            Some(first_new) => {
                first = first.min(aligned);
                scratch.clear();
                scratch.extend_from_slice(&table[..aligned]);
                let mut cursor = aligned;
                for job in std::iter::once(first_new).chain(jobs) {
                    let mut cached = None;
                    while let Some(&entry) = table.get(cursor) {
                        if entry.id == job.id {
                            cursor += 1;
                            cached = Some(entry);
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
                    let entry = match cached {
                        Some(mut entry) => {
                            entry.refresh(&job, stats);
                            entry
                        }
                        None => JobEntry::build(&job, stats),
                    };
                    visit(&entry);
                    scratch.push(entry);
                }
                std::mem::swap(table, scratch);
                slots.truncate(aligned);
                slots.resize(table.len(), FoldSlot::STALE);
            }
        }
        self.max_remaining = max;
        self.jobs_with_work = Some(jobs_with_work);
        first.min(self.table.len())
    }

    /// One distribution pass: bring the table up to date, recompute the
    /// job factors the cache keys require (see the module docs), and fold
    /// `Σ` and the largest factor from the first changed entry.
    fn compute(&mut self, ctx: &SchedulingContext<'_>) {
        let first_changed = self.refresh(ctx);
        let normaliser = self.max_remaining.max(1e-9);
        self.stats.passes += 1;
        let refactor_all = self.normaliser_bits != Some(normaliser.to_bits());
        self.normaliser_bits = Some(normaliser.to_bits());
        if refactor_all {
            self.stats.full_refactors += 1;
        }
        self.fold(normaliser, refactor_all, first_changed);
    }

    /// Reloads the stale slots (all of them when `refactor_all`) from their
    /// entries, computing the job factors that are missing (all of them
    /// when `refactor_all`), and folds `Σ = Σ_j J_j·E_j` and `max_j J_j` in
    /// table order, recording each slot's running values.  Slots before
    /// `from` (0 when `refactor_all`) are unchanged since the previous
    /// fold, so it resumes from `from - 1`'s running values, which carry
    /// the bits a fold from the start would reach.
    fn fold(&mut self, normaliser: f64, refactor_all: bool, from: usize) {
        let DecimaLike { table, slots, stats, .. } = self;
        let from = if refactor_all { 0 } else { from };
        let (mut sum, mut max_factor) = match from.checked_sub(1) {
            Some(prev) => (slots[prev].sum, slots[prev].max),
            None => (0.0, 0.0_f64),
        };
        for (i, slot) in slots.iter_mut().enumerate().skip(from) {
            if refactor_all || slot.factor.is_nan() {
                let entry = &mut table[i];
                (slot.weight, slot.factor) = if entry.has_work() {
                    if refactor_all || entry.factor.is_nan() {
                        let score = entry.score(normaliser);
                        debug_assert!(
                            (-1.0..=5.0).contains(&score),
                            "job score {score} of {} left [0, 4]: its factor could overflow",
                            entry.id
                        );
                        entry.factor = score.exp();
                        stats.job_exps += 1;
                    }
                    (entry.factor * entry.stage_sum, entry.factor)
                } else {
                    (0.0, 0.0)
                };
            }
            sum += slot.weight;
            if slot.factor > max_factor {
                max_factor = slot.factor;
            }
            slot.sum = sum;
            slot.max = max_factor;
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
        // The running sums never decrease, so the first job with work whose
        // running sum reaches the target is the first with work at or after
        // the partition point (a slot without work repeats its
        // predecessor's sum, so it can only sit there when the target is
        // 0).  `Σ` is the last running sum and `r < 1`, so some job reaches
        // the target; the fallback only guards against a caller's `r ≥ 1`.
        let slots = &self.slots;
        let start = slots.partition_point(|s| s.sum < target);
        let i = slots[start..]
            .iter()
            .position(FoldSlot::has_work)
            .map(|k| start + k)
            .or_else(|| slots.iter().rposition(FoldSlot::has_work))
            .expect("callers check the pass found work");
        let before = if i == 0 { 0.0 } else { slots[i - 1].sum };
        let entry = self.table[i];
        let job = ctx.job_at(i);
        let bottleneck = job.dag.bottleneck_scores();
        let stage_target = (target - before) / entry.factor;
        let mut acc = 0.0;
        let mut chosen = None;
        for &stage in job.dispatchable_stages() {
            let factor = stage_factor(bottleneck[stage.index()], entry.best_bottleneck);
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
        let DecimaLike { table, sum, stats, .. } = self;
        for (i, entry) in table.iter().enumerate().filter(|(_, e)| e.has_work()) {
            let job = ctx.job_at(i);
            let bottleneck = job.dag.bottleneck_scores();
            let stages = job.dispatchable_stages();
            stats.stage_exps += stages.len() as u64;
            out.extend(stages.iter().map(|&stage| StageProbability {
                job: entry.id,
                stage,
                probability: entry.factor
                    * stage_factor(bottleneck[stage.index()], entry.best_bottleneck)
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
}
