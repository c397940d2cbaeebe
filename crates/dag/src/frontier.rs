//! Runtime progress tracking for a job: which stages are runnable, which
//! tasks remain, and when the job is complete.
//!
//! [`Frontier`] answers the purely structural question "given this set of
//! completed stages, which stages are now eligible to run?".
//! [`JobProgress`] layers task-level bookkeeping on top: how many tasks of a
//! runnable stage have not been dispatched yet, how many are in flight, and
//! when a stage (and eventually the job) completes.  The cluster simulator
//! keeps one [`JobProgress`] per active job.
//!
//! ## Incremental maintenance
//!
//! [`Frontier::complete`] keeps a count of incomplete parents per stage in
//! O(children), so [`Frontier::is_runnable`] is an O(1) test.  The
//! dispatchable stage set is maintained *incrementally*:
//! [`JobProgress::dispatch_task`], [`JobProgress::fail_task`] and
//! [`JobProgress::finish_task`] keep it in sync, so
//! [`JobProgress::dispatchable_stages`] is an O(1) slice borrow instead of
//! an O(num_stages) rescan with a fresh allocation.  This is the per-event
//! cost model the simulator's scheduling hot path is built around (see
//! `pcaps-cluster`'s crate docs); schedulers must treat the returned slice
//! as a snapshot that is invalidated by any mutating call.  The set is kept
//! sorted by ascending [`StageId`], matching the order a full rescan would
//! produce.  A bitset of the stages that still have fresh pending tasks
//! lets [`JobProgress::remaining_work`] skip fully dispatched stages, and
//! [`JobProgress::dispatchable_version`] counts the changes to the set, so
//! a policy can tell in O(1) whether the set it derived terms from moved.

use crate::ids::StageId;
use crate::job::JobDag;
use serde::{Deserialize, Serialize};

/// Inserts `stage` into a sorted stage list (no-op if already present);
/// returns whether it was inserted.
fn sorted_insert(list: &mut Vec<StageId>, stage: StageId) -> bool {
    let Err(pos) = list.binary_search(&stage) else {
        return false;
    };
    list.insert(pos, stage);
    true
}

/// Removes `stage` from a sorted stage list (no-op if absent).
fn sorted_remove(list: &mut Vec<StageId>, stage: StageId) {
    if let Ok(pos) = list.binary_search(&stage) {
        list.remove(pos);
    }
}

/// Structural frontier: tracks completed stages and answers which stages
/// are runnable (all parents complete, not itself complete).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frontier {
    num_stages: usize,
    /// `completed[s]` is true once stage `s` completed.
    completed: Vec<bool>,
    num_completed: usize,
    /// Number of incomplete parents per stage.
    missing_parents: Vec<usize>,
}

impl Frontier {
    /// Creates a frontier for the given job with nothing completed.
    pub fn new(job: &JobDag) -> Self {
        Frontier {
            num_stages: job.num_stages(),
            completed: vec![false; job.num_stages()],
            num_completed: 0,
            missing_parents: job.stage_ids().map(|s| job.adjacency.parents(s).len()).collect(),
        }
    }

    /// Marks `stage` complete, updating its children's missing-parent
    /// counts in O(children).
    /// Calling this twice for the same stage is a logic error and panics in
    /// debug builds; in release it is a no-op.
    pub fn complete(&mut self, job: &JobDag, stage: StageId) {
        debug_assert!(
            !self.completed[stage.index()],
            "{stage} completed twice"
        );
        if self.completed[stage.index()] {
            return;
        }
        self.completed[stage.index()] = true;
        self.num_completed += 1;
        for &c in job.adjacency.children(stage) {
            debug_assert!(self.missing_parents[c.index()] > 0);
            self.missing_parents[c.index()] = self.missing_parents[c.index()].saturating_sub(1);
        }
    }

    /// True if `stage` has been completed.
    pub fn is_complete(&self, stage: StageId) -> bool {
        self.completed[stage.index()]
    }

    /// True if every parent of `stage` is complete and `stage` itself is
    /// not.  O(1): [`Frontier::complete`] keeps the missing-parent counts.
    pub fn is_runnable(&self, stage: StageId) -> bool {
        !self.is_complete(stage) && self.missing_parents[stage.index()] == 0
    }

    /// Number of completed stages.
    pub fn num_completed(&self) -> usize {
        self.num_completed
    }

    /// True when every stage of the job has completed.
    pub fn job_complete(&self) -> bool {
        self.num_completed == self.num_stages
    }
}

/// Task counts of one stage, packed into one 12-byte record so a stage's
/// bookkeeping is a single cache-line read.  Every task of the stage is in
/// exactly one of four places, so at all times
/// `pending + running + finished + (queued retries of the stage) = num_tasks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct StageCounts {
    /// Fresh tasks not yet dispatched (queued retries are not counted).
    pending: u32,
    /// Tasks in flight.
    running: u32,
    /// Tasks finished.
    finished: u32,
}

/// Task-level progress of one job executing on a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    frontier: Frontier,
    /// Per-stage task counts, indexed by stage.  Together with the retry
    /// queue they decide stage completion and the next fresh task index, so
    /// neither [`JobProgress::finish_task`] nor the fresh-task branch of
    /// [`JobProgress::dispatch_task`] reads the stage's task count from the
    /// DAG (debug builds check both against it).
    counts: Vec<StageCounts>,
    /// Incrementally maintained set of stages that are runnable *and* still
    /// have undispatched tasks, ascending by stage id.
    dispatchable: Vec<StageId>,
    /// Failed tasks released for re-dispatch: `(stage, task index)` pairs in
    /// failure order.  Empty on every fault-free run — the retry path costs
    /// a single `is_empty` check until a task actually fails.
    retry: Vec<(StageId, u32)>,
    /// Executor-seconds of work queued in `retry` (kept incrementally so
    /// `remaining_work` stays O(stages); clamped back to exactly 0.0 when
    /// the queue empties so fault-free arithmetic is untouched).
    retry_work: f64,
    /// Bitset of the stages whose `pending` count is non-zero (bit `s % 64`
    /// of word `s / 64`).  `pending` never grows — a failed task joins the
    /// retry queue instead — so a bit is only ever cleared, by the fresh
    /// dispatch that takes a stage's last fresh task.
    pending_stages: Vec<u64>,
    /// Monotonic counter bumped by every dispatch and every failure — the
    /// only mutations that change which tasks are undispatched (see
    /// [`JobProgress::pending_version`]).
    pending_version: u64,
    /// Monotonic counter bumped whenever a stage enters or leaves
    /// `dispatchable` (see [`JobProgress::dispatchable_version`]).
    dispatchable_version: u64,
}

impl JobProgress {
    /// Creates progress state for a fresh job.
    pub fn new(job: &JobDag) -> Self {
        let frontier = Frontier::new(job);
        let counts: Vec<StageCounts> = job
            .stages()
            .map(|s| StageCounts {
                // Validation rejects a job of more than `u32::MAX` tasks.
                pending: u32::try_from(s.num_tasks())
                    .expect("a stage holds at most u32::MAX tasks"),
                running: 0,
                finished: 0,
            })
            .collect();
        // Every stage holds at least one task in a validated job, so the
        // initial dispatchable set is exactly the runnable set; the pending
        // test only matters for hand-assembled jobs with empty stages.
        // Stage ids are visited in ascending order, so the set is born
        // sorted.
        let dispatchable = job
            .stage_ids()
            .filter(|&s| frontier.is_runnable(s) && counts[s.index()].pending > 0)
            .collect();
        let mut pending_stages = vec![0u64; counts.len().div_ceil(64)];
        for (s, c) in counts.iter().enumerate() {
            if c.pending > 0 {
                pending_stages[s / 64] |= 1 << (s % 64);
            }
        }
        JobProgress {
            frontier,
            counts,
            dispatchable,
            retry: Vec::new(),
            retry_work: 0.0,
            pending_stages,
            pending_version: 0,
            dispatchable_version: 0,
        }
    }

    /// A monotonic counter bumped by every successful dispatch and every
    /// failure, and by nothing else.  Those are the only mutations that
    /// change the undispatched work: a finish moves a task from running to
    /// finished.  So for one job within one timeline, an equal pending
    /// version means bit-equal [`JobProgress::remaining_work`].  It says
    /// nothing about the dispatchable set: a dispatch that leaves pending
    /// tasks in its stage moves the version and not the set, and a stage
    /// completion moves the set and not the version.  Policies key per-job
    /// caches of the remaining work by it and revalidate in O(1).
    ///
    /// The counter travels with the progress through migration and
    /// snapshot/restore.  A caller that restores an engine to an earlier
    /// snapshot must pair it with equivalently warmed scheduler state (the
    /// snapshot contract), or counters from the abandoned future could
    /// alias.  O(1).
    pub fn pending_version(&self) -> u64 {
        self.pending_version
    }

    /// A monotonic counter bumped whenever a stage enters or leaves
    /// [`JobProgress::dispatchable_stages`], and by nothing else: by the
    /// dispatch that takes a stage's last pending task or queued retry, by
    /// a failure that puts a stage back into the set, and by a stage
    /// completion that makes a child with pending tasks runnable.  A
    /// dispatch that leaves pending tasks in its stage, a failure in a
    /// stage that is still dispatchable and a finish that unlocks no child
    /// leave it alone.  So for one job within one timeline, an equal
    /// dispatchable version means the same dispatchable set, and per-stage
    /// terms derived from the set can be kept.  The same snapshot caveat
    /// as [`JobProgress::pending_version`] applies.  O(1).
    pub fn dispatchable_version(&self) -> u64 {
        self.dispatchable_version
    }

    /// Structural frontier (completed stages, runnable test).
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }

    /// Stages that are runnable *and* still have undispatched tasks.
    /// This is the set `A_t` of Definition 4.1 restricted to this job.
    /// O(1): the set is maintained incrementally by
    /// [`JobProgress::dispatch_task`] and [`JobProgress::finish_task`].
    pub fn dispatchable_stages(&self) -> &[StageId] {
        &self.dispatchable
    }

    /// True if at least one stage is runnable with undispatched tasks.
    pub fn has_dispatchable_work(&self) -> bool {
        !self.dispatchable.is_empty()
    }

    /// Number of undispatched tasks of `stage`, counting failed tasks that
    /// have been released for re-dispatch.
    pub fn pending_tasks(&self, stage: StageId) -> usize {
        let retries = if self.retry.is_empty() {
            0
        } else {
            self.retry.iter().filter(|&&(s, _)| s == stage).count()
        };
        self.counts[stage.index()].pending as usize + retries
    }

    /// Number of in-flight tasks of `stage`.
    pub fn running_tasks(&self, stage: StageId) -> usize {
        self.counts[stage.index()].running as usize
    }

    /// Number of finished tasks of `stage`.
    pub fn finished_tasks(&self, stage: StageId) -> usize {
        self.counts[stage.index()].finished as usize
    }

    /// Total undispatched tasks over all runnable and future stages,
    /// counting failed tasks queued for re-dispatch.
    pub fn total_pending_tasks(&self) -> usize {
        self.counts.iter().map(|c| c.pending as usize).sum::<usize>() + self.retry.len()
    }

    /// Number of failed tasks currently queued for re-dispatch.
    pub fn queued_retries(&self) -> usize {
        self.retry.len()
    }

    /// Remaining work (executor-seconds) of undispatched tasks, an input to
    /// Decima-style scoring and GreenHadoop window sizing.
    ///
    /// O(stages with fresh pending tasks): answered from the DAG's cached
    /// per-stage duration suffix sums ([`JobDag::duration_suffix_sums`])
    /// instead of walking every task, and folded only over the stages in
    /// the pending bitset.  A stage's term is the suffix sum that starts at
    /// its first undispatched task, which lies `pending` entries before
    /// the stage's empty suffix (the last entry of its block), so each
    /// term takes one offset load and one count load.  Bit-identical to a
    /// direct task-by-task recomputation over every stage: a stage with no
    /// fresh pending task would add its empty suffix sum, which `f64`'s
    /// `Sum` makes `-0.0`, and `x + -0.0` is `x` bit for bit.  The fold
    /// starts from that same neutral element, `-0.0`, and adds the kept
    /// terms in stage order, so a job with nothing pending still yields
    /// `-0.0`.
    pub fn remaining_work(&self, job: &JobDag) -> f64 {
        let (offsets, sums) = job.duration_suffix_sums();
        debug_assert_eq!(job.num_stages() + 1, offsets.len());
        let mut fresh = -0.0;
        for (w, &word) in self.pending_stages.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                fresh += sums[offsets[s + 1] as usize - 1 - self.counts[s].pending as usize];
            }
        }
        // Failed tasks awaiting re-dispatch are neither pending (above) nor
        // running; add their tracked work back.  The guard keeps fault-free
        // arithmetic bit-identical (no `+ 0.0` term on the hot path).
        if self.retry_work != 0.0 {
            fresh + self.retry_work
        } else {
            fresh
        }
    }

    /// Marks one task of `stage` as dispatched, returning the index of the
    /// task within the stage.  Failed tasks queued for re-dispatch go first
    /// (in failure order, keeping their original indices); fresh tasks are
    /// dispatched in order after them.  Returns `None` if the stage is not
    /// runnable or has no pending tasks.
    pub fn dispatch_task(&mut self, job: &JobDag, stage: StageId) -> Option<usize> {
        if !self.frontier.is_runnable(stage) {
            return None;
        }
        if !self.retry.is_empty() {
            if let Some(pos) = self.retry.iter().position(|&(s, _)| s == stage) {
                let (_, task) = self.retry.remove(pos);
                if self.retry.is_empty() {
                    self.retry_work = 0.0;
                } else {
                    self.retry_work -= job.stage(stage).tasks[task as usize].duration;
                }
                let counts = &mut self.counts[stage.index()];
                counts.running += 1;
                if counts.pending == 0 && !self.retry.iter().any(|&(s, _)| s == stage) {
                    sorted_remove(&mut self.dispatchable, stage);
                    self.dispatchable_version += 1;
                }
                self.pending_version += 1;
                return Some(task as usize);
            }
        }
        let counts = &mut self.counts[stage.index()];
        if counts.pending == 0 {
            return None;
        }
        // Fresh tasks go out in index order, and no retry of this stage is
        // queued here (the branch above takes those first), so the fresh
        // tasks handed out so far are exactly the running and finished ones.
        let idx = (counts.finished + counts.running) as usize;
        debug_assert_eq!(idx, job.stage(stage).num_tasks() - counts.pending as usize);
        counts.pending -= 1;
        counts.running += 1;
        if counts.pending == 0 {
            // No retry entries can exist for this stage here: the retry
            // branch above consumes them before any fresh task is taken.
            sorted_remove(&mut self.dispatchable, stage);
            self.dispatchable_version += 1;
            self.pending_stages[stage.index() / 64] &= !(1 << (stage.index() % 64));
        }
        self.pending_version += 1;
        Some(idx)
    }

    /// Marks one running task of `stage` as failed and queues it for
    /// re-dispatch: the task leaves the running count, rejoins the
    /// dispatchable work of the stage (`stage` re-enters the dispatchable
    /// set), and will be handed out again by [`JobProgress::dispatch_task`]
    /// before any fresh task.  `task` is the task's index within the stage,
    /// as returned by the dispatch that started it.
    ///
    /// # Panics
    /// Panics if no task of `stage` is currently running.
    pub fn fail_task(&mut self, job: &JobDag, stage: StageId, task: usize) {
        let counts = &mut self.counts[stage.index()];
        assert!(
            counts.running > 0,
            "fail_task called for {stage} with no running tasks"
        );
        debug_assert!(
            self.frontier.is_runnable(stage),
            "a stage with a running task must be runnable"
        );
        counts.running -= 1;
        self.retry.push((stage, task as u32));
        self.retry_work += job.stage(stage).tasks[task].duration;
        if sorted_insert(&mut self.dispatchable, stage) {
            self.dispatchable_version += 1;
        }
        self.pending_version += 1;
    }

    /// Marks one running task of `stage` as finished.  Returns `true` if this
    /// completed the stage (all tasks finished), which callers must follow by
    /// scheduling newly-runnable stages.
    ///
    /// # Panics
    /// Panics if no task of `stage` is currently running.
    pub fn finish_task(&mut self, job: &JobDag, stage: StageId) -> bool {
        let counts = &mut self.counts[stage.index()];
        assert!(
            counts.running > 0,
            "finish_task called for {stage} with no running tasks"
        );
        counts.running -= 1;
        counts.finished += 1;
        // Every task is pending, running, finished or queued for retry, so
        // the stage is complete exactly when none is in the other three
        // places; the DAG is read only when it is.  The retry queue is empty
        // on a fault-free run, so its scan costs nothing there.
        let complete = counts.pending == 0
            && counts.running == 0
            && !self.retry.iter().any(|&(s, _)| s == stage);
        debug_assert_eq!(
            complete,
            counts.finished as usize == job.stage(stage).num_tasks(),
            "{stage}: task counts out of step with the DAG"
        );
        if !complete {
            return false;
        }
        self.frontier.complete(job, stage);
        // O(children): any child that just became runnable joins the
        // dispatchable set if it still has undispatched tasks.
        for &c in job.adjacency.children(stage) {
            if self.frontier.is_runnable(c) && self.counts[c.index()].pending > 0 {
                sorted_insert(&mut self.dispatchable, c);
                self.dispatchable_version += 1;
            }
        }
        true
    }

    /// True when every stage of the job has completed.
    pub fn job_complete(&self) -> bool {
        self.frontier.job_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JobDagBuilder;
    use crate::task::Task;

    fn diamond() -> JobDag {
        JobDagBuilder::new("diamond")
            .stage("a", vec![Task::new(1.0), Task::new(1.0)])
            .stage("b", vec![Task::new(2.0)])
            .stage("c", vec![Task::new(2.0)])
            .stage("d", vec![Task::new(3.0)])
            .edge_by_name("a", "b")
            .unwrap()
            .edge_by_name("a", "c")
            .unwrap()
            .edge_by_name("b", "d")
            .unwrap()
            .edge_by_name("c", "d")
            .unwrap()
            .build()
            .unwrap()
    }

    /// The runnable stages, in increasing id order.
    fn runnable(f: &Frontier, job: &JobDag) -> Vec<StageId> {
        job.stage_ids().filter(|&s| f.is_runnable(s)).collect()
    }

    #[test]
    fn frontier_initially_sources() {
        let job = diamond();
        let f = Frontier::new(&job);
        assert_eq!(runnable(&f, &job), vec![StageId(0)]);
        assert!(!f.job_complete());
    }

    #[test]
    fn frontier_unlocks_children() {
        let job = diamond();
        let mut f = Frontier::new(&job);
        f.complete(&job, StageId(0));
        assert_eq!(runnable(&f, &job), vec![StageId(1), StageId(2)]);
        f.complete(&job, StageId(1));
        // d still blocked on c.
        assert_eq!(runnable(&f, &job), vec![StageId(2)]);
        f.complete(&job, StageId(2));
        assert_eq!(runnable(&f, &job), vec![StageId(3)]);
        f.complete(&job, StageId(3));
        assert!(f.job_complete());
        assert_eq!(f.num_completed(), 4);
        assert!(runnable(&f, &job).is_empty());
    }

    #[test]
    fn runnable_set_stays_sorted() {
        // A fan-out where completing the root unlocks several children at
        // once; insertion order of the children differs from id order, and
        // the dispatchable set they join must still come out ascending.
        let job = JobDagBuilder::new("fan")
            .stage("root", vec![Task::new(1.0)])
            .stage("c1", vec![Task::new(1.0)])
            .stage("c2", vec![Task::new(1.0)])
            .stage("c3", vec![Task::new(1.0)])
            .edge_by_name("root", "c3")
            .unwrap()
            .edge_by_name("root", "c1")
            .unwrap()
            .edge_by_name("root", "c2")
            .unwrap()
            .build()
            .unwrap();
        let mut p = JobProgress::new(&job);
        p.dispatch_task(&job, StageId(0)).unwrap();
        assert!(p.finish_task(&job, StageId(0)));
        assert_eq!(p.dispatchable_stages(), vec![StageId(1), StageId(2), StageId(3)]);
    }

    #[test]
    fn progress_dispatch_and_finish() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        assert_eq!(p.dispatchable_stages(), vec![StageId(0)]);
        assert!(p.has_dispatchable_work());
        assert_eq!(p.total_pending_tasks(), 5);

        // Dispatch both tasks of the source stage.
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(0));
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(1));
        assert_eq!(p.dispatch_task(&job, StageId(0)), None, "no more tasks");
        assert_eq!(p.pending_tasks(StageId(0)), 0);
        assert_eq!(p.running_tasks(StageId(0)), 2);
        // A fully dispatched stage leaves the dispatchable set immediately.
        assert!(p.dispatchable_stages().is_empty());
        assert!(!p.has_dispatchable_work());
        // Dispatching a blocked stage fails.
        assert_eq!(p.dispatch_task(&job, StageId(3)), None);

        assert!(!p.finish_task(&job, StageId(0)), "stage not done after 1 of 2");
        assert!(p.finish_task(&job, StageId(0)), "stage done after 2 of 2");
        assert_eq!(p.dispatchable_stages(), vec![StageId(1), StageId(2)]);
        assert!(!p.job_complete());
    }

    #[test]
    fn remaining_work_decreases_with_dispatch() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        let w0 = p.remaining_work(&job);
        assert!((w0 - job.total_work()).abs() < 1e-12);
        p.dispatch_task(&job, StageId(0)).unwrap();
        let w1 = p.remaining_work(&job);
        assert!(w1 < w0);
    }

    #[test]
    fn remaining_work_matches_direct_sum_bitwise() {
        let job = JobDagBuilder::new("jitter")
            .stage(
                "a",
                vec![Task::new(0.1), Task::new(0.7), Task::new(1.3), Task::new(2.9)],
            )
            .stage("b", vec![Task::new(0.2), Task::new(5.5)])
            .edge_by_name("a", "b")
            .unwrap()
            .build()
            .unwrap();
        let mut p = JobProgress::new(&job);
        loop {
            let direct: f64 = job
                .stage_ids()
                .map(|s| {
                    let stage = job.stage(s);
                    let done = stage.num_tasks() - p.pending_tasks(s);
                    stage.tasks.iter().skip(done).map(|t| t.duration).sum::<f64>()
                })
                .sum();
            assert_eq!(p.remaining_work(&job).to_bits(), direct.to_bits());
            let Some(&s) = p.dispatchable_stages().first() else { break };
            p.dispatch_task(&job, s).unwrap();
            while p.running_tasks(s) > 0 {
                p.finish_task(&job, s);
            }
        }
        assert_eq!(p.remaining_work(&job), 0.0);
    }

    /// The reference `remaining_work`: a fold over every stage, fully
    /// dispatched ones adding their empty suffix sum.
    fn all_stage_remaining_work(p: &JobProgress, job: &JobDag) -> f64 {
        let (offsets, sums) = job.duration_suffix_sums();
        let fresh: f64 = (0..p.counts.len())
            .map(|s| {
                let offset = offsets[s] as usize;
                let tasks = (offsets[s + 1] as usize - offset) - 1;
                sums[offset + tasks - p.counts[s].pending as usize]
            })
            .sum();
        if p.retry_work != 0.0 {
            fresh + p.retry_work
        } else {
            fresh
        }
    }

    /// Ids (as indices) of the stages in the pending bitset, ascending.
    fn pending_stage_indices(p: &JobProgress) -> Vec<usize> {
        (0..p.counts.len())
            .filter(|&s| p.pending_stages[s / 64] & (1 << (s % 64)) != 0)
            .collect()
    }

    /// The bitset holds exactly the stages whose fresh pending count is
    /// non-zero, and `remaining_work` equals the all-stage fold bit for bit.
    fn assert_pending_state(p: &JobProgress, job: &JobDag, step: &str) {
        let from_bits = pending_stage_indices(p);
        let from_counts: Vec<usize> =
            (0..p.counts.len()).filter(|&s| p.counts[s].pending > 0).collect();
        assert_eq!(from_bits, from_counts, "pending bitset after {step}");
        assert_eq!(
            p.remaining_work(job).to_bits(),
            all_stage_remaining_work(p, job).to_bits(),
            "remaining work after {step}"
        );
    }

    #[test]
    fn pending_bitset_and_remaining_work_track_dispatch_failure_and_finish() {
        // 70 independent stages, so the bitset spans two words and every
        // stage is dispatchable at once; durations that do not add exactly
        // make any change in summation order visible in the bits.
        let mut builder = JobDagBuilder::new("wide");
        for i in 0..70 {
            let tasks = (0..1 + i % 3).map(|k| Task::new(0.1 + 0.37 * (i * 3 + k) as f64));
            builder.add_stage(format!("s{i}"), tasks);
        }
        let job = builder.build().unwrap();
        let mut p = JobProgress::new(&job);
        assert_pending_state(&p, &job, "creation");
        // Exhaust the stages out of id order.  Every third stage loses its
        // last task to a failure whose retry stays queued while the later
        // stages drain; every third finishes one task.
        let mut queued = Vec::new();
        for k in 0..70u32 {
            let stage = StageId((k * 37) % 70);
            let mut last = None;
            while let Some(task) = p.dispatch_task(&job, stage) {
                assert_pending_state(&p, &job, &format!("dispatching {stage}"));
                last = Some(task);
            }
            if k % 3 == 0 {
                p.fail_task(&job, stage, last.expect("every stage has a task"));
                queued.push(stage);
                assert_pending_state(&p, &job, &format!("failing {stage}"));
            } else if k % 3 == 1 {
                p.finish_task(&job, stage);
                assert_pending_state(&p, &job, &format!("finishing {stage}"));
            }
        }
        assert!(pending_stage_indices(&p).is_empty());
        assert_eq!(p.queued_retries(), queued.len());
        assert!(p.remaining_work(&job) > 0.0, "queued retries still count");
        for stage in queued {
            p.dispatch_task(&job, stage).expect("the retry is dispatchable");
            assert_pending_state(&p, &job, &format!("re-dispatching {stage}"));
        }
        assert_eq!(p.remaining_work(&job).to_bits(), (-0.0f64).to_bits());
        // Drain everything still running: finishes move no pending bit.
        for s in job.stage_ids() {
            while p.running_tasks(s) > 0 {
                p.finish_task(&job, s);
                assert_pending_state(&p, &job, &format!("finishing {s}"));
            }
        }
        assert!(p.job_complete());
    }

    #[test]
    fn pending_version_moves_with_dispatch_and_failure_only() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        let versions = |p: &JobProgress| (p.pending_version(), p.dispatchable_version());
        assert_eq!(versions(&p), (0, 0));
        p.dispatch_task(&job, StageId(0)).unwrap();
        assert_eq!(versions(&p), (1, 0), "a dispatch that leaves pending tasks keeps the set");
        p.dispatch_task(&job, StageId(0)).unwrap();
        assert_eq!(versions(&p), (2, 1), "the last pending task takes its stage out");
        assert_eq!(p.dispatch_task(&job, StageId(0)), None);
        assert_eq!(versions(&p), (2, 1), "a refused dispatch changes nothing");
        p.fail_task(&job, StageId(0), 1);
        assert_eq!(versions(&p), (3, 2), "a failure puts its stage back");
        assert!(!p.finish_task(&job, StageId(0)));
        assert_eq!(versions(&p), (3, 2), "a finish leaves the pending work alone");
        p.dispatch_task(&job, StageId(0)).unwrap();
        assert_eq!(versions(&p), (4, 3), "a retry dispatch counts");
        assert!(p.finish_task(&job, StageId(0)));
        assert_eq!(p.pending_version(), 4, "a stage completion shows in num_completed");
        assert_eq!(p.dispatchable_version(), 5, "and in the set, once per unlocked child");
        assert_eq!(p.frontier().num_completed(), 1);
    }

    #[test]
    fn full_execution_completes_job() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        // Drive to completion by repeatedly dispatching+finishing everything.
        let mut safety = 0;
        while !p.job_complete() {
            safety += 1;
            assert!(safety < 100, "progress loop did not terminate");
            let stages: Vec<StageId> = p.dispatchable_stages().to_vec();
            if stages.is_empty() {
                panic!("no dispatchable stages but job incomplete");
            }
            for s in stages {
                while p.dispatch_task(&job, s).is_some() {}
                while p.running_tasks(s) > 0 {
                    p.finish_task(&job, s);
                }
            }
        }
        assert_eq!(p.total_pending_tasks(), 0);
        assert!(p.dispatchable_stages().is_empty());
    }

    #[test]
    #[should_panic(expected = "no running tasks")]
    fn finish_without_dispatch_panics() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        p.finish_task(&job, StageId(0));
    }

    #[test]
    fn failed_tasks_are_redispatched_first_with_original_indices() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(0));
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(1));
        assert!(!p.has_dispatchable_work(), "stage fully dispatched");
        let w_before = p.remaining_work(&job);
        // Task 0 fails: the stage becomes dispatchable again, the retry is
        // visible in the pending counts, and its work is accounted for.
        p.fail_task(&job, StageId(0), 0);
        assert_eq!(p.dispatchable_stages(), vec![StageId(0)]);
        assert_eq!(p.queued_retries(), 1);
        assert_eq!(p.pending_tasks(StageId(0)), 1);
        assert_eq!(p.running_tasks(StageId(0)), 1);
        assert_eq!(p.total_pending_tasks(), 4);
        assert!((p.remaining_work(&job) - (w_before + 1.0)).abs() < 1e-12);
        // Re-dispatch hands back the *same* task index, ahead of nothing
        // fresh (the stage has no fresh tasks left).
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(0));
        assert_eq!(p.queued_retries(), 0);
        assert_eq!(p.remaining_work(&job), w_before, "retry work drained exactly");
        assert!(!p.has_dispatchable_work());
        // Both tasks finish; the stage completes as if nothing happened.
        assert!(!p.finish_task(&job, StageId(0)));
        assert!(p.finish_task(&job, StageId(0)));
        assert_eq!(p.dispatchable_stages(), vec![StageId(1), StageId(2)]);
    }

    #[test]
    fn retries_go_before_fresh_tasks_of_the_same_stage() {
        let job = JobDagBuilder::new("wide")
            .stage("a", vec![Task::new(1.0); 4])
            .build()
            .unwrap();
        let mut p = JobProgress::new(&job);
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(0));
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(1));
        p.fail_task(&job, StageId(0), 0);
        // The failed task 0 is re-handed before fresh task 2.
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(0));
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(2));
        assert_eq!(p.dispatch_task(&job, StageId(0)), Some(3));
        assert_eq!(p.dispatch_task(&job, StageId(0)), None);
    }

    #[test]
    #[should_panic(expected = "no running tasks")]
    fn fail_without_dispatch_panics() {
        let job = diamond();
        let mut p = JobProgress::new(&job);
        p.fail_task(&job, StageId(0), 0);
    }
}
