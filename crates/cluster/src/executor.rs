//! Executor state tracking.

use pcaps_dag::{JobId, StageId};
use serde::{Deserialize, Serialize};

/// The task an executor is running: what its pending
/// [`Event::TaskFinish`](crate::event::Event::TaskFinish) will finish, kept
/// on the executor so a crash names its victim in O(1) without scanning the
/// event queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningTask {
    /// The task's job.
    pub job: JobId,
    /// The task's stage.
    pub stage: StageId,
    /// The task's index within its stage (what a retry must re-run).
    pub task: usize,
    /// Dispatch time (schedule seconds) — wasted work on a crash is
    /// `crash_time - started`, move delay included.
    pub started: f64,
    /// The task's duration (excluding move delay), for undoing the
    /// dispatch-time pre-charge of `executor_seconds`.
    pub duration: f64,
}

/// Runtime state of a single executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorState {
    /// The task the executor is running (`None` when idle).
    pub running: Option<RunningTask>,
    /// Last job the executor ran a task for — used to decide whether an
    /// executor-movement delay applies when it picks up new work.
    pub last_job: Option<JobId>,
    /// Crashes of the executor while busy.  A dispatch stamps it into its
    /// [`Event::TaskFinish`](crate::event::Event::TaskFinish); a finish
    /// stamped with an older epoch belongs to a killed task and is dropped.
    /// Always 0 on fault-free runs.
    pub epoch: u64,
}

impl ExecutorState {
    /// A fresh idle executor that has never run anything.
    pub fn idle() -> Self {
        ExecutorState { running: None, last_job: None, epoch: 0 }
    }

    /// True if the executor is currently running a task.
    pub fn is_busy(&self) -> bool {
        self.running.is_some()
    }

    /// Whether picking up a task of `job` requires a movement delay (the
    /// executor last served a different job, or never served any).
    pub fn needs_move_delay(&self, job: JobId) -> bool {
        self.last_job != Some(job)
    }
}

/// A pool of executors with free-list maintenance.
///
/// The busy count is maintained incrementally by [`ExecutorPool::start`],
/// [`ExecutorPool::finish`] and [`ExecutorPool::crash`], so
/// [`ExecutorPool::busy_count`] / [`ExecutorPool::free_count`] are O(1) —
/// they are consulted on every iteration of the engine's scheduling loop.
/// The same three calls keep an idle-executor bitmask, so
/// [`ExecutorPool::pick_free_for`] visits only idle executors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutorPool {
    states: Vec<ExecutorState>,
    /// Bit `i % 64` of word `i / 64` is set while executor `i` is idle.
    free: Vec<u64>,
    busy: usize,
}

impl ExecutorPool {
    /// Creates a pool of `n` idle executors.
    pub fn new(n: usize) -> Self {
        let mut pool = ExecutorPool {
            states: vec![ExecutorState::idle(); n],
            free: vec![0; n.div_ceil(64)],
            busy: 0,
        };
        for idx in 0..n {
            pool.set_free(idx);
        }
        pool
    }

    fn set_free(&mut self, idx: usize) {
        self.free[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear_free(&mut self, idx: usize) {
        self.free[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Total number of executors.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the pool has no executors (never the case in a valid config).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of currently busy executors.  O(1).
    pub fn busy_count(&self) -> usize {
        self.busy
    }

    /// Number of currently idle executors.  O(1).
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.len() - self.busy,
            self.free.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            "idle count and idle bitmask disagree"
        );
        self.len() - self.busy
    }

    /// Marks idle executor `idx` busy running `task`.
    pub fn start(&mut self, idx: usize, task: RunningTask) {
        let e = &mut self.states[idx];
        debug_assert!(!e.is_busy(), "executor double-booked");
        e.running = Some(task);
        self.clear_free(idx);
        self.busy += 1;
    }

    /// Marks busy executor `idx` idle after its task finished.
    pub fn finish(&mut self, idx: usize) {
        let e = &mut self.states[idx];
        let task = e.running.take().expect("an idle executor cannot finish a task");
        e.last_job = Some(task.job);
        self.set_free(idx);
        self.busy -= 1;
    }

    /// Crashes executor `idx`.  A busy executor loses its task, which is
    /// returned: its epoch is bumped (so the task's pending finish is
    /// stale) and the replacement process starts cold, with no warm-start
    /// affinity (its next task pays the movement delay like a fresh
    /// executor's).  An idle executor is left unchanged.
    pub fn crash(&mut self, idx: usize) -> Option<RunningTask> {
        let e = &mut self.states[idx];
        let task = e.running.take()?;
        e.last_job = None;
        e.epoch += 1;
        self.set_free(idx);
        self.busy -= 1;
        Some(task)
    }

    /// State of executor `idx`.
    pub fn get(&self, idx: usize) -> &ExecutorState {
        &self.states[idx]
    }

    /// Picks an idle executor for `job`, preferring one whose last job was
    /// `job` (so no movement delay applies), else the lowest-indexed idle
    /// one.  Returns its index.  Walks the idle bitmask in index order, so
    /// it costs O(words + idle executors), not O(executors).
    pub fn pick_free_for(&self, job: JobId) -> Option<usize> {
        let mut fallback = None;
        for (w, &word) in self.free.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                if self.states[i].last_job == Some(job) {
                    return Some(i);
                }
                fallback.get_or_insert(i);
                bits &= bits - 1;
            }
        }
        fallback
    }

    /// The lowest-indexed idle executor.  While no idle executor last ran
    /// a task of `job`, this is [`ExecutorPool::pick_free_for`]`(job)`,
    /// found without reading a single executor record.
    pub(crate) fn first_free(&self) -> Option<usize> {
        let (w, word) = self.free.iter().enumerate().find(|(_, &word)| word != 0)?;
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Iterates over `(index, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ExecutorState)> {
        self.states.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A task of `job` dispatched at t=0 (stage 0, task 0, 1 s).
    fn task(job: u64) -> RunningTask {
        RunningTask { job: JobId(job), stage: StageId(0), task: 0, started: 0.0, duration: 1.0 }
    }

    #[test]
    fn lifecycle() {
        let mut pool = ExecutorPool::new(1);
        let e = pool.get(0);
        assert!(!e.is_busy());
        assert!(e.needs_move_delay(JobId(0)));
        pool.start(0, task(0));
        assert!(pool.get(0).is_busy());
        assert_eq!(pool.get(0).running, Some(task(0)));
        pool.finish(0);
        let e = pool.get(0);
        assert!(!e.is_busy());
        assert_eq!(e.last_job, Some(JobId(0)));
        assert!(!e.needs_move_delay(JobId(0)));
        assert!(e.needs_move_delay(JobId(1)));
    }

    #[test]
    fn pool_counts() {
        let mut pool = ExecutorPool::new(3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.free_count(), 3);
        pool.start(1, task(0));
        assert_eq!(pool.busy_count(), 1);
        assert_eq!(pool.free_count(), 2);
        pool.finish(1);
        assert_eq!(pool.busy_count(), 0);
        assert_eq!(pool.free_count(), 3);
        assert!(!pool.is_empty());
    }

    #[test]
    fn pick_prefers_warm_executor() {
        let mut pool = ExecutorPool::new(3);
        // Executor 2 previously ran job 7.
        pool.start(2, task(7));
        pool.finish(2);
        assert_eq!(pool.pick_free_for(JobId(7)), Some(2));
        // For a different job any free executor (the first) is fine.
        assert_eq!(pool.pick_free_for(JobId(1)), Some(0));
    }

    #[test]
    fn pick_none_when_all_busy() {
        let mut pool = ExecutorPool::new(2);
        pool.start(0, task(0));
        pool.start(1, task(1));
        assert_eq!(pool.pick_free_for(JobId(0)), None);
    }

    #[test]
    fn iter_enumerates_all() {
        let pool = ExecutorPool::new(4);
        assert_eq!(pool.iter().count(), 4);
    }

    /// The linear scan `pick_free_for` used before the idle bitmask, kept
    /// as its oracle.
    fn pick_by_scan(pool: &ExecutorPool, job: JobId) -> Option<usize> {
        let mut fallback = None;
        for (i, e) in pool.iter() {
            if e.is_busy() {
                continue;
            }
            if e.last_job == Some(job) {
                return Some(i);
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
        }
        fallback
    }

    /// Pool sizes around the idle mask's word boundaries.
    const POOL_SIZES: [usize; 6] = [1, 63, 64, 65, 100, 130];

    /// One random start, finish or crash on `pool`.  Phases (by `step`)
    /// mostly start, mostly finish, or mix, so a pool passes through
    /// all-busy, all-idle and the word boundaries in between.
    fn churn(pool: &mut ExecutorPool, rng: &mut ChaCha8Rng, step: usize) {
        let p_start = [0.5, 0.9, 0.15][(step / 250) % 3];
        let (idle, busy): (Vec<usize>, Vec<usize>) =
            (0..pool.len()).partition(|&i| !pool.get(i).is_busy());
        if !idle.is_empty() && (busy.is_empty() || rng.gen_range(0.0..1.0) < p_start) {
            let idx = idle[rng.gen_range(0..idle.len())];
            pool.start(idx, task(rng.gen_range(0..6u64)));
        } else {
            let idx = busy[rng.gen_range(0..busy.len())];
            if rng.gen_range(0..8usize) == 0 {
                assert!(pool.crash(idx).is_some());
            } else {
                pool.finish(idx);
            }
        }
    }

    #[test]
    fn pick_free_for_matches_the_linear_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE7EC);
        for n in POOL_SIZES {
            let mut pool = ExecutorPool::new(n);
            for step in 0..3_000 {
                churn(&mut pool, &mut rng, step);
                let popcount: usize = pool.free.iter().map(|w| w.count_ones() as usize).sum();
                let idle_now = pool.iter().filter(|(_, e)| !e.is_busy()).count();
                assert_eq!(pool.free_count(), popcount, "n {n} step {step}: popcount");
                assert_eq!(pool.free_count(), idle_now, "n {n} step {step}: idle count");
                for job in 0..7 {
                    let job = JobId(job);
                    assert_eq!(
                        pool.pick_free_for(job),
                        pick_by_scan(&pool, job),
                        "n {n} step {step}: pick for {job}"
                    );
                }
            }
        }
    }

    /// The engine's dispatch loop starts a job's tasks one at a time on
    /// its picks, and after the first cold pick takes the lowest idle
    /// executor instead of picking: starting a task warms no idle
    /// executor, so `pick_free_for` must keep returning exactly that one.
    #[test]
    fn after_a_cold_pick_the_pick_is_the_lowest_idle_executor() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC01D);
        let mut cold_picks = 0;
        for n in POOL_SIZES {
            let mut pool = ExecutorPool::new(n);
            for step in 0..600 {
                churn(&mut pool, &mut rng, step);
                for job in 0..7 {
                    let job = JobId(job);
                    let mut pool = pool.clone();
                    let mut cold = false;
                    while let Some(idx) = pool.pick_free_for(job) {
                        if cold {
                            assert_eq!(Some(idx), pool.first_free(), "n {n} step {step} {job}");
                            cold_picks += 1;
                        }
                        cold = cold || pool.get(idx).needs_move_delay(job);
                        pool.start(idx, task(job.0));
                    }
                    assert_eq!(pool.first_free(), None, "n {n} step {step} {job}");
                }
            }
        }
        assert!(cold_picks > 10_000, "only {cold_picks} picks followed a cold one");
    }

    #[test]
    fn crash_cold_resets_a_busy_executor() {
        let mut pool = ExecutorPool::new(2);
        pool.start(0, task(7));
        assert_eq!(pool.busy_count(), 1);
        assert_eq!(pool.crash(0), Some(task(7)), "the crash returns its victim");
        assert_eq!(pool.busy_count(), 0);
        let e = pool.get(0);
        assert!(!e.is_busy());
        assert_eq!(e.epoch, 1, "the killed task's finish is stale");
        assert_eq!(e.last_job, None, "warm-start affinity is lost on crash");
        assert!(e.needs_move_delay(JobId(7)));
        // An idle executor survives a crash unchanged.
        let idle = *pool.get(1);
        assert_eq!(pool.crash(1), None);
        assert_eq!(*pool.get(1), idle);
        assert_eq!(pool.free_count(), 2);
    }
}
