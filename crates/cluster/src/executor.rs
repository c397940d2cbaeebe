//! Executor state tracking.

use pcaps_dag::JobId;
use serde::{Deserialize, Serialize};

/// Runtime state of a single executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorState {
    /// Job the executor is currently running a task for (`None` when idle).
    pub current_job: Option<JobId>,
    /// Last job the executor ran a task for — used to decide whether an
    /// executor-movement delay applies when it picks up new work.
    pub last_job: Option<JobId>,
}

impl ExecutorState {
    /// A fresh idle executor that has never run anything.
    pub fn idle() -> Self {
        ExecutorState {
            current_job: None,
            last_job: None,
        }
    }

    /// True if the executor is currently running a task.
    pub fn is_busy(&self) -> bool {
        self.current_job.is_some()
    }

    /// Marks the executor busy for `job`.
    pub fn start(&mut self, job: JobId) {
        debug_assert!(!self.is_busy(), "executor double-booked");
        self.current_job = Some(job);
    }

    /// Marks the executor idle after finishing a task.
    pub fn finish(&mut self) {
        debug_assert!(self.is_busy(), "idle executor cannot finish a task");
        self.last_job = self.current_job.take();
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

    /// Marks executor `idx` busy for `job`.
    pub fn start(&mut self, idx: usize, job: JobId) {
        self.states[idx].start(job);
        self.clear_free(idx);
        self.busy += 1;
    }

    /// Marks executor `idx` idle after finishing a task.
    pub fn finish(&mut self, idx: usize) {
        self.states[idx].finish();
        self.set_free(idx);
        self.busy -= 1;
    }

    /// Cold-resets a *busy* executor `idx` after a crash: the in-flight
    /// task is abandoned and the replacement process starts with no
    /// warm-start affinity (`last_job` is cleared, so its next task pays
    /// the movement delay like a fresh executor).
    ///
    /// # Panics
    /// Panics (debug builds) if the executor is idle — crashing an idle
    /// executor is a no-op the engine handles before reaching the pool.
    pub fn crash(&mut self, idx: usize) {
        debug_assert!(self.states[idx].is_busy(), "crash of an idle executor reached the pool");
        self.states[idx] = ExecutorState::idle();
        self.set_free(idx);
        self.busy -= 1;
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

    /// Iterates over `(index, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ExecutorState)> {
        self.states.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut e = ExecutorState::idle();
        assert!(!e.is_busy());
        assert!(e.needs_move_delay(JobId(0)));
        e.start(JobId(0));
        assert!(e.is_busy());
        e.finish();
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
        pool.start(1, JobId(0));
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
        pool.start(2, JobId(7));
        pool.finish(2);
        assert_eq!(pool.pick_free_for(JobId(7)), Some(2));
        // For a different job any free executor (the first) is fine.
        assert_eq!(pool.pick_free_for(JobId(1)), Some(0));
    }

    #[test]
    fn pick_none_when_all_busy() {
        let mut pool = ExecutorPool::new(2);
        pool.start(0, JobId(0));
        pool.start(1, JobId(1));
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

    #[test]
    fn pick_free_for_matches_the_linear_scan() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(0xE7EC);
        for n in [1, 63, 64, 65, 100, 130] {
            let mut pool = ExecutorPool::new(n);
            for step in 0..3_000 {
                // Phases that mostly start, mostly finish, or mix, so the
                // walk visits an all-busy pool, an all-idle one and the
                // word boundaries in between.
                let p_start = [0.5, 0.9, 0.15][(step / 250) % 3];
                let (idle, busy): (Vec<usize>, Vec<usize>) =
                    (0..n).partition(|&i| !pool.get(i).is_busy());
                if !idle.is_empty() && (busy.is_empty() || rng.gen_range(0.0..1.0) < p_start) {
                    let idx = idle[rng.gen_range(0..idle.len())];
                    pool.start(idx, JobId(rng.gen_range(0..6u64)));
                } else {
                    let idx = busy[rng.gen_range(0..busy.len())];
                    if rng.gen_range(0..8usize) == 0 {
                        pool.crash(idx);
                    } else {
                        pool.finish(idx);
                    }
                }
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

    #[test]
    fn crash_cold_resets_a_busy_executor() {
        let mut pool = ExecutorPool::new(2);
        pool.start(0, JobId(7));
        assert_eq!(pool.busy_count(), 1);
        pool.crash(0);
        assert_eq!(pool.busy_count(), 0);
        let e = pool.get(0);
        assert!(!e.is_busy());
        assert_eq!(e.last_job, None, "warm-start affinity is lost on crash");
        assert!(e.needs_move_delay(JobId(7)));
    }
}
