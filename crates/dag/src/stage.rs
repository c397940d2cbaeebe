//! A stage: a set of tasks runnable in parallel once all parent stages finish.

use crate::ids::StageId;
use crate::task::Task;

/// A stage (node) in a job DAG, borrowed from the job.
///
/// A [`JobDag`](crate::job::JobDag) stores its stages flat (every task in
/// one array, every stage name in one string); [`JobDag::stage`] and
/// [`JobDag::stages`] hand out this `Copy` view of one stage's slice of
/// both.  All tasks in a stage are independent of each other and may run in
/// parallel on distinct executors; the stage completes when every task has
/// completed.  Precedence constraints are recorded on the
/// [`JobDag`](crate::job::JobDag), not on the stage itself.
///
/// [`JobDag::stage`]: crate::job::JobDag::stage
/// [`JobDag::stages`]: crate::job::JobDag::stages
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage<'a> {
    /// Identifier of this stage within its job (its index).
    pub id: StageId,
    /// Human-readable name (e.g., `"q17-scan-lineitem"`).
    pub name: &'a str,
    /// The tasks of the stage.  Never empty for a valid job.
    pub tasks: &'a [Task],
}

impl Stage<'_> {
    /// Number of tasks in the stage.
    #[inline]
    pub fn num_tasks(self) -> usize {
        self.tasks.len()
    }

    /// Total executor-seconds of work in the stage (sum of task durations).
    #[inline]
    pub fn total_work(self) -> f64 {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Duration of the longest task — the minimum wall-clock time to finish
    /// this stage even with unlimited executors.
    #[inline]
    pub fn critical_duration(self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.duration)
            .fold(0.0_f64, f64::max)
    }

    /// Mean task duration; `0.0` for an (invalid) empty stage.
    #[inline]
    pub fn mean_task_duration(self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.total_work() / self.tasks.len() as f64
        }
    }

    /// Wall-clock duration of the stage if exactly `executors` executors work
    /// on it, assuming tasks are placed greedily (longest-processing-time
    /// approximation: `max(critical task, total work / executors)`).
    ///
    /// This is the estimate schedulers use to reason about how much a stage
    /// benefits from parallelism; the simulator computes the exact value by
    /// event-driven execution.
    #[inline]
    pub fn duration_with_executors(self, executors: usize) -> f64 {
        if self.tasks.is_empty() || executors == 0 {
            return 0.0;
        }
        let lower = self.total_work() / executors as f64;
        lower.max(self.critical_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JobDagBuilder;

    fn stage(tasks: &[Task]) -> Stage<'_> {
        Stage {
            id: StageId(0),
            name: "s",
            tasks,
        }
    }

    fn tasks(durations: &[f64]) -> Vec<Task> {
        durations.iter().copied().map(Task::new).collect()
    }

    #[test]
    fn work_and_critical_duration() {
        let t = tasks(&[1.0, 2.0, 3.0, 4.0]);
        let s = stage(&t);
        assert_eq!(s.num_tasks(), 4);
        assert!((s.total_work() - 10.0).abs() < 1e-12);
        assert!((s.critical_duration() - 4.0).abs() < 1e-12);
        assert!((s.mean_task_duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_with_executors_is_lpt_bound() {
        let t = tasks(&[4.0, 4.0, 4.0, 4.0]);
        let s = stage(&t);
        // 1 executor: all serial.
        assert!((s.duration_with_executors(1) - 16.0).abs() < 1e-12);
        // 2 executors: two rounds.
        assert!((s.duration_with_executors(2) - 8.0).abs() < 1e-12);
        // 8 executors: bounded below by the longest task.
        assert!((s.duration_with_executors(8) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duration_with_zero_executors_is_zero() {
        let t = tasks(&[1.0]);
        assert_eq!(stage(&t).duration_with_executors(0), 0.0);
    }

    #[test]
    fn duration_with_executors_monotone_in_executors() {
        let t = tasks(&[3.0, 1.0, 2.0, 5.0, 0.5]);
        let s = stage(&t);
        let mut last = f64::INFINITY;
        for e in 1..=10 {
            let d = s.duration_with_executors(e);
            assert!(d <= last + 1e-12, "duration must not increase with more executors");
            last = d;
        }
    }

    #[test]
    fn scaled_scales_every_task() {
        let job = JobDagBuilder::new("j")
            .stage("a", tasks(&[1.0]))
            .stage("b", tasks(&[10.0, 20.0]))
            .build()
            .unwrap()
            .scaled(0.1);
        let s = job.stage(StageId(1));
        assert_eq!((s.id, s.name), (StageId(1), "b"));
        assert!((s.total_work() - 3.0).abs() < 1e-12);
        assert!((s.critical_duration() - 2.0).abs() < 1e-12);
    }
}
