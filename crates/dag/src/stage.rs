//! A stage: a set of tasks runnable in parallel once all parent stages finish.

use crate::error::DagError;
use crate::ids::StageId;
use crate::task::Task;
use serde::{Deserialize, Serialize};

/// A stage (node) in a job DAG.
///
/// All tasks in a stage are independent of each other and may run in
/// parallel on distinct executors; the stage completes when every task has
/// completed.  Precedence constraints are recorded on the
/// [`JobDag`](crate::job::JobDag), not on the stage itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Identifier of this stage within its job.
    pub id: StageId,
    /// Human-readable name (e.g., `"q17-scan-lineitem"`).
    pub name: String,
    /// The tasks of the stage.  Never empty for a valid job.
    pub tasks: Vec<Task>,
}

impl Stage {
    /// Creates a stage.  Prefer [`crate::JobDagBuilder`] which assigns ids.
    pub fn new(id: StageId, name: impl Into<String>, tasks: Vec<Task>) -> Self {
        Stage {
            id,
            name: name.into(),
            tasks,
        }
    }

    /// Number of tasks in the stage.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Checks the stage's tasks: at least one, at most `u32::MAX` (the
    /// runtime counts a stage's tasks in `u32`), and every duration finite
    /// and non-negative.  O(tasks).
    pub(crate) fn check_tasks(&self) -> Result<(), DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::EmptyStage { stage: self.id });
        }
        if u32::try_from(self.tasks.len()).is_err() {
            return Err(DagError::TooManyTasks {
                stage: self.id,
                tasks: self.tasks.len(),
            });
        }
        match self
            .tasks
            .iter()
            .position(|t| !(t.duration.is_finite() && t.duration >= 0.0))
        {
            Some(task) => Err(DagError::InvalidTaskDuration { stage: self.id, task }),
            None => Ok(()),
        }
    }

    /// Total executor-seconds of work in the stage (sum of task durations).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Duration of the longest task — the minimum wall-clock time to finish
    /// this stage even with unlimited executors.
    pub fn critical_duration(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.duration)
            .fold(0.0_f64, f64::max)
    }

    /// Mean task duration; `0.0` for an (invalid) empty stage.
    pub fn mean_task_duration(&self) -> f64 {
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
    pub fn duration_with_executors(&self, executors: usize) -> f64 {
        if self.tasks.is_empty() || executors == 0 {
            return 0.0;
        }
        let lower = self.total_work() / executors as f64;
        lower.max(self.critical_duration())
    }

    /// Returns the stage with all task durations scaled by `factor` (see
    /// [`Task::scaled`]), rewritten in place.
    pub fn scaled(mut self, factor: f64) -> Self {
        for task in &mut self.tasks {
            *task = task.scaled(factor);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(durations: &[f64]) -> Stage {
        Stage::new(
            StageId(0),
            "s",
            durations.iter().copied().map(Task::new).collect(),
        )
    }

    #[test]
    fn work_and_critical_duration() {
        let s = stage(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.num_tasks(), 4);
        assert!((s.total_work() - 10.0).abs() < 1e-12);
        assert!((s.critical_duration() - 4.0).abs() < 1e-12);
        assert!((s.mean_task_duration() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn duration_with_executors_is_lpt_bound() {
        let s = stage(&[4.0, 4.0, 4.0, 4.0]);
        // 1 executor: all serial.
        assert!((s.duration_with_executors(1) - 16.0).abs() < 1e-12);
        // 2 executors: two rounds.
        assert!((s.duration_with_executors(2) - 8.0).abs() < 1e-12);
        // 8 executors: bounded below by the longest task.
        assert!((s.duration_with_executors(8) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duration_with_zero_executors_is_zero() {
        let s = stage(&[1.0]);
        assert_eq!(s.duration_with_executors(0), 0.0);
    }

    #[test]
    fn duration_with_executors_monotone_in_executors() {
        let s = stage(&[3.0, 1.0, 2.0, 5.0, 0.5]);
        let mut last = f64::INFINITY;
        for e in 1..=10 {
            let d = s.duration_with_executors(e);
            assert!(d <= last + 1e-12, "duration must not increase with more executors");
            last = d;
        }
    }

    #[test]
    fn scaled_scales_every_task() {
        let s = stage(&[10.0, 20.0]).scaled(0.1);
        assert!((s.total_work() - 3.0).abs() < 1e-12);
        assert!((s.critical_duration() - 2.0).abs() < 1e-12);
    }
}
