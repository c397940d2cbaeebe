//! The unit of execution: a task.
//!
//! In Spark terms a task processes one partition of a stage's input data on a
//! single executor core.  For scheduling purposes the only properties that
//! matter are its *duration* (how long one executor is busy running it) and,
//! for fidelity with the simulator of Mao et al. \[48\], an optional *data
//! shuffle size* that contributes to the executor-movement delay when an
//! executor switches jobs.

use serde::{Deserialize, Serialize};

/// A single task: the smallest unit of work assigned to one executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Wall-clock seconds of executor time required to run this task.
    pub duration: f64,
    /// Bytes of shuffle data produced by this task.  Only used to scale the
    /// executor-movement ("data locality warm-up") delay in the simulator;
    /// it does not affect precedence.
    pub shuffle_bytes: u64,
}

impl Task {
    /// Creates a task with the given duration (seconds) and no shuffle data.
    ///
    /// # Panics
    /// Panics if `duration` is not finite or is negative — task durations are
    /// part of the static workload description and a non-finite value is a
    /// programming error in a generator, not a runtime condition.
    pub fn new(duration: f64) -> Self {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "task duration must be finite and non-negative, got {duration}"
        );
        Task {
            duration,
            shuffle_bytes: 0,
        }
    }

    /// Creates a task with a duration and an associated shuffle output size.
    pub fn with_shuffle(duration: f64, shuffle_bytes: u64) -> Self {
        let mut t = Task::new(duration);
        t.shuffle_bytes = shuffle_bytes;
        t
    }

    /// Returns a copy of this task with its duration multiplied by `factor`.
    ///
    /// Used by the workload generators to apply the paper's experiment time
    /// scaling (durations divided by 60 so that one hour of "experiment time"
    /// fits in one minute of real time, §6.1).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite, got {factor}"
        );
        Task {
            duration: self.duration * factor,
            shuffle_bytes: self.shuffle_bytes,
        }
    }
}

impl Default for Task {
    fn default() -> Self {
        Task::new(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_duration() {
        let t = Task::new(12.5);
        assert_eq!(t.duration, 12.5);
        assert_eq!(t.shuffle_bytes, 0);
    }

    #[test]
    fn with_shuffle_sets_bytes() {
        let t = Task::with_shuffle(3.0, 1 << 20);
        assert_eq!(t.duration, 3.0);
        assert_eq!(t.shuffle_bytes, 1 << 20);
    }

    #[test]
    fn scaled_multiplies_duration_only() {
        let t = Task::with_shuffle(60.0, 100);
        let s = t.scaled(1.0 / 60.0);
        assert!((s.duration - 1.0).abs() < 1e-12);
        assert_eq!(s.shuffle_bytes, 100);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_duration() {
        let _ = Task::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_duration() {
        let _ = Task::new(-1.0);
    }

    #[test]
    fn zero_duration_allowed() {
        // Zero-length tasks appear in traces as bookkeeping stages; they must
        // be representable.
        let t = Task::new(0.0);
        assert_eq!(t.duration, 0.0);
    }

    #[test]
    fn default_is_one_second() {
        assert_eq!(Task::default().duration, 1.0);
    }
}
