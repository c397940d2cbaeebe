//! Cluster configuration.

use serde::{Deserialize, Serialize};

/// The default [`ClusterConfig::max_sim_time`]: a ceiling so far out it is
/// effectively "no time limit" for finite trials.  Layers that need a *real*
/// horizon (Poisson fault plans, open-loop serving runs) treat a federation
/// horizon at or beyond this sentinel as unset and demand an explicit one.
pub const NO_TIME_LIMIT: f64 = 1.0e9;

/// Lookahead horizon (carbon-trace seconds) of the forecast bounds `L` and
/// `U` every carbon view carries: 48 hours.
pub use pcaps_carbon::FORECAST_HORIZON;

/// How much of the run's activity the engine records in its
/// [`UsageProfile`].
///
/// [`Full`](ProfileMode::Full) recording grows with the number of *tasks*
/// (one usage sample per dispatch/finish instant), which is exactly what a
/// trace-scale streaming run must not accumulate: a 100k-job Alibaba
/// workload dispatches millions of tasks.  [`Light`](ProfileMode::Light)
/// keeps only the jobs-in-system step function — O(arrivals + completions)
/// samples, enough for the peak-resident-jobs accounting of the scale
/// experiments — and skips the usage series (so carbon accounting, which
/// integrates the usage profile, is unavailable).
///
/// [`UsageProfile`]: crate::profile::UsageProfile
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileMode {
    /// Record both series: the usage step function and jobs-in-system (the
    /// default; required for carbon accounting and the usage figures).
    Full,
    /// Record only the jobs-in-system series; memory stays
    /// O(active + completed jobs), never O(tasks).
    Light,
}

/// Static configuration of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total number of executors (the paper's `K`).
    pub num_executors: usize,
    /// Maximum executors that may simultaneously work for a single job.
    ///
    /// `None` models Spark standalone FIFO behaviour (a stage may take as
    /// many executors as it has tasks); `Some(25)` models the paper's
    /// Spark-on-Kubernetes prototype, which caps each application at 25
    /// executors to avoid a dynamic-allocation hang (§6.3, Appendix A.1.2).
    pub per_job_executor_cap: Option<usize>,
    /// Delay (seconds, schedule time) incurred when an executor starts a task
    /// for a *different* job than the one it last served — models executor
    /// movement / data-locality warm-up, a first-order effect of the Mao et
    /// al. simulator.
    pub executor_move_delay: f64,
    /// Carbon-trace seconds that elapse per schedule second.
    ///
    /// The paper runs experiments where 1 minute of real (schedule) time
    /// corresponds to 1 hour of carbon time, i.e. a scale of 60.  A scale of
    /// 1.0 means schedule time and carbon time coincide.
    pub time_scale: f64,
    /// Hard ceiling on simulated schedule time: a run still incomplete past
    /// it errors out rather than looping.  Possible causes are a policy that
    /// never dispatches, an outage that never ends, or a task or move delay
    /// that ends past the limit.  Must be finite: an infinite ceiling never
    /// trips, so such a run would step the carbon clock forever.
    pub max_sim_time: f64,
    /// Profile recording granularity (default [`ProfileMode::Full`]);
    /// trace-scale streaming runs use [`ProfileMode::Light`] so recorded
    /// state never grows with the task count.
    pub profile_mode: ProfileMode,
}

impl ClusterConfig {
    /// A cluster of `num_executors` executors with paper-default parameters:
    /// no per-job cap, a small executor-move delay and time scale 60 (1
    /// schedule minute = 1 carbon hour).
    pub fn new(num_executors: usize) -> Self {
        assert!(num_executors > 0, "cluster must have at least one executor");
        ClusterConfig {
            num_executors,
            per_job_executor_cap: None,
            executor_move_delay: 0.5,
            time_scale: 60.0,
            max_sim_time: NO_TIME_LIMIT,
            profile_mode: ProfileMode::Full,
        }
    }

    /// Sets the per-job executor cap.
    pub fn with_per_job_cap(mut self, cap: Option<usize>) -> Self {
        if let Some(c) = cap {
            assert!(c > 0, "per-job executor cap must be positive");
        }
        self.per_job_executor_cap = cap;
        self
    }

    /// Sets the executor movement delay (seconds).
    pub fn with_move_delay(mut self, delay: f64) -> Self {
        assert!(delay >= 0.0 && delay.is_finite(), "move delay must be non-negative");
        self.executor_move_delay = delay;
        self
    }

    /// Sets the carbon time scale (carbon seconds per schedule second).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "time scale must be positive");
        self.time_scale = scale;
        self
    }

    /// Sets the maximum simulated schedule time.
    ///
    /// # Panics
    /// Panics unless `max` is positive and finite.
    pub fn with_max_sim_time(mut self, max: f64) -> Self {
        assert!(max > 0.0 && max.is_finite(), "max sim time must be positive and finite");
        self.max_sim_time = max;
        self
    }

    /// Sets the profile recording granularity (default
    /// [`ProfileMode::Full`]).
    pub fn with_profile_mode(mut self, mode: ProfileMode) -> Self {
        self.profile_mode = mode;
        self
    }

    /// Effective cap on executors for one job.
    pub fn job_cap(&self) -> usize {
        self.per_job_executor_cap.unwrap_or(self.num_executors)
    }

    /// Rejects a configuration the builder methods would have refused,
    /// naming the field.  The fields are public, so a struct literal can
    /// bypass their asserts: no executors or a zero cap never finishes a
    /// job, a NaN or negative delay breaks the event order, a zero or NaN
    /// time scale freezes the carbon clock, and a NaN or infinite time
    /// limit never trips.
    pub(crate) fn check(&self) -> Result<(), String> {
        let delay = self.executor_move_delay;
        let failure = if self.num_executors == 0 {
            "num_executors must be at least 1, got 0".to_string()
        } else if self.per_job_executor_cap == Some(0) {
            "per_job_executor_cap must be positive, got Some(0)".to_string()
        } else if !(delay >= 0.0 && delay.is_finite()) {
            format!("executor_move_delay must be non-negative and finite, got {delay}")
        } else if !(self.time_scale > 0.0 && self.time_scale.is_finite()) {
            format!("time_scale must be positive and finite, got {}", self.time_scale)
        } else if !(self.max_sim_time > 0.0 && self.max_sim_time.is_finite()) {
            format!("max_sim_time must be positive and finite, got {}", self.max_sim_time)
        } else {
            return Ok(());
        };
        Err(failure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ClusterConfig::new(10);
        assert_eq!(c.num_executors, 10);
        assert_eq!(c.per_job_executor_cap, None);
        assert_eq!(c.job_cap(), 10);
        assert_eq!(c.time_scale, 60.0);
    }

    #[test]
    fn builder_setters() {
        let c = ClusterConfig::new(5)
            .with_per_job_cap(Some(2))
            .with_move_delay(1.5)
            .with_time_scale(1.0)
            .with_max_sim_time(100.0);
        assert_eq!(c.job_cap(), 2);
        assert_eq!(c.executor_move_delay, 1.5);
        assert_eq!(c.time_scale, 1.0);
        assert_eq!(c.max_sim_time, 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        let _ = ClusterConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "cap must be positive")]
    fn zero_cap_rejected() {
        let _ = ClusterConfig::new(1).with_per_job_cap(Some(0));
    }

    #[test]
    #[should_panic(expected = "max sim time must be positive and finite")]
    fn infinite_time_limit_rejected() {
        let _ = ClusterConfig::new(1).with_max_sim_time(f64::INFINITY);
    }

}
