//! Recording what the cluster did over time.
//!
//! Two time series are collected during a run:
//!
//! * the **usage profile** — number of busy executors as a step function of
//!   time, consumed by the carbon accountant and plotted by Figs. 6 and 15,
//! * **jobs in system** — how many jobs have arrived but not yet completed,
//!   the right-hand panel of Fig. 15.

use pcaps_carbon::UsageSample;
use serde::{Deserialize, Serialize};

/// Time-stamped count used for the jobs-in-system series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CountSample {
    /// Time of the change (schedule seconds).
    pub time: f64,
    /// Value after the change.
    pub count: usize,
}

/// Collected usage information for one simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UsageProfile {
    /// Busy-executor step function.
    pub usage: Vec<UsageSample>,
    /// Jobs-in-system step function.
    pub jobs_in_system: Vec<CountSample>,
}

impl UsageProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        UsageProfile::default()
    }

    /// Records a change in the number of busy executors.
    pub fn record_usage(&mut self, time: f64, busy: usize) {
        // Collapse consecutive samples at the same timestamp, keeping the
        // latest value: many task finishes can share one event time.
        if let Some(last) = self.usage.last_mut() {
            if (last.time - time).abs() < 1e-12 {
                last.busy = busy as f64;
                return;
            }
        }
        self.usage.push(UsageSample {
            time,
            busy: busy as f64,
        });
    }

    /// Records a change in the number of jobs in the system.
    pub fn record_jobs_in_system(&mut self, time: f64, count: usize) {
        if let Some(last) = self.jobs_in_system.last_mut() {
            if (last.time - time).abs() < 1e-12 {
                last.count = count;
                return;
            }
        }
        self.jobs_in_system.push(CountSample { time, count });
    }

    /// Average number of busy executors over `[0, end]`.
    pub fn average_utilization(&self, end: f64) -> f64 {
        if end <= 0.0 || self.usage.is_empty() {
            return 0.0;
        }
        let mut area = 0.0;
        for (i, s) in self.usage.iter().enumerate() {
            let seg_end = if i + 1 < self.usage.len() {
                self.usage[i + 1].time.min(end)
            } else {
                end
            };
            if seg_end > s.time {
                area += s.busy * (seg_end - s.time);
            }
        }
        area / end
    }

    /// Busy-executor count at a given time (step lookup).
    pub fn busy_at(&self, time: f64) -> f64 {
        let mut current = 0.0;
        for s in &self.usage {
            if s.time <= time {
                current = s.busy;
            } else {
                break;
            }
        }
        current
    }

    /// Samples the busy-executor step function on a regular grid of `n`
    /// points over `[0, end]` — convenient for plotting Fig. 6 / Fig. 15.
    pub fn sample_usage(&self, end: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two sample points");
        (0..n)
            .map(|i| {
                let t = end * i as f64 / (n - 1) as f64;
                (t, self.busy_at(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_collapses_same_timestamp() {
        let mut p = UsageProfile::new();
        p.record_usage(0.0, 1);
        p.record_usage(0.0, 3);
        p.record_usage(5.0, 2);
        assert_eq!(p.usage.len(), 2);
        assert_eq!(p.usage[0].busy, 3.0);
    }

    #[test]
    fn average_utilization_simple() {
        let mut p = UsageProfile::new();
        p.record_usage(0.0, 2);
        p.record_usage(10.0, 0);
        // 2 executors for 10 s then 0 for 10 s → average 1 over 20 s.
        assert!((p.average_utilization(20.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_at_step_lookup() {
        let mut p = UsageProfile::new();
        p.record_usage(0.0, 1);
        p.record_usage(10.0, 4);
        assert_eq!(p.busy_at(5.0), 1.0);
        assert_eq!(p.busy_at(10.0), 4.0);
        assert_eq!(p.busy_at(50.0), 4.0);
        assert_eq!(UsageProfile::new().busy_at(1.0), 0.0);
    }

    #[test]
    fn sample_usage_grid() {
        let mut p = UsageProfile::new();
        p.record_usage(0.0, 2);
        p.record_usage(50.0, 6);
        let samples = p.sample_usage(100.0, 5);
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0], (0.0, 2.0));
        assert_eq!(samples[4], (100.0, 6.0));
    }

    #[test]
    fn jobs_in_system_series() {
        let mut p = UsageProfile::new();
        p.record_jobs_in_system(0.0, 1);
        p.record_jobs_in_system(0.0, 2);
        p.record_jobs_in_system(3.0, 1);
        assert_eq!(p.jobs_in_system.len(), 2);
        assert_eq!(p.jobs_in_system[0].count, 2);
    }

    #[test]
    fn empty_profile_zero_utilization() {
        assert_eq!(UsageProfile::new().average_utilization(10.0), 0.0);
    }
}
