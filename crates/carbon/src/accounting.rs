//! Ex-post carbon footprint accounting.
//!
//! Following §5.2 of the paper, the simulator measures each experiment's
//! carbon footprint *after* the run completes: the schedule's executor-usage
//! profile (how many executors were busy at each instant) is combined with
//! the carbon trace to tally emissions, so the accounting never perturbs
//! simulator fidelity.
//!
//! The footprint of a schedule is
//! `∫ c(t) · E(t) · P_exec dt`, where `E(t)` is the number of busy executors
//! and `P_exec` the per-executor power draw in kilowatts.  The default power
//! (0.2 kW ≈ a 4-vCPU executor's share of a dual-socket server) only scales
//! absolute numbers; every result in the paper is reported *relative* to a
//! baseline, so the choice does not affect reported reductions.

use crate::trace::CarbonTrace;
use serde::{Deserialize, Serialize};

/// One step of an executor-usage profile: `busy` executors were active from
/// `time` until the time of the next sample (or the end of the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UsageSample {
    /// Start of the interval, in seconds.
    pub time: f64,
    /// Number of busy executors over the interval.
    pub busy: f64,
}

/// Ex-post carbon accountant for executor usage profiles.
#[derive(Debug, Clone)]
pub struct CarbonAccountant {
    trace: CarbonTrace,
    executor_power_kw: f64,
    /// Real-time seconds that correspond to one hour of carbon-trace time.
    /// The paper scales experiments so 1 minute of real time = 1 hour of
    /// experiment (carbon) time; see §6.1.
    time_scale: f64,
}

/// Default per-executor power draw in kilowatts.
pub const DEFAULT_EXECUTOR_POWER_KW: f64 = 0.2;

impl CarbonAccountant {
    /// Creates an accountant over a trace with default power and no time
    /// scaling (1 second of schedule time = 1 second of trace time).
    pub fn new(trace: CarbonTrace) -> Self {
        CarbonAccountant {
            trace,
            executor_power_kw: DEFAULT_EXECUTOR_POWER_KW,
            time_scale: 1.0,
        }
    }

    /// Sets the per-executor power draw (kW).
    pub fn with_executor_power(mut self, kw: f64) -> Self {
        assert!(kw > 0.0 && kw.is_finite(), "executor power must be positive");
        self.executor_power_kw = kw;
        self
    }

    /// Sets the time scale: `scale` seconds of carbon-trace time per second
    /// of schedule time.  The paper's experiments use 60.0 (1 real minute =
    /// 1 carbon hour).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "time scale must be positive");
        self.time_scale = scale;
        self
    }

    /// The carbon trace being accounted against.
    pub fn trace(&self) -> &CarbonTrace {
        &self.trace
    }

    /// The configured per-executor power draw in kilowatts.
    pub fn executor_power_kw(&self) -> f64 {
        self.executor_power_kw
    }

    /// The configured time scale (carbon seconds per schedule second).
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Carbon intensity experienced at schedule time `t`.
    pub fn intensity_at(&self, t: f64) -> f64 {
        self.trace.intensity(t * self.time_scale)
    }

    /// Total carbon footprint, in grams of CO₂-equivalent, of a schedule
    /// described by a step-wise usage profile.  Samples must be sorted by
    /// time; the last sample is integrated until `end_time`.
    pub fn footprint_grams(&self, profile: &[UsageSample], end_time: f64) -> f64 {
        if profile.is_empty() {
            return 0.0;
        }
        debug_assert!(
            profile.windows(2).all(|w| w[0].time <= w[1].time),
            "usage profile must be sorted by time"
        );
        let mut grams = 0.0;
        for (i, sample) in profile.iter().enumerate() {
            let seg_start = sample.time;
            let seg_end = if i + 1 < profile.len() {
                profile[i + 1].time
            } else {
                end_time
            };
            if seg_end <= seg_start || sample.busy <= 0.0 {
                continue;
            }
            // Integrate intensity over the (scaled) carbon-time interval.
            let c_int = self
                .trace
                .integrate(seg_start * self.time_scale, seg_end * self.time_scale);
            // c_int has units gCO2/kWh * seconds(carbon time); convert via
            // kW * hours: grams = intensity * power_kw * hours.
            let hours = c_int / 3600.0;
            grams += hours * sample.busy * self.executor_power_kw;
        }
        grams
    }

    /// Footprint of running `executors` executors continuously over
    /// `[t0, t1]` (schedule time).  Convenience for per-job accounting.
    pub fn footprint_interval_grams(&self, executors: f64, t0: f64, t1: f64) -> f64 {
        self.footprint_grams(
            &[UsageSample {
                time: t0,
                busy: executors,
            }],
            t1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_footprint_is_linear() {
        let acct = CarbonAccountant::new(CarbonTrace::constant("flat", 360.0, 48))
            .with_executor_power(1.0);
        // 2 executors for 1 hour at 360 g/kWh with 1 kW each = 720 g.
        let g = acct.footprint_interval_grams(2.0, 0.0, 3600.0);
        assert!((g - 720.0).abs() < 1e-6);
    }

    #[test]
    fn footprint_scales_with_power() {
        let trace = CarbonTrace::constant("flat", 100.0, 48);
        let low = CarbonAccountant::new(trace.clone())
            .with_executor_power(0.1)
            .footprint_interval_grams(1.0, 0.0, 3600.0);
        let high = CarbonAccountant::new(trace)
            .with_executor_power(0.4)
            .footprint_interval_grams(1.0, 0.0, 3600.0);
        assert!((high / low - 4.0).abs() < 1e-9);
    }

    #[test]
    fn profile_with_idle_interval() {
        let acct = CarbonAccountant::new(CarbonTrace::constant("flat", 360.0, 48))
            .with_executor_power(1.0);
        let profile = vec![
            UsageSample { time: 0.0, busy: 1.0 },
            UsageSample { time: 1800.0, busy: 0.0 },
            UsageSample { time: 3600.0, busy: 1.0 },
        ];
        let g = acct.footprint_grams(&profile, 5400.0);
        // 0.5h busy + 0.5h idle + 0.5h busy = 1 executor-hour total.
        assert!((g - 360.0).abs() < 1e-6);
    }

    #[test]
    fn time_scale_maps_minutes_to_hours() {
        // Trace: first hour 100, second hour 500.
        let trace = CarbonTrace::hourly("step", vec![100.0, 500.0, 500.0]);
        let acct = CarbonAccountant::new(trace)
            .with_executor_power(1.0)
            .with_time_scale(60.0);
        // 60 schedule-seconds = 1 trace hour.  Running one executor for the
        // first 60 schedule seconds should be accounted at 100 g/kWh.
        let g_first = acct.footprint_interval_grams(1.0, 0.0, 60.0);
        assert!((g_first - 100.0).abs() < 1e-6);
        // The next 60 schedule seconds are accounted at 500 g/kWh.
        let g_second = acct.footprint_interval_grams(1.0, 60.0, 120.0);
        assert!((g_second - 500.0).abs() < 1e-6);
        assert_eq!(acct.intensity_at(30.0), 100.0);
        assert_eq!(acct.intensity_at(90.0), 500.0);
    }

    #[test]
    fn empty_profile_is_zero() {
        let acct = CarbonAccountant::new(CarbonTrace::constant("flat", 100.0, 2));
        assert_eq!(acct.footprint_grams(&[], 100.0), 0.0);
    }

    #[test]
    fn lower_carbon_periods_cost_less() {
        let trace = CarbonTrace::hourly("varying", vec![500.0, 100.0]);
        let acct = CarbonAccountant::new(trace).with_executor_power(1.0);
        let high = acct.footprint_interval_grams(1.0, 0.0, 3600.0);
        let low = acct.footprint_interval_grams(1.0, 3600.0, 7200.0);
        assert!(low < high);
        assert!((high / low - 5.0).abs() < 1e-9);
    }
}
