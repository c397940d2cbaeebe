//! GreenHadoop adaptation (Appendix A.1.1 of the paper).
//!
//! GreenHadoop \[24\] targets data centres with on-site renewables: it predicts
//! the availability of "green" (renewable) energy and schedules MapReduce
//! work to match it, subject to deadlines.  The paper adapts it to DAG
//! scheduling as follows (Appendix A.1.1):
//!
//! 1. derive a **green window**: how long it would take to finish the
//!    outstanding work using only the executor capacity that can be powered
//!    by green energy,
//! 2. derive a **brown window**: how long the outstanding work takes at full
//!    cluster capacity,
//! 3. combine them with a tunable carbon-awareness parameter θ into a target
//!    completion window `θ·green + (1−θ)·brown`,
//! 4. at each decision, use all green capacity plus just enough brown
//!    capacity to finish the outstanding work inside the window, and
//!    dispatch tasks FIFO within that executor limit.
//!
//! The carbon traces used here report intensity rather than explicit
//! green/brown splits, so the green fraction at time `t` is derived from the
//! intensity's position inside the forecast band:
//! `green(t) = (U − c(t)) / (U − L)` — fully green at the cleanest forecast
//! intensity, fully brown at the dirtiest.  This preserves GreenHadoop's
//! qualitative behaviour (follow the renewables) without requiring a
//! generation-mix breakdown.

use pcaps_carbon::CarbonTrace;
use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};

/// The GreenHadoop-style carbon-aware FIFO scheduler.
#[derive(Debug, Clone)]
pub struct GreenHadoop {
    trace: CarbonTrace,
    /// Carbon-trace seconds per schedule second (must match the simulator's
    /// `ClusterConfig::time_scale`).
    time_scale: f64,
    /// Carbon-awareness parameter θ ∈ [0, 1]: 0 = brown window only
    /// (carbon-agnostic), 1 = green window only (fully carbon-aware).
    theta: f64,
    /// Forecast horizon (carbon seconds) used to bound the windows.
    horizon: f64,
}

impl GreenHadoop {
    /// Creates the scheduler with the paper's default θ = 0.5.
    pub fn new(trace: CarbonTrace, time_scale: f64) -> Self {
        GreenHadoop::with_theta(trace, time_scale, 0.5)
    }

    /// Creates the scheduler with an explicit θ.
    pub fn with_theta(trace: CarbonTrace, time_scale: f64, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        assert!(time_scale > 0.0, "time scale must be positive");
        GreenHadoop {
            trace,
            time_scale,
            theta,
            horizon: 48.0 * 3600.0,
        }
    }

    /// The configured θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Green capacity fraction at carbon-trace time `ct`, given bounds.
    fn green_fraction(&self, ct: f64, lower: f64, upper: f64) -> f64 {
        if upper <= lower {
            return 1.0;
        }
        ((upper - self.trace.intensity(ct)) / (upper - lower)).clamp(0.0, 1.0)
    }

    /// Computes the executor limit for the current decision.
    fn executor_limit(&self, ctx: &SchedulingContext<'_>) -> usize {
        let k = ctx.total_executors as f64;
        // The engine maintains this aggregate incrementally (the same
        // counter routing consults), so reading it is O(1) instead of the
        // per-event O(jobs × stages) remaining-work fold this used to do.
        let outstanding: f64 = ctx.outstanding_work();
        if outstanding <= 0.0 {
            return ctx.total_executors;
        }
        let ct_now = ctx.time * self.time_scale;
        let (lower, upper) = self.trace.bounds(ct_now, self.horizon);

        // Walk future carbon steps accumulating green capacity to find the
        // green window, bounded by the forecast horizon.
        let step = self.trace.step;
        let mut green_window = 0.0;
        let mut green_accum = 0.0;
        let max_steps = (self.horizon / step).ceil() as usize;
        for i in 0..max_steps {
            let ct = ct_now + i as f64 * step;
            let green_cap = self.green_fraction(ct, lower, upper) * k;
            // Work is measured in schedule seconds; convert step length.
            let step_schedule = step / self.time_scale;
            green_accum += green_cap * step_schedule;
            green_window += step_schedule;
            if green_accum >= outstanding {
                break;
            }
        }
        // Brown window: full capacity.
        let brown_window = outstanding / k;
        let window = (self.theta * green_window + (1.0 - self.theta) * brown_window).max(1e-9);

        // Capacity needed to finish the outstanding work within the window,
        // then split it into "all available green now" plus the brown
        // fraction required.
        let needed = (outstanding / window).min(k);
        let green_now = self.green_fraction(ct_now, lower, upper) * k;
        let limit = if needed <= green_now {
            green_now
        } else {
            needed
        };
        (limit.ceil() as usize).clamp(1, ctx.total_executors)
    }
}

impl Scheduler for GreenHadoop {
    fn name(&self) -> &str {
        "greenhadoop"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let limit = self.executor_limit(ctx);
        if ctx.busy_executors >= limit {
            // Already at (or above) the derived executor limit: defer.
            return;
        }
        let mut allowance = limit - ctx.busy_executors;
        let mut free = ctx.free_executors;
        // FIFO dispatch within the limit.
        for job in ctx.jobs() {
            if allowance == 0 || free == 0 {
                break;
            }
            for &stage in job.dispatchable_stages() {
                if allowance == 0 || free == 0 {
                    break;
                }
                let want = job
                    .progress
                    .pending_tasks(stage)
                    .min(allowance)
                    .min(free);
                if want > 0 {
                    out.dispatch(job.id, stage, want);
                    allowance -= want;
                    free -= want;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::SparkStandaloneFifo;
    use pcaps_carbon::synth::SyntheticTraceGenerator;
    use pcaps_carbon::GridRegion;
    use pcaps_cluster::{ClusterConfig, Simulator};
    use pcaps_workloads::{WorkloadBuilder, WorkloadKind};

    fn sim(trace: CarbonTrace, jobs: usize, executors: usize, seed: u64) -> Simulator {
        let workload = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(jobs)
            .build();
        let config = ClusterConfig::new(executors).with_time_scale(60.0);
        Simulator::new(config, workload, trace)
    }

    fn de_trace() -> CarbonTrace {
        SyntheticTraceGenerator::new(GridRegion::Germany, 1).generate_days(30)
    }

    #[test]
    fn completes_all_jobs() {
        let trace = de_trace();
        let mut gh = GreenHadoop::new(trace.clone(), 60.0);
        let result = sim(trace, 10, 20, 3).run(&mut gh).unwrap();
        assert!(result.all_jobs_complete());
    }

    #[test]
    fn theta_zero_matches_full_throughput_behaviour() {
        // θ = 0 uses only the brown window, so the limit is the capacity
        // needed to finish "as fast as possible" — the schedule should be
        // close to FIFO's.
        let trace = de_trace();
        let mut gh = GreenHadoop::with_theta(trace.clone(), 60.0, 0.0);
        let carbon_aware = sim(trace.clone(), 10, 20, 5).run(&mut gh).unwrap();
        let fifo = sim(trace, 10, 20, 5).run(&mut SparkStandaloneFifo::new()).unwrap();
        let ratio = carbon_aware.ect() / fifo.ect();
        assert!(
            ratio < 1.6,
            "theta=0 ECT should be within 60% of FIFO, ratio {ratio:.2}"
        );
    }

    #[test]
    fn higher_theta_defers_more() {
        let trace = de_trace();
        let low = sim(trace.clone(), 15, 20, 7)
            .run(&mut GreenHadoop::with_theta(trace.clone(), 60.0, 0.1))
            .unwrap();
        let high = sim(trace.clone(), 15, 20, 7)
            .run(&mut GreenHadoop::with_theta(trace, 60.0, 0.9))
            .unwrap();
        assert!(low.all_jobs_complete() && high.all_jobs_complete());
        assert!(
            high.ect() >= low.ect() * 0.99,
            "more carbon-aware GreenHadoop should not finish meaningfully earlier"
        );
    }

    #[test]
    fn constant_carbon_keeps_cluster_busy() {
        // On a flat trace green fraction is 1 everywhere, so GreenHadoop
        // should not throttle at all.
        let trace = CarbonTrace::constant("flat", 400.0, 26_304);
        let mut gh = GreenHadoop::new(trace.clone(), 60.0);
        let gh_result = sim(trace.clone(), 10, 20, 9).run(&mut gh).unwrap();
        let fifo_result = sim(trace, 10, 20, 9).run(&mut SparkStandaloneFifo::new()).unwrap();
        let ratio = gh_result.ect() / fifo_result.ect();
        assert!(ratio < 1.1, "flat carbon should not cause throttling, ratio {ratio:.2}");
    }

    #[test]
    fn name_and_theta() {
        let gh = GreenHadoop::new(CarbonTrace::constant("flat", 1.0, 2), 1.0);
        assert_eq!(gh.name(), "greenhadoop");
        assert_eq!(gh.theta(), 0.5);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ = GreenHadoop::with_theta(CarbonTrace::constant("flat", 1.0, 2), 1.0, 1.5);
    }
}
