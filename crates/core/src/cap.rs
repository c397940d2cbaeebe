//! CAP: Carbon-Aware Provisioning (§4.2).

use crate::ksearch::KSearchThresholds;
use pcaps_cluster::{Assignment, DecisionSink, SchedEvent, Scheduler, SchedulingContext};
use serde::{Deserialize, Serialize};

/// Configuration of CAP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapConfig {
    /// Minimum resource quota `B ∈ {1, …, K}` — the cluster may always use
    /// up to `B` machines regardless of carbon, which guarantees continuous
    /// progress (§4.2).  Smaller `B` is more carbon-aware.
    pub minimum_quota: usize,
    /// Whether to also rescale the wrapped scheduler's per-stage parallelism
    /// by `r(t)/K` (§5.1).  Enabled by default.
    pub scale_parallelism: bool,
}

impl CapConfig {
    /// CAP with an explicit minimum quota.
    pub fn with_minimum_quota(minimum_quota: usize) -> Self {
        assert!(minimum_quota >= 1, "minimum quota B must be at least 1");
        CapConfig {
            minimum_quota,
            scale_parallelism: true,
        }
    }

    /// The paper's "moderately carbon-aware" configuration on the 100-node
    /// cluster: B = 20 (Tables 2 and 3).
    pub fn moderate() -> Self {
        CapConfig::with_minimum_quota(20)
    }

    /// Disables the parallelism rescaling of §5.1.
    pub fn without_parallelism_scaling(mut self) -> Self {
        self.scale_parallelism = false;
        self
    }
}

/// Statistics CAP keeps about the quotas it applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CapStats {
    /// Number of scheduling events at which the quota blocked new work.
    pub throttled_events: u64,
    /// Number of scheduling events at which new work was admitted.
    pub admitted_events: u64,
    /// Minimum quota ever applied (the empirical `M(B, c)` of Theorem 4.5).
    pub min_quota_applied: usize,
}

/// CAP: a carbon-aware resource-provisioning wrapper around any scheduler.
///
/// At every scheduling event CAP computes the current resource quota `r(t)`
/// from the k-search thresholds (recomputed whenever the forecast bounds
/// `L`/`U` change) and only forwards the wrapped scheduler's assignments when
/// the number of busy machines is below the quota — never preempting work
/// that is already running (§5.1).
#[derive(Debug, Clone)]
pub struct Cap<S> {
    inner: S,
    config: CapConfig,
    thresholds: Option<KSearchThresholds>,
    stats: CapStats,
    name: String,
    /// Policy-owned sink the wrapped scheduler writes into, so CAP can
    /// inspect and rescale its decisions before forwarding them.  Reused
    /// across invocations — allocation-free in the steady state.
    inner_sink: DecisionSink,
}

impl<S: Scheduler> Cap<S> {
    /// Wraps `inner` with carbon-aware provisioning.
    pub fn new(inner: S, config: CapConfig) -> Self {
        let name = format!("cap({},B={})", inner.name(), config.minimum_quota);
        Cap {
            inner,
            config,
            thresholds: None,
            stats: CapStats {
                min_quota_applied: usize::MAX,
                ..CapStats::default()
            },
            name,
            inner_sink: DecisionSink::new(),
        }
    }

    /// The configured minimum quota `B`.
    pub fn minimum_quota(&self) -> usize {
        self.config.minimum_quota
    }

    /// Decision statistics accumulated so far.
    pub fn stats(&self) -> CapStats {
        self.stats
    }

    /// Access to the wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Current resource quota for the context's carbon conditions.
    pub fn quota(&mut self, ctx: &SchedulingContext<'_>) -> usize {
        let total = ctx.total_executors;
        let minimum = self.config.minimum_quota.min(total);
        let (lower, upper) = (ctx.carbon.lower_bound, ctx.carbon.upper_bound);
        let needs_rebuild = match &self.thresholds {
            Some(t) => !t.matches(total, minimum, lower, upper),
            None => true,
        };
        if needs_rebuild {
            self.thresholds = Some(KSearchThresholds::new(total, minimum, lower, upper));
        }
        let quota = self
            .thresholds
            .as_ref()
            .expect("thresholds were just built")
            .quota(ctx.carbon.intensity);
        self.stats.min_quota_applied = self.stats.min_quota_applied.min(quota);
        quota
    }
}

impl<S: Scheduler> Scheduler for Cap<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let quota = self.quota(ctx);
        if ctx.busy_executors >= quota {
            // Quota reached: no new assignments (running tasks are never
            // preempted), idle until the next scheduling event.
            self.stats.throttled_events += 1;
            return;
        }
        let mut allowance = quota - ctx.busy_executors;
        self.inner_sink.clear();
        self.inner.on_event(event, ctx, &mut self.inner_sink);
        if self.inner_sink.assignments().is_empty() {
            return;
        }
        self.stats.admitted_events += 1;

        for a in self.inner_sink.assignments() {
            if allowance == 0 {
                break;
            }
            // §5.1: scale the stage's parallelism by r(t)/K, then clamp to
            // the remaining quota headroom.
            let scaled = if self.config.scale_parallelism {
                ((a.executors as f64) * quota as f64 / ctx.total_executors as f64).ceil() as usize
            } else {
                a.executors
            };
            let granted = scaled.max(1).min(allowance);
            out.assign(Assignment::new(a.job, a.stage, granted));
            allowance -= granted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_carbon::synth::SyntheticTraceGenerator;
    use pcaps_carbon::{CarbonTrace, GridRegion};
    use pcaps_cluster::schedulers::SimpleFifo;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_schedulers::{DecimaLike, SparkStandaloneFifo, WeightedFair};
    use pcaps_workloads::{WorkloadBuilder, WorkloadKind};

    fn tpch_workload(seed: u64, jobs: usize) -> Vec<SubmittedJob> {
        WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(jobs)
            .build()
    }

    fn simulator(trace: CarbonTrace, seed: u64, jobs: usize, executors: usize) -> Simulator {
        Simulator::new(
            ClusterConfig::new(executors).with_time_scale(60.0),
            tpch_workload(seed, jobs),
            trace,
        )
    }

    fn de_trace(seed: u64) -> CarbonTrace {
        SyntheticTraceGenerator::new(GridRegion::Germany, seed).generate_days(60)
    }

    #[test]
    fn completes_with_every_wrapped_scheduler() {
        let trace = de_trace(1);
        let sim = simulator(trace.clone(), 2, 12, 20);
        for result in [
            sim.run(&mut Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(4)))
                .unwrap(),
            sim.run(&mut Cap::new(WeightedFair::new(), CapConfig::with_minimum_quota(4)))
                .unwrap(),
            sim.run(&mut Cap::new(DecimaLike::new(0), CapConfig::with_minimum_quota(4)))
                .unwrap(),
        ] {
            assert!(result.all_jobs_complete());
        }
    }

    #[test]
    fn quota_blocks_work_under_high_carbon() {
        // Alternating clean/dirty trace: during dirty hours the quota should
        // throttle the cluster below full capacity at B << K.
        // Dirty half-day first so the batch actually sees high carbon.
        let mut values = Vec::new();
        for i in 0..4000 {
            values.push(if i % 24 < 12 { 800.0 } else { 50.0 });
        }
        let trace = CarbonTrace::hourly("alternating", values);
        let sim = simulator(trace, 5, 15, 20);
        let mut cap = Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(2));
        let result = sim.run(&mut cap).unwrap();
        assert!(result.all_jobs_complete());
        assert!(cap.stats().throttled_events > 0, "dirty periods must throttle");
        assert!(cap.stats().min_quota_applied <= 4);
    }

    #[test]
    fn smaller_b_is_more_carbon_aware_but_slower() {
        let trace = de_trace(7);
        let strict = simulator(trace.clone(), 9, 20, 20)
            .run(&mut Cap::new(SimpleFifo::new(), CapConfig::with_minimum_quota(2)))
            .unwrap();
        let loose = simulator(trace, 9, 20, 20)
            .run(&mut Cap::new(SimpleFifo::new(), CapConfig::with_minimum_quota(18)))
            .unwrap();
        assert!(strict.all_jobs_complete() && loose.all_jobs_complete());
        assert!(
            strict.ect() >= loose.ect() * 0.99,
            "a stricter quota cannot meaningfully shorten the schedule"
        );
    }

    #[test]
    fn flat_carbon_means_no_throttling() {
        let trace = CarbonTrace::constant("flat", 400.0, 26_304);
        let baseline = simulator(trace.clone(), 3, 10, 16)
            .run(&mut SparkStandaloneFifo::new())
            .unwrap();
        let mut cap = Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(2));
        let capped = simulator(trace, 3, 10, 16).run(&mut cap).unwrap();
        // With L == U the quota is always K, so CAP reproduces the wrapped
        // scheduler's makespan exactly.
        assert!((baseline.makespan - capped.makespan).abs() < 1e-9);
        assert_eq!(cap.stats().throttled_events, 0);
    }

    #[test]
    fn b_equal_k_matches_wrapped_scheduler() {
        let trace = de_trace(4);
        let sim = simulator(trace, 6, 10, 16);
        let baseline = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
        let capped = sim
            .run(&mut Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(16)))
            .unwrap();
        assert!((baseline.makespan - capped.makespan).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let cap = Cap::new(SparkStandaloneFifo::new(), CapConfig::moderate());
        assert_eq!(cap.minimum_quota(), 20);
        assert_eq!(cap.inner().name(), "fifo");
        assert!(cap.name().contains("cap"));
        assert_eq!(cap.stats().throttled_events, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_quota() {
        let _ = CapConfig::with_minimum_quota(0);
    }
}
