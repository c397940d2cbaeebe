//! CAP: Carbon-Aware Provisioning (§4.2).

use crate::ksearch::KSearchThresholds;
use pcaps_cluster::{
    Assignment, DecisionSink, DeferRequest, SchedEvent, Scheduler, SchedulingContext, WakeupToken,
};
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
    /// Outer (engine) wakeup token → the inner-sink token the wrapped
    /// policy holds for the same deferral, so delivered wakeups are
    /// translated back before forwarding and the inner policy's
    /// token-matching keeps working under the wrapper.  Entries are removed
    /// on delivery; undelivered ones are bounded by the number of forwarded
    /// verbs.
    token_map: Vec<(WakeupToken, WakeupToken)>,
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
            token_map: Vec::new(),
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
        // Wakeups carry the engine's (outer) token; translate back to the
        // inner-sink token the wrapped policy received from its deferral
        // verb, so its token-matching still works under the wrapper.
        let event = match event {
            SchedEvent::Wakeup { token } => {
                match self.token_map.iter().position(|(outer, _)| *outer == token) {
                    Some(i) => {
                        let (_, inner) = self.token_map.swap_remove(i);
                        SchedEvent::Wakeup { token: inner }
                    }
                    None => event,
                }
            }
            other => other,
        };
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
        // Deferral verbs pass through un-rescaled, re-issued on the outer
        // sink; the resulting outer token is recorded against the inner one
        // for translation at delivery time.
        for i in 0..self.inner_sink.deferrals().len() {
            let (outer, inner) = match self.inner_sink.deferrals()[i] {
                DeferRequest::Until { time, token } => (out.defer_until(time), token),
                DeferRequest::Below { intensity, token } => (out.defer_below(intensity), token),
            };
            self.token_map.push((outer, inner));
        }
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
            .into_iter()
            .map(|j| SubmittedJob::at(j.arrival, j.dag))
            .collect()
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
    fn wakeup_tokens_round_trip_through_the_wrapper() {
        use pcaps_cluster::{DecisionSink, SchedEvent, WakeupToken};
        use pcaps_dag::{JobDagBuilder, Task};

        /// Defers everything until a fixed time and insists the wakeup it
        /// gets back carries exactly the token its own verb returned.
        struct TokenMatcher {
            at: f64,
            token: Option<WakeupToken>,
            matched: bool,
        }
        impl Scheduler for TokenMatcher {
            fn name(&self) -> &str {
                "token-matcher"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                if let SchedEvent::Wakeup { token } = event {
                    assert_eq!(
                        Some(token),
                        self.token,
                        "the wrapper must hand back the inner token"
                    );
                    self.matched = true;
                }
                if self.token.is_none() {
                    self.token = Some(out.defer_until(self.at));
                    return;
                }
                if ctx.time < self.at {
                    return;
                }
                for job in ctx.jobs() {
                    if let Some(&stage) = job.dispatchable_stages().first() {
                        out.dispatch(job.id, stage, ctx.free_executors);
                        return;
                    }
                }
            }
        }

        let job = JobDagBuilder::new("j")
            .stage("only", vec![Task::new(5.0); 2])
            .build()
            .unwrap();
        let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
        let sim = Simulator::new(
            config,
            vec![SubmittedJob::at(0.0, job)],
            CarbonTrace::constant("flat", 100.0, 1000),
        );
        // Quota never binds on a flat trace, so CAP only wraps and forwards.
        let mut cap = Cap::new(
            TokenMatcher { at: 123.456, token: None, matched: false },
            CapConfig::with_minimum_quota(2),
        );
        let result = sim.run(&mut cap).unwrap();
        assert!(result.all_jobs_complete());
        assert!(cap.inner().matched, "the translated wakeup must be delivered");
        assert!((result.makespan - (123.456 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn wakeup_token_translation_survives_desynced_counters() {
        use pcaps_cluster::job_state::ActiveJob;
        use pcaps_cluster::{CarbonView, DecisionSink, SchedEvent, WakeupToken};
        use pcaps_dag::{JobDagBuilder, JobId, Task};
        use std::sync::Arc;

        struct Rememberer {
            token: Option<WakeupToken>,
            received: Option<WakeupToken>,
        }
        impl Scheduler for Rememberer {
            fn name(&self) -> &str {
                "rememberer"
            }
            fn on_event(
                &mut self,
                event: SchedEvent<'_>,
                _ctx: &SchedulingContext<'_>,
                out: &mut DecisionSink,
            ) {
                if let SchedEvent::Wakeup { token } = event {
                    self.received = Some(token);
                    return;
                }
                if self.token.is_none() {
                    self.token = Some(out.defer_until(50.0));
                }
            }
        }

        let dag = Arc::new(
            JobDagBuilder::new("j")
                .stage("only", vec![Task::new(5.0)])
                .build()
                .unwrap(),
        );
        let active = vec![ActiveJob::new(JobId(0), dag, 0.0)];
        let ctx = SchedulingContext::new(0.0, CarbonView::flat(100.0), 2, 2, 0, 2, &active, None);

        let mut cap = Cap::new(
            Rememberer { token: None, received: None },
            CapConfig::with_minimum_quota(2),
        );
        // Desync the counters: the engine-side sink has already issued two
        // tokens for other requests, so the outer token CAP forwards under
        // is numerically different from the inner token the policy holds.
        let mut engine_sink = DecisionSink::new();
        let _burned0 = engine_sink.defer_until(1.0);
        let _burned1 = engine_sink.defer_until(2.0);
        engine_sink.clear();

        cap.on_event(SchedEvent::Kick, &ctx, &mut engine_sink);
        let inner_token = cap.inner().token.expect("inner policy deferred");
        let outer_token = match engine_sink.deferrals() {
            [pcaps_cluster::DeferRequest::Until { token, .. }] => *token,
            other => panic!("expected one forwarded deferral, got {other:?}"),
        };
        assert_ne!(outer_token, inner_token, "counters must be desynced for this test");

        // Deliver the engine's wakeup: the policy must see its own token.
        let mut sink2 = DecisionSink::new();
        cap.on_event(SchedEvent::Wakeup { token: outer_token }, &ctx, &mut sink2);
        assert_eq!(cap.inner().received, Some(inner_token));
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
