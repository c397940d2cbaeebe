//! The PCAPS scheduler (Algorithm 1).

use crate::importance::importance_ratio;
use crate::threshold::ThresholdFn;
use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};
use pcaps_schedulers::ProbabilisticScheduler;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of PCAPS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcapsConfig {
    /// Carbon-awareness parameter γ ∈ [0, 1]: 0 recovers the carbon-agnostic
    /// behaviour of the wrapped scheduler, 1 is maximally carbon-aware
    /// (Algorithm 1).
    pub gamma: f64,
    /// Seed of the sampling RNG (Algorithm 1 samples a stage from the
    /// wrapped policy's distribution at each scheduling event).
    pub seed: u64,
    /// Whether to also apply the carbon-aware parallelism-limit scaling of
    /// §5.1, as [`ThresholdFn::parallelism_factor`] adapts it
    /// (`P′ = ⌈P · exp(5γ(L−c)/(U−L))⌉`).  Enabled by default; the
    /// `ablation_parallelism` bench turns it off.
    pub scale_parallelism: bool,
}

impl PcapsConfig {
    /// PCAPS with an explicit γ and defaults for everything else.
    pub fn with_gamma(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        PcapsConfig {
            gamma,
            seed: 0,
            scale_parallelism: true,
        }
    }

    /// The paper's "moderately carbon-aware" configuration: γ = 0.5
    /// (used for Tables 2 and 3).
    pub fn moderate() -> Self {
        PcapsConfig::with_gamma(0.5)
    }

    /// Carbon-agnostic configuration (γ = 0) — behaves exactly like the
    /// wrapped probabilistic scheduler.
    pub fn carbon_agnostic() -> Self {
        PcapsConfig::with_gamma(0.0)
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the parallelism-limit scaling of §5.1.
    pub fn without_parallelism_scaling(mut self) -> Self {
        self.scale_parallelism = false;
        self
    }
}

/// Statistics PCAPS keeps about its own decisions, used by the analysis
/// module to estimate `D(γ, c)` and by the experiment harness for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PcapsStats {
    /// Number of sampled stages that were scheduled immediately.
    pub scheduled: u64,
    /// Number of sampled stages that were deferred by the carbon filter.
    pub deferred: u64,
    /// Number of decisions taken under the "no machines busy" progress
    /// guarantee (Algorithm 1, line 7).
    pub forced_progress: u64,
    /// Number of consults declined without sampling because PCAPS had
    /// already decided at this instant in the throttle regime (one
    /// decision per scheduling event, Algorithm 1).
    pub declined: u64,
    /// Total executor-seconds of work deferred (sum of the expected work of
    /// deferred stages at the moment of deferral).
    pub deferred_work: f64,
}

impl PcapsStats {
    /// Fraction of sampled decisions that were deferrals.
    pub fn deferral_rate(&self) -> f64 {
        let total = self.scheduled + self.deferred;
        if total == 0 {
            0.0
        } else {
            self.deferred as f64 / total as f64
        }
    }
}

/// PCAPS: Precedence- and Carbon-Aware Provisioning and Scheduling.
///
/// Wraps any [`ProbabilisticScheduler`] `PB` and filters its decisions
/// through the carbon-awareness threshold Ψγ (Algorithm 1): at every
/// scheduling event a stage is sampled from `PB`'s distribution, its
/// relative importance is computed, and the stage is dispatched only if
/// `Ψγ(r) ≥ c(t)` or no machine is currently busy (the progress guarantee).
/// Otherwise the free executors stay idle until the next scheduling event
/// (task completion, job arrival, or carbon-intensity change).
#[derive(Debug, Clone)]
pub struct Pcaps<PB> {
    inner: PB,
    config: PcapsConfig,
    rng: ChaCha8Rng,
    stats: PcapsStats,
    name: String,
    /// Time of the last admitted decision.  Algorithm 1 makes exactly one
    /// sample-and-decide step per scheduling event; the simulation engine
    /// may re-invoke a scheduler several times at the same instant to fill
    /// remaining executors, so PCAPS declines further invocations at a time
    /// it has already decided at (the extra executors stay idle until the
    /// next event, which is what "send task v to an available machine ...
    /// else idle" prescribes).
    last_decision_time: Option<f64>,
}

impl<PB: ProbabilisticScheduler> Pcaps<PB> {
    /// Wraps the probabilistic scheduler `inner` with the given config.
    pub fn new(inner: PB, config: PcapsConfig) -> Self {
        let name = format!("pcaps({},γ={})", inner.name(), config.gamma);
        Pcaps {
            inner,
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed ^ 0x9CA9_5000),
            stats: PcapsStats::default(),
            name,
            last_decision_time: None,
        }
    }

    /// The configured γ.
    pub fn gamma(&self) -> f64 {
        self.config.gamma
    }

    /// Decision statistics accumulated so far.
    pub fn stats(&self) -> PcapsStats {
        self.stats
    }

    /// Access to the wrapped scheduler.
    pub fn inner(&self) -> &PB {
        &self.inner
    }
}

impl<PB: ProbabilisticScheduler> Scheduler for Pcaps<PB> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let threshold = ThresholdFn::new(
            self.config.gamma,
            ctx.carbon.lower_bound,
            ctx.carbon.upper_bound,
        );
        // One sample-and-decide step per scheduling event (Algorithm 1): if
        // we already decided at this instant, leave the remaining free
        // executors idle until the next event.  The rule only applies in the
        // throttle regime (carbon meaningfully above the clean end of the
        // forecast band) — during clean periods the filter admits every task
        // anyway, so the cluster is allowed to fill at full speed, which is
        // what lets deferred work catch up (§5.1).
        if threshold.is_throttled(ctx.carbon.intensity)
            && self.last_decision_time == Some(ctx.time)
        {
            self.stats.declined += 1;
            return;
        }
        // Line 5: sample v ∈ A_t with p_{v,t} and max_u p_{u,t} from PB
        // (`r` is drawn only once A_t is known to be non-empty, preserving
        // the RNG stream of the historical inline sampler).
        let rng = &mut self.rng;
        let Some(chosen) = self.inner.sample(ctx, &mut || rng.gen_range(0.0..1.0)) else {
            return;
        };

        // Line 6: relative importance r_{v,t}.
        let importance = importance_ratio(chosen.probability, chosen.max_probability);

        // Line 7: carbon-awareness filter.
        let no_machines_busy = ctx.busy_executors == 0;
        let admitted = threshold.admits(importance, ctx.carbon.intensity);

        if !admitted && !no_machines_busy {
            // Line 10: idle until the next scheduling event.
            self.stats.deferred += 1;
            if let Some(job) = ctx.job(chosen.job) {
                let stage = job.dag.stage(chosen.stage);
                let pending = job.progress.pending_tasks(chosen.stage);
                self.stats.deferred_work +=
                    stage.mean_task_duration() * pending.min(ctx.free_executors) as f64;
            }
            return;
        }
        if !admitted && no_machines_busy {
            self.stats.forced_progress += 1;
        }
        self.stats.scheduled += 1;
        self.last_decision_time = Some(ctx.time);

        // Line 8: send the task to an available machine, with the
        // carbon-scaled parallelism limit of §5.1.
        let base_limit = self
            .inner
            .parallelism_limit(ctx, chosen.job, chosen.stage)
            .max(1);
        let limit = if self.config.scale_parallelism {
            threshold.scale_parallelism(base_limit, ctx.carbon.intensity)
        } else {
            base_limit
        };
        out.dispatch(chosen.job, chosen.stage, limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_carbon::synth::SyntheticTraceGenerator;
    use pcaps_carbon::{CarbonTrace, GridRegion};
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_schedulers::DecimaLike;
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
    fn completes_all_jobs() {
        let sim = simulator(de_trace(1), 3, 15, 20);
        let mut pcaps = Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate());
        let result = sim.run(&mut pcaps).unwrap();
        assert!(result.all_jobs_complete());
        assert!(pcaps.stats().scheduled > 0);
    }

    #[test]
    fn gamma_zero_matches_wrapped_scheduler() {
        // With γ = 0 the filter admits every sampled stage and parallelism
        // is unscaled, so PCAPS behaves like the wrapped Decima-like policy:
        // it never defers, and the resulting schedule differs only by the
        // stage-sampling randomness (PCAPS draws the sample itself).
        let sim = simulator(de_trace(2), 5, 10, 16);
        let mut plain = DecimaLike::new(7);
        let plain_result = sim.run(&mut plain).unwrap();
        let mut pcaps = Pcaps::new(DecimaLike::new(7), PcapsConfig::carbon_agnostic());
        let pcaps_result = sim.run(&mut pcaps).unwrap();
        assert_eq!(pcaps.stats().deferred, 0, "gamma = 0 must never defer");
        assert!(pcaps_result.all_jobs_complete());
        let makespan_ratio = pcaps_result.makespan / plain_result.makespan;
        assert!(
            (0.85..=1.15).contains(&makespan_ratio),
            "gamma = 0 schedule should be statistically indistinguishable from the wrapped policy, ratio {makespan_ratio:.3}"
        );
    }

    #[test]
    fn defers_under_high_carbon() {
        // A trace that alternates between very clean and very dirty hours
        // must produce at least some deferrals at γ close to 1.
        // The dirty half-day comes first so the batch (which finishes within
        // a few carbon hours) actually experiences high carbon.
        let mut values = Vec::new();
        for i in 0..2000 {
            values.push(if i % 24 < 12 { 800.0 } else { 50.0 });
        }
        let trace = CarbonTrace::hourly("alternating", values);
        let sim = simulator(trace, 9, 15, 20);
        let mut pcaps = Pcaps::new(DecimaLike::new(1), PcapsConfig::with_gamma(0.9));
        let result = sim.run(&mut pcaps).unwrap();
        assert!(result.all_jobs_complete());
        assert!(
            pcaps.stats().deferred > 0,
            "high gamma on a volatile trace must defer at least once"
        );
        assert!(pcaps.stats().deferral_rate() > 0.0);
    }

    #[test]
    fn flat_carbon_never_defers() {
        let trace = CarbonTrace::constant("flat", 400.0, 26_304);
        let sim = simulator(trace, 4, 10, 16);
        let mut pcaps = Pcaps::new(DecimaLike::new(3), PcapsConfig::with_gamma(0.8));
        let result = sim.run(&mut pcaps).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(
            pcaps.stats().deferred,
            0,
            "no fluctuation (L = U) must mean no deferrals (condition i, §3)"
        );
    }

    #[test]
    fn higher_gamma_increases_completion_time() {
        let mild = {
            let sim = simulator(de_trace(5), 11, 20, 20);
            sim.run(&mut Pcaps::new(DecimaLike::new(2), PcapsConfig::with_gamma(0.1)))
                .unwrap()
        };
        let aggressive = {
            let sim = simulator(de_trace(5), 11, 20, 20);
            sim.run(&mut Pcaps::new(DecimaLike::new(2), PcapsConfig::with_gamma(1.0)))
                .unwrap()
        };
        assert!(aggressive.ect() >= mild.ect() * 0.95, "aggressive carbon-awareness should not dramatically shorten the schedule");
    }

    #[test]
    fn progress_guarantee_prevents_starvation() {
        // Even on a trace that is permanently at the dirty end of its own
        // forecast band... (constant high carbon means L == U so everything
        // is admitted).  Use a two-level trace where the high level persists
        // long enough that the guarantee has to kick in.
        let mut values = vec![100.0];
        values.extend(std::iter::repeat_n(700.0, 5000));
        let trace = CarbonTrace::hourly("cliff", values);
        let sim = simulator(trace, 13, 5, 8);
        let mut pcaps = Pcaps::new(DecimaLike::new(4), PcapsConfig::with_gamma(1.0));
        let result = sim.run(&mut pcaps).unwrap();
        assert!(result.all_jobs_complete(), "progress guarantee must prevent livelock");
    }

    #[test]
    fn stats_and_accessors() {
        let pcaps = Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate().with_seed(9));
        assert_eq!(pcaps.gamma(), 0.5);
        assert_eq!(pcaps.stats(), PcapsStats::default());
        assert_eq!(pcaps.stats().deferral_rate(), 0.0);
        assert!(pcaps.name().contains("pcaps"));
        assert_eq!(ProbabilisticScheduler::name(pcaps.inner()), "decima");
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let _ = PcapsConfig::with_gamma(2.0);
    }
}
