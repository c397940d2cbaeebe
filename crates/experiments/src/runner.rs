//! Shared experiment runner: build a simulator from a configuration, run a
//! scheduler, and summarise the outcome.

use pcaps_carbon::synth::SyntheticTraceGenerator;
use pcaps_carbon::{CarbonAccountant, CarbonTrace, GridRegion};
use pcaps_cluster::{ClusterConfig, Scheduler, SimulationResult, Simulator};
use pcaps_core::{Cap, CapConfig, Pcaps, PcapsConfig};
use pcaps_metrics::ExperimentSummary;
use pcaps_schedulers::{
    DecimaLike, GreenHadoop, KubeDefaultFifo, SparkStandaloneFifo, WeightedFair,
};
use pcaps_workloads::{WorkloadBuilder, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Everything needed to instantiate one simulation trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Grid region whose (synthetic, Table 1 calibrated) carbon trace is used.
    pub region: GridRegion,
    /// Workload source.
    pub workload: WorkloadKind,
    /// Number of jobs in the batch.
    pub num_jobs: usize,
    /// Mean Poisson inter-arrival time (schedule seconds; the paper default
    /// is 30 s = 30 experiment minutes).
    pub mean_interarrival: f64,
    /// Cluster size `K`.
    pub executors: usize,
    /// Per-job executor cap (`Some(25)` for the prototype configuration,
    /// `None` for Spark standalone).
    pub per_job_cap: Option<usize>,
    /// Base random seed (workload sampling, scheduler sampling).
    pub seed: u64,
    /// Days of synthetic carbon trace to generate.
    pub trace_days: usize,
    /// Offset (hours) into the trace at which the trial starts — the paper
    /// starts each trial at a uniformly random time in the trace.
    pub trace_offset_hours: usize,
}

impl ExperimentConfig {
    /// The paper's simulator setup: 100 executors, Spark standalone
    /// semantics, TPC-H workload of `num_jobs` jobs in the given region.
    pub fn simulator(region: GridRegion, num_jobs: usize, seed: u64) -> Self {
        ExperimentConfig {
            region,
            workload: WorkloadKind::TpchMixed,
            num_jobs,
            mean_interarrival: 30.0,
            executors: 100,
            per_job_cap: None,
            seed,
            trace_days: 28,
            trace_offset_hours: 0,
        }
    }

    /// The paper's prototype setup: 100 executors with a 25-executor
    /// per-application cap.
    pub fn prototype(region: GridRegion, num_jobs: usize, seed: u64) -> Self {
        ExperimentConfig {
            per_job_cap: Some(25),
            ..ExperimentConfig::simulator(region, num_jobs, seed)
        }
    }

    /// Sets the trace offset (hours into the synthetic trace).
    pub fn with_offset(mut self, hours: usize) -> Self {
        self.trace_offset_hours = hours;
        self
    }

    /// Sets the mean inter-arrival time.
    pub fn with_interarrival(mut self, seconds: f64) -> Self {
        self.mean_interarrival = seconds;
        self
    }

    /// Builds the carbon trace for this configuration (already windowed to
    /// the configured offset).
    pub fn trace(&self) -> CarbonTrace {
        let full = SyntheticTraceGenerator::new(self.region, self.seed ^ 0xCA4B0)
            .generate_days(self.trace_days + (self.trace_offset_hours / 24) + 3);
        full.window(self.trace_offset_hours, self.trace_days * 24)
    }

    /// The workload builder this configuration describes — materialize with
    /// `.build()` or stream with `.stream()` (see
    /// [`run_streamed_trial`](crate::streaming::run_streamed_trial)).
    pub fn workload_builder(&self) -> WorkloadBuilder {
        WorkloadBuilder::new(self.workload, self.seed)
            .jobs(self.num_jobs)
            .mean_interarrival(self.mean_interarrival)
    }

    /// The cluster configuration this experiment runs on.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(self.executors)
            .with_per_job_cap(self.per_job_cap)
            .with_time_scale(60.0)
    }

    /// Builds the simulator (workload + cluster + trace) for this config.
    pub fn simulator_instance(&self) -> Simulator {
        Simulator::new(self.cluster_config(), self.workload_builder().build(), self.trace())
    }

    /// The carbon accountant matching this configuration's trace and time
    /// scale.
    pub fn accountant(&self) -> CarbonAccountant {
        CarbonAccountant::new(self.trace()).with_time_scale(60.0)
    }

    /// Region-qualified configuration label, e.g. `DE[j=8,K=20,s=1]`.
    ///
    /// Scheduler labels ([`SchedulerSpec::label`]) identify only the policy,
    /// so two trials of the same spec in different regions would collide in
    /// a CSV; prefixing rows with this label (or using
    /// [`SchedulerSpec::label_in_region`]) keeps multi-region outputs
    /// unambiguous.
    pub fn label(&self) -> String {
        format!(
            "{}[j={},K={},s={}]",
            self.region.code(),
            self.num_jobs,
            self.executors,
            self.seed
        )
    }
}

/// Which base (carbon-agnostic) scheduler a wrapper operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseScheduler {
    /// Spark standalone FIFO.
    Fifo,
    /// Spark-on-Kubernetes default (25-executor cap).
    KubeDefault,
    /// Weighted fair sharing.
    WeightedFair,
    /// The Decima-like probabilistic scheduler.
    Decima,
}

impl BaseScheduler {
    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            BaseScheduler::Fifo => "FIFO",
            BaseScheduler::KubeDefault => "default",
            BaseScheduler::WeightedFair => "W.Fair",
            BaseScheduler::Decima => "Decima",
        }
    }
}

/// A scheduler configuration to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// A carbon-agnostic baseline on its own.
    Baseline(BaseScheduler),
    /// The GreenHadoop adaptation with carbon-awareness θ.
    GreenHadoop {
        /// Carbon-awareness parameter θ ∈ [0, 1].
        theta: f64,
    },
    /// CAP with minimum quota `b`, wrapped around a base scheduler.
    Cap {
        /// The wrapped carbon-agnostic scheduler.
        base: BaseScheduler,
        /// Minimum resource quota `B`.
        b: usize,
    },
    /// PCAPS with carbon-awareness γ (always wraps the Decima-like
    /// probabilistic scheduler).
    Pcaps {
        /// Carbon-awareness parameter γ ∈ [0, 1].
        gamma: f64,
    },
}

impl SchedulerSpec {
    /// Human-readable label used in result tables.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Baseline(b) => b.label().to_string(),
            SchedulerSpec::GreenHadoop { theta } => format!("GreenHadoop(θ={theta})"),
            SchedulerSpec::Cap { base, b } => format!("CAP-{}(B={b})", base.label()),
            SchedulerSpec::Pcaps { gamma } => format!("PCAPS(γ={gamma})"),
        }
    }

    /// Region-qualified label, e.g. `PCAPS(γ=0.5)@CAISO` — required
    /// wherever the same spec runs in several regions at once (federated
    /// trials), so result rows stay unambiguous.
    pub fn label_in_region(&self, region: GridRegion) -> String {
        format!("{}@{}", self.label(), region.code())
    }

    /// The paper's moderately carbon-aware PCAPS (γ = 0.5).
    pub fn pcaps_moderate() -> Self {
        SchedulerSpec::Pcaps { gamma: 0.5 }
    }

    /// The paper's moderately carbon-aware CAP (B = 20) over the given base.
    pub fn cap_moderate(base: BaseScheduler) -> Self {
        SchedulerSpec::Cap { base, b: 20 }
    }

    /// Builds the scheduler this spec describes.
    ///
    /// `seed` feeds the sampling policies (Decima, PCAPS) — callers derive
    /// it from the trial seed exactly as [`run_trial`] does.  `carbon` and
    /// `time_scale` parameterise GreenHadoop, whose green/brown windows are
    /// computed from the trace of the cluster (or federation member) the
    /// scheduler runs in.
    pub fn build(&self, seed: u64, carbon: &CarbonTrace, time_scale: f64) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Baseline(BaseScheduler::Fifo) => Box::new(SparkStandaloneFifo::new()),
            SchedulerSpec::Baseline(BaseScheduler::KubeDefault) => {
                Box::new(KubeDefaultFifo::new())
            }
            SchedulerSpec::Baseline(BaseScheduler::WeightedFair) => Box::new(WeightedFair::new()),
            SchedulerSpec::Baseline(BaseScheduler::Decima) => Box::new(DecimaLike::new(seed)),
            SchedulerSpec::GreenHadoop { theta } => {
                Box::new(GreenHadoop::with_theta(carbon.clone(), time_scale, theta))
            }
            SchedulerSpec::Cap { base, b } => {
                let cap_cfg = CapConfig::with_minimum_quota(b);
                match base {
                    BaseScheduler::Fifo => Box::new(Cap::new(SparkStandaloneFifo::new(), cap_cfg)),
                    BaseScheduler::KubeDefault => {
                        Box::new(Cap::new(KubeDefaultFifo::new(), cap_cfg))
                    }
                    BaseScheduler::WeightedFair => Box::new(Cap::new(WeightedFair::new(), cap_cfg)),
                    BaseScheduler::Decima => Box::new(Cap::new(DecimaLike::new(seed), cap_cfg)),
                }
            }
            SchedulerSpec::Pcaps { gamma } => Box::new(Pcaps::new(
                DecimaLike::new(seed),
                PcapsConfig::with_gamma(gamma).with_seed(seed),
            )),
        }
    }
}

/// Output of one trial: the raw simulation result plus its summary.
#[derive(Debug, Clone)]
pub struct TrialOutput {
    /// Which scheduler produced this trial.
    pub spec: SchedulerSpec,
    /// The raw simulation result (profiles, per-job records).
    pub result: SimulationResult,
    /// Absolute metrics of the run.
    pub summary: ExperimentSummary,
}

/// Runs one trial of `spec` under `config`.
pub fn run_trial(config: &ExperimentConfig, spec: SchedulerSpec) -> TrialOutput {
    let sim = config.simulator_instance();
    let accountant = config.accountant();
    let seed = config.seed ^ 0x5EED;
    let mut scheduler = spec.build(seed, sim.carbon(), 60.0);
    let result = sim
        .run(scheduler.as_mut())
        .expect("experiment simulations are constructed to always complete");
    let summary = ExperimentSummary::of(&result, &accountant);
    TrialOutput {
        spec,
        result,
        summary,
    }
}

/// Runs `trials` independent trials of `spec`, varying the seed and the
/// offset into the carbon trace, in parallel across OS threads.
pub fn run_trials(
    config: &ExperimentConfig,
    spec: SchedulerSpec,
    trials: usize,
) -> Vec<TrialOutput> {
    assert!(trials > 0, "need at least one trial");
    let configs: Vec<ExperimentConfig> = (0..trials)
        .map(|i| {
            let mut c = config.clone();
            c.seed = config.seed.wrapping_add(i as u64 * 7919);
            // Spread trial starts across the trace (roughly every 31 hours so
            // starts hit different phases of the diurnal cycle).
            c.trace_offset_hours = config.trace_offset_hours + i * 31;
            c
        })
        .collect();
    let mut outputs: Vec<Option<TrialOutput>> = (0..trials).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (cfg, slot) in configs.iter().zip(outputs.iter_mut()) {
            scope.spawn(move || {
                *slot = Some(run_trial(cfg, spec));
            });
        }
    });
    outputs
        .into_iter()
        .map(|o| o.expect("every trial slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::simulator(GridRegion::Germany, 8, 1);
        c.executors = 20;
        c.trace_days = 7;
        c
    }

    #[test]
    fn run_trial_completes_for_every_spec() {
        let cfg = small_config();
        let specs = [
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            SchedulerSpec::Baseline(BaseScheduler::KubeDefault),
            SchedulerSpec::Baseline(BaseScheduler::WeightedFair),
            SchedulerSpec::Baseline(BaseScheduler::Decima),
            SchedulerSpec::GreenHadoop { theta: 0.5 },
            SchedulerSpec::Cap { base: BaseScheduler::Fifo, b: 5 },
            SchedulerSpec::Pcaps { gamma: 0.5 },
        ];
        for spec in specs {
            let out = run_trial(&cfg, spec);
            assert!(out.result.all_jobs_complete(), "{} did not finish", spec.label());
            assert!(out.summary.carbon_grams > 0.0);
            assert!(out.summary.ect > 0.0);
        }
    }

    #[test]
    fn trials_vary_but_are_deterministic() {
        let cfg = small_config();
        let a = run_trials(&cfg, SchedulerSpec::Baseline(BaseScheduler::Fifo), 3);
        let b = run_trials(&cfg, SchedulerSpec::Baseline(BaseScheduler::Fifo), 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.summary.ect - y.summary.ect).abs() < 1e-9, "trials must be reproducible");
        }
        // Different trials should generally differ from each other.
        assert!(
            (a[0].summary.carbon_grams - a[1].summary.carbon_grams).abs() > 1e-9
                || (a[0].summary.ect - a[1].summary.ect).abs() > 1e-9
        );
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(SchedulerSpec::Baseline(BaseScheduler::Fifo).label(), "FIFO");
        assert_eq!(SchedulerSpec::pcaps_moderate().label(), "PCAPS(γ=0.5)");
        assert_eq!(
            SchedulerSpec::cap_moderate(BaseScheduler::Decima).label(),
            "CAP-Decima(B=20)"
        );
        assert!(SchedulerSpec::GreenHadoop { theta: 0.5 }.label().contains("GreenHadoop"));
    }

    #[test]
    fn regional_labels_disambiguate_identical_specs() {
        let spec = SchedulerSpec::pcaps_moderate();
        let de = spec.label_in_region(GridRegion::Germany);
        let ca = spec.label_in_region(GridRegion::Caiso);
        assert_eq!(de, "PCAPS(γ=0.5)@DE");
        assert_eq!(ca, "PCAPS(γ=0.5)@CAISO");
        assert_ne!(de, ca, "same spec in different regions must not collide");
        // The config label is region-qualified too.
        let cfg = small_config();
        assert!(cfg.label().starts_with("DE["));
        let mut other = small_config();
        other.region = GridRegion::Caiso;
        assert_ne!(cfg.label(), other.label());
    }

    #[test]
    fn prototype_config_has_cap() {
        let c = ExperimentConfig::prototype(GridRegion::Caiso, 10, 0);
        assert_eq!(c.per_job_cap, Some(25));
        assert_eq!(c.executors, 100);
        let s = ExperimentConfig::simulator(GridRegion::Caiso, 10, 0);
        assert_eq!(s.per_job_cap, None);
    }

    #[test]
    fn trace_offset_changes_trace() {
        let c0 = small_config();
        let c1 = small_config().with_offset(12);
        assert_ne!(c0.trace().values[0], c1.trace().values[0]);
    }
}
