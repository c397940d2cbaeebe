//! The repository benchmark: four simulator workloads, each built from a
//! seed, run to completion (or to a serving horizon) and checked.
//!
//! [`Spec::build`] assembles one trial's inputs ([`Parts`]) and
//! [`trial::run`] drives them through the engine, either bare (the
//! end-to-end measurement) or with every policy object wrapped in a
//! [`layers`] forwarding wrapper (the per-layer split).  `main.rs` turns
//! repeated trials into the metrics `run.py` prints; `README.md` says why
//! each workload exists and which layer each one loads.

pub mod calib;
pub mod layers;
pub mod report;
pub mod trial;

use pcaps_carbon::{CarbonAccountant, GridRegion};
use pcaps_cluster::{
    AdmissionPolicy, ArrivalSource, BoundedQueue, ClusterConfig, Federation, Member,
    MigrationPolicy, NetworkTopology, NeverMigrate, PoissonCrashes, ProfileMode, Router, Scheduler,
    StaticRouter,
};
use pcaps_experiments::alibaba_scale::ScaleConfig;
use pcaps_experiments::multi_region::{FederationExperimentConfig, MigrationSpec, RouterSpec};
use pcaps_experiments::reliability::trial_retry_policy;
use pcaps_experiments::runner::{BaseScheduler, SchedulerSpec};
use pcaps_experiments::steady_state::SteadyStateConfig;
use pcaps_experiments::streaming::StreamSource;
use pcaps_workloads::{DiurnalArrivals, WorkloadBuilder, WorkloadKind};
use std::time::Instant;

/// Paper time scale: one schedule minute is one carbon hour.
const TIME_SCALE: f64 = 60.0;

/// Seed of every carbon trace.  Traces are fixed inputs, like the recorded
/// grid traces of the paper: all instances run against the same synthetic
/// traces, and the instance seed varies only jobs, arrivals, crashes and
/// scheduler sampling.  With a trace drawn per seed, how dirty the trace
/// happened to be moved PCAPS's deferrals, resident jobs and so its
/// throughput by ±15% from seed to seed.
const TRACE_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Streamed Alibaba-style trace under Spark-standalone FIFO.
    AlibabaFifo,
    /// The same stream under PCAPS(γ=0.5).
    AlibabaPcaps,
    /// Three-grid federation with routing, drain-then-move migration over a
    /// capacitated network, Poisson executor crashes and CAP-FIFO members.
    Fed3ChurnCap,
    /// Open-loop diurnal serving under PCAPS with bounded-queue admission.
    ServePcaps,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::AlibabaFifo,
        Workload::AlibabaPcaps,
        Workload::Fed3ChurnCap,
        Workload::ServePcaps,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlibabaFifo => "alibaba_fifo",
            Workload::AlibabaPcaps => "alibaba_pcaps",
            Workload::Fed3ChurnCap => "fed3_churn_cap",
            Workload::ServePcaps => "serve_pcaps",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size one benchmark trial runs at: jobs for the finite
    /// workloads, the serving horizon in schedule seconds for `serve_pcaps`.
    pub fn standard_size(self) -> usize {
        match self {
            Workload::AlibabaFifo => 2_500,
            // PCAPS's per-task cost follows resident jobs, which the
            // arrival rate sets, so a shorter stream measures the same rate.
            Workload::AlibabaPcaps => 2_000,
            Workload::Fed3ChurnCap => 5_000,
            Workload::ServePcaps => 14_400,
        }
    }

    /// How many independent instances (sub-seeds) one round of trials
    /// covers.  Carbon, JCT and throughput differ between instances; a
    /// round's mean over many of them varies far less from seed to seed.
    pub fn standard_instances(self) -> usize {
        match self {
            Workload::AlibabaFifo => 8,
            Workload::AlibabaPcaps => 3,
            Workload::Fed3ChurnCap => 8,
            Workload::ServePcaps => 16,
        }
    }
}

/// The seed of instance `i` of a run with seed `seed`: runs with
/// different seeds get disjoint instance sets.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// One trial's identity: workload, seed and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload stream, arrivals, crashes and scheduler
    /// sampling (carbon traces are fixed, see `TRACE_SEED`).
    pub seed: u64,
    /// Jobs (finite workloads) or horizon seconds (`serve_pcaps`).
    pub size: usize,
}

/// How a trial advances the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Run a stream of exactly `jobs` jobs to completion.
    Finite {
        /// Jobs the source yields.
        jobs: usize,
    },
    /// Serve an unbounded stream in `slice`-second `run_until` steps up to
    /// `horizon`, sampling windowed metrics and snapshotting every `window`.
    Serve {
        /// Serving horizon (schedule seconds).
        horizon: f64,
        /// Length of one `run_until` slice (schedule seconds).
        slice: f64,
        /// Metrics window and snapshot cadence (schedule seconds).
        window: f64,
    },
}

/// Everything one trial needs, built fresh per trial (sources are consumed
/// and schedulers carry state).
pub struct Parts {
    /// The federation (one member for the single-cluster workloads).
    pub fed: Federation,
    /// The arrival stream.
    pub source: Box<dyn ArrivalSource>,
    /// Job placement.
    pub router: Box<dyn Router>,
    /// Live migration.
    pub migration: Box<dyn MigrationPolicy>,
    /// One scheduler per member.
    pub schedulers: Vec<Box<dyn Scheduler>>,
    /// Admission control (serving only).
    pub admission: Option<Box<dyn AdmissionPolicy>>,
    /// One carbon accountant per member, over that member's trace.
    pub accountants: Vec<CarbonAccountant>,
    /// How the trial advances.
    pub shape: Shape,
    /// Host seconds spent synthesising carbon traces.
    pub trace_s: f64,
    /// Host seconds spent materialising the fault plan (0 without one).
    pub plan_s: f64,
}

impl Spec {
    /// A spec at the workload's standard size.
    pub fn standard(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            seed,
            size: workload.standard_size(),
        }
    }

    /// Builds one trial's inputs.  Everything here counts as set-up.
    pub fn build(&self) -> Parts {
        match self.workload {
            Workload::AlibabaFifo => self.alibaba(SchedulerSpec::Baseline(BaseScheduler::Fifo)),
            Workload::AlibabaPcaps => self.alibaba(SchedulerSpec::pcaps_moderate()),
            Workload::Fed3ChurnCap => self.fed3(),
            Workload::ServePcaps => self.serve(),
        }
    }

    fn alibaba(&self, spec: SchedulerSpec) -> Parts {
        let cfg = ScaleConfig {
            seed: TRACE_SEED,
            ..ScaleConfig::standard()
        };
        let started = Instant::now();
        let trace = cfg.trace();
        let trace_s = started.elapsed().as_secs_f64();
        let accountants = vec![CarbonAccountant::new(trace.clone()).with_time_scale(TIME_SCALE)];
        let scheduler = spec.build(self.seed ^ 0x5EED, &trace, TIME_SCALE);
        let fed = Federation::streaming(vec![Member::new(
            cfg.region.code(),
            cfg.cluster_config(),
            trace,
        )]);
        let stream = WorkloadBuilder::new(WorkloadKind::Alibaba, self.seed)
            .jobs(self.size)
            .mean_interarrival(cfg.mean_interarrival)
            .stream();
        Parts {
            fed,
            source: Box::new(StreamSource::new(stream)),
            router: Box::new(StaticRouter::new(0)),
            migration: Box::new(NeverMigrate::new()),
            schedulers: vec![scheduler],
            admission: None,
            accountants,
            shape: Shape::Finite { jobs: self.size },
            trace_s,
            plan_s: 0.0,
        }
    }

    fn fed3(&self) -> Parts {
        let regions = vec![
            GridRegion::Caiso,
            GridRegion::Germany,
            GridRegion::SouthAfrica,
        ];
        let cfg = FederationExperimentConfig::standard(regions, self.size, self.seed);
        let started = Instant::now();
        let traces = FederationExperimentConfig {
            seed: TRACE_SEED,
            ..cfg.clone()
        }
        .traces()
        .into_traces();
        let trace_s = started.elapsed().as_secs_f64();
        let accountants = traces
            .iter()
            .map(|t| CarbonAccountant::new(t.clone()).with_time_scale(TIME_SCALE))
            .collect();
        let schedulers = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                SchedulerSpec::cap_moderate(BaseScheduler::Fifo).build(
                    cfg.member_seed(i),
                    t,
                    TIME_SCALE,
                )
            })
            .collect();
        let members = cfg
            .regions
            .iter()
            .zip(traces)
            .map(|(region, trace)| {
                let config = ClusterConfig::new(cfg.executors_per_member)
                    .with_time_scale(TIME_SCALE)
                    .with_profile_mode(ProfileMode::Light);
                Member::new(region.code(), config, trace)
            })
            .collect();
        let matrix = cfg.transfer_matrix();
        let network = (0..cfg.regions.len())
            .fold(NetworkTopology::from_matrix(&matrix), |net, m| {
                net.with_uplink(m, 0.5)
            });
        let fed = Federation::streaming(members)
            .with_transfer_matrix(matrix)
            .with_network(network)
            .with_retry_policy(trial_retry_policy());
        // Crashes cover the whole arrival span and a quarter beyond it.
        let crash_horizon = self.size as f64 * cfg.mean_interarrival * 1.25;
        let plan = PoissonCrashes::new(self.seed ^ 0xFA17, 40.0).with_horizon(crash_horizon);
        let started = Instant::now();
        let fed = fed.with_fault_plan(&plan);
        let plan_s = started.elapsed().as_secs_f64();
        let stream = WorkloadBuilder::new(cfg.workload, self.seed)
            .jobs(self.size)
            .mean_interarrival(cfg.mean_interarrival)
            .stream();
        Parts {
            fed,
            source: Box::new(StreamSource::new(stream)),
            router: RouterSpec::CarbonQueueAware.build(),
            migration: MigrationSpec::CarbonDeltaDrain.build(),
            schedulers,
            admission: None,
            accountants,
            shape: Shape::Finite { jobs: self.size },
            trace_s,
            plan_s,
        }
    }

    fn serve(&self) -> Parts {
        let mut cfg = SteadyStateConfig::standard(GridRegion::Germany, self.seed);
        cfg.horizon = self.size as f64;
        // Carbon days the horizon spans at the paper time scale, plus one.
        cfg.trace_days = (cfg.horizon * TIME_SCALE / 86_400.0).ceil() as usize + 1;
        let started = Instant::now();
        let trace = SteadyStateConfig {
            seed: TRACE_SEED,
            ..cfg.clone()
        }
        .trace();
        let trace_s = started.elapsed().as_secs_f64();
        let accountants = vec![CarbonAccountant::new(trace.clone()).with_time_scale(TIME_SCALE)];
        let scheduler =
            SchedulerSpec::pcaps_moderate().build(cfg.seed ^ 0x5EED, &trace, TIME_SCALE);
        let fed = Federation::streaming(vec![Member::new(
            cfg.region.code(),
            cfg.cluster_config(),
            trace,
        )]);
        let arrivals = DiurnalArrivals::new(
            cfg.mean_interarrival,
            cfg.amplitude,
            1440.0,
            cfg.seed ^ 0xA11CE,
        );
        let stream = WorkloadBuilder::new(cfg.workload, cfg.seed).stream_unbounded(arrivals);
        Parts {
            fed,
            source: Box::new(StreamSource::new(stream)),
            router: Box::new(StaticRouter::new(0)),
            migration: Box::new(NeverMigrate::new()),
            schedulers: vec![scheduler],
            admission: Some(Box::new(BoundedQueue::new(4 * cfg.executors))),
            accountants,
            shape: Shape::Serve {
                horizon: cfg.horizon,
                slice: 10.0,
                window: cfg.window,
            },
            trace_s,
            plan_s: 0.0,
        }
    }
}
