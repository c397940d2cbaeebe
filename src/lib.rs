//! # carbon-aware-dag-sched
//!
//! Facade crate for the PCAPS/CAP reproduction: re-exports every workspace
//! crate under one roof so examples, integration tests and downstream users
//! can depend on a single package.
//!
//! * [`dag`] — job DAG model (stages, tasks, precedence, critical path),
//! * [`carbon`] — carbon intensity traces and their lookahead bounds,
//!   grid models, accounting,
//! * [`workloads`] — TPC-H and Alibaba-style workload generators,
//! * [`cluster`] — the discrete-event Spark-like cluster simulator, and the
//!   federation core that drives N member clusters (one grid each) under a
//!   job-routing layer plus a live-migration layer with cross-region
//!   transfer costs,
//! * [`schedulers`] — carbon-agnostic baselines (FIFO, Spark/K8s default,
//!   Weighted Fair, Decima-like, GreenHadoop) plus the built-in federation
//!   routers (round-robin, least-work, carbon-greedy, carbon+queue-aware)
//!   and the carbon-delta-vs-transfer-cost live migrator,
//! * [`core`] — PCAPS and CAP, the paper's contributions,
//! * [`metrics`] — JCT / ECT / carbon metrics and statistics,
//! * [`experiments`] — the table/figure reproduction harness.
//!
//! ## Quickstart
//!
//! ```
//! use carbon_aware_dag_sched::prelude::*;
//!
//! // A tiny workload on a 8-executor cluster in the German grid.
//! let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 1)
//!     .jobs(4)
//!     .build();
//! let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 1).generate_days(7);
//! let sim = Simulator::new(ClusterConfig::new(8), workload, trace.clone());
//!
//! // Run the carbon-agnostic Decima-like policy and PCAPS on the same jobs.
//! let baseline = sim.run(&mut DecimaLike::new(0)).unwrap();
//! let mut pcaps = Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate());
//! let aware = sim.run(&mut pcaps).unwrap();
//!
//! let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);
//! let base_summary = ExperimentSummary::of(&baseline, &accountant);
//! let aware_summary = ExperimentSummary::of(&aware, &accountant);
//! let relative = aware_summary.normalized_to(&base_summary);
//! assert!(relative.ect_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use pcaps_carbon as carbon;
pub use pcaps_cluster as cluster;
pub use pcaps_core as core;
pub use pcaps_dag as dag;
pub use pcaps_experiments as experiments;
pub use pcaps_metrics as metrics;
pub use pcaps_schedulers as schedulers;
pub use pcaps_workloads as workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use pcaps_carbon::synth::SyntheticTraceGenerator;
    pub use pcaps_carbon::{CarbonAccountant, CarbonTrace, GridRegion, TraceSet};
    pub use pcaps_cluster::{
        AdmissionDecision, AdmissionPolicy, ArrivalSource, Assignment, BoundedQueue,
        ClusterConfig, CrashVictim, DecisionSink, EngineSnapshot,
        FaultEffect, FaultInjection, FaultKind, FaultPlan, FaultRecord, FaultSchedule, Federation,
        FederationResult, MaterializedJobs, Member, MemberResult, MemberView, Migration,
        MigrationCandidate, MigrationContext, MigrationPolicy, MigrationRecord, MigrationSink,
        NeverMigrate, PartialRunSummary, PoissonCrashes, ProfileMode, RegionOutage,
        RetryPolicy, Router, RoutingContext, SchedEvent, Scheduler, SchedulingContext,
        FlowSet, NetworkTopology, ServeSession, SimulationResult,
        Simulator, StaticRouter, SubmittedJob, TransferFlow, TransferMatrix,
    };
    pub use pcaps_core::{Cap, CapConfig, Pcaps, PcapsConfig};
    pub use pcaps_dag::{JobDag, JobDagBuilder, StageId, Task};
    pub use pcaps_metrics::{ExperimentSummary, NormalizedSummary};
    pub use pcaps_schedulers::{
        CarbonDeltaMigrator, CarbonGreedyRouter, CarbonQueueAwareRouter, DecimaLike, GreenHadoop,
        KubeDefaultFifo, LeastOutstandingWorkRouter, RoundRobinRouter, SparkStandaloneFifo,
        WeightedFair,
    };
    pub use pcaps_workloads::{
        ArrivalProcess, DiurnalArrivals, PoissonArrivals, TpchQuery, TpchScale, WorkloadBuilder,
        WorkloadKind, WorkloadStream,
    };
}
