//! # pcaps-bench — Criterion benchmarks for the PCAPS reproduction
//!
//! The benchmark targets mirror the paper's performance evaluation and
//! ablate the reproduction's own design choices (the parallelism scaling,
//! which the paper specifies loosely enough that its effect should be
//! measured, not assumed):
//!
//! * `scheduler_latency` — Fig. 20's configurations: the cost of one whole
//!   trial of FIFO, CAP-FIFO, the Decima-like scheduler and PCAPS as the
//!   number of outstanding jobs grows,
//! * `threshold_and_ksearch` — cost of evaluating Ψγ and of building /
//!   querying the CAP k-search threshold set,
//! * `dag_ops` — critical-path / bottom-level / bottleneck analysis on
//!   TPC-H and Alibaba DAGs (computed once per DAG and cached by the
//!   Decima-like scorer), and workload generation up to a whole streamed
//!   Alibaba pull,
//! * `simulator_throughput` — end-to-end simulation speed per scheduler for
//!   a standard experiment batch (what determines how long Tables 2/3 take),
//! * `ablations` — PCAPS design ablations (parallelism scaling on/off,
//!   carbon-awareness level γ).
//!
//! Run everything with `cargo bench --workspace`.

/// Re-export of the experiment runner used by several benches, so the bench
/// targets stay small.
pub use pcaps_experiments::runner;

/// Builds the standard small benchmark workload: `jobs` mixed TPC-H queries
/// on `executors` executors in the German grid.
pub fn bench_config(jobs: usize, executors: usize) -> runner::ExperimentConfig {
    let mut cfg = runner::ExperimentConfig::simulator(
        pcaps_carbon::GridRegion::Germany,
        jobs,
        42,
    );
    cfg.executors = executors;
    cfg.trace_days = 7;
    cfg
}

/// Builds the standard federated benchmark workload: `jobs` mixed TPC-H
/// queries routed across three grids (CAISO / DE / ZA — high, medium and
/// near-zero carbon variability) with `executors_per_member` executors each.
pub fn fed_bench_config(
    jobs: usize,
    executors_per_member: usize,
) -> pcaps_experiments::multi_region::FederationExperimentConfig {
    use pcaps_carbon::GridRegion;
    let mut cfg = pcaps_experiments::multi_region::FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica],
        jobs,
        42,
    );
    cfg.executors_per_member = executors_per_member;
    cfg.trace_days = 7;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_runnable() {
        let cfg = bench_config(3, 8);
        let out = runner::run_trial(&cfg, runner::SchedulerSpec::pcaps_moderate());
        assert!(out.result.all_jobs_complete());
    }

    #[test]
    fn fed_bench_config_is_runnable() {
        let cfg = fed_bench_config(3, 8);
        let out = pcaps_experiments::multi_region::run_federated_trial(
            &cfg,
            pcaps_experiments::multi_region::RouterSpec::CarbonQueueAware,
            runner::SchedulerSpec::pcaps_moderate(),
        );
        assert_eq!(out.members.len(), 3);
        assert!(out.makespan > 0.0);
    }
}
