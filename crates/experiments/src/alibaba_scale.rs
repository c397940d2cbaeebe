//! Alibaba-scale streaming sweep: job count × scheduler, with
//! peak-resident-jobs and wall-time columns.
//!
//! The paper's evaluation workloads top out at a few hundred jobs; the
//! Alibaba cluster-trace-v2018 the workload generator is calibrated to has
//! tens of thousands.  This experiment demonstrates that streaming intake
//! opens that regime: each trial pulls an Alibaba-style stream
//! ([`WorkloadBuilder::stream`]) through the engine's one-job arrival
//! window with [`ProfileMode::Light`] recording, so resident state is the
//! active jobs — never the workload.  The `peak_resident_jobs` column is
//! the maximum of the engine's jobs-in-system series; for a healthy sweep
//! it stays orders of magnitude below `jobs`, which is the point: a
//! 100k-job run never holds more than a few hundred materialized DAGs.
//!
//! Binary: `alibaba_scale` (pass `--quick` for a reduced sweep), CSV:
//! `results/alibaba_scale.csv`.
//!
//! [`WorkloadBuilder::stream`]: pcaps_workloads::WorkloadBuilder::stream
//! [`ProfileMode::Light`]: pcaps_cluster::ProfileMode

use crate::runner::{BaseScheduler, SchedulerSpec};
use crate::streaming::StreamSource;
use pcaps_carbon::synth::SyntheticTraceGenerator;
use pcaps_carbon::GridRegion;
use pcaps_cluster::{ClusterConfig, ProfileMode, Simulator};
use pcaps_workloads::{WorkloadBuilder, WorkloadKind};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the scale sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Grid region whose synthetic trace the trials run against (the trace
    /// is periodic, so long runs wrap its diurnal pattern).
    pub region: GridRegion,
    /// Job counts to sweep (the paper-scale 1k up to the trace-scale 100k).
    pub job_counts: Vec<usize>,
    /// Schedulers to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Cluster size `K`.
    pub executors: usize,
    /// Mean Poisson inter-arrival time (schedule seconds).  The default is
    /// tighter than the paper's 30 s so a 100k-job trial spans hundreds of
    /// thousands — not millions — of schedule seconds.
    pub mean_interarrival: f64,
    /// Base random seed.
    pub seed: u64,
    /// Days of synthetic carbon trace to generate (wrapped when exceeded).
    pub trace_days: usize,
}

impl ScaleConfig {
    /// The standard sweep: 1k → 100k Alibaba-style jobs on 100 executors,
    /// FIFO and PCAPS(γ=0.5).
    pub fn standard() -> Self {
        ScaleConfig {
            region: GridRegion::Caiso,
            job_counts: vec![1_000, 10_000, 100_000],
            schedulers: vec![
                SchedulerSpec::Baseline(BaseScheduler::Fifo),
                SchedulerSpec::pcaps_moderate(),
            ],
            executors: 100,
            mean_interarrival: 5.0,
            seed: 42,
            trace_days: 28,
        }
    }

    /// A reduced sweep for smoke runs (`--quick`).
    pub fn quick() -> Self {
        ScaleConfig {
            job_counts: vec![1_000, 10_000],
            ..ScaleConfig::standard()
        }
    }

    /// The cluster configuration of one trial: paper time scaling, light
    /// profile recording (nothing recorded grows with the task count).
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(self.executors)
            .with_time_scale(60.0)
            .with_profile_mode(ProfileMode::Light)
    }

    /// The carbon trace of one trial.
    pub fn trace(&self) -> pcaps_carbon::CarbonTrace {
        SyntheticTraceGenerator::new(self.region, self.seed ^ 0xCA4B0)
            .generate_days(self.trace_days)
    }
}

/// One row of the scale sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Scheduler label.
    pub scheduler: String,
    /// Number of jobs streamed through the trial.
    pub jobs: usize,
    /// Maximum number of jobs resident in the engine at any instant
    /// (arrived, incomplete).  Streaming intake keeps this ≪ `jobs`.
    pub peak_resident_jobs: usize,
    /// Wall-clock time of the trial in seconds.
    pub wall_seconds: f64,
    /// Schedule-time makespan of the run (seconds).
    pub makespan: f64,
    /// Total tasks dispatched.
    pub tasks_dispatched: usize,
    /// Mean job completion time (schedule seconds).
    pub avg_jct: f64,
}

/// Runs one streaming trial of `spec` with `jobs` jobs.
pub fn run_scale_trial(config: &ScaleConfig, jobs: usize, spec: SchedulerSpec) -> ScaleRow {
    let sim = Simulator::streaming(config.cluster_config(), config.trace());
    let mut scheduler = spec.build(config.seed ^ 0x5EED, sim.carbon(), 60.0);
    let mut source = StreamSource::new(
        WorkloadBuilder::new(WorkloadKind::Alibaba, config.seed)
            .jobs(jobs)
            .mean_interarrival(config.mean_interarrival)
            .stream(),
    );
    let started = Instant::now();
    let result = sim
        .run_source(&mut source, scheduler.as_mut())
        .expect("scale trials are constructed to always complete");
    let wall_seconds = started.elapsed().as_secs_f64();
    assert!(result.all_jobs_complete(), "scale trial left jobs incomplete");
    let peak_resident_jobs = result
        .profile
        .jobs_in_system
        .iter()
        .map(|s| s.count)
        .max()
        .unwrap_or(0);
    ScaleRow {
        scheduler: spec.label(),
        jobs,
        peak_resident_jobs,
        wall_seconds,
        makespan: result.makespan,
        tasks_dispatched: result.tasks_dispatched,
        avg_jct: result.average_jct(),
    }
}

/// Runs the whole sweep (job counts × schedulers), in sweep order.
pub fn scale_sweep(config: &ScaleConfig) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for &jobs in &config.job_counts {
        for &spec in &config.schedulers {
            rows.push(run_scale_trial(config, jobs, spec));
        }
    }
    rows
}

/// Renders the sweep as CSV (the format of `results/alibaba_scale.csv`).
pub fn to_csv(config: &ScaleConfig, rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "region,scheduler,jobs,peak_resident_jobs,wall_seconds,makespan_s,tasks,avg_jct_s\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.3},{:.1},{},{:.1}\n",
            config.region.code(),
            r.scheduler,
            r.jobs,
            r.peak_resident_jobs,
            r.wall_seconds,
            r.makespan,
            r.tasks_dispatched,
            r.avg_jct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScaleConfig {
        ScaleConfig {
            job_counts: vec![300],
            schedulers: vec![SchedulerSpec::Baseline(BaseScheduler::Fifo)],
            executors: 20,
            trace_days: 7,
            ..ScaleConfig::standard()
        }
    }

    #[test]
    fn scale_trial_streams_without_materializing() {
        let cfg = tiny_config();
        let row = run_scale_trial(&cfg, 300, cfg.schedulers[0]);
        assert_eq!(row.jobs, 300);
        assert!(row.tasks_dispatched > 300, "Alibaba DAGs are multi-task");
        assert!(row.peak_resident_jobs >= 1);
        assert!(
            row.peak_resident_jobs * 3 < row.jobs,
            "peak resident jobs ({}) must stay well below the workload size ({})",
            row.peak_resident_jobs,
            row.jobs
        );
        assert!(row.wall_seconds > 0.0);
        assert!(row.makespan > 0.0);
    }

    #[test]
    fn sweep_produces_one_row_per_cell_and_csv_has_the_required_columns() {
        let mut cfg = tiny_config();
        cfg.job_counts = vec![100, 200];
        let rows = scale_sweep(&cfg);
        // 2 job counts × 1 scheduler.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].jobs, 100);
        assert_eq!(rows[1].jobs, 200);
        let csv = to_csv(&cfg, &rows);
        let header = csv.lines().next().unwrap();
        assert!(header.contains("peak_resident_jobs"));
        assert!(header.contains("wall_seconds"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn scale_trials_are_deterministic_in_schedule_terms() {
        let cfg = tiny_config();
        let a = run_scale_trial(&cfg, 150, cfg.schedulers[0]);
        let b = run_scale_trial(&cfg, 150, cfg.schedulers[0]);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_dispatched, b.tasks_dispatched);
        assert_eq!(a.peak_resident_jobs, b.peak_resident_jobs);
    }
}
