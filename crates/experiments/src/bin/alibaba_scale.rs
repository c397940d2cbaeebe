//! Alibaba-scale streaming sweep: job count (1k → 100k) × scheduler,
//! through the pull-based intake pipeline.  Writes
//! `results/alibaba_scale.csv` with peak-resident-jobs and wall-time
//! columns — the proof that a trace-scale run never materializes the
//! workload.
use pcaps_experiments::alibaba_scale::{scale_sweep, to_csv, ScaleConfig};
use pcaps_experiments::write_results_file;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick { ScaleConfig::quick() } else { ScaleConfig::standard() };
    println!(
        "Alibaba-scale streaming sweep — {:?} jobs × {} schedulers on {} executors ({})\n",
        config.job_counts,
        config.schedulers.len(),
        config.executors,
        config.region.code(),
    );
    let rows = scale_sweep(&config);
    println!(
        "{:<14} {:>8} {:>14} {:>10} {:>12} {:>10} {:>10}",
        "scheduler", "jobs", "peak_resident", "wall_s", "makespan_s", "tasks", "avg_jct_s"
    );
    for row in &rows {
        println!(
            "{:<14} {:>8} {:>14} {:>10.2} {:>12.0} {:>10} {:>10.1}",
            row.scheduler,
            row.jobs,
            row.peak_resident_jobs,
            row.wall_seconds,
            row.makespan,
            row.tasks_dispatched,
            row.avg_jct,
        );
    }
    let max_ratio = rows
        .iter()
        .map(|r| r.peak_resident_jobs as f64 / r.jobs as f64)
        .fold(0.0_f64, f64::max);
    println!(
        "\nPeak resident jobs never exceeded {:.2}% of the workload: the engine holds the\n\
         arrival window and the active jobs, not the trace.  See results/alibaba_scale.csv.",
        max_ratio * 100.0
    );
    let _ = write_results_file("alibaba_scale.csv", &to_csv(&config, &rows));
}
