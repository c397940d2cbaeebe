//! Fig. 15 (Appendix A.1.2): Spark standalone FIFO versus the Spark/K8s
//! default behaviour on an identical batch of 50 TPC-H jobs.
//!
//! The standalone FIFO scheduler over-assigns executors to the job at the
//! head of the queue, blocking later jobs; the 25-executor per-application
//! cap of the Kubernetes default leads to more efficient executor usage and
//! lower JCT and carbon.  The paper reports the capped default improving on
//! standalone FIFO by ~19% in carbon and ~22% in average JCT.

use crate::format::TextTable;
use crate::repro::Output;
use crate::runner::{run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_carbon::GridRegion;
use pcaps_metrics::Series;

/// Output of the Fig. 15 comparison.
#[derive(Debug, Clone)]
pub struct Fig15Output {
    /// Busy executors over time for both policies.
    pub usage: Vec<Series>,
    /// Jobs in system over time for both policies.
    pub jobs_in_system: Vec<Series>,
    /// Carbon footprint of the capped default relative to standalone FIFO.
    pub carbon_ratio: f64,
    /// Average JCT of the capped default relative to standalone FIFO.
    pub jct_ratio: f64,
}

/// Runs the comparison with the given batch size and cluster size.
pub fn run(num_jobs: usize, executors: usize, seed: u64, samples: usize) -> Fig15Output {
    let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, num_jobs, seed);
    cfg.executors = executors;
    let fifo = run_trial(&cfg, SchedulerSpec::Baseline(BaseScheduler::Fifo));
    let default = run_trial(&cfg, SchedulerSpec::Baseline(BaseScheduler::KubeDefault));
    let horizon = fifo.result.makespan.max(default.result.makespan);

    let usage = vec![
        sample_series("FIFO (standalone)", &fifo.result.profile.sample_usage(horizon, samples)),
        sample_series(
            "Spark/K8s default",
            &default.result.profile.sample_usage(horizon, samples),
        ),
    ];
    let jobs_in_system = vec![
        jobs_series("FIFO (standalone)", &fifo.result, horizon, samples),
        jobs_series("Spark/K8s default", &default.result, horizon, samples),
    ];
    Fig15Output {
        usage,
        jobs_in_system,
        carbon_ratio: default.summary.carbon_grams / fifo.summary.carbon_grams,
        jct_ratio: default.summary.avg_jct / fifo.summary.avg_jct,
    }
}

fn sample_series(label: &str, points: &[(f64, f64)]) -> Series {
    let mut s = Series::new(label);
    for (x, y) in points {
        s.push(*x, *y);
    }
    s
}

fn jobs_series(
    label: &str,
    result: &pcaps_cluster::SimulationResult,
    horizon: f64,
    samples: usize,
) -> Series {
    let mut s = Series::new(label);
    for i in 0..samples {
        let t = horizon * i as f64 / (samples - 1) as f64;
        let mut count = 0usize;
        for sample in &result.profile.jobs_in_system {
            if sample.time <= t {
                count = sample.count;
            } else {
                break;
            }
        }
        s.push(t, count as f64);
    }
    s
}

/// Fig. 15: the ratios are printed, both policies' series written.
pub(crate) fn output(quick: bool) -> Output {
    let (jobs, execs) = if quick { (20, 40) } else { (50, 100) };
    let out = run(jobs, execs, 42, 200);
    let title = format!(
        "Fig. 15 — standalone FIFO vs Spark/K8s default ({jobs} TPC-H jobs, {execs} executors)"
    );
    Output {
        csv: to_csv(&out),
        ..Output::table(&title, &render(&out))
    }
}

/// Every usage and jobs-in-system series as CSV (`series,time_s,value`).
pub fn to_csv(out: &Fig15Output) -> String {
    let mut csv = String::from("series,time_s,value\n");
    for s in out.usage.iter().chain(&out.jobs_in_system) {
        csv.push_str(&s.to_csv());
        csv.push('\n');
    }
    csv
}

/// Renders the summary comparison.
pub fn render(out: &Fig15Output) -> TextTable {
    let mut table = TextTable::new(&["Metric", "Spark/K8s default vs standalone FIFO"]);
    table.row(vec![
        "Carbon footprint".into(),
        format!("{:.3}x", out.carbon_ratio),
    ]);
    table.row(vec!["Average JCT".into(), format!("{:.3}x", out.jct_ratio)]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_default_is_more_efficient_than_standalone_fifo() {
        let out = run(20, 40, 3, 60);
        assert_eq!(out.usage.len(), 2);
        assert_eq!(out.jobs_in_system.len(), 2);
        assert!(
            out.jct_ratio < 1.25,
            "the capped default should not have dramatically worse JCT, got {:.2}",
            out.jct_ratio
        );
        assert!(out.carbon_ratio < 1.1, "carbon should be comparable, got {:.2}", out.carbon_ratio);
        let text = render(&out).render();
        assert!(text.contains("Carbon footprint"));
    }
}
