//! Fig. 6: executor usage over time for Decima, PCAPS and CAP-FIFO on a
//! small cluster (5 executors, 20 TPC-H jobs, DE grid), alongside the carbon
//! intensity over the same window.

use crate::repro::Output;
use crate::runner::{run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_carbon::GridRegion;
use pcaps_metrics::Series;
use pcaps_workloads::WorkloadKind;

/// The three schedules plus the carbon signal, each as a time series.
#[derive(Debug, Clone)]
pub struct Fig6Output {
    /// Busy executors over time per scheduler.
    pub usage: Vec<Series>,
    /// Carbon intensity over the same window (x in schedule seconds).
    pub carbon: Series,
    /// End of the longest schedule (schedule seconds).
    pub horizon: f64,
}

/// The small-cluster configuration of Fig. 6.
pub fn config(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::simulator(GridRegion::Germany, 20, seed);
    c.executors = 5;
    c.workload = WorkloadKind::TpchMixed;
    c.trace_days = 7;
    c
}

/// Runs the three schedulers and samples their usage profiles on a common
/// grid of `samples` points.
pub fn run(seed: u64, samples: usize) -> Fig6Output {
    let cfg = config(seed);
    let specs = [
        ("Decima", SchedulerSpec::Baseline(BaseScheduler::Decima)),
        ("PCAPS", SchedulerSpec::pcaps_moderate()),
        ("CAP-FIFO", SchedulerSpec::Cap { base: BaseScheduler::Fifo, b: 1 }),
    ];
    let outputs: Vec<_> = specs
        .iter()
        .map(|(label, spec)| (label, run_trial(&cfg, *spec)))
        .collect();
    let horizon = outputs
        .iter()
        .map(|(_, o)| o.result.makespan)
        .fold(0.0_f64, f64::max);

    let usage = outputs
        .iter()
        .map(|(label, o)| {
            let mut s = Series::new(**label);
            for (t, busy) in o.result.profile.sample_usage(horizon, samples) {
                s.push(t, busy);
            }
            s
        })
        .collect();

    let accountant = cfg.accountant();
    let mut carbon = Series::new("carbon");
    for i in 0..samples {
        let t = horizon * i as f64 / (samples - 1) as f64;
        carbon.push(t, accountant.intensity_at(t));
    }
    Fig6Output {
        usage,
        carbon,
        horizon,
    }
}

/// Fig. 6 (one size only): each schedule's average usage is printed, every
/// series written.
pub(crate) fn output(_quick: bool) -> Output {
    let out = run(42, 200);
    let mut text = String::from(
        "Fig. 6 — executor usage over time (5 executors, 20 TPC-H jobs, DE grid)\n\n",
    );
    for s in &out.usage {
        let avg: f64 = s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64;
        text.push_str(&format!(
            "  {:>9}: average busy executors {:.2} over {:.0} s\n",
            s.label, avg, out.horizon
        ));
    }
    text.push_str("\nFull series: results/fig6.csv\n");
    Output { text, csv: to_csv(&out) }
}

/// Renders all series as CSV (`series,x,y`).
pub fn to_csv(out: &Fig6Output) -> String {
    let mut csv = String::from("series,time_s,value\n");
    for s in &out.usage {
        csv.push_str(&s.to_csv());
        csv.push('\n');
    }
    csv.push_str(&out.carbon.to_csv());
    csv.push('\n');
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_usage_series_and_carbon() {
        let out = run(5, 50);
        assert_eq!(out.usage.len(), 3);
        for s in &out.usage {
            assert_eq!(s.points.len(), 50);
            // Usage never exceeds the 5-executor cluster.
            assert!(s.points.iter().all(|(_, y)| *y <= 5.0 + 1e-9));
        }
        assert_eq!(out.carbon.points.len(), 50);
        assert!(out.horizon > 0.0);
        let csv = to_csv(&out);
        assert!(csv.contains("PCAPS") && csv.contains("CAP-FIFO") && csv.contains("carbon"));
    }

    #[test]
    fn pcaps_idles_during_dirty_hours_more_than_decima() {
        // Aggregate busy-executor counts weighted by carbon intensity: the
        // carbon-aware schedule should do relatively less of its work during
        // high-carbon times than the carbon-agnostic one.
        let out = run(11, 200);
        let carbon: Vec<f64> = out.carbon.points.iter().map(|p| p.1).collect();
        let weighted_share = |s: &Series| {
            let total: f64 = s.points.iter().map(|p| p.1).sum();
            let dirty: f64 = s
                .points
                .iter()
                .zip(&carbon)
                .filter(|(_, &c)| c > pcaps_metrics::mean(&carbon))
                .map(|(p, _)| p.1)
                .sum();
            if total > 0.0 {
                dirty / total
            } else {
                0.0
            }
        };
        let decima = weighted_share(&out.usage[0]);
        let pcaps = weighted_share(&out.usage[1]);
        assert!(
            pcaps <= decima + 0.1,
            "PCAPS should not concentrate more work in dirty hours than Decima (pcaps {pcaps:.2} vs decima {decima:.2})"
        );
    }
}
