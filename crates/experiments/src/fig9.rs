//! Fig. 9: per-trial average JCT versus per-job carbon footprint for PCAPS
//! and CAP, normalised so the baseline sits at (1, 1).
//!
//! The paper reports the fraction of trials falling into each quadrant:
//! PCAPS improves per-job carbon in ~96% of trials and improves both carbon
//! and completion time in ~26%, while CAP rarely improves both.

use crate::format::TextTable;
use crate::repro::Output;
use crate::runner::{run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_carbon::GridRegion;
use pcaps_metrics::footprint::total_footprint;

/// One scatter point: a single trial of one scheduler.
#[derive(Debug, Clone, Copy)]
pub struct TrialPoint {
    /// Average JCT relative to the baseline trial (x axis).
    pub jct_ratio: f64,
    /// Average per-job carbon relative to the baseline trial (y axis).
    pub carbon_ratio: f64,
}

/// Scatter points for one scheduler plus its quadrant shares.
#[derive(Debug, Clone)]
pub struct SchedulerScatter {
    /// Scheduler label.
    pub label: String,
    /// One point per trial.
    pub points: Vec<TrialPoint>,
}

impl SchedulerScatter {
    /// Fraction of trials with lower per-job carbon than the baseline.
    pub fn carbon_improved_share(&self) -> f64 {
        share(&self.points, |p| p.carbon_ratio < 1.0)
    }

    /// Fraction of trials improving both carbon and completion time
    /// (the lower-left quadrant).
    pub fn both_improved_share(&self) -> f64 {
        share(&self.points, |p| p.carbon_ratio < 1.0 && p.jct_ratio < 1.0)
    }
}

fn share(points: &[TrialPoint], pred: impl Fn(&TrialPoint) -> bool) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().filter(|p| pred(p)).count() as f64 / points.len() as f64
}

/// Runs `trials` prototype trials of moderately carbon-aware PCAPS and CAP,
/// each normalised against the default baseline on the same trial seed.
pub fn run(region: GridRegion, num_jobs: usize, executors: usize, trials: usize, seed: u64) -> Vec<SchedulerScatter> {
    let specs = [
        ("PCAPS", SchedulerSpec::pcaps_moderate()),
        ("CAP", SchedulerSpec::cap_moderate(BaseScheduler::KubeDefault)),
    ];
    specs
        .iter()
        .map(|(label, spec)| {
            let mut points = Vec::with_capacity(trials);
            for i in 0..trials {
                let seed = seed + i as u64 * 101;
                let cfg = ExperimentConfig::prototype(region, num_jobs, executors, seed)
                    .with_offset(i * 37);
                let accountant = cfg.accountant();
                let baseline =
                    run_trial(&cfg, SchedulerSpec::Baseline(BaseScheduler::KubeDefault));
                let aware = run_trial(&cfg, *spec);
                let base_carbon =
                    total_footprint(&baseline.result, &accountant) / baseline.result.jobs.len() as f64;
                let aware_carbon =
                    total_footprint(&aware.result, &accountant) / aware.result.jobs.len() as f64;
                points.push(TrialPoint {
                    jct_ratio: aware.result.average_jct() / baseline.result.average_jct(),
                    carbon_ratio: aware_carbon / base_carbon,
                });
            }
            SchedulerScatter {
                label: label.to_string(),
                points,
            }
        })
        .collect()
}

/// Fig. 9: the quadrant shares are printed, every scatter point written.
pub(crate) fn output(quick: bool) -> Output {
    let (jobs, execs, trials) = if quick { (10, 20, 4) } else { (50, 100, 24) };
    let scatters = run(GridRegion::Germany, jobs, execs, trials, 42);
    Output {
        csv: to_csv(&scatters),
        ..Output::table(
            "Fig. 9 — per-trial average JCT vs per-job carbon (normalised to default)",
            &render(&scatters),
        )
    }
}

/// Renders the quadrant summary table.
pub fn render(scatters: &[SchedulerScatter]) -> TextTable {
    let mut table = TextTable::new(&[
        "Scheduler",
        "Trials",
        "Carbon improved (%)",
        "Carbon & JCT improved (%)",
    ]);
    for s in scatters {
        table.row(vec![
            s.label.clone(),
            s.points.len().to_string(),
            format!("{:.1}", 100.0 * s.carbon_improved_share()),
            format!("{:.1}", 100.0 * s.both_improved_share()),
        ]);
    }
    table
}

/// CSV of all scatter points (`scheduler,jct_ratio,carbon_ratio`).
pub fn to_csv(scatters: &[SchedulerScatter]) -> String {
    let mut out = String::from("scheduler,jct_ratio,carbon_ratio\n");
    for s in scatters {
        for p in &s.points {
            out.push_str(&format!("{},{},{}\n", s.label, p.jct_ratio, p.carbon_ratio));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcaps_improves_carbon_in_most_trials() {
        let scatters = run(GridRegion::Germany, 10, 20, 3, 5);
        assert_eq!(scatters.len(), 2);
        let pcaps = &scatters[0];
        assert_eq!(pcaps.points.len(), 3);
        assert!(
            pcaps.carbon_improved_share() >= 0.5,
            "PCAPS should improve per-job carbon in most trials, got {:.0}%",
            100.0 * pcaps.carbon_improved_share()
        );
        let text = render(&scatters).render();
        assert!(text.contains("PCAPS") && text.contains("CAP"));
        assert!(to_csv(&scatters).lines().count() > 3);
    }
}
