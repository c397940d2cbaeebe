//! Tables 2 and 3: the headline prototype and simulator summaries.
//!
//! * **Table 2** (prototype): `default` (Spark/K8s FIFO with a 25-executor
//!   cap), Decima, CAP (B = 20) and PCAPS (γ = 0.5), normalised against
//!   `default`, averaged over the six grid regions.
//! * **Table 3** (simulator): FIFO (Spark standalone), Weighted Fair,
//!   Decima, GreenHadoop, CAP over FIFO / Weighted Fair / Decima, and PCAPS,
//!   normalised against FIFO, averaged over the six grid regions.

use crate::format::{pct, ratio, TextTable};
use crate::repro::Output;
use crate::runner::{run_trials, BaseScheduler, ExperimentConfig, SchedulerSpec, Setup};
use pcaps_carbon::GridRegion;
use pcaps_metrics::summary::average_normalized;
use pcaps_metrics::NormalizedSummary;

/// Parameters controlling how much work the headline tables do.
#[derive(Debug, Clone, Copy)]
pub struct HeadlineParams {
    /// Number of jobs per batch (the paper averages 25, 50 and 100; the
    /// default reproduction uses 50).
    pub num_jobs: usize,
    /// Independent trials per (grid, scheduler) pair.
    pub trials: usize,
    /// Cluster size.
    pub executors: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for HeadlineParams {
    fn default() -> Self {
        HeadlineParams {
            num_jobs: 50,
            trials: 3,
            executors: 100,
            seed: 42,
        }
    }
}

impl HeadlineParams {
    /// A reduced configuration for smoke tests and `--quick` runs.
    pub fn quick() -> Self {
        HeadlineParams {
            num_jobs: 15,
            trials: 1,
            executors: 30,
            seed: 42,
        }
    }
}

/// Runs one (region, scheduler) cell and normalises it against the baseline
/// scheduler's runs in the same region.
fn region_summary(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    spec: SchedulerSpec,
    trials: usize,
) -> NormalizedSummary {
    let base_runs = run_trials(config, baseline, trials);
    let runs = run_trials(config, spec, trials);
    let per_trial: Vec<NormalizedSummary> = runs
        .iter()
        .zip(&base_runs)
        .map(|(r, b)| {
            let mut n = r.summary.normalized_to(&b.summary);
            n.scheduler = spec.label();
            n.baseline = baseline.label();
            n
        })
        .collect();
    average_normalized(&per_trial).expect("at least one trial")
}

/// The schedulers of Table 2 (prototype) or Table 3 (simulator), the
/// setup's baseline first.
fn specs(setup: Setup) -> Vec<SchedulerSpec> {
    let base = setup.base();
    match setup {
        Setup::Prototype => vec![
            SchedulerSpec::Baseline(base),
            SchedulerSpec::Baseline(BaseScheduler::Decima),
            SchedulerSpec::cap_moderate(base),
            SchedulerSpec::pcaps_moderate(),
        ],
        Setup::Simulator => vec![
            SchedulerSpec::Baseline(base),
            SchedulerSpec::Baseline(BaseScheduler::WeightedFair),
            SchedulerSpec::Baseline(BaseScheduler::Decima),
            SchedulerSpec::GreenHadoop { theta: 0.5 },
            SchedulerSpec::cap_moderate(base),
            SchedulerSpec::cap_moderate(BaseScheduler::WeightedFair),
            SchedulerSpec::cap_moderate(BaseScheduler::Decima),
            SchedulerSpec::pcaps_moderate(),
        ],
    }
}

/// Computes a headline table: every scheduler of Table 2 (prototype) or
/// Table 3 (simulator) against the setup's baseline, averaged over
/// `regions`.
pub fn headline_rows(
    regions: &[GridRegion],
    setup: Setup,
    params: HeadlineParams,
) -> Vec<NormalizedSummary> {
    let HeadlineParams { num_jobs, trials, executors, seed } = params;
    let baseline = SchedulerSpec::Baseline(setup.base());
    specs(setup)
        .into_iter()
        .map(|spec| {
            let per_region: Vec<NormalizedSummary> = regions
                .iter()
                .map(|&region| {
                    let config = setup.config(region, num_jobs, executors, seed);
                    region_summary(&config, baseline, spec, trials)
                })
                .collect();
            let mut avg = average_normalized(&per_region).expect("at least one region");
            avg.scheduler = spec.label();
            avg.baseline = baseline.label();
            avg
        })
        .collect()
}

/// Table `number` (2 for the prototype, 3 for the simulator) over the six
/// grids.
pub(crate) fn table(number: u8, setup: Setup, quick: bool) -> Output {
    let params = if quick { HeadlineParams::quick() } else { HeadlineParams::default() };
    let rows = headline_rows(&GridRegion::ALL, setup, params);
    let title = format!(
        "Table {number} — {} configuration, averaged over six grids",
        setup.name()
    );
    Output::table(&title, &render(&rows))
}

/// Renders headline rows in the paper's table layout.
pub fn render(rows: &[NormalizedSummary]) -> TextTable {
    let mut table = TextTable::new(&[
        "Scheduler",
        "Carbon Reduction (%)",
        "Avg. ECT (vs baseline)",
        "Avg. JCT (vs baseline)",
    ]);
    for r in rows {
        table.row(vec![
            r.scheduler.clone(),
            pct(r.carbon_reduction_pct),
            ratio(r.ect_ratio),
            ratio(r.jct_ratio),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_has_expected_shape() {
        let rows = headline_rows(&[GridRegion::Germany], Setup::Simulator, HeadlineParams::quick());
        assert_eq!(rows.len(), 8);
        // The FIFO row is the baseline normalised to itself.
        let fifo = &rows[0];
        assert!(fifo.carbon_reduction_pct.abs() < 1e-9);
        assert!((fifo.ect_ratio - 1.0).abs() < 1e-9);
        // PCAPS (last row) must reduce carbon relative to FIFO on the DE grid.
        let pcaps = rows.last().unwrap();
        assert!(
            pcaps.carbon_reduction_pct > 0.0,
            "PCAPS should reduce carbon vs FIFO, got {:.1}%",
            pcaps.carbon_reduction_pct
        );
        let text = render(&rows).render();
        assert!(text.contains("PCAPS"));
        assert!(text.contains("GreenHadoop"));
    }

    #[test]
    fn quick_table2_has_expected_shape() {
        let rows = headline_rows(&[GridRegion::Germany], Setup::Prototype, HeadlineParams::quick());
        assert_eq!(rows.len(), 4);
        assert!(rows[0].scheduler.contains("default"));
        let pcaps = rows.last().unwrap();
        assert!(
            pcaps.carbon_reduction_pct > 0.0,
            "PCAPS should reduce carbon vs the default, got {:.1}%",
            pcaps.carbon_reduction_pct
        );
        let cap = &rows[2];
        assert!(
            cap.carbon_reduction_pct > 0.0,
            "CAP should reduce carbon vs the default, got {:.1}%",
            cap.carbon_reduction_pct
        );
    }
}
