//! Figs. 10 and 14: carbon reduction and ECT per grid region.
//!
//! The paper's takeaway is that grids with more variable carbon intensity
//! (higher coefficient of variation — CAISO, ON, DE) admit larger carbon
//! reductions, at the cost of larger ECT increases, while nearly-flat grids
//! (ZA) leave little room for any carbon-aware policy.

use crate::format::{pct, ratio, TextTable};
use crate::repro::Output;
use crate::runner::{run_trials, BaseScheduler, SchedulerSpec, Setup};
use pcaps_carbon::GridRegion;
use pcaps_metrics::summary::average_normalized;
use pcaps_metrics::NormalizedSummary;

/// Results for one grid region: one normalised summary per evaluated
/// scheduler.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// The grid region.
    pub region: GridRegion,
    /// Coefficient of variation of the region's trace (from Table 1).
    pub coeff_var: f64,
    /// Normalised metrics per scheduler, in the order supplied.
    pub per_scheduler: Vec<NormalizedSummary>,
}

/// Runs the per-grid comparison of `specs` against `setup`'s baseline: the
/// prototype configuration for Fig. 10, the simulator's for Fig. 14.
pub fn per_grid(
    regions: &[GridRegion],
    specs: &[SchedulerSpec],
    setup: Setup,
    num_jobs: usize,
    executors: usize,
    trials: usize,
    seed: u64,
) -> Vec<GridRow> {
    let baseline = SchedulerSpec::Baseline(setup.base());
    regions
        .iter()
        .map(|&region| {
            let config = setup.config(region, num_jobs, executors, seed);
            let base_runs = run_trials(&config, baseline, trials);
            let per_scheduler = specs
                .iter()
                .map(|&spec| {
                    let runs = run_trials(&config, spec, trials);
                    let normalized: Vec<NormalizedSummary> = runs
                        .iter()
                        .zip(&base_runs)
                        .map(|(r, b)| {
                            let mut n = r.summary.normalized_to(&b.summary);
                            n.scheduler = spec.label();
                            n
                        })
                        .collect();
                    average_normalized(&normalized).expect("at least one trial")
                })
                .collect();
            GridRow {
                region,
                coeff_var: region.table1_stats().coeff_var,
                per_scheduler,
            }
        })
        .collect()
}

/// Fig. `fig` (10 for the prototype, 14 for the simulator): PCAPS, CAP and
/// Decima against `setup`'s baseline on every grid.
pub(crate) fn figure(fig: u8, setup: Setup, quick: bool) -> Output {
    let (jobs, execs, trials) = if quick { (12, 24, 1) } else { (50, 100, 3) };
    let specs = [
        SchedulerSpec::pcaps_moderate(),
        SchedulerSpec::cap_moderate(setup.base()),
        SchedulerSpec::Baseline(BaseScheduler::Decima),
    ];
    let rows = per_grid(&GridRegion::ALL, &specs, setup, jobs, execs, trials, 42);
    let title = format!(
        "Fig. {fig} — per-grid carbon reduction and ECT ({} configuration)",
        setup.name()
    );
    Output::table(&title, &render(&rows))
}

/// Renders the per-grid rows (one line per region × scheduler).
pub fn render(rows: &[GridRow]) -> TextTable {
    let mut table = TextTable::new(&[
        "Grid",
        "CV",
        "Scheduler",
        "Carbon Reduction (%)",
        "ECT (vs baseline)",
    ]);
    for row in rows {
        for s in &row.per_scheduler {
            table.row(vec![
                row.region.code().to_string(),
                format!("{:.3}", row.coeff_var),
                s.scheduler.clone(),
                pct(s.carbon_reduction_pct),
                ratio(s.ect_ratio),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_grids_allow_more_savings_than_flat_ones() {
        // Compare the most variable grid the paper highlights (CAISO) to the
        // flattest (ZA) with a moderately carbon-aware PCAPS.
        let rows = per_grid(
            &[GridRegion::Caiso, GridRegion::SouthAfrica],
            &[SchedulerSpec::pcaps_moderate()],
            Setup::Simulator,
            12,
            20,
            1,
            7,
        );
        assert_eq!(rows.len(), 2);
        let caiso = &rows[0].per_scheduler[0];
        let za = &rows[1].per_scheduler[0];
        assert!(
            caiso.carbon_reduction_pct > za.carbon_reduction_pct,
            "CAISO ({:.1}%) should admit more savings than ZA ({:.1}%)",
            caiso.carbon_reduction_pct,
            za.carbon_reduction_pct
        );
        let text = render(&rows).render();
        assert!(text.contains("CAISO") && text.contains("ZA"));
    }
}
