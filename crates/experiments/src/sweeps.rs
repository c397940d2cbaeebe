//! Parameter sweeps: Figs. 7, 8, 11, 12 (carbon-awareness sweeps) and
//! Figs. 16–19 (job-count and inter-arrival sweeps, Appendix A.2).
//!
//! Each figure runs one of the paper's two [`Setup`]s on the DE grid: the
//! prototype for Figs. 7, 8, 17 and 19, the simulator for Figs. 11, 12, 16
//! and 18.

use crate::format::{pct, ratio, TextTable};
use crate::repro::Output;
use crate::runner::{run_trials, BaseScheduler, ExperimentConfig, SchedulerSpec, Setup};
use pcaps_carbon::GridRegion;
use pcaps_metrics::summary::average_normalized;
use pcaps_metrics::NormalizedSummary;

/// One point of a sweep: the swept parameter value plus the normalised
/// metrics at that value.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value (γ, B, number of jobs, or inter-arrival
    /// seconds, depending on the sweep).
    pub parameter: f64,
    /// Metrics normalised against the sweep's baseline scheduler.
    pub metrics: NormalizedSummary,
}

/// Runs `spec_for(parameter)` against `baseline` for every parameter value.
fn sweep(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    parameters: &[f64],
    trials: usize,
    spec_for: impl Fn(f64) -> SchedulerSpec,
    config_for: impl Fn(f64, &ExperimentConfig) -> ExperimentConfig,
) -> Vec<SweepPoint> {
    parameters
        .iter()
        .map(|&p| {
            let cfg = config_for(p, config);
            let base_runs = run_trials(&cfg, baseline, trials);
            let runs = run_trials(&cfg, spec_for(p), trials);
            let normalized: Vec<NormalizedSummary> = runs
                .iter()
                .zip(&base_runs)
                .map(|(r, b)| r.summary.normalized_to(&b.summary))
                .collect();
            SweepPoint {
                parameter: p,
                metrics: average_normalized(&normalized).expect("at least one trial"),
            }
        })
        .collect()
}

/// Figs. 7 (prototype) / 11 (simulator): PCAPS carbon and ECT versus γ.
pub fn gamma_sweep(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    gammas: &[f64],
    trials: usize,
) -> Vec<SweepPoint> {
    sweep(
        config,
        baseline,
        gammas,
        trials,
        |g| SchedulerSpec::Pcaps { gamma: g },
        |_, c| c.clone(),
    )
}

/// Figs. 8 (prototype) / 12 (simulator): CAP carbon and ECT versus B.
pub fn b_sweep(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    base: BaseScheduler,
    bs: &[usize],
    trials: usize,
) -> Vec<SweepPoint> {
    let params: Vec<f64> = bs.iter().map(|&b| b as f64).collect();
    sweep(
        config,
        baseline,
        &params,
        trials,
        |b| SchedulerSpec::Cap { base, b: b as usize },
        |_, c| c.clone(),
    )
}

/// Figs. 16 / 17: varying the total number of jobs for one scheduler.
pub fn job_count_sweep(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    spec: SchedulerSpec,
    job_counts: &[usize],
    trials: usize,
) -> Vec<SweepPoint> {
    let params: Vec<f64> = job_counts.iter().map(|&n| n as f64).collect();
    sweep(
        config,
        baseline,
        &params,
        trials,
        |_| spec,
        |n, c| {
            let mut cfg = c.clone();
            cfg.num_jobs = n as usize;
            cfg
        },
    )
}

/// Figs. 18 / 19: varying the Poisson mean inter-arrival time for one
/// scheduler.
pub fn interarrival_sweep(
    config: &ExperimentConfig,
    baseline: SchedulerSpec,
    spec: SchedulerSpec,
    interarrivals: &[f64],
    trials: usize,
) -> Vec<SweepPoint> {
    sweep(
        config,
        baseline,
        interarrivals,
        trials,
        |_| spec,
        |ia, c| c.clone().with_interarrival(ia),
    )
}

/// Renders a sweep as a table.
pub fn render(parameter_name: &str, points: &[SweepPoint]) -> TextTable {
    let mut table = TextTable::new(&[
        parameter_name,
        "Carbon Reduction (%)",
        "ECT (vs baseline)",
        "JCT (vs baseline)",
    ]);
    for p in points {
        table.row(vec![
            format!("{}", p.parameter),
            pct(p.metrics.carbon_reduction_pct),
            ratio(p.metrics.ect_ratio),
            ratio(p.metrics.jct_ratio),
        ]);
    }
    table
}

/// The default parameter grids of the figures (matching the ranges in the
/// paper's figures).
pub mod grids {
    /// γ values of Figs. 7 and 11.
    pub const GAMMAS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];
    /// B values of Figs. 8 and 12 at K = 100 (scaled with K).
    pub const BS: [usize; 5] = [10, 20, 40, 60, 80];
    /// Job counts of Fig. 16.
    pub const JOB_COUNTS_SIM: [usize; 5] = [12, 25, 50, 100, 200];
    /// Job counts of Fig. 17.
    pub const JOB_COUNTS_PROTO: [usize; 3] = [25, 50, 100];
    /// Mean inter-arrival times (schedule seconds) of Figs. 18 / 19.
    pub const INTERARRIVALS: [f64; 5] = [7.5, 15.0, 30.0, 60.0, 120.0];
}

/// `setup` on the DE grid used throughout §6.3/§6.4.
fn de_config(setup: Setup, num_jobs: usize, executors: usize) -> ExperimentConfig {
    setup.config(GridRegion::Germany, num_jobs, executors, 42)
}

/// How the figures name `setup`'s CAP and its baseline.
fn labels(setup: Setup) -> (&'static str, &'static str) {
    match setup {
        Setup::Prototype => ("CAP", "Spark/K8s default"),
        Setup::Simulator => ("CAP-FIFO", "FIFO"),
    }
}

/// Fig. `fig` (7 for the prototype, 11 for the simulator): PCAPS versus γ.
pub(crate) fn gamma_figure(fig: u8, setup: Setup, quick: bool) -> Output {
    let (jobs, execs, trials) = if quick { (15, 30, 1) } else { (50, 100, 3) };
    let baseline = SchedulerSpec::Baseline(setup.base());
    let cfg = de_config(setup, jobs, execs);
    let points = gamma_sweep(&cfg, baseline, &grids::GAMMAS, trials);
    let title = format!(
        "Fig. {fig} — PCAPS carbon / ECT vs gamma ({}, DE grid, {jobs} jobs)",
        setup.name()
    );
    Output::table(&title, &render("gamma", &points))
}

/// Fig. `fig` (8 for the prototype, 12 for the simulator): CAP versus B,
/// with [`grids::BS`] scaled to the cluster.
pub(crate) fn b_figure(fig: u8, setup: Setup, quick: bool) -> Output {
    let (jobs, execs, trials) = if quick { (15, 30, 1) } else { (50, 100, 3) };
    let bs: Vec<usize> = grids::BS.iter().map(|b| (b * execs / 100).max(1)).collect();
    let base = setup.base();
    let cfg = de_config(setup, jobs, execs);
    let points = b_sweep(&cfg, SchedulerSpec::Baseline(base), base, &bs, trials);
    let title = format!(
        "Fig. {fig} — {} carbon / ECT vs B ({}, DE grid, {jobs} jobs)",
        labels(setup).0,
        setup.name()
    );
    Output::table(&title, &render("B", &points))
}

/// Figs. 16–19: `sweep` run for PCAPS, CAP and Decima against `setup`'s
/// baseline, one table per policy, each under its label.
fn per_policy(
    fig: u8,
    swept: &str,
    parameter: &str,
    setup: Setup,
    sweep: impl Fn(SchedulerSpec, SchedulerSpec) -> Vec<SweepPoint>,
) -> Output {
    let (cap, vs) = labels(setup);
    let mut text = format!(
        "Fig. {fig} — {swept} sweep ({}, DE grid), vs {vs}\n\n",
        setup.name()
    );
    let mut csv = String::new();
    let baseline = SchedulerSpec::Baseline(setup.base());
    for (label, spec) in [
        ("PCAPS", SchedulerSpec::pcaps_moderate()),
        (cap, SchedulerSpec::cap_moderate(setup.base())),
        ("Decima", SchedulerSpec::Baseline(BaseScheduler::Decima)),
    ] {
        let table = render(parameter, &sweep(baseline, spec));
        text.push_str(&format!("{label}:\n{}\n", table.render()));
        csv.push_str(&format!("# {label}\n{}", table.to_csv()));
    }
    Output { text, csv }
}

/// Fig. `fig` (16 for the simulator, 17 for the prototype): the job-count
/// sweep.
pub(crate) fn job_count_figure(fig: u8, setup: Setup, quick: bool) -> Output {
    let (execs, trials, counts): (usize, usize, &[usize]) = match (quick, setup) {
        (true, _) => (24, 1, &[6, 12, 25]),
        (false, Setup::Simulator) => (100, 2, &grids::JOB_COUNTS_SIM),
        (false, Setup::Prototype) => (100, 2, &grids::JOB_COUNTS_PROTO),
    };
    let cfg = de_config(setup, 50, execs);
    per_policy(fig, "job-count", "jobs", setup, |baseline, spec| {
        job_count_sweep(&cfg, baseline, spec, counts, trials)
    })
}

/// Fig. `fig` (18 for the simulator, 19 for the prototype): the
/// inter-arrival sweep.
pub(crate) fn interarrival_figure(fig: u8, setup: Setup, quick: bool) -> Output {
    let (jobs, execs, trials, ias) = if quick {
        (12, 24, 1, &[15.0, 60.0][..])
    } else {
        (50, 100, 2, &grids::INTERARRIVALS[..])
    };
    let cfg = de_config(setup, jobs, execs);
    per_policy(
        fig,
        "inter-arrival-time",
        "interarrival_s",
        setup,
        |baseline, spec| interarrival_sweep(&cfg, baseline, spec, ias, trials),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        let mut c = Setup::Simulator.config(GridRegion::Germany, 10, 20, 3);
        c.trace_days = 7;
        c
    }

    #[test]
    fn gamma_sweep_trades_carbon_for_time() {
        let cfg = tiny_config();
        let points = gamma_sweep(
            &cfg,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            &[0.1, 0.9],
            1,
        );
        assert_eq!(points.len(), 2);
        // Higher γ must not reduce carbon less than much lower γ by a wide
        // margin (monotone trend up to trial noise), and both are finite.
        for p in &points {
            assert!(p.metrics.ect_ratio.is_finite());
        }
        assert!(
            points[1].metrics.carbon_reduction_pct >= points[0].metrics.carbon_reduction_pct - 5.0,
            "carbon reduction should not collapse as gamma grows: {:?}",
            points.iter().map(|p| p.metrics.carbon_reduction_pct).collect::<Vec<_>>()
        );
    }

    #[test]
    fn b_sweep_small_b_saves_more_carbon() {
        let cfg = tiny_config();
        let points = b_sweep(
            &cfg,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            BaseScheduler::Fifo,
            &[2, 18],
            1,
        );
        assert_eq!(points.len(), 2);
        assert!(
            points[0].metrics.carbon_reduction_pct >= points[1].metrics.carbon_reduction_pct - 5.0,
            "a stricter quota should not save dramatically less carbon"
        );
    }

    #[test]
    fn job_count_sweep_runs() {
        let cfg = tiny_config();
        let points = job_count_sweep(
            &cfg,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            SchedulerSpec::pcaps_moderate(),
            &[5, 10],
            1,
        );
        assert_eq!(points.len(), 2);
        let text = render("jobs", &points).render();
        assert!(text.contains("jobs"));
    }

    #[test]
    fn interarrival_sweep_runs() {
        let cfg = tiny_config();
        let points = interarrival_sweep(
            &cfg,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            SchedulerSpec::cap_moderate(BaseScheduler::Fifo),
            &[15.0, 60.0],
            1,
        );
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.metrics.ect_ratio > 0.0);
        }
    }
}
