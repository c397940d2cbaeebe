//! Reliability sweep: crash rate × strategy under deterministic fault
//! injection.
//!
//! Beyond the paper's fault-free evaluation, this sweep asks how the
//! carbon-aware stack degrades when the infrastructure itself misbehaves:
//! every member cluster draws an independent Poisson executor-crash process
//! ([`PoissonCrashes`]), crashed attempts are retried after backoff, and
//! the engine's degraded-mode ledger prices what the crashes threw away.
//! Each trial reports, next to the usual carbon/makespan/JCT numbers, the
//! wasted executor-seconds, the *wasted carbon* (emissions of thrown-away
//! attempts, priced per crash against the member's own trace), and goodput
//! (the retained fraction of all executor-seconds spent).
//!
//! The sweep crosses mean-time-between-crashes values (including the
//! fault-free baseline) with routing × migration × scheduling strategies so
//! the output answers two questions at once: how much absolute performance
//! each strategy loses as crashes accelerate, and whether the carbon-aware
//! strategies stay ahead of the carbon-blind ones under churn (entry:
//! `reliability`, CSV: `results/reliability.csv`).

use crate::format::TextTable;
use crate::multi_region::{FederationExperimentConfig, MigrationSpec, RouterSpec};
use crate::repro::Output;
use crate::runner::{BaseScheduler, SchedulerSpec};
use pcaps_carbon::GridRegion;
use pcaps_cluster::{
    FederationResult, PoissonCrashes, RegionOutage, RetryPolicy, Scheduler, SimError,
};
use pcaps_metrics::{ExperimentSummary, ReliabilitySummary};

/// One routing × migration × scheduling combination swept against the crash
/// rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityStrategy {
    /// The routing policy.
    pub router: RouterSpec,
    /// The live-migration policy.
    pub migration: MigrationSpec,
    /// The (per-member) scheduling policy.
    pub spec: SchedulerSpec,
}

impl ReliabilityStrategy {
    /// The default strategy ladder: carbon-blind baseline, then carbon
    /// awareness added one layer at a time (scheduler, router, migrator).
    pub fn ladder() -> Vec<ReliabilityStrategy> {
        vec![
            ReliabilityStrategy {
                router: RouterSpec::RoundRobin,
                migration: MigrationSpec::Never,
                spec: SchedulerSpec::Baseline(BaseScheduler::Fifo),
            },
            ReliabilityStrategy {
                router: RouterSpec::RoundRobin,
                migration: MigrationSpec::Never,
                spec: SchedulerSpec::pcaps_moderate(),
            },
            ReliabilityStrategy {
                router: RouterSpec::CarbonQueueAware,
                migration: MigrationSpec::Never,
                spec: SchedulerSpec::pcaps_moderate(),
            },
            ReliabilityStrategy {
                router: RouterSpec::CarbonQueueAware,
                migration: MigrationSpec::CarbonDelta,
                spec: SchedulerSpec::pcaps_moderate(),
            },
        ]
    }
}

/// Output of one reliability trial (one crash rate × one strategy).
#[derive(Debug, Clone)]
pub struct ReliabilityTrialOutput {
    /// What misbehaved: `"fault-free"`, `"crashes"` (Poisson executor
    /// crashes), or `"outage"` (a windowed whole-member outage whose
    /// evacuations ride the transfer model).
    pub scenario: &'static str,
    /// Transfer model label: `"network"` when the trial's federation carried
    /// a link-level topology, `"matrix"` otherwise.
    pub network: &'static str,
    /// Mean time between crashes per member (schedule seconds); `None` is
    /// the fault-free baseline.
    pub mtbf_seconds: Option<f64>,
    /// The strategy this trial ran.
    pub strategy: ReliabilityStrategy,
    /// Federation-merged degraded-mode roll-up (wasted work/carbon, crash
    /// and retry counts, goodput).
    pub reliability: ReliabilitySummary,
    /// Total carbon: execution (crashed attempts included — they drew
    /// power) plus cross-region transfer carbon (grams CO₂eq).
    pub total_carbon_grams: f64,
    /// Federation-level makespan (last completion anywhere).
    pub makespan: f64,
    /// Job-weighted average JCT across the federation.
    pub avg_jct: f64,
    /// Number of live migrations applied (outage evacuations included).
    pub num_migrations: usize,
}

/// The retry policy reliability trials run under: generous enough that a
/// Poisson crash process never aborts the run by exhausting one task's
/// attempt budget.
pub fn trial_retry_policy() -> RetryPolicy {
    RetryPolicy { max_attempts: 64, ..RetryPolicy::default() }
}

/// The crash horizon for `config`: the span of the configured carbon trace
/// in schedule seconds (crashes past the run's drain never fire, so a
/// too-long horizon only costs schedule memory — but the federation's
/// *default* horizon is the engine's no-limit sentinel, which would make a
/// Poisson plan astronomically long; always cap it).
pub fn crash_horizon(config: &FederationExperimentConfig) -> f64 {
    config.trace_days as f64 * 24.0 * 60.0
}

/// Runs one reliability trial.  `mtbf_seconds: None` runs fault-free (and
/// must reproduce the plain federated trial bit for bit — the empty
/// schedule shares the no-fault fast path).
pub fn run_reliability_trial(
    config: &FederationExperimentConfig,
    mtbf_seconds: Option<f64>,
    strategy: ReliabilityStrategy,
) -> Result<ReliabilityTrialOutput, SimError> {
    let mut federation = config
        .federation_instance()
        .with_retry_policy(trial_retry_policy());
    let mut scenario = "fault-free";
    if let Some(mtbf) = mtbf_seconds {
        let plan = PoissonCrashes::new(config.seed ^ 0xFA17, mtbf)
            .with_horizon(crash_horizon(config));
        federation = federation.with_fault_plan(&plan);
        scenario = "crashes";
    }
    finish_trial(config, federation, mtbf_seconds, scenario, strategy)
}

/// Runs one outage-evacuation trial: `outage` takes one whole member down
/// over its window, the engine evacuates that member's drained jobs to the
/// surviving members, and — when the config gives the outaged member an
/// uplink (see [`FederationExperimentConfig::with_network`]) — those
/// simultaneous evacuations contend for that uplink under max-min fair
/// sharing instead of each paying the fixed per-GB matrix delay.
pub fn run_outage_trial(
    config: &FederationExperimentConfig,
    outage: &RegionOutage,
    strategy: ReliabilityStrategy,
) -> Result<ReliabilityTrialOutput, SimError> {
    let federation = config
        .federation_instance()
        .with_retry_policy(trial_retry_policy())
        .with_fault_plan(outage);
    finish_trial(config, federation, None, "outage", strategy)
}

fn finish_trial(
    config: &FederationExperimentConfig,
    federation: pcaps_cluster::Federation,
    mtbf_seconds: Option<f64>,
    scenario: &'static str,
    strategy: ReliabilityStrategy,
) -> Result<ReliabilityTrialOutput, SimError> {
    let accountants = config.accountants();
    let mut schedulers: Vec<Box<dyn Scheduler>> = federation
        .members()
        .iter()
        .enumerate()
        .map(|(i, member)| strategy.spec.build(config.member_seed(i), &member.carbon, 60.0))
        .collect();
    let mut router = strategy.router.build();
    let mut migration = strategy.migration.build();
    let result: FederationResult = {
        let mut refs: Vec<&mut dyn Scheduler> = Vec::with_capacity(schedulers.len());
        for s in schedulers.iter_mut() {
            refs.push(&mut **s);
        }
        federation.run_with_migration(router.as_mut(), migration.as_mut(), &mut refs)?
    };
    let mut reliability: Option<ReliabilitySummary> = None;
    let mut execution_carbon = 0.0;
    for (m, accountant) in result.members.iter().zip(&accountants) {
        execution_carbon += ExperimentSummary::of(&m.result, accountant).carbon_grams;
        let member = ReliabilitySummary::of(&m.result, accountant);
        match &mut reliability {
            Some(total) => total.merge(&member),
            None => reliability = Some(member),
        }
    }
    let reliability = reliability.expect("a federation has at least one member");
    Ok(ReliabilityTrialOutput {
        scenario,
        network: if config.network.is_some() { "network" } else { "matrix" },
        mtbf_seconds,
        strategy,
        reliability,
        total_carbon_grams: execution_carbon + result.transfer_carbon_grams(),
        makespan: result.makespan,
        avg_jct: result.average_jct(),
        num_migrations: result.num_migrations(),
    })
}

/// Runs the full sweep: every crash rate × every strategy on the same
/// workload and traces.  Trials aborted by the engine (which the generous
/// [`trial_retry_policy`] makes practically unreachable) propagate as
/// errors rather than being dropped silently.
pub fn reliability_sweep(
    config: &FederationExperimentConfig,
    mtbfs: &[Option<f64>],
    strategies: &[ReliabilityStrategy],
) -> Result<Vec<ReliabilityTrialOutput>, SimError> {
    let mut outputs = Vec::with_capacity(mtbfs.len() * strategies.len());
    for &mtbf in mtbfs {
        for &strategy in strategies {
            outputs.push(run_reliability_trial(config, mtbf, strategy)?);
        }
    }
    Ok(outputs)
}

/// The sweep behind `results/reliability.csv`: every crash rate × strategy
/// ([`ReliabilityStrategy::ladder`]), then an outage arm (one member down
/// just after a burst of arrivals, evacuated over the uniform matrix and
/// then through a choked uplink) whose rows append under the one header.
/// `quick` shrinks the crash arm to two regions, 12 jobs and two crash
/// rates.
///
/// # Panics
/// Panics if a trial exhausts a task's attempts, which the generous
/// [`trial_retry_policy`] makes practically unreachable.
pub(crate) fn output(quick: bool) -> Output {
    let (regions, jobs, execs): (Vec<GridRegion>, usize, usize) = if quick {
        (vec![GridRegion::Caiso, GridRegion::SouthAfrica], 12, 8)
    } else {
        (vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica], 48, 10)
    };
    let mut config = FederationExperimentConfig::standard(regions, jobs, 42);
    config.executors_per_member = execs;
    // Fault-free baseline, then mean times between crashes per member
    // from rare (one crash per trace-hour of schedule time) to punishing.
    let mtbfs = if quick {
        vec![None, Some(600.0)]
    } else {
        vec![None, Some(3_600.0), Some(900.0), Some(300.0)]
    };
    let strategies = ReliabilityStrategy::ladder();
    let outputs = reliability_sweep(&config, &mtbfs, &strategies)
        .expect("the generous trial retry policy never exhausts a task's attempts");
    // Outage arm: the green grid goes down 60 s after a burst of
    // arrivals, so its whole queue evacuates to the survivor at once.
    // Replayed on the uniform matrix and through a network whose
    // outaged-member uplink is choked to 0.001 GB/s — same evacuations,
    // but now they contend for one link under max-min fair sharing.
    let mut cliff = FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::SouthAfrica],
        12,
        42,
    );
    cliff.executors_per_member = 2;
    cliff.mean_interarrival = 1.0;
    let congested = cliff.clone().with_network(cliff.congested_uplink(0, 0.001));
    let region_outage = RegionOutage::new(0, 60.0, 86_400.0);
    let strategy = ReliabilityStrategy {
        router: RouterSpec::RoundRobin,
        migration: MigrationSpec::Never,
        spec: SchedulerSpec::Baseline(BaseScheduler::Fifo),
    };
    let outage = [&cliff, &congested].map(|c| {
        run_outage_trial(c, &region_outage, strategy)
            .expect("outage trials dispatch no crashed attempts")
    });
    let text = format!(
        "Reliability sweep — {} members × {} crash rates × {} strategies\n\n\
         {}\n\
         Crashes waste both time and carbon: every thrown-away attempt drew power at\n\
         the grid's intensity when it ran.  Goodput tracks the retained fraction of\n\
         executor-seconds; the carbon-aware strategies keep their footprint advantage\n\
         under churn because routing and migration steer retries toward green grids.\n\
         See results/reliability.csv for every trial.\n\
         \nOutage-evacuation arm — CAISO down from t=60 s, uplink 0.001 GB/s when congested:\n\n\
         {}\n\
         Both runs evacuate the same jobs; only the transfer model differs.  Through the\n\
         choked uplink the simultaneous evacuation flows max-min share 0.001 GB/s, so\n\
         the moves that cost seconds on the uniform matrix now serialise into hours —\n\
         the degradation an outage really causes when every refugee crosses one link.\n",
        config.regions.len(),
        mtbfs.len(),
        strategies.len(),
        render(&outputs).render(),
        render(&outage).render(),
    );
    let mut csv = to_csv(&outputs);
    csv.push_str(crate::csv_rows(&to_csv(&outage)));
    Output { text, csv }
}

fn mtbf_label(mtbf: Option<f64>) -> String {
    match mtbf {
        None => "inf".to_string(),
        Some(m) => format!("{m:.0}"),
    }
}

/// Renders the sweep as a text table (one line per trial).
pub fn render(outputs: &[ReliabilityTrialOutput]) -> TextTable {
    let mut table = TextTable::new(&[
        "Scenario",
        "Net",
        "MTBF (s)",
        "Router",
        "Migration",
        "Scheduler",
        "Crashes",
        "Wasted (s)",
        "Wasted C (g)",
        "Goodput",
        "Carbon (kg)",
        "Makespan (s)",
        "Avg JCT (s)",
    ]);
    for out in outputs {
        table.row(vec![
            out.scenario.to_string(),
            out.network.to_string(),
            mtbf_label(out.mtbf_seconds),
            out.strategy.router.label().to_string(),
            out.strategy.migration.label().to_string(),
            out.strategy.spec.label(),
            format!("{}", out.reliability.tasks_failed),
            format!("{:.0}", out.reliability.wasted_seconds),
            format!("{:.1}", out.reliability.wasted_carbon_grams),
            format!("{:.3}", out.reliability.goodput),
            format!("{:.1}", out.total_carbon_grams / 1000.0),
            format!("{:.0}", out.makespan),
            format!("{:.0}", out.avg_jct),
        ]);
    }
    table
}

/// Serialises the sweep as CSV, one row per trial.
pub fn to_csv(outputs: &[ReliabilityTrialOutput]) -> String {
    let mut csv = String::from(
        "scenario,network,mtbf_s,router,migration,scheduler,crashes,retries,wasted_s,\
         wasted_carbon_g,goodput,useful_s,migrations,carbon_g,makespan_s,avg_jct_s\n",
    );
    for out in outputs {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.3},{:.3},{:.6},{:.3},{},{:.3},{:.3},{:.3}\n",
            out.scenario,
            out.network,
            mtbf_label(out.mtbf_seconds),
            out.strategy.router.label(),
            out.strategy.migration.label(),
            out.strategy.spec.label(),
            out.reliability.tasks_failed,
            out.reliability.retries,
            out.reliability.wasted_seconds,
            out.reliability.wasted_carbon_grams,
            out.reliability.goodput,
            out.reliability.useful_seconds,
            out.num_migrations,
            out.total_carbon_grams,
            out.makespan,
            out.avg_jct,
        ));
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_region::run_federated_trial_with_migration;
    use pcaps_carbon::GridRegion;

    fn small_config() -> FederationExperimentConfig {
        let mut cfg = FederationExperimentConfig::standard(
            vec![GridRegion::Caiso, GridRegion::SouthAfrica],
            10,
            3,
        );
        cfg.executors_per_member = 6;
        cfg.trace_days = 7;
        cfg
    }

    #[test]
    fn the_fault_free_trial_matches_the_plain_federated_trial() {
        let cfg = small_config();
        let strategy = ReliabilityStrategy::ladder()[0];
        let out = run_reliability_trial(&cfg, None, strategy).unwrap();
        let plain = run_federated_trial_with_migration(
            &cfg,
            strategy.router,
            strategy.migration,
            strategy.spec,
        );
        assert_eq!(out.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(out.avg_jct.to_bits(), plain.avg_jct.to_bits());
        assert_eq!(out.reliability.tasks_failed, 0);
        assert_eq!(out.reliability.wasted_seconds, 0.0);
        assert_eq!(out.reliability.goodput, 1.0);
    }

    #[test]
    fn crashes_cost_waste_and_trials_stay_deterministic() {
        let cfg = small_config();
        let strategy = ReliabilityStrategy {
            router: RouterSpec::CarbonQueueAware,
            migration: MigrationSpec::Never,
            spec: SchedulerSpec::pcaps_moderate(),
        };
        let a = run_reliability_trial(&cfg, Some(40.0), strategy).unwrap();
        let b = run_reliability_trial(&cfg, Some(40.0), strategy).unwrap();
        assert!(a.reliability.tasks_failed > 0, "a 40 s MTBF must crash something");
        assert_eq!(a.reliability.tasks_failed, a.reliability.retries);
        assert!(a.reliability.wasted_seconds > 0.0);
        assert!(a.reliability.wasted_carbon_grams > 0.0);
        assert!(a.reliability.goodput > 0.0 && a.reliability.goodput < 1.0);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.reliability, b.reliability);
    }

    #[test]
    fn the_sweep_covers_the_cross_product_and_serialises() {
        let cfg = small_config();
        let mtbfs = [None, Some(600.0)];
        let strategies = ReliabilityStrategy::ladder();
        let outputs = reliability_sweep(&cfg, &mtbfs, &strategies).unwrap();
        assert_eq!(outputs.len(), 8);
        let csv = to_csv(&outputs);
        assert_eq!(csv.lines().count(), 9);
        assert!(csv.starts_with("scenario,network,mtbf_s,router,migration,scheduler,"));
        assert!(csv.contains("fault-free,matrix,inf,round-robin,never,FIFO,0,0,"));
        assert!(csv.contains("crashes,matrix,600,carbon-queue-aware,carbon-delta,PCAPS"));
        let text = render(&outputs).render();
        assert!(text.contains("Goodput") && text.contains("carbon-queue-aware"));
    }

    #[test]
    fn outage_evacuations_contend_for_the_congested_uplink() {
        // Take the green grid down just after a burst of arrivals: its
        // queued jobs evacuate to the dirty survivor all at once.  On the
        // uniform matrix each move pays the same fixed per-GB delay; through
        // a 0.001 GB/s uplink the simultaneous evacuation flows max-min
        // share the link, so the same moves take far longer and both
        // makespan and JCT degrade.
        let mut cfg = small_config();
        cfg.num_jobs = 12;
        cfg.executors_per_member = 2;
        cfg.mean_interarrival = 1.0;
        let congested = cfg.clone().with_network(cfg.congested_uplink(0, 0.001));
        let strategy = ReliabilityStrategy::ladder()[0];
        let outage = RegionOutage::new(0, 60.0, 86_400.0);

        let matrix = run_outage_trial(&cfg, &outage, strategy).unwrap();
        let slow = run_outage_trial(&congested, &outage, strategy).unwrap();
        assert_eq!(matrix.scenario, "outage");
        assert_eq!(matrix.network, "matrix");
        assert_eq!(slow.network, "network");
        assert!(matrix.num_migrations > 0, "the outage must actually evacuate jobs");
        assert_eq!(
            matrix.num_migrations, slow.num_migrations,
            "the link model changes transfer timing, not which jobs evacuate"
        );
        assert!(
            slow.makespan > matrix.makespan,
            "contended evacuations must finish later: {} vs {}",
            slow.makespan,
            matrix.makespan
        );
        assert!(slow.avg_jct > matrix.avg_jct);
        // Determinism: the contended run replays bit for bit.
        let again = run_outage_trial(&congested, &outage, strategy).unwrap();
        assert_eq!(slow.makespan.to_bits(), again.makespan.to_bits());
        assert_eq!(slow.avg_jct.to_bits(), again.avg_jct.to_bits());
        assert_eq!(slow.num_migrations, again.num_migrations);
    }
}
