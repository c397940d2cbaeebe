//! Multi-region federation experiments: one arrival stream routed across
//! several grids, comparing routing policies × migration policies ×
//! scheduling policies.
//!
//! This goes beyond the paper's per-grid evaluation (each grid in
//! isolation): a federated deployment chooses *where* each job runs before
//! the member's scheduler decides *when* — and, with live migration
//! enabled, may *revise* the where when a grid turns dirty after placement,
//! paying the federation's cross-region [`TransferMatrix`] costs.  The
//! sweep reports, for every router × migration × scheduler combination, the
//! per-region carbon/makespan breakdown plus federation-level totals
//! (including migration counts, transfer seconds and transfer carbon), and
//! writes them as one CSV (`results/multi_region.csv`, the `multi_region`
//! entry of [`crate::repro::OUTPUTS`]).
//!
//! All rows carry region-qualified scheduler labels
//! ([`SchedulerSpec::label_in_region`]) so two members running the same
//! policy never collide in the output.

use crate::format::TextTable;
use crate::repro::Output;
use crate::runner::{BaseScheduler, SchedulerSpec};
use pcaps_carbon::{CarbonAccountant, GridRegion, TraceSet};
use pcaps_cluster::{
    Federation, FederationResult, Member, MigrationPolicy, NetworkTopology, NeverMigrate, Router,
    Scheduler, TransferMatrix,
};
use pcaps_cluster::{ClusterConfig, SubmittedJob};
use pcaps_metrics::ExperimentSummary;
use pcaps_schedulers::routing::{
    CarbonDeltaMigrator, CarbonGreedyRouter, CarbonQueueAwareRouter, LeastOutstandingWorkRouter,
    RoundRobinRouter,
};
use pcaps_workloads::{WorkloadBuilder, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Everything needed to instantiate one federated trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationExperimentConfig {
    /// One member cluster per region, in member-index order.
    pub regions: Vec<GridRegion>,
    /// Workload source (a single arrival stream feeding the federation).
    pub workload: WorkloadKind,
    /// Number of jobs in the batch.
    pub num_jobs: usize,
    /// Mean Poisson inter-arrival time (schedule seconds).
    pub mean_interarrival: f64,
    /// Executors per member cluster.
    pub executors_per_member: usize,
    /// Per-job executor cap within each member.
    pub per_job_cap: Option<usize>,
    /// Base random seed (workload sampling, trace synthesis, scheduler
    /// sampling).
    pub seed: u64,
    /// Days of synthetic carbon trace to generate per region.
    pub trace_days: usize,
    /// Offset (hours) into every member's trace at which the trial starts.
    pub trace_offset_hours: usize,
    /// Uniform off-diagonal per-GB migration latency (schedule seconds per
    /// GB; 1 schedule second = 1 carbon minute at the 60× time scale).
    pub transfer_seconds_per_gb: f64,
    /// Network energy per GB migrated (kWh/GB), used to attribute transfer
    /// carbon at the endpoint-mean intensity.
    pub transfer_energy_kwh_per_gb: f64,
    /// Optional link-level network model attached to every trial's
    /// federation: a migration leaving a member with an uplink then takes
    /// its max-min fair share of that uplink instead of the matrix's per-GB
    /// delay.  `None` (the default) keeps the matrix prices bit for bit.  Not
    /// serialized — persisted configs re-run on the plain matrix.
    #[serde(skip)]
    pub network: Option<NetworkTopology>,
}

impl FederationExperimentConfig {
    /// A standard federated setup over `regions`: TPC-H mixed workload,
    /// paper inter-arrival (30 s), 28 days of trace, and a non-zero
    /// transfer matrix (1 s/GB, 0.05 kWh/GB — roughly an inter-continental
    /// WAN link) so migration sweeps price the movement they model.
    pub fn standard(regions: Vec<GridRegion>, num_jobs: usize, seed: u64) -> Self {
        assert!(!regions.is_empty(), "a federation needs at least one region");
        FederationExperimentConfig {
            regions,
            workload: WorkloadKind::TpchMixed,
            num_jobs,
            mean_interarrival: 30.0,
            executors_per_member: 20,
            per_job_cap: None,
            seed,
            trace_days: 28,
            trace_offset_hours: 0,
            transfer_seconds_per_gb: 1.0,
            transfer_energy_kwh_per_gb: 0.05,
            network: None,
        }
    }

    /// Attaches a link-level network model to every trial's federation
    /// (see [`FederationExperimentConfig::network`]).
    pub fn with_network(mut self, network: NetworkTopology) -> Self {
        self.network = Some(network);
        self
    }

    /// A congested variant of this config's topology: the matrix's one
    /// per-GB rate carries over as a per-flow cap, but every transfer
    /// departing `member` must also cross one thin `gb_per_s` uplink —
    /// concurrent departures (a migration wave, an outage evacuation) then
    /// fair-share that link and slow each other down.
    pub fn congested_uplink(&self, member: usize, gb_per_s: f64) -> NetworkTopology {
        NetworkTopology::from_matrix(&self.transfer_matrix()).with_uplink(member, gb_per_s)
    }

    /// Sets the trace offset (hours into every member's trace).
    pub fn with_offset(mut self, hours: usize) -> Self {
        self.trace_offset_hours = hours;
        self
    }

    /// Builds the aligned per-region traces (already windowed to the
    /// configured offset), using the same seed-salting convention as the
    /// single-region [`ExperimentConfig::trace`].
    ///
    /// [`ExperimentConfig::trace`]: crate::runner::ExperimentConfig::trace
    pub fn traces(&self) -> TraceSet {
        let hours = self.trace_days * 24 + self.trace_offset_hours + 72;
        TraceSet::for_regions(&self.regions, self.seed ^ 0xCA4B0, hours)
            .windowed(self.trace_offset_hours, self.trace_days * 24)
    }

    /// The shared workload stream (identical for every router/scheduler
    /// combination, so comparisons are paired).
    pub fn workload_stream(&self) -> Vec<SubmittedJob> {
        WorkloadBuilder::new(self.workload, self.seed)
            .jobs(self.num_jobs)
            .mean_interarrival(self.mean_interarrival)
            .build()
    }

    /// The cross-region transfer matrix this config describes (uniform
    /// off-diagonal latency + network energy per GB).
    pub fn transfer_matrix(&self) -> TransferMatrix {
        TransferMatrix::uniform(self.regions.len(), self.transfer_seconds_per_gb)
            .with_energy_per_gb(self.transfer_energy_kwh_per_gb)
    }

    /// Builds the federation (members + workload + transfer matrix) for
    /// this config.
    pub fn federation_instance(&self) -> Federation {
        let traces = self.traces().into_traces();
        let members = self
            .regions
            .iter()
            .zip(traces)
            .map(|(region, trace)| {
                let config = ClusterConfig::new(self.executors_per_member)
                    .with_per_job_cap(self.per_job_cap)
                    .with_time_scale(60.0);
                Member::new(region.code(), config, trace)
            })
            .collect();
        let federation = Federation::new(members, self.workload_stream())
            .with_transfer_matrix(self.transfer_matrix());
        match &self.network {
            Some(network) => federation.with_network(network.clone()),
            None => federation,
        }
    }

    /// Per-member carbon accountants (same traces and time scale the
    /// federation runs with).
    pub fn accountants(&self) -> Vec<CarbonAccountant> {
        self.traces()
            .into_traces()
            .into_iter()
            .map(|t| CarbonAccountant::new(t).with_time_scale(60.0))
            .collect()
    }

    /// The per-member scheduler seed, derived like [`run_trial`]'s and
    /// salted per member so sampling policies on different members draw
    /// independent streams.  Public so out-of-crate harnesses (the root
    /// execution-mode determinism suite) can rebuild a trial's schedulers
    /// exactly.
    ///
    /// [`run_trial`]: crate::runner::run_trial
    pub fn member_seed(&self, member: usize) -> u64 {
        (self.seed ^ 0x5EED).wrapping_add(member as u64 * 0x9E37_79B9)
    }
}

/// Which routing policy a federated trial uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterSpec {
    /// Carbon- and load-blind rotation.
    RoundRobin,
    /// Pure load balancing on per-executor backlog.
    LeastOutstandingWork,
    /// Lowest current carbon intensity, load-blind.
    CarbonGreedy,
    /// Forecast-tempered intensity weighted by queue pressure.
    CarbonQueueAware,
}

/// Transfer-delay cap of [`MigrationSpec::CarbonDeltaAware`], in schedule
/// seconds (60 s = one carbon hour at the paper's 60× time scale).  Moves
/// whose contention-aware estimated transfer exceeds this are skipped.
pub const AWARE_MAX_TRANSFER_SECONDS: f64 = 60.0;

/// Which live-migration policy a federated trial uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationSpec {
    /// Placement is final (the pre-migration behaviour).
    Never,
    /// Greedy carbon-delta-vs-transfer-cost with hysteresis
    /// ([`CarbonDeltaMigrator`] defaults).
    CarbonDelta,
    /// [`MigrationSpec::CarbonDelta`] with drain-then-move enabled: busy
    /// jobs drain toward the greenest grid instead of being skipped.
    CarbonDeltaDrain,
    /// [`MigrationSpec::CarbonDelta`] with the transfer-delay guard
    /// ([`AWARE_MAX_TRANSFER_SECONDS`]): contention-aware when the trial's
    /// federation has a network attached, so a green grid behind a
    /// congested link stops attracting work.
    CarbonDeltaAware,
}

impl MigrationSpec {
    /// All built-in migration policies.
    pub const ALL: [MigrationSpec; 4] = [
        MigrationSpec::Never,
        MigrationSpec::CarbonDelta,
        MigrationSpec::CarbonDeltaDrain,
        MigrationSpec::CarbonDeltaAware,
    ];

    /// Short label used in tables and CSV rows.
    pub fn label(&self) -> &'static str {
        match self {
            MigrationSpec::Never => "never",
            MigrationSpec::CarbonDelta => "carbon-delta",
            MigrationSpec::CarbonDeltaDrain => "carbon-delta-drain",
            MigrationSpec::CarbonDeltaAware => "carbon-delta-aware",
        }
    }

    /// Builds the migration policy this spec describes.
    pub fn build(&self) -> Box<dyn MigrationPolicy> {
        match self {
            MigrationSpec::Never => Box::new(NeverMigrate::new()),
            MigrationSpec::CarbonDelta => Box::new(CarbonDeltaMigrator::new()),
            MigrationSpec::CarbonDeltaDrain => Box::new(CarbonDeltaMigrator::new().with_drain()),
            MigrationSpec::CarbonDeltaAware => Box::new(
                CarbonDeltaMigrator::new().with_max_transfer_seconds(AWARE_MAX_TRANSFER_SECONDS),
            ),
        }
    }
}

impl RouterSpec {
    /// All four built-in routing policies.
    pub const ALL: [RouterSpec; 4] = [
        RouterSpec::RoundRobin,
        RouterSpec::LeastOutstandingWork,
        RouterSpec::CarbonGreedy,
        RouterSpec::CarbonQueueAware,
    ];

    /// Short label used in tables and CSV rows.
    pub fn label(&self) -> &'static str {
        match self {
            RouterSpec::RoundRobin => "round-robin",
            RouterSpec::LeastOutstandingWork => "least-work",
            RouterSpec::CarbonGreedy => "carbon-greedy",
            RouterSpec::CarbonQueueAware => "carbon-queue-aware",
        }
    }

    /// Builds the router this spec describes.
    pub fn build(&self) -> Box<dyn Router> {
        match self {
            RouterSpec::RoundRobin => Box::new(RoundRobinRouter::new()),
            RouterSpec::LeastOutstandingWork => Box::new(LeastOutstandingWorkRouter::new()),
            RouterSpec::CarbonGreedy => Box::new(CarbonGreedyRouter::new()),
            RouterSpec::CarbonQueueAware => Box::new(CarbonQueueAwareRouter::new()),
        }
    }
}

/// One member's share of a federated trial.
#[derive(Debug, Clone)]
pub struct MemberTrialOutput {
    /// The member's grid region.
    pub region: GridRegion,
    /// Region-qualified scheduler label (unambiguous across members).
    pub label: String,
    /// Jobs that finished on this member (routed here and never moved, or
    /// migrated in).
    pub jobs_routed: usize,
    /// Migrations that departed from this member.
    pub migrations_out: usize,
    /// Total transfer seconds of the migrations departing this member.
    pub transfer_seconds_out: f64,
    /// The member's absolute metrics (carbon accounted against the member's
    /// own trace; transfer carbon is federation-level and *not* included
    /// here).
    pub summary: ExperimentSummary,
}

/// Output of one federated trial.
#[derive(Debug, Clone)]
pub struct FederatedTrialOutput {
    /// The routing policy used.
    pub router: RouterSpec,
    /// The live-migration policy used.
    pub migration: MigrationSpec,
    /// Transfer model label: `"network"` when the trial's federation carried
    /// a link-level [`NetworkTopology`], `"matrix"` otherwise.
    pub network: &'static str,
    /// The (per-member) scheduling policy used.
    pub spec: SchedulerSpec,
    /// Per-member breakdowns, in member-index order.
    pub members: Vec<MemberTrialOutput>,
    /// Number of job migrations applied.
    pub num_migrations: usize,
    /// Total schedule seconds jobs spent in cross-region transfer.
    pub transfer_seconds: f64,
    /// Carbon attributed to the transfers themselves (grams CO₂eq).
    pub transfer_carbon_grams: f64,
    /// Total carbon across all members *plus* the transfer carbon (grams
    /// CO₂eq) — the honest federation-level footprint.
    pub total_carbon_grams: f64,
    /// Federation-level makespan (last completion anywhere).
    pub makespan: f64,
    /// Job-weighted average JCT across the whole federation.
    pub avg_jct: f64,
}

/// Runs one federated trial: `router_spec` routing, `migration_spec` live
/// migration, one `sched_spec` scheduler instance per member.
pub fn run_federated_trial_with_migration(
    config: &FederationExperimentConfig,
    router_spec: RouterSpec,
    migration_spec: MigrationSpec,
    sched_spec: SchedulerSpec,
) -> FederatedTrialOutput {
    let federation = config.federation_instance();
    let accountants = config.accountants();
    let mut schedulers: Vec<Box<dyn Scheduler>> = federation
        .members()
        .iter()
        .enumerate()
        .map(|(i, member)| sched_spec.build(config.member_seed(i), &member.carbon, 60.0))
        .collect();
    let mut router = router_spec.build();
    let mut migration = migration_spec.build();
    let result: FederationResult = {
        let mut refs: Vec<&mut dyn Scheduler> = Vec::with_capacity(schedulers.len());
        for s in schedulers.iter_mut() {
            refs.push(&mut **s);
        }
        federation
            .run_with_migration(router.as_mut(), migration.as_mut(), &mut refs)
            .expect("federated experiment runs are constructed to always complete")
    };
    // One pass over the migration log accumulates every member's outbound
    // count and transfer seconds.
    let mut moves_out = vec![(0usize, 0.0f64); result.members.len()];
    for m in &result.migrations {
        moves_out[m.from].0 += 1;
        moves_out[m.from].1 += m.transfer_seconds;
    }
    let members: Vec<MemberTrialOutput> = result
        .members
        .iter()
        .zip(&accountants)
        .zip(&config.regions)
        .zip(&moves_out)
        .map(|(((m, accountant), &region), &(migrations_out, transfer_seconds_out))| {
            let mut summary = ExperimentSummary::of(&m.result, accountant);
            let label = sched_spec.label_in_region(region);
            summary.scheduler = label.clone();
            MemberTrialOutput {
                region,
                label,
                jobs_routed: m.result.jobs_submitted,
                migrations_out,
                transfer_seconds_out,
                summary,
            }
        })
        .collect();
    let transfer_carbon_grams = result.transfer_carbon_grams();
    let total_carbon_grams =
        members.iter().map(|m| m.summary.carbon_grams).sum::<f64>() + transfer_carbon_grams;
    FederatedTrialOutput {
        router: router_spec,
        migration: migration_spec,
        network: if config.network.is_some() { "network" } else { "matrix" },
        spec: sched_spec,
        num_migrations: result.num_migrations(),
        transfer_seconds: result.total_transfer_seconds(),
        transfer_carbon_grams,
        total_carbon_grams,
        makespan: result.makespan,
        avg_jct: result.average_jct(),
        members,
    }
}

/// Runs one federated trial without live migration (placement is final) —
/// [`run_federated_trial_with_migration`] under [`MigrationSpec::Never`].
pub fn run_federated_trial(
    config: &FederationExperimentConfig,
    router_spec: RouterSpec,
    sched_spec: SchedulerSpec,
) -> FederatedTrialOutput {
    run_federated_trial_with_migration(config, router_spec, MigrationSpec::Never, sched_spec)
}

/// Runs the full sweep: every router × migration × scheduler combination on
/// the same workload and traces.
pub fn multi_region_sweep(
    config: &FederationExperimentConfig,
    routers: &[RouterSpec],
    migrations: &[MigrationSpec],
    specs: &[SchedulerSpec],
) -> Vec<FederatedTrialOutput> {
    routers
        .iter()
        .flat_map(|&router| {
            migrations.iter().flat_map(move |&migration| {
                specs.iter().map(move |&spec| (router, migration, spec))
            })
        })
        .map(|(router, migration, spec)| {
            run_federated_trial_with_migration(config, router, migration, spec)
        })
        .collect()
}

/// The sweep behind `results/multi_region.csv`: every router × migration
/// policy × scheduler, then a congested-uplink arm (the two-region carbon
/// cliff under round-robin routing and FIFO, with the dirty grid's uplink
/// choked to 0.01 GB/s, for every migration policy) whose rows append under
/// the one header.  `quick` shrinks the main arm to two regions and 12
/// jobs.
pub(crate) fn output(quick: bool) -> Output {
    // The full sweep runs 96 jobs on 8 executors per member: enough load
    // that the single greenest grid cannot absorb everything, so routing
    // must overflow onto second-best grids — exactly the regime where
    // placements go stale and live migration earns its keep.  (At a
    // 48-job/20-executor operating point, Ontario's hydro grid swallows
    // the whole workload and migration has nothing left to fix.)
    let (regions, jobs, execs): (Vec<GridRegion>, usize, usize) = if quick {
        (vec![GridRegion::Caiso, GridRegion::SouthAfrica], 12, 10)
    } else {
        (GridRegion::ALL.to_vec(), 96, 8)
    };
    let mut config = FederationExperimentConfig::standard(regions, jobs, 42);
    config.executors_per_member = execs;
    let specs = [
        SchedulerSpec::Baseline(BaseScheduler::Fifo),
        SchedulerSpec::Baseline(BaseScheduler::Decima),
        SchedulerSpec::pcaps_moderate(),
    ];
    let outputs = multi_region_sweep(&config, &RouterSpec::ALL, &MigrationSpec::ALL, &specs);
    // Congested arm: the two-region cliff (round-robin strands half the
    // jobs on the dirty grid) with that grid's uplink choked to 0.01 GB/s
    // — a single 6 GB move takes 600 schedule seconds alone, far past
    // the aware policy's 60 s cap, and max-min sharing makes concurrent
    // evacuations slower still.
    let mut cliff = FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::SouthAfrica],
        12,
        42,
    );
    cliff.executors_per_member = 4;
    let congested_config = cliff.clone().with_network(cliff.congested_uplink(1, 0.01));
    let congested = multi_region_sweep(
        &congested_config,
        &[RouterSpec::RoundRobin],
        &MigrationSpec::ALL,
        &[SchedulerSpec::Baseline(BaseScheduler::Fifo)],
    );
    let text = format!(
        "Multi-region federation sweep — {} members × {} routers × {} migration policies × {} schedulers\n\n\
         {}\n\
         Carbon-aware routing composes with carbon-aware scheduling — and live migration\n\
         gives the placement a second chance: jobs stranded on a grid that turned dirty\n\
         after arrival move to a greener one when the carbon saved outweighs the priced\n\
         per-GB transfer (delay + network energy).  See results/multi_region.csv for the\n\
         per-region breakdown including migration counts and transfer seconds.\n\
         \nCongested-uplink arm — ZA's uplink capped at 0.01 GB/s (link-level network model):\n\n\
         {}\n\
         Behind a congested link the payoff inverts: blind carbon-delta migration still\n\
         chases the green grid, but its transfers crawl through the shared 0.01 GB/s\n\
         uplink and JCT ends up worse than never migrating.  The delay-aware variant\n\
         sees the contention-aware transfer estimate blow past its cap and declines\n\
         the moves, recovering the JCT loss.\n",
        config.regions.len(),
        RouterSpec::ALL.len(),
        MigrationSpec::ALL.len(),
        specs.len(),
        render(&outputs).render(),
        render(&congested).render(),
    );
    let mut csv = to_csv(&outputs);
    csv.push_str(crate::csv_rows(&to_csv(&congested)));
    Output { text, csv }
}

/// Renders the sweep as a text table (one aggregate line per trial).
pub fn render(outputs: &[FederatedTrialOutput]) -> TextTable {
    let mut table = TextTable::new(&[
        "Router",
        "Migration",
        "Net",
        "Scheduler",
        "Carbon (kg)",
        "Moves",
        "Transfer (s)",
        "Makespan (s)",
        "Avg JCT (s)",
    ]);
    for out in outputs {
        table.row(vec![
            out.router.label().to_string(),
            out.migration.label().to_string(),
            out.network.to_string(),
            out.spec.label(),
            format!("{:.1}", out.total_carbon_grams / 1000.0),
            format!("{}", out.num_migrations),
            format!("{:.0}", out.transfer_seconds),
            format!("{:.0}", out.makespan),
            format!("{:.0}", out.avg_jct),
        ]);
    }
    table
}

/// Serialises the sweep as CSV: one row per router × migration × scheduler
/// × region (with region-qualified labels), plus a `TOTAL` row per
/// combination.
///
/// Member rows report the migrations *departing* that region and their
/// transfer seconds; their `carbon_g` is execution carbon accounted against
/// the member's own trace.  The `TOTAL` row's `carbon_g` additionally
/// includes the federation-level transfer carbon (reported on its own in
/// `transfer_carbon_g`), so totals deliberately exceed the column sum of
/// their member rows whenever migration moved data.
pub fn to_csv(outputs: &[FederatedTrialOutput]) -> String {
    let mut csv = String::from(
        "router,migration,network,scheduler,region,label,jobs_routed,migrations,transfer_s,\
         transfer_carbon_g,carbon_g,makespan_s,avg_jct_s\n",
    );
    for out in outputs {
        for m in &out.members {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.3},,{:.3},{:.3},{:.3}\n",
                out.router.label(),
                out.migration.label(),
                out.network,
                out.spec.label(),
                m.region.code(),
                m.label,
                m.jobs_routed,
                m.migrations_out,
                m.transfer_seconds_out,
                m.summary.carbon_grams,
                m.summary.ect,
                m.summary.avg_jct,
            ));
        }
        csv.push_str(&format!(
            "{},{},{},{},TOTAL,{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
            out.router.label(),
            out.migration.label(),
            out.network,
            out.spec.label(),
            out.spec.label(),
            out.members.iter().map(|m| m.jobs_routed).sum::<usize>(),
            out.num_migrations,
            out.transfer_seconds,
            out.transfer_carbon_grams,
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
    use crate::runner::BaseScheduler;

    fn small_config() -> FederationExperimentConfig {
        let mut cfg = FederationExperimentConfig::standard(
            vec![GridRegion::Caiso, GridRegion::SouthAfrica],
            8,
            1,
        );
        cfg.executors_per_member = 10;
        cfg.trace_days = 7;
        cfg
    }

    #[test]
    fn federated_trial_completes_and_accounts_every_member() {
        let out = run_federated_trial(
            &small_config(),
            RouterSpec::RoundRobin,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        assert_eq!(out.members.len(), 2);
        let routed: usize = out.members.iter().map(|m| m.jobs_routed).sum();
        assert_eq!(routed, 8);
        // Round-robin over two members splits 8 jobs 4/4.
        assert_eq!(out.members[0].jobs_routed, 4);
        assert_eq!(out.members[1].jobs_routed, 4);
        assert!(out.total_carbon_grams > 0.0);
        assert!(out.makespan > 0.0);
        assert!(out.avg_jct > 0.0);
    }

    #[test]
    fn member_labels_are_region_qualified() {
        let out = run_federated_trial(
            &small_config(),
            RouterSpec::CarbonGreedy,
            SchedulerSpec::pcaps_moderate(),
        );
        let labels: Vec<&str> = out.members.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, vec!["PCAPS(γ=0.5)@CAISO", "PCAPS(γ=0.5)@ZA"]);
        assert_eq!(out.members[0].summary.scheduler, "PCAPS(γ=0.5)@CAISO");
    }

    #[test]
    fn sweep_covers_the_cross_product_and_serialises() {
        let cfg = small_config();
        let routers = [RouterSpec::RoundRobin, RouterSpec::CarbonQueueAware];
        let specs = [
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            SchedulerSpec::pcaps_moderate(),
        ];
        let outputs = multi_region_sweep(&cfg, &routers, &MigrationSpec::ALL, &specs);
        assert_eq!(outputs.len(), 16);
        let csv = to_csv(&outputs);
        // Header + (2 members + 1 total) × 16 combinations.
        assert_eq!(csv.lines().count(), 1 + 3 * 16);
        assert!(csv.starts_with("router,migration,network,scheduler,region,label,"));
        assert!(csv
            .contains("carbon-queue-aware,never,matrix,PCAPS(γ=0.5),CAISO,PCAPS(γ=0.5)@CAISO"));
        assert!(csv.contains("carbon-queue-aware,carbon-delta,matrix,PCAPS(γ=0.5),CAISO"));
        assert!(csv.contains("carbon-delta-drain,matrix"));
        assert!(csv.contains("carbon-delta-aware,matrix"));
        assert!(csv.contains(",TOTAL,"));
        let text = render(&outputs).render();
        assert!(text.contains("round-robin") && text.contains("carbon-queue-aware"));
        assert!(text.contains("never") && text.contains("carbon-delta"));
    }

    #[test]
    fn migration_axis_moves_jobs_and_prices_the_transfer() {
        // Two grids with very different intensities, few executors, so
        // round-robin strands queued jobs on the dirty grid — exactly what
        // the carbon-delta migrator exists to fix.
        let mut cfg = small_config();
        cfg.num_jobs = 12;
        cfg.executors_per_member = 4;
        let never = run_federated_trial_with_migration(
            &cfg,
            RouterSpec::RoundRobin,
            MigrationSpec::Never,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        let migrate = run_federated_trial_with_migration(
            &cfg,
            RouterSpec::RoundRobin,
            MigrationSpec::CarbonDelta,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        assert_eq!(never.num_migrations, 0);
        assert_eq!(never.transfer_seconds, 0.0);
        assert_eq!(never.transfer_carbon_grams, 0.0);
        assert!(migrate.num_migrations > 0, "the cliff config must trigger migrations");
        assert!(migrate.transfer_seconds > 0.0, "a nonzero matrix must price the moves");
        assert!(migrate.transfer_carbon_grams > 0.0);
        // Conservation: every job still completes exactly once.
        let routed: usize = migrate.members.iter().map(|m| m.jobs_routed).sum();
        assert_eq!(routed, 12);
        let out: usize = migrate.members.iter().map(|m| m.migrations_out).sum();
        assert_eq!(out, migrate.num_migrations);
        // And the movement pays off where it should: fewer grams in total.
        assert!(
            migrate.total_carbon_grams < never.total_carbon_grams,
            "carbon-delta migration must beat never-migrate here: {} vs {}",
            migrate.total_carbon_grams,
            never.total_carbon_grams
        );
    }

    #[test]
    fn congested_uplink_inverts_the_migration_payoff_and_aware_recovers() {
        // Same cliff config as above, but the dirty grid's uplink is choked
        // to 0.01 GB/s: a single 6 GB move now takes 600 schedule seconds
        // alone (worse under contention), versus ~6 s on the uncontended
        // matrix.  Chasing the green grid through that link stalls jobs in
        // transit, so blind carbon-delta migration should now *lose* on JCT
        // against never-migrate — the inversion the link-level model exists
        // to expose — while the delay-aware variant sees the contended
        // estimate blow past its cap and declines the moves.
        let mut cfg = small_config();
        cfg.num_jobs = 12;
        cfg.executors_per_member = 4;
        let congested = cfg.clone().with_network(cfg.congested_uplink(1, 0.01));

        let never = run_federated_trial_with_migration(
            &congested,
            RouterSpec::RoundRobin,
            MigrationSpec::Never,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        let blind = run_federated_trial_with_migration(
            &congested,
            RouterSpec::RoundRobin,
            MigrationSpec::CarbonDelta,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        let aware = run_federated_trial_with_migration(
            &congested,
            RouterSpec::RoundRobin,
            MigrationSpec::CarbonDeltaAware,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );

        assert_eq!(never.network, "network");
        assert!(blind.num_migrations > 0, "blind carbon-delta must still take the bait");
        assert!(
            blind.avg_jct > never.avg_jct,
            "behind a congested link, migrating must cost JCT: {} vs {}",
            blind.avg_jct,
            never.avg_jct
        );
        assert!(
            aware.avg_jct < blind.avg_jct,
            "the transfer-delay guard must recover most of the JCT loss: {} vs {}",
            aware.avg_jct,
            blind.avg_jct
        );
        // The same policy on the uncontended matrix still pays off on
        // carbon — the inversion is the link's fault, not the policy's.
        let uncongested = run_federated_trial_with_migration(
            &cfg,
            RouterSpec::RoundRobin,
            MigrationSpec::CarbonDelta,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        let baseline = run_federated_trial_with_migration(
            &cfg,
            RouterSpec::RoundRobin,
            MigrationSpec::Never,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        assert_eq!(uncongested.network, "matrix");
        assert!(uncongested.total_carbon_grams < baseline.total_carbon_grams);
    }

    #[test]
    fn empty_network_topology_matches_the_matrix_path_bitwise() {
        // `NetworkTopology::from_matrix` carries the matrix's seconds-per-GB
        // but no uplinks, so every transfer moves at the per-GB cap and
        // takes exactly `gb × seconds_per_gb` — the run must be
        // bit-identical to the plain matrix federation.
        let mut cfg = small_config();
        cfg.num_jobs = 12;
        cfg.executors_per_member = 4;
        let wrapped =
            cfg.clone().with_network(NetworkTopology::from_matrix(&cfg.transfer_matrix()));
        for spec in MigrationSpec::ALL {
            let a = run_federated_trial_with_migration(
                &cfg,
                RouterSpec::RoundRobin,
                spec,
                SchedulerSpec::Baseline(BaseScheduler::Fifo),
            );
            let b = run_federated_trial_with_migration(
                &wrapped,
                RouterSpec::RoundRobin,
                spec,
                SchedulerSpec::Baseline(BaseScheduler::Fifo),
            );
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{}", spec.label());
            assert_eq!(a.avg_jct.to_bits(), b.avg_jct.to_bits(), "{}", spec.label());
            assert_eq!(
                a.total_carbon_grams.to_bits(),
                b.total_carbon_grams.to_bits(),
                "{}",
                spec.label()
            );
            assert_eq!(a.num_migrations, b.num_migrations, "{}", spec.label());
        }
    }

    #[test]
    fn never_migration_spec_matches_the_plain_trial() {
        let cfg = small_config();
        let plain = run_federated_trial(
            &cfg,
            RouterSpec::CarbonGreedy,
            SchedulerSpec::pcaps_moderate(),
        );
        let explicit = run_federated_trial_with_migration(
            &cfg,
            RouterSpec::CarbonGreedy,
            MigrationSpec::Never,
            SchedulerSpec::pcaps_moderate(),
        );
        assert_eq!(plain.total_carbon_grams.to_bits(), explicit.total_carbon_grams.to_bits());
        assert_eq!(plain.makespan.to_bits(), explicit.makespan.to_bits());
        assert_eq!(plain.num_migrations, 0);
    }

    #[test]
    fn migration_spec_labels_are_stable() {
        assert_eq!(MigrationSpec::Never.label(), "never");
        assert_eq!(MigrationSpec::CarbonDelta.label(), "carbon-delta");
        assert_eq!(MigrationSpec::CarbonDeltaDrain.label(), "carbon-delta-drain");
        assert_eq!(MigrationSpec::CarbonDeltaAware.label(), "carbon-delta-aware");
        assert_eq!(MigrationSpec::Never.build().name(), "never-migrate");
        assert_eq!(MigrationSpec::CarbonDelta.build().name(), "carbon-delta");
        assert_eq!(MigrationSpec::CarbonDeltaDrain.build().name(), "carbon-delta-drain");
        // The aware variant keeps the base name: it is carbon-delta plus a
        // transfer-delay guard, not a different decision rule.
        assert_eq!(MigrationSpec::CarbonDeltaAware.build().name(), "carbon-delta");
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = small_config();
        for router in [RouterSpec::LeastOutstandingWork, RouterSpec::CarbonQueueAware] {
            let a = run_federated_trial(&cfg, router, SchedulerSpec::pcaps_moderate());
            let b = run_federated_trial(&cfg, router, SchedulerSpec::pcaps_moderate());
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.total_carbon_grams, b.total_carbon_grams);
            for (x, y) in a.members.iter().zip(&b.members) {
                assert_eq!(x.jobs_routed, y.jobs_routed);
            }
        }
    }

    #[test]
    fn carbon_routers_prefer_the_greener_grid() {
        // CAISO's mean intensity (274) is far below ZA's (713); with ample
        // capacity the carbon-greedy router should route most jobs there.
        let out = run_federated_trial(
            &small_config(),
            RouterSpec::CarbonGreedy,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
        );
        assert!(
            out.members[0].jobs_routed > out.members[1].jobs_routed,
            "CAISO ({}) should attract more jobs than ZA ({})",
            out.members[0].jobs_routed,
            out.members[1].jobs_routed
        );
    }
}
