//! Migration conformance suite.
//!
//! Live migration is the first engine feature that can move a job's state
//! *between* members mid-run, so it is pinned from four directions:
//!
//! 1. **Do-no-harm** — under the [`NeverMigrate`] policy the engine must
//!    reproduce the seven pre-migration `run_trial` fingerprints (the same
//!    constants `tests/determinism.rs` and `tests/federation.rs` pin) bit
//!    for bit, through both the `Simulator` wrapper and an explicit
//!    `Federation::run_with_migration` drive.
//! 2. **Determinism** — the same seed yields the same migration log, run
//!    after run, for every built-in policy and several seeds.
//! 3. **Conservation** — every task of every job runs on exactly one
//!    member; migration changes *where*, never *how much*.
//! 4. **Hand-computable totals** — a two-member carbon cliff with the
//!    always-migrate-to-greenest policy produces exactly the carbon a hand
//!    integral predicts, with a zero and a non-zero [`TransferMatrix`].
//!
//! Plus the negative paths: migrating a completed job is a no-op
//! (historical semantics), and an out-of-range destination or a job with a
//! running task aborts with the descriptive [`SimError::InvalidMigration`].

use carbon_aware_dag_sched::prelude::*;
use pcaps_cluster::SimError;
use pcaps_dag::JobId;
use pcaps_experiments::multi_region::{
    run_federated_trial_with_migration, FederationExperimentConfig, MigrationSpec, RouterSpec,
};
use pcaps_experiments::runner::{run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec};

/// FNV-1a over the schedule-defining outputs of a run — identical to the
/// fingerprint in `tests/determinism.rs`.
fn fingerprint(result: &SimulationResult) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(result.makespan.to_bits());
    mix(result.tasks_dispatched as u64);
    mix(result.jobs_submitted as u64);
    for job in &result.jobs {
        mix(job.id.0);
        mix(job.arrival.to_bits());
        mix(job.completion.to_bits());
        mix(job.executor_seconds.to_bits());
    }
    h
}

/// The pre-migration `run_trial` fingerprints on the reference
/// configuration — the same constants `tests/determinism.rs` and
/// `tests/federation.rs` pin.
const PRE_MIGRATION_FINGERPRINTS: [(&str, SchedulerSpec, u64); 7] = [
    ("fifo", SchedulerSpec::Baseline(BaseScheduler::Fifo), 0x7602c05a61b15e6a),
    ("k8s_default", SchedulerSpec::Baseline(BaseScheduler::KubeDefault), 0x7602c05a61b15e6a),
    ("weighted_fair", SchedulerSpec::Baseline(BaseScheduler::WeightedFair), 0x1ae3e51b79e65499),
    ("decima", SchedulerSpec::Baseline(BaseScheduler::Decima), 0x241dc10e49cebef9),
    ("greenhadoop", SchedulerSpec::GreenHadoop { theta: 0.5 }, 0xc5507bffa42a002c),
    ("cap_fifo", SchedulerSpec::Cap { base: BaseScheduler::Fifo, b: 5 }, 0xd1e582d363597e56),
    ("pcaps", SchedulerSpec::Pcaps { gamma: 0.5 }, 0x4263e65825f2a107),
];

fn reference_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, 8, 1);
    cfg.executors = 20;
    cfg.trace_days = 7;
    cfg
}

/// (1a) `run_trial` — which drives the migration-capable engine through the
/// single-member `Simulator` wrapper, i.e. with the `NeverMigrate` policy —
/// must still produce the pre-migration fingerprints bit for bit.
#[test]
fn never_migrate_run_trial_fingerprints_match_the_pre_migration_constants() {
    for (name, spec, expected) in PRE_MIGRATION_FINGERPRINTS {
        let out = run_trial(&reference_config(), spec);
        assert_eq!(
            fingerprint(&out.result),
            expected,
            "{name}: the migration layer changed a never-migrate schedule"
        );
    }
}

/// (1b) The same constants through an explicit
/// `Federation::run_with_migration(..., &mut NeverMigrate, ...)` drive with
/// a *non-zero* transfer matrix: costs that are never incurred must never
/// influence the schedule.
#[test]
fn never_migrate_federation_fingerprints_match_the_pre_migration_constants() {
    let cfg = reference_config();
    let seed = cfg.seed ^ 0x5EED;
    for (name, spec, expected) in PRE_MIGRATION_FINGERPRINTS {
        let workload: Vec<SubmittedJob> = WorkloadBuilder::new(cfg.workload, cfg.seed)
            .jobs(cfg.num_jobs)
            .mean_interarrival(cfg.mean_interarrival)
            .build();
        let trace = cfg.trace();
        let cluster = ClusterConfig::new(cfg.executors)
            .with_per_job_cap(cfg.per_job_cap)
            .with_time_scale(60.0);
        let federation = Federation::new(
            vec![Member::new("DE", cluster, trace.clone())],
            workload,
        )
        .with_transfer_matrix(TransferMatrix::uniform(1, 0.0).with_energy_per_gb(0.05));
        let mut scheduler = spec.build(seed, &trace, 60.0);
        let mut router = StaticRouter::new(0);
        let mut policy = NeverMigrate::new();
        let result = {
            let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler.as_mut()];
            federation
                .run_with_migration(&mut router, &mut policy, &mut schedulers)
                .unwrap()
        };
        assert_eq!(result.migration_policy, "never-migrate");
        assert!(result.migrations.is_empty());
        assert_eq!(
            fingerprint(&result.members[0].result),
            expected,
            "{name}: explicit never-migrate federation diverged from the pre-migration engine"
        );
    }
}

/// A multi-member federation instance over real synthetic traces, built the
/// same way for every determinism/conservation test below.
fn three_member_federation(seed: u64, executors: usize) -> Federation {
    let regions = [GridRegion::Caiso, GridRegion::Ontario, GridRegion::SouthAfrica];
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
        .jobs(12)
        .build();
    let traces = TraceSet::for_regions(&regions, seed, 7 * 24);
    let members = regions
        .iter()
        .zip(traces.traces())
        .map(|(r, t)| {
            Member::new(r.code(), ClusterConfig::new(executors).with_time_scale(60.0), t.clone())
        })
        .collect();
    Federation::new(members, workload)
        .with_transfer_matrix(TransferMatrix::uniform(3, 1.0).with_energy_per_gb(0.05))
}

fn run_three_member(
    federation: &Federation,
    policy: &mut dyn MigrationPolicy,
    router: RouterSpec,
) -> FederationResult {
    let mut r = router.build();
    let mut s0 = Pcaps::new(DecimaLike::new(3), PcapsConfig::moderate().with_seed(3));
    let mut s1 = Pcaps::new(DecimaLike::new(4), PcapsConfig::moderate().with_seed(4));
    let mut s2 = Pcaps::new(DecimaLike::new(5), PcapsConfig::moderate().with_seed(5));
    let mut schedulers: [&mut dyn Scheduler; 3] = [&mut s0, &mut s1, &mut s2];
    federation
        .run_with_migration(r.as_mut(), policy, &mut schedulers)
        .unwrap()
}

/// One comparable digest of a migration log.
fn migration_log(result: &FederationResult) -> Vec<(u64, usize, usize, u64, u64, u64)> {
    result
        .migrations
        .iter()
        .map(|m| {
            (
                m.job.0,
                m.from,
                m.to,
                m.departed.to_bits(),
                m.arrived.to_bits(),
                m.transfer_carbon_grams.to_bits(),
            )
        })
        .collect()
}

/// (2) Same seed ⇒ identical migration logs (and per-member job id sets)
/// across runs, for every built-in migration policy × 3 seeds, over
/// constrained members (2 executors each) so queues form and migration
/// genuinely fires.
#[test]
fn migration_logs_replay_bit_identically() {
    let mut saw_migrations = false;
    // Round-robin strands jobs on dirty grids (so carbon-delta genuinely
    // fires); carbon-queue-aware exercises the interplay with a placement
    // that is already carbon-aware.
    let routers = [RouterSpec::RoundRobin, RouterSpec::CarbonQueueAware];
    for seed in [1_u64, 11, 42] {
        let fed = three_member_federation(seed, 2);
        for migration in MigrationSpec::ALL {
            for router in routers {
                let runs: Vec<FederationResult> = (0..2)
                    .map(|_| {
                        let mut policy = migration.build();
                        run_three_member(&fed, policy.as_mut(), router)
                    })
                    .collect();
                assert_eq!(
                    migration_log(&runs[0]),
                    migration_log(&runs[1]),
                    "policy {:?} / router {:?} with seed {seed}: migration logs must replay identically",
                    migration,
                    router
                );
                let sets = |r: &FederationResult| -> Vec<Vec<u64>> {
                    r.members
                        .iter()
                        .map(|m| m.result.jobs.iter().map(|j| j.id.0).collect())
                        .collect()
                };
                assert_eq!(sets(&runs[0]), sets(&runs[1]));
                assert_eq!(runs[0].makespan.to_bits(), runs[1].makespan.to_bits());
                match migration {
                    MigrationSpec::Never => assert!(runs[0].migrations.is_empty()),
                    MigrationSpec::CarbonDelta
                    | MigrationSpec::CarbonDeltaDrain
                    | MigrationSpec::CarbonDeltaAware => {
                        saw_migrations |= !runs[0].migrations.is_empty()
                    }
                }
            }
        }
    }
    assert!(
        saw_migrations,
        "at least one seed must actually exercise migration, or this suite proves nothing"
    );
}

/// (3) Conservation: with migration active, every job completes on exactly
/// one member, the per-member job id sets partition the workload, and the
/// total dispatched task count equals the workload's task count — migration
/// moves work, it never duplicates or drops it.
#[test]
fn migration_conserves_jobs_and_tasks() {
    for seed in [1_u64, 11, 42] {
        let fed = three_member_federation(seed, 2);
        let expected_tasks: usize = fed
            .workload()
            .iter()
            .map(|j| j.dag.stages.iter().map(|s| s.num_tasks()).sum::<usize>())
            .sum();
        let mut policy = CarbonDeltaMigrator::new();
        let result = run_three_member(&fed, &mut policy, RouterSpec::RoundRobin);
        assert!(result.all_jobs_complete());
        // Job ids across members partition 0..12: disjoint and complete, so
        // every job completed on exactly one member.
        let mut all_ids: Vec<u64> = result
            .members
            .iter()
            .flat_map(|m| m.result.jobs.iter().map(|j| j.id.0))
            .collect();
        all_ids.sort_unstable();
        assert_eq!(all_ids, (0..12).collect::<Vec<u64>>(), "seed {seed}");
        // Total tasks dispatched across members == tasks in the workload
        // (each task ran on exactly one member, exactly once).
        assert_eq!(result.tasks_dispatched(), expected_tasks, "seed {seed}");
        // Per-member bookkeeping survives the moves.
        for m in &result.members {
            assert_eq!(m.result.jobs.len(), m.result.jobs_submitted);
        }
        // Executor-seconds are conserved too: migration charges transfer
        // time, never re-executes work.
        let total_work: f64 = fed.workload().iter().map(|j| j.dag.total_work()).sum();
        let executed: f64 = result
            .members
            .iter()
            .map(|m| m.result.total_executor_seconds())
            .sum();
        assert!((executed - total_work).abs() < 1e-6, "seed {seed}");
    }
}

/// The always-migrate-to-greenest policy of the hand-computed tests:
/// [`CarbonDeltaMigrator::aggressive`] with the fixtures' unit conventions
/// (time scale 1, 1 kW per executor — matching the hand accountant below).
fn always_greenest() -> CarbonDeltaMigrator {
    CarbonDeltaMigrator::aggressive()
        .with_time_scale(1.0)
        .with_executor_power(1.0)
}

/// The two-member carbon-cliff fixture of the hand-computed tests.
///
/// Member A (1 executor) reads 100 g/kWh in hour 0 and 500 afterwards;
/// member B mirrors it (500, then 100).  Two 4000 s single-task jobs arrive
/// at t=0, both statically routed to A.  Job 0 occupies A's executor
/// [0, 4000]; job 1 queues.  At the hour-1 cliff the policy ships job 1 to
/// the now-green B.
fn cliff_federation(transfer: TransferMatrix) -> Federation {
    Federation::new(cliff_members(), cliff_jobs()).with_transfer_matrix(transfer)
}

/// The cliff fixture's members.
fn cliff_members() -> Vec<Member> {
    let trace_a = {
        let mut v = vec![100.0];
        v.extend(std::iter::repeat_n(500.0, 47));
        CarbonTrace::hourly("A", v)
    };
    let trace_b = {
        let mut v = vec![500.0];
        v.extend(std::iter::repeat_n(100.0, 47));
        CarbonTrace::hourly("B", v)
    };
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    vec![
        Member::new("A", config.clone(), trace_a),
        Member::new("B", config, trace_b),
    ]
}

/// The cliff fixture's workload: two 4000 s single-task jobs of 7.2 GB.
fn cliff_jobs() -> Vec<SubmittedJob> {
    let job = |name: &str| {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(4000.0)])
            .build()
            .unwrap()
    };
    vec![
        SubmittedJob::at(0.0, job("j0")).with_data_gb(7.2),
        SubmittedJob::at(0.0, job("j1")).with_data_gb(7.2),
    ]
}

fn run_cliff(fed: &Federation, policy: &mut dyn MigrationPolicy) -> FederationResult {
    try_run_cliff(fed, policy).unwrap()
}

fn try_run_cliff(
    fed: &Federation,
    policy: &mut dyn MigrationPolicy,
) -> Result<FederationResult, SimError> {
    let mut a = SparkStandaloneFifo::new();
    let mut b = SparkStandaloneFifo::new();
    let mut router = StaticRouter::new(0);
    let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
    fed.run_with_migration(&mut router, policy, &mut schedulers)
}

fn cliff_carbon(fed: &Federation, result: &FederationResult) -> f64 {
    let execution: f64 = fed
        .members()
        .iter()
        .zip(&result.members)
        .map(|(member, m)| {
            let accountant = CarbonAccountant::new(member.carbon.clone())
                .with_executor_power(1.0)
                .with_time_scale(1.0);
            ExperimentSummary::of(&m.result, &accountant).carbon_grams
        })
        .sum();
    execution + result.transfer_carbon_grams()
}

/// (4a) Zero-cost transfer + always-migrate-to-greenest on the cliff:
/// job 1 moves at exactly t=3600 and runs [3600, 7600] on B, so at 1 kW the
/// total is (100·3600 + 500·400 + 100·4000)/3600 = 2400/9 g — a pure hand
/// integral.
#[test]
fn zero_cost_greenest_migration_produces_the_hand_computed_carbon_total() {
    let fed = cliff_federation(TransferMatrix::zero(2));
    let mut policy = always_greenest();
    let result = run_cliff(&fed, &mut policy);
    assert!(result.all_jobs_complete());
    // Exactly one move: job 1, A → B, at the cliff, instantaneous.
    assert_eq!(result.num_migrations(), 1);
    let m = result.migrations[0];
    assert_eq!(m.job.0, 1);
    assert_eq!((m.from, m.to), (0, 1));
    assert!((m.departed - 3600.0).abs() < 1e-9);
    assert_eq!(m.transfer_seconds, 0.0);
    assert_eq!(m.transfer_carbon_grams, 0.0);
    // Makespan: job 1 starts on B at 3600 and runs 4000 s.
    assert!((result.makespan - 7600.0).abs() < 1e-9);
    // The hand integral.
    let expected = (100.0 * 3600.0 + 500.0 * 400.0 + 100.0 * 4000.0) / 3600.0;
    let got = cliff_carbon(&fed, &result);
    assert!((got - expected).abs() < 1e-6, "got {got}, expected {expected}");
    // Against never-migrate the saving is hand-computable too: job 1 would
    // run [4000, 8000] on A at 500 instead of [3600, 7600] on B at 100.
    let baseline = {
        let mut never = NeverMigrate::new();
        let result = run_cliff(&fed, &mut never);
        cliff_carbon(&fed, &result)
    };
    let expected_baseline = (100.0 * 3600.0 + 500.0 * 400.0 + 500.0 * 4000.0) / 3600.0;
    assert!((baseline - expected_baseline).abs() < 1e-6);
    assert!(got < baseline);
}

/// (4b) The same cliff with a priced matrix (100 s/GB, 0.05 kWh/GB):
/// 7.2 GB of untouched input make the transfer take 720 s and emit
/// 7.2 × 0.05 × ½(500+100) = 108 g, shifting job 1 to [4320, 8320] on B —
/// the movement is visibly priced in seconds *and* grams.
#[test]
fn nonzero_transfer_matrix_visibly_prices_the_migration() {
    let fed = cliff_federation(TransferMatrix::uniform(2, 100.0).with_energy_per_gb(0.05));
    let mut policy = always_greenest();
    let result = run_cliff(&fed, &mut policy);
    assert!(result.all_jobs_complete());
    assert_eq!(result.num_migrations(), 1);
    let m = result.migrations[0];
    assert!((m.gb - 7.2).abs() < 1e-12, "nothing dispatched — the whole input moves");
    assert!((m.transfer_seconds - 720.0).abs() < 1e-9);
    assert!((m.arrived - 4320.0).abs() < 1e-9);
    assert!((m.transfer_carbon_grams - 108.0).abs() < 1e-9);
    assert!((result.total_transfer_seconds() - 720.0).abs() < 1e-9);
    assert!((result.makespan - 8320.0).abs() < 1e-9);
    // Hand integral: A as before; B busy [4320, 8320] entirely at 100;
    // plus the 108 g transfer carbon.
    let expected =
        (100.0 * 3600.0 + 500.0 * 400.0 + 100.0 * 4000.0) / 3600.0 + 108.0;
    let got = cliff_carbon(&fed, &result);
    assert!((got - expected).abs() < 1e-6, "got {got}, expected {expected}");
}

/// `SubmittedJob::data_gb` is a public field, so a struct literal can
/// bypass `with_data_gb`'s check.  Unvalidated, migrating the cliff's job 1
/// with a NaN size panics in the event queue, an infinite one never
/// finishes integrating the transfer's carbon, and a negative one arrives
/// before it departed (turning the clock back); validation must turn each
/// into an invalid job.
const MALFORMED_DATA_SIZES: [f64; 3] = [f64::NAN, f64::INFINITY, -7.2];

fn cliff_jobs_with_data_gb(gb: f64) -> Vec<SubmittedJob> {
    let mut jobs = cliff_jobs();
    jobs[1].data_gb = gb;
    jobs
}

fn assert_invalid_data_size(result: Result<FederationResult, SimError>) {
    match result {
        Err(SimError::InvalidJob { job, reason }) => {
            assert_eq!(job, "j1");
            assert!(reason.contains("data size"), "{reason}");
        }
        other => panic!("expected invalid-job error, got {other:?}"),
    }
}

#[test]
fn malformed_data_size_is_detected_once_at_construction() {
    for bad in MALFORMED_DATA_SIZES {
        let fed = Federation::new(cliff_members(), cliff_jobs_with_data_gb(bad))
            .with_transfer_matrix(TransferMatrix::uniform(2, 1.0));
        assert_invalid_data_size(try_run_cliff(&fed, &mut always_greenest()));
    }
}

#[test]
fn streamed_malformed_data_size_is_rejected_on_pull() {
    let fed = Federation::streaming(cliff_members())
        .with_transfer_matrix(TransferMatrix::uniform(2, 1.0));
    for bad in MALFORMED_DATA_SIZES {
        // A prevalidated source promises DAG validity only: the size is
        // still checked on every pull.
        let mut source = MaterializedJobs::new(cliff_jobs_with_data_gb(bad)).unwrap();
        let mut a = SparkStandaloneFifo::new();
        let mut b = SparkStandaloneFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        assert_invalid_data_size(fed.run_source_with_migration(
            &mut source,
            &mut StaticRouter::new(0),
            &mut always_greenest(),
            &mut schedulers,
        ));
    }
}

/// A policy that emits one fixed verb at every consultation — the driver
/// for the negative-path tests.
struct EmitOnce {
    job: u64,
    to: usize,
    emitted: bool,
}

impl MigrationPolicy for EmitOnce {
    fn name(&self) -> &str {
        "emit-once"
    }
    fn on_carbon_change(
        &mut self,
        _ctx: &MigrationContext<'_>,
        _candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        if !self.emitted {
            self.emitted = true;
            out.migrate(JobId(self.job), self.to);
        }
    }
}

/// Negative path: migrating a job that already completed is a no-op — the
/// run finishes normally and the migration log stays empty (historical
/// semantics, exactly like a stale assignment).
#[test]
fn migrating_a_completed_job_is_a_no_op() {
    let short = JobDagBuilder::new("short")
        .stage("s", vec![Task::new(10.0)])
        .build()
        .unwrap();
    let long = JobDagBuilder::new("long")
        .stage("s", vec![Task::new(5000.0)])
        .build()
        .unwrap();
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    let fed = Federation::new(
        vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 300.0, 48)),
            Member::new("B", config, CarbonTrace::constant("B", 300.0, 48)),
        ],
        vec![SubmittedJob::at(0.0, short), SubmittedJob::at(0.0, long)],
    );
    struct ToB;
    impl Router for ToB {
        fn name(&self) -> &str {
            "split"
        }
        fn route(&mut self, id: pcaps_dag::JobId, _: &SubmittedJob, _: &RoutingContext<'_>) -> usize {
            id.0 as usize // job 0 → A, job 1 → B
        }
    }
    // Job 0 completes on A at t=10; the first carbon step (t=3600) then
    // tries to migrate it to B.
    let mut policy = EmitOnce { job: 0, to: 1, emitted: false };
    let mut a = SparkStandaloneFifo::new();
    let mut b = SparkStandaloneFifo::new();
    let result = {
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        fed.run_with_migration(&mut ToB, &mut policy, &mut schedulers).unwrap()
    };
    assert!(policy.emitted, "the verb must actually have been emitted");
    assert!(result.all_jobs_complete());
    assert!(result.migrations.is_empty(), "completed-job moves leave no trace");
    assert_eq!(result.members[0].result.jobs.len(), 1, "job 0 stays recorded on A");
}

/// Negative path: an out-of-range destination aborts the run with the
/// descriptive [`SimError::InvalidMigration`].
#[test]
fn migrating_to_an_out_of_range_member_is_an_error() {
    let job = |name: &str, dur: f64| {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(dur)])
            .build()
            .unwrap()
    };
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    let fed = Federation::new(
        vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 300.0, 48)),
            Member::new("B", config, CarbonTrace::constant("B", 300.0, 48)),
        ],
        // Job 0 occupies A past the first carbon step; job 1 queues idle
        // behind it, making it a legal candidate with an illegal target.
        vec![
            SubmittedJob::at(0.0, job("busy", 5000.0)),
            SubmittedJob::at(0.0, job("queued", 5000.0)),
        ],
    );
    let mut policy = EmitOnce { job: 1, to: 7, emitted: false };
    let mut a = SparkStandaloneFifo::new();
    let mut b = SparkStandaloneFifo::new();
    let err = {
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        fed.run_with_migration(&mut StaticRouter::new(0), &mut policy, &mut schedulers)
            .unwrap_err()
    };
    match err {
        SimError::InvalidMigration { job, reason } => {
            assert_eq!(job, JobId(1).to_string());
            assert!(reason.contains("member 7"), "got: {reason}");
            assert!(reason.contains("2 members"), "got: {reason}");
        }
        other => panic!("expected InvalidMigration, got {other:?}"),
    }
}

/// Negative path: migrating a job with running tasks is rejected with a
/// descriptive error rather than silently tearing the tasks down.
#[test]
fn migrating_a_running_job_is_an_error() {
    let job = |name: &str| {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(5000.0)])
            .build()
            .unwrap()
    };
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    let fed = Federation::new(
        vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 300.0, 48)),
            Member::new("B", config, CarbonTrace::constant("B", 300.0, 48)),
        ],
        vec![SubmittedJob::at(0.0, job("j0")), SubmittedJob::at(0.0, job("j1"))],
    );
    // Job 0 is running on A's only executor at the first carbon step.
    let mut policy = EmitOnce { job: 0, to: 1, emitted: false };
    let mut a = SparkStandaloneFifo::new();
    let mut b = SparkStandaloneFifo::new();
    let err = {
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        fed.run_with_migration(&mut StaticRouter::new(0), &mut policy, &mut schedulers)
            .unwrap_err()
    };
    match err {
        SimError::InvalidMigration { job, reason } => {
            assert_eq!(job, JobId(0).to_string());
            assert!(reason.contains("running task"), "got: {reason}");
        }
        other => panic!("expected InvalidMigration, got {other:?}"),
    }
}

/// Migration composes with the experiment harness end to end: the CSV the
/// `multi_region` binary writes carries the migration axis with per-row
/// move counts and transfer seconds.
#[test]
fn federated_trial_reports_migration_accounting() {
    let mut cfg = FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::SouthAfrica],
        12,
        1,
    );
    cfg.executors_per_member = 4;
    cfg.trace_days = 7;
    let out = run_federated_trial_with_migration(
        &cfg,
        RouterSpec::RoundRobin,
        MigrationSpec::CarbonDelta,
        SchedulerSpec::Baseline(BaseScheduler::Fifo),
    );
    assert!(out.num_migrations > 0);
    assert!(out.transfer_seconds > 0.0);
    assert!(out.transfer_carbon_grams > 0.0);
    let member_moves: usize = out.members.iter().map(|m| m.migrations_out).sum();
    assert_eq!(member_moves, out.num_migrations);
    let member_transfer: f64 = out.members.iter().map(|m| m.transfer_seconds_out).sum();
    assert!((member_transfer - out.transfer_seconds).abs() < 1e-9);
}
