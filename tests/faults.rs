//! Fault-injection guarantees:
//!
//! * an empty fault schedule is *exactly* the fault-free engine — attaching
//!   `FaultSchedule::none()` leaves every fingerprint bit-identical,
//! * faulted runs are deterministic: the same schedule, schedulers, seeds
//!   and migration policy replay the same fingerprints, fault logs, waste
//!   accounting and migration log,
//! * hand-computed oracles pin the recovery semantics: crash → backoff →
//!   re-dispatch timing, retry exhaustion at the policy bound, outage
//!   drain-and-evacuate over the priced migration path, and the frozen
//!   carbon view during a signal dropout,
//! * conservation: under random crashes every completed job still charges
//!   exactly its DAG's work, job ids partition across members, and retries
//!   balance failures once the run completes.

use carbon_aware_dag_sched::cluster::schedulers::SimpleFifo;
use carbon_aware_dag_sched::cluster::SimError;
use carbon_aware_dag_sched::dag::JobId;
use carbon_aware_dag_sched::prelude::*;
use pcaps_experiments::multi_region::{FederationExperimentConfig, MigrationSpec};
use pcaps_experiments::runner::{BaseScheduler, SchedulerSpec};

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

/// Everything that must replay identically under fault injection: the
/// schedule fingerprint per member plus the full fault ledger and waste
/// accounting (Debug formatting is exact for f64).
fn fault_digest(outcome: &Result<FederationResult, SimError>) -> String {
    match outcome {
        Ok(result) => {
            let mut s = String::new();
            for m in &result.members {
                s.push_str(&format!(
                    "m{}:{:016x} wasted={:?} failed={} retries={} faults={:?}\n",
                    m.member,
                    fingerprint(&m.result),
                    m.result.wasted_seconds,
                    m.result.tasks_failed,
                    m.result.retries,
                    m.result.faults,
                ));
            }
            s.push_str(&format!("migrations={:?}", result.migrations));
            s
        }
        Err(e) => format!("error: {e:?}"),
    }
}

fn single_task_job(name: &str, duration: f64) -> JobDag {
    JobDagBuilder::new(name)
        .stage("s", vec![Task::new(duration)])
        .build()
        .unwrap()
}

fn one_executor_sim(job_duration: f64, schedule: FaultSchedule) -> Simulator {
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    Simulator::new(
        config,
        vec![SubmittedJob::at(0.0, single_task_job("j", job_duration))],
        CarbonTrace::constant("flat", 300.0, 26_304),
    )
    .with_fault_schedule(schedule)
}

fn crash(time: f64, member: usize, executor: usize) -> FaultInjection {
    FaultInjection { time, member, kind: FaultKind::ExecutorCrash { executor } }
}

/// Runs a federation round-robin with one `spec`-built scheduler per member.
fn run_round_robin(
    fed: &Federation,
    spec: &SchedulerSpec,
    seed: u64,
    migration: MigrationSpec,
) -> Result<FederationResult, SimError> {
    let mut schedulers: Vec<Box<dyn Scheduler>> = fed
        .members()
        .iter()
        .enumerate()
        .map(|(i, m)| spec.build(seed ^ (i as u64), &m.carbon, 60.0))
        .collect();
    let mut refs: Vec<&mut dyn Scheduler> = Vec::with_capacity(schedulers.len());
    for s in schedulers.iter_mut() {
        refs.push(&mut **s);
    }
    let mut router = RoundRobinRouter::new();
    fed.run_with_migration(&mut router, migration.build().as_mut(), &mut refs)
}

#[test]
fn an_empty_fault_schedule_is_bit_identical_to_no_schedule_at_all() {
    let config = FederationExperimentConfig::standard(
        vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica],
        24,
        7,
    );
    for spec in [
        SchedulerSpec::Baseline(BaseScheduler::Fifo),
        SchedulerSpec::Pcaps { gamma: 0.5 },
    ] {
        let plain = fault_digest(&run_round_robin(
            &config.federation_instance(),
            &spec,
            7,
            MigrationSpec::Never,
        ));
        let empty = fault_digest(&run_round_robin(
            &config.federation_instance().with_fault_schedule(FaultSchedule::none()),
            &spec,
            7,
            MigrationSpec::Never,
        ));
        assert_eq!(plain, empty, "an empty schedule must not perturb {}", spec.label());
        assert!(plain.contains("faults=[]"), "no-fault runs log no faults");
    }
}

#[test]
fn faulted_runs_replay_bit_identically() {
    let scripted = FaultSchedule::new(vec![
        crash(900.0, 0, 0),
        crash(2_300.0, 0, 3),
        FaultInjection { time: 1_500.0, member: 1, kind: FaultKind::RegionOutageStart },
        FaultInjection { time: 3_500.0, member: 1, kind: FaultKind::RegionOutageEnd },
        FaultInjection { time: 1_000.0, member: 2, kind: FaultKind::CarbonDropoutStart },
        FaultInjection { time: 5_000.0, member: 2, kind: FaultKind::CarbonDropoutEnd },
        crash(4_100.0, 2, 1),
    ]);
    let mut poisson_migrations = 0;
    for seed in [1u64, 7, 42] {
        let config = FederationExperimentConfig::standard(
            vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica],
            24,
            seed,
        );
        let poisson = PoissonCrashes::new(seed, 1_500.0).with_horizon(40_000.0);
        let plans: [(&str, FaultSchedule); 2] = [
            ("scripted", scripted.clone()),
            (
                "poisson",
                config
                    .federation_instance()
                    .with_fault_plan(&poisson)
                    .fault_schedule()
                    .clone(),
            ),
        ];
        for (plan_name, schedule) in plans {
            for spec in [
                SchedulerSpec::Baseline(BaseScheduler::Fifo),
                SchedulerSpec::Pcaps { gamma: 0.5 },
            ] {
                for migration in [MigrationSpec::Never, MigrationSpec::CarbonDelta] {
                    let run = || {
                        let fed = config
                            .federation_instance()
                            .with_fault_schedule(schedule.clone())
                            .with_retry_policy(RetryPolicy {
                                max_attempts: 10,
                                ..RetryPolicy::default()
                            });
                        run_round_robin(&fed, &spec, seed, migration)
                    };
                    let first = run();
                    let second = run();
                    if plan_name == "poisson" && migration == MigrationSpec::CarbonDelta {
                        poisson_migrations += first.as_ref().map_or(0, |r| r.num_migrations());
                    }
                    assert_eq!(
                        fault_digest(&first),
                        fault_digest(&second),
                        "plan {plan_name} × {} × {} × seed {seed} must replay identically",
                        spec.label(),
                        migration.label()
                    );
                }
            }
        }
    }
    // The migrating arm proves nothing unless policy moves actually
    // interleave with the Poisson crashes.
    assert!(poisson_migrations > 0, "the carbon-delta arm never migrated");
}

#[test]
fn a_single_crash_recovers_with_hand_computed_timing_and_waste() {
    // One executor, one 100 s task, crash at t=10: the default policy
    // releases the retry at 15 (5 s backoff), the rerun spans [15, 115].
    let sim = one_executor_sim(100.0, FaultSchedule::new(vec![crash(10.0, 0, 0)]));
    let result = sim.run(&mut SimpleFifo::new()).unwrap();
    assert!(result.all_jobs_complete());
    assert!((result.makespan - 115.0).abs() < 1e-9, "got {}", result.makespan);
    assert!((result.wasted_seconds - 10.0).abs() < 1e-9);
    assert_eq!(result.tasks_failed, 1);
    assert_eq!(result.retries, 1);
    // The job still charges exactly its work: the crash refunds the
    // pre-charge, the retry re-charges it.
    assert!((result.jobs[0].executor_seconds - 100.0).abs() < 1e-9);
    assert!((result.goodput() - 100.0 / 110.0).abs() < 1e-12);
    // The ledger: the crash (with its victim) and the retry release.
    assert_eq!(result.faults.len(), 2);
    match result.faults[0].effect {
        FaultEffect::ExecutorCrashed { executor: 0, victim: Some(v) } => {
            assert_eq!(v.job, JobId(0));
            assert_eq!((v.task, v.attempt), (0, 1));
            assert!((v.wasted_seconds - 10.0).abs() < 1e-9);
        }
        other => panic!("expected a crash with a victim, got {other:?}"),
    }
    assert_eq!(result.faults[0].time, 10.0);
    assert!(matches!(result.faults[1].effect, FaultEffect::TaskRetried { .. }));
    assert_eq!(result.faults[1].time, 15.0);
}

#[test]
fn crashing_an_idle_executor_wastes_nothing() {
    // Two executors, one task: executor 0 runs the job over [0, 100] while
    // executor 1 sits idle — the crash at t=10 hits the idle one.  (A crash
    // scheduled after the run drains can never fire: the simulation ends
    // when its event queue empties.)
    let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
    let sim = Simulator::new(
        config,
        vec![SubmittedJob::at(0.0, single_task_job("j", 100.0))],
        CarbonTrace::constant("flat", 300.0, 26_304),
    )
    .with_fault_schedule(FaultSchedule::new(vec![crash(10.0, 0, 1)]));
    let result = sim.run(&mut SimpleFifo::new()).unwrap();
    assert!((result.makespan - 100.0).abs() < 1e-9, "an idle crash cannot delay the run");
    assert_eq!(result.wasted_seconds, 0.0);
    assert_eq!(result.tasks_failed, 0);
    assert_eq!(
        result.faults.len(),
        1,
        "the idle crash is still logged: {:?}",
        result.faults
    );
    assert!(matches!(
        result.faults[0].effect,
        FaultEffect::ExecutorCrashed { executor: 1, victim: None }
    ));
}

#[test]
fn retry_exhaustion_aborts_with_the_policy_count() {
    // Crashes at 10, 25, 45: attempt 1 releases at 15 (5 s backoff) and
    // reruns from 15; attempt 2 crashes at 25, releases at 35 (10 s
    // backoff), reruns from 35; the crash at 45 is failure number 3 — the
    // default policy's bound.
    let sim = one_executor_sim(
        100.0,
        FaultSchedule::new(vec![crash(10.0, 0, 0), crash(25.0, 0, 0), crash(45.0, 0, 0)]),
    );
    match sim.run(&mut SimpleFifo::new()) {
        Err(SimError::RetriesExhausted { job, stage, task, attempts }) => {
            assert_eq!(job, "j");
            assert_eq!(stage, StageId(0));
            assert_eq!(task, 0);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn fault_schedules_are_validated_against_the_topology() {
    let bad_member = one_executor_sim(
        10.0,
        FaultSchedule::new(vec![crash(1.0, 5, 0)]),
    );
    assert!(matches!(
        bad_member.run(&mut SimpleFifo::new()),
        Err(SimError::InvalidFault { .. })
    ));
    let bad_executor = one_executor_sim(
        10.0,
        FaultSchedule::new(vec![crash(1.0, 0, 9)]),
    );
    assert!(matches!(
        bad_executor.run(&mut SimpleFifo::new()),
        Err(SimError::InvalidFault { .. })
    ));
}

/// A FIFO that additionally records every advisory availability event it is
/// delivered.
struct AvailabilityAudit {
    seen: Vec<(f64, bool)>,
}

impl Scheduler for AvailabilityAudit {
    fn name(&self) -> &str {
        "availability-audit"
    }
    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        if let SchedEvent::MemberAvailability { available } = event {
            self.seen.push((ctx.time, available));
            return;
        }
        if let Some((job, stage)) = ctx.dispatchable_iter().next() {
            out.dispatch(job, stage, 1);
        }
    }
}

#[test]
fn an_outage_drains_running_work_and_evacuates_idle_jobs() {
    // Two one-executor members.  Both 4 000 s single-task jobs are routed to
    // member 0; job 0 dispatches immediately, job 1 queues behind it.  The
    // outage at t=100 lets job 0 drain to completion on member 0 but
    // evacuates the idle job 1 to member 1 over the priced transfer path:
    // 1 GB at 10 s/GB arrives at 110 and runs there over [110, 4110].
    let config = ClusterConfig::new(1).with_move_delay(0.0).with_time_scale(1.0);
    let fed = Federation::new(
        vec![
            Member::new("A", config.clone(), CarbonTrace::constant("A", 300.0, 26_304)),
            Member::new("B", config, CarbonTrace::constant("B", 300.0, 26_304)),
        ],
        vec![
            SubmittedJob::at(0.0, single_task_job("j0", 4_000.0)).with_data_gb(1.0),
            SubmittedJob::at(0.0, single_task_job("j1", 4_000.0)).with_data_gb(1.0),
        ],
    )
    .with_transfer_matrix(TransferMatrix::uniform(2, 10.0).with_energy_per_gb(0.1))
    // Ends at 4 050, before the last finish event at 4 110, so both edges
    // fire inside the run.
    .with_fault_plan(&RegionOutage::new(0, 100.0, 4_050.0));
    let mut audit = AvailabilityAudit { seen: Vec::new() };
    let mut fifo = SimpleFifo::new();
    let mut schedulers: [&mut dyn Scheduler; 2] = [&mut audit, &mut fifo];
    let result = fed.run(&mut StaticRouter::new(0), &mut schedulers).unwrap();

    assert!(result.all_jobs_complete());
    assert!((result.makespan - 4_110.0).abs() < 1e-9, "got {}", result.makespan);
    // The evacuation is a regular priced migration.
    assert_eq!(result.migrations.len(), 1);
    let m = &result.migrations[0];
    assert_eq!((m.job, m.from, m.to), (JobId(1), 0, 1));
    assert!((m.departed - 100.0).abs() < 1e-9);
    assert!((m.arrived - 110.0).abs() < 1e-9);
    // 1 GB × 0.1 kWh/GB × mean(300, 300) g/kWh = 30 g.
    assert!((m.transfer_carbon_grams - 30.0).abs() < 1e-9);
    // Each member finished exactly one job; the drain was not interrupted.
    assert_eq!(result.members[0].result.jobs.len(), 1);
    assert_eq!(result.members[0].result.jobs[0].id, JobId(0));
    assert!((result.members[0].result.jobs[0].completion - 4_000.0).abs() < 1e-9);
    assert_eq!(result.members[1].result.jobs.len(), 1);
    assert_eq!(result.members[1].result.jobs[0].id, JobId(1));
    assert!((result.members[1].result.jobs[0].completion - 4_110.0).abs() < 1e-9);
    // Nothing crashed — an outage wastes no executor-seconds.
    assert_eq!(result.wasted_seconds(), 0.0);
    // The ledger on member 0 and the advisory events its scheduler saw.
    let log = &result.members[0].result.faults;
    assert!(
        log.iter()
            .any(|r| matches!(r.effect, FaultEffect::OutageStarted { evacuated: 1 })),
        "outage start with one evacuee, got {log:?}"
    );
    assert!(log.iter().any(|r| matches!(r.effect, FaultEffect::OutageEnded)));
    assert_eq!(
        audit.seen,
        vec![(100.0, false), (4_050.0, true)],
        "the member's scheduler observes both edges of the outage window"
    );
}

/// Records the carbon view (intensity + staleness) at every scheduling
/// event; defers dispatch while the view is stale.
struct StaleAudit {
    arrivals: Vec<(f64, f64, bool)>,
    carbon_changes: Vec<(f64, f64, f64)>,
}

impl Scheduler for StaleAudit {
    fn name(&self) -> &str {
        "stale-audit"
    }
    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        match event {
            SchedEvent::JobArrived { job } => {
                self.arrivals.push((ctx.time, ctx.carbon.intensity, ctx.carbon.stale));
                let _ = job;
            }
            SchedEvent::CarbonChanged { prev, now } => {
                self.carbon_changes.push((ctx.time, prev, now));
            }
            _ => {}
        }
        if ctx.carbon.stale {
            // Don't trust a silent signal: hold new work until it returns.
            return;
        }
        if let Some((job, stage)) = ctx.dispatchable_iter().next() {
            out.dispatch(job, stage, 1);
        }
    }
}

#[test]
fn a_carbon_dropout_freezes_the_view_and_replays_the_step_on_recovery() {
    // Hourly trace 100 → 500 → 900 → 100 …, dropout over [4000, 8000).
    // Job A occupies executor 0 for the whole run; job B arrives at 7500,
    // *inside* the dropout, when the live intensity is already 900 — but the
    // member's view froze at 500 (the hour-1 value seen at 4000).
    let trace = CarbonTrace::hourly(
        "stepped",
        vec![100.0, 500.0, 900.0, 100.0, 100.0, 100.0, 100.0, 100.0],
    );
    let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
    let sim = Simulator::new(
        config,
        vec![
            SubmittedJob::at(0.0, single_task_job("a", 10_000.0)),
            SubmittedJob::at(7_500.0, single_task_job("b", 500.0)),
        ],
        trace,
    )
    .with_fault_plan(&CarbonSignalDropout::new(0, 4_000.0, 8_000.0));
    let mut audit = StaleAudit { arrivals: Vec::new(), carbon_changes: Vec::new() };
    let result = sim.run(&mut audit).unwrap();

    assert!(result.all_jobs_complete());
    assert!((result.makespan - 10_000.0).abs() < 1e-9);
    // Arrival A before the dropout: live view.  Arrival B inside it: frozen
    // at 500 and flagged stale, although the live trace reads 900.
    assert_eq!(audit.arrivals.len(), 2);
    assert_eq!(audit.arrivals[0], (0.0, 100.0, false));
    assert_eq!(audit.arrivals[1], (7_500.0, 500.0, true));
    // Recovery replays the suppressed step as one CarbonChanged from the
    // frozen value to the live one.
    assert!(
        audit.carbon_changes.contains(&(8_000.0, 500.0, 900.0)),
        "got {:?}",
        audit.carbon_changes
    );
    // The ledger records both edges with the frozen intensity.
    let frozen: Vec<_> = result
        .faults
        .iter()
        .filter_map(|r| match r.effect {
            FaultEffect::DropoutStarted { frozen_intensity } => Some((r.time, frozen_intensity)),
            _ => None,
        })
        .collect();
    assert_eq!(frozen, vec![(4_000.0, 500.0)]);
    assert!(result
        .faults
        .iter()
        .any(|r| r.time == 8_000.0 && matches!(r.effect, FaultEffect::DropoutEnded)));
}

#[test]
fn random_crashes_conserve_work_jobs_and_retry_balance() {
    let job = |i: usize| {
        JobDagBuilder::new(format!("j{i}"))
            .stage("map", vec![Task::new(50.0); 2])
            .stage("reduce", vec![Task::new(50.0); 2])
            .edge_by_name("map", "reduce")
            .unwrap()
            .build()
            .unwrap()
    };
    let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
    let members: Vec<Member> = ["A", "B", "C"]
        .iter()
        .map(|l| Member::new(*l, config.clone(), CarbonTrace::constant(*l, 300.0, 26_304)))
        .collect();
    let workload: Vec<SubmittedJob> = (0..12)
        .map(|i| SubmittedJob::at(10.0 * i as f64, job(i)))
        .collect();
    let total_work: f64 = workload.iter().map(|j| j.dag.total_work()).sum();
    let fed = Federation::new(members, workload)
        .with_fault_plan(&PoissonCrashes::new(42, 250.0).with_horizon(4_000.0))
        .with_retry_policy(RetryPolicy { max_attempts: 50, ..RetryPolicy::default() });
    let mut a = SimpleFifo::new();
    let mut b = SimpleFifo::new();
    let mut c = SimpleFifo::new();
    let mut schedulers: [&mut dyn Scheduler; 3] = [&mut a, &mut b, &mut c];
    let result = fed.run(&mut RoundRobinRouter::new(), &mut schedulers).unwrap();

    assert!(result.all_jobs_complete());
    assert!(result.tasks_failed() > 0, "the plan must actually crash something");
    // Every completed job charges exactly its DAG's work — crashes refund
    // the pre-charge, retries re-charge it.
    let mut ids = Vec::new();
    let mut charged = 0.0;
    for m in &result.members {
        for j in &m.result.jobs {
            assert!(
                (j.executor_seconds - j.total_work).abs() < 1e-6,
                "{} charged {} for {} of work",
                j.name,
                j.executor_seconds,
                j.total_work
            );
            charged += j.executor_seconds;
            ids.push(j.id.0);
        }
    }
    assert!((charged - total_work).abs() < 1e-6);
    // Job ids partition across members: every job exactly once.
    ids.sort_unstable();
    assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    // A completed run has no in-flight cooldowns left.
    assert_eq!(result.tasks_failed(), result.retries());
    assert!(result.wasted_seconds() > 0.0);
    let goodput = result.goodput();
    assert!(goodput > 0.0 && goodput < 1.0, "got {goodput}");
    // Extra tasks were dispatched to cover the crashed attempts.
    assert_eq!(result.tasks_dispatched(), 12 * 4 + result.tasks_failed());
}
