//! Steady-state serving mode, end to end: snapshot/restore continuations
//! are bit-identical to uninterrupted runs across policies and seeds, on
//! one cluster and on a federation with flows, drains, crashes and an
//! outage in flight; restoring into a federation with other executor pools
//! is refused; windowed percentiles match a from-scratch sort
//! over a recorded window, bounded-queue admission conserves arrivals, the
//! open-loop sample series is deterministic, and long-run resident state is
//! bounded by jobs in system — never by total jobs seen.

use carbon_aware_dag_sched::prelude::*;
use pcaps_cluster::SimError;
use pcaps_experiments::steady_state::{
    run_steady_trial, AdmissionSpec, SteadyStateConfig,
};
use pcaps_experiments::streaming::StreamSource;
use pcaps_experiments::{BaseScheduler, SchedulerSpec};
use pcaps_metrics::{CompletionEvent, WindowedMetrics};

/// The serving cluster the snapshot tests run on: TPC-H arrivals at the
/// paper's time scale, small enough to stay fast.
fn serving_sim(seed: u64) -> Simulator {
    let trace = SyntheticTraceGenerator::new(GridRegion::Caiso, seed).generate_days(3);
    Simulator::streaming(ClusterConfig::new(16).with_time_scale(60.0), trace)
}

/// An unbounded Poisson TPC-H stream — deterministic per seed, so two
/// instances replay the same arrivals (the property restore relies on).
fn serving_source(seed: u64) -> StreamSource<pcaps_workloads::WorkloadStream> {
    StreamSource::new(
        WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .stream_unbounded(PoissonArrivals::new(20.0, seed ^ 0xA11CE)),
    )
}

fn build_scheduler(base: BaseScheduler, seed: u64) -> Box<dyn Scheduler> {
    match base {
        BaseScheduler::Fifo => Box::new(SparkStandaloneFifo::new()),
        _ => Box::new(Pcaps::new(
            DecimaLike::new(seed ^ 0x5EED),
            PcapsConfig::with_gamma(0.5).with_seed(seed ^ 0x5EED),
        )),
    }
}

/// snapshot → restore into a *fresh* session over a *fresh* source → run on
/// must be bit-identical to the run that never stopped, for a stateless
/// (FIFO) and a stateful (PCAPS) policy across three seeds.  Policy state
/// lives outside the engine, so the continuation reuses the scheduler that
/// was warmed by the pre-snapshot prefix — exactly the documented contract.
#[test]
fn snapshot_restore_continuation_is_bit_identical() {
    const MID: f64 = 450.0;
    const END: f64 = 900.0;
    for base in [BaseScheduler::Fifo, BaseScheduler::Decima] {
        for seed in [11, 12, 13] {
            // The uninterrupted reference run.
            let sim = serving_sim(seed);
            let mut source = serving_source(seed);
            let mut session = sim.serve(&mut source).unwrap();
            let mut scheduler = build_scheduler(base, seed);
            let mut router = StaticRouter::new(0);
            {
                let mut s: [&mut dyn Scheduler; 1] = [scheduler.as_mut()];
                session.run_until(END, &mut router, &mut s, None).unwrap();
            }
            let reference = session.finish();

            // Prefix run to the snapshot point (warms the scheduler too).
            let sim_prefix = serving_sim(seed);
            let mut source_prefix = serving_source(seed);
            let mut prefix = sim_prefix.serve(&mut source_prefix).unwrap();
            let mut warmed = build_scheduler(base, seed);
            {
                let mut s: [&mut dyn Scheduler; 1] = [warmed.as_mut()];
                prefix.run_until(MID, &mut router, &mut s, None).unwrap();
            }
            let snap = prefix.snapshot();

            // Fresh session + fresh source; restore and continue with the
            // warmed scheduler.
            let sim_cont = serving_sim(seed);
            let mut source_cont = serving_source(seed);
            let mut cont = sim_cont.serve(&mut source_cont).unwrap();
            cont.restore(&snap).unwrap();
            assert_eq!(cont.time(), MID);
            {
                let mut s: [&mut dyn Scheduler; 1] = [warmed.as_mut()];
                cont.run_until(END, &mut router, &mut s, None).unwrap();
            }
            let continued = cont.finish();

            assert_eq!(
                reference.members[0].result.jobs, continued.members[0].result.jobs,
                "{base:?}/seed {seed}: restored continuation diverged from the uninterrupted run"
            );
            assert_eq!(reference.makespan, continued.makespan);
            assert_eq!(
                reference.members[0].result.tasks_dispatched,
                continued.members[0].result.tasks_dispatched
            );
        }
    }
}

/// Horizon of the federated continuation scenario (schedule seconds).
const FED_END: f64 = 1_800.0;
/// Member 1's region outage, `[start, end)`.
const OUTAGE: (f64, f64) = (420.0, 780.0);

/// Three grids, thin uplinks on `uplinks`, Poisson crashes on every member
/// and one outage window: a federated serving run with every kind of
/// in-flight state a snapshot must carry (flows on capacitated links or
/// out of members without one, drains, crashed tasks in retry backoff, an
/// outaged member).
fn churn_federation(uplinks: &[usize]) -> Federation {
    let regions = [GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica];
    let members: Vec<Member> = regions
        .iter()
        .zip(TraceSet::for_regions(&regions, 7, 72).into_traces())
        .map(|(r, t)| Member::new(r.code(), ClusterConfig::new(4).with_time_scale(60.0), t))
        .collect();
    let crashes = PoissonCrashes::new(0xC4A5, 60.0)
        .schedule(&pcaps_cluster::FaultContext { executors: vec![4; 3], horizon: FED_END })
        .unwrap();
    let mut injections = crashes.injections().to_vec();
    injections.extend([
        FaultInjection { time: OUTAGE.0, member: 1, kind: FaultKind::RegionOutageStart },
        FaultInjection { time: OUTAGE.1, member: 1, kind: FaultKind::RegionOutageEnd },
    ]);
    Federation::streaming(members)
        .with_network(uplinks_on(uplinks))
        .with_fault_schedule(FaultSchedule::new(injections))
        .with_retry_policy(RetryPolicy { max_attempts: 64, ..RetryPolicy::default() })
}

/// The churn federation's network with 0.25 GB/s uplinks on `members`
/// only, over its one per-GB rate and energy figure.
fn uplinks_on(members: &[usize]) -> NetworkTopology {
    members.iter().fold(
        NetworkTopology::from_matrix(&TransferMatrix::uniform(3, 1.0).with_energy_per_gb(0.05)),
        |net, &m| net.with_uplink(m, 0.25),
    )
}

fn churn_source() -> StreamSource<pcaps_workloads::WorkloadStream> {
    StreamSource::new(
        WorkloadBuilder::new(WorkloadKind::TpchMixed, 31)
            .stream_unbounded(PoissonArrivals::new(30.0, 31 ^ 0xA11CE)),
    )
}

/// One federated run's policy objects: a carbon+queue-aware router, a
/// drain-then-move carbon-delta migrator (its cooldown table is state a
/// continuation inherits), and FIFO, PCAPS, FIFO on the three members.
struct ChurnPolicies {
    router: CarbonQueueAwareRouter,
    migration: CarbonDeltaMigrator,
    schedulers: Vec<Box<dyn Scheduler>>,
}

impl ChurnPolicies {
    fn new() -> Self {
        ChurnPolicies {
            router: CarbonQueueAwareRouter::new(),
            migration: CarbonDeltaMigrator::new().with_drain(),
            schedulers: [BaseScheduler::Fifo, BaseScheduler::Decima, BaseScheduler::Fifo]
                .into_iter()
                .map(|base| build_scheduler(base, 31))
                .collect(),
        }
    }

    fn advance(&mut self, session: &mut ServeSession<'_>, horizon: f64) {
        let mut s: Vec<&mut dyn Scheduler> = Vec::with_capacity(self.schedulers.len());
        for scheduler in self.schedulers.iter_mut() {
            s.push(&mut **scheduler);
        }
        session
            .run_until_with_migration(horizon, &mut self.router, &mut self.migration, &mut s, None)
            .unwrap();
    }
}

/// `Debug` prints every `f64` in its shortest round-trip form, so two
/// values print alike exactly when their bits agree.
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// A federated serving run restored from a snapshot continues bit for bit,
/// whatever is in flight at the snapshot: a transfer over a capacitated
/// uplink or out of a member without one, a crashed task waiting out its
/// backoff, an open outage window.  It runs with uplinks on every member
/// and on member 0 only, where every job leaves a member without one.  For
/// each instant a prefix session (fresh policies) runs to it and is
/// snapshotted; a fresh session over a fresh source restores the snapshot
/// and runs on with the prefix's warmed policies.
#[test]
fn federated_snapshot_restore_continuation_is_bit_identical() {
    for uplinks in [&[0, 1, 2][..], &[0]] {
        let fed = churn_federation(uplinks);
        let mut source = churn_source();
        let mut session = fed.serve(&mut source).unwrap();
        ChurnPolicies::new().advance(&mut session, FED_END);
        let reference = session.finish();

        // Snapshot instants: a fixed spread, plus the midpoint of the first
        // transfer that leaves a member without an uplink (of the first
        // transfer when every member has one) and of the first
        // crash-to-retry backoff the uninterrupted run logged.
        let mut instants = vec![300.0, 600.0, 1_100.0, 1_500.0];
        let moving: Vec<&MigrationRecord> =
            reference.migrations.iter().filter(|m| m.arrived > m.departed).collect();
        let bare = moving.iter().find(|m| fed.network().uplink(m.from).is_none());
        let transfer = bare.or(moving.first()).map(|m| (m.departed, m.arrived));
        assert_eq!(bare.is_some(), uplinks.len() < 3, "uplinks on {uplinks:?}");
        let backoff = reference.members.iter().find_map(|m| {
            m.result.faults.iter().enumerate().find_map(|(i, f)| {
                let FaultEffect::ExecutorCrashed { victim: Some(v), .. } = f.effect else {
                    return None;
                };
                m.result.faults[i..].iter().find_map(|r| match r.effect {
                    FaultEffect::TaskRetried { job, stage, task }
                        if (job, stage, task) == (v.job, v.stage, v.task) =>
                    {
                        Some((f.time, r.time))
                    }
                    _ => None,
                })
            })
        });
        instants.extend(transfer.into_iter().chain(backoff).map(|(a, b)| 0.5 * (a + b)));
        let inside = |(start, end): (f64, f64)| instants.iter().any(|&t| start <= t && t < end);
        assert!(transfer.is_some_and(inside), "uplinks on {uplinks:?}: no instant in a transfer");
        assert!(backoff.is_some_and(inside), "uplinks on {uplinks:?}: no instant in a backoff");
        assert!(inside(OUTAGE), "no snapshot instant falls inside the outage");

        for &at in &instants {
            let mut prefix_source = churn_source();
            let mut prefix = fed.serve(&mut prefix_source).unwrap();
            let mut warmed = ChurnPolicies::new();
            warmed.advance(&mut prefix, at);
            let snap = prefix.snapshot();

            let mut cont_source = churn_source();
            let mut cont = fed.serve(&mut cont_source).unwrap();
            cont.restore(&snap).unwrap();
            warmed.advance(&mut cont, FED_END);
            let continued = cont.finish();

            let case = format!("uplinks on {uplinks:?}, t={at}");
            for (i, (r, c)) in reference.members.iter().zip(&continued.members).enumerate() {
                let (r, c) = (&r.result, &c.result);
                assert_eq!(bits(&r.jobs), bits(&c.jobs), "{case}, member {i}: jobs diverged");
                assert_eq!(r.tasks_dispatched, c.tasks_dispatched, "{case}, member {i}");
                assert_eq!(
                    r.wasted_seconds.to_bits(),
                    c.wasted_seconds.to_bits(),
                    "{case}, member {i}"
                );
                assert_eq!(r.tasks_failed, c.tasks_failed, "{case}, member {i}");
                assert_eq!(r.retries, c.retries, "{case}, member {i}");
                assert_eq!(bits(&r.faults), bits(&c.faults), "{case}, member {i}: faults diverged");
            }
            assert_eq!(bits(&reference.migrations), bits(&continued.migrations), "{case}");
        }
    }
}

/// A snapshot's executor pools belong to its members: restoring a
/// 16-executor cluster's snapshot into a 2-executor one must fail, not keep
/// dispatching on the snapshot's 16 executors.
#[test]
fn restore_rejects_a_snapshot_from_a_different_executor_count() {
    let mut source = serving_source(11);
    let big = serving_sim(11);
    let mut session = big.serve(&mut source).unwrap();
    let mut fifo = SparkStandaloneFifo::new();
    {
        let mut s: [&mut dyn Scheduler; 1] = [&mut fifo];
        session.run_until(200.0, &mut StaticRouter::new(0), &mut s, None).unwrap();
    }
    let snap = session.snapshot();

    let small = Simulator::streaming(
        ClusterConfig::new(2).with_time_scale(60.0),
        big.carbon().clone(),
    );
    let mut small_source = serving_source(11);
    let mut restored = small.serve(&mut small_source).unwrap();
    match restored.restore(&snap) {
        Err(SimError::SnapshotMismatch { reason }) => {
            assert!(reason.contains("16 executor(s)") && reason.contains("has 2"), "{reason}")
        }
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }
}

/// Percentiles reported by a windowed sample must match an independent
/// sort-and-interpolate oracle over the very same recorded window, fed
/// with completions from a real serving run.
#[test]
fn windowed_percentiles_match_a_from_scratch_sort() {
    let sim = serving_sim(5);
    let mut source = serving_source(5);
    let mut session = sim.serve(&mut source).unwrap();
    let mut fifo = SparkStandaloneFifo::new();
    let mut router = StaticRouter::new(0);
    {
        let mut s: [&mut dyn Scheduler; 1] = [&mut fifo];
        session.run_until(900.0, &mut router, &mut s, None).unwrap();
    }
    let records = session.drain_completions();
    assert!(records.len() >= 10, "need a meaningful window, got {}", records.len());

    let mut metrics = WindowedMetrics::new(900.0);
    for r in &records {
        metrics.record_completion(CompletionEvent {
            completion: r.completion,
            queue_delay: r.queue_delay(),
            service_hours: r.executor_seconds / 3600.0,
            carbon_grams: 0.0,
        });
    }
    let sample = metrics.sample(900.0, session.jobs_in_system());

    let mut delays: Vec<f64> = records.iter().map(|r| r.queue_delay()).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let oracle = |pct: f64| {
        let rank = pct / 100.0 * (delays.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        delays[lo] * (1.0 - frac) + delays[hi] * frac
    };
    assert!((sample.p50_queue_delay - oracle(50.0)).abs() < 1e-9);
    assert!((sample.p95_queue_delay - oracle(95.0)).abs() < 1e-9);
    assert!((sample.p99_queue_delay - oracle(99.0)).abs() < 1e-9);
    assert_eq!(sample.completions, records.len());
}

/// Bounded-queue admission on a drained finite workload: every arrival is
/// either a completed job or a rejection — `accepted + rejected ==
/// arrivals seen`, with real rejections occurring.
#[test]
fn bounded_queue_admission_conserves_arrivals() {
    const JOBS: usize = 30;
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 3).generate_days(7);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 3)
        .jobs(JOBS)
        .mean_interarrival(10.0)
        .build();
    let sim = Simulator::streaming(ClusterConfig::new(4).with_time_scale(60.0), trace);
    let mut source = MaterializedJobs::new(workload).unwrap();
    let mut fifo = SparkStandaloneFifo::new();
    let mut admission = BoundedQueue::new(3);
    let result = sim
        .run_until(&mut source, 1.0e6, &mut fifo, Some(&mut admission))
        .unwrap();
    assert!(result.jobs_rejected > 0, "a 3-deep bound under 10 s spacing must shed");
    assert_eq!(
        result.jobs.len() + result.jobs_rejected,
        JOBS,
        "accepted + rejected must equal arrivals seen"
    );
    assert!(result.all_jobs_complete());
}

/// Same seed ⇒ identical windowed sample series, bit for bit, through the
/// whole experiment stack (unbounded stream → serving engine → windowed
/// metrics → sample series).
#[test]
fn open_loop_sample_series_is_deterministic() {
    let mut cfg = SteadyStateConfig::standard(GridRegion::Caiso, 21);
    cfg.executors = 10;
    cfg.horizon = 480.0;
    cfg.trace_days = 2;
    for (spec, admission) in [
        (SchedulerSpec::Baseline(BaseScheduler::Fifo), AdmissionSpec::None),
        (SchedulerSpec::pcaps_moderate(), AdmissionSpec::Bounded(30)),
    ] {
        let a = run_steady_trial(&cfg, 2.0, spec, admission);
        let b = run_steady_trial(&cfg, 2.0, spec, admission);
        assert_eq!(a.samples, b.samples, "{spec:?}: sample series must be reproducible");
        assert_eq!(
            (a.arrivals, a.completed, a.rejected),
            (b.arrivals, b.completed, b.rejected)
        );
        assert!(!a.samples.is_empty());
    }
}

/// A fixed-spacing source of small two-task jobs, forever — full control
/// over the load so the long-run residency assertion is airtight.
struct SteadyTrickle {
    spacing: f64,
    next_arrival: f64,
    issued: usize,
}

impl ArrivalSource for SteadyTrickle {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let arrival = self.next_arrival;
        self.next_arrival += self.spacing;
        self.issued += 1;
        let dag = JobDagBuilder::new(format!("steady#{}", self.issued))
            .stage("s", vec![Task::new(5.0); 2])
            .build()
            .unwrap();
        Some(SubmittedJob::at(arrival, dag))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Open-loop memory is bounded: after hundreds of arrivals under a
/// sub-critical load, the resident per-job table tracks jobs in system
/// (single digits here), never the total number of jobs ever seen — and
/// the windowed ring buffer holds only the last window of completions.
#[test]
fn long_run_residency_is_bounded_by_jobs_in_system() {
    let trace = CarbonTrace::constant("A", 100.0, 48);
    let sim = Simulator::streaming(ClusterConfig::new(2).with_time_scale(1.0), trace);
    let mut source = SteadyTrickle { spacing: 10.0, next_arrival: 0.0, issued: 0 };
    let mut session = sim.serve(&mut source).unwrap();
    let mut fifo = SparkStandaloneFifo::new();
    let mut router = StaticRouter::new(0);
    let mut metrics = WindowedMetrics::new(100.0);
    let mut max_resident = 0usize;
    let mut max_ring = 0usize;
    for w in 1..=30 {
        {
            let mut s: [&mut dyn Scheduler; 1] = [&mut fifo];
            session.run_until(w as f64 * 100.0, &mut router, &mut s, None).unwrap();
        }
        for r in session.drain_completions() {
            metrics.record_completion(CompletionEvent {
                completion: r.completion,
                queue_delay: r.queue_delay(),
                service_hours: r.executor_seconds / 3600.0,
                carbon_grams: 0.0,
            });
        }
        metrics.sample(session.time(), session.jobs_in_system());
        max_resident = max_resident.max(session.resident_table_len());
        max_ring = max_ring.max(metrics.resident_events());
    }
    assert!(session.jobs_seen() >= 290, "3000 s at 10 s spacing is ~300 arrivals");
    assert!(
        max_resident <= 8,
        "resident table reached {max_resident} slots — it must track jobs in \
         system (a handful), not the {} jobs seen",
        session.jobs_seen()
    );
    assert!(
        max_ring <= 12,
        "windowed ring buffer reached {max_ring} events — it must hold one \
         window (10 completions at this rate), not the whole history"
    );
}
