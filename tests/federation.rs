//! Federation-level guarantees:
//!
//! * a single-member `Federation` (driven explicitly, with a `StaticRouter`)
//!   reproduces the legacy single-cluster `Simulator` fingerprints bit for
//!   bit for all seven scheduler specs of the experiment harness,
//! * routing is deterministic — the same seed yields the same per-cluster
//!   job sets run after run, for every built-in router,
//! * a malformed member `ClusterConfig` or carbon trace (public fields
//!   bypass the builder asserts) is a `SimError::InvalidConfig` naming the
//!   member and the field through every run entry point.

use carbon_aware_dag_sched::cluster::SimError;
use carbon_aware_dag_sched::prelude::*;
use pcaps_experiments::multi_region::{
    run_federated_trial, FederationExperimentConfig, RouterSpec,
};
use pcaps_experiments::runner::{BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_experiments::streaming::StreamSource;

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

/// The v1 (pre-federation) `run_trial` fingerprints on the reference
/// configuration — the same constants `tests/determinism.rs` pins.
const V1_FINGERPRINTS: [(&str, SchedulerSpec, u64); 7] = [
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

/// A one-member federation, assembled by hand from the reference config's
/// pieces and driven through `Federation::run` with a `StaticRouter`, must
/// reproduce the legacy simulator's schedules bit for bit.
#[test]
fn single_member_federation_matches_legacy_simulator_fingerprints() {
    let cfg = reference_config();
    let seed = cfg.seed ^ 0x5EED;
    for (name, spec, expected) in V1_FINGERPRINTS {
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
        );
        let mut scheduler = spec.build(seed, &trace, 60.0);
        let mut router = StaticRouter::new(0);
        let result = {
            let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler.as_mut()];
            federation.run(&mut router, &mut schedulers).unwrap()
        };
        assert_eq!(result.members.len(), 1);
        assert_eq!(
            fingerprint(&result.members[0].result),
            expected,
            "{name}: single-member federation diverged from the legacy simulator"
        );
    }
}

/// Same seed ⇒ bit-identical trial aggregates, for every built-in router,
/// across repeated runs and several seeds (trial-harness level).
#[test]
fn routing_is_deterministic_across_runs() {
    for seed in [1_u64, 7, 42] {
        let mut cfg = FederationExperimentConfig::standard(
            vec![GridRegion::Caiso, GridRegion::Germany, GridRegion::SouthAfrica],
            10,
            seed,
        );
        cfg.executors_per_member = 8;
        cfg.trace_days = 7;
        for router in RouterSpec::ALL {
            let runs: Vec<_> = (0..2)
                .map(|_| run_federated_trial(&cfg, router, SchedulerSpec::pcaps_moderate()))
                .collect();
            let digest = |t: &pcaps_experiments::multi_region::FederatedTrialOutput| -> Vec<Vec<u64>> {
                t.members
                    .iter()
                    .map(|m| {
                        vec![
                            m.jobs_routed as u64,
                            m.summary.carbon_grams.to_bits(),
                            m.summary.ect.to_bits(),
                        ]
                    })
                    .collect()
            };
            assert_eq!(
                digest(&runs[0]),
                digest(&runs[1]),
                "router {:?} with seed {seed} is not reproducible",
                router
            );
        }
    }
}

/// Same property at the federation level, comparing the actual per-member
/// job *id sets* (not just counts) across two identical runs — for every
/// built-in router and several seeds.  The sets must also partition the
/// workload (disjoint and complete).
#[test]
fn per_member_job_sets_replay_bit_identically() {
    let regions = [GridRegion::Caiso, GridRegion::Ontario, GridRegion::Nsw];
    let run_once = |router_spec: RouterSpec, seed: u64| {
        let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
            .jobs(12)
            .build();
        let traces = TraceSet::for_regions(&regions, seed, 7 * 24);
        let members = regions
            .iter()
            .zip(traces.traces())
            .map(|(r, t)| {
                Member::new(r.code(), ClusterConfig::new(6).with_time_scale(60.0), t.clone())
            })
            .collect();
        let federation = Federation::new(members, workload);
        let mut router = router_spec.build();
        let mut s0 = Pcaps::new(DecimaLike::new(3), PcapsConfig::moderate().with_seed(3));
        let mut s1 = Pcaps::new(DecimaLike::new(4), PcapsConfig::moderate().with_seed(4));
        let mut s2 = Pcaps::new(DecimaLike::new(5), PcapsConfig::moderate().with_seed(5));
        let mut schedulers: [&mut dyn Scheduler; 3] = [&mut s0, &mut s1, &mut s2];
        let result = federation.run(router.as_mut(), &mut schedulers).unwrap();
        assert!(result.all_jobs_complete());
        result
            .members
            .iter()
            .map(|m| m.result.jobs.iter().map(|j| j.id.0).collect::<Vec<u64>>())
            .collect::<Vec<_>>()
    };
    for seed in [1_u64, 11, 42] {
        for router in RouterSpec::ALL {
            let a = run_once(router, seed);
            let b = run_once(router, seed);
            assert_eq!(
                a, b,
                "router {:?} with seed {seed}: per-member job id sets must replay identically",
                router
            );
            // The job sets partition the workload: disjoint and complete.
            let mut all: Vec<u64> = a.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..12).collect::<Vec<u64>>());
        }
    }
}

/// Runs a workload through every entry point — materialized, streamed and
/// served single-cluster runs, and a federation whose second member is the
/// malformed one — and expects each to report an `InvalidConfig` naming the
/// member's label and `field`.
fn expect_invalid_config_everywhere(field: &str, config: ClusterConfig, carbon: CarbonTrace) {
    let base = ClusterConfig::new(4).with_time_scale(60.0);
    let builder = WorkloadBuilder::new(WorkloadKind::TpchMixed, 3).jobs(3);
    let good_trace = || SyntheticTraceGenerator::new(GridRegion::Germany, 3).generate_days(7);
    let expect = |entry: &str, label: &str, got: Result<(), SimError>| match got {
        Err(SimError::InvalidConfig { member, reason }) => {
            assert_eq!(member, label, "{entry}, {field}");
            assert!(reason.contains(field), "{entry}, {field}: {reason}");
        }
        other => panic!("{entry}, {field}: expected InvalidConfig, got {other:?}"),
    };
    let label = carbon.label.clone();
    let sim = Simulator::new(config.clone(), builder.build(), carbon.clone());
    expect("Simulator::run", &label, sim.run(&mut SparkStandaloneFifo::new()).map(drop));

    let sim = Simulator::streaming(config.clone(), carbon.clone());
    let mut source = StreamSource::new(builder.stream());
    let run = sim.run_source(&mut source, &mut SparkStandaloneFifo::new()).map(drop);
    expect("Simulator::run_source", &label, run);
    let mut source = StreamSource::new(builder.stream());
    expect("Simulator::serve", &label, sim.serve(&mut source).map(drop));

    let fed = Federation::new(
        vec![Member::new("A", base, good_trace()), Member::new("B", config, carbon)],
        builder.build(),
    );
    let mut a = SparkStandaloneFifo::new();
    let mut b = SparkStandaloneFifo::new();
    let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
    let run = fed.run(&mut RoundRobinRouter::new(), &mut schedulers).map(drop);
    expect("Federation::run", "B", run);
}

/// Every field a builder method asserts on, set by struct literal to a
/// value that method refuses, plus a time scale the builder accepts but
/// whose carbon step vanishes at the time limit, is rejected at
/// construction through every run entry point.
#[test]
fn malformed_cluster_configs_are_rejected_naming_the_member_and_field() {
    let base = ClusterConfig::new(4).with_time_scale(60.0);
    let cases: [(&str, ClusterConfig); 9] = [
        ("time_scale", ClusterConfig { time_scale: 0.0, ..base.clone() }),
        ("time_scale", ClusterConfig { time_scale: f64::NAN, ..base.clone() }),
        // Finite, but the carbon step it leaves cannot move the clock.
        ("time_scale", ClusterConfig { time_scale: 1e300, ..base.clone() }),
        ("executor_move_delay", ClusterConfig { executor_move_delay: f64::NAN, ..base.clone() }),
        ("executor_move_delay", ClusterConfig { executor_move_delay: -1000.0, ..base.clone() }),
        ("num_executors", ClusterConfig { num_executors: 0, ..base.clone() }),
        ("per_job_executor_cap", ClusterConfig { per_job_executor_cap: Some(0), ..base.clone() }),
        ("max_sim_time", ClusterConfig { max_sim_time: f64::NAN, ..base.clone() }),
        // Never trips: a policy that never dispatches would step the
        // carbon clock forever.
        ("max_sim_time", ClusterConfig { max_sim_time: f64::INFINITY, ..base.clone() }),
    ];
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 3).generate_days(7);
    for (field, config) in cases {
        expect_invalid_config_everywhere(field, config, trace.clone());
    }
}

/// A carbon trace edited after `CarbonTrace::new` (its fields are public)
/// to a value `new` refuses, or to a non-finite start, is rejected at
/// construction through every run entry point, naming the trace field.
/// Unchecked, a negative or NaN step never reaches the next carbon step (the
/// run hangs), an empty trace divides by zero, and a NaN start reads every
/// instant as the first value.
#[test]
fn malformed_carbon_traces_are_rejected_naming_the_member_and_field() {
    let config = ClusterConfig::new(4).with_time_scale(60.0);
    let good = SyntheticTraceGenerator::new(GridRegion::Germany, 3).generate_days(7);
    let edited = |edit: fn(&mut CarbonTrace)| {
        let mut trace = good.clone();
        edit(&mut trace);
        trace
    };
    let cases: [(&str, CarbonTrace); 10] = [
        ("step", edited(|t| t.step = -3600.0)),
        ("step", edited(|t| t.step = f64::NAN)),
        ("step", edited(|t| t.step = 0.0)),
        ("step", edited(|t| t.step = f64::INFINITY)),
        ("values", edited(|t| t.values.clear())),
        ("values", edited(|t| t.values[5] = -1.0)),
        ("values", edited(|t| t.values[5] = f64::NAN)),
        ("values", edited(|t| t.values[5] = f64::INFINITY)),
        ("start", edited(|t| t.start = f64::NAN)),
        ("start", edited(|t| t.start = f64::NEG_INFINITY)),
    ];
    for (field, trace) in cases {
        expect_invalid_config_everywhere(field, config.clone(), trace);
    }
}
