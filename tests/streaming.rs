//! Streaming-intake conformance suite.
//!
//! Pins the guarantees of the pull-based workload pipeline:
//!
//! 1. **Streaming ≡ materialized** — a lazy Alibaba (and TPC-H) stream and
//!    its `.collect()`-ed materialized twin produce bit-identical
//!    `run_trial` fingerprints across seeds and schedulers, and a lazy
//!    stream pulled through a two-member federation reproduces
//!    `Federation::new` over the built workload,
//! 2. **bounded residency** — a streaming run's peak resident job count
//!    stays far below the workload size,
//! 3. **contract enforcement** — out-of-order sources and malformed
//!    arrival times abort with a descriptive error instead of silently
//!    corrupting the schedule.
//!
//! `crates/bench/smoke.sh` fails if this suite does not run in full (no
//! filters, no ignores), the same gate the migration suite has.

use carbon_aware_dag_sched::cluster::SimError;
use carbon_aware_dag_sched::prelude::*;
use pcaps_experiments::runner::{run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_experiments::streaming::{run_streamed_trial, StreamSource};

/// FNV-1a over the schedule-defining outputs of a run — the same
/// fingerprint `tests/determinism.rs` pins the scheduler API against.
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

fn config(seed: u64, kind: WorkloadKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, 12, seed);
    cfg.executors = 20;
    cfg.trace_days = 7;
    cfg.workload = kind;
    cfg
}

/// (1) The tentpole guarantee: pulling the workload lazily through the
/// arrival window changes nothing — streamed and materialized trials are
/// bit-identical, for the Alibaba generator across ≥3 seeds × ≥2
/// schedulers.
#[test]
fn streamed_and_materialized_alibaba_trials_are_bit_identical() {
    let specs = [
        SchedulerSpec::Baseline(BaseScheduler::Fifo),
        SchedulerSpec::pcaps_moderate(),
    ];
    for seed in [1_u64, 7, 42] {
        for spec in specs {
            let cfg = config(seed, WorkloadKind::Alibaba);
            let materialized = run_trial(&cfg, spec);
            let streamed = run_streamed_trial(&cfg, spec);
            assert_eq!(
                fingerprint(&streamed.result),
                fingerprint(&materialized.result),
                "seed {seed}, {}: streaming changed the schedule",
                spec.label()
            );
            // The summaries (carbon accounting over the usage profile) must
            // agree bit for bit too, not just the schedule.
            assert_eq!(streamed.summary.carbon_grams, materialized.summary.carbon_grams);
            assert_eq!(streamed.summary.avg_jct, materialized.summary.avg_jct);
        }
    }
}

/// The same equivalence on the TPC-H mix — the workload the paper's main
/// tables use.
#[test]
fn streamed_and_materialized_tpch_trials_are_bit_identical() {
    for seed in [3_u64, 9] {
        let cfg = config(seed, WorkloadKind::TpchMixed);
        let spec = SchedulerSpec::Baseline(BaseScheduler::Decima);
        assert_eq!(
            fingerprint(&run_streamed_trial(&cfg, spec).result),
            fingerprint(&run_trial(&cfg, spec).result),
            "seed {seed}: streaming changed the TPC-H schedule"
        );
    }
}

/// A lazy source is exactly its collected twin: collecting the stream and
/// feeding it through the materialized path gives the same jobs the lazy
/// pull sees (property over several seeds).
#[test]
fn lazy_stream_collects_to_its_materialized_twin() {
    for seed in [2_u64, 5, 11] {
        let builder = WorkloadBuilder::new(WorkloadKind::Alibaba, seed).jobs(40);
        let lazy: Vec<_> = builder.stream().collect();
        assert_eq!(lazy, builder.build(), "seed {seed}");
    }
}

/// (1) Across members: a lazy stream pulled through a two-member streaming
/// federation equals the built workload handed to `Federation::new`.
#[test]
fn a_lazy_stream_drives_a_two_member_federation_identically() {
    let builder = WorkloadBuilder::new(WorkloadKind::Alibaba, 2)
        .jobs(16)
        .mean_interarrival(20.0);
    let members = || {
        vec![
            Member::new(
                "A",
                ClusterConfig::new(6).with_time_scale(1.0),
                CarbonTrace::constant("A", 100.0, 400),
            ),
            Member::new(
                "B",
                ClusterConfig::new(6).with_time_scale(1.0),
                CarbonTrace::constant("B", 300.0, 400),
            ),
        ]
    };
    let run = |fed: &Federation, source: Option<&mut dyn ArrivalSource>| {
        let mut a = SparkStandaloneFifo::new();
        let mut b = SparkStandaloneFifo::new();
        let mut schedulers: [&mut dyn Scheduler; 2] = [&mut a, &mut b];
        let mut router = RoundRobinRouter::new();
        match source {
            None => fed.run(&mut router, &mut schedulers).unwrap(),
            Some(src) => fed.run_source(src, &mut router, &mut schedulers).unwrap(),
        }
    };

    let expected = run(&Federation::new(members(), builder.build()), None);
    let mut source = StreamSource::new(builder.stream());
    let got = run(&Federation::streaming(members()), Some(&mut source));

    assert_eq!(got.makespan, expected.makespan);
    assert_eq!(got.jobs_submitted(), expected.jobs_submitted());
    for (g, e) in got.members.iter().zip(&expected.members) {
        assert!(!e.result.jobs.is_empty(), "member {} ran no jobs", e.label);
        assert_eq!(g.result.jobs, e.result.jobs, "member {} diverged", e.label);
    }
}

/// (2) The scale guarantee: a streaming run's peak resident job count is
/// bounded by the system's concurrency, not the workload length.
#[test]
fn streaming_keeps_peak_resident_jobs_far_below_the_workload() {
    let jobs = 600;
    let sim = Simulator::streaming(
        ClusterConfig::new(50)
            .with_time_scale(60.0)
            .with_profile_mode(ProfileMode::Light),
        SyntheticTraceGenerator::new(GridRegion::Caiso, 4).generate_days(14),
    );
    let mut source = StreamSource::new(
        WorkloadBuilder::new(WorkloadKind::Alibaba, 4)
            .jobs(jobs)
            .mean_interarrival(10.0)
            .stream(),
    );
    let result = sim
        .run_source(&mut source, &mut SparkStandaloneFifo::new())
        .unwrap();
    assert!(result.all_jobs_complete());
    let peak = result
        .profile
        .jobs_in_system
        .iter()
        .map(|s| s.count)
        .max()
        .unwrap();
    assert!(
        peak * 5 < jobs,
        "peak resident jobs ({peak}) must stay far below the workload size ({jobs})"
    );
    // Light mode really did keep per-task series empty.
    assert!(result.profile.usage.is_empty());
    assert!(result.profile.segments.is_empty());
}

/// (3) Contract enforcement: an unsorted source aborts with
/// `OutOfOrderArrival` naming the offending job.
#[test]
fn out_of_order_sources_abort_with_a_descriptive_error() {
    let dag = |name: &str| {
        JobDagBuilder::new(name)
            .stage("s", vec![Task::new(1.0)])
            .build()
            .unwrap()
    };
    let sim = Simulator::streaming(
        ClusterConfig::new(2).with_time_scale(1.0),
        CarbonTrace::constant("flat", 100.0, 48),
    );
    let mut source = vec![
        SubmittedJob::at(50.0, dag("first")),
        SubmittedJob::at(10.0, dag("backwards")),
    ]
    .into_iter();
    let err = sim
        .run_source(&mut source, &mut SparkStandaloneFifo::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("backwards"), "error must name the job: {msg}");
    assert!(msg.contains("non-decreasing"), "error must state the contract: {msg}");
}

/// (3) Contract enforcement: `arrival` is a public field, so a struct
/// literal can bypass `SubmittedJob::at`'s assert.  A NaN, negative or
/// infinite arrival is an `InvalidJob` naming the job through both intakes:
/// at construction for a materialized workload, and on the pull for a
/// stream.
#[test]
fn malformed_arrival_times_are_invalid_jobs_through_both_intakes() {
    let config = ClusterConfig::new(2).with_time_scale(1.0);
    let trace = CarbonTrace::constant("flat", 100.0, 48);
    let workload = |arrival: f64| {
        let dag = JobDagBuilder::new("bad")
            .stage("s", vec![Task::new(1.0)])
            .build()
            .unwrap();
        vec![SubmittedJob { arrival, ..SubmittedJob::at(0.0, dag) }]
    };
    fn assert_invalid(intake: &str, arrival: f64, result: Result<SimulationResult, SimError>) {
        match result {
            Err(SimError::InvalidJob { job, reason }) => {
                assert_eq!(job, "bad", "{intake}, arrival {arrival}");
                assert!(reason.contains("arrival"), "{intake}, arrival {arrival}: {reason}");
            }
            other => panic!("{intake}, arrival {arrival}: expected InvalidJob, got {other:?}"),
        }
    }
    for bad in [f64::NAN, -5.0, f64::INFINITY] {
        let materialized = Simulator::new(config.clone(), workload(bad), trace.clone());
        assert_invalid("materialized", bad, materialized.run(&mut SparkStandaloneFifo::new()));
        let streaming = Simulator::streaming(config.clone(), trace.clone());
        let mut source = workload(bad).into_iter();
        assert_invalid(
            "streamed",
            bad,
            streaming.run_source(&mut source, &mut SparkStandaloneFifo::new()),
        );
    }
}
