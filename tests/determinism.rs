//! Reproducibility: the entire pipeline (workload generation, carbon trace
//! synthesis, simulation, scheduling, accounting) is deterministic given its
//! seeds, and different seeds genuinely change the outcome — and the v2
//! scheduler API (typed events + decision sink) reproduces the v1 seed's
//! `run_trial` results bit for bit, both on the finite run path and through
//! the open-arrival serving mode driven over the same workload.

use carbon_aware_dag_sched::prelude::*;
use pcaps_experiments::runner::{
    run_trial, BaseScheduler, ExperimentConfig, SchedulerSpec,
};
use pcaps_core::pcaps::PcapsStats;
use pcaps_schedulers::DecimaCacheStats;

fn run_pipeline(seed: u64) -> (f64, f64, f64) {
    let trace = SyntheticTraceGenerator::new(GridRegion::Caiso, seed).generate_days(14);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
        .jobs(10)
        .build();
    let sim = Simulator::new(ClusterConfig::new(16), workload, trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);
    let mut pcaps = Pcaps::new(DecimaLike::new(seed), PcapsConfig::moderate().with_seed(seed));
    let result = sim.run(&mut pcaps).expect("run completes");
    let summary = ExperimentSummary::of(&result, &accountant);
    (summary.carbon_grams, summary.ect, summary.avg_jct)
}

#[test]
fn same_seed_same_results() {
    let a = run_pipeline(1234);
    let b = run_pipeline(1234);
    assert_eq!(a, b, "identical seeds must reproduce bit-identical metrics");
}

#[test]
fn different_seeds_differ() {
    let a = run_pipeline(1);
    let b = run_pipeline(2);
    assert!(
        a != b,
        "different seeds should produce different workloads/trials"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the schedule-defining outputs of a run: makespan, dispatch
/// count, and every per-job record (id, arrival, completion, executor
/// seconds), all at full bit precision.
fn fingerprint(result: &SimulationResult) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
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

/// The seven scheduler specs of the experiment harness with the
/// fingerprints their `run_trial` results had under the v1 (Vec-returning)
/// scheduler API, captured immediately before the v2 port on the reference
/// configuration below.  The v2 engine must reproduce them bit for bit as
/// long as no policy uses the new deferral verbs.
const V1_FINGERPRINTS: [(&str, SchedulerSpec, u64); 7] = [
    ("fifo", SchedulerSpec::Baseline(BaseScheduler::Fifo), 0x7602c05a61b15e6a),
    ("k8s_default", SchedulerSpec::Baseline(BaseScheduler::KubeDefault), 0x7602c05a61b15e6a),
    ("weighted_fair", SchedulerSpec::Baseline(BaseScheduler::WeightedFair), 0x1ae3e51b79e65499),
    ("decima", SchedulerSpec::Baseline(BaseScheduler::Decima), 0x241dc10e49cebef9),
    ("greenhadoop", SchedulerSpec::GreenHadoop { theta: 0.5 }, 0xc5507bffa42a002c),
    ("cap_fifo", SchedulerSpec::Cap { base: BaseScheduler::Fifo, b: 5 }, 0xd1e582d363597e56),
    ("pcaps", SchedulerSpec::Pcaps { gamma: 0.5 }, 0x4263e65825f2a107),
];

/// The reference configuration the v1 fingerprints were captured on.
fn reference_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, 8, 1);
    cfg.executors = 20;
    cfg.trace_days = 7;
    cfg
}

#[test]
fn v2_run_trial_fingerprints_match_the_v1_seed() {
    for (name, spec, expected) in V1_FINGERPRINTS {
        let out = run_trial(&reference_config(), spec);
        assert_eq!(
            fingerprint(&out.result),
            expected,
            "{name}: v2 port changed the schedule relative to the v1 seed"
        );
    }
}

/// Drives each spec through the open-arrival serving path instead of the
/// finite `run`: the same workload fed from a source into
/// `Simulator::run_until` with a horizon past the last completion.  The
/// serving engine's horizon gate and compaction must be invisible here — a
/// drained open-loop run is the finite run, bit for bit.
#[test]
fn open_loop_serving_matches_the_v1_seed() {
    // Reconstruct each spec's scheduler exactly as `run_trial` does (same
    // seed derivation), but run it through the serving-mode entry point.
    let cfg = reference_config();
    let seed = cfg.seed ^ 0x5EED;
    for (name, spec, expected) in V1_FINGERPRINTS {
        let sim = cfg.simulator_instance();
        let mut scheduler: Box<dyn Scheduler> = match spec {
            SchedulerSpec::Baseline(BaseScheduler::Fifo) => {
                Box::new(SparkStandaloneFifo::new())
            }
            SchedulerSpec::Baseline(BaseScheduler::KubeDefault) => {
                Box::new(KubeDefaultFifo::new())
            }
            SchedulerSpec::Baseline(BaseScheduler::WeightedFair) => {
                Box::new(WeightedFair::new())
            }
            SchedulerSpec::Baseline(BaseScheduler::Decima) => {
                Box::new(DecimaLike::new(seed))
            }
            SchedulerSpec::GreenHadoop { theta } => Box::new(
                GreenHadoop::with_theta(sim.carbon().clone(), 60.0, theta),
            ),
            SchedulerSpec::Cap { b, .. } => Box::new(Cap::new(
                SparkStandaloneFifo::new(),
                CapConfig::with_minimum_quota(b),
            )),
            SchedulerSpec::Pcaps { gamma } => Box::new(Pcaps::new(
                DecimaLike::new(seed),
                PcapsConfig::with_gamma(gamma).with_seed(seed),
            )),
        };
        let workload = sim.federation().workload().to_vec();
        let mut source = MaterializedJobs::new(workload).unwrap();
        let result = sim
            .run_until(&mut source, 1.0e8, scheduler.as_mut(), None)
            .unwrap();
        assert_eq!(
            fingerprint(&result),
            expected,
            "{name}: the open-loop serving path changed the schedule"
        );
    }
}

/// `DecimaLike::cache_stats` after the reference `decima` and `pcaps`
/// trials, pinned next to their fingerprints: how many passes recomputed
/// every job factor, how many job- and stage-factor `exp`s ran, how many
/// refreshes kept their stage terms, and how many passes read the
/// engine's change journal rather than reconciling against every job, is
/// deterministic, so a change to the cache keys or to the journal's
/// resets shows here even when the schedule does not move.
const CACHE_STATS: [(&str, DecimaCacheStats); 2] = [
    (
        "decima",
        DecimaCacheStats {
            passes: 645,
            full_refactors: 353,
            job_exps: 771,
            stage_exps: 1325,
            kept_stage_terms: 587,
            journal_passes: 459,
            reconciles: 186,
        },
    ),
    (
        "pcaps",
        DecimaCacheStats {
            passes: 753,
            full_refactors: 197,
            job_exps: 868,
            stage_exps: 1525,
            kept_stage_terms: 655,
            journal_passes: 610,
            reconciles: 143,
        },
    ),
];

/// `Pcaps::stats` after the reference `pcaps` trial: how many sampled
/// stages it scheduled, deferred and forced through the progress
/// guarantee, the work it deferred, and how many consults it declined
/// because it had already decided at that instant.
const PCAPS_STATS: PcapsStats = PcapsStats {
    scheduled: 713,
    deferred: 40,
    forced_progress: 127,
    declined: 267,
    deferred_work: 1841.2911320281123,
};

#[test]
fn decima_cache_stats_match_the_pins() {
    // The schedulers exactly as `run_trial` builds them (same seed
    // derivation), so the fingerprints above apply.
    let cfg = reference_config();
    let seed = cfg.seed ^ 0x5EED;
    let fingerprint_of = |name: &str| {
        V1_FINGERPRINTS
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(.., f)| f)
            .expect("pinned spec")
    };
    let mut decima = DecimaLike::new(seed);
    let result = cfg.simulator_instance().run(&mut decima).unwrap();
    assert_eq!(fingerprint(&result), fingerprint_of("decima"));
    let mut pcaps = Pcaps::new(
        DecimaLike::new(seed),
        PcapsConfig::with_gamma(0.5).with_seed(seed),
    );
    let result = cfg.simulator_instance().run(&mut pcaps).unwrap();
    assert_eq!(fingerprint(&result), fingerprint_of("pcaps"));
    let got = [decima.cache_stats(), pcaps.inner().cache_stats()];
    for ((name, expected), got) in CACHE_STATS.iter().zip(got) {
        assert_eq!(got, *expected, "{name}: DecimaLike cache counters moved");
    }
    assert_eq!(pcaps.stats(), PCAPS_STATS, "pcaps: PCAPS's decision counters moved");
}

/// FNV-1a over everything a streamed job carries into a run: its arrival
/// bits, its name and stage-name bytes, its stage and name ends, every
/// task duration's bits and every stage's parent list.  Each variable-length
/// part is preceded by its length, so no two streams share a byte sequence.
fn stream_digest(jobs: impl Iterator<Item = SubmittedJob>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut bytes = |bs: &[u8]| {
        for &b in bs {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for job in jobs {
        let dag = &job.dag;
        bytes(&job.arrival.to_bits().to_le_bytes());
        for name in [&dag.name, &dag.stage_names] {
            bytes(&(name.len() as u64).to_le_bytes());
            bytes(name.as_bytes());
        }
        for ends in [&dag.stage_ends, &dag.name_ends] {
            bytes(&(ends.len() as u64).to_le_bytes());
            for end in ends {
                bytes(&end.to_le_bytes());
            }
        }
        for task in &dag.tasks {
            bytes(&task.duration.to_bits().to_le_bytes());
        }
        for s in dag.stage_ids() {
            let parents = dag.adjacency.parents(s);
            bytes(&(parents.len() as u64).to_le_bytes());
            for p in parents {
                bytes(&p.0.to_le_bytes());
            }
        }
    }
    h
}

/// The digest of the first 300 jobs of the seed-42 Alibaba stream, the
/// trace-scale workload of the scale trials and the benchmark.  A change
/// to the generator, the DAG builder or the random-number shim that moves
/// any job moves it.
const ALIBABA_STREAM_DIGEST: u64 = 0x63a6_ecfe_d353_8642;

#[test]
fn alibaba_stream_matches_its_digest() {
    let stream = WorkloadBuilder::new(WorkloadKind::Alibaba, 42).jobs(300).stream();
    assert_eq!(
        stream_digest(stream),
        ALIBABA_STREAM_DIGEST,
        "the seed-42 Alibaba stream changed"
    );
}

#[test]
fn simulator_reruns_are_independent() {
    // Running the same Simulator object twice must give identical results —
    // the engine state is rebuilt per run, so earlier runs cannot leak into
    // later ones (this is what makes baseline-vs-treatment comparisons fair).
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 9).generate_days(10);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 9)
        .jobs(8)
        .build();
    let sim = Simulator::new(ClusterConfig::new(12), workload, trace);
    let first = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
    let _interleaved = sim.run(&mut WeightedFair::new()).unwrap();
    let second = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
    assert_eq!(first.makespan, second.makespan);
    assert_eq!(first.tasks_dispatched, second.tasks_dispatched);
    assert_eq!(first.jobs.len(), second.jobs.len());
    for (a, b) in first.jobs.iter().zip(&second.jobs) {
        assert_eq!(a.completion, b.completion);
    }
}
