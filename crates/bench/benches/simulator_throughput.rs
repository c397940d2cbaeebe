//! End-to-end simulation throughput per scheduler: how long one experiment
//! trial of each table/figure configuration takes.  This is the quantity
//! that determines the wall-clock cost of reproducing Tables 2 and 3 and the
//! parameter sweeps (Figs. 7–19).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcaps_bench::{bench_config, fed_bench_config, runner};
use pcaps_experiments::alibaba_scale::{run_scale_trial, ScaleConfig};
use pcaps_experiments::multi_region::{
    run_federated_trial, run_federated_trial_with_migration, MigrationSpec, RouterSpec,
};
use pcaps_experiments::reliability::{run_reliability_trial, ReliabilityStrategy};
use pcaps_experiments::steady_state::{run_steady_trial, AdmissionSpec, SteadyStateConfig};
use runner::{run_trial, BaseScheduler, SchedulerSpec};

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_trial");
    group.sample_size(10);
    let cfg = bench_config(10, 20);
    for (label, spec) in [
        ("fifo", SchedulerSpec::Baseline(BaseScheduler::Fifo)),
        ("k8s_default", SchedulerSpec::Baseline(BaseScheduler::KubeDefault)),
        ("weighted_fair", SchedulerSpec::Baseline(BaseScheduler::WeightedFair)),
        ("decima", SchedulerSpec::Baseline(BaseScheduler::Decima)),
        ("greenhadoop", SchedulerSpec::GreenHadoop { theta: 0.5 }),
        ("cap_fifo", SchedulerSpec::cap_moderate(BaseScheduler::Fifo)),
        ("pcaps", SchedulerSpec::pcaps_moderate()),
    ] {
        group.bench_with_input(BenchmarkId::new("10_jobs_20_exec", label), &spec, |b, &spec| {
            b.iter(|| criterion::black_box(run_trial(&cfg, spec).result.makespan))
        });
    }
    // Federated trial: the same 10-job stream routed across three grids
    // (carbon+queue-aware) with a PCAPS instance per member — tracks the
    // event-loop overhead of the federation layer relative to the
    // single-cluster specs above (10 jobs, ~20 executors total).
    let fed_cfg = fed_bench_config(10, 7);
    group.bench_function(
        BenchmarkId::new("10_jobs_20_exec", "fed3_cqa_pcaps"),
        |b| {
            b.iter(|| {
                criterion::black_box(
                    run_federated_trial(
                        &fed_cfg,
                        RouterSpec::CarbonQueueAware,
                        SchedulerSpec::pcaps_moderate(),
                    )
                    .makespan,
                )
            })
        },
    );
    // The same federated trial with live migration enabled (carbon-delta
    // policy): tracks the cost of the migration layer — per-carbon-step
    // policy consultations plus any applied moves — on top of the routed
    // baseline above.
    group.bench_function(
        BenchmarkId::new("10_jobs_20_exec", "fed3_migrate_pcaps"),
        |b| {
            b.iter(|| {
                criterion::black_box(
                    run_federated_trial_with_migration(
                        &fed_cfg,
                        RouterSpec::CarbonQueueAware,
                        MigrationSpec::CarbonDelta,
                        SchedulerSpec::pcaps_moderate(),
                    )
                    .makespan,
                )
            })
        },
    );
    // The migrating federated trial again, now through the link-level
    // network model: every member's uplink is capacity-limited, so each
    // move becomes a max-min fair-shared flow with reallocation events
    // instead of a fixed delay.  The A/B against fed3_migrate_pcaps above
    // is the cost of the fluid flow machinery on an otherwise identical
    // trial.
    group.bench_function(
        BenchmarkId::new("10_jobs_20_exec", "fed3_netmig_pcaps"),
        |b| {
            let mut network = pcaps_cluster::NetworkTopology::from_matrix(&fed_cfg.transfer_matrix());
            for m in 0..3 {
                network = network.with_uplink(m, 0.5);
            }
            let net_cfg = fed_cfg.clone().with_network(network);
            b.iter(|| {
                criterion::black_box(
                    run_federated_trial_with_migration(
                        &net_cfg,
                        RouterSpec::CarbonQueueAware,
                        MigrationSpec::CarbonDelta,
                        SchedulerSpec::pcaps_moderate(),
                    )
                    .makespan,
                )
            })
        },
    );
    // The routed federated trial again, now under a 40 s-MTBF Poisson
    // crash process per member with retry recovery — tracks the cost of
    // the fault layer when it actually fires (crash bookkeeping, epoch
    // invalidation, retry releases).  The no-fault cost of the layer is
    // what fed3_cqa_pcaps above must NOT move: an empty schedule is one
    // Option comparison per event-loop iteration.
    group.bench_function(
        BenchmarkId::new("10_jobs_20_exec", "fed3_faults_pcaps"),
        |b| {
            let strategy = ReliabilityStrategy {
                router: RouterSpec::CarbonQueueAware,
                migration: MigrationSpec::Never,
                spec: SchedulerSpec::pcaps_moderate(),
            };
            b.iter(|| {
                criterion::black_box(
                    run_reliability_trial(&fed_cfg, Some(40.0), strategy)
                        .expect("the generous trial retry policy never aborts")
                        .makespan,
                )
            })
        },
    );
    // Trace-scale streaming intake: 10k Alibaba-style jobs pulled lazily
    // through the engine's arrival window (FIFO, 100 executors, light
    // profiling) — tracks the wall-clock cost of the regime the streaming
    // pipeline opened.  Roughly 1000× the event count of the 10-job specs,
    // so this spec dominates the bench's wall time by design.
    group.bench_function(
        BenchmarkId::new("10k_jobs_100_exec", "alibaba_10k_stream"),
        |b| {
            let cfg = ScaleConfig::standard();
            b.iter(|| {
                criterion::black_box(
                    run_scale_trial(&cfg, 10_000, SchedulerSpec::Baseline(BaseScheduler::Fifo))
                        .makespan,
                )
            })
        },
    );
    // The 10k streaming spec again under the paper's headline policy:
    // PCAPS(γ=0.5) over Decima-like scoring pays a per-event distribution +
    // softmax + sampling pass on top of FIFO's queue walk, which is exactly
    // the scheduler-side cost the incremental score table (PR 10) bounds to
    // O(changed).  The A/B against alibaba_10k_stream above tracks the
    // policy's trace-scale overhead factor going forward.
    group.bench_function(
        BenchmarkId::new("10k_jobs_100_exec", "alibaba_10k_stream_pcaps"),
        |b| {
            let cfg = ScaleConfig::standard();
            b.iter(|| {
                criterion::black_box(
                    run_scale_trial(&cfg, 10_000, SchedulerSpec::pcaps_moderate()).makespan,
                )
            })
        },
    );
    // Open-loop serving: one trace-hour-per-minute diurnal day and a half
    // (3600 schedule seconds) of unbounded TPC-H arrivals served by PCAPS
    // under bounded-queue admission, sampled every window — tracks the
    // steady-state mode's full stack (horizon gate, serve-mode compaction,
    // admission checks, per-window drains) against the finite-trial specs.
    group.bench_function(
        BenchmarkId::new("steady_1h", "steady_1h_pcaps"),
        |b| {
            let mut cfg = SteadyStateConfig::standard(pcaps_carbon::GridRegion::Germany, 42);
            cfg.horizon = 3600.0;
            b.iter(|| {
                criterion::black_box(
                    run_steady_trial(
                        &cfg,
                        1.0,
                        SchedulerSpec::pcaps_moderate(),
                        AdmissionSpec::Bounded(4 * cfg.executors),
                    )
                    .completed,
                )
            })
        },
    );
    group.finish();
}

criterion_group!(benches, simulator_throughput);
criterion_main!(benches);
