//! DAG analysis and workload generation microbenchmarks.
//!
//! `dag_analysis` times the graph quantities behind the Decima-like scorer.
//! A DAG computes them once, on first use, and caches them, so these specs
//! are a per-job cost paid at a job's first scheduling event, not a
//! per-event one.  `workload_generation` times the generators alone and a
//! whole streamed pull (generate, scale, rename) as the simulator pays it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcaps_dag::analysis;
use pcaps_workloads::{AlibabaGenerator, TpchQuery, TpchScale, WorkloadBuilder, WorkloadKind};

fn dag_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_analysis");
    let tpch = TpchQuery(21).job(TpchScale::Gb50, 0);
    let alibaba = AlibabaGenerator::new(7).next_job();
    for (label, job) in [("tpch_q21", &tpch), ("alibaba", &alibaba)] {
        group.bench_with_input(BenchmarkId::new("critical_path", label), job, |b, job| {
            b.iter(|| criterion::black_box(analysis::critical_path(job)))
        });
        group.bench_with_input(BenchmarkId::new("stage_levels", label), job, |b, job| {
            b.iter(|| criterion::black_box(analysis::stage_levels(job)))
        });
        group.bench_with_input(
            BenchmarkId::new("bottleneck_scores", label),
            job,
            |b, job| b.iter(|| criterion::black_box(analysis::bottleneck_scores(job))),
        );
    }
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    group.bench_function("tpch_q9_50g", |b| {
        b.iter(|| criterion::black_box(TpchQuery(9).job(TpchScale::Gb50, 3)))
    });
    group.bench_function("alibaba_job", |b| {
        let mut gen = AlibabaGenerator::new(11);
        b.iter(|| criterion::black_box(gen.next_job()))
    });
    // What streamed intake pays per job: the generator plus the sampler's
    // duration scaling and `name#index` renaming.  The TPC-H mixed stream
    // is what the federated and serving perfbench workloads pull.
    for (label, kind) in [
        ("alibaba_stream_pull", WorkloadKind::Alibaba),
        ("tpch_mixed_stream_pull", WorkloadKind::TpchMixed),
    ] {
        group.bench_function(label, |b| {
            let mut stream = WorkloadBuilder::new(kind, 11).jobs(usize::MAX).stream();
            b.iter(|| criterion::black_box(stream.next()))
        });
    }
    group.finish();
}

criterion_group!(benches, dag_analysis, workload_generation);
criterion_main!(benches);
