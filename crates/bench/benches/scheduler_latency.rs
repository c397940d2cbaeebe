//! Fig. 20's configurations under Criterion: how a whole trial's cost grows
//! with queue length, per scheduler.
//!
//! For each queue length we build a workload of that many simultaneously
//! outstanding jobs, and each iteration times one whole `run_trial`:
//! building the workload and the carbon trace, the simulation with every
//! scheduler call, and the trial summary.  The per-call latency the paper
//! reports comes from the `fig20` entry of `repro`, which wraps each policy
//! in a forwarding probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcaps_bench::{bench_config, runner};
use runner::{run_trial, BaseScheduler, SchedulerSpec};

fn scheduler_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig20_scheduler_latency");
    group.sample_size(10);
    for &jobs in &[1usize, 5, 10, 25] {
        for (label, spec) in [
            ("fifo", SchedulerSpec::Baseline(BaseScheduler::Fifo)),
            ("cap-fifo", SchedulerSpec::cap_moderate(BaseScheduler::Fifo)),
            ("decima", SchedulerSpec::Baseline(BaseScheduler::Decima)),
            ("pcaps", SchedulerSpec::pcaps_moderate()),
        ] {
            let mut cfg = bench_config(jobs, 20);
            // Submit everything at once so the queue really holds `jobs` jobs.
            cfg.mean_interarrival = 0.001;
            group.bench_with_input(
                BenchmarkId::new(label, jobs),
                &cfg,
                |b, cfg| {
                    b.iter(|| {
                        let out = run_trial(cfg, spec);
                        criterion::black_box(out.result.makespan)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, scheduler_latency);
criterion_main!(benches);
