//! Ablations of the PCAPS design choices the paper leaves open, reported as
//! Criterion benchmarks so that both the runtime cost and (via the printed
//! carbon/ECT summaries below each run) the quality impact of each choice
//! is visible.
//!
//! * parallelism scaling on/off (§5.1),
//! * carbon-awareness level γ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcaps_bench::bench_config;
use pcaps_carbon::CarbonAccountant;
use pcaps_cluster::Simulator;
use pcaps_core::{Pcaps, PcapsConfig};
use pcaps_metrics::ExperimentSummary;
use pcaps_schedulers::DecimaLike;

fn run_variant(sim: &Simulator, accountant: &CarbonAccountant, config: PcapsConfig) -> ExperimentSummary {
    let mut pcaps = Pcaps::new(DecimaLike::new(1), config);
    let result = sim.run(&mut pcaps).expect("ablation run completes");
    ExperimentSummary::of(&result, accountant)
}

fn ablation_parallelism_and_gamma(c: &mut Criterion) {
    let cfg = bench_config(10, 20);
    let sim = cfg.simulator_instance();
    let accountant = cfg.accountant();

    // Print the quality comparison once so `cargo bench` output records it.
    let with_scaling = run_variant(&sim, &accountant, PcapsConfig::moderate());
    let without_scaling = run_variant(
        &sim,
        &accountant,
        PcapsConfig::moderate().without_parallelism_scaling(),
    );
    println!(
        "[ablation] parallelism scaling ON : {:.1} g, ECT {:.0} s",
        with_scaling.carbon_grams, with_scaling.ect
    );
    println!(
        "[ablation] parallelism scaling OFF: {:.1} g, ECT {:.0} s",
        without_scaling.carbon_grams, without_scaling.ect
    );

    let mut group = c.benchmark_group("ablation_pcaps");
    group.sample_size(10);
    for (label, config) in [
        ("gamma_0.25", PcapsConfig::with_gamma(0.25)),
        ("gamma_0.5", PcapsConfig::moderate()),
        ("gamma_0.9", PcapsConfig::with_gamma(0.9)),
        ("no_parallelism_scaling", PcapsConfig::moderate().without_parallelism_scaling()),
    ] {
        group.bench_with_input(BenchmarkId::new("variant", label), &config, |b, &config| {
            b.iter(|| criterion::black_box(run_variant(&sim, &accountant, config).carbon_grams))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_parallelism_and_gamma);
criterion_main!(benches);
