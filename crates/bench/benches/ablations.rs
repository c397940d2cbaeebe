//! Ablations of the PCAPS design choices the paper leaves open (how
//! strongly to scale parallelism, which bounds `L`/`U` to threshold
//! against), reported as Criterion benchmarks so that both the runtime cost
//! and (via the printed carbon/ECT summaries below each run) the quality
//! impact of each choice is visible.
//!
//! * parallelism scaling on/off (§5.1),
//! * 48-hour lookahead bounds vs static whole-trace bounds,
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

fn ablation_forecast(c: &mut Criterion) {
    use pcaps_carbon::forecast::{BoundsForecaster, ForecastMode};
    let cfg = bench_config(8, 16);
    let trace = cfg.trace();
    let mut group = c.benchmark_group("ablation_forecast");
    for (label, mode) in [
        ("lookahead_48h", ForecastMode::Lookahead { horizon_seconds: 48.0 * 3600.0 }),
        ("lookahead_12h", ForecastMode::Lookahead { horizon_seconds: 12.0 * 3600.0 }),
        ("static_bounds", ForecastMode::Static),
    ] {
        let forecaster = BoundsForecaster::with_mode(trace.clone(), mode);
        group.bench_with_input(BenchmarkId::new("bounds_query", label), &forecaster, |b, f| {
            b.iter(|| {
                let mut acc = 0.0;
                for h in 0..168 {
                    let (l, u) = f.bounds_at(h as f64 * 3600.0);
                    acc += u - l;
                }
                criterion::black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_parallelism_and_gamma, ablation_forecast);
criterion_main!(benches);
