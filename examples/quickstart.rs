//! Quickstart: schedule a small data processing workload with and without
//! carbon awareness and compare carbon footprint, ECT and JCT.
//!
//! Run with: `cargo run --release --example quickstart`

use carbon_aware_dag_sched::prelude::*;

fn main() {
    // 1. Build a workload: 10 TPC-H-style jobs arriving over ~5 minutes.
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 7)
        .jobs(10)
        .mean_interarrival(30.0)
        .build();
    println!(
        "workload: {} jobs, {:.0} executor-seconds of total work",
        workload.len(),
        workload.iter().map(|j| j.dag.total_work()).sum::<f64>()
    );

    // 2. Pick a power grid and generate its (Table 1 calibrated) carbon trace.
    let trace = SyntheticTraceGenerator::new(GridRegion::Germany, 7).generate_days(14);

    // 3. Configure a 20-executor cluster.  The default time scale maps one
    //    schedule minute to one carbon hour, as in the paper's experiments.
    let cluster = ClusterConfig::new(20);
    let sim = Simulator::new(cluster, workload, trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    // 4. Run the carbon-agnostic baseline (the Decima-like ML scheduler)...
    let baseline_result = sim.run(&mut DecimaLike::new(0)).expect("baseline run");
    let baseline = ExperimentSummary::of(&baseline_result, &accountant);

    // 5. ...and PCAPS at a moderate carbon-awareness setting on the same jobs.
    let mut pcaps = Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate());
    let pcaps_result = sim.run(&mut pcaps).expect("pcaps run");
    let aware = ExperimentSummary::of(&pcaps_result, &accountant);

    // 6. Compare.
    let relative = aware.normalized_to(&baseline);
    println!("\n                     {:>12}  {:>12}", "Decima", "PCAPS(0.5)");
    println!(
        "carbon (g CO2eq)     {:>12.0}  {:>12.0}",
        baseline.carbon_grams, aware.carbon_grams
    );
    println!("ECT (s)              {:>12.0}  {:>12.0}", baseline.ect, aware.ect);
    println!("avg JCT (s)          {:>12.0}  {:>12.0}", baseline.avg_jct, aware.avg_jct);
    println!(
        "\nPCAPS carbon reduction: {:.1}%   ECT ratio: {:.3}   JCT ratio: {:.3}",
        relative.carbon_reduction_pct, relative.ect_ratio, relative.jct_ratio
    );
    println!(
        "decisions: {} scheduled, {} deferred ({}% deferral rate)",
        pcaps.stats().scheduled,
        pcaps.stats().deferred,
        (pcaps.stats().deferral_rate() * 100.0).round()
    );
}
