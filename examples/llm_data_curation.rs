//! Scenario from the paper's introduction: large data-curation pipelines for
//! foundation-model training.  Each job is an Alibaba-style production DAG
//! (power-law durations, ~66 stages) standing in for a multi-hour data
//! cleaning / deduplication / tokenisation pipeline.  We submit an overnight
//! batch and ask how much carbon PCAPS and CAP save relative to the cluster's
//! default scheduler, and what it costs in completion time.
//!
//! Run with: `cargo run --release --example llm_data_curation`

use carbon_aware_dag_sched::prelude::*;

fn main() {
    let region = GridRegion::Caiso; // solar-heavy grid: big day/night swings
    let trace = SyntheticTraceGenerator::new(region, 11).generate_days(21);

    // An overnight batch of 20 data-curation DAGs, one submitted every
    // 2 minutes of experiment time.
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::Alibaba, 11)
        .jobs(20)
        .mean_interarrival(120.0)
        .build();
    let total_work: f64 = workload.iter().map(|j| j.dag.total_work()).sum();
    let stages: usize = workload.iter().map(|j| j.dag.num_stages()).sum();
    println!(
        "curation batch: {} DAGs, {} stages, {:.1} executor-hours of work on grid {}",
        workload.len(),
        stages,
        total_work / 3600.0,
        region
    );

    let cluster = ClusterConfig::new(40).with_per_job_cap(Some(10));
    let sim = Simulator::new(cluster, workload, trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    let mut results: Vec<(String, ExperimentSummary)> = Vec::new();
    let baseline = sim.run(&mut KubeDefaultFifo::new()).expect("baseline");
    results.push((
        "Spark/K8s default".into(),
        ExperimentSummary::of(&baseline, &accountant),
    ));

    let decima = sim.run(&mut DecimaLike::new(3)).expect("decima");
    results.push(("Decima-like".into(), ExperimentSummary::of(&decima, &accountant)));

    let mut cap = Cap::new(KubeDefaultFifo::new(), CapConfig::with_minimum_quota(8));
    let cap_run = sim.run(&mut cap).expect("cap");
    results.push(("CAP (B=8)".into(), ExperimentSummary::of(&cap_run, &accountant)));

    for gamma in [0.25, 0.5, 0.75] {
        let mut pcaps = Pcaps::new(DecimaLike::new(3), PcapsConfig::with_gamma(gamma));
        let run = sim.run(&mut pcaps).expect("pcaps");
        results.push((
            format!("PCAPS (γ={gamma})"),
            ExperimentSummary::of(&run, &accountant),
        ));
    }

    let base = results[0].1.clone();
    println!(
        "\n{:<20} {:>12} {:>10} {:>10} {:>10}",
        "scheduler", "carbon (kg)", "ECT (min)", "carbon Δ", "ECT ratio"
    );
    for (name, summary) in &results {
        let rel = summary.normalized_to(&base);
        println!(
            "{:<20} {:>12.2} {:>10.1} {:>9.1}% {:>10.3}",
            name,
            summary.carbon_grams / 1000.0,
            summary.ect / 60.0,
            rel.carbon_reduction_pct,
            rel.ect_ratio
        );
    }
    println!(
        "\nInterpretation: on a solar-heavy grid the curation batch can ride the midday\n\
         trough; PCAPS defers the unimportant stages into it while bottleneck stages keep\n\
         the pipelines moving, so the batch finishes close to the default's time."
    );
}
