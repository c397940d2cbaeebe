//! Cross-crate integration tests: workload generation → simulation →
//! metrics → analytical results, exercised together the way the experiment
//! harness uses them.

use carbon_aware_dag_sched::prelude::*;
use pcaps_core::analysis;
use pcaps_experiments::fig20::LatencyProbe;
use pcaps_metrics::footprint::{job_footprints, total_footprint};

fn tpch_workload(seed: u64, jobs: usize) -> Vec<SubmittedJob> {
    WorkloadBuilder::new(WorkloadKind::TpchMixed, seed)
        .jobs(jobs)
        .build()
}

fn de_trace(seed: u64) -> CarbonTrace {
    SyntheticTraceGenerator::new(GridRegion::Germany, seed).generate_days(21)
}

#[test]
fn every_scheduler_completes_the_same_workload() {
    let trace = de_trace(1);
    let sim = Simulator::new(ClusterConfig::new(24), tpch_workload(1, 12), trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    let mut schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("fifo", Box::new(SparkStandaloneFifo::new())),
        ("default", Box::new(KubeDefaultFifo::new())),
        ("wfair", Box::new(WeightedFair::new())),
        ("decima", Box::new(DecimaLike::new(0))),
        (
            "greenhadoop",
            Box::new(GreenHadoop::new(sim.carbon().clone(), 60.0)),
        ),
        (
            "cap-fifo",
            Box::new(Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(6))),
        ),
        (
            "pcaps",
            Box::new(Pcaps::new(DecimaLike::new(0), PcapsConfig::moderate())),
        ),
    ];

    let total_work: f64 = sim.known_jobs().iter().map(|j| j.dag.total_work()).sum();
    for (name, scheduler) in schedulers.iter_mut() {
        let result = sim.run(scheduler.as_mut()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(result.all_jobs_complete(), "{name} left jobs incomplete");
        // Conservation: the executor-seconds actually run equal the
        // workload's total work (move delays excluded by definition).
        assert!(
            (result.total_executor_seconds() - total_work).abs() < 1e-6,
            "{name}: executed {:.1}s of work, expected {:.1}s",
            result.total_executor_seconds(),
            total_work
        );
        // The footprint is positive and the per-job attribution adds up.
        let total = total_footprint(&result, &accountant);
        let per_job: f64 = job_footprints(&result, &accountant).values().sum();
        assert!(total > 0.0, "{name}: footprint must be positive");
        assert!(
            (total - per_job).abs() / total < 1e-6,
            "{name}: per-job footprints must sum to the total"
        );
        // ECT is at least the makespan lower bound of the largest job.
        assert!(result.ect() > 0.0);
    }
}

#[test]
fn pcaps_saves_carbon_on_a_variable_grid_and_theorems_hold() {
    let trace = de_trace(3);
    let sim = Simulator::new(ClusterConfig::new(24), tpch_workload(3, 15), trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    let baseline = sim.run(&mut DecimaLike::new(4)).unwrap();
    let mut pcaps = Pcaps::new(DecimaLike::new(4), PcapsConfig::with_gamma(0.7));
    let aware = sim.run(&mut pcaps).unwrap();

    let comparison = analysis::compare_schedules(&baseline, &aware, &accountant);
    // The carbon-aware schedule saves carbon on this variable grid...
    assert!(
        comparison.measured_savings_grams() > 0.0,
        "expected positive savings, got {:.1} g",
        comparison.measured_savings_grams()
    );
    // ...by deferring work to cleaner periods: the work it avoided before the
    // baseline finished ran at higher intensity than the work it appended
    // afterwards.
    assert!(comparison.excess_work > 0.0);
    assert!(comparison.s_minus > comparison.c_after);
    // Theorem 4.4's expression has the same sign as the measurement.
    assert!(comparison.theorem_savings_grams() > 0.0);

    // Theorem 4.3: the observed ECT stretch stays below the worst-case
    // carbon stretch factor computed from the observed deferral fraction.
    let csf = analysis::pcaps_carbon_stretch_factor(comparison.deferral_fraction, 24);
    assert!(
        comparison.ect_stretch() <= csf + 1e-9,
        "observed stretch {:.3} exceeded the theorem bound {:.3}",
        comparison.ect_stretch(),
        csf
    );
}

#[test]
fn cap_quota_bound_matches_theorem_4_5() {
    let trace = de_trace(5);
    let sim = Simulator::new(ClusterConfig::new(20), tpch_workload(5, 12), trace.clone());
    let baseline = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
    let mut cap = Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(5));
    let capped = sim.run(&mut cap).unwrap();

    let min_quota = cap.stats().min_quota_applied.min(20);
    assert!(min_quota >= 5, "the quota never drops below B");
    let csf = analysis::cap_carbon_stretch_factor(min_quota, 20);
    let observed = capped.ect() / baseline.ect();
    assert!(
        observed <= csf + 1e-9,
        "observed ECT stretch {observed:.3} exceeded the CAP bound {csf:.3} (M = {min_quota})"
    );
}

#[test]
fn flat_grid_means_no_behaviour_change() {
    // Condition i) of §3: with no carbon fluctuation the carbon-aware
    // schedulers must match their carbon-agnostic counterparts.
    let trace = CarbonTrace::constant("flat", 420.0, 26_304);
    let sim = Simulator::new(ClusterConfig::new(16), tpch_workload(7, 8), trace);

    let fifo = sim.run(&mut SparkStandaloneFifo::new()).unwrap();
    let mut cap = Cap::new(SparkStandaloneFifo::new(), CapConfig::with_minimum_quota(2));
    let capped = sim.run(&mut cap).unwrap();
    assert!((fifo.makespan - capped.makespan).abs() < 1e-9);

    let mut pcaps = Pcaps::new(DecimaLike::new(9), PcapsConfig::with_gamma(0.9));
    let aware = sim.run(&mut pcaps).unwrap();
    assert_eq!(pcaps.stats().deferred, 0, "no fluctuation, no deferrals");
    assert!(aware.all_jobs_complete());
}

#[test]
fn alibaba_workload_runs_through_the_whole_stack() {
    let trace = SyntheticTraceGenerator::new(GridRegion::Caiso, 2).generate_days(21);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::Alibaba, 2)
        .jobs(8)
        .mean_interarrival(60.0)
        .build();
    let sim = Simulator::new(
        ClusterConfig::new(32).with_per_job_cap(Some(8)),
        workload,
        trace.clone(),
    );
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    let mut pcaps = LatencyProbe::new(Box::new(Pcaps::new(
        DecimaLike::new(1),
        PcapsConfig::moderate(),
    )));
    let result = sim.run(&mut pcaps).unwrap();
    assert!(result.all_jobs_complete());
    let summary = ExperimentSummary::of(&result, &accountant);
    assert!(summary.carbon_grams > 0.0);
    assert!(summary.avg_jct > 0.0);
    assert!(!pcaps.samples.is_empty(), "the probe times every scheduler call");
    assert!(pcaps.mean_latency() < 0.05, "sub-50ms scheduling decisions");
}
