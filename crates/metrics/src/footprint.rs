//! Carbon footprint computation from simulation results.
//!
//! Footprints are computed *ex post facto* (§5.2): the schedule's executor
//! usage profile is combined with the carbon trace after the run completes.

use pcaps_carbon::CarbonAccountant;
use pcaps_cluster::SimulationResult;

/// Total carbon footprint of a run, in grams of CO₂-equivalent.
pub fn total_footprint(result: &SimulationResult, accountant: &CarbonAccountant) -> f64 {
    accountant.footprint_grams(&result.profile.usage, result.makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::schedulers::SparkStandaloneFifo;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_dag::{JobDagBuilder, Task};

    fn run() -> SimulationResult {
        let job = |n: &str| {
            JobDagBuilder::new(n)
                .stage("s", vec![Task::new(10.0); 4])
                .build()
                .unwrap()
        };
        let sim = Simulator::new(
            ClusterConfig::new(4).with_move_delay(0.0).with_time_scale(1.0),
            vec![
                SubmittedJob::at(0.0, job("a")),
                SubmittedJob::at(0.0, job("b")),
            ],
            CarbonTrace::constant("flat", 360.0, 48),
        );
        sim.run(&mut SparkStandaloneFifo::new()).unwrap()
    }

    fn accountant() -> CarbonAccountant {
        CarbonAccountant::new(CarbonTrace::constant("flat", 360.0, 48))
            .with_executor_power(1.0)
            .with_time_scale(1.0)
    }

    #[test]
    fn total_footprint_matches_hand_computation() {
        let result = run();
        // 8 tasks × 10 s = 80 executor-seconds at 360 g/kWh and 1 kW
        // → 80/3600 h × 360 g = 8 g.
        let total = total_footprint(&result, &accountant());
        assert!((total - 8.0).abs() < 1e-6, "got {total}");
    }

    #[test]
    fn cleaner_periods_mean_lower_footprint() {
        let result = run();
        let dirty = CarbonAccountant::new(CarbonTrace::constant("dirty", 700.0, 48))
            .with_executor_power(1.0)
            .with_time_scale(1.0);
        let clean = CarbonAccountant::new(CarbonTrace::constant("clean", 100.0, 48))
            .with_executor_power(1.0)
            .with_time_scale(1.0);
        assert!(total_footprint(&result, &clean) < total_footprint(&result, &dirty));
    }
}
