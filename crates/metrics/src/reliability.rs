//! Degraded-mode accounting: wasted work, wasted carbon, and goodput.
//!
//! Under fault injection a run spends executor-seconds on task attempts that
//! an executor crash later throws away.  That work still drew power, so it
//! still emitted carbon — *wasted carbon*, emitted without advancing any
//! job.  This module rolls one member's fault ledger up into a
//! [`ReliabilitySummary`]: useful vs wasted executor-seconds, the carbon
//! attributable to each, retry/crash counts, and goodput (the fraction of
//! all spent executor-seconds that produced retained results).
//!
//! Like the footprint module, everything here is computed *ex post facto*
//! from the result — the engine records what happened, this module prices
//! it.  Wasted carbon is priced per crash over the victim's actual
//! dispatch-to-crash interval against the member's own trace, so a crash
//! during a dirty-grid hour wastes more carbon than the same crash during a
//! green one.

use pcaps_carbon::CarbonAccountant;
use pcaps_cluster::faults::FaultEffect;
use pcaps_cluster::SimulationResult;

/// Reliability roll-up of one member's run under fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilitySummary {
    /// Executor-seconds of retained (completed-job) work.
    pub useful_seconds: f64,
    /// Executor-seconds thrown away by executor crashes.
    pub wasted_seconds: f64,
    /// Carbon emitted by the thrown-away attempts (grams CO₂eq), priced
    /// over each victim's dispatch-to-crash interval.
    pub wasted_carbon_grams: f64,
    /// Tasks killed by crashes (retries that crash again count again).
    pub tasks_failed: usize,
    /// Crashed tasks re-released for dispatch after backoff.
    pub retries: usize,
    /// `useful / (useful + wasted)` executor-seconds; 1.0 when nothing was
    /// spent (or nothing wasted).
    pub goodput: f64,
}

impl ReliabilitySummary {
    /// Prices `result`'s fault ledger against `accountant` (which must wrap
    /// the member's own trace, with the member's time scale, for the wasted
    /// carbon to be honest).
    pub fn of(result: &SimulationResult, accountant: &CarbonAccountant) -> Self {
        let mut wasted_carbon_grams = 0.0;
        for record in &result.faults {
            if let FaultEffect::ExecutorCrashed { victim: Some(v), .. } = &record.effect {
                // The victim occupied one executor from dispatch to crash.
                wasted_carbon_grams += accountant.footprint_interval_grams(
                    1.0,
                    record.time - v.wasted_seconds,
                    record.time,
                );
            }
        }
        let useful_seconds = result.total_executor_seconds();
        ReliabilitySummary {
            useful_seconds,
            wasted_seconds: result.wasted_seconds,
            wasted_carbon_grams,
            tasks_failed: result.tasks_failed,
            retries: result.retries,
            goodput: result.goodput(),
        }
    }

    /// Merges another member's summary into this one (goodput is recomputed
    /// from the merged totals, not averaged).
    pub fn merge(&mut self, other: &ReliabilitySummary) {
        self.useful_seconds += other.useful_seconds;
        self.wasted_seconds += other.wasted_seconds;
        self.wasted_carbon_grams += other.wasted_carbon_grams;
        self.tasks_failed += other.tasks_failed;
        self.retries += other.retries;
        let spent = self.useful_seconds + self.wasted_seconds;
        self.goodput = if spent <= 0.0 { 1.0 } else { self.useful_seconds / spent };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::faults::{CrashVictim, FaultRecord};
    use pcaps_cluster::{SimulationResult, UsageProfile};
    use pcaps_dag::{JobId, StageId};

    fn result_with_one_crash() -> SimulationResult {
        SimulationResult {
            scheduler: "test".into(),
            jobs: vec![pcaps_cluster::JobRecord {
                id: JobId(0),
                name: "j".into(),
                arrival: 0.0,
                completion: 130.0,
                first_start: 0.0,
                executor_seconds: 100.0,
                total_work: 100.0,
                num_stages: 1,
            }],
            profile: UsageProfile::new(),
            makespan: 130.0,
            tasks_dispatched: 2,
            jobs_submitted: 1,
            jobs_rejected: 0,
            wasted_seconds: 25.0,
            tasks_failed: 1,
            retries: 1,
            faults: vec![FaultRecord {
                time: 25.0,
                member: 0,
                effect: FaultEffect::ExecutorCrashed {
                    executor: 0,
                    victim: Some(CrashVictim {
                        job: JobId(0),
                        stage: StageId(0),
                        task: 0,
                        wasted_seconds: 25.0,
                        attempt: 1,
                    }),
                },
            }],
        }
    }

    #[test]
    fn wasted_carbon_prices_the_crash_interval() {
        let result = result_with_one_crash();
        let accountant = CarbonAccountant::new(CarbonTrace::constant("flat", 360.0, 48))
            .with_executor_power(1.0)
            .with_time_scale(1.0);
        let summary = ReliabilitySummary::of(&result, &accountant);
        // 25 executor-seconds at 1 kW and 360 g/kWh → 2.5 g.
        assert!((summary.wasted_carbon_grams - 2.5).abs() < 1e-9);
        assert_eq!(summary.tasks_failed, 1);
        assert_eq!(summary.retries, 1);
        // 100 useful vs 25 wasted executor-seconds.
        assert!((summary.goodput - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_recomputes_goodput_from_totals() {
        let result = result_with_one_crash();
        let accountant = CarbonAccountant::new(CarbonTrace::constant("flat", 360.0, 48))
            .with_executor_power(1.0)
            .with_time_scale(1.0);
        let mut a = ReliabilitySummary::of(&result, &accountant);
        let b = ReliabilitySummary {
            useful_seconds: 300.0,
            wasted_seconds: 0.0,
            wasted_carbon_grams: 0.0,
            tasks_failed: 0,
            retries: 0,
            goodput: 1.0,
        };
        a.merge(&b);
        assert_eq!(a.useful_seconds, 400.0);
        assert_eq!(a.wasted_seconds, 25.0);
        // 400/(400+25), not the mean of 0.8 and 1.0.
        assert!((a.goodput - 400.0 / 425.0).abs() < 1e-12);
    }
}
