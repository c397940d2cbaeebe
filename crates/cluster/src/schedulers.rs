//! Minimal reference schedulers bundled with the simulator.
//!
//! The full set of paper baselines (Spark/Kubernetes default, Weighted Fair,
//! the Decima-like probabilistic scheduler, GreenHadoop) lives in the
//! `pcaps-schedulers` crate; this module only provides the trivial policy
//! the engine's own tests and doctests need, so the simulator crate stays
//! self-contained.

use crate::scheduler_api::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};

/// First-in-first-out stage scheduler with unbounded per-stage parallelism:
/// the earliest-arrived job with dispatchable work gets as many executors as
/// it has pending tasks.  This mirrors Spark standalone FIFO behaviour
/// (Appendix A.1.2 of the paper).
#[derive(Debug, Default, Clone)]
pub struct SimpleFifo;

impl SimpleFifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        SimpleFifo
    }
}

impl Scheduler for SimpleFifo {
    fn name(&self) -> &str {
        "simple-fifo"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let mut free = ctx.free_executors;
        // ctx.jobs() is ordered by arrival, so iterating in order is FIFO.
        for job in ctx.jobs() {
            if free == 0 {
                break;
            }
            for &stage in job.dispatchable_stages() {
                if free == 0 {
                    break;
                }
                let want = job.progress.pending_tasks(stage).min(free);
                if want > 0 {
                    out.dispatch(job.id, stage, want);
                    free -= want;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::engine::Simulator;
    use crate::job_state::SubmittedJob;
    use pcaps_carbon::CarbonTrace;
    use pcaps_dag::{JobDagBuilder, Task};

    fn job(name: &str, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        JobDagBuilder::new(name)
            .stage("only", vec![Task::new(dur); tasks])
            .build()
            .unwrap()
    }

    fn run(scheduler: &mut dyn Scheduler, executors: usize) -> crate::SimulationResult {
        let config = ClusterConfig::new(executors)
            .with_move_delay(0.0)
            .with_time_scale(1.0);
        // Job a is twice as large as job b; both arrive together.
        let workload = vec![
            SubmittedJob::at(0.0, job("a", 8, 10.0)),
            SubmittedJob::at(0.0, job("b", 4, 10.0)),
        ];
        let sim = Simulator::new(config, workload, CarbonTrace::constant("flat", 100.0, 100));
        sim.run(scheduler).unwrap()
    }

    #[test]
    fn fifo_prioritises_first_job() {
        let result = run(&mut SimpleFifo::new(), 4);
        // FIFO gives all executors to job a until it is fully dispatched
        // (two waves of 4 tasks), then serves b: a completes at 20, b at 30.
        assert!((result.jobs[0].completion - 20.0).abs() < 1e-9);
        assert!((result.jobs[1].completion - 30.0).abs() < 1e-9);
    }

    #[test]
    fn names() {
        assert_eq!(SimpleFifo::new().name(), "simple-fifo");
    }
}
