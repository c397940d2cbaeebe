//! The reference scheduler bundled with the simulator.
//!
//! The other paper baselines (Spark/Kubernetes default, Weighted Fair, the
//! Decima-like probabilistic scheduler, GreenHadoop) live in the
//! `pcaps-schedulers` crate, which re-exports this one; it lives here so
//! the engine's own tests and doctests have a policy and the simulator
//! crate stays self-contained.

use crate::scheduler_api::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};

/// Spark standalone FIFO (the `FIFO` baseline of the simulator experiments).
///
/// The earliest-arrived job with dispatchable work receives up to one
/// executor per pending task of each of its runnable stages before any later
/// job is considered.  As Appendix A.1.2 notes, this over-assigns executors
/// to the head-of-queue job, blocking later jobs from entering service —
/// which is exactly the behaviour the paper observes (higher JCT and carbon
/// than the capped Kubernetes default).
#[derive(Debug, Default, Clone)]
pub struct SparkStandaloneFifo;

impl SparkStandaloneFifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        SparkStandaloneFifo
    }
}

impl Scheduler for SparkStandaloneFifo {
    fn name(&self) -> &str {
        "fifo"
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
        let result = run(&mut SparkStandaloneFifo::new(), 4);
        // FIFO gives all executors to job a until it is fully dispatched
        // (two waves of 4 tasks), then serves b: a completes at 20, b at 30.
        assert!((result.jobs[0].completion - 20.0).abs() < 1e-9);
        assert!((result.jobs[1].completion - 30.0).abs() < 1e-9);
    }

    #[test]
    fn names() {
        assert_eq!(SparkStandaloneFifo::new().name(), "fifo");
    }
}
