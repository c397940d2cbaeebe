//! FIFO baselines: Spark standalone and the Spark/Kubernetes prototype
//! default.

use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext};

/// Spark standalone FIFO, defined beside the engine so the simulator crate's
/// own tests have a scheduler.
pub use pcaps_cluster::schedulers::SparkStandaloneFifo;

/// Executors one application may hold under [`KubeDefaultFifo`]: the
/// paper's prototype caps each application at 25 to avoid a
/// dynamic-allocation hang.
const PER_JOB_CAP: usize = 25;

/// The Spark-on-Kubernetes default behaviour of the paper's prototype
/// (the `default` baseline of Table 2): FIFO stage ordering, but each
/// application is capped at 25 executors.  The cap makes executor usage
/// more efficient than standalone FIFO because later jobs are not starved
/// (Appendix A.1.2 / Fig. 15).
#[derive(Debug, Default, Clone)]
pub struct KubeDefaultFifo;

impl KubeDefaultFifo {
    /// Creates the scheduler.
    pub fn new() -> Self {
        KubeDefaultFifo
    }
}

impl Scheduler for KubeDefaultFifo {
    fn name(&self) -> &str {
        "k8s-default"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let mut free = ctx.free_executors;
        for job in ctx.jobs() {
            if free == 0 {
                break;
            }
            let mut room = PER_JOB_CAP.saturating_sub(job.busy_executors);
            if room == 0 {
                continue;
            }
            for &stage in job.dispatchable_stages() {
                if free == 0 || room == 0 {
                    break;
                }
                let want = job.progress.pending_tasks(stage).min(free).min(room);
                if want > 0 {
                    out.dispatch(job.id, stage, want);
                    free -= want;
                    room -= want;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_carbon::CarbonTrace;
    use pcaps_cluster::{ClusterConfig, Simulator, SubmittedJob};
    use pcaps_dag::{JobDagBuilder, Task};

    fn wide_job(name: &str, tasks: usize, dur: f64) -> pcaps_dag::JobDag {
        JobDagBuilder::new(name)
            .stage("only", vec![Task::new(dur); tasks])
            .build()
            .unwrap()
    }

    fn two_job_sim(executors: usize) -> Simulator {
        let config = ClusterConfig::new(executors)
            .with_move_delay(0.0)
            .with_time_scale(1.0);
        Simulator::new(
            config,
            vec![
                SubmittedJob::at(0.0, wide_job("big", 64, 10.0)),
                SubmittedJob::at(1.0, wide_job("small", 4, 10.0)),
            ],
            CarbonTrace::constant("flat", 100.0, 1000),
        )
    }

    #[test]
    fn standalone_fifo_starves_later_jobs() {
        let result = two_job_sim(32).run(&mut SparkStandaloneFifo::new()).unwrap();
        // The big job grabs all 32 executors for two waves (20 s); the small
        // job cannot start until executors free up at t = 10.
        let small = &result.jobs[1];
        assert!(small.completion >= 20.0 - 1e-9);
    }

    #[test]
    fn kube_default_caps_the_big_job() {
        let result = two_job_sim(32).run(&mut KubeDefaultFifo::new()).unwrap();
        // The big job may hold at most 25 executors, so the small job starts
        // almost immediately and finishes around t = 11.
        let small = &result.jobs[1];
        assert!(small.completion <= 12.0 + 1e-9, "small completed at {}", small.completion);
        assert!(result.all_jobs_complete());
    }

    #[test]
    fn kube_default_improves_small_job_jct_vs_standalone() {
        let standalone = two_job_sim(32).run(&mut SparkStandaloneFifo::new()).unwrap();
        let capped = two_job_sim(32).run(&mut KubeDefaultFifo::new()).unwrap();
        assert!(capped.jobs[1].jct() < standalone.jobs[1].jct());
    }

    #[test]
    fn names() {
        assert_eq!(SparkStandaloneFifo::new().name(), "fifo");
        assert_eq!(KubeDefaultFifo::new().name(), "k8s-default");
    }
}
