//! Admission control at the arrival window.
//!
//! In the open-arrival serving regime the arrival rate can exceed the
//! service rate for hours at a time (a diurnal peak, a carbon-driven
//! deferral phase), and an engine that admits everything grows its queues
//! without bound.  An [`AdmissionPolicy`] is consulted once per arrival,
//! *after* routing: it sees the job, the member the router chose, and the
//! same per-member [`RoutingContext`] the router saw, and decides to accept
//! the job or reject it outright.
//!
//! Rejections are first-class accounting, not errors: the engine counts
//! them per member ([`SimulationResult::jobs_rejected`]) and the serving
//! loop reports them in every windowed sample, so `accepted + rejected ==
//! arrivals seen` always holds.  Finite runs and open-loop runs without a
//! policy behave exactly as before — admission is an `Option` at the
//! arrival window, free when absent.
//!
//! [`RoutingContext`]: crate::routing::RoutingContext
//! [`SimulationResult::jobs_rejected`]: crate::result::SimulationResult::jobs_rejected

use crate::job_state::SubmittedJob;
use crate::routing::RoutingContext;

/// What to do with one arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit the job on the member the router chose.
    Accept,
    /// Turn the job away: it is never activated anywhere, and is counted on
    /// the routed member's rejection counter.
    Reject,
}

/// A policy consulted once per arrival, after routing (see the module
/// docs).  Implementations may keep state — the engine consults them
/// mutably in deterministic arrival order.
pub trait AdmissionPolicy {
    /// Human-readable policy name used in result tables and logs.
    fn name(&self) -> &str;

    /// Decides what happens to `job`, which the router sent to member
    /// `target`.  `ctx` holds the same per-member views the router saw.
    fn admit(
        &mut self,
        job: &SubmittedJob,
        target: usize,
        ctx: &RoutingContext<'_>,
    ) -> AdmissionDecision;
}

/// Bounded-queue backpressure: reject any arrival whose target member
/// already holds `max_in_system` or more admitted-but-incomplete jobs.
///
/// This is the classic M/M/k/K-style admission rule — under sustained
/// overload the queue length (and therefore queueing delay and resident
/// memory) stays bounded, at the price of turned-away work that the
/// windowed metrics make visible.
#[derive(Debug, Clone, Copy)]
pub struct BoundedQueue {
    /// Maximum jobs in system (queued + running) per member before
    /// arrivals are rejected.
    pub max_in_system: usize,
}

impl BoundedQueue {
    /// A bound of `max_in_system` jobs per member.
    ///
    /// # Panics
    /// Panics if `max_in_system` is zero (a queue that admits nothing).
    pub fn new(max_in_system: usize) -> Self {
        assert!(max_in_system > 0, "a bounded queue must admit at least one job");
        BoundedQueue { max_in_system }
    }
}

impl AdmissionPolicy for BoundedQueue {
    fn name(&self) -> &str {
        "bounded-queue"
    }

    fn admit(
        &mut self,
        _job: &SubmittedJob,
        target: usize,
        ctx: &RoutingContext<'_>,
    ) -> AdmissionDecision {
        if ctx.members()[target].queue_depth >= self.max_in_system {
            AdmissionDecision::Reject
        } else {
            AdmissionDecision::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::MemberView;
    use crate::scheduler_api::CarbonView;
    use pcaps_dag::{JobDagBuilder, Task};

    fn view(member: usize, queue_depth: usize) -> MemberView {
        MemberView {
            member,
            carbon: CarbonView::flat(100.0),
            queue_depth,
            outstanding_work: 0.0,
            total_executors: 4,
            free_executors: 4,
            available: true,
        }
    }

    fn job() -> SubmittedJob {
        let dag = JobDagBuilder::new("j")
            .stage("a", vec![Task::new(1.0)])
            .build()
            .unwrap();
        SubmittedJob::at(0.0, dag)
    }

    #[test]
    fn bounded_queue_rejects_at_capacity() {
        let mut policy = BoundedQueue::new(2);
        assert_eq!(policy.name(), "bounded-queue");
        let job = job();
        let views = [view(0, 1), view(1, 2)];
        let ctx = RoutingContext::new(0.0, &views);
        assert_eq!(policy.admit(&job, 0, &ctx), AdmissionDecision::Accept);
        assert_eq!(policy.admit(&job, 1, &ctx), AdmissionDecision::Reject);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_bound_rejected() {
        let _ = BoundedQueue::new(0);
    }
}
