//! The discrete-event queue.
//!
//! Events are ordered by time; ties are broken by a monotonically increasing
//! sequence number so the simulation is fully deterministic regardless of
//! floating-point equality of timestamps.

use pcaps_dag::{JobId, StageId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulator event.
///
/// Events carry a *member cluster* dimension: each belongs to the
/// federation member whose executors or jobs it concerns, so one shared
/// event queue can drive any number of member clusters deterministically.
/// Workload arrivals are *not* queue events: the engine pulls them from its
/// [`ArrivalSource`] through a one-job lookahead window and interleaves them
/// with the queue by time (arrivals win ties, which is what enqueueing the
/// whole workload up front used to guarantee via insertion order).
///
/// [`ArrivalSource`]: crate::source::ArrivalSource
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task finishes on an executor of one member cluster, freeing it.
    TaskFinish {
        /// Member cluster the executor belongs to.
        member: usize,
        /// Index of the executor that becomes free.
        executor: usize,
        /// Job whose task finished.
        job: JobId,
        /// Stage whose task finished.
        stage: StageId,
        /// The executor's crash epoch at dispatch time.  A crash bumps the
        /// executor's epoch, so a finish event stamped with an older epoch
        /// is recognised as belonging to a killed task and dropped (the
        /// deterministic-queue analogue of cancelling the event).  Always 0
        /// on fault-free runs.
        epoch: u64,
    },
    /// A crashed task finishes its retry backoff and is released for
    /// re-dispatch on its member.
    RetryRelease {
        /// Member cluster the task's job lives on.
        member: usize,
        /// The job whose task is released.
        job: JobId,
        /// The stage the task belongs to.
        stage: StageId,
        /// The task's index within the stage.
        task: usize,
    },
    /// A migrating job's *network flow* finishes delivering and the job
    /// arrives at its destination member (the job was detached from its
    /// source when the migration was applied; this event re-registers it).
    /// The arrival instant depends on bandwidth sharing, so whenever the
    /// flow's fair share changes a replacement event is pushed with a
    /// bumped epoch; an event whose epoch no longer matches the flow's is
    /// stale and dropped (the same invalidation scheme crashed task
    /// finishes use).
    FlowArrival {
        /// Destination member cluster.
        member: usize,
        /// The migrating job.
        job: JobId,
        /// The flow's epoch stamp at push time.
        epoch: u64,
    },
}

/// An event stamped with its occurrence time.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap and we want the earliest
        // event first.  `total_cmp` keeps this consistent with the arrival
        // sort in `Simulator::new` (and total even though NaN times are
        // rejected at push time).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-priority event queue.
///
/// `Clone` is part of the engine's snapshot/restore contract: a cloned queue
/// (entries plus the sequence counter) replays bit-identically, because
/// ordering depends only on `(time, seq)` pairs, which the clone preserves.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Pushes an event occurring at `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample event: job `job`'s flow arrival at member 0.
    fn arrival(job: u64) -> Event {
        Event::FlowArrival { member: 0, job: JobId(job), epoch: 0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, arrival(1));
        q.push(1.0, arrival(0));
        q.push(3.0, arrival(2));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, arrival(10));
        q.push(2.0, arrival(20));
        let first = q.pop().unwrap().1;
        let second = q.pop().unwrap().1;
        assert_eq!(first, arrival(10));
        assert_eq!(second, arrival(20));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7.0, arrival(0));
        assert_eq!(q.peek_time(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, arrival(0));
    }

    #[test]
    fn flow_arrival_events_carry_member_job_and_epoch() {
        let mut q = EventQueue::new();
        q.push(8.0, Event::FlowArrival { member: 2, job: JobId(3), epoch: 4 });
        match q.pop().unwrap() {
            (t, Event::FlowArrival { member, job, epoch }) => {
                assert_eq!(t, 8.0);
                assert_eq!(member, 2);
                assert_eq!(job, JobId(3));
                assert_eq!(epoch, 4);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn task_finish_events_carry_payload() {
        let mut q = EventQueue::new();
        q.push(
            1.0,
            Event::TaskFinish {
                member: 1,
                executor: 3,
                job: JobId(2),
                stage: StageId(1),
                epoch: 4,
            },
        );
        match q.pop().unwrap().1 {
            Event::TaskFinish { member, executor, job, stage, epoch } => {
                assert_eq!(member, 1);
                assert_eq!(executor, 3);
                assert_eq!(job, JobId(2));
                assert_eq!(stage, StageId(1));
                assert_eq!(epoch, 4);
            }
            _ => panic!("wrong event type"),
        }
    }

    #[test]
    fn retry_release_events_carry_payload() {
        let mut q = EventQueue::new();
        q.push(9.0, Event::RetryRelease { member: 2, job: JobId(4), stage: StageId(1), task: 3 });
        match q.pop().unwrap() {
            (t, Event::RetryRelease { member, job, stage, task }) => {
                assert_eq!(t, 9.0);
                assert_eq!(member, 2);
                assert_eq!(job, JobId(4));
                assert_eq!(stage, StageId(1));
                assert_eq!(task, 3);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }
}
