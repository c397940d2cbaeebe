//! Pull-based workload intake for the engine.
//!
//! An [`ArrivalSource`] is the engine's only intake: the engine pulls jobs
//! through a one-job arrival window instead of enqueueing every arrival up
//! front, so a 100k-job trace-scale run holds only the window plus the
//! currently active jobs.
//!
//! ## The source contract
//!
//! * **Ascending arrivals.**  Successive [`ArrivalSource::next_job`]
//!   results must have non-decreasing `arrival` times.  This is where the
//!   engine's historical "arrivals come in ascending id order" invariant
//!   now lives: job ids are assigned in pull order, so a sorted source
//!   *is* the invariant.  The engine verifies it on every pull and aborts
//!   with [`SimError::OutOfOrderArrival`] on violation.  Each arrival must
//!   also be finite and non-negative; the engine checks that first and
//!   aborts with [`SimError::InvalidJob`] otherwise.
//! * **Bounded lookahead.**  The engine pulls at most one job beyond the
//!   simulation clock, so a lazy source never materializes more than O(1)
//!   jobs.
//! * **Exhaustion is final.**  After `next_job` returns `None` it keeps
//!   returning `None`; the run terminates once the source is drained and
//!   every pulled job has completed.
//!
//! Any `Iterator<Item = SubmittedJob>` is a source (the iterator author
//! vouches for the ordering); [`MaterializedJobs`] wraps an existing
//! workload vector, sorting and pre-validating it so the engine can skip
//! the per-pull DAG validation.  It is also how a [`Federation`] stores its
//! workload: [`Federation::run`] pulls from a clone of it, so every run
//! enters the engine through this one trait.
//!
//! Workload generators yield the same [`SubmittedJob`] type, which lives in
//! `pcaps_dag`, so a `pcaps_workloads` stream is a source as it is;
//! `pcaps_experiments::streaming::StreamSource` wraps one to tell the
//! engine that its DAGs are already validated.
//!
//! [`Federation`]: crate::federation::Federation
//! [`Federation::run`]: crate::federation::Federation::run
//! [`SimError::OutOfOrderArrival`]: crate::error::SimError::OutOfOrderArrival
//! [`SimError::InvalidJob`]: crate::error::SimError::InvalidJob

use crate::error::SimError;
use crate::job_state::SubmittedJob;

/// A pull-based stream of submitted jobs in non-decreasing arrival order.
///
/// See the [module docs](self) for the full contract.
pub trait ArrivalSource {
    /// Pulls the next job, or `None` once the stream is exhausted.
    fn next_job(&mut self) -> Option<SubmittedJob>;

    /// Bounds on the number of jobs remaining, `(lower, upper)` — same
    /// semantics as [`Iterator::size_hint`].  Used only to pre-size engine
    /// bookkeeping; exact bounds help, loose bounds are harmless.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// True if every job this source will yield has already passed DAG
    /// validation, letting the engine skip its per-pull `validate()` call.
    /// Defaults to `false`; only return `true` when construction really
    /// validated every DAG (as [`MaterializedJobs::new`] does).
    fn prevalidated(&self) -> bool {
        false
    }
}

/// Any iterator of submitted jobs is a source, provided it yields them in
/// non-decreasing arrival order (violations abort the run with a
/// descriptive error).  DAGs are validated by the engine as jobs are
/// pulled.
impl<I: Iterator<Item = SubmittedJob>> ArrivalSource for I {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        Iterator::size_hint(self)
    }
}

/// A fully materialized workload exposed as an [`ArrivalSource`] — the
/// back-compat bridge from `Vec<SubmittedJob>` to streaming intake.
///
/// Construction stable-sorts by arrival time (ties keep input order,
/// exactly like [`Federation::new`]) and validates every DAG once, so the
/// engine skips per-pull validation.
///
/// [`Federation::new`]: crate::federation::Federation::new
#[derive(Debug, Clone)]
pub struct MaterializedJobs {
    jobs: std::vec::IntoIter<SubmittedJob>,
}

impl MaterializedJobs {
    /// Wraps a materialized workload, sorting it by arrival and validating
    /// every DAG.  Returns the first validation failure, if any.
    pub fn new(mut jobs: Vec<SubmittedJob>) -> Result<Self, SimError> {
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        for job in &jobs {
            if let Err(e) = job.dag.validate() {
                return Err(SimError::InvalidJob {
                    job: job.dag.name.clone(),
                    reason: e.to_string(),
                });
            }
        }
        Ok(MaterializedJobs::presorted(jobs))
    }

    /// Wraps a workload the caller has already sorted by arrival and
    /// validated ([`Federation::new`] does both, and records the first
    /// failure itself).
    ///
    /// [`Federation::new`]: crate::federation::Federation::new
    pub(crate) fn presorted(jobs: Vec<SubmittedJob>) -> Self {
        MaterializedJobs { jobs: jobs.into_iter() }
    }

    /// Number of jobs left in the source.
    pub fn remaining(&self) -> usize {
        self.jobs.len()
    }

    /// The jobs left in the source, in pull order.
    pub(crate) fn as_slice(&self) -> &[SubmittedJob] {
        self.jobs.as_slice()
    }
}

impl ArrivalSource for MaterializedJobs {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        self.jobs.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.jobs.len();
        (n, Some(n))
    }

    fn prevalidated(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_dag::{JobDagBuilder, Task};

    fn job(name: &str, at: f64) -> SubmittedJob {
        SubmittedJob::at(
            at,
            JobDagBuilder::new(name)
                .stage("s", vec![Task::new(1.0)])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn materialized_jobs_sort_and_prevalidate() {
        let mut src =
            MaterializedJobs::new(vec![job("b", 5.0), job("a", 1.0), job("c", 5.0)]).unwrap();
        assert!(src.prevalidated());
        assert_eq!(ArrivalSource::size_hint(&src), (3, Some(3)));
        assert_eq!(src.remaining(), 3);
        let order: Vec<String> = std::iter::from_fn(|| src.next_job())
            .map(|j| j.dag.name.clone())
            .collect();
        // Sorted by arrival; the tie at t=5 keeps input order (b before c).
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(src.next_job(), None, "exhaustion is final");
    }

    #[test]
    fn materialized_jobs_reject_invalid_dags() {
        let mut bad = job("bad", 0.0);
        let mut dag = (*bad.dag).clone();
        dag.stages[0].tasks.clear();
        bad.dag = std::sync::Arc::new(dag);
        match MaterializedJobs::new(vec![job("ok", 0.0), bad]) {
            Err(SimError::InvalidJob { job, .. }) => assert_eq!(job, "bad"),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
    }

    #[test]
    fn iterators_are_sources() {
        let jobs = vec![job("a", 0.0), job("b", 2.0)];
        let mut it = jobs.clone().into_iter();
        assert!(!ArrivalSource::prevalidated(&it));
        assert_eq!(ArrivalSource::size_hint(&it), (2, Some(2)));
        assert_eq!(ArrivalSource::next_job(&mut it), Some(jobs[0].clone()));
    }
}
