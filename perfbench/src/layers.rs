//! Forwarding wrappers that time and count every call the engine makes into
//! a public trait object.
//!
//! Each wrapper owns the policy it forwards to, so after a run the caller
//! reads the counters straight off the wrapper.  The engine never nests one
//! of these calls inside another, so the busy times of different wrappers
//! never overlap and their sum is bounded by the trial's wall time.
//!
//! Every wrapper forwards the optional trait methods (`size_hint`,
//! `prevalidated`, `never_migrates`) as well: leaving one at its default
//! would silently change what the engine does (e.g. a wrapped
//! `NeverMigrate` would start receiving candidate lists).

use pcaps_cluster::{
    AdmissionDecision, AdmissionPolicy, ArrivalSource, DecisionSink, MigrationCandidate,
    MigrationContext, MigrationPolicy, MigrationSink, Router, RoutingContext, SchedEvent,
    Scheduler, SchedulingContext, SubmittedJob,
};
use pcaps_dag::JobId;
use std::time::Instant;

/// Calls into one layer: how many, how many produced an outcome, and the
/// host time spent inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Calls forwarded.
    pub calls: u64,
    /// Calls that produced an outcome (a pulled job, an assignment, a
    /// migration verb, a rejection — whatever "useful" means for the layer).
    pub useful: u64,
    /// Host seconds spent inside the forwarded calls.
    pub busy_s: f64,
}

impl CallStats {
    /// `useful / calls`, 0 when the layer was never called.
    pub fn useful_frac(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.useful as f64 / self.calls as f64
        }
    }
}

/// Times one forwarded call, returning its result and its duration in
/// nanoseconds.
fn timed<R>(stats: &mut CallStats, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    stats.calls += 1;
    stats.busy_s += elapsed.as_secs_f64();
    (out, elapsed.as_nanos() as f64)
}

/// Workload generation and intake: wraps the arrival source.
pub struct TimedSource<'a> {
    inner: &'a mut dyn ArrivalSource,
    /// `useful` counts pulls that yielded a job.
    pub stats: CallStats,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn ArrivalSource) -> Self {
        TimedSource {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl ArrivalSource for TimedSource<'_> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let (job, _) = timed(&mut self.stats, || self.inner.next_job());
        if job.is_some() {
            self.stats.useful += 1;
        }
        job
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn prevalidated(&self) -> bool {
        self.inner.prevalidated()
    }
}

/// Scheduler invocations: wraps one member's scheduler and keeps every
/// invocation's latency for percentiles.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// `useful` counts invocations that emitted at least one assignment.
    pub stats: CallStats,
    /// Latency of every invocation, in nanoseconds.
    pub latencies_ns: Vec<f64>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            stats: CallStats::default(),
            latencies_ns: Vec::new(),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let before = out.assignments().len();
        let inner = &mut self.inner;
        let ((), ns) = timed(&mut self.stats, || inner.on_event(event, ctx, out));
        self.latencies_ns.push(ns);
        if out.assignments().len() > before {
            self.stats.useful += 1;
        }
    }
}

/// Routing: wraps the router (consulted once per arrival).
pub struct TimedRouter {
    inner: Box<dyn Router>,
    /// `useful` equals `calls` (every consultation places a job).
    pub stats: CallStats,
}

impl TimedRouter {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Router>) -> Self {
        TimedRouter {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&mut self, id: JobId, job: &SubmittedJob, ctx: &RoutingContext<'_>) -> usize {
        let inner = &mut self.inner;
        let (member, _) = timed(&mut self.stats, || inner.route(id, job, ctx));
        self.stats.useful += 1;
        member
    }
}

/// Live migration: wraps the migration policy (consulted on carbon steps).
pub struct TimedMigration {
    inner: Box<dyn MigrationPolicy>,
    /// `useful` counts consultations that emitted at least one verb.
    pub stats: CallStats,
}

impl TimedMigration {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn MigrationPolicy>) -> Self {
        TimedMigration {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl MigrationPolicy for TimedMigration {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn never_migrates(&self) -> bool {
        self.inner.never_migrates()
    }

    fn on_carbon_change(
        &mut self,
        ctx: &MigrationContext<'_>,
        candidates: &[MigrationCandidate],
        out: &mut MigrationSink,
    ) {
        let before = out.moves().len();
        let inner = &mut self.inner;
        timed(&mut self.stats, || {
            inner.on_carbon_change(ctx, candidates, out)
        });
        if out.moves().len() > before {
            self.stats.useful += 1;
        }
    }
}

/// Admission control: wraps the admission policy (consulted per arrival).
pub struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    /// `useful` counts rejections.
    pub stats: CallStats,
}

impl TimedAdmission {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn AdmissionPolicy>) -> Self {
        TimedAdmission {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(
        &mut self,
        job: &SubmittedJob,
        target: usize,
        ctx: &RoutingContext<'_>,
    ) -> AdmissionDecision {
        let inner = &mut self.inner;
        let (decision, _) = timed(&mut self.stats, || inner.admit(job, target, ctx));
        if decision == AdmissionDecision::Reject {
            self.stats.useful += 1;
        }
        decision
    }
}
