//! Deterministic fault injection: seeded, replayable failure plans whose
//! injections become first-class events in the engine's deterministic queue.
//!
//! A [`FaultPlan`] describes *what should go wrong* during a run — executor
//! crashes and whole-member outages — without touching the engine.  Plans are materialised **once**, before the run starts, into
//! a time-sorted [`FaultSchedule`]; the engine then merges that schedule
//! into its event loop with a single cursor, so the no-fault path costs one
//! `Option` comparison per iteration and stays bit-identical to the
//! pre-fault engine.
//!
//! Determinism contract: a schedule is a pure function of the plan's own
//! configuration (seed included) and the [`FaultContext`] describing the
//! federation's shape.  Same plan + same context ⇒ same schedule ⇒ same
//! fault log, same fingerprint, same waste accounting.  The randomness in
//! [`PoissonCrashes`] comes from per-member `ChaCha8` streams, never from
//! engine state, so re-running a trial replays the exact failure history.
//!
//! Recovery semantics live in the engine (see the crate-level architecture
//! note): crashed tasks are retried under a [`RetryPolicy`] with bounded
//! attempts and exponential backoff in schedule-time; an outaged member
//! stops dispatching, drains its running tasks, and has its idle jobs
//! evacuated over the federation's transfer-priced migration path.
//! Everything that happened is logged as [`FaultRecord`]s on the member's
//! [`SimulationResult`].
//!
//! [`SimulationResult`]: crate::result::SimulationResult

use crate::config::NO_TIME_LIMIT;
use crate::error::SimError;
use pcaps_dag::{JobId, StageId};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What a single injection does to its member.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Kill one executor: the task it is running (if any) is lost and
    /// re-enqueued under the run's [`RetryPolicy`]; the executor itself
    /// comes back immediately but *cold* (warm-start affinity is lost).
    ExecutorCrash {
        /// Index of the executor to kill within the member's pool.
        executor: usize,
    },
    /// The member stops dispatching: running tasks drain to completion,
    /// idle jobs are evacuated to the least-loaded available member (if
    /// any), routers see `available == false`.
    RegionOutageStart,
    /// The member resumes dispatching.
    RegionOutageEnd,
}

/// One scheduled injection: at `time`, do `kind` to `member`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// Schedule time (seconds) at which the fault fires.
    pub time: f64,
    /// Index of the member the fault applies to.
    pub member: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A materialised, time-sorted list of injections — what the engine
/// actually consumes.  Build one from a [`FaultPlan`] (via
/// [`FaultPlan::schedule`]) or directly from a hand-written list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    injections: Vec<FaultInjection>,
}

impl FaultSchedule {
    /// The empty schedule — the default for every federation and the
    /// bit-identity baseline: a run with `FaultSchedule::none()` is
    /// indistinguishable from a run on the pre-fault engine.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from `injections`, sorting them by time (stable,
    /// so same-time injections keep their listed order).
    ///
    /// # Panics
    /// Panics if any injection time is negative or not finite.
    pub fn new(mut injections: Vec<FaultInjection>) -> Self {
        for inj in &injections {
            assert!(
                inj.time.is_finite() && inj.time >= 0.0,
                "fault injection times must be finite and non-negative (got {})",
                inj.time
            );
        }
        injections.sort_by(|a, b| a.time.total_cmp(&b.time));
        FaultSchedule { injections }
    }

    /// The injections in firing order.
    pub fn injections(&self) -> &[FaultInjection] {
        &self.injections
    }

    /// True if the schedule contains no injections.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Number of injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }
}

/// The federation shape a [`FaultPlan`] materialises against.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultContext {
    /// Executor-pool size of each member, in member-index order (the
    /// member count is `executors.len()`).
    pub executors: Vec<usize>,
    /// Horizon (schedule seconds) beyond which no faults are generated.
    /// Open-ended plans (e.g. [`PoissonCrashes`]) stop here.
    pub horizon: f64,
}

impl FaultContext {
    /// Number of members in the federation.
    pub fn num_members(&self) -> usize {
        self.executors.len()
    }
}

/// A replayable description of what goes wrong during a run.
///
/// Implementations must be pure: `schedule` may depend only on the plan's
/// own fields (seeds included) and `ctx` — never on wall-clock time or
/// global state — so the same plan replays the same failure history.
pub trait FaultPlan {
    /// Materialises the plan into a time-sorted schedule for a federation
    /// of shape `ctx`, or a descriptive [`SimError::InvalidFault`] when the
    /// context cannot support the plan (e.g. an open-ended Poisson process
    /// against a federation with no real horizon).
    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, SimError>;
}

/// Seeded Poisson executor-crash process: each member draws independent
/// exponential inter-crash gaps (mean `mean_seconds_between`) from its own
/// `ChaCha8` stream, each crash killing a uniformly drawn executor.
///
/// The per-member streams are derived from `seed` by golden-ratio mixing,
/// so adding a member never perturbs the others' crash histories.
#[derive(Debug, Clone, Copy)]
pub struct PoissonCrashes {
    /// Base seed of the per-member crash streams.
    pub seed: u64,
    /// Mean schedule-seconds between crashes per member (the process rate
    /// is `1 / mean_seconds_between`).
    pub mean_seconds_between: f64,
    /// Optional horizon override (schedule seconds); `None` uses the
    /// context's horizon.
    pub horizon: Option<f64>,
}

impl PoissonCrashes {
    /// A crash process with mean time between crashes `mean_seconds_between`
    /// per member, generated up to the context horizon.
    ///
    /// # Panics
    /// Panics if `mean_seconds_between` is not finite and positive.
    pub fn new(seed: u64, mean_seconds_between: f64) -> Self {
        assert!(
            mean_seconds_between.is_finite() && mean_seconds_between > 0.0,
            "mean time between crashes must be finite and positive"
        );
        PoissonCrashes { seed, mean_seconds_between, horizon: None }
    }

    /// Caps generation at `horizon` schedule seconds instead of the
    /// context's horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "crash horizon must be finite and non-negative"
        );
        self.horizon = Some(horizon);
        self
    }
}

impl FaultPlan for PoissonCrashes {
    // `!(t < horizon)` rather than `t >= horizon`: a NaN horizon or crash
    // time must end generation instead of looping forever.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn schedule(&self, ctx: &FaultContext) -> Result<FaultSchedule, SimError> {
        // The fields are public, so a struct literal skips `new`'s and
        // `with_horizon`'s asserts: a mean that is not positive never
        // advances `t`, and a NaN one, or a NaN or negative horizon, would
        // silently generate nothing.
        let mean = self.mean_seconds_between;
        if !(mean.is_finite() && mean > 0.0) {
            return invalid_field("PoissonCrashes", "mean_seconds_between", "positive", mean);
        }
        if let Some(h) = self.horizon.filter(|h| !(h.is_finite() && *h >= 0.0)) {
            return invalid_field("PoissonCrashes", "horizon", "non-negative", h);
        }
        // An open-ended crash process needs a real stopping point.  The
        // engine's default `max_sim_time` is a no-limit sentinel, not a
        // horizon — materialising against it would either generate ~10⁶+
        // injections or (with an infinite fold result) silently generate
        // nothing.  Callers MUST either bound the federation's members with
        // `with_max_sim_time` or bound the plan with `with_horizon`.
        let horizon = match self.horizon {
            Some(h) => h,
            None if ctx.horizon >= NO_TIME_LIMIT => {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "PoissonCrashes (MTBF {} s) materialised against a federation with no \
                         real time horizon (context horizon {} >= the no-limit sentinel {}); \
                         bound the plan with `with_horizon` or the members with \
                         `with_max_sim_time`",
                        self.mean_seconds_between, ctx.horizon, NO_TIME_LIMIT
                    ),
                });
            }
            None => ctx.horizon,
        };
        let mut injections = Vec::new();
        for (member, &executors) in ctx.executors.iter().enumerate() {
            if executors == 0 {
                continue;
            }
            // Independent stream per member: golden-ratio member mixing, the
            // same idiom the experiment harness uses for per-member seeds.
            let member_seed =
                self.seed.wrapping_add((member as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = ChaCha8Rng::seed_from_u64(member_seed);
            let mut t = 0.0_f64;
            loop {
                // Exponential inter-crash gap by inversion; u ∈ [0, 1).
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -self.mean_seconds_between * (1.0 - u).ln();
                if !(t < horizon) {
                    break;
                }
                let executor = (rng.next_u64() % executors as u64) as usize;
                injections.push(FaultInjection {
                    time: t,
                    member,
                    kind: FaultKind::ExecutorCrash { executor },
                });
            }
        }
        Ok(FaultSchedule::new(injections))
    }
}

/// Reports a plan field that a struct literal set to a value the plan's
/// constructor refuses.
fn invalid_field(plan: &str, field: &str, rule: &str, value: f64) -> Result<FaultSchedule, SimError> {
    Err(SimError::InvalidFault {
        reason: format!("{plan} {field} must be finite and {rule}, got {value}"),
    })
}

/// A windowed whole-member outage: `member` stops dispatching at `start`
/// and resumes at `end`.
#[derive(Debug, Clone, Copy)]
pub struct RegionOutage {
    /// The member that goes down.
    pub member: usize,
    /// Outage start (schedule seconds).
    pub start: f64,
    /// Outage end (schedule seconds).
    pub end: f64,
}

impl RegionOutage {
    /// An outage of `member` over `[start, end)`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ start < end` and both are finite.
    pub fn new(member: usize, start: f64, end: f64) -> Self {
        assert!(
            start.is_finite() && end.is_finite() && start >= 0.0 && start < end,
            "outage window must satisfy 0 <= start < end"
        );
        RegionOutage { member, start, end }
    }
}

impl FaultPlan for RegionOutage {
    fn schedule(&self, _ctx: &FaultContext) -> Result<FaultSchedule, SimError> {
        // The fields are public, so a struct literal skips `new`'s assert:
        // a NaN bound would panic in `FaultSchedule::new`, and an end at or
        // before the start would leave the member down for the rest of the
        // run.
        if !(self.start.is_finite() && self.start >= 0.0) {
            return invalid_field("RegionOutage", "start", "non-negative", self.start);
        }
        if !(self.end.is_finite() && self.end > self.start) {
            return invalid_field("RegionOutage", "end", "after its start", self.end);
        }
        Ok(FaultSchedule::new(vec![
            FaultInjection {
                time: self.start,
                member: self.member,
                kind: FaultKind::RegionOutageStart,
            },
            FaultInjection { time: self.end, member: self.member, kind: FaultKind::RegionOutageEnd },
        ]))
    }
}

/// How crashed tasks are retried: bounded attempts with exponential backoff
/// in schedule-time.  Attempt `k` (1-based failure count) releases the task
/// for re-dispatch `backoff_base × backoff_factor^(k−1)` schedule seconds
/// after the crash; once a task has failed `max_attempts` times the run
/// aborts with [`SimError::RetriesExhausted`].
///
/// [`SimError::RetriesExhausted`]: crate::error::SimError::RetriesExhausted
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum times any single task may fail before the run aborts.
    pub max_attempts: u32,
    /// Backoff after the first failure (schedule seconds).
    pub backoff_base: f64,
    /// Multiplier applied to the backoff per subsequent failure.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    /// Three attempts, 5 s initial backoff, doubling.
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_base: 5.0, backoff_factor: 2.0 }
    }
}

impl RetryPolicy {
    /// Backoff (schedule seconds) after the `failures`-th failure of a task
    /// (1-based): `backoff_base × backoff_factor^(failures−1)`.
    pub fn backoff_after(&self, failures: u32) -> f64 {
        let exponent = i32::try_from(failures.saturating_sub(1)).unwrap_or(i32::MAX);
        self.backoff_base * self.backoff_factor.powi(exponent)
    }

    /// Rejects a policy whose backoff cannot be scheduled.  The fields are
    /// public, so nothing else stops a NaN or infinite backoff from reaching
    /// the event queue (which panics on it) or a negative one from turning
    /// the clock back.  With a finite, non-negative base and factor the
    /// backoff is monotone in the failure count, so the last one a run can
    /// schedule — failure `max_attempts` aborts instead — bounds them all.
    pub(crate) fn check(&self) -> Result<(), SimError> {
        let invalid = |reason: String| Err(SimError::InvalidFault { reason });
        for (name, value) in [
            ("backoff_base", self.backoff_base),
            ("backoff_factor", self.backoff_factor),
        ] {
            if !value.is_finite() || value < 0.0 {
                return invalid(format!(
                    "retry policy {name} must be finite and non-negative, got {value}"
                ));
            }
        }
        let failures = self.max_attempts.saturating_sub(1);
        let last = self.backoff_after(failures);
        if !last.is_finite() {
            return invalid(format!(
                "retry policy backoff_factor {} gives a backoff of {last} s after {failures} \
                 failure(s) (max_attempts {})",
                self.backoff_factor, self.max_attempts
            ));
        }
        Ok(())
    }
}

/// The task an [`FaultKind::ExecutorCrash`] killed mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashVictim {
    /// The job whose task was lost.
    pub job: JobId,
    /// The stage the task belongs to.
    pub stage: StageId,
    /// The task's index within the stage.
    pub task: usize,
    /// Executor-seconds of work lost (dispatch-to-crash, including any
    /// executor-move delay spent reaching the task).
    pub wasted_seconds: f64,
    /// How many times this task has now failed (1-based).
    pub attempt: u32,
}

/// What a fault did when it fired — one entry of the per-member fault log
/// on [`SimulationResult::faults`].
///
/// [`SimulationResult::faults`]: crate::result::SimulationResult::faults
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEffect {
    /// An executor died; `victim` is the task it was running, `None` if it
    /// was idle (a crash of an idle executor wastes nothing).
    ExecutorCrashed {
        /// Index of the killed executor.
        executor: usize,
        /// The in-flight task that was lost, if any.
        victim: Option<CrashVictim>,
    },
    /// A previously crashed task finished its backoff and was re-enqueued
    /// as dispatchable.
    TaskRetried {
        /// The job whose task was re-enqueued.
        job: JobId,
        /// The stage the task belongs to.
        stage: StageId,
        /// The task's index within the stage.
        task: usize,
    },
    /// The member went down; `evacuated` idle jobs were migrated away over
    /// the transfer-priced path.
    OutageStarted {
        /// Number of idle jobs evacuated at outage start.
        evacuated: usize,
    },
    /// The member came back up.
    OutageEnded,
}

/// One entry of a member's fault log: at `time`, on `member`, `effect`
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Schedule time (seconds) the fault fired.
    pub time: f64,
    /// The member it fired on.
    pub member: usize,
    /// What it did.
    pub effect: FaultEffect,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(executors: Vec<usize>, horizon: f64) -> FaultContext {
        FaultContext { executors, horizon }
    }

    #[test]
    fn none_is_empty_and_default() {
        assert!(FaultSchedule::none().is_empty());
        assert_eq!(FaultSchedule::none(), FaultSchedule::default());
        assert_eq!(FaultSchedule::none().len(), 0);
    }

    #[test]
    fn schedules_sort_by_time_stably() {
        let crash = |time: f64, member: usize, executor: usize| FaultInjection {
            time,
            member,
            kind: FaultKind::ExecutorCrash { executor },
        };
        let s = FaultSchedule::new(vec![crash(5.0, 0, 1), crash(1.0, 1, 0), crash(5.0, 1, 2)]);
        let times: Vec<f64> = s.injections().iter().map(|i| i.time).collect();
        assert_eq!(times, vec![1.0, 5.0, 5.0]);
        // Stable: the member-0 crash listed first keeps its place at t=5.
        assert_eq!(s.injections()[1].member, 0);
        assert_eq!(s.injections()[2].member, 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn schedules_reject_negative_times() {
        let _ = FaultSchedule::new(vec![FaultInjection {
            time: -1.0,
            member: 0,
            kind: FaultKind::RegionOutageStart,
        }]);
    }

    #[test]
    fn poisson_is_deterministic_and_bounded() {
        let plan = PoissonCrashes::new(42, 500.0);
        let c = ctx(vec![8, 8, 8], 100_000.0);
        let a = plan.schedule(&c).unwrap();
        let b = plan.schedule(&c).unwrap();
        assert_eq!(a, b, "same seed + context must replay the same schedule");
        assert!(!a.is_empty(), "100k s at MTBF 500 s should produce crashes");
        let mut last = 0.0;
        for inj in a.injections() {
            assert!(inj.time >= last && inj.time < 100_000.0);
            last = inj.time;
            assert!(inj.member < 3);
            match inj.kind {
                FaultKind::ExecutorCrash { executor } => assert!(executor < 8),
                other => panic!("Poisson plan produced {other:?}"),
            }
        }
        // Roughly 3 members × horizon/MTBF crashes; allow a wide band.
        let expect = 3.0 * 100_000.0 / 500.0;
        assert!(
            (a.len() as f64) > expect * 0.5 && (a.len() as f64) < expect * 1.5,
            "crash count {} far from Poisson expectation {}",
            a.len(),
            expect
        );
    }

    #[test]
    fn poisson_seeds_and_members_are_independent() {
        let c = ctx(vec![4, 4], 50_000.0);
        let a = PoissonCrashes::new(1, 1000.0).schedule(&c).unwrap();
        let b = PoissonCrashes::new(2, 1000.0).schedule(&c).unwrap();
        assert_ne!(a, b, "different seeds must produce different crash histories");
        // Adding a member must not perturb existing members' histories.
        let wider =
            PoissonCrashes::new(1, 1000.0).schedule(&ctx(vec![4, 4, 4], 50_000.0)).unwrap();
        let only = |s: &FaultSchedule, m: usize| -> Vec<FaultInjection> {
            s.injections().iter().copied().filter(|i| i.member == m).collect()
        };
        assert_eq!(only(&a, 0), only(&wider, 0));
        assert_eq!(only(&a, 1), only(&wider, 1));
    }

    #[test]
    fn poisson_honours_horizon_override() {
        let c = ctx(vec![4], 1_000_000.0);
        let s = PoissonCrashes::new(7, 100.0).with_horizon(1000.0).schedule(&c).unwrap();
        assert!(s.injections().iter().all(|i| i.time < 1000.0));
    }

    #[test]
    fn poisson_rejects_the_no_limit_sentinel_horizon() {
        // A federation whose members keep the default `max_sim_time` has no
        // real horizon; materialising an open-ended crash process against it
        // must error descriptively rather than silently misbehave.
        for horizon in [NO_TIME_LIMIT, NO_TIME_LIMIT * 10.0, f64::INFINITY] {
            let err = PoissonCrashes::new(7, 100.0)
                .schedule(&ctx(vec![4], horizon))
                .expect_err("the sentinel horizon must be rejected");
            match err {
                SimError::InvalidFault { reason } => {
                    assert!(reason.contains("with_horizon"), "unhelpful reason: {reason}")
                }
                other => panic!("expected InvalidFault, got {other:?}"),
            }
        }
        // An explicit override keeps working no matter the context horizon.
        let s = PoissonCrashes::new(7, 100.0)
            .with_horizon(1000.0)
            .schedule(&ctx(vec![4], f64::INFINITY))
            .unwrap();
        assert!(!s.is_empty());
    }

    #[test]
    fn outage_and_dropout_expand_to_window_pairs() {
        let o = RegionOutage::new(1, 10.0, 20.0).schedule(&ctx(vec![2, 2], 100.0)).unwrap();
        assert_eq!(o.len(), 2);
        assert_eq!(o.injections()[0].kind, FaultKind::RegionOutageStart);
        assert_eq!(o.injections()[1].kind, FaultKind::RegionOutageEnd);
        assert_eq!((o.injections()[0].time, o.injections()[1].time), (10.0, 20.0));
    }

    #[test]
    #[should_panic(expected = "start < end")]
    fn outage_rejects_empty_window() {
        let _ = RegionOutage::new(0, 10.0, 10.0);
    }

    #[test]
    fn retry_backoff_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
        assert_eq!(p.backoff_after(1), 5.0);
        assert_eq!(p.backoff_after(2), 10.0);
        assert_eq!(p.backoff_after(3), 20.0);
        let flat = RetryPolicy { max_attempts: 5, backoff_base: 2.0, backoff_factor: 1.0 };
        assert_eq!(flat.backoff_after(4), 2.0);
    }
}
