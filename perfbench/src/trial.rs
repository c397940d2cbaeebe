//! One trial: drive a [`Parts`] through the engine, attribute carbon per
//! job, and check the outputs.

use crate::layers::{
    CallStats, TimedAdmission, TimedMigration, TimedRouter, TimedScheduler, TimedSource,
};
use crate::{Parts, Shape};
use pcaps_carbon::CarbonAccountant;
use pcaps_cluster::{
    AdmissionPolicy, ArrivalSource, FaultEffect, Federation, FederationResult, JobRecord,
    MigrationPolicy, Router, Scheduler, SimError,
};
use pcaps_metrics::{CompletionEvent, WindowedMetrics};
use std::time::Instant;

/// What a trial computed in simulated terms.  Two trials of the same spec
/// must agree on it bit for bit, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Makespan bits (last completion, schedule seconds).
    pub makespan: u64,
    /// Tasks dispatched.
    pub tasks: usize,
    /// Carbon bits (grams, execution plus transfer).
    pub carbon: u64,
    /// Mean JCT bits (schedule seconds).
    pub avg_jct: u64,
}

/// Federation-side counts of one finite trial (zero on the other shapes).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FedCounts {
    /// Migrations applied.
    pub migrations: usize,
    /// Gigabytes moved by migrations.
    pub gb_moved: f64,
    /// Simulated seconds jobs spent in transfer.
    pub transfer_s: f64,
    /// Executor crashes that fired.
    pub crashes: usize,
    /// Tasks killed by crashes.
    pub tasks_failed: usize,
    /// Crashed tasks re-released.
    pub retries: usize,
    /// Useful over spent executor-seconds.
    pub goodput: f64,
}

/// Serving-side observations of one serve trial.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeCounts {
    /// Arrivals admitted or rejected over the horizon.
    pub arrivals: usize,
    /// Arrivals turned away by admission control.
    pub rejected: usize,
    /// Host milliseconds of every slice (`run_until`, drain, metrics and,
    /// on window boundaries, sample plus snapshot).
    pub slice_ms: Vec<f64>,
    /// Host microseconds of every snapshot.
    pub snapshot_us: Vec<f64>,
    /// Host seconds spent in `WindowedMetrics` calls.
    pub window_s: f64,
    /// Resident job-table slots at the horizon.
    pub resident_slots: usize,
    /// Jobs in system at the horizon.
    pub jobs_in_system: usize,
}

/// Counters read off the forwarding wrappers of a traced trial.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Arrival-source pulls (`useful` = jobs yielded).
    pub source: CallStats,
    /// Scheduler invocations across members (`useful` = emitted an
    /// assignment).
    pub schedulers: CallStats,
    /// Every invocation's latency, nanoseconds.
    pub sched_latencies_ns: Vec<f64>,
    /// Router consultations.
    pub router: CallStats,
    /// Migration consultations (`useful` = emitted a verb).
    pub migration: CallStats,
    /// Admission consultations (`useful` = rejected).
    pub admission: CallStats,
}

impl LayerCounts {
    /// Host seconds inside the wrapped policy calls.
    pub fn busy_s(&self) -> f64 {
        self.source.busy_s
            + self.schedulers.busy_s
            + self.router.busy_s
            + self.migration.busy_s
            + self.admission.busy_s
    }
}

/// Outcome of one trial.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    /// Host seconds from the engine call to the end of carbon attribution.
    pub wall_s: f64,
    /// Jobs the trial attempted (the stream length, or arrivals when
    /// serving).
    pub jobs: usize,
    /// Tasks dispatched.
    pub tasks: usize,
    /// Last completion (schedule seconds).
    pub makespan: f64,
    /// Execution plus transfer carbon, grams.
    pub carbon_g: f64,
    /// Mean JCT over completed jobs (schedule seconds).
    pub avg_jct_s: f64,
    /// Most jobs resident on one member at once.
    pub peak_resident_jobs: usize,
    /// Host seconds spent attributing carbon to jobs.
    pub account_s: f64,
    /// Federation-side counts.
    pub fed: FedCounts,
    /// Serving-side observations (`serve_pcaps` only).
    pub serve: Option<ServeCounts>,
    /// Wrapper counters (traced trials only).
    pub layers: Option<LayerCounts>,
    /// Every check the trial failed; empty when correct.
    pub errors: Vec<String>,
}

impl Trial {
    /// The simulated results two trials of one spec must share.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            makespan: self.makespan.to_bits(),
            tasks: self.tasks,
            carbon: self.carbon_g.to_bits(),
            avg_jct: self.avg_jct_s.to_bits(),
        }
    }

    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Carbon attributed to one completed job: the trace integral over its
/// service span at its average parallelism (executor-seconds over span).
pub fn job_carbon_grams(accountant: &CarbonAccountant, record: &JobRecord) -> f64 {
    let span = record.completion - record.first_start;
    if span <= 0.0 || record.executor_seconds <= 0.0 {
        return 0.0;
    }
    accountant.footprint_interval_grams(
        record.executor_seconds / span,
        record.first_start,
        record.completion,
    )
}

/// Runs one trial.  With `traced`, every policy object and the source go
/// through a forwarding wrapper and the trial reports [`LayerCounts`];
/// otherwise the engine sees the bare objects.
pub fn run(parts: Parts, traced: bool) -> Trial {
    let Parts {
        fed,
        mut source,
        mut router,
        mut migration,
        mut schedulers,
        mut admission,
        accountants,
        shape,
        ..
    } = parts;
    if !traced {
        let mut refs: Vec<&mut dyn Scheduler> = schedulers
            .iter_mut()
            .map(|s| s.as_mut() as &mut dyn Scheduler)
            .collect();
        let policies = Policies {
            source: source.as_mut(),
            router: router.as_mut(),
            migration: migration.as_mut(),
            schedulers: &mut refs,
            admission: admission
                .as_mut()
                .map(|a| a.as_mut() as &mut dyn AdmissionPolicy),
        };
        return drive(&fed, policies, &accountants, shape);
    }
    let mut source = TimedSource::new(source.as_mut());
    let mut router = TimedRouter::new(router);
    let mut migration = TimedMigration::new(migration);
    let mut schedulers: Vec<TimedScheduler> =
        schedulers.into_iter().map(TimedScheduler::new).collect();
    let mut admission = admission.map(TimedAdmission::new);
    let mut trial = {
        let mut refs: Vec<&mut dyn Scheduler> = schedulers
            .iter_mut()
            .map(|s| s as &mut dyn Scheduler)
            .collect();
        let policies = Policies {
            source: &mut source,
            router: &mut router,
            migration: &mut migration,
            schedulers: &mut refs,
            admission: admission.as_mut().map(|a| a as &mut dyn AdmissionPolicy),
        };
        drive(&fed, policies, &accountants, shape)
    };
    let mut layers = LayerCounts {
        source: source.stats,
        router: router.stats,
        migration: migration.stats,
        admission: admission.map(|a| a.stats).unwrap_or_default(),
        ..LayerCounts::default()
    };
    for s in schedulers {
        layers.schedulers.calls += s.stats.calls;
        layers.schedulers.useful += s.stats.useful;
        layers.schedulers.busy_s += s.stats.busy_s;
        layers.sched_latencies_ns.extend(s.latencies_ns);
    }
    trial.layers = Some(layers);
    trial
}

/// The engine-facing objects of one trial, bare or wrapped.
struct Policies<'p, 's> {
    source: &'p mut dyn ArrivalSource,
    router: &'p mut dyn Router,
    migration: &'p mut dyn MigrationPolicy,
    schedulers: &'p mut [&'s mut dyn Scheduler],
    admission: Option<&'p mut dyn AdmissionPolicy>,
}

fn drive(
    fed: &Federation,
    p: Policies<'_, '_>,
    accountants: &[CarbonAccountant],
    shape: Shape,
) -> Trial {
    match shape {
        Shape::Finite { jobs } => finite(fed, p, accountants, jobs),
        Shape::Serve {
            horizon,
            slice,
            window,
        } => serve(fed, p, accountants, horizon, slice, window),
    }
}

/// A trial whose engine call returned an error: every job fails.
fn aborted(jobs: usize, started: Instant, e: &SimError) -> Trial {
    Trial {
        wall_s: started.elapsed().as_secs_f64(),
        jobs,
        errors: vec![format!("simulation error: {e}")],
        ..Trial::default()
    }
}

fn finite(
    fed: &Federation,
    p: Policies<'_, '_>,
    accountants: &[CarbonAccountant],
    jobs: usize,
) -> Trial {
    let started = Instant::now();
    let result = match fed.run_source_with_migration(p.source, p.router, p.migration, p.schedulers)
    {
        Ok(r) => r,
        Err(e) => return aborted(jobs, started, &e),
    };
    let account_started = Instant::now();
    let mut carbon_g = result.transfer_carbon_grams();
    for (m, accountant) in result.members.iter().zip(accountants) {
        for record in &m.result.jobs {
            carbon_g += job_carbon_grams(accountant, record);
        }
    }
    let account_s = account_started.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    Trial {
        wall_s,
        jobs,
        tasks: result.tasks_dispatched(),
        makespan: result.makespan,
        carbon_g,
        avg_jct_s: result.average_jct(),
        peak_resident_jobs: result
            .members
            .iter()
            .flat_map(|m| m.result.profile.jobs_in_system.iter())
            .map(|s| s.count)
            .max()
            .unwrap_or(0),
        account_s,
        fed: fed_counts(&result),
        errors: finite_checks(&result, jobs),
        ..Trial::default()
    }
}

fn fed_counts(result: &FederationResult) -> FedCounts {
    FedCounts {
        migrations: result.num_migrations(),
        gb_moved: result.migrations.iter().fold(0.0, |acc, m| acc + m.gb),
        transfer_s: result.total_transfer_seconds(),
        crashes: result
            .members
            .iter()
            .flat_map(|m| m.result.faults.iter())
            .filter(|f| matches!(f.effect, FaultEffect::ExecutorCrashed { .. }))
            .count(),
        tasks_failed: result.tasks_failed(),
        retries: result.retries(),
        goodput: result.goodput(),
    }
}

/// Every pulled job completes exactly once, on exactly one member.
fn finite_checks(result: &FederationResult, jobs: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let mut completed = vec![false; jobs];
    for m in &result.members {
        for record in &m.result.jobs {
            match completed.get_mut(record.id.0 as usize) {
                None => errors.push(format!("job {} was never pulled", record.id.0)),
                Some(seen) if *seen => errors.push(format!(
                    "job {} completed twice (member {})",
                    record.id.0, m.member
                )),
                Some(seen) => *seen = true,
            }
        }
    }
    let missing = completed.iter().filter(|c| !**c).count();
    if missing > 0 {
        errors.push(format!("{missing} of {jobs} jobs never completed"));
    }
    if result.jobs_submitted() != jobs {
        errors.push(format!(
            "{} jobs submitted, {jobs} pulled",
            result.jobs_submitted()
        ));
    }
    errors
}

fn serve(
    fed: &Federation,
    p: Policies<'_, '_>,
    accountants: &[CarbonAccountant],
    horizon: f64,
    slice: f64,
    window: f64,
) -> Trial {
    let Policies {
        source,
        router,
        migration,
        schedulers,
        mut admission,
    } = p;
    let started = Instant::now();
    let mut session = match fed.serve(source) {
        Ok(s) => s,
        Err(e) => return aborted(0, started, &e),
    };
    let accountant = &accountants[0];
    let mut metrics = WindowedMetrics::new(window);
    let mut counts = ServeCounts::default();
    let mut errors = Vec::new();
    let mut account_s = 0.0;
    let mut carbon_g = 0.0;
    let mut jct_sum = 0.0;
    let mut makespan: f64 = 0.0;
    let mut completed_ids: Vec<bool> = Vec::new();
    let (mut seen_arrivals, mut seen_rejections, mut completions) = (0usize, 0usize, 0usize);
    let mut peak_resident = 0;
    let slices = (horizon / slice).ceil() as usize;
    let per_window = ((window / slice).round() as usize).max(1);
    for k in 1..=slices {
        let slice_started = Instant::now();
        let until = (k as f64 * slice).min(horizon);
        if let Err(e) = session.run_until_with_migration(
            until,
            router,
            migration,
            schedulers,
            admission
                .as_mut()
                .map(|a| &mut **a as &mut dyn AdmissionPolicy),
        ) {
            let mut trial = aborted(session.jobs_seen(), started, &e);
            trial.errors.extend(errors);
            return trial;
        }
        let records = session.drain_completions();
        let account_started = Instant::now();
        let grams: Vec<f64> = records
            .iter()
            .map(|r| job_carbon_grams(accountant, r))
            .collect();
        account_s += account_started.elapsed().as_secs_f64();
        let window_started = Instant::now();
        for _ in seen_arrivals..session.jobs_seen() {
            metrics.record_arrival();
        }
        seen_arrivals = session.jobs_seen();
        for _ in seen_rejections..session.jobs_rejected() {
            metrics.record_rejection();
        }
        seen_rejections = session.jobs_rejected();
        for (record, &g) in records.iter().zip(&grams) {
            metrics.record_completion(CompletionEvent {
                completion: record.completion,
                queue_delay: record.queue_delay(),
                service_hours: record.executor_seconds / 3600.0,
                carbon_grams: g,
            });
        }
        let close_window = k % per_window == 0 || k == slices;
        if close_window {
            metrics.sample(session.time(), session.jobs_in_system());
        }
        counts.window_s += window_started.elapsed().as_secs_f64();
        if close_window {
            let snap_started = Instant::now();
            std::hint::black_box(session.snapshot());
            counts
                .snapshot_us
                .push(snap_started.elapsed().as_secs_f64() * 1e6);
        }
        for (record, g) in records.iter().zip(grams) {
            let id = record.id.0 as usize;
            if completed_ids.len() <= id {
                completed_ids.resize(id + 1, false);
            }
            if std::mem::replace(&mut completed_ids[id], true) {
                errors.push(format!("job {id} completed twice"));
            }
            carbon_g += g;
            jct_sum += record.jct();
            makespan = makespan.max(record.completion);
        }
        completions += records.len();
        // Pulled = admitted + rejected + the one-job lookahead window.
        let accounted =
            session.jobs_completed() + session.jobs_rejected() + session.jobs_in_system();
        let seen = session.jobs_seen();
        if seen < accounted || seen > accounted + 1 {
            errors.push(format!(
                "slice {k}: {seen} pulled but {} completed + {} rejected + {} in system",
                session.jobs_completed(),
                session.jobs_rejected(),
                session.jobs_in_system()
            ));
        }
        if completions != session.jobs_completed() {
            errors.push(format!(
                "slice {k}: drained {completions} completions, engine counts {}",
                session.jobs_completed()
            ));
        }
        peak_resident = peak_resident.max(session.jobs_in_system());
        counts
            .slice_ms
            .push(slice_started.elapsed().as_secs_f64() * 1e3);
    }
    counts.rejected = session.jobs_rejected();
    counts.jobs_in_system = session.jobs_in_system();
    counts.resident_slots = session.resident_table_len();
    counts.arrivals = session.jobs_completed() + counts.rejected + counts.jobs_in_system;
    let result = session.finish();
    let wall_s = started.elapsed().as_secs_f64();
    if completions == 0 {
        errors.push("no job completed before the horizon".to_string());
    }
    Trial {
        wall_s,
        jobs: counts.arrivals,
        tasks: result.tasks_dispatched(),
        makespan,
        carbon_g,
        avg_jct_s: if completions == 0 {
            0.0
        } else {
            jct_sum / completions as f64
        },
        peak_resident_jobs: peak_resident,
        account_s,
        fed: fed_counts(&result),
        serve: Some(counts),
        layers: None,
        errors,
    }
}
