//! Steady-state serving sweep: open-arrival load × scheduler × admission.
//!
//! Every other experiment in this crate runs a finite batch to completion
//! and reports end-of-run summaries.  This one exercises the serving mode
//! instead: an unbounded [`WorkloadStream`] of jobs spaced by a diurnal
//! arrival process is pulled through a [`ServeSession`] in window-sized slices,
//! and each slice closes a [`WindowedMetrics`] window into one
//! [`SteadyStateSample`] — queueing-delay percentiles, sustained
//! throughput, carbon per executor-hour, and a jobs-in-system gauge.
//!
//! The sweep crosses arrival-rate multipliers (scaling the offered load
//! from comfortably sub-critical to past saturation) with
//! {FIFO, PCAPS} × admission {none, bounded-queue}.  The interesting
//! regime is the overloaded one: PCAPS defers work into green windows,
//! which a finite trial charges as a one-off makespan stretch but an
//! open-arrival run exposes as *standing* queueing delay — and without
//! admission control, as unbounded queue growth.  The bounded-queue rows
//! show the alternative: rejections absorb the overload and delay
//! percentiles stay finite.
//!
//! Entry: `steady_state`; CSV: `results/steady_state.csv` (one row per
//! window per trial).
//!
//! [`WorkloadStream`]: pcaps_workloads::WorkloadStream
//! [`ServeSession`]: pcaps_cluster::ServeSession

use crate::format::TextTable;
use crate::repro::Output;
use crate::runner::{BaseScheduler, SchedulerSpec};
use crate::streaming::StreamSource;
use pcaps_carbon::synth::SyntheticTraceGenerator;
use pcaps_carbon::{CarbonAccountant, CarbonTrace, GridRegion};
use pcaps_cluster::{
    AdmissionPolicy, BoundedQueue, ClusterConfig, Scheduler, Simulator, StaticRouter,
};
use pcaps_metrics::{CompletionEvent, SteadyStateSample, WindowedMetrics};
use pcaps_workloads::{DiurnalArrivals, WorkloadBuilder, WorkloadKind};

/// Admission-control arm of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionSpec {
    /// Every arrival is admitted (queues may grow without bound under
    /// overload).
    None,
    /// [`BoundedQueue`] backpressure: reject arrivals routed to a member
    /// already holding this many jobs in system.
    Bounded(usize),
}

impl AdmissionSpec {
    /// Label used in tables and CSV rows.
    pub fn label(&self) -> String {
        match self {
            AdmissionSpec::None => "none".to_string(),
            AdmissionSpec::Bounded(n) => format!("bounded({n})"),
        }
    }
}

/// Configuration of one steady-state serving trial (shared across the
/// sweep's arms; only the rate multiplier, scheduler, and admission vary).
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateConfig {
    /// Grid region whose synthetic trace drives carbon intensity.
    pub region: GridRegion,
    /// Workload kind sampled by the unbounded stream.
    pub workload: WorkloadKind,
    /// Base mean inter-arrival time (schedule seconds) at rate ×1.
    pub mean_interarrival: f64,
    /// Diurnal day/night swing of the arrival process, in `[0, 1)`.
    pub amplitude: f64,
    /// Cluster size `K`.
    pub executors: usize,
    /// Serving horizon (schedule seconds).  Under the paper's 1 min ↔ 1 h
    /// scaling, one diurnal day is 1440 schedule seconds.
    pub horizon: f64,
    /// Metrics window length (schedule seconds); one sample per window.
    pub window: f64,
    /// Base random seed (workload sampling, arrivals, schedulers).
    pub seed: u64,
    /// Days of synthetic carbon trace to generate (must cover the horizon
    /// at the 60× time scale).
    pub trace_days: usize,
}

impl SteadyStateConfig {
    /// The default serving setup: two diurnal days of TPC-H arrivals on a
    /// 20-executor cluster, sampled every 2 trace-hours.
    pub fn standard(region: GridRegion, seed: u64) -> Self {
        SteadyStateConfig {
            region,
            workload: WorkloadKind::TpchMixed,
            mean_interarrival: 30.0,
            amplitude: 0.6,
            executors: 20,
            horizon: 2880.0,
            window: 120.0,
            seed,
            trace_days: 7,
        }
    }

    /// The carbon trace the serving run is accounted against.
    pub fn trace(&self) -> CarbonTrace {
        SyntheticTraceGenerator::new(self.region, self.seed ^ 0xCA4B0)
            .generate_days(self.trace_days)
    }

    /// The cluster configuration (paper time scale: 1 min ↔ 1 h).
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::new(self.executors).with_time_scale(60.0)
    }
}

/// Output of one serving trial: the per-window sample series plus
/// whole-run conservation totals.
#[derive(Debug, Clone)]
pub struct SteadyTrialOutput {
    /// Which scheduler served the trial.
    pub spec: SchedulerSpec,
    /// Which admission policy gated arrivals.
    pub admission: AdmissionSpec,
    /// Arrival-rate multiplier (offered load relative to the base rate).
    pub rate_multiplier: f64,
    /// One sample per closed window, in time order.
    pub samples: Vec<SteadyStateSample>,
    /// Arrivals pulled from the stream over the whole run.
    pub arrivals: usize,
    /// Jobs completed over the whole run.
    pub completed: usize,
    /// Jobs rejected by admission control over the whole run.
    pub rejected: usize,
    /// Jobs still in the system when the horizon was reached.
    pub in_system_at_horizon: usize,
    /// Resident per-job bookkeeping slots at the horizon (compaction
    /// keeps this near `in_system_at_horizon`, not total arrivals).
    pub resident_table_len: usize,
}

impl SteadyTrialOutput {
    /// The worst p99 queueing delay any window observed.
    pub fn peak_p99_queue_delay(&self) -> f64 {
        self.samples.iter().map(|s| s.p99_queue_delay).fold(0.0, f64::max)
    }

    /// The largest jobs-in-system gauge any window observed.
    pub fn peak_jobs_in_system(&self) -> usize {
        self.samples.iter().map(|s| s.jobs_in_system).max().unwrap_or(0)
    }

    /// Mean carbon per executor-hour over windows that delivered service.
    pub fn mean_carbon_per_hour(&self) -> f64 {
        let active: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.carbon_per_job_hour > 0.0)
            .map(|s| s.carbon_per_job_hour)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

/// Carbon attributed to one completed job: the trace integral over the
/// job's service span `[first_start, completion]` at its average
/// parallelism (`executor_seconds / span`).  Jobs with a degenerate span
/// contribute nothing — they also consumed no executor time.
fn job_carbon_grams(
    accountant: &CarbonAccountant,
    first_start: f64,
    completion: f64,
    executor_seconds: f64,
) -> f64 {
    let span = completion - first_start;
    if span <= 0.0 || executor_seconds <= 0.0 {
        return 0.0;
    }
    accountant.footprint_interval_grams(executor_seconds / span, first_start, completion)
}

/// Runs one open-arrival serving trial: an unbounded diurnal stream at
/// `rate_multiplier` times the base arrival rate, served by `spec` under
/// `admission` until the configured horizon, sampled every window.
pub fn run_steady_trial(
    config: &SteadyStateConfig,
    rate_multiplier: f64,
    spec: SchedulerSpec,
    admission: AdmissionSpec,
) -> SteadyTrialOutput {
    assert!(
        rate_multiplier > 0.0 && rate_multiplier.is_finite(),
        "rate multiplier must be positive and finite, got {rate_multiplier}"
    );
    let trace = config.trace();
    let accountant = CarbonAccountant::new(trace.clone()).with_time_scale(60.0);
    let sim = Simulator::streaming(config.cluster_config(), trace);
    let mut scheduler = spec.build(config.seed ^ 0x5EED, sim.carbon(), 60.0);

    // The same DAG stream at every rate: only the arrival spacing changes,
    // so two multipliers see the same jobs arriving faster or slower.
    let arrivals = DiurnalArrivals::new(
        config.mean_interarrival / rate_multiplier,
        config.amplitude,
        1440.0,
        config.seed ^ 0xA11CE,
    );
    let builder = WorkloadBuilder::new(config.workload, config.seed);
    let mut source = StreamSource::new(builder.stream_unbounded(arrivals));

    let mut session = sim
        .serve(&mut source)
        .expect("a streaming simulator has no construction-time poison");
    let mut router = StaticRouter::new(0);
    let mut bounded;
    let mut gate: Option<&mut BoundedQueue> = match admission {
        AdmissionSpec::None => None,
        AdmissionSpec::Bounded(n) => {
            bounded = BoundedQueue::new(n);
            Some(&mut bounded)
        }
    };

    let mut metrics = WindowedMetrics::new(config.window);
    let mut samples = Vec::new();
    let mut seen_arrivals = 0usize;
    let mut seen_rejections = 0usize;
    let windows = (config.horizon / config.window).ceil() as usize;
    for w in 1..=windows {
        let horizon = (w as f64 * config.window).min(config.horizon);
        {
            let mut schedulers: [&mut dyn Scheduler; 1] = [scheduler.as_mut()];
            session
                .run_until(
                    horizon,
                    &mut router,
                    &mut schedulers,
                    gate.as_deref_mut().map(|g| g as &mut dyn AdmissionPolicy),
                )
                .expect("an open-loop serving slice cannot fail mid-run");
        }
        for _ in seen_arrivals..session.jobs_seen() {
            metrics.record_arrival();
        }
        seen_arrivals = session.jobs_seen();
        for _ in seen_rejections..session.jobs_rejected() {
            metrics.record_rejection();
        }
        seen_rejections = session.jobs_rejected();
        for record in session.drain_completions() {
            metrics.record_completion(CompletionEvent {
                completion: record.completion,
                queue_delay: record.queue_delay(),
                service_hours: record.executor_seconds / 3600.0,
                carbon_grams: job_carbon_grams(
                    &accountant,
                    record.first_start,
                    record.completion,
                    record.executor_seconds,
                ),
            });
        }
        samples.push(metrics.sample(session.time(), session.jobs_in_system()));
    }
    SteadyTrialOutput {
        spec,
        admission,
        rate_multiplier,
        arrivals: session.jobs_seen(),
        completed: session.jobs_completed(),
        rejected: session.jobs_rejected(),
        in_system_at_horizon: session.jobs_in_system(),
        resident_table_len: session.resident_table_len(),
        samples,
    }
}

/// Runs the full sweep: every rate multiplier × scheduler × admission arm.
pub fn steady_state_sweep(
    config: &SteadyStateConfig,
    rate_multipliers: &[f64],
    specs: &[SchedulerSpec],
    admissions: &[AdmissionSpec],
) -> Vec<SteadyTrialOutput> {
    let mut out = Vec::new();
    for &rate in rate_multipliers {
        for &spec in specs {
            for &admission in admissions {
                out.push(run_steady_trial(config, rate, spec, admission));
            }
        }
    }
    out
}

/// The sweep behind `results/steady_state.csv` on the German grid: every
/// rate multiplier × [`default_specs`] × admission (none, and a queue
/// bounded at `4·K`).  `quick` shortens the horizon to 720 schedule seconds
/// on 12 executors at two rates.
pub(crate) fn output(quick: bool) -> Output {
    let mut config = SteadyStateConfig::standard(GridRegion::Germany, 42);
    let rates = if quick {
        config.horizon = 720.0;
        config.executors = 12;
        vec![1.0, 3.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0]
    };
    let specs = default_specs();
    let admissions = [AdmissionSpec::None, AdmissionSpec::Bounded(4 * config.executors)];
    let outputs = steady_state_sweep(&config, &rates, &specs, &admissions);
    let text = format!(
        "Steady-state serving sweep — {} rate multipliers × {} schedulers × {} admission arms\n\
         ({} schedule-second horizon, {}-second windows, diurnal amplitude {})\n\n\
         {}\n\
         Past saturation the finite-trial story inverts: PCAPS's deferral into green\n\
         windows shows up as standing queueing delay (and without admission control,\n\
         as an ever-growing backlog), while the bounded-queue arms trade rejections\n\
         for finite delay percentiles.  See results/steady_state.csv for the full\n\
         per-window percentile series.\n",
        rates.len(),
        specs.len(),
        admissions.len(),
        config.horizon,
        config.window,
        config.amplitude,
        render(&outputs).render(),
    );
    Output { text, csv: to_csv(&outputs) }
}

/// The sweep's default scheduler arms: FIFO and moderately carbon-aware
/// PCAPS.
pub fn default_specs() -> Vec<SchedulerSpec> {
    vec![
        SchedulerSpec::Baseline(BaseScheduler::Fifo),
        SchedulerSpec::pcaps_moderate(),
    ]
}

/// Renders one summary row per trial (peak delay, peak backlog, totals).
pub fn render(outputs: &[SteadyTrialOutput]) -> TextTable {
    let mut table = TextTable::new(&[
        "Scheduler",
        "Admission",
        "Rate",
        "Arrivals",
        "Completed",
        "Rejected",
        "Peak in-system",
        "Peak p99 delay",
        "gCO2/exec-h",
    ]);
    for o in outputs {
        table.row(vec![
            o.spec.label(),
            o.admission.label(),
            format!("x{:.2}", o.rate_multiplier),
            o.arrivals.to_string(),
            o.completed.to_string(),
            o.rejected.to_string(),
            o.peak_jobs_in_system().to_string(),
            format!("{:.1}", o.peak_p99_queue_delay()),
            format!("{:.1}", o.mean_carbon_per_hour()),
        ]);
    }
    table
}

/// Serialises every window of every trial to CSV (the `steady_state.csv`
/// artefact): one row per window with the full percentile series.
pub fn to_csv(outputs: &[SteadyTrialOutput]) -> String {
    let mut out = String::from(
        "scheduler,admission,rate_multiplier,window_start,window_end,arrivals,\
         completions,rejections,throughput_per_hour,p50_queue_delay,\
         p95_queue_delay,p99_queue_delay,carbon_per_job_hour,jobs_in_system\n",
    );
    for o in outputs {
        for s in &o.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                o.spec.label(),
                o.admission.label(),
                o.rate_multiplier,
                s.window_start,
                s.window_end,
                s.arrivals,
                s.completions,
                s.rejections,
                s.throughput_per_hour,
                s.p50_queue_delay,
                s.p95_queue_delay,
                s.p99_queue_delay,
                s.carbon_per_job_hour,
                s.jobs_in_system,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SteadyStateConfig {
        let mut c = SteadyStateConfig::standard(GridRegion::Germany, 7);
        c.executors = 8;
        c.horizon = 360.0;
        c.window = 60.0;
        c.trace_days = 2;
        c
    }

    #[test]
    fn trial_emits_one_sample_per_window_and_conserves_jobs() {
        let cfg = tiny_config();
        let out = run_steady_trial(
            &cfg,
            1.0,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            AdmissionSpec::None,
        );
        assert_eq!(out.samples.len(), 6, "360 s horizon / 60 s window");
        assert!(out.arrivals > 0, "a 30 s mean spacing must produce arrivals");
        assert_eq!(out.rejected, 0, "no admission policy, no rejections");
        // jobs_seen counts the lookahead pull; everything seen is either
        // done, in flight, or parked in the lookahead window.
        assert!(out.completed + out.in_system_at_horizon <= out.arrivals);
        assert!(out.arrivals <= out.completed + out.in_system_at_horizon + 1);
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = tiny_config();
        let spec = SchedulerSpec::pcaps_moderate();
        let a = run_steady_trial(&cfg, 1.5, spec, AdmissionSpec::Bounded(10));
        let b = run_steady_trial(&cfg, 1.5, spec, AdmissionSpec::Bounded(10));
        assert_eq!(a.samples, b.samples, "same seed must reproduce the series");
        assert_eq!((a.arrivals, a.completed, a.rejected), (b.arrivals, b.completed, b.rejected));
    }

    #[test]
    fn bounded_admission_rejects_under_overload_and_conserves() {
        let cfg = tiny_config();
        let out = run_steady_trial(
            &cfg,
            4.0,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            AdmissionSpec::Bounded(4),
        );
        assert!(out.rejected > 0, "4x overload against a 4-deep bound must shed");
        // Conservation: every non-lookahead arrival was admitted or rejected,
        // and admitted jobs are either complete or still in the system.
        assert!(
            out.completed + out.in_system_at_horizon + out.rejected <= out.arrivals,
            "admitted + rejected cannot exceed arrivals"
        );
        assert!(
            out.arrivals <= out.completed + out.in_system_at_horizon + out.rejected + 1,
            "at most the one lookahead job may be unaccounted"
        );
        // The bound also caps the gauge the windows report.
        assert!(out.peak_jobs_in_system() <= 4 + 1, "backpressure bounds the backlog");
    }

    #[test]
    fn overload_grows_backlog_without_admission() {
        let cfg = tiny_config();
        let calm = run_steady_trial(
            &cfg,
            0.5,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            AdmissionSpec::None,
        );
        let slammed = run_steady_trial(
            &cfg,
            6.0,
            SchedulerSpec::Baseline(BaseScheduler::Fifo),
            AdmissionSpec::None,
        );
        assert!(
            slammed.peak_jobs_in_system() > calm.peak_jobs_in_system(),
            "12x the offered load must grow the backlog"
        );
    }

    #[test]
    fn csv_has_one_row_per_window_plus_header() {
        let cfg = tiny_config();
        let outputs = steady_state_sweep(
            &cfg,
            &[1.0],
            &[SchedulerSpec::Baseline(BaseScheduler::Fifo)],
            &[AdmissionSpec::None, AdmissionSpec::Bounded(8)],
        );
        let csv = to_csv(&outputs);
        let expected_rows: usize = outputs.iter().map(|o| o.samples.len()).sum();
        assert_eq!(csv.lines().count(), expected_rows + 1);
        assert!(csv.starts_with("scheduler,admission,rate_multiplier"));
        let table = render(&outputs);
        assert_eq!(table.len(), outputs.len());
    }
}
