//! Fig. 20 (Appendix A.2.3): scheduler invocation latency as a function of
//! the number of outstanding jobs.
//!
//! Simple decision-rule policies (FIFO, CAP-FIFO) are expected to stay in
//! the microsecond range regardless of queue length; the Decima-like policy
//! and PCAPS recompute per-stage scores, so their latency grows with the
//! number of outstanding jobs, with PCAPS adding a small constant overhead
//! over Decima.
//!
//! The engine reads no wall clock, so this module times each policy from
//! outside: the policy runs wrapped in a [`LatencyProbe`], a forwarding
//! [`Scheduler`] that records the queue length every call saw and the host
//! time the call took.  The probe decides nothing, so the Jobs and Max
//! queue columns are deterministic and only the latency column is host
//! time.  perfbench's `--trace 1` times every scheduler call of its four
//! workloads the same way and reports the median and 99th percentile.

use crate::format::TextTable;
use crate::repro::Output;
use crate::runner::{BaseScheduler, ExperimentConfig, SchedulerSpec};
use pcaps_carbon::GridRegion;
use pcaps_cluster::{DecisionSink, SchedEvent, Scheduler, SchedulingContext, SimulationResult};
use std::time::Instant;

/// A forwarding [`Scheduler`] that times every call into the policy it
/// wraps.  It forwards each call unchanged, so a run through the probe
/// makes exactly the bare policy's decisions.
pub struct LatencyProbe {
    inner: Box<dyn Scheduler>,
    /// `(queue length, latency in seconds)` of every call, in call order:
    /// the active jobs the call saw and the host time it took.
    pub samples: Vec<(usize, f64)>,
}

impl LatencyProbe {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        LatencyProbe { inner, samples: Vec::new() }
    }

    /// Mean call latency in seconds (0 before the first call).
    pub fn mean_latency(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, s)| s).sum::<f64>() / self.samples.len() as f64
    }

    /// The longest queue any call saw (0 before the first call).
    pub fn max_queue(&self) -> usize {
        self.samples.iter().map(|&(q, _)| q).max().unwrap_or(0)
    }
}

impl Scheduler for LatencyProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(
        &mut self,
        event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        let queue_length = ctx.queue_length();
        let started = Instant::now();
        self.inner.on_event(event, ctx, out);
        self.samples.push((queue_length, started.elapsed().as_secs_f64()));
    }
}

/// Runs one trial of `spec` under `config` with the policy wrapped in a
/// [`LatencyProbe`].  The simulator and the scheduler seed are
/// [`run_trial`](crate::runner::run_trial)'s, so the result is that
/// trial's result.
pub fn probed_trial(
    config: &ExperimentConfig,
    spec: SchedulerSpec,
) -> (SimulationResult, LatencyProbe) {
    let sim = config.simulator_instance();
    let mut probe = LatencyProbe::new(spec.build(config.seed ^ 0x5EED, sim.carbon(), 60.0));
    let result = sim
        .run(&mut probe)
        .expect("experiment simulations are constructed to always complete");
    (result, probe)
}

/// Mean invocation latency (microseconds) for one scheduler at one queue
/// length.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Scheduler label.
    pub scheduler: String,
    /// Number of jobs in the batch (upper bound on the queue length).
    pub jobs: usize,
    /// Mean invocation latency in microseconds.
    pub mean_latency_us: f64,
    /// Largest observed queue length during the run.
    pub max_queue: usize,
}

/// Measures invocation latency for the four schedulers of Fig. 20 across the
/// given batch sizes.
pub fn run(job_counts: &[usize], executors: usize, seed: u64) -> Vec<LatencyPoint> {
    let specs = [
        ("FIFO", SchedulerSpec::Baseline(BaseScheduler::Fifo)),
        ("CAP-FIFO", SchedulerSpec::cap_moderate(BaseScheduler::Fifo)),
        ("Decima", SchedulerSpec::Baseline(BaseScheduler::Decima)),
        ("PCAPS", SchedulerSpec::pcaps_moderate()),
    ];
    let mut out = Vec::new();
    for &jobs in job_counts {
        let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, jobs, seed);
        cfg.executors = executors;
        // Submit everything at once so the queue actually holds `jobs` jobs.
        cfg.mean_interarrival = 0.001;
        for (label, spec) in specs {
            let (_, probe) = probed_trial(&cfg, spec);
            out.push(LatencyPoint {
                scheduler: label.to_string(),
                jobs,
                mean_latency_us: probe.mean_latency() * 1e6,
                max_queue: probe.max_queue(),
            });
        }
    }
    out
}

/// Fig. 20 (`quick`: up to 10 jobs on 20 executors).  Its latency column
/// is host time; the other columns are deterministic.
pub(crate) fn output(quick: bool) -> Output {
    let (counts, execs): (&[usize], usize) =
        if quick { (&[1, 5, 10], 20) } else { (&[1, 5, 10, 25, 50, 75, 100], 100) };
    let mut out = Output::table(
        "Fig. 20 — scheduler invocation latency (simulator, DE grid)",
        &render(&run(counts, execs, 42)),
    );
    out.text.push_str("(perfbench --trace 1 reports per-call p50/p99 on its four workloads.)\n");
    out
}

/// Renders the latency table.
pub fn render(points: &[LatencyPoint]) -> TextTable {
    let mut table = TextTable::new(&["Scheduler", "Jobs", "Max queue", "Mean latency (µs)"]);
    for p in points {
        table.row(vec![
            p.scheduler.clone(),
            p.jobs.to_string(),
            p.max_queue.to_string(),
            format!("{:.1}", p.mean_latency_us),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_trial;

    #[test]
    fn latency_is_small_and_grows_with_queue_for_ml_schedulers() {
        let points = run(&[2, 8], 16, 3);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(p.mean_latency_us >= 0.0);
            assert!(
                p.mean_latency_us < 50_000.0,
                "{} latency should stay well under 50 ms, got {:.0} µs",
                p.scheduler,
                p.mean_latency_us
            );
        }
        let decima_small = points
            .iter()
            .find(|p| p.scheduler == "Decima" && p.jobs == 2)
            .unwrap();
        let decima_large = points
            .iter()
            .find(|p| p.scheduler == "Decima" && p.jobs == 8)
            .unwrap();
        assert!(decima_large.max_queue >= decima_small.max_queue);
        assert!(!render(&points).is_empty());
    }

    /// The probe records every call and changes no decision: a probed trial
    /// schedules exactly like the bare one.
    #[test]
    fn probed_trials_schedule_like_bare_trials() {
        let mut cfg = ExperimentConfig::simulator(GridRegion::Germany, 6, 5);
        cfg.executors = 8;
        let fifo = SchedulerSpec::Baseline(BaseScheduler::Fifo);
        for spec in [fifo, SchedulerSpec::pcaps_moderate()] {
            let bare = run_trial(&cfg, spec).result;
            let (probed, probe) = probed_trial(&cfg, spec);
            assert_eq!(probed.jobs, bare.jobs, "{}", spec.label());
            assert_eq!(probed.makespan.to_bits(), bare.makespan.to_bits(), "{}", spec.label());
            assert_eq!(probed.tasks_dispatched, bare.tasks_dispatched, "{}", spec.label());
            assert!(!probe.samples.is_empty(), "{} was never called", spec.label());
            assert!(probe.samples.iter().all(|&(queue, latency)| queue >= 1 && latency >= 0.0));
        }
    }
}
