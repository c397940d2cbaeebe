//! Streaming workload intake for experiments: the bridge from workload
//! generator streams to the cluster engine, plus the streamed twin of
//! [`run_trial`].
//!
//! Generators and engine share one job type, [`SubmittedJob`]: a
//! [`WorkloadStream`] yields exactly what the engine's [`ArrivalSource`]
//! pulls.  [`StreamSource`] forwards such a stream to the engine and tells
//! it that every DAG is already valid, so the engine skips its per-pull
//! `validate()` call.  Only generator streams ([`GeneratedStream`]) can be
//! wrapped; any other iterator of jobs is a source on its own, which the
//! engine validates on every pull.
//!
//! [`run_trial`]: crate::runner::run_trial
//! [`WorkloadStream`]: pcaps_workloads::WorkloadStream

use crate::runner::{ExperimentConfig, SchedulerSpec, TrialOutput};
use pcaps_cluster::source::ArrivalSource;
use pcaps_cluster::{Simulator, SubmittedJob};
use pcaps_metrics::ExperimentSummary;
use pcaps_workloads::GeneratedStream;

/// A generator stream as an engine [`ArrivalSource`] whose jobs skip the
/// engine's per-pull DAG validation: the generators built every DAG
/// through `JobDagBuilder::build`, which validates, and the stream yields
/// the jobs untouched.
///
/// Only [`GeneratedStream`]s can be wrapped, so the claim holds by type.
/// An iterator of jobs edited after generation is not one:
///
/// ```compile_fail
/// use pcaps_experiments::streaming::StreamSource;
/// use pcaps_workloads::{WorkloadBuilder, WorkloadKind};
///
/// let jobs = WorkloadBuilder::new(WorkloadKind::TpchMixed, 1).jobs(3).build();
/// let _ = StreamSource::new(jobs.into_iter());
/// ```
#[derive(Debug)]
pub struct StreamSource<S> {
    inner: S,
}

impl<S: GeneratedStream> StreamSource<S> {
    /// Wraps a generator stream.
    pub fn new(inner: S) -> Self {
        StreamSource { inner }
    }
}

impl<S: GeneratedStream> ArrivalSource for StreamSource<S> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn prevalidated(&self) -> bool {
        true
    }
}

/// The streamed twin of [`run_trial`]: same configuration, same scheduler
/// construction, same carbon accounting — but the workload is pulled
/// lazily from [`ExperimentConfig::workload_builder`]'s stream instead of
/// being materialized before the simulator is built.  Because the lazy
/// stream collects to exactly the materialized workload and the engine's
/// intake window preserves event ordering, the two trials produce
/// bit-identical results (pinned by `tests/streaming.rs`).
///
/// [`run_trial`]: crate::runner::run_trial
pub fn run_streamed_trial(config: &ExperimentConfig, spec: SchedulerSpec) -> TrialOutput {
    let sim = Simulator::streaming(config.cluster_config(), config.trace());
    let accountant = config.accountant();
    let seed = config.seed ^ 0x5EED;
    let mut scheduler = spec.build(seed, sim.carbon(), 60.0);
    let mut source = StreamSource::new(config.workload_builder().stream());
    let result = sim
        .run_source(&mut source, scheduler.as_mut())
        .expect("experiment simulations are constructed to always complete");
    let summary = ExperimentSummary::of(&result, &accountant);
    TrialOutput {
        spec,
        result,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_trial, BaseScheduler};
    use pcaps_carbon::GridRegion;
    use pcaps_workloads::WorkloadKind;

    fn small_config() -> ExperimentConfig {
        let mut c = ExperimentConfig::simulator(GridRegion::Germany, 8, 1);
        c.executors = 20;
        c.trace_days = 7;
        c.workload = WorkloadKind::Alibaba;
        c
    }

    #[test]
    fn streamed_trial_matches_materialized_trial() {
        let cfg = small_config();
        let spec = SchedulerSpec::Baseline(BaseScheduler::Fifo);
        let streamed = run_streamed_trial(&cfg, spec);
        let materialized = run_trial(&cfg, spec);
        assert_eq!(streamed.result.makespan, materialized.result.makespan);
        assert_eq!(streamed.result.jobs, materialized.result.jobs);
        assert_eq!(streamed.summary.carbon_grams, materialized.summary.carbon_grams);
    }

    #[test]
    fn stream_source_converts_like_the_materialized_harness() {
        let builder = crate::runner::ExperimentConfig::simulator(GridRegion::Caiso, 5, 3)
            .workload_builder();
        let mut source = StreamSource::new(builder.stream());
        assert_eq!(ArrivalSource::size_hint(&source), (5, Some(5)));
        assert!(source.prevalidated());
        let mut pulled = Vec::new();
        while let Some(j) = source.next_job() {
            pulled.push(j);
        }
        assert_eq!(pulled, builder.build());
    }
}
