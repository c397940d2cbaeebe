//! # pcaps-metrics — evaluation metrics for carbon-aware scheduling
//!
//! The paper evaluates schedulers with three metrics (§6.1):
//!
//! * **Carbon footprint** — reported as a percentage decrease relative to the
//!   carbon-agnostic default baseline,
//! * **Job completion time (JCT)** — average per-job completion time as a
//!   fraction of the baseline's,
//! * **End-to-end completion time (ECT)** — total time to complete the whole
//!   batch as a fraction of the baseline's (the system-throughput metric the
//!   carbon-aware schedulers are designed to protect).
//!
//! [`footprint`] computes a run's carbon footprint from its usage profile,
//! [`summary`] turns a result into an [`ExperimentSummary`] and normalises
//! it against a baseline, [`stats`] provides the small statistical toolbox
//! the figures need (means, standard deviations, percentiles, polynomial
//! fits for the trade-off curves of Fig. 13), [`reliability`] prices
//! fault-injected runs: wasted work, wasted carbon, retries and goodput, and
//! [`windowed`] provides the steady-state observability layer — ring-buffer
//! windows over completion events emitting periodic [`SteadyStateSample`]s
//! (queueing-delay percentiles, carbon per job-hour, sustained throughput)
//! for open-arrival serving runs that never produce an end-of-run summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod footprint;
pub mod reliability;
pub mod stats;
pub mod summary;
pub mod windowed;

pub use footprint::total_footprint;
pub use reliability::ReliabilitySummary;
pub use stats::{mean, percentile, polyfit, std_dev, Series};
pub use summary::{ExperimentSummary, NormalizedSummary};
pub use windowed::{CompletionEvent, SteadyStateSample, WindowedMetrics};
