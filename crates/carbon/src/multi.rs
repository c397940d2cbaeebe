//! Multi-region trace containers with an aligned time base.
//!
//! A federated simulation drives one carbon trace per member cluster from a
//! single shared clock, so the member traces must agree on *when* intensity
//! values change: same start time and same step.  [`TraceSet`] enforces that
//! alignment at construction, and provides the common derivations the
//! experiment harness needs (per-region synthesis, shared windowing).

use crate::regions::GridRegion;
use crate::synth::SyntheticTraceGenerator;
use crate::trace::CarbonTrace;
use serde::{Deserialize, Serialize};

/// A set of carbon traces sharing one time base (equal `start` and `step`),
/// one per federation member, in member-index order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    traces: Vec<CarbonTrace>,
}

impl TraceSet {
    /// Creates a trace set, checking alignment.
    ///
    /// # Panics
    /// Panics if `traces` is empty or any trace disagrees with the first on
    /// `start` or `step` — a federation cannot step members on different
    /// clocks.  (Lengths may differ; traces wrap periodically.)
    pub fn new(traces: Vec<CarbonTrace>) -> Self {
        assert!(!traces.is_empty(), "a trace set needs at least one trace");
        let (start, step) = (traces[0].start, traces[0].step);
        for t in &traces[1..] {
            assert!(
                t.start == start && t.step == step,
                "trace {:?} is misaligned: start {} / step {} vs start {} / step {}",
                t.label,
                t.start,
                t.step,
                start,
                step
            );
        }
        TraceSet { traces }
    }

    /// Synthesises one calibrated trace per region (all hourly from time 0,
    /// hence aligned), each deterministic given `seed` — the multi-region
    /// analogue of [`SyntheticTraceGenerator::generate_hours`].
    pub fn for_regions(regions: &[GridRegion], seed: u64, hours: usize) -> Self {
        assert!(!regions.is_empty(), "a trace set needs at least one region");
        TraceSet::new(
            regions
                .iter()
                .map(|&r| SyntheticTraceGenerator::new(r, seed).generate_hours(hours))
                .collect(),
        )
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if the set has no traces (never the case once constructed).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The trace for member `i`.
    pub fn get(&self, i: usize) -> &CarbonTrace {
        &self.traces[i]
    }

    /// The traces, in member-index order.
    pub fn traces(&self) -> &[CarbonTrace] {
        &self.traces
    }

    /// Consumes the set, yielding the traces in member-index order.
    pub fn into_traces(self) -> Vec<CarbonTrace> {
        self.traces
    }

    /// The shared step of every trace in the set (seconds).
    pub fn step(&self) -> f64 {
        self.traces[0].step
    }

    /// Applies the same window (`offset` values in, `n` values long) to
    /// every trace, preserving alignment — the multi-region analogue of
    /// [`CarbonTrace::window`], used to start trials at varying offsets.
    pub fn windowed(&self, offset: usize, n: usize) -> TraceSet {
        TraceSet::new(self.traces.iter().map(|t| t.window(offset, n)).collect())
    }

    /// Labels of the traces, in member-index order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.traces.iter().map(|t| t.label.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_regions_is_aligned_and_labelled() {
        let set = TraceSet::for_regions(&GridRegion::ALL, 7, 48);
        assert_eq!(set.len(), 6);
        assert_eq!(set.step(), 3600.0);
        let labels: Vec<&str> = set.labels().collect();
        assert_eq!(labels, vec!["PJM", "CAISO", "ON", "DE", "NSW", "ZA"]);
        for t in set.traces() {
            assert_eq!(t.len(), 48);
            assert!(t.intensity(0.0) > 0.0);
        }
    }

    #[test]
    fn for_regions_is_deterministic() {
        let a = TraceSet::for_regions(&[GridRegion::Caiso, GridRegion::Germany], 3, 24);
        let b = TraceSet::for_regions(&[GridRegion::Caiso, GridRegion::Germany], 3, 24);
        assert_eq!(a, b);
        let c = TraceSet::for_regions(&[GridRegion::Caiso, GridRegion::Germany], 4, 24);
        assert_ne!(a, c);
    }

    #[test]
    fn windowed_preserves_alignment_and_values() {
        let set = TraceSet::for_regions(&[GridRegion::Pjm, GridRegion::Nsw], 1, 48);
        let w = set.windowed(5, 12);
        assert_eq!(w.len(), 2);
        for (orig, win) in set.traces().iter().zip(w.traces()) {
            assert_eq!(win.len(), 12);
            assert_eq!(win.values[0], orig.values[5]);
        }
    }

    #[test]
    fn lengths_may_differ_but_time_base_may_not() {
        // Different lengths are fine (traces wrap).
        let set = TraceSet::new(vec![
            CarbonTrace::hourly("a", vec![100.0; 10]),
            CarbonTrace::hourly("b", vec![200.0; 20]),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(1).intensity(0.0), 200.0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn mismatched_step_rejected() {
        let _ = TraceSet::new(vec![
            CarbonTrace::hourly("a", vec![100.0; 10]),
            CarbonTrace::new("b", 0.0, 1800.0, vec![200.0; 10]),
        ]);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn mismatched_start_rejected() {
        let _ = TraceSet::new(vec![
            CarbonTrace::hourly("a", vec![100.0; 10]),
            CarbonTrace::new("b", 7200.0, 3600.0, vec![200.0; 10]),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_set_rejected() {
        let _ = TraceSet::new(vec![]);
    }
}
