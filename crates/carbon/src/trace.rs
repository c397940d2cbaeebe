//! Piecewise-constant carbon intensity traces.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A piecewise-constant carbon intensity trace.
///
/// The value reported for any time inside `[start + i*step, start + (i+1)*step)`
/// is `values[i]`.  Queries before the start return the first value; queries
/// past the end wrap around (the trace is treated as periodic), which lets
/// multi-day experiments run against a trace of any length — matching the
/// paper's methodology of running each experiment "over a full carbon trace".
#[derive(Debug, Serialize, Deserialize)]
pub struct CarbonTrace {
    /// Trace start time in seconds (usually 0).
    pub start: f64,
    /// Seconds between consecutive reported values (3600 for hourly data).
    pub step: f64,
    /// Reported intensities in gCO₂eq/kWh.
    ///
    /// Do not mutate after construction: [`CarbonTrace::bounds`] answers
    /// from a range-min/max index built over these values on first query,
    /// so in-place mutation serves stale bounds silently.  Derive changed
    /// traces through the constructors or [`CarbonTrace::window`] instead.
    pub values: Vec<f64>,
    /// Optional human-readable label (e.g., the grid code).
    pub label: String,
    /// Lazily built sparse-table range-min/max index answering
    /// [`CarbonTrace::bounds`] in O(1) per query.  Derived from `values`;
    /// excluded from `Clone`/`PartialEq` (it is a cache, rebuilt on demand).
    #[serde(skip)]
    bounds_index: OnceLock<RangeIndex>,
}

impl Clone for CarbonTrace {
    fn clone(&self) -> Self {
        CarbonTrace {
            start: self.start,
            step: self.step,
            values: self.values.clone(),
            label: self.label.clone(),
            // Deliberately not cloned: the index can be megabytes for long
            // traces and is cheap to rebuild where it is actually queried.
            bounds_index: OnceLock::new(),
        }
    }
}

impl PartialEq for CarbonTrace {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.step == other.step
            && self.values == other.values
            && self.label == other.label
    }
}

/// Sparse table over the trace's values (conceptually doubled to answer
/// wrap-around windows): `levels[k][i]` holds the min/max over the `2^k`
/// values starting at doubled index `i`.  Built in O(n log n), answers any
/// range min/max in O(1) with two overlapping power-of-two lookups.
#[derive(Debug)]
struct RangeIndex {
    levels: Vec<Vec<(f64, f64)>>,
}

impl RangeIndex {
    fn build(values: &[f64]) -> Self {
        let n = values.len();
        let doubled = 2 * n;
        let mut level0 = Vec::with_capacity(doubled);
        for i in 0..doubled {
            let v = values[i % n];
            level0.push((v, v));
        }
        let mut levels = vec![level0];
        let mut width = 1usize;
        while width * 2 <= doubled {
            let prev = levels.last().expect("at least level 0 exists");
            let next: Vec<(f64, f64)> = (0..doubled - width * 2 + 1)
                .map(|i| {
                    let (lo1, hi1) = prev[i];
                    let (lo2, hi2) = prev[i + width];
                    (lo1.min(lo2), hi1.max(hi2))
                })
                .collect();
            levels.push(next);
            width *= 2;
        }
        RangeIndex { levels }
    }

    /// Min/max over `len` values starting at wrapped index `start`
    /// (`start < n`, `len <= n`).
    fn query(&self, start: usize, len: usize) -> (f64, f64) {
        debug_assert!(len >= 1);
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let width = 1usize << k;
        let (lo1, hi1) = self.levels[k][start];
        let (lo2, hi2) = self.levels[k][start + len - width];
        (lo1.min(lo2), hi1.max(hi2))
    }
}

impl CarbonTrace {
    /// Creates a trace from raw values.
    ///
    /// # Panics
    /// Panics if `values` is empty, `step <= 0`, or any value is negative or
    /// non-finite — traces are static experiment inputs, so malformed data is
    /// a programming error.
    pub fn new(label: impl Into<String>, start: f64, step: f64, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "carbon trace must contain at least one value");
        assert!(step > 0.0 && step.is_finite(), "trace step must be positive");
        for (i, v) in values.iter().enumerate() {
            assert!(
                v.is_finite() && *v >= 0.0,
                "carbon intensity at index {i} must be finite and non-negative, got {v}"
            );
        }
        CarbonTrace {
            start,
            step,
            values,
            label: label.into(),
            bounds_index: OnceLock::new(),
        }
    }

    /// Creates an hourly trace starting at time 0.
    pub fn hourly(label: impl Into<String>, values: Vec<f64>) -> Self {
        CarbonTrace::new(label, 0.0, 3600.0, values)
    }

    /// A constant trace — useful for tests and for modelling a grid with no
    /// variability (carbon-aware schedulers should degenerate to their
    /// carbon-agnostic behaviour on such a trace).
    pub fn constant(label: impl Into<String>, value: f64, points: usize) -> Self {
        CarbonTrace::hourly(label, vec![value; points.max(1)])
    }

    /// Number of reported values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace has no values (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration in seconds (before wrapping).
    pub fn duration(&self) -> f64 {
        self.step * self.values.len() as f64
    }

    /// Index of the value in effect at time `t` (with periodic wrapping).
    pub fn index_at(&self, t: f64) -> usize {
        let rel = (t - self.start).max(0.0);
        let idx = (rel / self.step).floor() as usize;
        idx % self.values.len()
    }

    /// Carbon intensity (gCO₂eq/kWh) at time `t` seconds.
    pub fn intensity(&self, t: f64) -> f64 {
        self.values[self.index_at(t)]
    }

    /// Minimum and maximum intensity over the window `[t, t + horizon]`.
    /// These are the `L` and `U` bounds used by threshold-based algorithms.
    pub fn bounds(&self, t: f64, horizon: f64) -> (f64, f64) {
        assert!(horizon >= 0.0, "lookahead horizon must be non-negative");
        let first = self.index_at(t);
        let steps = (horizon / self.step).ceil() as usize + 1;
        let steps = steps.min(self.values.len());
        // O(1) per query from the sparse table (built once per trace on
        // first use).  The window covers exactly the `steps` wrapped values
        // a linear scan would visit, so results are bit-identical.
        self.bounds_index
            .get_or_init(|| RangeIndex::build(&self.values))
            .query(first, steps)
    }

    /// The time at which the value currently in effect at `t` changes.
    pub fn next_change(&self, t: f64) -> f64 {
        let rel = (t - self.start).max(0.0);
        let idx = (rel / self.step).floor();
        self.start + (idx + 1.0) * self.step
    }

    /// Minimum intensity over the whole trace.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum intensity over the whole trace.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean intensity over the whole trace.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Returns a sub-trace of `n` values starting at value index `offset`
    /// (wrapping around the end), re-anchored to start at time 0.  Used by
    /// the experiment harness to start trials at random offsets in the trace.
    pub fn window(&self, offset: usize, n: usize) -> CarbonTrace {
        assert!(n > 0, "window must contain at least one value");
        let len = self.values.len();
        let values = (0..n).map(|i| self.values[(offset + i) % len]).collect();
        CarbonTrace::new(self.label.clone(), 0.0, self.step, values)
    }

    /// Earliest time `>= from` at which the trace's intensity is at or
    /// below `threshold`: `from` itself if the value in effect at `from`
    /// already qualifies, otherwise the start of the first qualifying step
    /// (step boundaries are where a piecewise-constant trace can change).
    /// Returns `None` if no value of the (periodic) trace qualifies.
    ///
    /// Answered in O(log len) via a binary search over the same range-min
    /// index that serves [`CarbonTrace::bounds`], so schedulers may resolve
    /// threshold crossings on the hot path without a linear trace walk.
    pub fn next_time_at_or_below(&self, from: f64, threshold: f64) -> Option<f64> {
        let first = self.index_at(from);
        if self.values[first] <= threshold {
            return Some(from);
        }
        let n = self.values.len();
        let index = self
            .bounds_index
            .get_or_init(|| RangeIndex::build(&self.values));
        if index.query(first, n).0 > threshold {
            return None;
        }
        // Smallest window length whose minimum qualifies; its last step is
        // the first qualifying one.  `lo >= 2` because window length 1 (the
        // current step) was ruled out above.
        let (mut lo, mut hi) = (2usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if index.query(first, mid).0 <= threshold {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // The qualifying step starts `lo - 1` steps after the current one.
        Some(self.next_change(from) + (lo - 2) as f64 * self.step)
    }

    /// Integrates the intensity over `[t0, t1]`, returning
    /// gCO₂eq/kWh · seconds.  Used by the accounting module.
    pub fn integrate(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut t = t0;
        // Walk step boundaries; bounded by the number of steps in [t0, t1].
        while t < t1 {
            let seg_end = self.next_change(t).min(t1);
            total += self.intensity(t) * (seg_end - t);
            t = seg_end;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> CarbonTrace {
        CarbonTrace::hourly("test", vec![100.0, 200.0, 300.0, 50.0])
    }

    #[test]
    fn indexing_and_intensity() {
        let t = trace();
        assert_eq!(t.intensity(0.0), 100.0);
        assert_eq!(t.intensity(3599.0), 100.0);
        assert_eq!(t.intensity(3600.0), 200.0);
        assert_eq!(t.intensity(3.5 * 3600.0), 50.0);
    }

    #[test]
    fn wraps_periodically() {
        let t = trace();
        assert_eq!(t.intensity(4.0 * 3600.0), 100.0);
        assert_eq!(t.intensity(9.0 * 3600.0), 200.0);
    }

    #[test]
    fn next_change_is_step_boundary() {
        let t = trace();
        assert_eq!(t.next_change(0.0), 3600.0);
        assert_eq!(t.next_change(3599.9), 3600.0);
        assert_eq!(t.next_change(3600.0), 7200.0);
    }

    #[test]
    fn min_max_mean() {
        let t = trace();
        assert_eq!(t.min(), 50.0);
        assert_eq!(t.max(), 300.0);
        assert!((t.mean() - 162.5).abs() < 1e-12);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.duration(), 4.0 * 3600.0);
    }

    #[test]
    fn bounds_limited_to_horizon() {
        let t = trace();
        // Looking ahead only one hour from t=0 sees values {100, 200}.
        let (l, u) = t.bounds(0.0, 3600.0);
        assert_eq!((l, u), (100.0, 200.0));
        // Looking ahead the full trace sees everything.
        let (l, u) = t.bounds(0.0, 24.0 * 3600.0);
        assert_eq!((l, u), (50.0, 300.0));
    }

    #[test]
    fn next_time_at_or_below_finds_first_crossing() {
        let t = trace(); // [100, 200, 300, 50] hourly
        // Already at or below: returns the query time itself.
        assert_eq!(t.next_time_at_or_below(0.0, 100.0), Some(0.0));
        assert_eq!(t.next_time_at_or_below(1800.0, 150.0), Some(1800.0));
        // From hour 1 (200), the first value <= 150 is hour 3 (50).
        assert_eq!(t.next_time_at_or_below(3600.0, 150.0), Some(3.0 * 3600.0));
        // From mid-hour 1, same target step.
        assert_eq!(t.next_time_at_or_below(5400.0, 150.0), Some(3.0 * 3600.0));
        // From hour 2 (300), hour 3's 50 is the first value at or below 100.
        assert_eq!(t.next_time_at_or_below(2.0 * 3600.0, 100.0), Some(3.0 * 3600.0));
        // From the wrapped hour 0 (t = 4 h, value 100), a threshold of 60 is
        // first met at the wrapped hour 3 — absolute time 7 h.
        assert_eq!(t.next_time_at_or_below(4.0 * 3600.0, 60.0), Some(7.0 * 3600.0));
        // Threshold below the trace minimum: never.
        assert_eq!(t.next_time_at_or_below(0.0, 10.0), None);
    }

    #[test]
    fn next_time_at_or_below_matches_linear_scan() {
        let values = vec![400.0, 380.0, 250.0, 310.0, 90.0, 120.0, 500.0];
        let t = CarbonTrace::hourly("scan", values.clone());
        for from_step in 0..14 {
            let from = from_step as f64 * 1800.0; // half-step offsets too
            for threshold in [50.0, 95.0, 130.0, 260.0, 390.0, 600.0] {
                // Naive: walk step starts from `from` until a value
                // qualifies or a full period was scanned.
                let mut expected = None;
                let mut cursor = from;
                for _ in 0..=values.len() {
                    if t.intensity(cursor) <= threshold {
                        expected = Some(cursor);
                        break;
                    }
                    cursor = t.next_change(cursor);
                }
                assert_eq!(
                    t.next_time_at_or_below(from, threshold),
                    expected,
                    "from {from}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn integrate_piecewise() {
        let t = trace();
        // One full hour at 100.
        assert!((t.integrate(0.0, 3600.0) - 100.0 * 3600.0).abs() < 1e-6);
        // Half of hour 0 plus half of hour 1.
        let v = t.integrate(1800.0, 5400.0);
        assert!((v - (100.0 * 1800.0 + 200.0 * 1800.0)).abs() < 1e-6);
        // Degenerate interval.
        assert_eq!(t.integrate(100.0, 100.0), 0.0);
        assert_eq!(t.integrate(200.0, 100.0), 0.0);
    }

    #[test]
    fn window_rebases_time() {
        let t = trace();
        let w = t.window(2, 3);
        assert_eq!(w.values, vec![300.0, 50.0, 100.0]);
        assert_eq!(w.intensity(0.0), 300.0);
    }

    #[test]
    fn constant_trace() {
        let t = CarbonTrace::constant("flat", 400.0, 10);
        assert_eq!(t.min(), 400.0);
        assert_eq!(t.max(), 400.0);
        let (l, u) = t.bounds(0.0, 48.0 * 3600.0);
        assert_eq!((l, u), (400.0, 400.0));
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_trace_rejected() {
        let _ = CarbonTrace::hourly("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_value_rejected() {
        let _ = CarbonTrace::hourly("bad", vec![100.0, -5.0]);
    }
}
