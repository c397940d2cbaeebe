//! Piecewise-constant carbon intensity traces.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Lookahead horizon (carbon-trace seconds) of the forecast bounds `L` and
/// `U` that [`CarbonTrace::bounds`] reports: 48 hours.
pub const FORECAST_HORIZON: f64 = 48.0 * 3600.0;

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
    /// Do not mutate these or `step` after construction:
    /// [`CarbonTrace::bounds`] answers from a table built over them on
    /// first query, so in-place mutation serves stale bounds silently.
    /// Derive changed traces through the constructors or
    /// [`CarbonTrace::window`] instead.
    pub values: Vec<f64>,
    /// Optional human-readable label (e.g., the grid code).
    pub label: String,
    /// The `(min, max)` of the forecast window starting at each value
    /// index, built on the first [`CarbonTrace::bounds`] query so that each
    /// query is one lookup.  Derived from `values` and `step`; excluded
    /// from `Clone`/`PartialEq` (it is a cache, rebuilt on demand).
    #[serde(skip)]
    forecast: OnceLock<Vec<(f64, f64)>>,
}

impl Clone for CarbonTrace {
    fn clone(&self) -> Self {
        CarbonTrace {
            start: self.start,
            step: self.step,
            values: self.values.clone(),
            label: self.label.clone(),
            // Deliberately not cloned: the table grows with the trace and
            // is cheap to rebuild where it is actually queried.
            forecast: OnceLock::new(),
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

impl CarbonTrace {
    /// Creates a trace from raw values.
    ///
    /// # Panics
    /// Panics if the trace fails [`CarbonTrace::check`]: `values` is empty,
    /// `step` is not positive and finite, `start` is not finite, or any value
    /// is negative or non-finite — traces are static experiment inputs, so
    /// malformed data is a programming error.
    pub fn new(label: impl Into<String>, start: f64, step: f64, values: Vec<f64>) -> Self {
        let trace = CarbonTrace {
            start,
            step,
            values,
            label: label.into(),
            forecast: OnceLock::new(),
        };
        if let Err(reason) = trace.check() {
            panic!("malformed carbon trace: {reason}");
        }
        trace
    }

    /// Rejects a trace that [`CarbonTrace::new`] would have refused, naming
    /// the field.  The fields are public, so a trace edited after
    /// construction reaches its users unchecked: an empty trace has no
    /// value to report, a step that is not positive and finite never
    /// advances to the next value, and a non-finite start reads every
    /// instant as the first value.
    pub fn check(&self) -> Result<(), String> {
        if !self.start.is_finite() {
            return Err(format!("start must be finite, got {}", self.start));
        }
        if !(self.step > 0.0 && self.step.is_finite()) {
            return Err(format!("step must be positive and finite, got {}", self.step));
        }
        if self.values.is_empty() {
            return Err("values must contain at least one value".to_string());
        }
        match self.values.iter().position(|v| !(v.is_finite() && *v >= 0.0)) {
            Some(i) => Err(format!(
                "values[{i}] must be finite and non-negative, got {}",
                self.values[i]
            )),
            None => Ok(()),
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

    /// Minimum and maximum intensity over the window
    /// `[t, t + FORECAST_HORIZON]`: the `L` and `U` bounds used by
    /// threshold-based algorithms.
    pub fn bounds(&self, t: f64) -> (f64, f64) {
        self.forecast.get_or_init(|| self.forecast_table())[self.index_at(t)]
    }

    /// The `(min, max)` over the `w = ⌈FORECAST_HORIZON / step⌉ + 1`
    /// wrapped values (at most the whole trace) starting at each index —
    /// the values a linear scan from that index visits, so every bound is
    /// exact.  O(n + w): cut the wrapped sequence into blocks of `w`, and
    /// each window is a suffix of one block joined to a prefix of the next.
    fn forecast_table(&self) -> Vec<(f64, f64)> {
        let n = self.values.len();
        // The cast saturates, so a tiny step must not overflow the `+ 1`.
        let w = ((FORECAST_HORIZON / self.step).ceil() as usize).saturating_add(1).min(n);
        let at = |i: usize| (self.values[i % n], self.values[i % n]);
        let join = |(lo, hi): (f64, f64), (l, h): (f64, f64)| (lo.min(l), hi.max(h));
        let len = n + w - 1;
        // suffix[i]: from `i` to the end of its block.
        let mut suffix = vec![at(len - 1); len];
        for i in (0..len - 1).rev() {
            suffix[i] = if (i + 1) % w == 0 { at(i) } else { join(at(i), suffix[i + 1]) };
        }
        // `prefix`: from the start of `j`'s block to `j`.
        let mut prefix = at(0);
        let mut table = Vec::with_capacity(n);
        for j in 0..len {
            prefix = if j % w == 0 { at(j) } else { join(prefix, at(j)) };
            if j + 1 >= w {
                table.push(join(suffix[j + 1 - w], prefix));
            }
        }
        table
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
        // 72 hours at 100, but 900 at hour 48 and 5 at hour 49: the window
        // from t=0 ends at the 48-hour horizon, so it sees the 900 and not
        // the 5; one hour later it sees both.
        let mut values = vec![100.0; 72];
        values[48] = 900.0;
        values[49] = 5.0;
        let t = CarbonTrace::hourly("test", values);
        assert_eq!(t.bounds(0.0), (100.0, 900.0));
        assert_eq!(t.bounds(3599.0), (100.0, 900.0));
        assert_eq!(t.bounds(3600.0), (5.0, 900.0));
        // Past hour 49 the window wraps round to the start.
        assert_eq!(t.bounds(50.0 * 3600.0), (100.0, 100.0));
    }

    #[test]
    fn bounds_over_a_tiny_step_cover_the_whole_trace() {
        let t = trace();
        assert_eq!(t.bounds(2.5 * 3600.0), (50.0, 300.0));
        let tiny = CarbonTrace::new("tiny", 0.0, 1e-300, vec![100.0, 200.0, 300.0, 50.0]);
        assert_eq!(tiny.bounds(0.0), (50.0, 300.0));
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
        assert_eq!(t.bounds(0.0), (400.0, 400.0));
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
