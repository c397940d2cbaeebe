//! The carbon-awareness threshold function Ψγ (§4.1).
//!
//! For a task with relative importance `r ∈ [0, 1]` and carbon bounds
//! `L ≤ c(t) ≤ U`, the threshold is
//!
//! ```text
//! Ψγ(r) = (γL + (1−γ)U) + [U − (γL + (1−γ)U)] · (exp(γr) − 1) / (exp(γ) − 1)
//! ```
//!
//! A sampled task is scheduled iff `Ψγ(r) ≥ c(t)` (Algorithm 1, line 7).
//! The function interpolates exponentially between a floor of
//! `γL + (1−γ)U` at `r = 0` and exactly `U` at `r = 1`, so maximally
//! important tasks are always scheduled, while unimportant tasks are only
//! scheduled when carbon is low.  `γ = 0` recovers carbon-agnostic behaviour
//! (the threshold is identically `U`, which every intensity satisfies);
//! `γ = 1` is maximally carbon-aware (the floor drops to `L`).

use serde::{Deserialize, Serialize};

/// The threshold function Ψγ together with the carbon bounds it was built
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdFn {
    /// Carbon-awareness parameter γ ∈ [0, 1].
    pub gamma: f64,
    /// Forecast lower bound `L`.
    pub lower: f64,
    /// Forecast upper bound `U`.
    pub upper: f64,
}

impl ThresholdFn {
    /// Creates the threshold function.
    ///
    /// # Panics
    /// Panics if `gamma` is outside `[0, 1]`, if the bounds are not finite,
    /// or if `lower > upper` — these are configuration errors.
    pub fn new(gamma: f64, lower: f64, upper: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0, 1], got {gamma}"
        );
        assert!(
            lower.is_finite() && upper.is_finite() && lower >= 0.0,
            "carbon bounds must be finite and non-negative"
        );
        assert!(lower <= upper, "lower bound {lower} exceeds upper bound {upper}");
        ThresholdFn { gamma, lower, upper }
    }

    /// The floor of the threshold: `Ψγ(0) = γL + (1−γ)U`.
    pub fn floor(&self) -> f64 {
        self.gamma * self.lower + (1.0 - self.gamma) * self.upper
    }

    /// Evaluates `Ψγ(r)` for a relative importance `r ∈ [0, 1]`.
    ///
    /// Values of `r` outside `[0, 1]` are clamped — the relative importance
    /// definition guarantees the range, so clamping only guards against
    /// floating-point drift in callers.
    pub fn evaluate(&self, r: f64) -> f64 {
        let r = r.clamp(0.0, 1.0);
        // γ = 0 (or numerically tiny): the exponential ratio degenerates to
        // 0/0; the limit of Ψγ as γ → 0 is identically U.
        if self.gamma < 1e-12 {
            return self.upper;
        }
        let base = self.floor();
        let ratio = ((self.gamma * r).exp() - 1.0) / (self.gamma.exp() - 1.0);
        base + (self.upper - base) * ratio
    }

    /// Whether a task with relative importance `r` should be scheduled under
    /// the current carbon intensity `c` (Algorithm 1, line 7).
    pub fn admits(&self, r: f64, carbon_intensity: f64) -> bool {
        self.evaluate(r) >= carbon_intensity
    }

    /// The parallelism scaling factor of §5.1.
    ///
    /// The paper writes `min{exp(γ(L − c_t)), 1 − γ}` with raw gCO₂eq/kWh
    /// units; taken literally the exponential collapses to ~0 whenever `c_t`
    /// exceeds `L` by a few grams and the `1 − γ` term throttles even the
    /// cleanest hours (at γ = 1 it would forbid parallelism everywhere).
    /// This implementation keeps the intended *shape* — full parallelism when
    /// carbon is at the clean end of the forecast band, decaying
    /// exponentially towards a single executor as carbon approaches the
    /// dirty end — by normalising the exponent by the band width:
    /// `exp(5γ(L − c) / (U − L))`, and by dropping the `1 − γ` cap.
    /// Deferring less work during clean hours is exactly what lets the
    /// deferred work "catch up", so this choice preserves the paper's
    /// carbon/ECT trade-off, and unlike the literal formula it stays
    /// meaningful for every γ ∈ [0, 1] and every grid's intensity range.
    pub fn parallelism_factor(&self, carbon_intensity: f64) -> f64 {
        if self.gamma < 1e-12 {
            return 1.0;
        }
        // Full parallelism at the clean end of the forecast band, decaying
        // exponentially as carbon rises towards the dirty end; γ controls how
        // sharp the decay is (the decay constant 5 gives ≈e⁻⁵ ≈ 0.007 at
        // c = U for γ = 1 and ≈0.08 for γ = 0.5, mirroring the near-total
        // parallelism collapse of the paper's raw-unit formula during dirty
        // periods while keeping clean periods unthrottled).
        let range = (self.upper - self.lower).max(1e-9);
        let exponent = -5.0 * self.gamma * (carbon_intensity - self.lower) / range;
        exponent.exp().clamp(0.0, 1.0)
    }

    /// True when the current carbon intensity is in the "throttle" regime —
    /// meaningfully above the clean end of the forecast band.  PCAPS uses
    /// this to decide whether to restrict itself to a single
    /// sample-and-decide step per scheduling event (Algorithm 1) or to let
    /// the cluster fill freely so deferred work can catch up.
    pub fn is_throttled(&self, carbon_intensity: f64) -> bool {
        if self.gamma < 1e-12 {
            return false;
        }
        let range = (self.upper - self.lower).max(1e-9);
        carbon_intensity > self.lower + 0.05 * range
    }

    /// Scales a parallelism limit `p` chosen by the underlying scheduler into
    /// the carbon-aware limit `P′ = ⌈p · factor⌉`, never below 1 (a scheduled
    /// stage always gets at least one executor).
    pub fn scale_parallelism(&self, p: usize, carbon_intensity: f64) -> usize {
        let scaled = (p as f64 * self.parallelism_factor(carbon_intensity)).ceil() as usize;
        scaled.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_zero_is_carbon_agnostic() {
        let f = ThresholdFn::new(0.0, 100.0, 500.0);
        for r in [0.0, 0.3, 1.0] {
            assert_eq!(f.evaluate(r), 500.0);
            assert!(f.admits(r, 500.0));
            assert!(f.admits(r, 499.0));
        }
        assert_eq!(f.parallelism_factor(400.0), 1.0);
        assert_eq!(f.scale_parallelism(10, 400.0), 10);
    }

    #[test]
    fn max_importance_always_scheduled() {
        // Ψγ(1) = U for every γ, so a task with importance 1 is admitted at
        // any carbon intensity within the forecast band.
        for gamma in [0.1, 0.5, 0.9, 1.0] {
            let f = ThresholdFn::new(gamma, 100.0, 500.0);
            assert!((f.evaluate(1.0) - 500.0).abs() < 1e-9, "gamma={gamma}");
            assert!(f.admits(1.0, 500.0));
        }
    }

    #[test]
    fn floor_interpolates_bounds() {
        let f = ThresholdFn::new(0.25, 100.0, 500.0);
        assert!((f.floor() - (0.25 * 100.0 + 0.75 * 500.0)).abs() < 1e-12);
        let g = ThresholdFn::new(1.0, 100.0, 500.0);
        assert!((g.floor() - 100.0).abs() < 1e-12);
        assert!((g.evaluate(0.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_is_monotone_in_importance() {
        let f = ThresholdFn::new(0.7, 50.0, 800.0);
        let mut last = f.evaluate(0.0);
        for i in 1..=100 {
            let v = f.evaluate(i as f64 / 100.0);
            assert!(v >= last - 1e-12, "Ψ must be non-decreasing in r");
            last = v;
        }
    }

    #[test]
    fn larger_gamma_defers_more() {
        // For a fixed (r, c) pair strictly inside the band, a larger γ gives
        // a lower threshold, i.e. defers more aggressively.
        let r = 0.3;
        let c = 400.0;
        let low = ThresholdFn::new(0.2, 100.0, 500.0);
        let high = ThresholdFn::new(0.9, 100.0, 500.0);
        assert!(low.evaluate(r) > high.evaluate(r));
        assert!(low.admits(r, c));
        assert!(!high.admits(r, c));
    }

    #[test]
    fn exponential_shape_below_linear() {
        // The exponential interpolation lies below the straight line between
        // the endpoints for r strictly inside (0, 1) — this is what makes
        // mid-importance tasks still fairly carbon-sensitive.
        let f = ThresholdFn::new(1.0, 0.0, 1.0);
        for r in [0.2, 0.5, 0.8] {
            let linear = r;
            assert!(f.evaluate(r) < linear + 1e-12);
        }
    }

    #[test]
    fn parallelism_scaling_behaviour() {
        let f = ThresholdFn::new(0.5, 100.0, 500.0);
        // At the clean end of the band parallelism is untouched so clean
        // periods run at full speed, and the throttle regime is off.
        assert_eq!(f.parallelism_factor(100.0), 1.0);
        assert!(!f.is_throttled(100.0));
        assert!(f.is_throttled(300.0));
        // The factor decays monotonically as carbon rises.
        let mid = f.parallelism_factor(300.0);
        let dirty = f.parallelism_factor(500.0);
        assert!(mid < 1.0 && dirty < mid);
        assert!((dirty - (-2.5_f64).exp()).abs() < 1e-9);
        // Scaled parallelism never drops below one executor.
        assert_eq!(f.scale_parallelism(1, 500.0), 1);
        assert_eq!(f.scale_parallelism(20, 100.0), 20);
        assert!(f.scale_parallelism(20, 500.0) >= 1);
        // More carbon-aware configurations throttle at least as hard.
        let strict = ThresholdFn::new(1.0, 100.0, 500.0);
        assert!(strict.parallelism_factor(400.0) <= f.parallelism_factor(400.0) + 1e-9);
        // γ = 0 never throttles.
        assert!(!ThresholdFn::new(0.0, 100.0, 500.0).is_throttled(499.0));
    }

    #[test]
    fn degenerate_band_is_always_admitted() {
        // L = U: no fluctuation, every task should be scheduled (condition i
        // of §3: CSF close to 1 when the band is narrow).
        let f = ThresholdFn::new(0.8, 300.0, 300.0);
        assert!(f.admits(0.0, 300.0));
        assert!(f.admits(1.0, 300.0));
    }

    #[test]
    fn importance_out_of_range_is_clamped() {
        let f = ThresholdFn::new(0.5, 100.0, 500.0);
        assert_eq!(f.evaluate(-0.5), f.evaluate(0.0));
        assert_eq!(f.evaluate(1.5), f.evaluate(1.0));
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let _ = ThresholdFn::new(1.5, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds upper")]
    fn rejects_inverted_bounds() {
        let _ = ThresholdFn::new(0.5, 10.0, 5.0);
    }
}
