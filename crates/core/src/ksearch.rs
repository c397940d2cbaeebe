//! The k-search threshold set used by CAP (§4.2).
//!
//! CAP frames resource provisioning as repeated rounds of `(K − B)`-search:
//! each of the `K − B` "optional" executors is enabled only when the carbon
//! intensity falls below its threshold.  The thresholds are
//!
//! ```text
//! Φ_B     = U
//! Φ_{i+B} = U − (U − U/α)·(1 + 1/((K−B)·α))^{i−1},   i ∈ {1, …, K−B}
//! ```
//!
//! where α > 1 solves
//!
//! ```text
//! (1 + 1/((K−B)·α))^{K−B} = (U − L) / (U·(1 − 1/α)).
//! ```
//!
//! The thresholds decrease from `U` towards (approximately) `L`; the quota at
//! carbon intensity `c` is the largest index `i` whose threshold `Φ_i` is
//! still ≥ ... — equivalently, the number of thresholds lying at or above
//! `c` (high carbon ⇒ quota `B`, low carbon ⇒ quota `K`).

use serde::{Deserialize, Serialize};

/// A computed k-search threshold set for one `(K, B, L, U)` tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KSearchThresholds {
    /// Total number of executors `K`.
    pub total: usize,
    /// Minimum quota `B` (the cluster never drops below `B` machines).
    pub minimum: usize,
    /// Forecast lower bound `L`.
    pub lower: f64,
    /// Forecast upper bound `U`.
    pub upper: f64,
    /// The solved trade-off parameter α (1.0 when `L == U`).
    pub alpha: f64,
    /// `thresholds[j]` is Φ_{B+j} for `j = 0 .. K−B` (so `thresholds[0] = U`).
    pub thresholds: Vec<f64>,
}

impl KSearchThresholds {
    /// Computes the threshold set.
    ///
    /// # Panics
    /// Panics if `minimum` is zero or exceeds `total`, or the bounds are not
    /// ordered/finite — these are configuration errors.
    pub fn new(total: usize, minimum: usize, lower: f64, upper: f64) -> Self {
        assert!(total > 0, "cluster must have at least one executor");
        assert!(
            minimum >= 1 && minimum <= total,
            "minimum quota B must satisfy 1 <= B <= K (B={minimum}, K={total})"
        );
        assert!(
            lower.is_finite() && upper.is_finite() && lower >= 0.0 && lower <= upper,
            "carbon bounds must be finite with L <= U"
        );

        let k_minus_b = total - minimum;
        // Degenerate cases: no optional executors, or no carbon fluctuation.
        // In both the quota is always K (CAP behaves carbon-agnostically).
        if k_minus_b == 0 || (upper - lower) < 1e-9 || upper <= 0.0 {
            return KSearchThresholds {
                total,
                minimum,
                lower,
                upper,
                alpha: 1.0,
                thresholds: vec![upper; k_minus_b + 1],
            };
        }

        let alpha = solve_alpha(k_minus_b, lower, upper);
        let mut thresholds = Vec::with_capacity(k_minus_b + 1);
        thresholds.push(upper); // Φ_B = U
        for i in 1..=k_minus_b {
            let growth = (1.0 + 1.0 / (k_minus_b as f64 * alpha)).powi((i - 1) as i32);
            let phi = upper - (upper - upper / alpha) * growth;
            thresholds.push(phi);
        }
        KSearchThresholds {
            total,
            minimum,
            lower,
            upper,
            alpha,
            thresholds,
        }
    }

    /// The resource quota `r(t)` for carbon intensity `c`: the minimum quota
    /// `B` plus the number of optional thresholds that admit `c` (i.e.
    /// `Φ_{B+j} ≥ c`).  Equivalent to the paper's
    /// `argmax_i Φ_i : Φ_i ≤ c(t)` rule with the convention that intensities
    /// below every threshold yield the full cluster.
    pub fn quota(&self, carbon_intensity: f64) -> usize {
        // thresholds[0] = U corresponds to the always-on B machines; the
        // remaining K−B entries each unlock one more machine when the carbon
        // intensity is at or below them.
        let optional_unlocked = self
            .thresholds
            .iter()
            .skip(1)
            .filter(|&&phi| phi >= carbon_intensity)
            .count();
        (self.minimum + optional_unlocked).min(self.total)
    }

    /// True if this threshold set was built for the given parameters (used
    /// to decide whether a cached set can be reused as the forecast bounds
    /// evolve).
    pub fn matches(&self, total: usize, minimum: usize, lower: f64, upper: f64) -> bool {
        self.total == total
            && self.minimum == minimum
            && (self.lower - lower).abs() < 1e-9
            && (self.upper - upper).abs() < 1e-9
    }
}

/// Solves `(1 + 1/((K−B)·α))^{K−B} = (U − L)/(U·(1 − 1/α))` for α by
/// bisection.  The left side decreases in α towards 1 while the right side
/// decreases from +∞ towards `(U−L)/U < 1`, so a unique crossing exists for
/// `0 < L < U`.
fn solve_alpha(k_minus_b: usize, lower: f64, upper: f64) -> f64 {
    let k = k_minus_b as f64;
    let f = |alpha: f64| -> f64 {
        let lhs = (1.0 + 1.0 / (k * alpha)).powf(k);
        let rhs = (upper - lower) / (upper * (1.0 - 1.0 / alpha));
        lhs - rhs
    };
    // Bracket the root: just above 1 the RHS blows up (f < 0); for large α
    // the LHS tends to a constant > RHS (f > 0).
    let mut lo = 1.0 + 1e-9;
    let mut hi = 2.0;
    let mut guard = 0;
    while f(hi) < 0.0 && guard < 200 {
        hi *= 2.0;
        guard += 1;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_decrease_from_u_towards_l() {
        let t = KSearchThresholds::new(100, 20, 130.0, 765.0);
        assert_eq!(t.thresholds.len(), 81);
        assert!((t.thresholds[0] - 765.0).abs() < 1e-9);
        for w in t.thresholds.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "thresholds must be non-increasing");
        }
        let last = *t.thresholds.last().unwrap();
        // The lowest threshold should land near L (within a few percent of
        // the band) — this is exactly what the α equation enforces.
        assert!(
            (last - 130.0).abs() < 0.1 * (765.0 - 130.0),
            "last threshold {last:.1} should approach L = 130"
        );
        assert!(t.alpha > 1.0);
    }

    #[test]
    fn quota_monotone_decreasing_in_carbon() {
        let t = KSearchThresholds::new(50, 10, 100.0, 500.0);
        let mut last = usize::MAX;
        for c in (100..=500).step_by(10) {
            let q = t.quota(c as f64);
            assert!(q <= last, "quota must not increase with carbon");
            assert!((10..=50).contains(&q));
            last = q;
        }
    }

    #[test]
    fn quota_extremes() {
        let t = KSearchThresholds::new(100, 20, 130.0, 765.0);
        // At (or above) the dirtiest forecast the quota is the minimum B...
        assert_eq!(t.quota(765.0), 20);
        assert_eq!(t.quota(800.0), 20);
        // ...and at the cleanest forecast it is (close to) the full cluster.
        assert!(t.quota(130.0) >= 99);
        assert!(t.quota(0.0) == 100);
    }

    #[test]
    fn flat_band_keeps_full_cluster() {
        let t = KSearchThresholds::new(10, 2, 400.0, 400.0);
        assert_eq!(t.alpha, 1.0);
        assert_eq!(t.quota(400.0), 10);
        assert_eq!(t.quota(9999.0), 2, "above the band only B machines stay on");
    }

    #[test]
    fn b_equals_k_is_carbon_agnostic() {
        let t = KSearchThresholds::new(8, 8, 100.0, 500.0);
        for c in [100.0, 300.0, 500.0] {
            assert_eq!(t.quota(c), 8);
        }
    }

    #[test]
    fn alpha_equation_is_satisfied() {
        for (k, b, l, u) in [(100usize, 20usize, 130.0, 765.0), (50, 5, 83.0, 451.0)] {
            let t = KSearchThresholds::new(k, b, l, u);
            let kb = (k - b) as f64;
            let lhs = (1.0 + 1.0 / (kb * t.alpha)).powf(kb);
            let rhs = (u - l) / (u * (1.0 - 1.0 / t.alpha));
            assert!(
                (lhs - rhs).abs() / rhs < 1e-6,
                "alpha equation residual too large: lhs={lhs}, rhs={rhs}"
            );
        }
    }

    #[test]
    fn matches_detects_parameter_changes() {
        let t = KSearchThresholds::new(10, 2, 100.0, 500.0);
        assert!(t.matches(10, 2, 100.0, 500.0));
        assert!(!t.matches(10, 2, 100.0, 400.0));
        assert!(!t.matches(10, 3, 100.0, 500.0));
    }

    #[test]
    #[should_panic(expected = "minimum quota")]
    fn rejects_zero_minimum() {
        let _ = KSearchThresholds::new(10, 0, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "minimum quota")]
    fn rejects_minimum_above_total() {
        let _ = KSearchThresholds::new(10, 11, 1.0, 2.0);
    }
}
