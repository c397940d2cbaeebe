//! Small statistical toolbox for the experiment figures.
//!
//! The harness needs means, standard deviations and percentiles for the
//! shaded regions of the figures, and a least-squares polynomial fit for the
//! carbon-vs-ECT trade-off frontier of Fig. 13 (the paper fits a cubic).

use serde::{Deserialize, Serialize};

/// Arithmetic mean.  Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation.  Returns 0 for fewer than two values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Percentile (0–100) by linear interpolation on sorted data.
///
/// # Panics
/// Panics on an empty slice or a percentile outside `[0, 100]`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty slice");
    assert!((0.0..=100.0).contains(&pct), "percentile must be in [0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not be NaN"));
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// A named series of `(x, y)` points, used by the harness to emit figure
/// data as CSV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series label (e.g. a scheduler name or grid code).
    pub label: String,
    /// The `(x, y)` points in order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders the series as CSV lines (`label,x,y`).
    pub fn to_csv(&self) -> String {
        self.points
            .iter()
            .map(|(x, y)| format!("{},{x},{y}", self.label))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Least-squares polynomial fit of the given degree; returns coefficients
/// `c0 + c1·x + … + cd·x^d`.  Uses normal equations with Gaussian
/// elimination, which is ample for the small, well-conditioned fits the
/// figures need (degree ≤ 3 on tens of points).
///
/// # Panics
/// Panics if there are fewer points than coefficients.
pub fn polyfit(points: &[(f64, f64)], degree: usize) -> Vec<f64> {
    let n = degree + 1;
    assert!(
        points.len() >= n,
        "need at least {n} points for a degree-{degree} fit, got {}",
        points.len()
    );
    // Build the normal equations A^T A c = A^T y.
    let mut ata = vec![vec![0.0_f64; n]; n];
    let mut aty = vec![0.0_f64; n];
    for &(x, y) in points {
        let mut powers = vec![1.0_f64; 2 * n - 1];
        for i in 1..powers.len() {
            powers[i] = powers[i - 1] * x;
        }
        for (i, row) in ata.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += powers[i + j];
            }
            aty[i] += powers[i] * y;
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&a, &b| {
                ata[a][col]
                    .abs()
                    .partial_cmp(&ata[b][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        ata.swap(col, pivot);
        aty.swap(col, pivot);
        let diag = ata[col][col];
        assert!(
            diag.abs() > 1e-12,
            "singular normal equations: points may be degenerate"
        );
        let (pivot_rows, rows_below) = ata.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (i, row) in rows_below.iter_mut().enumerate() {
            let factor = row[col] / diag;
            for (cell, &p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *cell -= factor * p;
            }
            aty[col + 1 + i] -= factor * aty[col];
        }
    }
    let mut coeffs = vec![0.0_f64; n];
    for row in (0..n).rev() {
        let mut sum = aty[row];
        for k in (row + 1)..n {
            sum -= ata[row][k] * coeffs[k];
        }
        coeffs[row] = sum / ata[row][row];
    }
    coeffs
}

/// Evaluates a polynomial (coefficients in ascending-degree order) at `x`.
pub fn polyval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 25.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let c = polyfit(&points, 1);
        assert!((c[0] - 3.0).abs() < 1e-9);
        assert!((c[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_fit_recovers_cubic() {
        let poly = |x: f64| 1.0 - 2.0 * x + 0.5 * x * x + 0.25 * x * x * x;
        let points: Vec<(f64, f64)> = (-5..=5).map(|i| (i as f64, poly(i as f64))).collect();
        let c = polyfit(&points, 3);
        for (got, want) in c.iter().zip([1.0, -2.0, 0.5, 0.25]) {
            assert!((got - want).abs() < 1e-6, "coefficients {c:?}");
        }
        assert!((polyval(&c, 2.0) - poly(2.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn fit_requires_enough_points() {
        let _ = polyfit(&[(0.0, 0.0)], 2);
    }

    #[test]
    fn series_csv() {
        let mut s = Series::new("pcaps");
        s.push(0.1, 5.0);
        s.push(0.5, 20.0);
        assert_eq!(s.to_csv(), "pcaps,0.1,5\npcaps,0.5,20");
    }
}
