//! Calibrated synthetic carbon intensity traces.
//!
//! The paper uses three years of hourly Electricity Maps history for six
//! grids.  That data is proprietary, so this module generates synthetic
//! traces whose *summary statistics match Table 1* (min, max, mean,
//! coefficient of variation) and whose *shape matches Fig. 5 qualitatively*
//! (solar duck curve for CAISO, nearly flat coal baseline for ZA, noisy wind
//! driven swings for DE, ...).  Scheduler behaviour depends only on these
//! properties — the absolute calendar alignment is irrelevant — so the
//! substitution preserves the experiments' character: what the paper's
//! results hinge on is how far and how often intensity swings within a
//! forecast window, and the generator reproduces exactly that.
//!
//! The generator is deterministic given a [`GridRegion`] and a seed, so every
//! experiment in the harness is reproducible.

use crate::regions::{GridRegion, GridStats};
use crate::trace::CarbonTrace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// Deterministic synthetic trace generator for one grid region.
#[derive(Debug, Clone)]
pub struct SyntheticTraceGenerator {
    region: GridRegion,
    seed: u64,
    /// Autocorrelation of the AR(1) noise process (per hour).
    ar_coefficient: f64,
}

impl SyntheticTraceGenerator {
    /// Creates a generator for `region` with the given random seed.
    pub fn new(region: GridRegion, seed: u64) -> Self {
        SyntheticTraceGenerator {
            region,
            seed,
            ar_coefficient: 0.92,
        }
    }

    /// Overrides the AR(1) hour-to-hour autocorrelation of the noise term
    /// (default 0.92; closer to 1 means smoother noise).
    pub fn with_ar_coefficient(mut self, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "AR coefficient must be in [0, 1)");
        self.ar_coefficient = rho;
        self
    }

    /// The region this generator models.
    pub fn region(&self) -> GridRegion {
        self.region
    }

    /// Generates an hourly trace covering `days` days.
    pub fn generate_days(&self, days: usize) -> CarbonTrace {
        self.generate_hours(days.max(1) * 24)
    }

    /// Generates an hourly trace with exactly `hours` points.
    pub fn generate_hours(&self, hours: usize) -> CarbonTrace {
        let hours = hours.max(2);
        let stats = self.region.table1_stats();
        let shape = self.region.shape();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ region_salt(self.region));

        // 1. Build the raw shape signal: diurnal + seasonal + AR(1) noise.
        let mut raw = Vec::with_capacity(hours);
        let mut noise_state = 0.0_f64;
        let noise_innovation_scale = (1.0 - self.ar_coefficient * self.ar_coefficient).sqrt();
        for h in 0..hours {
            let hour_of_day = (h % 24) as f64;
            let day_of_year = ((h / 24) % 365) as f64;
            // Diurnal: cosine peaking at `diurnal_peak_hour` (night time for
            // solar grids — intensity is high when the sun is down).
            let diurnal = (2.0 * PI * (hour_of_day - shape.diurnal_peak_hour) / 24.0).cos();
            // Seasonal: annual cosine peaking mid-winter (day 15).
            let seasonal = (2.0 * PI * (day_of_year - 15.0) / 365.0).cos();
            // AR(1) noise with unit stationary variance.
            let innovation: f64 = rng.gen_range(-1.0..1.0) * 1.732; // uniform, var ≈ 1
            noise_state =
                self.ar_coefficient * noise_state + noise_innovation_scale * innovation;
            let value = shape.diurnal_weight * diurnal
                + shape.seasonal_weight * seasonal
                + shape.noise_weight * noise_state;
            raw.push(value);
        }

        // 2. Standardise the shape to zero mean / unit standard deviation so
        //    the target CV can be applied exactly.
        let mean = raw.iter().sum::<f64>() / raw.len() as f64;
        let var = raw.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / raw.len() as f64;
        let std = var.sqrt().max(1e-9);
        let target_std = stats.coeff_var * stats.mean;

        // 3. Scale to the target mean/CV and clamp into [min, max].  Clamping
        //    slightly reduces the realised standard deviation; compensate by
        //    inflating the applied std a touch (empirically ~5%).
        let inflate = 1.05;
        let values: Vec<f64> = raw
            .iter()
            .map(|v| {
                let z = (v - mean) / std;
                (stats.mean + z * target_std * inflate).clamp(stats.min, stats.max)
            })
            .collect();

        CarbonTrace::new(self.region.code(), 0.0, 3600.0, values)
    }

    /// Generates the paper-scale trace: three years of hourly data
    /// (26 304 points, Table 1).
    pub fn generate_paper_trace(&self) -> CarbonTrace {
        self.generate_hours(GridRegion::PAPER_TRACE_HOURS)
    }
}

/// Per-region salt so two regions generated with the same seed do not share a
/// noise stream.
fn region_salt(region: GridRegion) -> u64 {
    match region {
        GridRegion::Pjm => 0x9e37_79b9_7f4a_7c15,
        GridRegion::Caiso => 0x6a09_e667_f3bc_c908,
        GridRegion::Ontario => 0xbb67_ae85_84ca_a73b,
        GridRegion::Germany => 0x3c6e_f372_fe94_f82b,
        GridRegion::Nsw => 0xa54f_f53a_5f1d_36f1,
        GridRegion::SouthAfrica => 0x510e_527f_ade6_82d1,
    }
}

/// Convenience: generate traces for all six regions with a common seed.
pub fn all_region_traces(seed: u64, hours: usize) -> Vec<(GridRegion, CarbonTrace)> {
    GridRegion::ALL
        .iter()
        .map(|&r| (r, SyntheticTraceGenerator::new(r, seed).generate_hours(hours)))
        .collect()
}

/// Checks how closely a trace matches a region's Table 1 statistics.
/// Returns the relative errors `(mean_err, cv_err)`.
pub fn calibration_error(trace: &CarbonTrace, target: GridStats) -> (f64, f64) {
    let stats = crate::stats::TraceStats::of(trace);
    let mean_err = (stats.mean - target.mean).abs() / target.mean;
    let cv_err = if target.coeff_var > 0.0 {
        (stats.coeff_var - target.coeff_var).abs() / target.coeff_var
    } else {
        0.0
    };
    (mean_err, cv_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticTraceGenerator::new(GridRegion::Germany, 7).generate_days(10);
        let b = SyntheticTraceGenerator::new(GridRegion::Germany, 7).generate_days(10);
        assert_eq!(a.values, b.values);
        let c = SyntheticTraceGenerator::new(GridRegion::Germany, 8).generate_days(10);
        assert_ne!(a.values, c.values);
    }

    #[test]
    fn stays_within_table1_bounds() {
        for region in GridRegion::ALL {
            let t = SyntheticTraceGenerator::new(region, 1).generate_days(120);
            let s = region.table1_stats();
            assert!(t.min() >= s.min - 1e-9, "{region}: min");
            assert!(t.max() <= s.max + 1e-9, "{region}: max");
        }
    }

    #[test]
    fn calibrated_mean_and_cv() {
        for region in GridRegion::ALL {
            let t = SyntheticTraceGenerator::new(region, 3).generate_days(365);
            let target = region.table1_stats();
            let (mean_err, cv_err) = calibration_error(&t, target);
            assert!(
                mean_err < 0.10,
                "{region}: mean off by {:.1}% (target {})",
                mean_err * 100.0,
                target.mean
            );
            assert!(
                cv_err < 0.30,
                "{region}: CV off by {:.1}% (target {})",
                cv_err * 100.0,
                target.coeff_var
            );
        }
    }

    #[test]
    fn variability_ordering_matches_paper() {
        // CAISO should have a clearly larger CV than ZA, ON larger than PJM.
        let cv = |r: GridRegion| {
            TraceStats::of(&SyntheticTraceGenerator::new(r, 11).generate_days(365)).coeff_var
        };
        assert!(cv(GridRegion::Caiso) > cv(GridRegion::SouthAfrica) * 2.0);
        assert!(cv(GridRegion::Ontario) > cv(GridRegion::Pjm));
    }

    #[test]
    fn caiso_has_diurnal_structure() {
        // Mid-day intensity (solar) should on average be lower than night.
        let t = SyntheticTraceGenerator::new(GridRegion::Caiso, 5).generate_days(90);
        let mut day = 0.0;
        let mut night = 0.0;
        let mut nd = 0;
        let mut nn = 0;
        for h in 0..t.len() {
            let hod = h % 24;
            let v = t.values[h];
            if (11..=15).contains(&hod) {
                day += v;
                nd += 1;
            } else if hod <= 3 || hod >= 22 {
                night += v;
                nn += 1;
            }
        }
        assert!(day / nd as f64 <= night / nn as f64, "CAISO duck curve: mid-day below night");
    }

    #[test]
    fn paper_trace_has_26304_points() {
        // Only generate for one region to keep the test fast.
        let t = SyntheticTraceGenerator::new(GridRegion::Pjm, 0).generate_paper_trace();
        assert_eq!(t.len(), 26_304);
    }

    #[test]
    fn all_region_traces_covers_all() {
        let all = all_region_traces(9, 48);
        assert_eq!(all.len(), 6);
        for (r, t) in all {
            assert_eq!(t.label, r.code());
            assert_eq!(t.len(), 48);
            assert!(t.intensity(0.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "AR coefficient")]
    fn rejects_bad_ar_coefficient() {
        let _ = SyntheticTraceGenerator::new(GridRegion::Pjm, 0).with_ar_coefficient(1.5);
    }
}
