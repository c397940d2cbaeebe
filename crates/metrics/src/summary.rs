//! Experiment summaries and baseline normalisation.

use crate::footprint::total_footprint;
use pcaps_carbon::CarbonAccountant;
use pcaps_cluster::SimulationResult;
use serde::{Deserialize, Serialize};

/// Absolute metrics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSummary {
    /// Scheduler name.
    pub scheduler: String,
    /// Total carbon footprint in grams CO₂-equivalent.
    pub carbon_grams: f64,
    /// End-to-end completion time (schedule seconds).
    pub ect: f64,
    /// Average job completion time (schedule seconds).
    pub avg_jct: f64,
    /// Number of jobs completed.
    pub jobs: usize,
}

impl ExperimentSummary {
    /// Builds the summary of a run using the given accountant for carbon.
    pub fn of(result: &SimulationResult, accountant: &CarbonAccountant) -> Self {
        ExperimentSummary {
            scheduler: result.scheduler.clone(),
            carbon_grams: total_footprint(result, accountant),
            ect: result.ect(),
            avg_jct: result.average_jct(),
            jobs: result.jobs.len(),
        }
    }

    /// Normalises this summary against a baseline run, producing the
    /// paper-style relative metrics.
    pub fn normalized_to(&self, baseline: &ExperimentSummary) -> NormalizedSummary {
        NormalizedSummary {
            scheduler: self.scheduler.clone(),
            baseline: baseline.scheduler.clone(),
            carbon_reduction_pct: if baseline.carbon_grams > 0.0 {
                100.0 * (1.0 - self.carbon_grams / baseline.carbon_grams)
            } else {
                0.0
            },
            ect_ratio: if baseline.ect > 0.0 {
                self.ect / baseline.ect
            } else {
                1.0
            },
            jct_ratio: if baseline.avg_jct > 0.0 {
                self.avg_jct / baseline.avg_jct
            } else {
                1.0
            },
        }
    }
}

/// Metrics of a run expressed relative to a baseline, exactly as the paper's
/// tables report them (§6.1):
/// * carbon reduction in percent (positive = less carbon than the baseline),
/// * ECT as a fraction of the baseline's ECT (values above 1 = slower),
/// * average JCT as a fraction of the baseline's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizedSummary {
    /// Scheduler being reported.
    pub scheduler: String,
    /// Baseline scheduler the numbers are relative to.
    pub baseline: String,
    /// Percentage reduction in carbon footprint relative to the baseline.
    pub carbon_reduction_pct: f64,
    /// ECT divided by the baseline ECT.
    pub ect_ratio: f64,
    /// Average JCT divided by the baseline average JCT.
    pub jct_ratio: f64,
}

/// Averages a set of normalised summaries (e.g. over the six grid regions or
/// over repeated trials), preserving the scheduler/baseline labels of the
/// first entry.
pub fn average_normalized(summaries: &[NormalizedSummary]) -> Option<NormalizedSummary> {
    let first = summaries.first()?;
    let n = summaries.len() as f64;
    Some(NormalizedSummary {
        scheduler: first.scheduler.clone(),
        baseline: first.baseline.clone(),
        carbon_reduction_pct: summaries.iter().map(|s| s.carbon_reduction_pct).sum::<f64>() / n,
        ect_ratio: summaries.iter().map(|s| s.ect_ratio).sum::<f64>() / n,
        jct_ratio: summaries.iter().map(|s| s.jct_ratio).sum::<f64>() / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(name: &str, grams: f64, ect: f64, jct: f64) -> ExperimentSummary {
        ExperimentSummary {
            scheduler: name.into(),
            carbon_grams: grams,
            ect,
            avg_jct: jct,
            jobs: 10,
        }
    }

    #[test]
    fn normalisation_matches_paper_conventions() {
        let baseline = summary("default", 1000.0, 100.0, 10.0);
        let aware = summary("pcaps", 670.0, 101.3, 13.8);
        let n = aware.normalized_to(&baseline);
        assert!((n.carbon_reduction_pct - 33.0).abs() < 1e-9);
        assert!((n.ect_ratio - 1.013).abs() < 1e-9);
        assert!((n.jct_ratio - 1.38).abs() < 1e-9);
        assert_eq!(n.baseline, "default");
    }

    #[test]
    fn baseline_normalised_to_itself_is_neutral() {
        let baseline = summary("default", 1000.0, 100.0, 10.0);
        let n = baseline.normalized_to(&baseline);
        assert_eq!(n.carbon_reduction_pct, 0.0);
        assert_eq!(n.ect_ratio, 1.0);
        assert_eq!(n.jct_ratio, 1.0);
    }

    #[test]
    fn negative_reduction_means_more_carbon() {
        let baseline = summary("default", 1000.0, 100.0, 10.0);
        let worse = summary("bad", 1200.0, 90.0, 9.0);
        let n = worse.normalized_to(&baseline);
        assert!(n.carbon_reduction_pct < 0.0);
        assert!(n.ect_ratio < 1.0);
    }

    #[test]
    fn averaging_summaries() {
        let baseline = summary("default", 1000.0, 100.0, 10.0);
        let a = summary("pcaps", 700.0, 110.0, 12.0).normalized_to(&baseline);
        let b = summary("pcaps", 900.0, 90.0, 14.0).normalized_to(&baseline);
        let avg = average_normalized(&[a, b]).unwrap();
        assert!((avg.carbon_reduction_pct - 20.0).abs() < 1e-9);
        assert!((avg.ect_ratio - 1.0).abs() < 1e-9);
        assert!((avg.jct_ratio - 1.3).abs() < 1e-9);
        assert!(average_normalized(&[]).is_none());
    }

    #[test]
    fn zero_baseline_guards() {
        let zero = summary("zero", 0.0, 0.0, 0.0);
        let other = summary("x", 10.0, 10.0, 10.0);
        let n = other.normalized_to(&zero);
        assert_eq!(n.carbon_reduction_pct, 0.0);
        assert_eq!(n.ect_ratio, 1.0);
        assert_eq!(n.jct_ratio, 1.0);
    }
}
