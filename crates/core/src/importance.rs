//! Relative importance of a task (Definition 4.2).
//!
//! Given the probability distribution `{p_{v,t} : v ∈ A_t}` produced by a
//! probabilistic scheduler, the relative importance of task `v` is
//!
//! ```text
//! r_{v,t} = p_{v,t} / max_{u ∈ A_t} p_{u,t}  ∈ [0, 1]
//! ```
//!
//! so the task the underlying policy most wants to run has importance 1, and
//! tasks it barely considers have importance near 0.  When only one task is
//! runnable its importance is 1 by definition.

use pcaps_schedulers::StageProbability;

/// `p / max`: the relative importance of a stage with probability
/// `probability` in a distribution whose largest probability is
/// `max_probability`, clamped to `[0, 1]`.  The one place the formula
/// lives: PCAPS applies it to a [`SampledStage`], and
/// [`relative_importance`] to a materialised distribution.
///
/// [`SampledStage`]: pcaps_schedulers::SampledStage
pub fn importance_ratio(probability: f64, max_probability: f64) -> f64 {
    if max_probability <= 0.0 {
        // Degenerate distribution (all zero mass): treat every task as
        // maximally important so nothing is ever starved by a broken policy.
        return 1.0;
    }
    (probability / max_probability).clamp(0.0, 1.0)
}

/// Relative importance of the entry at `index` within the distribution.
///
/// # Panics
/// Panics if `index` is out of bounds or the distribution is empty.
pub fn relative_importance(distribution: &[StageProbability], index: usize) -> f64 {
    assert!(
        !distribution.is_empty(),
        "relative importance is undefined for an empty distribution"
    );
    let max = distribution
        .iter()
        .map(|d| d.probability)
        .fold(f64::NEG_INFINITY, f64::max);
    importance_ratio(distribution[index].probability, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcaps_dag::{JobId, StageId};

    fn dist(ps: &[f64]) -> Vec<StageProbability> {
        ps.iter()
            .enumerate()
            .map(|(i, &p)| StageProbability {
                job: JobId(0),
                stage: StageId(i as u32),
                probability: p,
            })
            .collect()
    }

    fn importances(d: &[StageProbability]) -> Vec<f64> {
        (0..d.len()).map(|i| relative_importance(d, i)).collect()
    }

    #[test]
    fn most_likely_task_has_importance_one() {
        let d = dist(&[0.1, 0.6, 0.3]);
        let r = importances(&d);
        assert!((r[1] - 1.0).abs() < 1e-12);
        assert!((r[0] - 0.1 / 0.6).abs() < 1e-12);
        assert!((r[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_task_importance_is_one() {
        let d = dist(&[1.0]);
        assert_eq!(relative_importance(&d, 0), 1.0);
    }

    #[test]
    fn uniform_distribution_all_important() {
        let d = dist(&[0.25, 0.25, 0.25, 0.25]);
        for r in importances(&d) {
            assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_zero_mass_treated_as_important() {
        let d = dist(&[0.0, 0.0]);
        assert_eq!(relative_importance(&d, 0), 1.0);
        assert_eq!(relative_importance(&d, 1), 1.0);
        assert_eq!(importance_ratio(0.0, 0.0), 1.0);
    }

    #[test]
    fn importances_are_in_unit_interval() {
        let d = dist(&[0.05, 0.9, 0.05]);
        for r in importances(&d) {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    #[should_panic(expected = "empty distribution")]
    fn empty_distribution_panics() {
        let _ = relative_importance(&[], 0);
    }
}
