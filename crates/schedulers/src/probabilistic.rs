//! The probabilistic scheduler interface (Definition 4.1).
//!
//! A probabilistic scheduler produces, at every scheduling event, a
//! probability distribution over the set `A_t` of stages that are ready to
//! execute.  Decima does this by applying a masked softmax to learned
//! per-stage scores; PCAPS (in `pcaps-core`) consumes the distribution to
//! compute each stage's *relative importance* (Definition 4.2) and applies
//! its carbon-awareness filter on top.

use pcaps_cluster::SchedulingContext;
use pcaps_dag::{JobId, StageId};
use serde::{Deserialize, Serialize};

/// One entry of the distribution over dispatchable stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageProbability {
    /// The job the stage belongs to.
    pub job: JobId,
    /// The stage.
    pub stage: StageId,
    /// Probability mass assigned to the stage (the distribution over all
    /// entries sums to 1).
    pub probability: f64,
}

/// One stage drawn from the distribution (PCAPS Algorithm 1, line 5), with
/// the two probabilities its relative importance (Definition 4.2) needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledStage {
    /// The job the stage belongs to.
    pub job: JobId,
    /// The stage.
    pub stage: StageId,
    /// Probability mass `p_{v,t}` of the drawn stage.
    pub probability: f64,
    /// The largest probability `max_u p_{u,t}` in the distribution.
    pub max_probability: f64,
}

/// A scheduler that exposes a probability distribution over runnable stages
/// (Definition 4.1) plus a per-stage parallelism limit, the two signals PCAPS
/// consumes.
///
/// `Send` mirrors the supertrait on [`Scheduler`] (whose parallel execution
/// mode hands policies to worker threads): PCAPS wraps a probabilistic
/// scheduler, so the wrapper is only `Send` if the inner policy is.
///
/// [`Scheduler`]: pcaps_cluster::Scheduler
pub trait ProbabilisticScheduler: Send {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Writes the distribution `{p_{v,t} : v ∈ A_t}` over all dispatchable
    /// stages into `out` (cleared first): the Definition 4.1 view, used by
    /// tests and oracles.  The scheduling hot path is
    /// [`ProbabilisticScheduler::sample`], which need not materialise it.
    ///
    /// Implementations must leave `out` empty only when there is no
    /// dispatchable work; otherwise probabilities must be positive and sum
    /// to 1 (within floating-point tolerance).
    fn distribution_into(&mut self, ctx: &SchedulingContext<'_>, out: &mut Vec<StageProbability>);

    /// Allocating convenience form of
    /// [`ProbabilisticScheduler::distribution_into`].
    fn distribution(&mut self, ctx: &SchedulingContext<'_>) -> Vec<StageProbability> {
        let mut out = Vec::new();
        self.distribution_into(ctx, &mut out);
        out
    }

    /// Samples one stage from the distribution: `None` when there is no
    /// dispatchable work, otherwise the entry whose CDF first reaches
    /// `r = draw()` plus the distribution's largest probability.  `draw` is
    /// called exactly once, and only after the distribution is known to be
    /// non-empty, so a caller's RNG stream does not depend on how the policy
    /// samples.
    ///
    /// The result must agree with [`ProbabilisticScheduler::distribution`]
    /// for the same context: the sampled entry's probability and the
    /// largest probability carry the bits that view would hold.  The CDF may
    /// be walked in any grouping of the same entry order (job by job, then
    /// stage by stage, say), so the pick may differ from [`sample_cdf`] over
    /// the materialised probabilities only when `r` lies within rounding of
    /// a CDF boundary.  Implementations are free not to materialise the
    /// distribution.
    fn sample(
        &mut self,
        ctx: &SchedulingContext<'_>,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<SampledStage>;

    /// The parallelism limit (number of executors) the policy would grant
    /// the given stage if it were scheduled now — the `P` that PCAPS rescales
    /// into `P′` (§5.1).
    ///
    /// Callers invoke this immediately after
    /// [`ProbabilisticScheduler::distribution_into`] or
    /// [`ProbabilisticScheduler::sample`] within the same scheduling event,
    /// so implementations may answer from per-event state cached by the
    /// distribution pass (and must fall back to the context when no such
    /// state exists yet).
    fn parallelism_limit(&self, ctx: &SchedulingContext<'_>, job: JobId, stage: StageId) -> usize;
}

/// The textbook softmax: `exp((s − max s) / T) / Σ` over a list of scores
/// at the given temperature.  Returns an empty vector for empty input.
/// `DecimaLike` computes the same distribution in factorised form; this is
/// the definition its tests check it against.
pub fn softmax(scores: &[f64], temperature: f64) -> Vec<f64> {
    assert!(temperature > 0.0, "softmax temperature must be positive");
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = scores.iter().map(|s| ((s - max) / temperature).exp()).collect();
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
    out
}

/// Walks the CDF of a probability sequence and returns the index at which
/// the cumulative mass first reaches `r`: the textbook sampling step of
/// PCAPS Algorithm 1 line 5 over a materialised distribution, which test
/// oracles apply.  The scheduling hot path does not call it.
/// [`ProbabilisticScheduler::sample`] implementations walk their own CDF
/// (`DecimaLike`'s goes job by job, then stage by stage), which agrees
/// with this one except within rounding of a boundary.  Rounding can leave
/// the cumulative mass just short of `r ≈ 1`; the walk then falls back to
/// the final index.  Returns `None` only for an empty sequence; callers
/// draw `r` *after* ruling that out so RNG streams are unchanged.
pub fn sample_cdf(probs: impl IntoIterator<Item = f64>, r: f64) -> Option<usize> {
    let mut acc = 0.0;
    let mut last = None;
    for (i, p) in probs.into_iter().enumerate() {
        acc += p;
        if r <= acc {
            return Some(i);
        }
        last = Some(i);
    }
    last
}

/// Checks that a distribution is valid: non-empty probabilities that are
/// positive and sum to ~1.  Useful in tests and debug assertions.
pub fn is_valid_distribution(dist: &[StageProbability]) -> bool {
    if dist.is_empty() {
        return false;
    }
    let sum: f64 = dist.iter().map(|d| d.probability).sum();
    dist.iter().all(|d| d.probability > 0.0 && d.probability <= 1.0 + 1e-9)
        && (sum - 1.0).abs() < 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0], 1.0);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_temperature_flattens() {
        let sharp = softmax(&[1.0, 5.0], 0.5);
        let flat = softmax(&[1.0, 5.0], 10.0);
        assert!(sharp[1] > flat[1]);
        assert!(flat[1] > 0.5);
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[], 1.0).is_empty());
    }

    #[test]
    fn softmax_handles_large_scores() {
        let p = softmax(&[1000.0, 1001.0], 1.0);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn softmax_rejects_zero_temperature() {
        let _ = softmax(&[1.0], 0.0);
    }

    #[test]
    fn distribution_validation() {
        let good = vec![
            StageProbability { job: JobId(0), stage: StageId(0), probability: 0.25 },
            StageProbability { job: JobId(0), stage: StageId(1), probability: 0.75 },
        ];
        assert!(is_valid_distribution(&good));
        let bad_sum = vec![StageProbability {
            job: JobId(0),
            stage: StageId(0),
            probability: 0.5,
        }];
        assert!(!is_valid_distribution(&bad_sum));
        assert!(!is_valid_distribution(&[]));
    }
}
