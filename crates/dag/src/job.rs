//! The job DAG: stages plus precedence edges.

use crate::analysis;
use crate::error::DagError;
use crate::graph::Adjacency;
use crate::ids::StageId;
use crate::stage::Stage;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A validated job DAG.
///
/// Invariants (enforced by [`crate::JobDagBuilder::build`] and
/// [`JobDag::validate`]):
/// * at least one stage,
/// * every stage has at least one task,
/// * stage ids are dense `0..n` and match their index in `stages`,
/// * the precedence edges form a DAG (no cycles, no self-loops).
///
/// **Treat a built DAG as immutable.**  Derived quantities
/// ([`JobDag::bottleneck_scores`], [`JobDag::duration_suffix_sums`]) are
/// cached on first use; mutating `stages`/`adjacency` in place afterwards
/// serves stale answers silently.  To change a job, pass it by value
/// through a consuming transform — [`JobDag::scaled`] and
/// [`JobDag::renamed`] rewrite durations or the name in place and return
/// the job with both caches cleared, copying nothing.  The fields stay
/// public for reading and for tests that deliberately construct invalid
/// states for [`JobDag::validate`].
#[derive(Debug, Serialize, Deserialize)]
pub struct JobDag {
    /// Human-readable job name, e.g., `"tpch-q17-10g"`.
    pub name: String,
    /// Stages indexed by [`StageId`].  Do not mutate after construction —
    /// see the type-level note on cached derived quantities.
    pub stages: Vec<Stage>,
    /// Precedence edges between stages.  Do not mutate after construction —
    /// see the type-level note on cached derived quantities.
    pub adjacency: Adjacency,
    /// Lazily computed per-stage bottleneck scores
    /// ([`analysis::bottleneck_scores`]) — a pure function of the static
    /// DAG, queried by Decima-style schedulers at every scheduling event.
    /// Excluded from `Clone`/`PartialEq`; mutating `stages`/`adjacency`
    /// through the public fields after the cache is populated leaves it
    /// stale (go through `scaled`/`renamed`, which clear it, instead).
    #[serde(skip)]
    bottleneck_cache: OnceLock<Box<[f64]>>,
    /// Lazily computed per-stage duration suffix sums backing
    /// [`JobDag::duration_suffix_sums`].  Same caching contract as
    /// `bottleneck_cache`.
    #[serde(skip)]
    work_suffix_cache: OnceLock<WorkSuffix>,
}

/// Flattened per-stage duration suffix sums:
/// `offsets[s]..offsets[s + 1]` indexes stage `s`'s slice of `sums` (one
/// entry per task plus a trailing empty-suffix sum).
#[derive(Debug)]
struct WorkSuffix {
    offsets: Vec<u32>,
    sums: Vec<f64>,
}

impl Clone for JobDag {
    fn clone(&self) -> Self {
        JobDag {
            name: self.name.clone(),
            stages: self.stages.clone(),
            adjacency: self.adjacency.clone(),
            bottleneck_cache: OnceLock::new(),
            work_suffix_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for JobDag {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.stages == other.stages
            && self.adjacency == other.adjacency
    }
}

impl JobDag {
    /// Assembles a DAG from its parts (used by the builder; invariants are
    /// the caller's responsibility).
    pub(crate) fn from_parts(name: String, stages: Vec<Stage>, adjacency: Adjacency) -> Self {
        JobDag {
            name,
            stages,
            adjacency,
            bottleneck_cache: OnceLock::new(),
            work_suffix_cache: OnceLock::new(),
        }
    }

    /// Number of stages in the job.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of tasks over all stages.
    pub fn num_tasks(&self) -> usize {
        self.stages.iter().map(Stage::num_tasks).sum()
    }

    /// Total executor-seconds of work in the job (the optimal single-executor
    /// makespan, `OPT_1(J)` in the paper's notation).
    pub fn total_work(&self) -> f64 {
        self.stages.iter().map(Stage::total_work).sum()
    }

    /// Returns the stage with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids handed out by this crate are
    /// always valid for the job that produced them.
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// Iterates over all stage ids in increasing order.
    pub fn stage_ids(&self) -> impl Iterator<Item = StageId> + '_ {
        (0..self.stages.len() as u32).map(StageId)
    }

    /// Stages with no prerequisites.
    pub fn source_stages(&self) -> Vec<StageId> {
        self.adjacency.sources()
    }

    /// Stages with no dependents.
    pub fn sink_stages(&self) -> Vec<StageId> {
        self.adjacency.sinks()
    }

    /// Critical-path length of the job assuming unlimited executors (each
    /// stage contributes its longest task).  See [`analysis::critical_path`].
    pub fn critical_path_length(&self) -> f64 {
        analysis::critical_path(self).length
    }

    /// Per-stage bottleneck scores ([`analysis::bottleneck_scores`]),
    /// computed once per DAG and cached.  Decima-style scorers consult this
    /// at every scheduling event; with shared (`Arc`) DAGs the graph
    /// analysis runs once per job for the lifetime of the workload instead
    /// of once per scheduling event.
    pub fn bottleneck_scores(&self) -> &[f64] {
        self.bottleneck_cache
            .get_or_init(|| analysis::bottleneck_scores(self).into_boxed_slice())
    }

    /// Per-stage duration suffix sums, computed once per DAG and cached:
    /// `sums[offsets[s] + k]` is the total duration of stage `s`'s tasks
    /// `k..`, accumulated left to right exactly as a direct
    /// `tasks[k..].iter().sum()` would round, so remaining-work queries
    /// answered from the cache are bit-identical to recomputation.  The
    /// build is quadratic in the largest stage's task count (to preserve
    /// that rounding), but runs once per DAG — off the simulation's
    /// per-event path, amortized across arrivals, runs, and `Arc` sharers.
    pub fn duration_suffix_sums(&self) -> (&[u32], &[f64]) {
        let cached = self.work_suffix_cache.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.stages.len() + 1);
            let mut sums = Vec::with_capacity(self.num_tasks() + self.stages.len());
            offsets.push(0u32);
            for stage in &self.stages {
                for k in 0..=stage.tasks.len() {
                    sums.push(stage.tasks[k..].iter().map(|t| t.duration).sum::<f64>());
                }
                offsets.push(sums.len() as u32);
            }
            WorkSuffix { offsets, sums }
        });
        (&cached.offsets, &cached.sums)
    }

    /// Validates all structural invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError::EmptyJob);
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.id.index() != i {
                // A stage id out of step with its index means the table was
                // assembled by hand; surface it as an unknown-stage error.
                return Err(DagError::UnknownStage { stage: s.id });
            }
            s.check_tasks()?;
        }
        if self.adjacency.len() != self.stages.len() {
            return Err(DagError::UnknownStage {
                stage: StageId(self.adjacency.len() as u32),
            });
        }
        self.adjacency.topological_order().map(|_| ())
    }

    /// Returns the job with every task duration multiplied by `factor`
    /// (experiment time scaling, §6.1 of the paper), rewritten in place;
    /// the derived-quantity caches are cleared.  Clone first to keep the
    /// original.
    pub fn scaled(self, factor: f64) -> JobDag {
        let stages = self.stages.into_iter().map(|s| s.scaled(factor)).collect();
        JobDag::from_parts(self.name, stages, self.adjacency)
    }

    /// Returns the job under a different name (useful when instantiating
    /// the same template several times within a workload), with the
    /// derived-quantity caches cleared.  Clone first to keep the original.
    pub fn renamed(self, name: impl Into<String>) -> JobDag {
        JobDag::from_parts(name.into(), self.stages, self.adjacency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JobDagBuilder;
    use crate::task::Task;

    fn chain(n: usize, dur: f64) -> JobDag {
        let mut b = JobDagBuilder::new("chain");
        for i in 0..n {
            b = b.stage(format!("s{i}"), vec![Task::new(dur)]);
        }
        for i in 1..n {
            b = b
                .edge(StageId((i - 1) as u32), StageId(i as u32))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn totals() {
        let j = chain(5, 2.0);
        assert_eq!(j.num_stages(), 5);
        assert_eq!(j.num_tasks(), 5);
        assert!((j.total_work() - 10.0).abs() < 1e-12);
        assert!((j.critical_path_length() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sources_and_sinks() {
        let j = chain(3, 1.0);
        assert_eq!(j.source_stages(), vec![StageId(0)]);
        assert_eq!(j.sink_stages(), vec![StageId(2)]);
    }

    #[test]
    fn validate_detects_empty_stage() {
        let mut j = chain(2, 1.0);
        j.stages[1].tasks.clear();
        assert_eq!(
            j.validate(),
            Err(DagError::EmptyStage { stage: StageId(1) })
        );
    }

    #[test]
    fn validate_detects_invalid_task_durations() {
        for bad in [f64::NAN, f64::NEG_INFINITY, -3.0] {
            let mut j = chain(3, 1.0);
            j.stages[2].tasks[0].duration = bad;
            assert_eq!(
                j.validate(),
                Err(DagError::InvalidTaskDuration { stage: StageId(2), task: 0 }),
                "duration {bad}"
            );
        }
    }

    #[test]
    fn validate_detects_mismatched_ids() {
        let mut j = chain(2, 1.0);
        j.stages[1].id = StageId(7);
        assert!(matches!(
            j.validate(),
            Err(DagError::UnknownStage { .. })
        ));
    }

    #[test]
    fn scaled_preserves_structure() {
        let j = chain(4, 60.0).scaled(1.0 / 60.0);
        assert_eq!(j.num_stages(), 4);
        assert!((j.total_work() - 4.0).abs() < 1e-9);
        j.validate().unwrap();
    }

    #[test]
    fn renamed_changes_only_name() {
        let j = chain(2, 1.0);
        let r = j.clone().renamed("other");
        assert_eq!(r.name, "other");
        assert_eq!(r.num_stages(), j.num_stages());
        assert_eq!(r.adjacency, j.adjacency);
    }

    #[test]
    fn scaled_clears_the_caches() {
        let j = chain(3, 60.0);
        assert_eq!(j.duration_suffix_sums().1[0], 60.0);
        let j = j.scaled(0.5);
        assert_eq!(j.duration_suffix_sums().1[0], 30.0);
    }
}
