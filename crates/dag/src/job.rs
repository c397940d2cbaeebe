//! The job DAG: stages plus precedence edges, stored flat.

use crate::analysis;
use crate::error::DagError;
use crate::graph::Adjacency;
use crate::ids::StageId;
use crate::stage::Stage;
use crate::task::Task;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;

/// A validated job DAG.
///
/// A job is stored flat, so it is a fixed handful of heap blocks whatever
/// its size: every task in one array in stage order, the stage names in
/// one string, and the end of each stage's slice of both as a `u32`.  Stage
/// ids are implicit (a stage's id is its index): stage `s` holds
/// `tasks[stage_ends[s - 1]..stage_ends[s]]` (from 0 for stage 0) and is
/// named `stage_names[name_ends[s - 1]..name_ends[s]]`.  [`JobDag::stage`]
/// and [`JobDag::stages`] hand out borrowed [`Stage`] views of them.
///
/// Invariants (enforced by [`crate::JobDagBuilder::build`] and
/// [`JobDag::validate`]):
/// * at least one stage,
/// * stage ends strictly increase (every stage has at least one task) and
///   the last one is the task count,
/// * one name end per stage, non-decreasing and each on a `char` boundary
///   of the name arena,
/// * every task duration is finite and non-negative,
/// * the precedence edges form a DAG (no cycles, no self-loops).
///
/// **Treat a built DAG as immutable.**  That covers every public field:
/// the tasks, both end arrays, the name arena and the adjacency.  Derived
/// quantities ([`JobDag::bottleneck_scores`],
/// [`JobDag::duration_suffix_sums`]) are cached on first use; mutating the
/// fields in place afterwards serves stale answers silently.  To change a
/// job, pass it by value through a consuming transform — [`JobDag::scaled`]
/// rewrites the durations in place and clears both caches, and
/// [`JobDag::renamed`] replaces the job name, copying nothing.  The fields
/// stay public for reading and for tests that deliberately construct
/// invalid states for [`JobDag::validate`].
#[derive(Debug, Serialize, Deserialize)]
pub struct JobDag {
    /// Human-readable job name, e.g., `"tpch-q17-10g"`.
    pub name: String,
    /// Every task of the job, stage by stage.
    pub tasks: Vec<Task>,
    /// `stage_ends[s]` is one past the index in `tasks` of stage `s`'s last
    /// task.
    pub stage_ends: Vec<u32>,
    /// Every stage name, concatenated.
    pub stage_names: String,
    /// `name_ends[s]` is the byte offset in `stage_names` where stage `s`'s
    /// name ends.
    pub name_ends: Vec<u32>,
    /// Precedence edges between stages.
    pub adjacency: Adjacency,
    /// Lazily computed per-stage bottleneck scores
    /// ([`analysis::bottleneck_scores`]) — a pure function of the static
    /// DAG, queried by Decima-style schedulers at every scheduling event.
    /// Excluded from `Clone`/`PartialEq`; mutating the tasks or the
    /// adjacency through the public fields after the cache is populated
    /// leaves it stale (go through `scaled`, which clears it, instead).
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
            tasks: self.tasks.clone(),
            stage_ends: self.stage_ends.clone(),
            stage_names: self.stage_names.clone(),
            name_ends: self.name_ends.clone(),
            adjacency: self.adjacency.clone(),
            bottleneck_cache: OnceLock::new(),
            work_suffix_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for JobDag {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.tasks == other.tasks
            && self.stage_ends == other.stage_ends
            && self.stage_names == other.stage_names
            && self.name_ends == other.name_ends
            && self.adjacency == other.adjacency
    }
}

/// The range that entry `i` of an end array closes (`ends[i - 1]..ends[i]`,
/// from 0 for `i == 0`); `None` if `i` is past the array.
#[inline]
pub(crate) fn span(ends: &[u32], i: usize) -> Option<Range<usize>> {
    let end = *ends.get(i)? as usize;
    let start = match i.checked_sub(1) {
        Some(prev) => ends[prev] as usize,
        None => 0,
    };
    Some(start..end)
}

/// Checks a job's flat stage layout and its tasks, returning the first
/// violation: no stage, a stage end below the previous one or equal to it
/// (an empty stage), missing, extra or malformed name bounds, a last stage
/// end that is not the task count, then the first task whose duration is
/// not finite and non-negative.  O(stages + tasks), and reads nothing
/// through an index it has not checked.
pub(crate) fn check_stages(
    tasks: &[Task],
    stage_ends: &[u32],
    stage_names: &str,
    name_ends: &[u32],
) -> Result<(), DagError> {
    if stage_ends.is_empty() {
        return Err(DagError::EmptyJob);
    }
    let (mut start, mut name_start) = (0, 0);
    for (i, &end) in stage_ends.iter().enumerate() {
        // The ends before `i` strictly increase from at least 1 and fit a
        // `u32`, so `i` does too.
        let stage = StageId(i as u32);
        if end < start {
            return Err(DagError::StageEndsDecrease { stage });
        }
        if end == start {
            return Err(DagError::EmptyStage { stage });
        }
        match name_ends.get(i) {
            Some(&name_end)
                if name_end >= name_start && stage_names.is_char_boundary(name_end as usize) =>
            {
                name_start = name_end;
            }
            _ => return Err(DagError::InvalidStageName { stage }),
        }
        start = end;
    }
    if name_ends.len() > stage_ends.len() {
        return Err(DagError::InvalidStageName {
            stage: StageId(stage_ends.len() as u32),
        });
    }
    if start as usize != tasks.len() {
        return Err(DagError::TaskCountMismatch {
            last_end: start as usize,
            tasks: tasks.len(),
        });
    }
    match tasks
        .iter()
        .position(|t| !(t.duration.is_finite() && t.duration >= 0.0))
    {
        Some(k) => {
            let s = stage_ends.partition_point(|&end| end as usize <= k);
            let first = span(stage_ends, s).map_or(0, |r| r.start);
            Err(DagError::InvalidTaskDuration {
                stage: StageId(s as u32),
                task: k - first,
            })
        }
        None => Ok(()),
    }
}

impl JobDag {
    /// Assembles a DAG from its parts (used by the builder; invariants are
    /// the caller's responsibility).
    pub(crate) fn from_parts(
        name: String,
        tasks: Vec<Task>,
        stage_ends: Vec<u32>,
        stage_names: String,
        name_ends: Vec<u32>,
        adjacency: Adjacency,
    ) -> Self {
        JobDag {
            name,
            tasks,
            stage_ends,
            stage_names,
            name_ends,
            adjacency,
            bottleneck_cache: OnceLock::new(),
            work_suffix_cache: OnceLock::new(),
        }
    }

    /// Number of stages in the job.
    pub fn num_stages(&self) -> usize {
        self.stage_ends.len()
    }

    /// Total number of tasks over all stages.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total executor-seconds of work in the job (the optimal single-executor
    /// makespan, `OPT_1(J)` in the paper's notation): each stage's sum, then
    /// the sum over stages.
    pub fn total_work(&self) -> f64 {
        self.stages().map(Stage::total_work).sum()
    }

    /// Returns a view of the stage with the given id.
    ///
    /// On a DAG whose layout [`JobDag::validate`] rejects, a stage whose
    /// task or name bounds do not fit reads as empty or unnamed rather than
    /// panicking, so an unvalidated job can still be named and summed.
    ///
    /// # Panics
    /// Panics if the id is out of range; ids handed out by this crate are
    /// always valid for the job that produced them.
    #[inline] // lets a caller that reads only `tasks` skip the name bounds
    pub fn stage(&self, id: StageId) -> Stage<'_> {
        let i = id.index();
        assert!(
            i < self.num_stages(),
            "{id} is out of range for a job of {} stages",
            self.num_stages()
        );
        Stage {
            id,
            name: self.name_of(i),
            tasks: span(&self.stage_ends, i)
                .and_then(|r| self.tasks.get(r))
                .unwrap_or(&[]),
        }
    }

    /// Views of every stage, in increasing id order: one walk of the end
    /// arrays, each stage starting where the previous one ended (read as
    /// [`JobDag::stage`] would on a corrupted layout).
    pub fn stages(&self) -> impl ExactSizeIterator<Item = Stage<'_>> + '_ {
        let mut start = 0;
        self.stage_ends.iter().enumerate().map(move |(i, &end)| {
            let tasks = self.tasks.get(start..end as usize).unwrap_or(&[]);
            start = end as usize;
            Stage {
                id: StageId(i as u32),
                name: self.name_of(i),
                tasks,
            }
        })
    }

    /// Stage `i`'s name, or `""` where its bounds do not fit the arena.
    #[inline]
    fn name_of(&self, i: usize) -> &str {
        span(&self.name_ends, i)
            .and_then(|r| self.stage_names.get(r))
            .unwrap_or("")
    }

    /// Iterates over all stage ids in increasing order.
    pub fn stage_ids(&self) -> impl ExactSizeIterator<Item = StageId> {
        (0..self.stage_ends.len() as u32).map(StageId)
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
            let mut offsets = Vec::with_capacity(self.num_stages() + 1);
            let mut sums = Vec::with_capacity(self.num_tasks() + self.num_stages());
            offsets.push(0u32);
            for stage in self.stages() {
                for k in 0..=stage.tasks.len() {
                    sums.push(stage.tasks[k..].iter().map(|t| t.duration).sum::<f64>());
                }
                offsets.push(sums.len() as u32);
            }
            WorkSuffix { offsets, sums }
        });
        (&cached.offsets, &cached.sums)
    }

    /// Validates all structural invariants, returning the first violation:
    /// the flat layout and the task durations first (see the type-level
    /// invariants), then the adjacency's stage count, then acyclicity.
    /// Reads nothing out of bounds, however the public fields were edited.
    pub fn validate(&self) -> Result<(), DagError> {
        check_stages(&self.tasks, &self.stage_ends, &self.stage_names, &self.name_ends)?;
        if self.adjacency.len() != self.num_stages() {
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
    pub fn scaled(mut self, factor: f64) -> JobDag {
        for task in &mut self.tasks {
            *task = task.scaled(factor);
        }
        self.bottleneck_cache = OnceLock::new();
        self.work_suffix_cache = OnceLock::new();
        self
    }

    /// Returns the job under a different name (useful when instantiating
    /// the same template several times within a workload).  The cached
    /// derived quantities do not depend on the name and are kept.  Clone
    /// first to keep the original.
    pub fn renamed(mut self, name: impl Into<String>) -> JobDag {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JobDagBuilder;

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
        j.tasks.pop();
        j.stage_ends[1] = j.stage_ends[0];
        assert_eq!(
            j.validate(),
            Err(DagError::EmptyStage { stage: StageId(1) })
        );
    }

    #[test]
    fn validate_detects_invalid_task_durations() {
        for bad in [f64::NAN, f64::NEG_INFINITY, -3.0] {
            let mut j = chain(3, 1.0);
            j.tasks[2].duration = bad;
            assert_eq!(
                j.validate(),
                Err(DagError::InvalidTaskDuration { stage: StageId(2), task: 0 }),
                "duration {bad}"
            );
        }
    }

    /// Every corruption of the flat layout is a descriptive error, never an
    /// index or slice panic — in `validate` and in the readers that may see
    /// an unvalidated job (its stage views and total work).
    #[test]
    fn validate_detects_a_corrupt_flat_layout() {
        let job = || {
            JobDagBuilder::new("j")
                .stage("é", vec![Task::new(1.0); 2])
                .stage("b", vec![Task::new(2.0); 3])
                .stage("c", vec![Task::new(3.0)])
                .build()
                .unwrap()
        };
        type Corruption = fn(&mut JobDag);
        let cases: [(Corruption, DagError); 8] = [
            (|j| j.stage_ends[1] = 1, DagError::StageEndsDecrease { stage: StageId(1) }),
            (|j| j.stage_ends[2] = 9, DagError::TaskCountMismatch { last_end: 9, tasks: 6 }),
            (|j| { j.tasks.pop(); }, DagError::TaskCountMismatch { last_end: 6, tasks: 5 }),
            (|j| j.name_ends[2] = 99, DagError::InvalidStageName { stage: StageId(2) }),
            (|j| j.name_ends[0] = 1, DagError::InvalidStageName { stage: StageId(0) }),
            (|j| { j.name_ends.pop(); }, DagError::InvalidStageName { stage: StageId(2) }),
            (|j| j.name_ends.push(4), DagError::InvalidStageName { stage: StageId(3) }),
            (
                |j| j.tasks[4].duration = f64::NAN,
                DagError::InvalidTaskDuration { stage: StageId(1), task: 2 },
            ),
        ];
        for (i, (corrupt, expected)) in cases.into_iter().enumerate() {
            let mut j = job();
            corrupt(&mut j);
            assert_eq!(j.validate(), Err(expected), "case {i}");
            let _ = j.total_work();
            let _: Vec<_> = j.stages().collect();
        }
        let mut empty = job();
        empty.stage_ends.clear();
        assert_eq!(empty.validate(), Err(DagError::EmptyJob));
    }

    #[test]
    fn stage_views_slice_the_flat_arrays() {
        let j = JobDagBuilder::new("j")
            .stage("first", vec![Task::new(1.0), Task::new(2.0)])
            .stage("", vec![Task::new(3.0)])
            .build()
            .unwrap();
        assert_eq!(j.stage_ends, [2, 3]);
        assert_eq!((j.stage_names.as_str(), j.name_ends.as_slice()), ("first", &[5, 5][..]));
        let views: Vec<_> = j.stages().map(|s| (s.id, s.name, s.tasks)).collect();
        assert_eq!(
            views,
            [
                (StageId(0), "first", &j.tasks[..2]),
                (StageId(1), "", &j.tasks[2..]),
            ]
        );
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
