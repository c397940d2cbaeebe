//! Graph measures used by schedulers: critical path, bottom/top levels,
//! work, and bottleneck scores.
//!
//! These quantities feed the Decima-like probabilistic scheduler (which turns
//! them into stage scores) and the analytical results of the paper (which
//! reference `OPT_1(J)` = total work and the critical path as makespan lower
//! bounds).

use crate::ids::StageId;
use crate::job::JobDag;
use serde::{Deserialize, Serialize};

/// Result of a critical-path computation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Wall-clock length of the critical path assuming unlimited executors
    /// (each stage contributes its longest task duration).
    pub length: f64,
    /// The stages on one longest path, in precedence order.
    pub stages: Vec<StageId>,
}

/// Per-stage levels computed over the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLevels {
    /// `bottom_level[s]`: longest path (in stage critical durations) from `s`
    /// to any sink, *including* `s` itself.  Stages with large bottom level
    /// are bottlenecks: delaying them delays the whole job.
    pub bottom_level: Vec<f64>,
    /// `top_level[s]`: longest path from any source to `s`, *excluding* `s`;
    /// the earliest time `s` could start with unlimited executors.
    pub top_level: Vec<f64>,
    /// `work_below[s]`: total executor-seconds of work in `s` and all of its
    /// descendants.  Used by work-remaining-style heuristics.
    pub work_below: Vec<f64>,
}

/// Lower bound on the makespan with `k` executors:
/// `max(total_work / k, critical_path)`.
pub fn makespan_lower_bound(job: &JobDag, executors: usize) -> f64 {
    let cp = critical_path(job).length;
    if executors == 0 {
        return f64::INFINITY;
    }
    (job.total_work() / executors as f64).max(cp)
}

/// Computes the critical path of the job (unlimited-executor longest path).
pub fn critical_path(job: &JobDag) -> CriticalPath {
    critical_path_along(job, &topological_order(job))
}

fn topological_order(job: &JobDag) -> Vec<StageId> {
    job.adjacency
        .topological_order()
        .expect("JobDag invariant guarantees acyclicity")
}

/// [`critical_path`] over a topological `order` of the job's stages.
fn critical_path_along(job: &JobDag, order: &[StageId]) -> CriticalPath {
    let n = job.num_stages();
    // dist[s] = longest path ending at s, including s.
    let mut dist = vec![0.0_f64; n];
    let mut pred: Vec<Option<StageId>> = vec![None; n];
    for &s in order {
        let own = job.stage(s).critical_duration();
        let (best_parent, best) = job
            .adjacency
            .parents(s)
            .iter()
            .map(|&p| (Some(p), dist[p.index()]))
            .fold((None, 0.0_f64), |acc, cur| if cur.1 > acc.1 { cur } else { acc });
        dist[s.index()] = best + own;
        pred[s.index()] = best_parent;
    }
    // Find the sink with the largest distance and walk back.
    let (mut cur, length) = dist
        .iter()
        .enumerate()
        .map(|(i, &d)| (StageId(i as u32), d))
        .fold((StageId(0), f64::NEG_INFINITY), |acc, cur| {
            if cur.1 > acc.1 {
                cur
            } else {
                acc
            }
        });
    let mut stages = vec![cur];
    while let Some(p) = pred[cur.index()] {
        stages.push(p);
        cur = p;
    }
    stages.reverse();
    CriticalPath {
        length: length.max(0.0),
        stages,
    }
}

/// Bottom level of every stage (see [`StageLevels::bottom_level`]), folded
/// over a topological `order` of the job's stages in reverse.
fn bottom_levels(job: &JobDag, order: &[StageId]) -> Vec<f64> {
    let mut bottom_level = vec![0.0_f64; job.num_stages()];
    for &s in order.iter().rev() {
        let child_bl = job
            .adjacency
            .children(s)
            .iter()
            .map(|&c| bottom_level[c.index()])
            .fold(0.0_f64, f64::max);
        bottom_level[s.index()] = job.stage(s).critical_duration() + child_bl;
    }
    bottom_level
}

/// Computes bottom level, top level and work-below for every stage.
pub fn stage_levels(job: &JobDag) -> StageLevels {
    let order = topological_order(job);
    let n = job.num_stages();

    let mut top_level = vec![0.0_f64; n];
    for &s in &order {
        let own_start = job
            .adjacency
            .parents(s)
            .iter()
            .map(|&p| top_level[p.index()] + job.stage(p).critical_duration())
            .fold(0.0_f64, f64::max);
        top_level[s.index()] = own_start;
    }

    let mut work_below = vec![0.0_f64; n];
    for &s in order.iter().rev() {
        // Work below counts each descendant exactly once.
        let mut sum = job.stage(s).total_work();
        for d in job.adjacency.descendants(s) {
            sum += job.stage(d).total_work();
        }
        work_below[s.index()] = sum;
    }

    StageLevels {
        bottom_level: bottom_levels(job, &order),
        top_level,
        work_below,
    }
}

/// A normalised bottleneck score per stage: bottom level divided by the
/// critical-path length.  A score of 1.0 means the stage lies on the critical
/// path at its very start; values near 0 indicate stages whose delay barely
/// affects the job.
///
/// O(stages + edges): one topological order feeds the folds of
/// [`critical_path`] and of [`stage_levels`]' bottom levels, without the
/// rest of `stage_levels` (its `work_below` is quadratic).
pub fn bottleneck_scores(job: &JobDag) -> Vec<f64> {
    let order = topological_order(job);
    let cp = critical_path_along(job, &order).length;
    if cp <= 0.0 {
        return vec![1.0; job.num_stages()];
    }
    let mut scores = bottom_levels(job, &order);
    for b in &mut scores {
        *b = (*b / cp).clamp(0.0, 1.0);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JobDagBuilder;
    use crate::task::Task;

    /// a(10) -> b(2) -> d(5); a -> c(20) -> d  — critical path a,c,d = 35.
    fn sample() -> JobDag {
        JobDagBuilder::new("sample")
            .stage("a", vec![Task::new(10.0)])
            .stage("b", vec![Task::new(2.0)])
            .stage("c", vec![Task::new(20.0)])
            .stage("d", vec![Task::new(5.0)])
            .edge_by_name("a", "b")
            .unwrap()
            .edge_by_name("a", "c")
            .unwrap()
            .edge_by_name("b", "d")
            .unwrap()
            .edge_by_name("c", "d")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn critical_path_length_and_members() {
        let cp = critical_path(&sample());
        assert!((cp.length - 35.0).abs() < 1e-12);
        assert_eq!(cp.stages, vec![StageId(0), StageId(2), StageId(3)]);
    }

    #[test]
    fn critical_path_of_single_stage() {
        let job = JobDagBuilder::new("one")
            .stage("a", vec![Task::new(4.0), Task::new(7.0)])
            .build()
            .unwrap();
        let cp = critical_path(&job);
        assert!((cp.length - 7.0).abs() < 1e-12);
        assert_eq!(cp.stages, vec![StageId(0)]);
    }

    #[test]
    fn levels_are_consistent() {
        let job = sample();
        let lv = stage_levels(&job);
        // top level of a is 0, of c is 10, of d is 30.
        assert!((lv.top_level[0] - 0.0).abs() < 1e-12);
        assert!((lv.top_level[2] - 10.0).abs() < 1e-12);
        assert!((lv.top_level[3] - 30.0).abs() < 1e-12);
        // bottom level of a is the full critical path, of d is 5.
        assert!((lv.bottom_level[0] - 35.0).abs() < 1e-12);
        assert!((lv.bottom_level[3] - 5.0).abs() < 1e-12);
        // work below a is the whole job's work.
        assert!((lv.work_below[0] - job.total_work()).abs() < 1e-12);
        assert!((lv.work_below[3] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn top_plus_bottom_bounded_by_cp_on_path() {
        let job = sample();
        let lv = stage_levels(&job);
        let cp = critical_path(&job).length;
        for s in job.stage_ids() {
            let through = lv.top_level[s.index()] + lv.bottom_level[s.index()];
            assert!(
                through <= cp + 1e-9,
                "longest path through any stage cannot exceed the critical path"
            );
        }
    }

    #[test]
    fn bottleneck_scores_normalised() {
        let job = sample();
        let scores = bottleneck_scores(&job);
        assert_eq!(scores.len(), 4);
        assert!((scores[0] - 1.0).abs() < 1e-12, "source on CP has score 1");
        for s in &scores {
            assert!((0.0..=1.0).contains(s));
        }
        assert!(scores[2] > scores[1], "c is more of a bottleneck than b");
    }

    #[test]
    fn makespan_lower_bound_properties() {
        let job = sample();
        // 1 executor: bound is total work.
        assert!((makespan_lower_bound(&job, 1) - job.total_work()).abs() < 1e-12);
        // Many executors: bound is the critical path.
        assert!((makespan_lower_bound(&job, 1000) - 35.0).abs() < 1e-12);
        assert_eq!(makespan_lower_bound(&job, 0), f64::INFINITY);
    }
}
