//! TPC-H query DAG templates.
//!
//! Each of the 22 TPC-H queries is modelled as a Spark-style stage DAG:
//! a layer of table-scan stages (one per base table touched by the query),
//! a tree of join/shuffle stages, and a final aggregation/sort stage.  The
//! *shape* of each query's DAG (how many scans, how deep the join tree is,
//! and the query's relative cost) follows the well-known structure of the
//! TPC-H workload on Spark; the absolute durations are calibrated so that
//! the average single-executor duration over the 22 queries matches the
//! paper's reported numbers for each data scale: 180 s at 2 GB, 386 s at
//! 10 GB and 1 261 s at 50 GB (§6.1).
//!
//! Task counts grow with the data scale (more partitions), durations are
//! deterministic given `(query, scale, seed)`.

use crate::push_decimal;
use pcaps_dag::{JobDag, JobDagBuilder, Task};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A TPC-H query, `Q1` through `Q22`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TpchQuery(pub u8);

/// Data scale of the synthetic TPC-H database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TpchScale {
    /// 2 GB of input data — average single-executor duration 180 s.
    Gb2,
    /// 10 GB of input data — average single-executor duration 386 s.
    Gb10,
    /// 50 GB of input data — average single-executor duration 1 261 s.
    Gb50,
}

impl TpchScale {
    /// All scales used in the paper.
    pub const ALL: [TpchScale; 3] = [TpchScale::Gb2, TpchScale::Gb10, TpchScale::Gb50];

    /// Average single-executor duration (seconds) reported by the paper for
    /// this scale.
    pub fn target_mean_duration(&self) -> f64 {
        match self {
            TpchScale::Gb2 => 180.0,
            TpchScale::Gb10 => 386.0,
            TpchScale::Gb50 => 1261.0,
        }
    }

    /// Number of data partitions per scan stage at this scale — controls
    /// task counts.
    pub fn partitions(&self) -> usize {
        match self {
            TpchScale::Gb2 => 8,
            TpchScale::Gb10 => 16,
            TpchScale::Gb50 => 40,
        }
    }

    /// Short label used in job names (e.g., `"2g"`).
    pub fn label(&self) -> &'static str {
        match self {
            TpchScale::Gb2 => "2g",
            TpchScale::Gb10 => "10g",
            TpchScale::Gb50 => "50g",
        }
    }
}

/// Per-query structural parameters: `(scans, join_depth, relative_cost)`.
///
/// `scans` is the number of base tables the query touches, `join_depth` the
/// depth of the join tree above the scans, and `relative_cost` the query's
/// single-executor runtime relative to the average query (1.0).  The values
/// follow the qualitative structure of TPC-H (Q1/Q6 are single-table scans,
/// Q2/Q5/Q7/Q8/Q9/Q21 touch many tables with deep join trees, Q17/Q18/Q21
/// are among the most expensive).
const QUERY_SPECS: [(usize, usize, f64); 22] = [
    (1, 1, 0.85), // Q1: lineitem scan + aggregate
    (5, 3, 0.70), // Q2
    (3, 2, 0.90), // Q3
    (2, 2, 0.65), // Q4
    (6, 3, 1.10), // Q5
    (1, 1, 0.45), // Q6
    (5, 3, 1.05), // Q7
    (7, 3, 1.15), // Q8
    (6, 4, 1.80), // Q9
    (4, 2, 1.00), // Q10
    (3, 2, 0.40), // Q11
    (2, 2, 0.75), // Q12
    (2, 2, 0.95), // Q13
    (2, 2, 0.55), // Q14
    (2, 2, 0.60), // Q15
    (3, 2, 0.50), // Q16
    (2, 3, 1.55), // Q17
    (3, 3, 1.70), // Q18
    (2, 2, 0.80), // Q19
    (4, 3, 0.95), // Q20
    (4, 4, 1.90), // Q21
    (2, 2, 0.45), // Q22
];

impl TpchQuery {
    /// All 22 queries.
    pub fn all() -> Vec<TpchQuery> {
        (1..=22).map(TpchQuery).collect()
    }

    /// Creates a query handle, validating the id.
    pub fn new(id: u8) -> Option<TpchQuery> {
        if (1..=22).contains(&id) {
            Some(TpchQuery(id))
        } else {
            None
        }
    }

    /// The query's structural spec `(scans, join_depth, relative_cost)`.
    fn spec(&self) -> (usize, usize, f64) {
        QUERY_SPECS[(self.0 - 1) as usize]
    }

    /// Relative single-executor cost of this query (mean over all queries is
    /// ~1.0).
    pub fn relative_cost(&self) -> f64 {
        self.spec().2
    }

    /// Builds the job DAG for this query at the given scale.
    ///
    /// The `seed` only jitters individual task durations (±20%) around the
    /// stage means so repeated instances of the same query are not bit-wise
    /// identical; the total work is preserved.
    pub fn job(&self, scale: TpchScale, seed: u64) -> JobDag {
        let (scans, join_depth, relative_cost) = self.spec();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((self.0 as u64) << 32));

        // Normalise so the average query at this scale hits the target mean.
        let mean_cost: f64 =
            QUERY_SPECS.iter().map(|s| s.2).sum::<f64>() / QUERY_SPECS.len() as f64;
        let total_work = scale.target_mean_duration() * relative_cost / mean_cost;

        // Split the work: 55% in scans, 35% in the join tree, 10% in the
        // final aggregation — typical for scan-heavy TPC-H plans.
        let scan_work = total_work * 0.55;
        let join_work = total_work * 0.35;
        let agg_work = total_work * 0.10;

        let partitions = scale.partitions();
        let mut builder = JobDagBuilder::new(format!("tpch-q{}-{}", self.0, scale.label()));
        // One name buffer and one weight buffer serve every stage.
        let mut name = String::new();
        let mut weights = Vec::new();

        // Scan layer.
        let mut scan_ids = Vec::new();
        for s in 0..scans {
            let stage_work = scan_work / scans as f64;
            let tasks = jittered_tasks(&mut rng, &mut weights, stage_work, partitions);
            name.clear();
            name.push_str("scan");
            push_decimal(&mut name, s as u64);
            scan_ids.push(builder.add_stage(&name, tasks));
        }

        // Join tree: each level halves the number of stages (at least one),
        // every stage at level l+1 depends on two stages at level l (or one
        // if the level is odd-sized).
        let mut edges: Vec<(pcaps_dag::StageId, pcaps_dag::StageId)> = Vec::new();
        let mut prev_level = scan_ids.clone();
        let join_levels = join_depth.max(1);
        for level in 0..join_levels {
            let next_count = (prev_level.len().div_ceil(2)).max(1);
            let stage_work = join_work / join_levels as f64 / next_count as f64;
            let mut next_level = Vec::new();
            for j in 0..next_count {
                let tasks =
                    jittered_tasks(&mut rng, &mut weights, stage_work, (partitions / 2).max(2));
                name.clear();
                name.push_str("join");
                push_decimal(&mut name, level as u64);
                name.push('_');
                push_decimal(&mut name, j as u64);
                let id = builder.add_stage(&name, tasks);
                // Connect to one or two parents from the previous level.
                let p0 = prev_level[(2 * j) % prev_level.len()];
                edges.push((p0, id));
                if 2 * j + 1 < prev_level.len() {
                    edges.push((prev_level[2 * j + 1], id));
                }
                next_level.push(id);
            }
            prev_level = next_level;
        }

        // Final aggregation/sort stage depends on every stage of the last
        // join level.
        let agg_tasks = jittered_tasks(&mut rng, &mut weights, agg_work, (partitions / 4).max(1));
        let agg = builder.add_stage("aggregate", agg_tasks);
        for p in &prev_level {
            edges.push((*p, agg));
        }

        builder
            .edges(edges)
            .expect("generated edges are valid")
            .build()
            .expect("generated TPC-H DAG is always valid")
    }
}

/// Splits `stage_work` executor-seconds across `n` tasks with ±20% jitter,
/// preserving the total.  The jitter weights are drawn into `weights`
/// (cleared first), which the returned tasks borrow.
fn jittered_tasks<'w>(
    rng: &mut ChaCha8Rng,
    weights: &'w mut Vec<f64>,
    stage_work: f64,
    n: usize,
) -> impl Iterator<Item = Task> + 'w {
    weights.clear();
    weights.extend((0..n.max(1)).map(|_| rng.gen_range(0.8..1.2)));
    let total_weight: f64 = weights.iter().sum();
    weights
        .iter()
        .map(move |w| Task::new(stage_work * w / total_weight))
}

/// The average single-executor duration over all 22 queries at `scale`
/// (useful for calibration tests and workload sizing).
pub fn average_duration(scale: TpchScale) -> f64 {
    let jobs: Vec<JobDag> = TpchQuery::all().iter().map(|q| q.job(scale, 0)).collect();
    jobs.iter().map(JobDag::total_work).sum::<f64>() / jobs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_build_valid_dags() {
        for q in TpchQuery::all() {
            for scale in TpchScale::ALL {
                let job = q.job(scale, 1);
                job.validate().unwrap();
                assert!(job.num_stages() >= 3, "q{} has scans, joins, agg", q.0);
                assert!(job.total_work() > 0.0);
                assert_eq!(job.sink_stages().len(), 1, "single final stage");
            }
        }
    }

    #[test]
    fn query_ids_validated() {
        assert!(TpchQuery::new(0).is_none());
        assert!(TpchQuery::new(23).is_none());
        assert_eq!(TpchQuery::new(5), Some(TpchQuery(5)));
        assert_eq!(TpchQuery::all().len(), 22);
    }

    #[test]
    fn mean_durations_match_paper() {
        for scale in TpchScale::ALL {
            let mean = average_duration(scale);
            let target = scale.target_mean_duration();
            let err = (mean - target).abs() / target;
            assert!(
                err < 0.05,
                "{scale:?}: mean {mean:.1}s vs target {target}s ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn durations_scale_with_data_size() {
        let q = TpchQuery(9);
        let w2 = q.job(TpchScale::Gb2, 0).total_work();
        let w10 = q.job(TpchScale::Gb10, 0).total_work();
        let w50 = q.job(TpchScale::Gb50, 0).total_work();
        assert!(w2 < w10 && w10 < w50);
    }

    #[test]
    fn expensive_queries_cost_more() {
        let cheap = TpchQuery(6).job(TpchScale::Gb10, 0).total_work();
        let pricey = TpchQuery(21).job(TpchScale::Gb10, 0).total_work();
        assert!(pricey > 2.0 * cheap);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TpchQuery(5).job(TpchScale::Gb10, 7);
        let b = TpchQuery(5).job(TpchScale::Gb10, 7);
        assert_eq!(a, b);
        let c = TpchQuery(5).job(TpchScale::Gb10, 8);
        assert_ne!(a, c);
        // Different seeds change task jitter, not total work (within float
        // tolerance).
        assert!((a.total_work() - c.total_work()).abs() < 1e-6);
    }

    #[test]
    fn task_counts_grow_with_scale() {
        let q = TpchQuery(3);
        assert!(
            q.job(TpchScale::Gb50, 0).num_tasks() > q.job(TpchScale::Gb2, 0).num_tasks()
        );
    }

    #[test]
    fn multi_table_queries_have_parallel_scans() {
        let job = TpchQuery(5).job(TpchScale::Gb10, 0);
        assert!(job.source_stages().len() >= 5, "Q5 touches six tables");
    }
}
