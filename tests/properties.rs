//! Randomized property tests on the core data structures and invariants:
//! DAG construction, threshold functions, k-search quotas, carbon traces,
//! the simulator's conservation laws, and — crucially for the incremental
//! hot-path engine — agreement between the missing-parent runnable test
//! and the incrementally maintained dispatchable set on one side and a
//! recompute-from-scratch oracle on the other, the dispatchable stamp
//! moving exactly when that set does, and
//! between the indexed `CarbonTrace::bounds` and a naive linear scan.
//!
//! The tests are driven by a seeded ChaCha8 generator (no external proptest
//! dependency is available offline), so every failure is reproducible from
//! the printed case seed.

use carbon_aware_dag_sched::prelude::*;
use pcaps_carbon::FORECAST_HORIZON;
use pcaps_core::{KSearchThresholds, ThresholdFn};
use pcaps_dag::analysis;
use pcaps_dag::{Adjacency, DagError, JobProgress};
use pcaps_workloads::AlibabaGenerator;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Number of random cases per property.
const CASES: u64 = 64;

/// A random layered DAG: `n` stages with forward-only edges (guarantees
/// acyclicity), 1–5 tasks per stage, per-stage task durations from the seed.
fn random_dag(rng: &mut ChaCha8Rng) -> JobDag {
    let n = rng.gen_range(2..12usize);
    let seed = rng.gen_range(0..1000usize);
    let mut builder = JobDagBuilder::new(format!("prop-{seed}"));
    for i in 0..n {
        let tasks = 1 + ((seed + i * 7) % 5);
        let dur = 1.0 + ((seed + i * 13) % 50) as f64;
        builder.add_stage(format!("s{i}"), vec![Task::new(dur); tasks]);
    }
    let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..n * 2))
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|(a, z)| a < z)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut b = builder;
    for (a, z) in edges {
        b = b
            .edge(StageId(a as u32), StageId(z as u32))
            .expect("deduplicated forward edges are always valid");
    }
    b.build().expect("forward-edge DAGs always build")
}

#[test]
fn dag_invariants_hold() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA6);
    for case in 0..CASES {
        let dag = random_dag(&mut rng);
        assert!(dag.validate().is_ok(), "case {case}");
        // Critical path is between the longest stage and the total work.
        let cp = analysis::critical_path(&dag);
        assert!(cp.length <= dag.total_work() + 1e-9, "case {case}");
        let longest_stage = dag
            .stages()
            .map(|s| s.critical_duration())
            .fold(0.0, f64::max);
        assert!(cp.length >= longest_stage - 1e-9, "case {case}");
        // The critical path visits stages in a precedence-respecting order.
        for pair in cp.stages.windows(2) {
            assert!(dag.adjacency.reachable(pair[0], pair[1]), "case {case}");
        }
        // Bottom + top levels of any stage never exceed the critical path.
        let levels = analysis::stage_levels(&dag);
        for s in dag.stage_ids() {
            assert!(
                levels.top_level[s.index()] + levels.bottom_level[s.index()] <= cp.length + 1e-6,
                "case {case}"
            );
        }
        // Makespan lower bounds are monotone in the number of executors.
        let mut last = f64::INFINITY;
        for k in 1..=8 {
            let bound = analysis::makespan_lower_bound(&dag, k);
            assert!(bound <= last + 1e-9, "case {case}");
            last = bound;
        }
    }
}

/// Oracle: the bottleneck formula as first written — `stage_levels`' bottom
/// levels over `critical_path`'s length, each computed on its own.
fn scratch_bottleneck_scores(dag: &JobDag) -> Vec<f64> {
    let cp = analysis::critical_path(dag).length;
    let levels = analysis::stage_levels(dag);
    if cp <= 0.0 {
        return vec![1.0; dag.num_stages()];
    }
    levels
        .bottom_level
        .iter()
        .map(|&b| (b / cp).clamp(0.0, 1.0))
        .collect()
}

fn assert_bottleneck_bits(dag: &JobDag, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let expected = bits(&scratch_bottleneck_scores(dag));
    assert_eq!(bits(&analysis::bottleneck_scores(dag)), expected, "{what}");
    assert_eq!(bits(dag.bottleneck_scores()), expected, "{what}: cached");
}

/// The linear-time `bottleneck_scores` must equal the formula it replaced
/// bit for bit, on the DAG families the simulator runs (seeded Alibaba and
/// every TPC-H query at every scale), on random layered DAGs, and on
/// all-zero durations (the `cp <= 0` branch).
#[test]
fn bottleneck_scores_match_the_critical_path_and_levels_formula() {
    for seed in [1, 42, 104_729] {
        let mut gen = AlibabaGenerator::new(seed);
        for k in 0..60 {
            assert_bottleneck_bits(&gen.next_job(), &format!("alibaba seed {seed} job {k}"));
        }
    }
    // The generator's tail: about 4% of its DAGs have at least 200 stages
    // (the cap is 4 × 66 = 264).
    let mut gen = AlibabaGenerator::new(5);
    let large = std::iter::repeat_with(|| gen.next_job()).filter(|dag| dag.num_stages() >= 200);
    for (k, dag) in large.take(5).enumerate() {
        assert_bottleneck_bits(&dag, &format!("large alibaba job {k}"));
    }
    for q in TpchQuery::all() {
        for scale in TpchScale::ALL {
            for seed in 0..3 {
                assert_bottleneck_bits(&q.job(scale, seed), &format!("{q:?} {scale:?} {seed}"));
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xB077);
    for case in 0..CASES {
        assert_bottleneck_bits(&random_dag(&mut rng), &format!("random case {case}"));
    }
    let idle = JobDagBuilder::new("idle")
        .uniform_stage("a", 2, 0.0)
        .uniform_stage("b", 1, 0.0)
        .edge(StageId(0), StageId(1))
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(analysis::bottleneck_scores(&idle), vec![1.0, 1.0]);
    assert_bottleneck_bits(&idle, "zero durations");
}

/// Per-stage children or parents lists.
type StageLists = Vec<Vec<StageId>>;

/// Oracle: edges inserted one at a time into per-stage lists, checking
/// each edge as it arrives (unknown `from`, unknown `to`, self-loop,
/// repeat of an earlier edge) and stopping at the first error.
fn sequential_adjacency(
    n: usize,
    edges: &[(StageId, StageId)],
) -> Result<(StageLists, StageLists), DagError> {
    let mut children = vec![Vec::new(); n];
    let mut parents = vec![Vec::new(); n];
    for &(from, to) in edges {
        for s in [from, to] {
            if s.index() >= n {
                return Err(DagError::UnknownStage { stage: s });
            }
        }
        if from == to {
            return Err(DagError::SelfLoop { stage: from });
        }
        if children[from.index()].contains(&to) {
            return Err(DagError::DuplicateEdge { from, to });
        }
        children[from.index()].push(to);
        parents[to.index()].push(from);
    }
    Ok((children, parents))
}

/// Oracle: Kahn's algorithm with a separate FIFO queue, as
/// `Adjacency::topological_order` was first written.  On a cycle it names
/// the lowest stage left with unvisited parents.
fn queue_topological_order(adj: &Adjacency) -> Result<Vec<StageId>, DagError> {
    let n = adj.len();
    let mut indeg: Vec<usize> = (0..n).map(|i| adj.parents(StageId(i as u32)).len()).collect();
    let mut queue: VecDeque<StageId> = (0..n as u32)
        .map(StageId)
        .filter(|s| indeg[s.index()] == 0)
        .collect();
    let mut order = Vec::new();
    while let Some(s) = queue.pop_front() {
        order.push(s);
        for &c in adj.children(s) {
            indeg[c.index()] -= 1;
            if indeg[c.index()] == 0 {
                queue.push_back(c);
            }
        }
    }
    match (0..n).find(|&i| indeg[i] > 0) {
        None => Ok(order),
        Some(i) => Err(DagError::CycleDetected { stage: StageId(i as u32) }),
    }
}

fn assert_adjacency_matches(n: usize, edges: &[(StageId, StageId)], what: &str) {
    let csr = Adjacency::from_edges(n, edges);
    match sequential_adjacency(n, edges) {
        Ok((children, parents)) => {
            let adj = csr.unwrap_or_else(|e| panic!("{what}: unexpected {e:?}"));
            assert_eq!(adj.len(), n, "{what}");
            assert_eq!(adj.num_edges(), edges.len(), "{what}");
            for i in 0..n {
                let s = StageId(i as u32);
                assert_eq!(adj.children(s), &children[i][..], "{what}: children of {i}");
                assert_eq!(adj.parents(s), &parents[i][..], "{what}: parents of {i}");
            }
            assert_eq!(
                adj.topological_order(),
                queue_topological_order(&adj),
                "{what}: topological order"
            );
        }
        Err(expected) => assert_eq!(csr, Err(expected), "{what}"),
    }
}

/// `Adjacency::from_edges` must produce the same per-stage lists, in
/// insertion order, as inserting edge by edge, and fail with the same
/// first error; `topological_order` on every list that builds must give
/// the queue oracle's order or cycle stage.
#[test]
fn adjacency_from_edges_matches_sequential_insertion() {
    let s = StageId;
    let fixed: [(usize, Vec<(StageId, StageId)>); 6] = [
        // A repeat before an unknown stage...
        (3, vec![(s(0), s(1)), (s(0), s(1)), (s(0), s(9))]),
        // ...and an unknown `from` or `to` before a repeat.
        (3, vec![(s(0), s(1)), (s(9), s(0)), (s(0), s(1))]),
        (3, vec![(s(0), s(1)), (s(1), s(9)), (s(0), s(1))]),
        // A self-loop before a repeat, and after one.
        (3, vec![(s(2), s(2)), (s(0), s(1)), (s(0), s(1))]),
        (3, vec![(s(0), s(1)), (s(0), s(1)), (s(2), s(2))]),
        // An unknown stage is reported before the self-loop it forms.
        (2, vec![(s(5), s(5))]),
    ];
    for (k, (n, edges)) in fixed.iter().enumerate() {
        assert_adjacency_matches(*n, edges, &format!("fixed case {k}"));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xC5A);
    let mut outcomes = [0usize; 4];
    for case in 0..512 {
        let n = rng.gen_range(0..9usize);
        let mut edges: Vec<(StageId, StageId)> = Vec::new();
        for _ in 0..rng.gen_range(0..3 * n + 2) {
            let roll = rng.gen_range(0..100u32);
            let edge = if roll < 2 || n == 0 {
                (
                    s(rng.gen_range(0..n as u32 + 3)),
                    s(n as u32 + rng.gen_range(0..3u32)),
                )
            } else if roll < 4 {
                (
                    s(n as u32 + rng.gen_range(0..3u32)),
                    s(rng.gen_range(0..n as u32)),
                )
            } else if roll < 6 {
                let x = s(rng.gen_range(0..n as u32));
                (x, x)
            } else if roll < 10 && !edges.is_empty() {
                *edges.choose(&mut rng).unwrap()
            } else {
                (s(rng.gen_range(0..n as u32)), s(rng.gen_range(0..n as u32)))
            };
            edges.push(edge);
        }
        assert_adjacency_matches(n, &edges, &format!("case {case}"));
        outcomes[match sequential_adjacency(n, &edges) {
            Ok(_) => 0,
            Err(DagError::UnknownStage { .. }) => 1,
            Err(DagError::SelfLoop { .. }) => 2,
            Err(_) => 3,
        }] += 1;
    }
    assert!(
        outcomes.iter().all(|&c| c >= 20),
        "every outcome must be exercised: ok/unknown/self-loop/duplicate = {outcomes:?}"
    );
}

/// Fisher–Yates shuffle of `items`.
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `Adjacency::topological_order` visits stages in the queue oracle's
/// order on random DAGs whose stage ids are shuffled (so index order is
/// not a topological order), and names the oracle's stage once cycles are
/// added; `JobDagBuilder::build` reports that same first error.
#[test]
fn topological_order_matches_the_queue_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7090);
    let mut cyclic = 0;
    for case in 0..512 {
        let n = rng.gen_range(1..40usize);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut ids, &mut rng);
        let mut edges: Vec<(StageId, StageId)> = Vec::new();
        for _ in 0..rng.gen_range(0..3 * n) {
            let (a, z) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a < z {
                edges.push((StageId(ids[a]), StageId(ids[z])));
            }
        }
        // Half the cases close one to three cycles of 2–5 stages.
        if n >= 2 && case % 2 == 1 {
            for _ in 0..rng.gen_range(1..=3usize) {
                let mut ring: Vec<u32> = ids.clone();
                shuffle(&mut ring, &mut rng);
                ring.truncate(rng.gen_range(2..=5usize).min(n));
                for (k, &from) in ring.iter().enumerate() {
                    edges.push((StageId(from), StageId(ring[(k + 1) % ring.len()])));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        shuffle(&mut edges, &mut rng);
        let what = format!("case {case}");
        let adj = Adjacency::from_edges(n, &edges).unwrap();
        let expected = queue_topological_order(&adj);
        assert_eq!(adj.topological_order(), expected, "{what}");
        let mut builder = JobDagBuilder::new("topo");
        for i in 0..n {
            builder.add_stage(format!("s{i}"), [Task::new(1.0)]);
        }
        let built = builder.edges(edges.iter().copied()).unwrap().build();
        match expected {
            Ok(_) => assert!(built.is_ok(), "{what}: {built:?}"),
            Err(error) => {
                assert_eq!(built.unwrap_err(), error, "{what}");
                cyclic += 1;
            }
        }
    }
    assert!(cyclic >= 200, "only {cyclic} of 512 cases had a cycle");
}

/// Asserts that `streamed` is `bare` with every duration multiplied by
/// `scale` (bit for bit) and named `"{bare.name}#{index}"`.
fn assert_scaled_and_renamed(streamed: &JobDag, bare: &JobDag, scale: f64, index: usize) {
    let what = format!("job {index} ({})", bare.name);
    assert_eq!(streamed.name, format!("{}#{index}", bare.name), "{what}");
    assert_eq!(streamed.adjacency, bare.adjacency, "{what}");
    assert_eq!(streamed.num_stages(), bare.num_stages(), "{what}");
    for (got, raw) in streamed.stages().zip(bare.stages()) {
        assert_eq!((got.id, got.name), (raw.id, raw.name), "{what}");
        assert_eq!(got.tasks.len(), raw.tasks.len(), "{what}");
        for (t, r) in got.tasks.iter().zip(raw.tasks) {
            assert_eq!(
                t.duration.to_bits(),
                (r.duration * scale).to_bits(),
                "{what}"
            );
        }
    }
}

/// A streamed job is its generator's DAG with every duration multiplied
/// by the builder's scale and a unique `name#index` — nothing else.  The
/// generator seeds (`seed ^ 0xBEEF` for Alibaba, `seed` for the TPC-H
/// query draws) are the sampler's.
#[test]
fn streamed_dags_are_generator_dags_scaled_and_renamed() {
    for (seed, scale) in [(3u64, None), (42, Some(0.37)), (104_729, Some(1.0))] {
        let mut builder = WorkloadBuilder::new(WorkloadKind::Alibaba, seed).jobs(40);
        if let Some(scale) = scale {
            builder = builder.duration_scale(scale);
        }
        let scale = scale.unwrap_or(pcaps_workloads::PAPER_DURATION_SCALE);
        let mut gen = AlibabaGenerator::new(seed ^ 0xBEEF);
        for (i, job) in builder.stream().enumerate() {
            assert_scaled_and_renamed(&job.dag, &gen.next_job(), scale, i);
        }
    }
    let scale = 0.37;
    let builder = WorkloadBuilder::new(WorkloadKind::TpchMixed, 9)
        .jobs(40)
        .duration_scale(scale);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let queries = TpchQuery::all();
    for (i, job) in builder.stream().enumerate() {
        let q = *queries.choose(&mut rng).unwrap();
        let at = *TpchScale::ALL.choose(&mut rng).unwrap();
        assert_scaled_and_renamed(&job.dag, &q.job(at, rng.gen()), scale, i);
    }
}

/// One stage of a flat-layout case as the builder receives it.
struct StageInput {
    name: String,
    durations: Vec<f64>,
}

/// Seeded random builder input: 1–80 stages of 1–50 tasks; durations
/// that are 0.0 or log-uniform over 1e-300..1e6; names that are empty,
/// multi-byte, repeated or unique.
fn random_stage_inputs(rng: &mut ChaCha8Rng) -> Vec<StageInput> {
    const SHARED: [&str; 4] = ["", "map", "é", "reduce"];
    (0..rng.gen_range(1..=80usize))
        .map(|i| StageInput {
            name: if rng.gen_range(0..2u32) == 0 {
                SHARED[rng.gen_range(0..SHARED.len())].to_string()
            } else {
                format!("s{i}")
            },
            durations: (0..rng.gen_range(1..=50usize))
                .map(|_| {
                    if rng.gen_range(0..8u32) == 0 {
                        0.0
                    } else {
                        10f64.powf(rng.gen_range(-300.0..6.0))
                    }
                })
                .collect(),
        })
        .collect()
}

/// Oracle: the critical path by the parent's formulas over nested
/// durations, with stage order as the topological order (every edge runs
/// forward) and each stage's parents in edge-insertion order.
fn oracle_critical_path(
    stages: &[Vec<f64>],
    edges: &[(usize, usize)],
) -> (f64, Vec<StageId>) {
    let crit = |s: usize| stages[s].iter().copied().fold(0.0_f64, f64::max);
    let mut dist = vec![0.0_f64; stages.len()];
    let mut pred: Vec<Option<usize>> = vec![None; stages.len()];
    for s in 0..stages.len() {
        let (best_parent, best) = edges
            .iter()
            .filter(|&&(_, to)| to == s)
            .map(|&(from, _)| (Some(from), dist[from]))
            .fold((None, 0.0_f64), |acc, cur| if cur.1 > acc.1 { cur } else { acc });
        dist[s] = best + crit(s);
        pred[s] = best_parent;
    }
    let (mut cur, length) = dist
        .iter()
        .enumerate()
        .fold((0, f64::NEG_INFINITY), |acc, (i, &d)| if d > acc.1 { (i, d) } else { acc });
    let mut path = vec![StageId(cur as u32)];
    while let Some(p) = pred[cur] {
        path.push(StageId(p as u32));
        cur = p;
    }
    path.reverse();
    (length.max(0.0), path)
}

/// Oracle: the bottleneck scores by the parent's formulas (bottom level
/// over the critical-path length, clamped; all 1.0 when that length is 0).
fn oracle_bottleneck_scores(stages: &[Vec<f64>], edges: &[(usize, usize)], cp: f64) -> Vec<f64> {
    if cp <= 0.0 {
        return vec![1.0; stages.len()];
    }
    let mut bottom = vec![0.0_f64; stages.len()];
    for s in (0..stages.len()).rev() {
        let below = edges
            .iter()
            .filter(|&&(from, _)| from == s)
            .map(|&(_, to)| bottom[to])
            .fold(0.0_f64, f64::max);
        bottom[s] = stages[s].iter().copied().fold(0.0_f64, f64::max) + below;
    }
    bottom.iter().map(|&b| (b / cp).clamp(0.0, 1.0)).collect()
}

/// The flat layout (one task array, one name arena, `u32` ends) serves
/// every stage view and every derived quantity bit for bit as the parent's
/// per-stage `Vec`s did: an oracle recomputes each from nested
/// `Vec<Vec<f64>>` durations with the parent's formulas and fold orders.
#[test]
fn flat_layout_matches_a_nested_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1A7);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for case in 0..CASES {
        let inputs = random_stage_inputs(&mut rng);
        let n = inputs.len();
        let mut builder = JobDagBuilder::new(format!("flat-{case}"));
        for (i, input) in inputs.iter().enumerate() {
            let tasks = input.durations.iter().map(|&d| Task::new(d));
            // Both argument forms callers use: an iterator and a `Vec`.
            let id = if i % 2 == 0 {
                builder.add_stage(&input.name, tasks)
            } else {
                builder.add_stage(input.name.clone(), tasks.collect::<Vec<_>>())
            };
            assert_eq!(id, StageId(i as u32), "case {case}");
        }
        for input in &inputs {
            let last = inputs.iter().rposition(|other| other.name == input.name);
            assert_eq!(
                builder.stage_id(&input.name),
                last.map(|i| StageId(i as u32)),
                "case {case}: {:?} names the last stage added under it",
                input.name
            );
        }
        let mut edges: Vec<(usize, usize)> = (0..rng.gen_range(0..2 * n))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, z)| a < z)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // Insert them in a random order, which is each stage's parent order.
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let dag = builder
            .edges(edges.iter().map(|&(a, z)| (StageId(a as u32), StageId(z as u32))))
            .unwrap()
            .build()
            .unwrap();
        dag.validate().unwrap();

        let stages: Vec<Vec<f64>> = inputs.iter().map(|i| i.durations.clone()).collect();
        let stage_work: Vec<f64> = stages.iter().map(|d| d.iter().sum::<f64>()).collect();
        assert_eq!(dag.num_stages(), n, "case {case}");
        assert_eq!(dag.num_tasks(), stages.iter().map(Vec::len).sum::<usize>(), "case {case}");
        assert_eq!(
            dag.total_work().to_bits(),
            stage_work.iter().sum::<f64>().to_bits(),
            "case {case}"
        );
        assert_eq!(dag.stages().len(), n, "case {case}");
        for (view, (input, durations)) in dag.stages().zip(inputs.iter().zip(&stages)) {
            let what = format!("case {case} {}", view.id);
            assert_eq!(view.name, input.name, "{what}");
            assert_eq!(view, dag.stage(view.id), "{what}");
            let got: Vec<f64> = view.tasks.iter().map(|t| t.duration).collect();
            assert_eq!(bits(&got), bits(durations), "{what}");
            assert_eq!(view.num_tasks(), durations.len(), "{what}");
            let work = durations.iter().sum::<f64>();
            let crit = durations.iter().copied().fold(0.0_f64, f64::max);
            assert_eq!(view.total_work().to_bits(), work.to_bits(), "{what}");
            assert_eq!(view.critical_duration().to_bits(), crit.to_bits(), "{what}");
            assert_eq!(
                view.mean_task_duration().to_bits(),
                (work / durations.len() as f64).to_bits(),
                "{what}"
            );
            assert_eq!(view.duration_with_executors(0), 0.0, "{what}");
            for k in 1..=4 {
                assert_eq!(
                    view.duration_with_executors(k).to_bits(),
                    (work / k as f64).max(crit).to_bits(),
                    "{what} with {k} executors"
                );
            }
        }

        let (offsets, sums) = dag.duration_suffix_sums();
        let mut expected_offsets = vec![0u32];
        let mut expected_sums = Vec::new();
        for durations in &stages {
            expected_sums.extend((0..=durations.len()).map(|k| durations[k..].iter().sum::<f64>()));
            expected_offsets.push(expected_sums.len() as u32);
        }
        assert_eq!(offsets, expected_offsets, "case {case}");
        assert_eq!(bits(sums), bits(&expected_sums), "case {case}");

        let (length, path) = oracle_critical_path(&stages, &edges);
        let cp = analysis::critical_path(&dag);
        assert_eq!((cp.length.to_bits(), &cp.stages), (length.to_bits(), &path), "case {case}");
        assert_eq!(
            bits(dag.bottleneck_scores()),
            bits(&oracle_bottleneck_scores(&stages, &edges, length)),
            "case {case}"
        );

        let factor = rng.gen_range(1e-3..10.0);
        let scaled = dag.clone().scaled(factor);
        let expected: Vec<f64> = stages.iter().flatten().map(|d| d * factor).collect();
        let got: Vec<f64> = scaled.tasks.iter().map(|t| t.duration).collect();
        assert_eq!(bits(&got), bits(&expected), "case {case}: scaled by {factor}");
        assert_eq!(
            (&scaled.stage_ends, &scaled.stage_names, &scaled.name_ends, &scaled.adjacency),
            (&dag.stage_ends, &dag.stage_names, &dag.name_ends, &dag.adjacency),
            "case {case}"
        );
    }
}

/// Oracle: the runnable set recomputed from scratch from completion state.
fn naive_runnable(dag: &JobDag, progress: &JobProgress) -> Vec<StageId> {
    dag.stage_ids()
        .filter(|&s| {
            !progress.frontier().is_complete(s)
                && dag
                    .adjacency
                    .parents(s)
                    .iter()
                    .all(|&p| progress.frontier().is_complete(p))
        })
        .collect()
}

/// Oracle: the dispatchable set recomputed from scratch.
fn naive_dispatchable(dag: &JobDag, progress: &JobProgress) -> Vec<StageId> {
    naive_runnable(dag, progress)
        .into_iter()
        .filter(|&s| progress.pending_tasks(s) > 0)
        .collect()
}

fn assert_sets_match(dag: &JobDag, progress: &JobProgress, case: u64, step: usize) {
    let runnable: Vec<StageId> =
        dag.stage_ids().filter(|&s| progress.frontier().is_runnable(s)).collect();
    assert_eq!(
        runnable,
        naive_runnable(dag, progress),
        "case {case} step {step}: the missing-parent runnable test diverged"
    );
    let dispatchable: Vec<StageId> = progress.dispatchable_stages().to_vec();
    assert_eq!(
        dispatchable,
        naive_dispatchable(dag, progress),
        "case {case} step {step}: incremental dispatchable set diverged"
    );
}

/// A random execution's own record of every task of one job: which tasks
/// run, which finished, which failed and wait for re-dispatch (in failure
/// order), and how many fresh tasks each stage has handed out.
struct TaskWalk {
    running: Vec<Vec<usize>>,
    finished: Vec<Vec<bool>>,
    retry: Vec<(StageId, usize)>,
    fresh: Vec<usize>,
}

impl TaskWalk {
    fn new(dag: &JobDag) -> Self {
        TaskWalk {
            running: vec![Vec::new(); dag.num_stages()],
            finished: dag.stages().map(|s| vec![false; s.num_tasks()]).collect(),
            retry: Vec::new(),
            fresh: vec![0; dag.num_stages()],
        }
    }

    /// The task `dispatch_task` must hand out next for `stage`: its oldest
    /// failed task, else its next fresh one.  Records it as running.
    fn dispatch(&mut self, stage: StageId) -> usize {
        let task = match self.retry.iter().position(|&(s, _)| s == stage) {
            Some(pos) => self.retry.remove(pos).1,
            None => {
                self.fresh[stage.index()] += 1;
                self.fresh[stage.index()] - 1
            }
        };
        self.running[stage.index()].push(task);
        task
    }

    /// Remaining undispatched work recomputed task by task: the fresh
    /// tasks not yet handed out plus the failed ones awaiting re-dispatch.
    fn remaining_work(&self, dag: &JobDag) -> f64 {
        let fresh: f64 = dag
            .stage_ids()
            .map(|s| {
                let tasks = &dag.stage(s).tasks;
                tasks.iter().skip(self.fresh[s.index()]).map(|t| t.duration).sum::<f64>()
            })
            .sum();
        let retried: f64 = self
            .retry
            .iter()
            .map(|&(s, t)| dag.stage(s).tasks[t].duration)
            .sum();
        fresh + retried
    }

    fn assert_matches(&self, dag: &JobDag, progress: &JobProgress, case: u64, step: usize) {
        assert_sets_match(dag, progress, case, step);
        for s in dag.stage_ids() {
            let (pending, running, finished) = (
                progress.pending_tasks(s),
                progress.running_tasks(s),
                progress.finished_tasks(s),
            );
            let total = dag.stage(s).num_tasks();
            assert_eq!(
                pending + running + finished,
                total,
                "case {case} step {step}: {s} counts do not add up to its tasks"
            );
            assert_eq!(
                progress.frontier().is_complete(s),
                finished == total,
                "case {case} step {step}: {s} completion out of step with its counts"
            );
            let done = self.finished[s.index()].iter().filter(|&&f| f).count();
            assert_eq!(
                (running, finished),
                (self.running[s.index()].len(), done),
                "case {case} step {step}: {s} counts diverged from the walk"
            );
        }
        assert_eq!(progress.queued_retries(), self.retry.len(), "case {case} step {step}");
        // Bit for bit while no retry is queued (the fresh part is answered
        // from suffix sums, exactly); within rounding while one is (the
        // retry work is kept as a running sum).
        let expected = self.remaining_work(dag);
        let got = progress.remaining_work(dag);
        if self.retry.is_empty() {
            assert!(
                got.to_bits() == expected.to_bits(),
                "case {case} step {step}: remaining_work {got} != oracle {expected}"
            );
        } else {
            assert!(
                (got - expected).abs() <= 1e-9 * expected.max(1.0),
                "case {case} step {step}: remaining_work {got} != oracle {expected} with retries"
            );
        }
    }
}

/// A randomized execution that dispatches, finishes and fails tasks: after
/// every step the runnable test (from missing-parent counts) and the
/// incremental dispatchable set must equal the sets recomputed from
/// scratch, every stage's pending + running +
/// finished counts must add up to its tasks, a stage must be complete
/// exactly when all its tasks finished, `dispatch_task` must hand out the
/// oldest failed task or else the next fresh one (never a running or
/// finished task), and `remaining_work` must match a task-by-task
/// recomputation.
#[test]
fn incremental_frontier_matches_scratch_recompute() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF409);
    let mut failed = 0usize;
    for case in 0..CASES {
        let dag = random_dag(&mut rng);
        let mut progress = JobProgress::new(&dag);
        let mut walk = TaskWalk::new(&dag);
        let mut step = 0usize;
        walk.assert_matches(&dag, &progress, case, step);
        while !progress.job_complete() {
            step += 1;
            assert!(step < 10_000, "case {case}: execution did not terminate");
            // Collect the possible moves: dispatch one task of a
            // dispatchable stage, or finish or fail one running task.
            let dispatchable: Vec<StageId> = progress.dispatchable_stages().to_vec();
            let busy: Vec<StageId> = dag
                .stage_ids()
                .filter(|s| !walk.running[s.index()].is_empty())
                .collect();
            let do_dispatch = if dispatchable.is_empty() {
                false
            } else if busy.is_empty() {
                true
            } else {
                rng.gen_range(0.0..1.0) < 0.5
            };
            if do_dispatch {
                let s = dispatchable[rng.gen_range(0..dispatchable.len())];
                let task = progress.dispatch_task(&dag, s).expect("stage was dispatchable");
                assert!(
                    !walk.finished[s.index()][task] && !walk.running[s.index()].contains(&task),
                    "case {case} step {step}: {s} handed out task {task}, which is running or finished"
                );
                assert_eq!(task, walk.dispatch(s), "case {case} step {step}: {s} task order");
            } else {
                let s = busy[rng.gen_range(0..busy.len())];
                let running = &mut walk.running[s.index()];
                let task = running.swap_remove(rng.gen_range(0..running.len()));
                if rng.gen_range(0..4usize) == 0 {
                    progress.fail_task(&dag, s, task);
                    walk.retry.push((s, task));
                    failed += 1;
                } else {
                    let stage_done = progress.finish_task(&dag, s);
                    walk.finished[s.index()][task] = true;
                    assert_eq!(
                        stage_done,
                        walk.finished[s.index()].iter().all(|&f| f),
                        "case {case} step {step}: finish_task misreported {s}'s completion"
                    );
                }
            }
            walk.assert_matches(&dag, &progress, case, step);
        }
        assert!(dag.stage_ids().all(|s| !progress.frontier().is_runnable(s)));
        assert!(progress.dispatchable_stages().is_empty());
        assert_eq!(progress.remaining_work(&dag), 0.0);
    }
    assert!(failed > CASES as usize, "the walk failed only {failed} tasks");
}

/// The dispatchable stamp's contract, under random dispatch, finish and
/// fail sequences: after every call, a change to `dispatchable_stages()`
/// moved `dispatchable_version`, and the stamp moved for nothing else; in
/// particular a dispatch that leaves pending tasks in its stage, or a
/// finish that completes no stage, leaves it alone.  Schedulers keep
/// per-stage terms while the stamp holds, so a missed bump would serve
/// them a stale set.
#[test]
fn dispatchable_version_moves_exactly_with_the_dispatchable_set() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x57A3);
    let (mut kept, mut moved, mut reinserted) = (0usize, 0usize, 0usize);
    for case in 0..CASES {
        let dag = random_dag(&mut rng);
        let mut progress = JobProgress::new(&dag);
        let mut running: Vec<Vec<usize>> = vec![Vec::new(); dag.num_stages()];
        let mut step = 0usize;
        while !progress.job_complete() {
            step += 1;
            assert!(step < 10_000, "case {case}: execution did not terminate");
            let set_before = progress.dispatchable_stages().to_vec();
            let stamp_before = progress.dispatchable_version();
            let busy: Vec<StageId> =
                dag.stage_ids().filter(|s| !running[s.index()].is_empty()).collect();
            let dispatch = !set_before.is_empty() && (busy.is_empty() || rng.gen_bool(0.5));
            // Whether the call's own outcome promises an unchanged set.
            let set_kept = if dispatch {
                let s = set_before[rng.gen_range(0..set_before.len())];
                let task = progress.dispatch_task(&dag, s).expect("stage was dispatchable");
                running[s.index()].push(task);
                progress.pending_tasks(s) > 0
            } else {
                let s = busy[rng.gen_range(0..busy.len())];
                let stage_running = &mut running[s.index()];
                let task = stage_running.swap_remove(rng.gen_range(0..stage_running.len()));
                if rng.gen_range(0..4usize) == 0 {
                    reinserted += usize::from(!set_before.contains(&s));
                    progress.fail_task(&dag, s, task);
                    false
                } else {
                    !progress.finish_task(&dag, s)
                }
            };
            let set_changed = progress.dispatchable_stages() != set_before;
            let stamp_moved = progress.dispatchable_version() != stamp_before;
            assert_eq!(
                stamp_moved, set_changed,
                "case {case} step {step}: stamp moved {stamp_moved}, set changed \
                 {set_changed}: {set_before:?} -> {:?}",
                progress.dispatchable_stages()
            );
            if set_kept {
                assert!(!stamp_moved, "case {case} step {step}: the call promised the same set");
            }
            kept += usize::from(!stamp_moved);
            moved += usize::from(stamp_moved);
        }
    }
    assert!(kept > 0 && moved > 0, "both outcomes must occur ({kept} kept, {moved} moved)");
    assert!(reinserted > 0, "some failure must put a fully dispatched stage back");
}

/// `CarbonTrace::bounds` (which answers from a table of per-start window
/// bounds built on first query) must agree exactly with a naive linear scan
/// over the forecast horizon for random traces, steps and queries.
#[test]
fn carbon_bounds_match_naive_linear_scan() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B5);
    for case in 0..CASES {
        let len = rng.gen_range(2..400usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(10.0..900.0)).collect();
        let step = rng.gen_range(900.0..7_200.0);
        let trace = CarbonTrace::new("prop", 0.0, step, values.clone());
        for query in 0..16 {
            let t = rng.gen_range(0.0..600.0) * step;
            let (l, u) = trace.bounds(t);
            // Naive reference: walk every step the window covers.
            let first = trace.index_at(t);
            let steps = ((FORECAST_HORIZON / step).ceil() as usize + 1).min(len);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for k in 0..steps {
                let v = values[(first + k) % len];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            assert_eq!((l, u), (lo, hi), "case {case} query {query}: bounds diverged");
            // And bounds always contain the current intensity.
            let c = trace.intensity(t);
            assert!(l <= c + 1e-9 && c <= u + 1e-9, "case {case} query {query}");
            assert!(l >= trace.min() - 1e-9 && u <= trace.max() + 1e-9);
        }
    }
}

#[test]
fn frontier_execution_always_terminates() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF207);
    for case in 0..CASES {
        let dag = random_dag(&mut rng);
        // Repeatedly dispatching and finishing every runnable stage must
        // complete the job in at most `num_stages` rounds.
        let mut progress = JobProgress::new(&dag);
        let mut rounds = 0;
        while !progress.job_complete() {
            rounds += 1;
            assert!(rounds <= dag.num_stages(), "case {case}: progress stalled");
            let stages: Vec<StageId> = progress.dispatchable_stages().to_vec();
            assert!(
                !stages.is_empty(),
                "case {case}: incomplete job must have runnable stages"
            );
            for s in stages {
                while progress.dispatch_task(&dag, s).is_some() {}
                while progress.running_tasks(s) > 0 {
                    progress.finish_task(&dag, s);
                }
            }
        }
        assert_eq!(progress.total_pending_tasks(), 0, "case {case}");
    }
}

#[test]
fn threshold_function_properties() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7413);
    for case in 0..CASES {
        let gamma = rng.gen_range(0.0..1.0);
        let lower = rng.gen_range(10.0..400.0);
        let width = rng.gen_range(1.0..600.0);
        let r1 = rng.gen_range(0.0..1.0);
        let r2 = rng.gen_range(0.0..1.0);
        let upper = lower + width;
        let f = ThresholdFn::new(gamma, lower, upper);
        // Range: Ψγ always lies inside [floor, U] ⊆ [L, U].
        for r in [r1, r2, 0.0, 1.0] {
            let v = f.evaluate(r);
            assert!(v >= f.floor() - 1e-9 && v <= upper + 1e-9, "case {case}");
        }
        // Monotonicity in r.
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        assert!(f.evaluate(lo) <= f.evaluate(hi) + 1e-9, "case {case}");
        // Maximum importance is always admitted anywhere inside the band.
        assert!(f.admits(1.0, upper), "case {case}");
        // The parallelism factor is in (0, 1] and non-increasing in carbon.
        let c1 = lower + 0.3 * width;
        let c2 = lower + 0.8 * width;
        let p1 = f.parallelism_factor(c1);
        let p2 = f.parallelism_factor(c2);
        assert!(p1 > 0.0 && p1 <= 1.0 + 1e-12, "case {case}");
        assert!(p2 <= p1 + 1e-12, "case {case}");
    }
}

#[test]
fn ksearch_quota_properties() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x45EA);
    for case in 0..CASES {
        let total = rng.gen_range(2..150usize);
        let min_frac = rng.gen_range(0.01..1.0);
        let lower = rng.gen_range(5.0..500.0);
        let width = rng.gen_range(0.0..600.0);
        let c_frac = rng.gen_range(-0.2..1.2);
        let minimum = ((total as f64 * min_frac).ceil() as usize).clamp(1, total);
        let upper = lower + width;
        let t = KSearchThresholds::new(total, minimum, lower, upper);
        // Quota is always inside [B, K].
        let c = lower + c_frac * width;
        let q = t.quota(c.max(0.0));
        assert!(q >= minimum && q <= total, "case {case}");
        // Quota is non-increasing in the carbon intensity.
        let q_clean = t.quota(lower);
        let q_dirty = t.quota(upper + 1.0);
        assert!(q_clean >= q_dirty, "case {case}");
        assert_eq!(q_dirty, minimum, "case {case}");
        // Thresholds are non-increasing.
        for w in t.thresholds.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "case {case}");
        }
    }
}

#[test]
fn carbon_trace_bounds_contain_intensity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCA4B);
    for case in 0..CASES {
        let len = rng.gen_range(2..72usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(10.0..900.0)).collect();
        let trace = CarbonTrace::hourly("prop", values);
        let t = rng.gen_range(0.0..200.0) * 3600.0;
        let (l, u) = trace.bounds(t);
        let c = trace.intensity(t);
        assert!(
            l <= c + 1e-9 && c <= u + 1e-9,
            "case {case}: bounds must contain the current value"
        );
        assert!(l >= trace.min() - 1e-9 && u <= trace.max() + 1e-9, "case {case}");
    }
}

/// A migration policy that (a) cross-checks the consulted member's
/// incrementally maintained counters against a from-scratch recomputation,
/// and (b) migrates a random idle job to a random member — so the checks
/// keep passing *after* job state has crossed the member boundary.
///
/// The engine offers every active job of the consulted member as a
/// candidate, which is exactly what a scratch recomputation needs: queue
/// depth must equal the candidate count, and the incrementally maintained
/// outstanding-work counter must equal the sum of the candidates' remaining
/// work recomputed from their `JobProgress` state.
struct CheckingRandomMigrator {
    rng: ChaCha8Rng,
    consultations: usize,
    moves_emitted: usize,
}

impl pcaps_cluster::MigrationPolicy for CheckingRandomMigrator {
    fn name(&self) -> &str {
        "checking-random"
    }

    fn on_carbon_change(
        &mut self,
        ctx: &pcaps_cluster::MigrationContext<'_>,
        candidates: &[pcaps_cluster::MigrationCandidate],
        out: &mut pcaps_cluster::MigrationSink,
    ) {
        self.consultations += 1;
        let view = &ctx.members()[ctx.member];
        assert_eq!(
            view.queue_depth,
            candidates.len(),
            "incremental queue depth diverged from the active-job count at t={}",
            ctx.time
        );
        let scratch: f64 = candidates.iter().map(|c| c.remaining_work).sum();
        assert!(
            (view.outstanding_work - scratch).abs() <= 1e-6 * scratch.abs().max(1.0),
            "incremental outstanding work {} diverged from scratch recomputation {} at t={}",
            view.outstanding_work,
            scratch,
            ctx.time
        );
        // Half the consultations move one random idle job to a random
        // member (possibly its own — a documented no-op).
        if self.rng.gen_range(0.0..1.0) < 0.5 {
            let idle: Vec<&pcaps_cluster::MigrationCandidate> =
                candidates.iter().filter(|c| c.migratable()).collect();
            if !idle.is_empty() {
                let job = idle[self.rng.gen_range(0..idle.len())].job;
                let to = self.rng.gen_range(0..ctx.num_members());
                out.migrate(job, to);
                self.moves_emitted += 1;
            }
        }
    }
}

/// A FIFO wrapper that, at every invocation, cross-checks each visible
/// job's incrementally maintained dispatchable set against the
/// recompute-from-scratch oracle — including jobs that migrated in from
/// another member, whose `JobProgress` travelled with them.
struct CheckingFifo {
    fifo: SparkStandaloneFifo,
    checks: usize,
}

impl pcaps_cluster::Scheduler for CheckingFifo {
    fn name(&self) -> &str {
        "checking-fifo"
    }

    fn on_event(
        &mut self,
        event: pcaps_cluster::SchedEvent<'_>,
        ctx: &pcaps_cluster::SchedulingContext<'_>,
        out: &mut pcaps_cluster::DecisionSink,
    ) {
        for job in ctx.jobs() {
            let incremental: Vec<StageId> = job.dispatchable_stages().to_vec();
            assert_eq!(
                incremental,
                naive_dispatchable(job.dag, job.progress),
                "dispatchable set diverged for {} at t={}",
                job.id,
                ctx.time
            );
            self.checks += 1;
        }
        self.fifo.on_event(event, ctx, out);
    }
}

/// After any migration, the destination member's incremental
/// queue-depth/outstanding-work counters and every job's
/// runnable/dispatchable sets must equal a from-scratch recomputation —
/// the existing incremental-vs-scratch harness extended across the member
/// boundary.  Random federated workloads with random migrations, all
/// seeded and reproducible.
#[test]
fn incremental_member_counters_match_scratch_recompute_across_migrations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x316);
    let mut total_moves = 0usize;
    let mut total_consultations = 0usize;
    for case in 0..12 {
        let members = rng.gen_range(2..4usize);
        let njobs = rng.gen_range(3..8usize);
        let workload: Vec<SubmittedJob> = (0..njobs)
            .map(|i| SubmittedJob::at(i as f64 * rng.gen_range(5.0..40.0), random_dag(&mut rng)))
            .collect();
        let fed_members = (0..members)
            .map(|m| {
                // Random hourly trace per member so carbon steps (every 60
                // schedule seconds at the 60× scale) genuinely differ.
                let values: Vec<f64> =
                    (0..48).map(|_| rng.gen_range(50.0..900.0)).collect();
                Member::new(
                    format!("m{m}"),
                    ClusterConfig::new(2).with_move_delay(0.0).with_time_scale(60.0),
                    CarbonTrace::hourly(format!("m{m}"), values),
                )
            })
            .collect();
        let federation = Federation::new(fed_members, workload).with_transfer_matrix(
            pcaps_cluster::TransferMatrix::uniform(members, rng.gen_range(0.0..2.0))
                .with_energy_per_gb(0.01),
        );
        let mut policy = CheckingRandomMigrator {
            rng: ChaCha8Rng::seed_from_u64(0xC0FFEE ^ case),
            consultations: 0,
            moves_emitted: 0,
        };
        let mut schedulers: Vec<CheckingFifo> = (0..members)
            .map(|_| CheckingFifo { fifo: SparkStandaloneFifo::new(), checks: 0 })
            .collect();
        let result = {
            let mut refs: Vec<&mut dyn pcaps_cluster::Scheduler> = Vec::new();
            for s in schedulers.iter_mut() {
                refs.push(s);
            }
            let mut router = RoundRobinRouter::new();
            federation
                .run_with_migration(&mut router, &mut policy, &mut refs)
                .expect("randomized federated runs always complete")
        };
        assert!(result.all_jobs_complete(), "case {case}");
        assert!(policy.consultations > 0, "case {case}: the checks must actually run");
        assert!(
            schedulers.iter().map(|s| s.checks).sum::<usize>() > 0,
            "case {case}: the dispatchable-set oracle must actually run"
        );
        // Conservation under random migration: ids partition the workload.
        let mut ids: Vec<u64> = result
            .members
            .iter()
            .flat_map(|m| m.result.jobs.iter().map(|j| j.id.0))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..njobs as u64).collect::<Vec<u64>>(), "case {case}");
        total_moves += result.num_migrations();
        total_consultations += policy.consultations;
    }
    assert!(total_consultations > 0);
    assert!(
        total_moves > 0,
        "across all cases some migrations must apply, or the boundary is never crossed"
    );
}

#[test]
fn simulator_conserves_work() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51CC);
    for case in 0..24 {
        let stage_count = rng.gen_range(1..5usize);
        let tasks = rng.gen_range(1..6usize);
        let dur = rng.gen_range(1.0..50.0);
        let executors = rng.gen_range(1..12usize);
        let njobs = rng.gen_range(1..5usize);
        let mut builder = JobDagBuilder::new("prop-job");
        for i in 0..stage_count {
            builder.add_stage(format!("s{i}"), vec![Task::new(dur); tasks]);
        }
        let mut b = builder;
        for i in 1..stage_count {
            b = b
                .edge(StageId((i - 1) as u32), StageId(i as u32))
                .expect("chain edge");
        }
        let dag = b.build().expect("valid chain job");
        let workload: Vec<SubmittedJob> = (0..njobs)
            .map(|i| SubmittedJob::at(i as f64 * 5.0, dag.clone()))
            .collect();
        let total_work: f64 = workload.iter().map(|j| j.dag.total_work()).sum();
        let sim = Simulator::new(
            ClusterConfig::new(executors)
                .with_move_delay(0.0)
                .with_time_scale(1.0),
            workload,
            CarbonTrace::constant("flat", 300.0, 26_304),
        );
        let result = sim.run(&mut SparkStandaloneFifo::new()).expect("run completes");
        assert!(result.all_jobs_complete(), "case {case}");
        assert!(
            (result.total_executor_seconds() - total_work).abs() < 1e-6,
            "case {case}"
        );
        // Makespan respects the trivial lower bounds.
        let per_job_cp = dag.critical_path_length();
        assert!(result.makespan + 1e-9 >= per_job_cp, "case {case}");
        assert!(
            result.makespan + 1e-9 >= total_work / executors as f64,
            "case {case}"
        );
        // And the upper bound of running everything serially plus arrivals.
        assert!(
            result.makespan <= total_work + njobs as f64 * 5.0 + 1e-6,
            "case {case}"
        );
    }
}
