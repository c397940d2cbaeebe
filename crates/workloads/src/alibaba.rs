//! Alibaba-style production DAG workload generator.
//!
//! The paper builds workloads from DAG information in the Alibaba
//! cluster-trace-v2018 and reports three summary characteristics (§6.1):
//!
//! * job durations follow a realistic **power law** (many short DAGs, few
//!   long ones),
//! * DAGs have **66 nodes on average**,
//! * the average total single-executor duration is **7 989 seconds** (before
//!   the paper's 1/60 experiment scaling, after which jobs take ≈2.2 minutes
//!   on average).
//!
//! This generator reproduces those statistics with a bounded Pareto duration
//! distribution and a layered random DAG topology mixing chains, fan-outs
//! and fan-ins (the dominant motifs in the trace).  It is deterministic
//! given a seed.

use crate::push_decimal;
use pcaps_dag::{JobDag, JobDagBuilder, StageId, Task};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generator of Alibaba-style DAG jobs.
#[derive(Debug, Clone)]
pub struct AlibabaGenerator {
    rng: ChaCha8Rng,
    /// Pareto shape parameter for total job duration (smaller = heavier tail).
    pareto_alpha: f64,
    /// Minimum total single-executor duration (seconds).
    min_duration: f64,
    /// Maximum total single-executor duration (seconds) — bounds the tail so
    /// a single job cannot dominate an entire experiment.
    max_duration: f64,
    counter: u64,
    /// Working vectors of [`AlibabaGenerator::next_job`], kept between jobs.
    scratch: Scratch,
}

/// The per-job working vectors of the generator, kept between jobs so a
/// generated job allocates little beyond the blocks its DAG keeps.  Every
/// one is cleared before use, so their contents never reach a job.
#[derive(Debug, Clone, Default)]
struct Scratch {
    layer_of: Vec<usize>,
    weights: Vec<f64>,
    jitters: Vec<f64>,
    order: Vec<usize>,
    ge_count: Vec<usize>,
    /// Per-layer placement cursors of the counting sort into `order`.
    cursor: Vec<usize>,
    edges: Vec<(StageId, StageId)>,
    chosen: Vec<usize>,
    stage_name: String,
}

/// Room reserved for a job's name: `"alibaba-"`, the job counter and the
/// `#index` suffix the workload stream appends, up to 11 digits each.
const NAME_CAPACITY: usize = 32;

/// The paper's reported mean single-executor duration of an Alibaba job.
pub const TARGET_MEAN_DURATION: f64 = 7989.0;
/// The paper's reported mean DAG size (number of nodes).
pub const TARGET_MEAN_NODES: f64 = 66.0;

impl AlibabaGenerator {
    /// Creates a generator with parameters calibrated to the paper's summary
    /// statistics.
    pub fn new(seed: u64) -> Self {
        // A bounded Pareto with alpha = 0.6 between 800 s and 120 000 s has a
        // mean of ≈8 100 s, matching the paper's 7 989 s; the calibration
        // test below pins this.
        AlibabaGenerator {
            rng: ChaCha8Rng::seed_from_u64(seed),
            pareto_alpha: 0.6,
            min_duration: 800.0,
            max_duration: 120_000.0,
            counter: 0,
            scratch: Scratch::default(),
        }
    }

    /// Samples a bounded-Pareto total duration.
    fn sample_duration(&mut self) -> f64 {
        // Inverse-CDF sampling of a bounded Pareto distribution.
        let a = self.pareto_alpha;
        let l = self.min_duration.powf(a);
        let h = self.max_duration.powf(a);
        let u: f64 = self.rng.gen_range(0.0..1.0);
        ((-(u * (h - l) - h) / (h * l)).powf(-1.0 / a)).clamp(self.min_duration, self.max_duration)
    }

    /// Samples the number of stages (geometric-ish around the paper's mean
    /// of 66, at least 3, capped at 4× the mean).
    fn sample_num_stages(&mut self) -> usize {
        let mean = TARGET_MEAN_NODES;
        // Exponential with the target mean, shifted by the minimum size.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let sample = -(mean - 3.0) * u.ln() + 3.0;
        (sample.round() as usize).clamp(3, (mean * 4.0) as usize)
    }

    /// Generates the next job.
    pub fn next_job(&mut self) -> JobDag {
        self.counter += 1;
        let total_duration = self.sample_duration();
        let num_stages = self.sample_num_stages();
        let mut name = String::with_capacity(NAME_CAPACITY);
        name.push_str("alibaba-");
        push_decimal(&mut name, self.counter);
        self.build_dag(name, num_stages, total_duration)
    }

    /// Generates `n` jobs.
    pub fn jobs(&mut self, n: usize) -> Vec<JobDag> {
        (0..n).map(|_| self.next_job()).collect()
    }

    /// Builds a layered random DAG with the requested stage count and total
    /// single-executor work.
    fn build_dag(&mut self, name: String, num_stages: usize, total_duration: f64) -> JobDag {
        let rng = &mut self.rng;
        // 1. Assign stages to layers and order them by layer for step 3.
        self.scratch.layer_stages(rng, num_stages);
        let Scratch {
            layer_of,
            weights,
            jitters,
            order,
            ge_count,
            edges,
            chosen,
            stage_name,
            ..
        } = &mut self.scratch;

        // 2. Split the total work over stages with a log-normal-ish spread,
        //    then split each stage's work over its tasks.
        weights.clear();
        weights.extend((0..num_stages).map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            (u * 3.0).exp()
        }));
        let weight_sum: f64 = weights.iter().sum();
        // Production stages have anywhere from 1 to ~50 tasks; keep the
        // count roughly proportional to the stage's work.
        let split = |w: f64| {
            let stage_work = total_duration * w / weight_sum;
            (stage_work, ((stage_work / 200.0).ceil() as usize).clamp(1, 50))
        };

        let mut builder = JobDagBuilder::new(name);
        builder.reserve(
            num_stages,
            weights.iter().map(|&w| split(w).1).sum(),
            stage_name_bytes(num_stages),
        );
        for (i, &w) in weights.iter().enumerate() {
            let (stage_work, tasks) = split(w);
            jitters.clear();
            jitters.extend((0..tasks).map(|_| rng.gen_range(0.5..1.5)));
            let jitter_sum: f64 = jitters.iter().sum();
            write_stage_name(stage_name, i);
            builder.add_stage(
                &*stage_name,
                jitters.iter().map(|j| Task::new(stage_work * j / jitter_sum)),
            );
        }

        // 3. Wire edges: every stage in layer > 0 gets 1–3 parents from
        //    earlier layers (preferring the immediately preceding layer),
        //    producing the chain / fan-in / fan-out motifs of the trace.
        //    A stage's candidates are the stages of strictly earlier
        //    layers, closest first (see `Scratch::layer_stages`).
        edges.clear();
        for i in 0..num_stages {
            if layer_of[i] == 0 {
                continue;
            }
            let parents_wanted = rng.gen_range(1..=3usize);
            let candidates = &order[ge_count[layer_of[i]]..];
            let take = parents_wanted.min(candidates.len());
            // Pick among the closest 2×take candidates to add variety.
            let pool = candidates.len().min(take * 2);
            chosen.clear();
            while chosen.len() < take {
                let pick = candidates[rng.gen_range(0..pool)];
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            edges.extend(chosen.iter().map(|&p| (StageId(p as u32), StageId(i as u32))));
        }

        builder
            .edges(edges.iter().copied())
            .expect("layered edges cannot form cycles")
            .build()
            .expect("generated Alibaba DAG is always valid")
    }
}

impl Scratch {
    /// Assigns `num_stages` stages to layers (`layer_of`) and orders them by
    /// descending layer, then ascending index (`order`), with `ge_count[l]`
    /// the number of stages in layer `l` or later.
    ///
    /// The number of layers grows with DAG size (between 3 and ~12); every
    /// layer gets one of the first stages, the remaining stages are spread
    /// at random.  The wiring's preference order — closest earlier layer
    /// first, ascending index within a layer — is the same relative order
    /// for every stage, so with stages in `order` any stage's candidate
    /// list is the suffix of stages in strictly earlier layers, at offset
    /// `ge_count[layer]`.  `order` is a counting sort over those offsets:
    /// layer `l`'s stages fill `order[ge_count[l + 1]..ge_count[l]]` in
    /// ascending index order.
    fn layer_stages(&mut self, rng: &mut ChaCha8Rng, num_stages: usize) {
        let num_layers = (2.0 * (num_stages as f64).sqrt())
            .round()
            .clamp(2.0, 12.0) as usize;
        self.layer_of.clear();
        self.layer_of.extend((0..num_stages).map(|i| {
            if i < num_layers {
                i // guarantee every layer is non-empty
            } else {
                rng.gen_range(0..num_layers)
            }
        }));
        let ge_count = &mut self.ge_count;
        ge_count.clear();
        ge_count.resize(num_layers + 1, 0);
        for &l in &self.layer_of {
            ge_count[l] += 1;
        }
        for l in (0..num_layers).rev() {
            ge_count[l] += ge_count[l + 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&ge_count[1..]);
        self.order.clear();
        self.order.resize(num_stages, 0);
        for (i, &l) in self.layer_of.iter().enumerate() {
            self.order[self.cursor[l]] = i;
            self.cursor[l] += 1;
        }
    }
}

/// Bytes of the stage names `"s0"` to `"s{n - 1}"`: an `s` and one digit
/// per stage, plus a digit for each stage at or past each power of ten.
fn stage_name_bytes(n: usize) -> usize {
    let mut bytes = 2 * n;
    let mut power = 10;
    while power < n {
        bytes += n - power;
        power *= 10;
    }
    bytes
}

/// Writes stage `i`'s name, `"s{i}"`, into `buf` (cleared first): the same
/// bytes as `format!("s{i}")` without a fresh `String` per stage.
fn write_stage_name(buf: &mut String, i: usize) {
    buf.clear();
    buf.push('s');
    push_decimal(buf, i as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_format() {
        let wide = [999, 1000, 65_535, u32::MAX as usize, usize::MAX];
        let mut buf = String::from("stale");
        for i in (0..1_000).chain(wide) {
            write_stage_name(&mut buf, i);
            assert_eq!(buf, format!("s{i}"));
        }
    }

    #[test]
    fn stage_name_bytes_sum_the_names() {
        let mut total = 0;
        for n in 0..2_000 {
            assert_eq!(stage_name_bytes(n), total, "{n} stages");
            total += format!("s{n}").len();
        }
    }

    /// The counting sort orders stages as sorting their indices by
    /// descending layer, then index, would, on layer assignments drawn as
    /// `build_dag` draws them, at every stage count the generator samples.
    #[test]
    fn counting_sort_matches_the_sort_by_layer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1A7E);
        let mut scratch = Scratch::default();
        for round in 0..4 {
            for n in 3..=(TARGET_MEAN_NODES * 4.0) as usize {
                scratch.layer_stages(&mut rng, n);
                let layer_of = &scratch.layer_of;
                let mut expected: Vec<usize> = (0..n).collect();
                expected.sort_unstable_by_key(|&j| (std::cmp::Reverse(layer_of[j]), j));
                assert_eq!(scratch.order, expected, "round {round}, {n} stages");
                for (l, &count) in scratch.ge_count.iter().enumerate() {
                    let at_or_past = layer_of.iter().filter(|&&k| k >= l).count();
                    assert_eq!(count, at_or_past, "round {round}, {n} stages, layer {l}");
                }
            }
        }
    }

    #[test]
    fn jobs_are_valid_dags() {
        let mut g = AlibabaGenerator::new(1);
        for job in g.jobs(50) {
            job.validate().unwrap();
            assert!(job.num_stages() >= 3);
            assert!(job.total_work() >= 600.0 - 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = AlibabaGenerator::new(9).jobs(5);
        let b: Vec<_> = AlibabaGenerator::new(9).jobs(5);
        assert_eq!(a, b);
        let c: Vec<_> = AlibabaGenerator::new(10).jobs(5);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_duration_near_target() {
        let mut g = AlibabaGenerator::new(42);
        let jobs = g.jobs(400);
        let mean = jobs.iter().map(JobDag::total_work).sum::<f64>() / jobs.len() as f64;
        let err = (mean - TARGET_MEAN_DURATION).abs() / TARGET_MEAN_DURATION;
        assert!(
            err < 0.35,
            "mean single-executor duration {mean:.0}s should be within 35% of {TARGET_MEAN_DURATION}"
        );
    }

    #[test]
    fn mean_nodes_near_target() {
        let mut g = AlibabaGenerator::new(7);
        let jobs = g.jobs(400);
        let mean = jobs.iter().map(|j| j.num_stages() as f64).sum::<f64>() / jobs.len() as f64;
        assert!(
            (mean - TARGET_MEAN_NODES).abs() / TARGET_MEAN_NODES < 0.35,
            "mean stages {mean:.1} should be near {TARGET_MEAN_NODES}"
        );
    }

    #[test]
    fn durations_follow_heavy_tail() {
        let mut g = AlibabaGenerator::new(3);
        let mut durations: Vec<f64> = g.jobs(300).iter().map(JobDag::total_work).collect();
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = durations[durations.len() / 2];
        let p95 = durations[(durations.len() as f64 * 0.95) as usize];
        // Power law: the 95th percentile is far above the median.
        assert!(p95 > 3.0 * median, "p95 {p95:.0} vs median {median:.0}");
    }

    #[test]
    fn scaled_jobs_take_minutes() {
        // After the paper's 1/60 scaling the average job should take a
        // couple of real-time minutes (the paper reports ≈2.2 minutes).
        let mut g = AlibabaGenerator::new(11);
        let jobs = g.jobs(200);
        let n = jobs.len() as f64;
        let mean_scaled = jobs
            .into_iter()
            .map(|j| j.scaled(crate::PAPER_DURATION_SCALE).total_work())
            .sum::<f64>()
            / n;
        assert!(
            (60.0..300.0).contains(&mean_scaled),
            "scaled mean {mean_scaled:.0}s should be a few minutes"
        );
    }
}
