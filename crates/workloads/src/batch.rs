//! Assembling experiment workloads: batches of jobs with arrival times.

use crate::alibaba::AlibabaGenerator;
use crate::arrivals::{ArrivalProcess, PoissonArrivals};
use crate::tpch::{TpchQuery, TpchScale};
use pcaps_dag::{JobDag, SubmittedJob};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which trace jobs are sampled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// TPC-H queries, uniformly over the 22 queries and the three scales
    /// (2/10/50 GB) — the main simulator workload of the paper.
    TpchMixed,
    /// TPC-H queries at a single fixed scale.
    TpchAtScale(TpchScale),
    /// Alibaba-style production DAGs.
    Alibaba,
}

/// Builder for experiment workloads.
///
/// A built workload is a single *arrival stream* of [`SubmittedJob`]s, the
/// job type the simulator consumes: it can feed one cluster directly, or a
/// whole federation — multi-region placement happens at the consumer (the
/// routing layer), not here.  Each job's data size is the
/// [`SubmittedJob::at`] default.
///
/// ```
/// use pcaps_workloads::{WorkloadBuilder, WorkloadKind};
///
/// let jobs = WorkloadBuilder::new(WorkloadKind::TpchMixed, 42)
///     .jobs(20)
///     .mean_interarrival(30.0)
///     .build();
/// assert_eq!(jobs.len(), 20);
/// assert_eq!(jobs[0].arrival, 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    kind: WorkloadKind,
    seed: u64,
    num_jobs: usize,
    mean_interarrival: f64,
    duration_scale: f64,
}

impl WorkloadBuilder {
    /// Creates a builder with the paper's defaults: 50 jobs and a 30 s mean
    /// inter-arrival time.
    ///
    /// Durations follow the paper's conventions (§6.1): TPC-H queries keep
    /// their real single-executor durations (180 s / 386 s / 1 261 s on
    /// average), while Alibaba trace jobs are scaled by 1/60 so the average
    /// job takes ≈2.2 real-time minutes.  Under the simulator's
    /// 1 minute ↔ 1 hour carbon time scaling both choices make each job span
    /// several carbon hours.
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        let duration_scale = match kind {
            WorkloadKind::Alibaba => crate::PAPER_DURATION_SCALE,
            WorkloadKind::TpchMixed | WorkloadKind::TpchAtScale(_) => 1.0,
        };
        WorkloadBuilder {
            kind,
            seed,
            num_jobs: 50,
            mean_interarrival: 30.0,
            duration_scale,
        }
    }

    /// Sets the number of jobs in the batch (the paper uses 25, 50, 100 and
    /// sweeps 12–200 in Appendix A.2.1).
    pub fn jobs(mut self, n: usize) -> Self {
        assert!(n > 0, "a workload needs at least one job");
        self.num_jobs = n;
        self
    }

    /// Sets the mean Poisson inter-arrival time in schedule seconds.
    ///
    /// # Panics
    /// Panics unless `seconds` is positive and finite.
    pub fn mean_interarrival(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "inter-arrival time must be positive and finite, got {seconds}"
        );
        self.mean_interarrival = seconds;
        self
    }

    /// Sets the factor applied to all task durations (default 1/60, the
    /// paper's experiment scaling).  Use `1.0` to keep raw durations.
    ///
    /// # Panics
    /// Panics unless `scale` is positive and finite — here, rather than at
    /// the first pull in the middle of a simulation.
    pub fn duration_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "duration scale must be positive and finite, got {scale}"
        );
        self.duration_scale = scale;
        self
    }

    /// Generates the workload, fully materialized.  Equivalent to
    /// `self.stream().collect()` — the streaming form builds each DAG only
    /// when pulled and is what trace-scale runs should use.
    pub fn build(&self) -> Vec<SubmittedJob> {
        self.stream().collect()
    }

    /// Returns the lazy form of [`WorkloadBuilder::build`]: an iterator
    /// that samples each job's arrival time and DAG when the job is pulled,
    /// holding no materialized workload.  Collecting the stream is
    /// bit-identical to `build()` (the arrival process and the DAG sampler
    /// consume independent RNG streams, so interleaving their draws changes
    /// nothing) — pinned by tests here and in `tests/streaming.rs`.
    pub fn stream(&self) -> WorkloadStream {
        WorkloadStream {
            sampler: self.sampler(),
            arrivals: Box::new(PoissonArrivals::new(
                self.mean_interarrival,
                self.seed ^ 0xA11CE,
            )),
            first_at_zero: true,
            remaining: Some(self.num_jobs),
        }
    }

    /// The open-arrival form: a stream that never ends, spacing arrivals
    /// with the given process (e.g. [`crate::DiurnalArrivals`]) instead of
    /// the builder's Poisson default.  Every arrival, including the first,
    /// is sampled from the process — a diurnal stream should respect its
    /// rate profile from the start rather than pinning job 0 to time 0.
    /// The builder's job count is ignored — the consumer decides when to
    /// stop pulling, which for the simulation engine means an open-loop run
    /// bounded by a time horizon rather than by workload exhaustion.  The
    /// DAG stream is the same as [`WorkloadBuilder::stream`]'s: only the
    /// arrival times differ.
    pub fn stream_unbounded<A: ArrivalProcess + 'static>(&self, process: A) -> WorkloadStream {
        WorkloadStream {
            sampler: self.sampler(),
            arrivals: Box::new(process),
            first_at_zero: false,
            remaining: None,
        }
    }

    /// The per-job DAG sampler shared by both stream forms (bounded and
    /// unbounded), so they are draw-for-draw identical.
    fn sampler(&self) -> JobSampler {
        JobSampler {
            kind: self.kind,
            duration_scale: self.duration_scale,
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            alibaba: AlibabaGenerator::new(self.seed ^ 0xBEEF),
            queries: TpchQuery::all(),
            next_index: 0,
        }
    }
}

/// The DAG-sampling half of a workload stream: kind selection, duration
/// scaling and unique `name#index` renaming, independent of how arrivals
/// are spaced.  Each pulled DAG is built once, then scaled in place and
/// `#index` appended to its name in place.
struct JobSampler {
    kind: WorkloadKind,
    duration_scale: f64,
    rng: ChaCha8Rng,
    alibaba: AlibabaGenerator,
    /// The TPC-H query list, built once — `next_dag()` is the pull hot path.
    queries: Vec<TpchQuery>,
    next_index: usize,
}

impl JobSampler {
    fn next_dag(&mut self) -> JobDag {
        let i = self.next_index;
        self.next_index += 1;
        let dag = match self.kind {
            WorkloadKind::TpchMixed => {
                let q = *self.queries.choose(&mut self.rng).expect("non-empty query list");
                let scale = *TpchScale::ALL.choose(&mut self.rng).expect("non-empty scales");
                q.job(scale, self.rng.gen())
            }
            WorkloadKind::TpchAtScale(scale) => {
                let q = *self.queries.choose(&mut self.rng).expect("non-empty query list");
                q.job(scale, self.rng.gen())
            }
            WorkloadKind::Alibaba => self.alibaba.next_job(),
        };
        let mut dag = dag.scaled(self.duration_scale);
        dag.name.push('#');
        crate::push_decimal(&mut dag.name, i as u64);
        dag
    }
}

/// A stream of generated jobs, sampled one at a time as it is pulled:
/// either the lazy twin of a built workload ([`WorkloadBuilder::stream`])
/// or an open-arrival stream that never ends
/// ([`WorkloadBuilder::stream_unbounded`]), whose size hint is the
/// infinite iterator's `(usize::MAX, None)`.  Consumers of an unbounded
/// stream must bound their own pulls — the engine's open-loop serving mode
/// does so with a time horizon.
///
/// Arrivals are non-decreasing by construction (the arrival process is
/// monotone), so the stream satisfies the simulator's source contract as
/// it is; it is a [`GeneratedStream`].
pub struct WorkloadStream {
    sampler: JobSampler,
    arrivals: Box<dyn ArrivalProcess>,
    /// `build()` semantics: the first job arrives at time 0 (the batch
    /// starts immediately); an unbounded stream samples every gap.
    first_at_zero: bool,
    /// Jobs left to yield, `None` for an unbounded stream.
    remaining: Option<usize>,
}

impl std::fmt::Debug for WorkloadStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadStream")
            .field("kind", &self.sampler.kind)
            .field("next_index", &self.sampler.next_index)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl Iterator for WorkloadStream {
    type Item = SubmittedJob;

    fn next(&mut self) -> Option<SubmittedJob> {
        if let Some(remaining) = &mut self.remaining {
            *remaining = remaining.checked_sub(1)?;
        }
        let arrival = if self.first_at_zero && self.sampler.next_index == 0 {
            0.0
        } else {
            self.arrivals.next_arrival()
        };
        Some(SubmittedJob::at(arrival, self.sampler.next_dag()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.remaining {
            Some(remaining) => (remaining, Some(remaining)),
            None => (usize::MAX, None),
        }
    }
}

/// A stream whose jobs come straight from a [`WorkloadBuilder`]: every DAG
/// was built, and thereby validated, by the generators, and arrivals are
/// non-decreasing.  Sealed — only [`WorkloadStream`] implements it — so a
/// consumer may skip revalidating what such a stream yields; any other
/// iterator of jobs, including an adapter over a `WorkloadStream`, is not a
/// `GeneratedStream`.
pub trait GeneratedStream: Iterator<Item = SubmittedJob> + sealed::Sealed {}

impl GeneratedStream for WorkloadStream {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::WorkloadStream {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_number_of_jobs() {
        for kind in [
            WorkloadKind::TpchMixed,
            WorkloadKind::TpchAtScale(TpchScale::Gb10),
            WorkloadKind::Alibaba,
        ] {
            let jobs = WorkloadBuilder::new(kind, 1).jobs(25).build();
            assert_eq!(jobs.len(), 25);
            for j in &jobs {
                j.dag.validate().unwrap();
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WorkloadBuilder::new(WorkloadKind::TpchMixed, 3).jobs(10).build();
        let b = WorkloadBuilder::new(WorkloadKind::TpchMixed, 3).jobs(10).build();
        assert_eq!(a, b);
        let c = WorkloadBuilder::new(WorkloadKind::TpchMixed, 4).jobs(10).build();
        assert_ne!(a, c);
    }

    #[test]
    fn alibaba_durations_are_scaled_but_tpch_kept_raw() {
        // Alibaba jobs default to the paper's 1/60 scaling...
        let raw = WorkloadBuilder::new(WorkloadKind::Alibaba, 5)
            .jobs(10)
            .duration_scale(1.0)
            .build();
        let scaled = WorkloadBuilder::new(WorkloadKind::Alibaba, 5).jobs(10).build();
        let total_raw: f64 = raw.iter().map(|j| j.dag.total_work()).sum();
        let total_scaled: f64 = scaled.iter().map(|j| j.dag.total_work()).sum();
        assert!((total_raw / total_scaled - 60.0).abs() < 1e-6);

        // ...while TPC-H queries keep their real single-executor durations.
        let tpch = WorkloadBuilder::new(WorkloadKind::TpchAtScale(TpchScale::Gb10), 5)
            .jobs(30)
            .build();
        let mean = tpch.iter().map(|j| j.dag.total_work()).sum::<f64>() / tpch.len() as f64;
        assert!(
            (250.0..600.0).contains(&mean),
            "mean 10 GB TPC-H duration should stay near 386 s, got {mean:.0}"
        );
    }

    #[test]
    fn arrivals_follow_interarrival_setting() {
        let fast = WorkloadBuilder::new(WorkloadKind::TpchMixed, 7)
            .jobs(100)
            .mean_interarrival(5.0)
            .build();
        let slow = WorkloadBuilder::new(WorkloadKind::TpchMixed, 7)
            .jobs(100)
            .mean_interarrival(120.0)
            .build();
        assert!(fast.last().unwrap().arrival < slow.last().unwrap().arrival);
    }

    #[test]
    fn job_names_are_unique() {
        let jobs = WorkloadBuilder::new(WorkloadKind::TpchMixed, 9).jobs(30).build();
        let mut names: Vec<&str> = jobs.iter().map(|j| j.dag.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_rejected() {
        let _ = WorkloadBuilder::new(WorkloadKind::Alibaba, 0).jobs(0);
    }

    #[test]
    #[should_panic(expected = "duration scale must be positive and finite")]
    fn infinite_duration_scale_rejected() {
        let _ = WorkloadBuilder::new(WorkloadKind::Alibaba, 0).duration_scale(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "duration scale must be positive and finite")]
    fn nan_duration_scale_rejected() {
        let _ = WorkloadBuilder::new(WorkloadKind::TpchMixed, 0).duration_scale(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "inter-arrival time must be positive and finite")]
    fn infinite_interarrival_rejected() {
        let _ = WorkloadBuilder::new(WorkloadKind::TpchMixed, 0).mean_interarrival(f64::INFINITY);
    }

    #[test]
    fn stream_collects_to_the_materialized_build() {
        for kind in [
            WorkloadKind::TpchMixed,
            WorkloadKind::TpchAtScale(TpchScale::Gb2),
            WorkloadKind::Alibaba,
        ] {
            let builder = WorkloadBuilder::new(kind, 77).jobs(15).mean_interarrival(12.0);
            let lazy: Vec<SubmittedJob> = builder.stream().collect();
            // Rebuild by hand the way `build()` used to (all arrivals first,
            // then all DAGs) to prove interleaving the RNG streams changes
            // nothing.
            let mut arrivals = PoissonArrivals::new(12.0, 77 ^ 0xA11CE);
            let times = arrivals.arrivals(15);
            assert_eq!(
                lazy.iter().map(|j| j.arrival).collect::<Vec<_>>(),
                times,
                "lazy arrival times must match the eager batch"
            );
            assert_eq!(lazy, builder.build(), "{kind:?}: stream ≠ build");
        }
    }

    #[test]
    fn stream_is_lazy_and_sized() {
        let builder = WorkloadBuilder::new(WorkloadKind::Alibaba, 5).jobs(1000);
        let mut stream = builder.stream();
        assert_eq!(Iterator::size_hint(&stream), (1000, Some(1000)));
        // Pulling one job must not materialize the rest.
        let first = stream.next().unwrap();
        assert_eq!(first.arrival, 0.0);
        assert_eq!(Iterator::size_hint(&stream), (999, Some(999)));
    }

    #[test]
    fn stream_with_custom_arrivals_respects_the_process() {
        use crate::arrivals::DiurnalArrivals;
        let builder = WorkloadBuilder::new(WorkloadKind::TpchMixed, 9).jobs(50);
        let jobs: Vec<SubmittedJob> = builder
            .stream_unbounded(DiurnalArrivals::new(30.0, 0.5, 1440.0, 9))
            .take(50)
            .collect();
        assert_eq!(jobs.len(), 50);
        assert!(jobs[0].arrival > 0.0, "custom processes sample the first gap too");
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // The DAG stream is independent of the arrival process: same seed,
        // same jobs, only the times differ.
        let poisson = builder.build();
        for (a, b) in jobs.iter().zip(&poisson) {
            assert_eq!(a.dag, b.dag);
        }
    }

    #[test]
    fn unbounded_prefix_matches_the_bounded_stream() {
        use crate::arrivals::DiurnalArrivals;
        let builder = WorkloadBuilder::new(WorkloadKind::TpchMixed, 21).jobs(40);
        let bounded: Vec<SubmittedJob> = builder.stream().collect();
        let unbounded: Vec<SubmittedJob> = builder
            .stream_unbounded(DiurnalArrivals::new(30.0, 0.5, 1440.0, 21))
            .take(40)
            .collect();
        assert_eq!(unbounded.len(), bounded.len());
        // Same DAG draws as the bounded stream; every arrival, the first
        // included, is the process's own draw.
        let mut process = DiurnalArrivals::new(30.0, 0.5, 1440.0, 21);
        for (u, b) in unbounded.iter().zip(&bounded) {
            assert_eq!(u.dag, b.dag, "the unbounded stream must be the same draw stream");
            assert_eq!(u.arrival, process.next_arrival());
        }
    }

    #[test]
    fn unbounded_stream_keeps_yielding_past_any_job_count() {
        let mut stream = WorkloadBuilder::new(WorkloadKind::Alibaba, 3)
            .jobs(1)
            .stream_unbounded(PoissonArrivals::new(10.0, 3));
        assert_eq!(Iterator::size_hint(&stream), (usize::MAX, None));
        let mut last = 0.0;
        for _ in 0..500 {
            let job = stream.next().expect("an unbounded stream never ends");
            assert!(job.arrival >= last, "arrivals must be non-decreasing");
            last = job.arrival;
        }
    }
}
