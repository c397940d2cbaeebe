//! Minimal local stand-in for the `criterion` benchmark harness.
//!
//! Implements exactly the API surface the workspace's benches use:
//! `Criterion::benchmark_group`, `sample_size`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Bencher::iter`, `black_box` and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: each benchmark is calibrated to a batch size whose
//! wall-clock time is long enough to be timed reliably, then `sample_size`
//! batches are timed and the per-iteration mean/min/max are reported on
//! stdout.  Two environment variables integrate with the repo's bench smoke
//! script (`crates/bench/smoke.sh`):
//!
//! * `PCAPS_BENCH_QUICK=1` — cut sample counts for a fast smoke run (at
//!   least 5 batches are still timed so `min_ns` — the noise-robust
//!   statistic the ±10% regression gate compares — is meaningful),
//! * `PCAPS_BENCH_JSON=path` — write `{"<group>/<id>": {"mean_ns": …,
//!   "samples": …}, …}` to `path` when the run finishes.

// Shims are deliberate API subsets of the real crates; the smoke gate
// builds the workspace with RUSTFLAGS=-Dwarnings and shims are exempt
// (subset evolution routinely leaves dead code behind).  The same holds for
// clippy, whose gate runs with -Dwarnings too.
#![allow(dead_code, unused_imports, unused_variables, unused_macros)]
#![allow(clippy::all)]

use std::time::Instant;

/// Opaque value barrier (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/id` label.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Minimum per-batch mean observed.
    pub min_ns: f64,
    /// Maximum per-batch mean observed.
    pub max_ns: f64,
    /// Number of timed batches.
    pub samples: usize,
}

/// The benchmark driver.
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { results: Vec::new() }
    }
}

fn quick_mode() -> bool {
    std::env::var("PCAPS_BENCH_QUICK").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: if quick_mode() { 5 } else { 20 },
        }
    }

    /// Standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = if quick_mode() { 5 } else { 20 };
        let label = id.into_benchmark_id();
        run_one(&mut self.results, label, samples, |b| f(b));
        self
    }

    /// Writes the collected results and returns them (called by
    /// `criterion_main!`; also safe to call manually).
    pub fn final_summary(&mut self) {
        if let Ok(path) = std::env::var("PCAPS_BENCH_JSON") {
            if !path.is_empty() {
                let mut out = String::from("{\n");
                for (i, r) in self.results.iter().enumerate() {
                    let comma = if i + 1 == self.results.len() { "" } else { "," };
                    out.push_str(&format!(
                        "  \"{}\": {{\"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {}}}{}\n",
                        r.id, r.mean_ns, r.min_ns, r.max_ns, r.samples, comma
                    ));
                }
                out.push_str("}\n");
                if let Err(e) = std::fs::write(&path, out) {
                    eprintln!("criterion shim: could not write {path}: {e}");
                }
            }
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed batches per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = if quick_mode() { n.min(5) } else { n };
        self
    }

    /// Benchmarks a closure.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&mut self.criterion.results, label, self.sample_size, |b| f(b));
        self
    }

    /// Benchmarks a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&mut self.criterion.results, label, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F>(results: &mut Vec<BenchResult>, id: String, samples: usize, mut body: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples,
        outcome: None,
    };
    body(&mut bencher);
    match bencher.outcome {
        Some((mean_ns, min_ns, max_ns)) => {
            println!(
                "bench {id:<55} mean {:>14.1} ns  (min {:.1}, max {:.1}, {} samples)",
                mean_ns, min_ns, max_ns, samples
            );
            results.push(BenchResult { id, mean_ns, min_ns, max_ns, samples });
        }
        None => eprintln!("bench {id}: closure never called Bencher::iter"),
    }
}

/// Times the routine passed to [`Bencher::iter`].
pub struct Bencher {
    samples: usize,
    outcome: Option<(f64, f64, f64)>,
}

impl Bencher {
    /// Measures `routine`, batching iterations so each timed batch is long
    /// enough for the monotonic clock to resolve.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Calibration: one untimed warm-up, then size batches to ≥ ~1 ms.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().as_secs_f64();
        let target = if quick_mode() { 5e-4 } else { 2e-3 };
        let batch = if once >= target {
            1
        } else {
            ((target / once.max(1e-9)).ceil() as usize).clamp(1, 1_000_000)
        };
        let mut means = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_secs_f64();
            means.push(elapsed * 1e9 / batch as f64);
        }
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        let min = means.iter().copied().fold(f64::INFINITY, f64::min);
        let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.outcome = Some((mean, min, max));
    }
}

/// Label for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` style id.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// Conversion into a benchmark label (implemented for `BenchmarkId` and
/// string types).
pub trait IntoBenchmarkId {
    /// The rendered label.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}
impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}
impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Mirrors `criterion::criterion_group!`: defines a function running each
/// benchmark function against a shared [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: defines `main` running the groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10usize, |b, &n| {
            b.iter(|| (0..n).sum::<usize>())
        });
        group.finish();
        assert_eq!(c.results.len(), 2);
        assert!(c.results.iter().all(|r| r.mean_ns >= 0.0));
        assert_eq!(c.results[1].id, "g/sum/10");
    }
}
