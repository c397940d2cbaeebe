//! Turning trials into named metrics and the result line.

use crate::trial::{Fingerprint, ServeCounts, Trial};

/// One reported figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
/// Reorders `samples`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// Jobs attempted and failed over a run's trials.  A trial that fails any
/// check, or whose simulated results differ from the run's reference
/// trial, fails every one of its jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed a check.
    pub failed: usize,
}

impl Tally {
    /// Counts `trial`, comparing it against `reference` when given.  Records
    /// a mismatch as an error on the trial.
    pub fn add(&mut self, trial: &mut Trial, reference: Option<Fingerprint>) {
        if let Some(want) = reference {
            let got = trial.fingerprint();
            if trial.ok() && got != want {
                trial.errors.push(format!(
                    "results differ from the reference trial: {got:?} vs {want:?}"
                ));
            }
        }
        // A trial that aborted before pulling anything still counts once.
        let jobs = trial.jobs.max(1);
        self.attempted += jobs;
        if !trial.ok() {
            self.failed += jobs;
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The per-layer split of one traced trial.  `faults.plan_s`,
/// `carbon.trace_s` and `trace.overhead_frac` come from outside the trial
/// and are added by the caller.
pub fn layer_metrics(t: &Trial) -> Vec<Metric> {
    let l = t
        .layers
        .as_ref()
        .expect("layer metrics need a traced trial");
    let no_serve = ServeCounts::default();
    let serve = t.serve.as_ref().unwrap_or(&no_serve);
    let wall = t.wall_s;
    let tasks = t.tasks.max(1) as f64;
    let snapshots_s = serve.snapshot_us.iter().sum::<f64>() / 1e6;
    let engine_self = wall - l.busy_s() - t.account_s - serve.window_s - snapshots_s;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mut latencies = l.sched_latencies_ns.clone();
    vec![
        metric("workloads.pulls", l.source.calls as f64, "count"),
        metric("workloads.busy_s", l.source.busy_s, "s"),
        metric("workloads.share", l.source.busy_s / wall, "frac"),
        metric(
            "workloads.us_per_job",
            per(l.source.busy_s * 1e6, l.source.useful),
            "us",
        ),
        metric("schedulers.invocations", l.schedulers.calls as f64, "count"),
        metric(
            "schedulers.invocations_per_task",
            l.schedulers.calls as f64 / tasks,
            "count/task",
        ),
        metric("schedulers.useful_frac", l.schedulers.useful_frac(), "frac"),
        metric("schedulers.busy_s", l.schedulers.busy_s, "s"),
        metric("schedulers.share", l.schedulers.busy_s / wall, "frac"),
        metric("schedulers.p50_ns", quantile(&mut latencies, 0.50), "ns"),
        metric("schedulers.p99_ns", quantile(&mut latencies, 0.99), "ns"),
        metric("engine.self_s", engine_self, "s"),
        metric("engine.share", engine_self / wall, "frac"),
        metric("engine.ns_per_task", engine_self * 1e9 / tasks, "ns"),
        metric(
            "engine.peak_resident_jobs",
            t.peak_resident_jobs as f64,
            "count",
        ),
        metric("routing.calls", l.router.calls as f64, "count"),
        metric("routing.busy_s", l.router.busy_s, "s"),
        metric("migration.consults", l.migration.calls as f64, "count"),
        metric("migration.useful_frac", l.migration.useful_frac(), "frac"),
        metric("migration.moves", t.fed.migrations as f64, "count"),
        metric("migration.busy_s", l.migration.busy_s, "s"),
        metric("network.gb_moved", t.fed.gb_moved, "GB"),
        metric("network.transfer_s", t.fed.transfer_s, "s"),
        metric("faults.injected", t.fed.crashes as f64, "count"),
        metric("faults.tasks_failed", t.fed.tasks_failed as f64, "count"),
        metric("faults.retries", t.fed.retries as f64, "count"),
        metric("faults.goodput", t.fed.goodput, "frac"),
        metric("admission.calls", l.admission.calls as f64, "count"),
        metric("admission.busy_s", l.admission.busy_s, "s"),
        metric("admission.reject_frac", l.admission.useful_frac(), "frac"),
        metric("serve.slices", serve.slice_ms.len() as f64, "count"),
        metric("serve.snapshot_us", median(&serve.snapshot_us), "us"),
        metric("serve.resident_slots", serve.resident_slots as f64, "count"),
        metric("serve.jobs_in_system", serve.jobs_in_system as f64, "count"),
        metric("metrics.window_s", serve.window_s, "s"),
        metric("carbon.account_s", t.account_s, "s"),
    ]
}

/// Combines several metric lists (all carrying the same names in the same
/// order) metric by metric with `combine`.
fn combine_metrics(lists: &[Vec<Metric>], combine: impl Fn(&[f64]) -> f64) -> Vec<Metric> {
    let Some(first) = lists.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = lists.iter().map(|l| l[i].value).collect();
            Metric {
                value: combine(&values),
                ..*m
            }
        })
        .collect()
}

/// Per-metric medians over several metric lists.
pub fn median_metrics(lists: &[Vec<Metric>]) -> Vec<Metric> {
    combine_metrics(lists, median)
}

/// Per-metric means over several metric lists.
pub fn mean_metrics(lists: &[Vec<Metric>]) -> Vec<Metric> {
    combine_metrics(lists, |v| v.iter().sum::<f64>() / v.len() as f64)
}

/// A JSON object of `metrics`: `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(metrics)
    )
}

/// A finite number as JSON with every digit Rust prints; non-finite values
/// (which no metric should produce) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
