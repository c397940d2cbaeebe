//! Bring your own scheduler: implement the v2 `Scheduler` trait for a
//! custom policy.  The policy below shows the two halves of the API:
//!
//! * `on_event` + `DecisionSink` — decisions are pushed into an
//!   engine-owned sink instead of returned in a fresh `Vec`, so the hot
//!   path stays allocation-free,
//! * deferral by writing nothing — above its carbon ceiling the policy
//!   writes no decision, the free executors idle, and the next carbon step
//!   (or arrival, or task finish) consults the policy again.
//!
//! The same policy is then wrapped with CAP — no changes to the policy
//! itself, exactly the "wrapper for any carbon-agnostic scheduler" use case
//! of §4.2.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use carbon_aware_dag_sched::prelude::*;
use pcaps_cluster::{DecisionSink, SchedEvent, SchedulingContext};

/// A toy carbon-ceiling policy: dispatch the job with the most remaining
/// work first ("largest job first" — somebody's in-house policy), but only
/// while the carbon intensity is at or below a fixed ceiling.  Above the
/// ceiling it writes nothing, and the next carbon step consults it again.
struct ThriftyLargestJobFirst {
    /// Maximum carbon intensity (gCO₂eq/kWh) at which new work starts.
    ceiling: f64,
}

impl Scheduler for ThriftyLargestJobFirst {
    fn name(&self) -> &str {
        "thrifty-largest-job-first"
    }

    fn on_event(
        &mut self,
        _event: SchedEvent<'_>,
        ctx: &SchedulingContext<'_>,
        out: &mut DecisionSink,
    ) {
        // Dirty grid: write nothing.  The free executors idle, and while
        // work waits the engine consults the policy again at every carbon
        // step.  Progress needs the ceiling strictly above the trace
        // minimum, so that a clean-enough step always comes.
        if ctx.carbon.intensity > self.ceiling {
            return;
        }
        // Clean grid: largest remaining work first.
        let mut jobs: Vec<_> = ctx
            .jobs()
            .filter(|j| !j.dispatchable_stages().is_empty())
            .collect();
        jobs.sort_by(|a, b| b.remaining_work().total_cmp(&a.remaining_work()));
        let mut free = ctx.free_executors;
        for job in jobs {
            for &stage in job.dispatchable_stages() {
                if free == 0 {
                    return;
                }
                let want = job.progress.pending_tasks(stage).min(free);
                if want > 0 {
                    out.dispatch(job.id, stage, want);
                    free -= want;
                }
            }
        }
    }
}

fn main() {
    let trace = SyntheticTraceGenerator::new(GridRegion::Nsw, 3).generate_days(14);
    let workload: Vec<SubmittedJob> = WorkloadBuilder::new(WorkloadKind::TpchMixed, 3)
        .jobs(10)
        .build()
        .into_iter()
        .map(|j| SubmittedJob::at(j.arrival, j.dag))
        .collect();
    // A fairly strict ceiling (25% into the trace's range) so the short
    // demo workload actually hits dirty periods and defers.
    let ceiling = trace.min() + 0.25 * (trace.max() - trace.min());
    let sim = Simulator::new(ClusterConfig::new(16), workload, trace.clone());
    let accountant = CarbonAccountant::new(trace).with_time_scale(60.0);

    // Plain custom policy.
    let plain = sim
        .run(&mut ThriftyLargestJobFirst { ceiling })
        .expect("plain run");
    let plain_summary = ExperimentSummary::of(&plain, &accountant);

    // The same policy wrapped with CAP — one line of integration; CAP
    // forwards the typed events transparently.
    let mut capped = Cap::new(
        ThriftyLargestJobFirst { ceiling },
        CapConfig::with_minimum_quota(4),
    );
    let capped_run = sim.run(&mut capped).expect("capped run");
    let capped_summary = ExperimentSummary::of(&capped_run, &accountant);

    let rel = capped_summary.normalized_to(&plain_summary);
    println!(
        "custom policy:            {:.1} kg CO2eq, ECT {:.0} s",
        plain_summary.carbon_grams / 1000.0,
        plain_summary.ect
    );
    println!(
        "custom policy + CAP(B=4): {:.1} kg CO2eq, ECT {:.0} s",
        capped_summary.carbon_grams / 1000.0,
        capped_summary.ect
    );
    println!(
        "carbon reduction {:.1}% for an ECT ratio of {:.3}; CAP applied a minimum quota of {} executors",
        rel.carbon_reduction_pct,
        rel.ect_ratio,
        capped.stats().min_quota_applied
    );
}
