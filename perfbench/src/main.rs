//! Benchmark entry point: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! A run covers a fixed set of workload instances derived from `--seed`
//! (see [`instance_seed`]); one *round* runs every instance once.  After a
//! warm-up trial, rounds repeat until `--seconds` have passed (at least
//! two).  The first round's results are the reference every later trial
//! must reproduce bit for bit.
//!
//! Untraced (`--trace 0`): rounds run the bare engine and the run reports
//! the end-to-end metrics; every round after the first times a reference
//! kernel between trials to calibrate them (see [`calib`]).  A final traced
//! trial must match the reference.
//!
//! Traced (`--trace 1`): every instance runs bare and then wrapped, and the
//! run reports the per-layer split (per-trial means within a round,
//! medians over rounds) plus the tracing overhead.
//!
//! The last line of standard output is the result object; the line before
//! it (`details {…}`) carries figures that apply to some workloads only.

use pcaps_perfbench::report::{
    json_number, layer_metrics, mean_metrics, median, median_metrics, metric, metrics_json,
    quantile, result_line, Metric, Tally,
};
use pcaps_perfbench::trial::{self, Fingerprint, Trial};
use pcaps_perfbench::{calib, instance_seed, Parts, Spec, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up builds timed before the first trial, on top of every trial's own.
const SETUP_REPS: usize = 40;
/// Set-up builds timed back to back at the start of every calibrated round
/// for `setup_s`.
const SETUP_BLOCK: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Set-up timings: whole build, trace synthesis, fault-plan materialisation.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    trace: Vec<f64>,
    plan: Vec<f64>,
}

impl SetupTimes {
    fn build(&mut self, spec: &Spec) -> Parts {
        let started = Instant::now();
        let parts = spec.build();
        self.total.push(started.elapsed().as_secs_f64());
        self.trace.push(parts.trace_s);
        self.plan.push(parts.plan_s);
        parts
    }
}

/// One pass over every instance.
#[derive(Default)]
struct Round {
    bare: Vec<Trial>,
    /// Each bare trial's wall time over the reference kernel's next to it.
    units: Vec<f64>,
    wrapped: Vec<Trial>,
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn wall(trials: &[Trial]) -> f64 {
    trials.iter().map(|t| t.wall_s).sum()
}

/// Peak resident set of this process (VmHWM), megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report_errors(what: &str, t: &Trial) {
    for e in t.errors.iter().take(5) {
        eprintln!("perfbench: {what} failed a check: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<Spec> = (0..args.workload.standard_instances())
        .map(|i| Spec::standard(args.workload, instance_seed(args.seed, i)))
        .collect();
    let mut setup = SetupTimes::default();
    for spec in specs.iter().cycle().take(SETUP_REPS) {
        drop(setup.build(spec));
    }
    let mut tally = Tally::default();
    let mut warmup = trial::run(setup.build(&specs[0]), false);

    let mut reference: Vec<Option<Fingerprint>> = vec![None; specs.len()];
    let mut rounds: Vec<Round> = Vec::new();
    // Untraced, reference-kernel times between the trials of every round
    // but the first.  The first round runs no kernel, so the peak resident
    // set taken after it is the workload's alone.
    let mut refs: Vec<f64> = Vec::new();
    // Each calibrated round's set-up block: median build over the mean
    // kernel time around the block.
    let mut setup_units: Vec<f64> = Vec::new();
    let mut rss = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while rounds.len() < 2 || Instant::now() < deadline {
        let calibrated = !args.traced && !rounds.is_empty();
        if calibrated {
            if refs.is_empty() {
                refs.push(calib::reference_s());
            }
            let from = setup.total.len();
            for spec in specs.iter().cycle().take(SETUP_BLOCK) {
                drop(setup.build(spec));
            }
            let before = refs[refs.len() - 1];
            let after = calib::reference_s();
            refs.push(after);
            setup_units.push(2.0 * median(&setup.total[from..]) / (before + after));
        }
        let mut round = Round::default();
        for (spec, want) in specs.iter().zip(reference.iter_mut()) {
            let mut t = trial::run(setup.build(spec), false);
            if calibrated {
                let before = refs[refs.len() - 1];
                let after = calib::reference_s();
                refs.push(after);
                round.units.push(2.0 * t.wall_s / (before + after));
            }
            tally.add(&mut t, *want);
            report_errors("trial", &t);
            want.get_or_insert(t.fingerprint());
            round.bare.push(t);
            if args.traced {
                let mut t = trial::run(setup.build(spec), true);
                tally.add(&mut t, *want);
                report_errors("traced trial", &t);
                round.wrapped.push(t);
            }
        }
        rounds.push(round);
        if rounds.len() == 1 {
            // Every instance has now reached its own peak once; later
            // rounds would only add this benchmark's per-trial records.
            rss = peak_rss_mb();
        }
    }
    tally.add(&mut warmup, reference[0]);
    report_errors("warm-up", &warmup);
    if !args.traced {
        // The wrapped path must not change what the engine computes.
        let mut check = trial::run(setup.build(&specs[0]), true);
        tally.add(&mut check, reference[0]);
        report_errors("traced check", &check);
    }

    let first = &rounds[0].bare;
    let n = first.len() as f64;
    let metrics: Vec<Metric> = if args.traced {
        let per_round: Vec<Vec<Metric>> = rounds
            .iter()
            .map(|r| mean_metrics(&r.wrapped.iter().map(layer_metrics).collect::<Vec<_>>()))
            .collect();
        let overhead: Vec<f64> = rounds
            .iter()
            .map(|r| wall(&r.wrapped) / wall(&r.bare) - 1.0)
            .collect();
        let mut m = median_metrics(&per_round);
        m.push(metric("faults.plan_s", median(&setup.plan), "s"));
        m.push(metric("carbon.trace_s", median(&setup.trace), "s"));
        m.push(metric("trace.overhead_frac", median(&overhead), "frac"));
        m
    } else {
        // Other tenants of the host move its speed by up to a third for
        // minutes at a time.  Each trial's cost is therefore counted in
        // reference-kernel units (see `calib`), its median over the
        // calibrated rounds taken per instance, and the sum turned back into
        // seconds at the kernel's nominal speed.
        let units: f64 = (0..first.len())
            .map(|i| median(&rounds[1..].iter().map(|r| r.units[i]).collect::<Vec<_>>()))
            .sum();
        let tasks: f64 = first.iter().map(|t| t.tasks as f64).sum();
        vec![
            metric("tasks_per_s", tasks / (units * calib::NOMINAL_S), "1/s"),
            metric("setup_s", median(&setup_units) * calib::NOMINAL_S, "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric(
                "carbon_kg",
                first.iter().map(|t| t.carbon_g).sum::<f64>() / n / 1000.0,
                "kg",
            ),
            metric(
                "avg_jct_s",
                first.iter().map(|t| t.avg_jct_s).sum::<f64>() / n,
                "s",
            ),
        ]
    };

    let round_walls: Vec<f64> = rounds.iter().map(|r| wall(&r.bare)).collect();
    let best_walls: f64 = (0..first.len())
        .map(|i| min(&rounds.iter().map(|r| r.bare[i].wall_s).collect::<Vec<_>>()))
        .sum();
    let tasks: f64 = first.iter().map(|t| t.tasks as f64).sum();
    let mut details = vec![
        metric("failed_frac", tally.failed_frac(), "frac"),
        metric("rounds", rounds.len() as f64, "count"),
        metric("instances", n, "count"),
        metric("round_wall_s", median(&round_walls), "s"),
        metric("wall_tasks_per_s", tasks / best_walls, "1/s"),
        metric("reference_ms", median(&refs) * 1e3, "ms"),
        metric(
            "jobs_per_round",
            first.iter().map(|t| t.jobs as f64).sum(),
            "count",
        ),
        metric("tasks_per_round", tasks, "count"),
    ];
    if args.workload == Workload::ServePcaps {
        let serve = first.iter().filter_map(|t| t.serve.as_ref());
        let (rejected, arrivals) = serve.fold((0, 0), |(r, a), s| (r + s.rejected, a + s.arrivals));
        let mut slices: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.bare)
            .filter_map(|t| t.serve.as_ref())
            .flat_map(|s| s.slice_ms.iter().copied())
            .collect();
        let samples = slices.len() as f64;
        details.extend([
            metric(
                "rejected_frac",
                rejected as f64 / arrivals.max(1) as f64,
                "frac",
            ),
            metric("slice_p50_ms", quantile(&mut slices, 0.50), "ms"),
            metric("slice_p99_ms", quantile(&mut slices, 0.99), "ms"),
            metric("slice_samples", samples, "count"),
        ]);
    }
    println!(
        "# {} seed={} size={} instances={} trace={}",
        args.workload.name(),
        args.seed,
        specs[0].size,
        specs.len(),
        u8::from(args.traced)
    );
    for m in details.iter().chain(&metrics) {
        println!("#   {:<34} {:>22} {}", m.name, json_number(m.value), m.unit);
    }
    println!("details {}", metrics_json(&details));
    println!("{}", result_line(tally, &metrics));
    ExitCode::SUCCESS
}
