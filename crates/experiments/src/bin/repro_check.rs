//! Regenerates the committed `results/*.csv` files and fails on any drift.
//!
//! `multi_region.csv`, `reliability.csv` and `steady_state.csv` are rerun in
//! full and must match the committed files byte for byte.
//! `alibaba_scale.csv` is rerun for its 1k- and 10k-job rows (the 100k rows
//! take minutes), and those rows' schedule columns (everything but
//! `wall_seconds`) must match.  Every drifted line is printed as a row diff
//! and the exit status is non-zero.
//!
//! Run from the repository root (the files are read from `results/`):
//!
//! ```text
//! cargo run --release -p pcaps-experiments --bin repro_check
//! ```
use pcaps_experiments::alibaba_scale::{scale_sweep, to_csv, ScaleConfig};
use pcaps_experiments::multi_region::MultiRegionSweep;
use pcaps_experiments::reliability::ReliabilitySweep;
use pcaps_experiments::repro::{diff_lines, scale_schedule_columns};
use pcaps_experiments::steady_state::SteadyStateSweep;
use pcaps_experiments::RESULTS_DIR;
use std::process::ExitCode;
use std::time::Instant;

/// Drifted lines printed per file before the rest are only counted.
const SHOWN_DRIFTS: usize = 20;

/// Compares one committed file with its regeneration; `project` maps both
/// to the part that must match.  Returns whether they matched.
fn check(
    name: &str,
    regenerate: impl FnOnce() -> String,
    project: impl Fn(&str) -> String,
) -> bool {
    let path = format!("{RESULTS_DIR}/{name}");
    let committed = match std::fs::read_to_string(&path) {
        Ok(csv) => csv,
        Err(e) => {
            println!("FAIL {name}: cannot read {path}: {e}");
            return false;
        }
    };
    let started = Instant::now();
    let regenerated = project(&regenerate());
    let elapsed = started.elapsed().as_secs_f64();
    let committed = project(&committed);
    let drift = diff_lines(&committed, &regenerated);
    if drift.is_empty() {
        let lines = committed.lines().count();
        println!("ok   {name} ({lines} lines checked, regenerated in {elapsed:.1} s)");
        return true;
    }
    println!(
        "FAIL {name}: {} drifted line(s) (committed -, regenerated +)",
        drift.len()
    );
    for d in drift.iter().take(SHOWN_DRIFTS) {
        println!("{d}");
    }
    if drift.len() > SHOWN_DRIFTS {
        println!("… and {} more", drift.len() - SHOWN_DRIFTS);
    }
    false
}

fn main() -> ExitCode {
    let whole = |csv: &str| csv.to_string();
    let scale = ScaleConfig {
        job_counts: vec![1_000, 10_000],
        ..ScaleConfig::standard()
    };
    let results = [
        check(
            "multi_region.csv",
            || MultiRegionSweep::run(false).to_csv(),
            whole,
        ),
        check(
            "reliability.csv",
            || ReliabilitySweep::run(false).to_csv(),
            whole,
        ),
        check(
            "steady_state.csv",
            || SteadyStateSweep::run(false).to_csv(),
            whole,
        ),
        check(
            "alibaba_scale.csv",
            || to_csv(&scale, &scale_sweep(&scale)),
            |csv| scale_schedule_columns(csv, &scale.job_counts),
        ),
    ];
    if results.iter().all(|&ok| ok) {
        println!("repro_check: every committed result regenerates");
        ExitCode::SUCCESS
    } else {
        println!("repro_check: committed results drifted from the code");
        ExitCode::FAILURE
    }
}
