//! Regenerates every entry of [`OUTPUTS`] and fails if a committed
//! `results/*.csv` drifted from it.
//!
//! Each entry runs at full size and its CSV must match the committed file
//! byte for byte, with two exceptions.  `fig20.csv` is compared without its
//! "Mean latency (µs)" column (host time).  `alibaba_scale` runs at its
//! quick size (the 1k- and 10k-job rows; the 100k rows take most of the
//! full sweep's time) and those rows are compared on their schedule columns
//! (everything but `wall_seconds`).  A committed CSV that no entry writes
//! fails too.  Every drifted line is printed as a row diff and the exit
//! status is non-zero.
//!
//! Run from the repository root (the files are read from `results/`):
//!
//! ```text
//! cargo run --release -p pcaps-experiments --bin repro_check
//! ```
use pcaps_experiments::alibaba_scale::ScaleConfig;
use pcaps_experiments::repro::{diff_lines, scale_schedule_columns, without_column, OUTPUTS};
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

/// Whether every committed `results/*.csv` is some entry's output.
fn every_committed_csv_has_an_entry() -> bool {
    let files = match std::fs::read_dir(RESULTS_DIR) {
        Ok(dir) => dir,
        Err(e) => {
            println!("FAIL {RESULTS_DIR}: cannot list it: {e}");
            return false;
        }
    };
    let mut orphans: Vec<String> = files
        .filter_map(|f| f.ok()?.file_name().into_string().ok())
        .filter(|file| {
            file.strip_suffix(".csv")
                .is_some_and(|stem| OUTPUTS.iter().all(|(name, _)| *name != stem))
        })
        .collect();
    orphans.sort();
    for file in &orphans {
        println!("FAIL {file}: no entry of OUTPUTS writes it");
    }
    orphans.is_empty()
}

fn main() -> ExitCode {
    let scale_counts = ScaleConfig::quick().job_counts;
    let mut ok = true;
    for &(name, run) in OUTPUTS {
        let file = format!("{name}.csv");
        ok &= match name {
            "fig20" => check(
                &file,
                || run(false).csv,
                |csv| without_column(csv, "Mean latency (µs)"),
            ),
            "alibaba_scale" => check(
                &file,
                || run(true).csv,
                |csv| scale_schedule_columns(csv, &scale_counts),
            ),
            _ => check(&file, || run(false).csv, str::to_string),
        };
    }
    ok &= every_committed_csv_has_an_entry();
    if ok {
        println!("repro_check: every committed result regenerates");
        ExitCode::SUCCESS
    } else {
        println!("repro_check: committed results drifted from the code");
        ExitCode::FAILURE
    }
}
