//! Runs the paper's tables and figures and the extension sweeps: every
//! entry of [`OUTPUTS`] named on the command line, or all of them in order
//! when none is.  Each prints its text under a `=== name ===` banner and
//! writes `results/<name>.csv` under the working directory.
//!
//! ```text
//! cargo run --release -p pcaps-experiments --bin repro -- [--quick] [name…]
//! ```
//!
//! `--quick` runs each entry at a reduced size.  Run it outside the
//! repository root: there it would overwrite the committed full-size CSVs.
//! An unknown name or flag exits non-zero before anything runs; a CSV that
//! cannot be written or a panicking entry exits non-zero after the other
//! entries have run.
use pcaps_experiments::repro::OUTPUTS;
use pcaps_experiments::RESULTS_DIR;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        match OUTPUTS.iter().find(|(name, _)| *name == arg) {
            Some(entry) => selected.push(entry),
            None if arg == "--quick" => quick = true,
            None => {
                let names: Vec<&str> = OUTPUTS.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "repro: unknown argument `{arg}`\nusage: repro [--quick] [name…]\nnames: {}",
                    names.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if selected.is_empty() {
        selected = OUTPUTS.iter().collect();
    }
    let mut ok = true;
    for &(name, run) in selected {
        println!("\n=== {name} ===");
        let Ok(output) = std::panic::catch_unwind(|| run(quick)) else {
            eprintln!("repro: {name} panicked");
            ok = false;
            continue;
        };
        print!("{}", output.text);
        let path = format!("{RESULTS_DIR}/{name}.csv");
        let written =
            std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, output.csv));
        if let Err(e) = written {
            eprintln!("repro: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
