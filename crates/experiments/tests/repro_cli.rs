//! The `repro` binary's failure exits: an unknown name or flag stops it
//! before anything runs, and a CSV it cannot write fails the run.  Each
//! test runs it in a directory of its own under the system temp dir.

use pcaps_experiments::repro::OUTPUTS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro starts")
}

#[test]
fn an_unknown_name_or_flag_fails_before_running_and_lists_the_names() {
    let dir = scratch("unknown");
    for (args, unknown) in [
        (&["--quick", "table1", "fig99"][..], "fig99"),
        (&["--full", "table1"], "--full"),
    ] {
        let out = repro(&dir, args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{unknown}`")),
            "{args:?}: stderr does not name `{unknown}`"
        );
        for (name, _) in OUTPUTS {
            assert!(stderr.contains(name), "{args:?}: stderr does not list `{name}`:\n{stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    assert!(!dir.join("results").exists(), "a rejected command line wrote results");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_csv_that_cannot_be_written_fails_and_names_the_file() {
    let dir = scratch("unwritable");
    std::fs::write(dir.join("results"), "a file where the results directory goes").unwrap();
    let out = repro(&dir, &["--quick", "table1"]);
    assert!(!out.status.success(), "an unwritten CSV must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("results/table1.csv"), "stderr does not name the file:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("\n=== table1 ===\nTable 1"), "the table still prints:\n{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
