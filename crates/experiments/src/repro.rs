//! The registry of the paper's outputs, [`OUTPUTS`], and what the
//! regenerability check compares.
//!
//! Each entry is a name and a function of `quick` that returns the text to
//! print and the CSV to write.  The `repro` binary runs entries and is the
//! only code that writes `results/<name>.csv`; the `repro_check` binary
//! regenerates every entry and compares it with the committed CSV through
//! [`diff_lines`], comparing `fig20.csv` without its host-time column
//! ([`without_column`]) and `alibaba_scale.csv` on its schedule columns
//! ([`scale_schedule_columns`]).

use crate::format::TextTable;
use crate::runner::Setup;
use crate::{
    alibaba_scale, fig1, fig13, fig15, fig20, fig5, fig6, fig9, headline, multi_region, per_grid,
    reliability, steady_state, sweeps, table1,
};
use std::fmt;

/// What one entry produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// What the entry prints.
    pub text: String,
    /// The contents of `results/<name>.csv`.
    pub csv: String,
}

impl Output {
    /// `table` printed under `title` and a blank line, and written as the
    /// CSV.
    pub(crate) fn table(title: &str, table: &TextTable) -> Self {
        Output {
            text: format!("{title}\n\n{}\n", table.render()),
            csv: table.to_csv(),
        }
    }
}

/// A name and the function that produces its output at full size or,
/// given `true` (`--quick`), at a reduced size for smoke runs.  The name is
/// also the CSV's file stem.
pub type Entry = (&'static str, fn(bool) -> Output);

/// Every output: the paper's tables and figures in the order of its
/// evaluation, then the four extension sweeps.
#[rustfmt::skip]
pub const OUTPUTS: &[Entry] = &[
    ("table1", table1::output),
    ("fig1", fig1::output),
    ("fig5", fig5::output),
    ("fig6", fig6::output),
    ("table2", |quick| headline::table(2, Setup::Prototype, quick)),
    ("table3", |quick| headline::table(3, Setup::Simulator, quick)),
    ("fig7", |quick| sweeps::gamma_figure(7, Setup::Prototype, quick)),
    ("fig8", |quick| sweeps::b_figure(8, Setup::Prototype, quick)),
    ("fig9", fig9::output),
    ("fig10", |quick| per_grid::figure(10, Setup::Prototype, quick)),
    ("fig11", |quick| sweeps::gamma_figure(11, Setup::Simulator, quick)),
    ("fig12", |quick| sweeps::b_figure(12, Setup::Simulator, quick)),
    ("fig13", fig13::output),
    ("fig14", |quick| per_grid::figure(14, Setup::Simulator, quick)),
    ("fig15", fig15::output),
    ("fig16", |quick| sweeps::job_count_figure(16, Setup::Simulator, quick)),
    ("fig17", |quick| sweeps::job_count_figure(17, Setup::Prototype, quick)),
    ("fig18", |quick| sweeps::interarrival_figure(18, Setup::Simulator, quick)),
    ("fig19", |quick| sweeps::interarrival_figure(19, Setup::Prototype, quick)),
    ("fig20", fig20::output),
    ("multi_region", multi_region::output),
    ("reliability", reliability::output),
    ("steady_state", steady_state::output),
    ("alibaba_scale", alibaba_scale::output),
];

/// One line where a regenerated CSV differs from the committed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// 1-based line number.
    pub line: usize,
    /// The committed line (`None` past the end of the committed file).
    pub committed: Option<String>,
    /// The regenerated line (`None` past the end of the fresh output).
    pub regenerated: Option<String>,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |l: &Option<String>| l.clone().unwrap_or_else(|| "(no line)".to_string());
        write!(
            f,
            "line {}:\n  - {}\n  + {}",
            self.line,
            show(&self.committed),
            show(&self.regenerated)
        )
    }
}

/// Every line where `regenerated` differs from `committed`, in order.
pub fn diff_lines(committed: &str, regenerated: &str) -> Vec<Drift> {
    let committed: Vec<&str> = committed.lines().collect();
    let regenerated: Vec<&str> = regenerated.lines().collect();
    (0..committed.len().max(regenerated.len()))
        .filter_map(|i| {
            let (c, r) = (committed.get(i), regenerated.get(i));
            (c != r).then(|| Drift {
                line: i + 1,
                committed: c.map(|l| l.to_string()),
                regenerated: r.map(|l| l.to_string()),
            })
        })
        .collect()
}

/// The position of `column` in the header line of `csv`.
///
/// # Panics
/// Panics if the header has no such column.
fn column_index(csv: &str, column: &str) -> usize {
    csv.lines()
        .next()
        .unwrap_or("")
        .split(',')
        .position(|c| c == column)
        .unwrap_or_else(|| panic!("CSV has no `{column}` column"))
}

/// `csv` without the named column.
///
/// # Panics
/// Panics if the header has no such column.
pub fn without_column(csv: &str, column: &str) -> String {
    let index = column_index(csv, column);
    csv.lines()
        .map(|line| {
            let mut cells: Vec<&str> = line.split(',').collect();
            if index < cells.len() {
                cells.remove(index);
            }
            cells.join(",") + "\n"
        })
        .collect()
}

/// An `alibaba_scale.csv` reduced to what a schedule determines: the header
/// and the rows whose `jobs` column is one of `job_counts`, each without
/// the `wall_seconds` column (host time).
///
/// # Panics
/// Panics if the header lacks a `jobs` or a `wall_seconds` column.
pub fn scale_schedule_columns(csv: &str, job_counts: &[usize]) -> String {
    let jobs = column_index(csv, "jobs");
    let selected: String = csv
        .lines()
        .enumerate()
        .filter(|&(i, line)| {
            i == 0
                || line
                    .split(',')
                    .nth(jobs)
                    .and_then(|c| c.parse::<usize>().ok())
                    .is_some_and(|n| job_counts.contains(&n))
        })
        .map(|(_, line)| format!("{line}\n"))
        .collect();
    without_column(&selected, "wall_seconds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_csvs_have_no_drift() {
        assert!(diff_lines("a,b\n1,2\n", "a,b\n1,2\n").is_empty());
    }

    #[test]
    fn drift_reports_changed_missing_and_extra_lines() {
        let drift = diff_lines("h\n1\n2\n", "h\n1\n3\n4\n");
        assert_eq!(drift.len(), 2);
        assert_eq!(drift[0].line, 3);
        assert_eq!(drift[0].committed.as_deref(), Some("2"));
        assert_eq!(drift[0].regenerated.as_deref(), Some("3"));
        assert_eq!(drift[1].line, 4);
        assert_eq!(drift[1].committed, None);
        assert_eq!(drift[1].regenerated.as_deref(), Some("4"));
        assert_eq!(drift[1].to_string(), "line 4:\n  - (no line)\n  + 4");
        let shorter = diff_lines("h\n1\n", "h\n");
        assert_eq!(shorter[0].regenerated, None);
    }

    #[test]
    fn scale_projection_drops_wall_time_and_other_job_counts() {
        let csv = "region,scheduler,mode,jobs,peak_resident_jobs,wall_seconds,makespan_s\n\
                   CAISO,FIFO,sequential,1000,11,0.057,5154.5\n\
                   CAISO,FIFO,sequential,100000,22,5.711,502011.2\n";
        assert_eq!(
            scale_schedule_columns(csv, &[1000]),
            "region,scheduler,mode,jobs,peak_resident_jobs,makespan_s\n\
             CAISO,FIFO,sequential,1000,11,5154.5\n"
        );
        let slower = csv.replace("0.057", "0.093");
        assert_eq!(
            scale_schedule_columns(csv, &[1000, 100000]),
            scale_schedule_columns(&slower, &[1000, 100000])
        );
    }

    #[test]
    #[should_panic(expected = "wall_seconds")]
    fn scale_projection_needs_the_wall_time_column() {
        let _ = scale_schedule_columns("jobs,makespan_s\n1000,1.0\n", &[1000]);
    }

    #[test]
    fn without_column_drops_it_from_every_line() {
        let csv = "Scheduler,Jobs,Max queue,Mean latency (µs)\nFIFO,1,1,0.2\nPCAPS,5,5,0.1\n";
        assert_eq!(
            without_column(csv, "Mean latency (µs)"),
            "Scheduler,Jobs,Max queue\nFIFO,1,1\nPCAPS,5,5\n"
        );
        assert_eq!(
            without_column(csv, "Scheduler"),
            "Jobs,Max queue,Mean latency (µs)\n1,1,0.2\n5,5,0.1\n"
        );
    }

    #[test]
    fn every_output_has_its_own_name() {
        let mut names: Vec<&str> = OUTPUTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OUTPUTS.len());
    }
}
