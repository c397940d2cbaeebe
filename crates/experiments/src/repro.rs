//! Regenerability checks for the committed `results/*.csv` files, run by
//! the `repro_check` binary: a line diff between a committed CSV and a
//! fresh run, and the projection of `alibaba_scale.csv` onto its schedule
//! columns.

use std::fmt;

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

/// An `alibaba_scale.csv` reduced to what a schedule determines: the header
/// and the rows whose `jobs` column is one of `job_counts`, each without
/// the `wall_seconds` column (host time).
///
/// # Panics
/// Panics if the header lacks a `jobs` or a `wall_seconds` column.
pub fn scale_schedule_columns(csv: &str, job_counts: &[usize]) -> String {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    let column = |name: &str| {
        header
            .iter()
            .position(|&c| c == name)
            .unwrap_or_else(|| panic!("alibaba_scale CSV has no `{name}` column"))
    };
    let (jobs, wall) = (column("jobs"), column("wall_seconds"));
    let without_wall = |cells: &[&str]| {
        let kept: Vec<&str> = cells
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != wall)
            .map(|(_, c)| *c)
            .collect();
        kept.join(",") + "\n"
    };
    let mut out = without_wall(&header);
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let selected = cells
            .get(jobs)
            .and_then(|c| c.parse::<usize>().ok())
            .is_some_and(|n| job_counts.contains(&n));
        if selected {
            out.push_str(&without_wall(&cells));
        }
    }
    out
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
}
