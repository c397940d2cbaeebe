//! Table 1: summary of carbon intensity trace characteristics.

use crate::format::TextTable;
use crate::repro::Output;
use pcaps_carbon::synth::SyntheticTraceGenerator;
use pcaps_carbon::{GridRegion, TraceStats};

/// One row of Table 1: a grid's measured statistics next to the paper's
/// published values.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Grid region.
    pub region: GridRegion,
    /// Statistics of the generated (calibrated) trace.
    pub measured: TraceStats,
}

/// Generates the calibrated trace for every grid and summarises it.
///
/// `hours` controls how much trace is generated; the paper uses three years
/// (26 304 hours), which [`paper_rows`] reproduces, while tests use a few
/// weeks for speed.
pub fn rows(hours: usize, seed: u64) -> Vec<Table1Row> {
    GridRegion::ALL
        .iter()
        .map(|&region| {
            let trace = SyntheticTraceGenerator::new(region, seed).generate_hours(hours);
            Table1Row {
                region,
                measured: TraceStats::of(&trace),
            }
        })
        .collect()
}

/// The full-size reproduction of Table 1 (three years of hourly data).
pub fn paper_rows(seed: u64) -> Vec<Table1Row> {
    rows(GridRegion::PAPER_TRACE_HOURS, seed)
}

/// Table 1 (`quick`: three months of trace instead of three years).
pub(crate) fn output(quick: bool) -> Output {
    let rows = if quick { rows(24 * 90, 42) } else { paper_rows(42) };
    Output::table(
        "Table 1 — carbon intensity trace characteristics (paper vs generated)",
        &render(&rows),
    )
}

/// Renders the rows in the layout of Table 1, with the paper's values next
/// to the measured ones.
pub fn render(rows: &[Table1Row]) -> TextTable {
    let mut table = TextTable::new(&[
        "Grid",
        "Min (paper)",
        "Min (ours)",
        "Max (paper)",
        "Max (ours)",
        "Mean (paper)",
        "Mean (ours)",
        "CV (paper)",
        "CV (ours)",
    ]);
    for row in rows {
        let paper = row.region.table1_stats();
        table.row(vec![
            row.region.code().to_string(),
            format!("{:.0}", paper.min),
            format!("{:.0}", row.measured.min),
            format!("{:.0}", paper.max),
            format!("{:.0}", row.measured.max),
            format!("{:.0}", paper.mean),
            format!("{:.0}", row.measured.mean),
            format!("{:.3}", paper.coeff_var),
            format!("{:.3}", row.measured.coeff_var),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_regions() {
        let rows = rows(24 * 60, 1);
        assert_eq!(rows.len(), 6);
        let table = render(&rows);
        assert_eq!(table.len(), 6);
        let text = table.render();
        for region in GridRegion::ALL {
            assert!(text.contains(region.code()));
        }
    }

    #[test]
    fn measured_means_track_paper_values() {
        for row in rows(24 * 120, 3) {
            let paper = row.region.table1_stats();
            let err = (row.measured.mean - paper.mean).abs() / paper.mean;
            assert!(err < 0.12, "{}: mean off by {:.0}%", row.region, err * 100.0);
        }
    }
}
