//! Fig. 5: time-varying carbon intensity for the six grids over 48 hours.

use crate::repro::Output;
use pcaps_carbon::synth::SyntheticTraceGenerator;
use pcaps_carbon::GridRegion;
use pcaps_metrics::Series;

/// Generates the 48-hour carbon intensity series for every grid (one
/// [`Series`] per grid, x = hour, y = gCO₂eq/kWh).
pub fn series(seed: u64, offset_hours: usize) -> Vec<Series> {
    GridRegion::ALL
        .iter()
        .map(|&region| {
            let trace = SyntheticTraceGenerator::new(region, seed)
                .generate_hours(offset_hours + 48)
                .window(offset_hours, 48);
            let mut s = Series::new(region.code());
            for (h, v) in trace.values.iter().enumerate() {
                s.push(h as f64, *v);
            }
            s
        })
        .collect()
}

/// Fig. 5 (one size only): each grid's range is printed, its series written.
pub(crate) fn output(_quick: bool) -> Output {
    let series = series(42, 24 * 10);
    let mut text = format!(
        "Fig. 5 — 48-hour carbon intensity series written for {} grids\n",
        series.len()
    );
    for s in &series {
        let min = s.points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let max = s.points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        text.push_str(&format!("  {:>6}: {:.0} – {:.0} gCO2eq/kWh\n", s.label, min, max));
    }
    text.push_str("\nFull series: results/fig5.csv\n");
    Output { text, csv: to_csv(&series) }
}

/// Renders all series as one CSV document (`grid,hour,intensity`).
pub fn to_csv(series: &[Series]) -> String {
    let mut out = String::from("grid,hour,gco2_per_kwh\n");
    for s in series {
        out.push_str(&s.to_csv());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_series_of_48_points() {
        let all = series(7, 24 * 10);
        assert_eq!(all.len(), 6);
        for s in &all {
            assert_eq!(s.points.len(), 48);
            assert!(s.points.iter().all(|(_, y)| *y > 0.0));
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&series(7, 0));
        assert!(csv.starts_with("grid,hour"));
        assert!(csv.lines().count() > 6 * 48);
        assert!(csv.contains("CAISO"));
    }

    #[test]
    fn variable_grids_vary_more_than_flat_ones() {
        let all = series(3, 0);
        let range = |label: &str| {
            let s = all.iter().find(|s| s.label == label).unwrap();
            let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
            ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - ys.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(range("DE") > range("ZA"), "DE should swing more than ZA over 48h");
    }
}
