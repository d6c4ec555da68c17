//! Figure 8: the evaluation workload patterns.

use rtds_workloads::{PatternSpec, WorkloadRange};

use super::{FigureOptions, FigureOutput};
use crate::report::{ascii_chart, Series, Table};

/// Fig. 8: renders one cycle of each paper pattern over a shared range.
pub fn fig8(opts: &FigureOptions) -> FigureOutput {
    let n: u64 = if opts.quick { 60 } else { 240 };
    let range = WorkloadRange::new(500, 10_000);
    let half = n / 8;
    let mut patterns = [
        PatternSpec::Increasing { ramp_periods: n - 1 },
        PatternSpec::Decreasing { ramp_periods: n - 1 },
        PatternSpec::Triangular { half_period: half },
    ]
    .map(|spec| spec.build(range));

    let mut table = Table::new(vec![
        "period",
        "increasing_ramp",
        "decreasing_ramp",
        "triangular",
    ]);
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
    for i in 0..n {
        let vals: Vec<u64> = patterns.iter_mut().map(|p| p.tracks_at(i)).collect();
        table.row(vec![
            i.to_string(),
            vals[0].to_string(),
            vals[1].to_string(),
            vals[2].to_string(),
        ]);
        for (k, &v) in vals.iter().enumerate() {
            series[k].push((i as f64, v as f64));
        }
    }
    let chart = ascii_chart(
        &[
            Series {
                label: "inc-ramp",
                points: series[0].clone(),
            },
            Series {
                label: "dec-ramp",
                points: series[1].clone(),
            },
            Series {
                label: "triangular",
                points: series[2].clone(),
            },
        ],
        72,
        14,
    );
    let text = format!(
        "Figure 8: Workload patterns (min = {}, max = {} tracks, {} periods)\n\n{}\n",
        range.min, range.max, n, chart
    );
    FigureOutput {
        id: "fig8",
        title: "Figure 8: workload patterns",
        text,
        tables: vec![("patterns".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_emits_one_row_per_period() {
        let f = fig8(&FigureOptions::quick_for_tests("fig8"));
        assert_eq!(f.tables[0].1.len(), 60);
        assert!(f.text.contains("Workload patterns"));
        assert!(f.text.contains("triangular"));
    }
}
