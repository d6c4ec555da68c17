//! Textual reporting: aligned tables, CSV files, and ASCII charts.
//!
//! Every figure renders its data three ways: an aligned console
//! table (the paper's rows), a CSV file under the output directory (for
//! external plotting), and a rough ASCII chart for at-a-glance shape
//! checks.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish; quotes cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let mut line = |cells: &[String]| {
            let joined: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        line(&self.header);
        for row in &self.rows {
            line(row);
        }
        out
    }

    /// Writes the CSV form to `dir/name.csv`, creating `dir` if needed.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders as a JSON array of objects keyed by the header row.
    pub fn to_json(&self) -> String {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .header
                    .iter()
                    .zip(row)
                    .map(|(h, c)| {
                        // Numbers stay numbers where they parse.
                        let v = c
                            .parse::<f64>()
                            .map(|n| serde_json::json!(n))
                            .unwrap_or_else(|_| serde_json::json!(c));
                        (h.clone(), v)
                    })
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        serde_json::to_string_pretty(&rows).expect("tables are always serializable")
    }

    /// Writes the JSON form to `dir/name.json`.
    pub fn write_json(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// One named series for an ASCII chart.
pub struct Series<'a> {
    /// Legend label; its first character is the plot glyph.
    pub label: &'a str,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// Renders series as a crude ASCII scatter chart, `width`×`height` cells.
/// Overlapping points show the later series' glyph; `*` marks exact
/// collisions of two series.
pub fn ascii_chart(series: &[Series<'_>], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 4, "chart too small");
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        let glyph = s.label.chars().next().unwrap_or('?');
        for &(x, y) in &s.points {
            let cx = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
            let cy = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            grid[row][col] = if grid[row][col] == ' ' || grid[row][col] == glyph {
                glyph
            } else {
                '*'
            };
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y: [{ymin:.2}, {ymax:.2}]  x: [{xmin:.2}, {xmax:.2}]");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for s in series {
        let _ = writeln!(
            out,
            "  {} = {}",
            s.label.chars().next().unwrap_or('?'),
            s.label
        );
    }
    out
}

/// Formats a float with a sensible number of digits for tables.
pub fn fmt_f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(vec!["x", "value"]);
        t.row(vec!["1", "10.5"]);
        t.row(vec!["200", "3"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("x") && lines[0].contains("value"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numbers line up on the last char.
        assert!(lines[2].ends_with("10.5"));
        assert!(lines[3].ends_with("3"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["name", "note"]);
        t.row(vec!["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(csv.starts_with("name,note\n"));
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("rtds-report-test");
        let mut t = Table::new(vec!["u"]);
        t.row(vec!["1"]);
        let path = t.write_csv(&dir, "probe").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "u\n1\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn json_keys_rows_by_header_and_parses_numbers() {
        let mut t = Table::new(vec!["policy", "value"]);
        t.row(vec!["predictive", "42.5"]);
        let parsed: Vec<serde_json::Value> = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(parsed[0]["policy"], "predictive");
        assert_eq!(parsed[0]["value"], 42.5);
    }

    #[test]
    fn chart_places_extremes_at_edges() {
        let s = Series {
            label: "p",
            points: vec![(0.0, 0.0), (10.0, 100.0)],
        };
        let c = ascii_chart(&[s], 20, 10);
        let lines: Vec<&str> = c.lines().collect();
        // First grid line (top) holds the max-y point at the right edge.
        assert!(lines[1].trim_end().ends_with('p'));
        // Last grid line holds the min at the left edge.
        assert_eq!(&lines[10][1..2], "p");
    }

    #[test]
    fn chart_marks_collisions() {
        let a = Series {
            label: "alpha",
            points: vec![(1.0, 1.0), (0.0, 0.0), (2.0, 2.0)],
        };
        let b = Series {
            label: "beta",
            points: vec![(1.0, 1.0)],
        };
        let c = ascii_chart(&[a, b], 21, 11);
        assert!(c.contains('*'), "collision glyph:\n{c}");
        assert!(c.contains("a = alpha"));
        assert!(c.contains("b = beta"));
    }

    #[test]
    fn chart_handles_degenerate_ranges() {
        let s = Series {
            label: "x",
            points: vec![(5.0, 7.0)],
        };
        let c = ascii_chart(&[s], 10, 5);
        assert!(c.contains('x'));
        assert!(ascii_chart(&[Series { label: "e", points: vec![] }], 10, 5).contains("no data"));
    }

    #[test]
    fn fmt_f_scales_digits() {
        assert_eq!(fmt_f(123.456), "123.5");
        assert_eq!(fmt_f(12.345), "12.35");
        assert_eq!(fmt_f(0.12345), "0.1235");
    }
}
