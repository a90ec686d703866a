//! Output plumbing: tables (for the paper's tables) and series (for its
//! figures), rendered as markdown/plain text, CSV and JSON (through
//! [`crate::json`]).

use crate::json::{num_arr, obj, Value};
use std::fmt::Write as _;

/// A rectangular results table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (e.g. "Table 5: average iteration timings \[s\]").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Renders compact JSON: `title`, `headers` and `rows`.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("title", Value::Str(self.title.clone())),
            ("headers", strings(&self.headers)),
            ("rows", Value::Arr(self.rows.iter().map(|row| strings(row)).collect())),
        ])
        .render()
    }
}

fn strings(cells: &[String]) -> Value {
    Value::Arr(cells.iter().map(|c| Value::Str(c.clone())).collect())
}

/// One labelled data series of a figure: `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series { label: label.into(), points }
    }

    /// The first `x` whose `y` is at or below `tol` (`None` if no point
    /// gets there): a residual history's iterations or seconds to
    /// tolerance.
    pub fn first_x_at_or_below(&self, tol: f64) -> Option<f64> {
        self.points.iter().find(|&&(_, y)| y <= tol).map(|&(x, _)| x)
    }

    /// Linear interpolation of `y` at `x` (clamped to the data range).
    /// Points must be sorted by `x`.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if x <= self.points[0].0 {
            return Some(self.points[0].1);
        }
        if x >= self.points[self.points.len() - 1].0 {
            return Some(self.points[self.points.len() - 1].1);
        }
        let i = self.points.partition_point(|&(px, _)| px < x);
        let (x0, y0) = self.points[i - 1];
        let (x1, y1) = self.points[i];
        Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    }
}

/// A figure: several series plus axis labels; renders as a compact text
/// listing (for EXPERIMENTS.md) and CSV (one column per series).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds one series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Renders a text summary: per series, samples at up to `samples`
    /// evenly spaced points of its own x-range.
    pub fn to_text(&self, samples: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} ({} vs {})\n", self.title, self.y_label, self.x_label);
        for s in &self.series {
            let _ = writeln!(out, "  {}:", s.label);
            let n = s.points.len();
            if n == 0 {
                continue;
            }
            let step = (n / samples.max(1)).max(1);
            for (i, &(x, y)) in s.points.iter().enumerate() {
                if i % step == 0 || i + 1 == n {
                    let _ = writeln!(out, "    {x:>12.4}  {y:>14.6e}");
                }
            }
        }
        out
    }

    /// Renders long-form CSV: `series,x,y`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                let _ = writeln!(out, "{},{x},{y}", s.label);
            }
        }
        out
    }

    /// Renders compact JSON: the labels plus each series' `[x, y]`
    /// points.
    pub fn to_json(&self) -> String {
        let series = self.series.iter().map(|s| {
            obj(vec![
                ("label", Value::Str(s.label.clone())),
                ("points", Value::Arr(s.points.iter().map(|&(x, y)| num_arr(&[x, y])).collect())),
            ])
        });
        obj(vec![
            ("title", Value::Str(self.title.clone())),
            ("x_label", Value::Str(self.x_label.clone())),
            ("y_label", Value::Str(self.y_label.clone())),
            ("series", Value::Arr(series.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(t.to_csv().contains("a,b\n1,2\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn series_interpolation() {
        let s = Series::new("s", vec![(0.0, 0.0), (2.0, 4.0)]);
        assert_eq!(s.interpolate(1.0), Some(2.0));
        assert_eq!(s.interpolate(-1.0), Some(0.0));
        assert_eq!(s.interpolate(5.0), Some(4.0));
        assert_eq!(Series::new("e", vec![]).interpolate(1.0), None);
    }

    #[test]
    fn series_first_x_at_or_below_finds_first_crossing() {
        let s = Series::new("x", vec![(1.0, 0.5), (2.0, 0.1), (3.0, 0.01)]);
        assert_eq!(s.first_x_at_or_below(0.1), Some(2.0));
        assert_eq!(s.first_x_at_or_below(1e-9), None);
    }

    #[test]
    fn json_roundtrips_structure() {
        let mut t = Table::new("demo \"q\"", &["a", "b"]);
        t.push_row(vec!["1".into(), "x\ny".into()]);
        let v = Value::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("title").and_then(Value::as_str), Some("demo \"q\""));
        assert_eq!(v.get("headers"), Some(&strings(&t.headers)));
        assert_eq!(v.get("rows"), Some(&Value::Arr(vec![strings(&t.rows[0])])));

        let mut f = Figure::new("fig", "x", "y");
        f.push(Series::new("s", vec![(1.0, 2.5), (3.0, f64::NAN)]));
        let v = Value::parse(&f.to_json()).unwrap();
        assert_eq!(v.get("x_label").and_then(Value::as_str), Some("x"));
        let series = v.get("series").and_then(Value::as_arr).unwrap();
        assert_eq!(series[0].get("label").and_then(Value::as_str), Some("s"));
        let points = series[0].get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(points[0].clone().into_f64_vec(), Some(vec![1.0, 2.5]));
        assert_eq!(points[1], Value::Arr(vec![Value::Num(3.0), Value::Null]), "NaN renders null");
    }

    #[test]
    fn figure_csv_long_form() {
        let mut f = Figure::new("fig", "x", "y");
        f.push(Series::new("a", vec![(1.0, 2.0)]));
        let csv = f.to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("a,1,2"));
        assert!(f.to_text(5).contains("### fig"));
    }
}
