//! Text tables, ASCII charts and series artifacts for the benchmark
//! harness.
//!
//! Every experiment prints the same rows/series the paper reports;
//! these helpers keep that output consistent.

use std::fmt::Write as _;

use platinum::trace::json::Value;

/// A simple right-aligned text table.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with blanks.
    pub(crate) fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>width$}", width = widths[i]);
            }
            writeln!(f, "{line}")
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// A named data series (e.g. one speedup curve of a figure).
#[derive(Clone, Debug)]
pub(crate) struct Series {
    /// Legend name.
    pub name: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub(crate) fn new<S: Into<String>>(name: S) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the largest x (e.g. speedup at 16 processors).
    pub(crate) fn final_y(&self) -> Option<f64> {
        self.points
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|p| p.1)
    }
}

/// Renders one or more series as an ASCII chart (the harness's stand-in
/// for the paper's figures), with one plot glyph per series.
pub(crate) fn ascii_chart(series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || xmax <= xmin {
        return String::from("(no data)\n");
    }
    if ymax <= ymin {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{ymax:>8.1} |")
        } else if i == height - 1 {
            format!("{ymin:>8.1} |")
        } else {
            format!("{:>8} |", "")
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label}{line}");
    }
    let _ = writeln!(out, "{:>9}+{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>10}{:<10.1}{:>width$.1}",
        "",
        xmin,
        xmax,
        width = width - 10
    );
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "{:>10}{} = {}", "", GLYPHS[si % GLYPHS.len()], s.name);
    }
    out
}

/// One-line ATC summary for a run's merged counters: probe counts and
/// the hit rate. A high rate means the simulator served most accesses
/// from the translation fast path; a low one means the workload spent
/// its time faulting (shootdowns, freezes, invalidation storms).
pub(crate) fn atc_summary(c: &numa_machine::AccessCounters) -> String {
    let total = c.atc_hits + c.atc_misses;
    if total == 0 {
        return "ATC: no probes".to_string();
    }
    format!(
        "ATC: {} probes, {} hits, {} misses ({:.2}% hit rate)",
        total,
        c.atc_hits,
        c.atc_misses,
        100.0 * c.atc_hits as f64 / total as f64
    )
}

/// A named set of (x, y) series — the standard shape of a figure's
/// data — as a JSON artifact.
pub(crate) fn series_artifact(name: &str, series: &[Series]) -> Value {
    let points = |s: &Series| {
        s.points
            .iter()
            .map(|&(x, y)| Value::Arr(vec![Value::Num(x), Value::Num(y)]))
            .collect()
    };
    Value::obj(vec![
        ("figure", Value::str(name)),
        (
            "series",
            Value::Arr(
                series
                    .iter()
                    .map(|s| {
                        Value::obj(vec![
                            ("name", Value::str(&*s.name)),
                            ("points", Value::Arr(points(s))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats_aligned() {
        let mut t = Table::new(vec!["p", "speedup"]);
        t.row(vec!["1", "1.00"]);
        t.row(vec!["16", "13.50"]);
        assert_eq!(t.rows.len(), 2);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("speedup"));
        assert!(lines[2].trim_start().starts_with('1'));
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        assert!(t.to_string().lines().count() >= 3);
    }

    #[test]
    fn series_final_y() {
        let mut s = Series::new("x");
        assert_eq!(s.final_y(), None);
        s.push(1.0, 1.0);
        s.push(16.0, 13.5);
        s.push(8.0, 7.0);
        assert_eq!(s.final_y(), Some(13.5));
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let v = Value::obj(vec![
            ("name", Value::Str("a\"b\nc".to_string())),
            ("n", Value::Num(1.5)),
            ("ok", Value::Bool(true)),
            ("xs", Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)])),
        ]);
        let s = v.to_json();
        assert_eq!(
            s,
            "{\"name\":\"a\\\"b\\nc\",\"n\":1.5,\"ok\":true,\"xs\":[1,2]}"
        );
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        // Above 2^53 an integer survives only as `Int`.
        assert_eq!(Value::Int(u64::MAX).to_json(), u64::MAX.to_string());
    }

    #[test]
    fn series_artifact_round_trips_visually() {
        let mut s = Series::new("platinum");
        s.push(1.0, 1.0);
        s.push(16.0, 13.5);
        let j = series_artifact("fig1", &[s]).to_json();
        assert!(j.contains("\"figure\":\"fig1\""));
        assert!(j.contains("[16,13.5]"));
    }

    #[test]
    fn atc_summary_formats_rate() {
        let mut c = numa_machine::AccessCounters::default();
        assert_eq!(atc_summary(&c), "ATC: no probes");
        c.atc_hits = 3;
        c.atc_misses = 1;
        let s = atc_summary(&c);
        assert!(s.contains("4 probes"), "{s}");
        assert!(s.contains("75.00% hit rate"), "{s}");
    }

    #[test]
    fn chart_renders() {
        let mut s = Series::new("linear");
        for p in 1..=16 {
            s.push(p as f64, p as f64);
        }
        let chart = ascii_chart(&[s], 40, 10);
        assert!(chart.contains('*'));
        assert!(chart.contains("linear"));
        assert_eq!(ascii_chart(&[], 40, 10), "(no data)\n");
    }
}
