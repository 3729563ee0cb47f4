//! # seqio-bench
//!
//! The figure and probe harness: series containers, aligned table
//! printing (mirroring the paper's figures as rows/columns) and result
//! files under `bench_results/`.
//!
//! [`figures`] holds the one definition of each committed figure CSV,
//! bars included, and [`reports`] the one definition of each
//! deterministic probe report that no figure runs (`migrate` and
//! `timeline`); `probe figures` and `probe <report>` write them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Fails the enclosing figure, report or probe with the formatted message
/// unless `cond` holds; a comparison with a NaN side fails too.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if $cond {
        } else {
            return Err(format!($($msg)+).into());
        }
    };
}

pub mod figures;
mod grid;
pub mod reports;

pub use grid::{Grid, GridRun};

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One curve of a figure: a label plus `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"R = 8MBytes"`).
    pub label: String,
    /// Points in x order; x is kept as a display string (sizes, counts).
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    /// The y values only.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.1).collect()
    }
}

/// A whole figure: title, axis names and its series.
#[derive(Debug, Clone)]
pub struct Figure {
    /// E.g. `"Figure 10"`.
    pub id: String,
    /// Caption (what the paper's figure shows).
    pub title: String,
    /// X-axis name.
    pub x_name: String,
    /// Y-axis name.
    pub y_name: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Starts an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_name: impl Into<String>,
        y_name: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_name: x_name.into(),
            y_name: y_name.into(),
            series: Vec::new(),
        }
    }

    /// Adds a finished series.
    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Renders the figure as an aligned text table (x values as rows,
    /// series as columns) — the same numbers the paper plots.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   ({} vs {})", self.y_name, self.x_name);
        let xs: Vec<&str> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x.as_str()).collect())
            .unwrap_or_default();
        let xw = self.x_name.len().max(xs.iter().map(|x| x.len()).max().unwrap_or(0)).max(4);
        let cw: Vec<usize> = self.series.iter().map(|s| s.label.len().max(8)).collect();
        let _ = write!(out, "{:>xw$}", self.x_name);
        for (s, w) in self.series.iter().zip(&cw) {
            let _ = write!(out, "  {:>w$}", s.label, w = w);
        }
        let _ = writeln!(out);
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>xw$}");
            for (s, w) in self.series.iter().zip(&cw) {
                match s.points.get(i) {
                    Some((_, y)) => {
                        let _ = write!(out, "  {:>w$.2}", y, w = w);
                    }
                    None => {
                        let _ = write!(out, "  {:>w$}", "-", w = w);
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the figure as CSV (header: x, then one column per series).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_name);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label.replace(',', ";"));
        }
        let _ = writeln!(out);
        let xs: Vec<&str> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|(x, _)| x.as_str()).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.points.get(i) {
                    Some((_, y)) => {
                        let _ = write!(out, ",{y:.4}");
                    }
                    None => out.push(','),
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Writes `text` to `dir/name`, creating `dir` first, and prints the
/// path: the one way `probe` writes a result file.
///
/// # Errors
///
/// Returns the I/O error of either step, naming the path.
pub fn write_result(dir: &Path, name: &str, text: &str) -> io::Result<()> {
    let path = dir.join(name);
    fs::create_dir_all(dir).and_then(|()| fs::write(&path, text)).map_err(|e| {
        io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    })?;
    println!("   -> {}", path.display());
    Ok(())
}

/// Resolves `bench_results/` at the workspace root.
pub fn results_dir() -> PathBuf {
    let mut dir = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.join("bench_results")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("Figure X", "demo", "Streams", "MB/s");
        let mut a = Series::new("R = 1M");
        a.push("10", 50.0);
        a.push("100", 45.5);
        let mut b = Series::new("No RA");
        b.push("10", 8.0);
        b.push("100", 5.25);
        f.add(a);
        f.add(b);
        f
    }

    #[test]
    fn table_contains_all_points() {
        let t = sample().to_table();
        for needle in ["Figure X", "R = 1M", "No RA", "50.00", "5.25", "Streams"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn csv_round_numbers() {
        let c = sample().to_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("Streams,R = 1M,No RA"));
        assert!(lines.next().unwrap().starts_with("10,50.0000,8.0000"));
    }

    #[test]
    fn series_ys() {
        let f = sample();
        assert_eq!(f.series[0].ys(), vec![50.0, 45.5]);
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(!d.to_string_lossy().contains("crates"));
    }

    #[test]
    fn an_unwritable_result_is_an_error() {
        // No directory can carry a NUL byte in its name.
        let err = write_result(Path::new("no\0dir"), "x.csv", "a,b\n").unwrap_err();
        assert!(err.to_string().contains("could not write"), "{err}");
    }

    #[test]
    fn ragged_series_render_dashes() {
        let mut f = Figure::new("F", "t", "x", "y");
        let mut a = Series::new("a");
        a.push("1", 1.0);
        a.push("2", 2.0);
        let mut b = Series::new("b");
        b.push("1", 1.0);
        f.add(a);
        f.add(b);
        let t = f.to_table();
        assert!(t.contains('-'), "{t}");
    }
}
