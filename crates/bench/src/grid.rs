//! Figure grids on top of [`seqio_node::Sweep`].
//!
//! Most figures are the same shape: a cartesian product of parameter
//! values, one [`Experiment`] per cell, one or more metrics per result.
//! [`Grid`] captures that shape once — cells are registered under a
//! `(series, x)` address, executed in one parallel [`Sweep`], and read back
//! through [`GridRun`]: [`fill`](GridRun::fill) populates a [`Figure`] with
//! one metric, [`extract`](GridRun::extract) derives further series from
//! the same runs, and [`get`](GridRun::get) addresses a single result.
//!
//! Cells keep the seed set on their spec, so a grid produces the same
//! numbers as a serial loop over its cells, for any worker count.

use std::time::Duration;

use seqio_node::{Experiment, RunResult, Sweep};

use crate::{Figure, Series};

/// An unexecuted figure grid; register cells, then [`run`](Grid::run).
#[derive(Default)]
pub struct Grid {
    addresses: Vec<(String, String)>,
    specs: Vec<Experiment>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid").field("cells", &self.specs.len()).finish()
    }
}

impl Grid {
    /// Starts an empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one experiment under `(series, x)`. Insertion order
    /// defines series order and, within a series, x order.
    pub fn point(
        mut self,
        series: impl Into<String>,
        x: impl Into<String>,
        spec: Experiment,
    ) -> Self {
        self.addresses.push((series.into(), x.into()));
        self.specs.push(spec);
        self
    }

    /// Runs every cell through one parallel sweep (`SEQIO_JOBS` workers,
    /// else the available parallelism) and pairs the results back with
    /// their addresses. Prints a one-line timing summary to stderr.
    pub fn run(self) -> GridRun {
        let report = Sweep::builder().points(self.specs).run();
        let (wall, jobs, cpu) = (report.wall, report.jobs, report.cpu_time());
        let cells = self
            .addresses
            .into_iter()
            .zip(report.into_results())
            .map(|((series, x), r)| (series, x, r))
            .collect();
        let run = GridRun { cells, wall, jobs, cpu };
        run.note_timing();
        run
    }
}

/// The executed grid: results addressable by `(series, x)`.
#[derive(Debug)]
pub struct GridRun {
    cells: Vec<(String, String, RunResult)>,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Summed per-point run time (wall × realized speedup).
    pub cpu: Duration,
}

impl GridRun {
    fn note_timing(&self) {
        let ran = self.cells.len();
        if ran > 0 {
            eprintln!(
                "grid: {ran} point(s) on {} worker(s) in {:.2}s (cpu {:.2}s, {:.2}s/point)",
                self.jobs,
                self.wall.as_secs_f64(),
                self.cpu.as_secs_f64(),
                self.cpu.as_secs_f64() / ran as f64
            );
        }
    }

    /// The result at `(series, x)`; `None` for an absent address.
    pub fn get(&self, series: &str, x: &str) -> Option<&RunResult> {
        self.cells.iter().find(|(s, cx, _)| s == series && cx == x).map(|(_, _, r)| r)
    }

    /// Iterates one series' cells in insertion order as `(x, result)`.
    pub fn series<'a>(&'a self, label: &'a str) -> impl Iterator<Item = (&'a str, &'a RunResult)> {
        self.cells.iter().filter(move |(s, _, _)| s == label).map(|(_, x, r)| (x.as_str(), r))
    }

    /// Builds a new series from an existing one's runs under a different
    /// metric — for figures that plot several metrics of the same sweep.
    pub fn extract(
        &self,
        source: &str,
        label: impl Into<String>,
        metric: impl Fn(&RunResult) -> f64,
    ) -> Series {
        let mut out = Series::new(label);
        for (x, r) in self.series(source) {
            out.push(x, metric(r));
        }
        out
    }

    /// Adds every registered series to `fig`, in first-insertion order,
    /// applying `metric` to each cell.
    pub fn fill(&self, fig: &mut Figure, metric: impl Fn(&RunResult) -> f64) {
        let mut order: Vec<&str> = Vec::new();
        for (s, _, _) in &self.cells {
            if !order.contains(&s.as_str()) {
                order.push(s);
            }
        }
        for label in order {
            fig.add(self.extract(label, label, &metric));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::SimDuration;

    fn quick(streams: usize, seed: u64) -> Experiment {
        Experiment::builder()
            .streams_per_disk(streams)
            .requests_per_stream(8)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .seed(seed)
            .build()
    }

    #[test]
    fn fill_preserves_registration_order() {
        let run = Grid::new()
            .point("b", "1", quick(1, 3))
            .point("a", "1", quick(2, 3))
            .point("b", "2", quick(1, 4))
            .run();
        let mut fig = Figure::new("T", "t", "x", "y");
        run.fill(&mut fig, |r| r.requests_completed as f64);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].label, "b");
        assert_eq!(fig.series[1].label, "a");
        assert_eq!(fig.series[0].points.len(), 2);
        assert_eq!(fig.series[0].points[0], ("1".to_string(), 8.0));
        assert_eq!(fig.series[1].points[0], ("1".to_string(), 16.0));
    }

    #[test]
    fn extract_derives_second_metric_from_same_runs() {
        let run = Grid::new().point("tput", "1", quick(2, 6)).run();
        let bytes = run.extract("tput", "bytes", |r| r.bytes_delivered as f64);
        assert_eq!(bytes.label, "bytes");
        assert_eq!(bytes.points[0].1, run.get("tput", "1").unwrap().bytes_delivered as f64);
    }

    #[test]
    fn grid_matches_the_serial_loop_at_the_default_worker_count() {
        let serial: Vec<u64> = (1..=4).map(|n| quick(n, 9).run().bytes_delivered).collect();
        let run = (1..=4).fold(Grid::new(), |g, n| g.point("s", n.to_string(), quick(n, 9))).run();
        let got: Vec<u64> = run.series("s").map(|(_, r)| r.bytes_delivered).collect();
        assert_eq!(got, serial);
    }
}
