//! Parallel, deterministic grids of experiments.
//!
//! A [`Sweep`] takes an ordered list of [`Experiment`] points (a figure's
//! x-axis, a parameter grid, an ablation matrix), runs them on a pool of
//! worker threads, and returns the results **in grid order** regardless of
//! which worker finished first. Each point's RNG seed is derived
//! deterministically from the sweep's base seed and the point's index, so
//! a sweep run with one worker and the same sweep run with eight produce
//! bit-identical [`RunResult`]s.
//!
//! ```
//! use seqio_node::{Experiment, Sweep};
//! use seqio_simcore::SimDuration;
//!
//! let report = Sweep::builder()
//!     .points((1..=3).map(|s| {
//!         Experiment::builder()
//!             .streams_per_disk(s)
//!             .warmup(SimDuration::ZERO)
//!             .duration(SimDuration::from_millis(300))
//!             .build()
//!     }))
//!     .base_seed(7)
//!     .jobs(2)
//!     .run();
//! assert_eq!(report.len(), 3);
//! let throughputs: Vec<f64> =
//!     report.results().map(|r| r.total_throughput_mbs()).collect();
//! assert_eq!(throughputs.len(), 3);
//! ```

use std::time::{Duration, Instant};

use crate::driver::pool_map;
use crate::experiment::{Experiment, RunResult};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "SEQIO_JOBS";

/// Derives the RNG seed for grid point `index` of a sweep seeded with
/// `base_seed`.
///
/// The derivation is a SplitMix64 step over `base_seed ^ index`, which
/// spreads consecutive indices across the full 64-bit space: neighbouring
/// points never share correlated low bits the way `base_seed + index`
/// would. The function is pure, so the seed of a point depends only on
/// `(base_seed, index)` — never on worker count or completion order.
pub fn derive_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resolves the worker count: an explicit override wins, then the
/// `SEQIO_JOBS` environment variable, then the host's available
/// parallelism (at least 1). Shared by every caller of the
/// [`driver`](crate::driver).
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(j) = explicit {
        return j.max(1);
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(j) = v.trim().parse::<usize>() {
            return j.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One completed grid point: the spec that ran (with its derived seed
/// already applied) and its result plus wall-clock timing.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Position in the grid.
    pub index: usize,
    /// The experiment exactly as executed (seed already derived).
    pub spec: Experiment,
    /// The measured outcome.
    pub result: RunResult,
    /// Host wall-clock time this point took.
    pub elapsed: Duration,
}

/// The outcome of [`Sweep::run`]: every point in grid order plus run-wide
/// timing.
#[derive(Debug)]
pub struct SweepReport {
    outcomes: Vec<PointOutcome>,
    /// Host wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl SweepReport {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the sweep was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Outcomes in grid order.
    pub fn outcomes(&self) -> &[PointOutcome] {
        &self.outcomes
    }

    /// Results in grid order.
    pub fn results(&self) -> impl Iterator<Item = &RunResult> {
        self.outcomes.iter().map(|o| &o.result)
    }

    /// Consumes the report, yielding results in grid order.
    pub fn into_results(self) -> Vec<RunResult> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }

    /// Sum of per-point wall-clock times — with several workers this
    /// exceeds [`wall`](Self::wall), and the ratio is the realized
    /// parallel speedup.
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.elapsed).sum()
    }
}

/// A validated, ready-to-run grid of experiments. Build with
/// [`Sweep::builder`].
#[derive(Debug)]
pub struct Sweep {
    points: Vec<Experiment>,
    jobs: Option<usize>,
    base_seed: Option<u64>,
    progress: bool,
}

impl Sweep {
    /// Starts an empty builder.
    pub fn builder() -> SweepBuilder {
        SweepBuilder {
            sweep: Sweep { points: Vec::new(), jobs: None, base_seed: None, progress: false },
        }
    }

    /// Runs every point and collects the outcomes in grid order.
    ///
    /// Points run on the [`driver`](crate::driver)'s worker pool, so
    /// scheduling is dynamic; determinism comes from the per-point seed
    /// derivation, not from the schedule.
    ///
    /// # Panics
    ///
    /// Panics if any point's specification is invalid (same contract as
    /// [`Experiment::run`]) or a worker thread dies.
    pub fn run(self) -> SweepReport {
        let jobs = resolve_jobs(self.jobs).min(self.points.len().max(1));
        let total = self.points.len();

        // Apply the derived seeds up front so `spec` in each outcome is
        // exactly what ran and re-running it alone reproduces the point.
        let mut points = self.points;
        if let Some(base) = self.base_seed {
            for (i, p) in points.iter_mut().enumerate() {
                p.seed = derive_seed(base, i);
            }
        }
        for (i, p) in points.iter().enumerate() {
            if let Err(e) = p.validate() {
                panic!("sweep point {i}: {e}");
            }
        }

        let started = Instant::now();
        let progress = self.progress;
        let outcomes = pool_map(points, jobs, |index, spec| {
            let t0 = Instant::now();
            let result = spec.run();
            let elapsed = t0.elapsed();
            if progress {
                eprintln!(
                    "sweep: point {}/{} done in {:.2}s",
                    index + 1,
                    total,
                    elapsed.as_secs_f64()
                );
            }
            PointOutcome { index, spec, result, elapsed }
        });
        let wall = started.elapsed();
        if progress {
            eprintln!(
                "sweep: {total} point(s) on {jobs} worker(s) in {:.2}s (cpu {:.2}s)",
                wall.as_secs_f64(),
                outcomes.iter().map(|o| o.elapsed).sum::<Duration>().as_secs_f64()
            );
        }
        SweepReport { outcomes, wall, jobs }
    }
}

/// Builder for [`Sweep`].
#[derive(Debug)]
pub struct SweepBuilder {
    sweep: Sweep,
}

impl SweepBuilder {
    /// Appends one grid point.
    pub fn point(mut self, spec: Experiment) -> Self {
        self.sweep.points.push(spec);
        self
    }

    /// Appends a whole axis of grid points, in order.
    pub fn points<I: IntoIterator<Item = Experiment>>(mut self, specs: I) -> Self {
        self.sweep.points.extend(specs);
        self
    }

    /// Overrides the worker count (default: `SEQIO_JOBS`, then the host's
    /// available parallelism). Values are clamped to at least 1.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.sweep.jobs = Some(jobs);
        self
    }

    /// Derives every point's seed from `(base_seed, index)` via
    /// [`derive_seed`], overwriting whatever seed the point carried.
    /// Without a base seed, points keep their own seeds.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.sweep.base_seed = Some(seed);
        self
    }

    /// Prints per-point completion lines and a final timing summary to
    /// stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.sweep.progress = on;
        self
    }

    /// Finalizes the grid without running it.
    pub fn build(self) -> Sweep {
        self.sweep
    }

    /// Builds and runs in one step.
    pub fn run(self) -> SweepReport {
        self.sweep.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio_simcore::SimDuration;

    fn quick(streams: usize) -> Experiment {
        Experiment::builder()
            .streams_per_disk(streams)
            .requests_per_stream(10)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .build()
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = Sweep::builder().run();
        assert!(report.is_empty());
        assert_eq!(report.len(), 0);
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let report = Sweep::builder().points((1..=5).map(quick)).jobs(3).base_seed(1).run();
        assert_eq!(report.len(), 5);
        for (i, o) in report.outcomes().iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.spec.streams_per_disk, i + 1);
            // 10 requests per stream, all completed.
            assert_eq!(o.result.requests_completed, 10 * (i + 1) as u64);
        }
    }

    #[test]
    fn derived_seeds_are_pure_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| derive_seed(42, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| derive_seed(42, i)).collect();
        assert_eq!(a, b, "derivation is a pure function of (base, index)");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "distinct indices get distinct seeds");
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0), "base seed matters");
    }

    #[test]
    fn base_seed_overwrites_point_seeds() {
        let report = Sweep::builder().points((1..=3).map(quick)).base_seed(9).jobs(1).run();
        for (i, o) in report.outcomes().iter().enumerate() {
            assert_eq!(o.spec.seed, derive_seed(9, i));
        }
        // Without a base seed, the builder seed survives.
        let report = Sweep::builder().point(quick(2)).jobs(1).run();
        assert_eq!(report.outcomes()[0].spec.seed, 1);
    }

    #[test]
    fn jobs_clamp_to_point_count() {
        let report = Sweep::builder().points((1..=2).map(quick)).jobs(16).run();
        assert_eq!(report.jobs, 2);
    }

    #[test]
    #[should_panic(expected = "sweep point 1")]
    fn invalid_point_is_named() {
        let mut bad = quick(1);
        bad.request_bytes = 0;
        Sweep::builder().point(quick(1)).point(bad).run();
    }
}
