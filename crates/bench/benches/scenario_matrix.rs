//! Scenario matrix — every named workload scenario compared across the
//! direct path, the best static scheduler tune, the over-wide reference
//! tune and the adaptive tuner.
//!
//! Not a paper figure: this is the repo's own experiment matrix for the
//! scenario engine. The scheduler-vs-direct bars echo the paper's core
//! claim (a stream-aware scheduler restores sequential throughput under
//! many-stream interference) scenario by scenario; the adaptive column
//! shows the epoch feedback controller matching the best static tune
//! everywhere and beating it where widening the dispatch set helps
//! (video-style segment churn).

use seqio_bench::{quick_mode, Figure, Series};
use seqio_scenario::{
    check_adaptive_bar, check_rescue_bar, degraded_rescue, run_matrix, MatrixScale,
};

fn main() {
    let scale = if quick_mode() { MatrixScale::quick() } else { MatrixScale::full() };
    let seed = 11;
    let rows = run_matrix(&scale, seed).expect("the scenario matrix runs");

    let mut fig = Figure::new(
        "Scenario matrix",
        "Named scenarios: direct vs static tunes vs adaptive (8 disks)",
        "Scenario",
        "Throughput (MBytes/s)",
    );
    let mut direct = Series::new("Direct");
    let mut best_static = Series::new("Best static");
    let mut wide = Series::new("Wide reference");
    let mut adaptive = Series::new("Adaptive");
    for r in &rows {
        direct.push(r.scenario, r.direct_mbs);
        best_static.push(r.scenario, r.best_static().mbs);
        wide.push(r.scenario, r.wide_mbs);
        adaptive.push(r.scenario, r.adaptive_mbs);
    }
    fig.add(direct);
    fig.add(best_static);
    fig.add(wide);
    fig.add(adaptive);
    fig.report("scenario_matrix");

    // The matrix's own bars, at this bench's scale.
    check_adaptive_bar(&rows).unwrap();
    check_rescue_bar(degraded_rescue(&scale, seed).expect("the rescue point runs")).unwrap();
}
