//! The scenario experiment matrix: every named scenario compared across
//! the direct frontend, the static tune panel and the adaptive tuner, at
//! the quick scale. The adaptive and rescue bars are the library's own
//! ([`check_adaptive_bar`], [`check_rescue_bar`]), which the
//! `scenario_matrix` figure checks too, at full scale; this suite adds
//! per-scenario floors and the video bar.

use seqio_scenario::{
    check_adaptive_bar, check_rescue_bar, degraded_rescue, run_matrix, MatrixScale,
};

/// Per-scenario floor on the scheduler-vs-direct ratio
/// (`adaptive / direct`), set at roughly 80% of the measured quick-scale
/// value so legitimate model changes have headroom while a real
/// regression (or an accidental scheduler bypass) trips the bar.
/// Scenarios below 1.0 are where an open, churning population genuinely
/// favors direct issue — the matrix records that honestly rather than
/// pretending the scheduler always wins.
const SCHED_VS_DIRECT_FLOOR: [(&str, f64); 7] = [
    ("steady", 2.4),
    ("video", 0.9),
    ("backup", 2.8),
    ("mixed", 0.95),
    ("churn", 0.45),
    ("seek-restart", 0.7),
    ("degraded", 2.8),
];

#[test]
fn matrix_bars_hold_on_every_scenario() {
    let rows = run_matrix(&MatrixScale::quick(), 11).unwrap();
    assert_eq!(rows.len(), 7);
    check_adaptive_bar(&rows).unwrap();
    for (r, (name, floor)) in rows.iter().zip(SCHED_VS_DIRECT_FLOOR) {
        assert_eq!(r.scenario, name);
        let best = r.best_static();
        println!(
            "{:<13} direct {:>7.2}  best-static {}={:.2}  wide {:>7.2}  adaptive {:>7.2}  \
             retunes {}",
            r.scenario, r.direct_mbs, best.name, best.mbs, r.wide_mbs, r.adaptive_mbs, r.retunes
        );
        assert!(r.direct_mbs > 0.0 && best.mbs > 0.0 && r.adaptive_mbs > 0.0, "{name}: dead cell");

        // A scenario where the tuner stayed quiet must match exactly —
        // anything else means epoch polling perturbed the run.
        if r.retunes == 0 {
            assert_eq!(
                r.adaptive_mbs,
                rows_static(r, "auto"),
                "{name}: zero retunes but adaptive diverged from the auto tune"
            );
        }

        // The scheduler-vs-direct bar.
        let ratio = r.adaptive_mbs / r.direct_mbs;
        assert!(
            ratio >= floor,
            "{name}: scheduler-vs-direct ratio {ratio:.2} fell below the {floor:.2} floor",
        );
    }

    // The video scenario is the adaptive tuner's showcase: staged data
    // piles up over idle disks under the deep auto tune, the widen rule
    // trades residency depth for dispatch width, and throughput ends
    // well clear of every static candidate.
    let video = &rows[1];
    assert!(video.retunes >= 1, "video: widen rule never fired");
    assert!(
        video.adaptive_mbs >= 1.2 * video.best_static().mbs,
        "video: adaptive {:.2} MB/s is not clearly ahead of best static {:.2} MB/s",
        video.adaptive_mbs,
        video.best_static().mbs,
    );
}

fn rows_static(r: &seqio_scenario::MatrixRow, name: &str) -> f64 {
    r.statics.iter().find(|s| s.name == name).map(|s| s.mbs).unwrap()
}

#[test]
fn degraded_rescue_strictly_wins() {
    check_rescue_bar(degraded_rescue(&MatrixScale::quick(), 11).unwrap()).unwrap();
}
