//! Sweep determinism: the worker pool must not leak scheduling order into
//! results. A grid run on one worker and the same grid run on eight must
//! produce identical `RunResult` series, and derived per-point seeds must
//! be distinct yet stable across runs.

use seqio_node::{sweep, Experiment, FaultPlan, Frontend, RunResult, Sweep};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

#[path = "../../../tests/support/fig01_golden.rs"]
mod fig01_golden;

/// A 3x3 grid over (streams, request size), mixing direct and stream
/// scheduler frontends so both code paths are exercised.
fn grid() -> Vec<Experiment> {
    let mut points = Vec::new();
    for (i, &streams) in [1usize, 10, 30].iter().enumerate() {
        for &req in &[16 * KIB, 64 * KIB, 256 * KIB] {
            let mut b = Experiment::builder()
                .streams_per_disk(streams)
                .request_size(req)
                .warmup(SimDuration::from_secs(1))
                .duration(SimDuration::from_secs(2))
                .seed(99);
            if i % 2 == 1 {
                b = b.frontend(Frontend::stream_scheduler_with_readahead(MIB));
            }
            points.push(b.build());
        }
    }
    points
}

/// Every observable a figure could plot, plus the diagnostics.
fn fingerprint(r: &RunResult) -> (u64, u64, Vec<u64>, Vec<u64>, u64, u64, String) {
    (
        r.bytes_delivered,
        r.requests_completed,
        r.disk_seeks.clone(),
        r.disk_ops.clone(),
        r.ctrl_wasted_bytes,
        r.ctrl_bytes_from_disks,
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            r.per_stream_mbs, r.window, r.disk_read_errors, r.disk_retries, r.disk_timeouts
        ),
    )
}

#[test]
fn one_worker_and_eight_workers_agree_bit_for_bit() {
    let serial = Sweep::builder().points(grid()).jobs(1).run();
    let pooled = Sweep::builder().points(grid()).jobs(8).run();
    assert_eq!(serial.len(), 9);
    assert_eq!(pooled.jobs, 8);
    for (i, (a, b)) in serial.results().zip(pooled.results()).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b), "point {i} diverged across worker counts");
    }
}

/// The fault layer draws from its own seeded RNG stream, so a faulted
/// grid must stay bit-identical across worker counts and invocations just
/// like a healthy one.
#[test]
fn faulted_grid_is_identical_across_worker_counts() {
    let faulted = || {
        let plan = FaultPlan::new()
            .straggler(0, 4.0, SimDuration::from_millis(500), Some(SimDuration::from_secs(1)))
            .read_errors(0, 0.05)
            .bad_region(0, 50_000, 100_000, SimDuration::from_millis(2));
        grid()
            .into_iter()
            .map(|mut e| {
                e.faults = Some(plan.clone());
                e
            })
            .collect::<Vec<_>>()
    };
    let serial = Sweep::builder().points(faulted()).jobs(1).run();
    let pooled = Sweep::builder().points(faulted()).jobs(8).run();
    let mut saw_errors = false;
    for (i, (a, b)) in serial.results().zip(pooled.results()).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b), "faulted point {i} diverged across workers");
        saw_errors |= a.disk_read_errors.iter().any(|&e| e > 0);
    }
    assert!(saw_errors, "the 5% error rate must actually fire somewhere in the grid");
}

#[test]
fn base_seed_runs_are_reproducible_across_invocations() {
    let a = Sweep::builder().points(grid()).base_seed(0xfeed).jobs(4).run();
    let b = Sweep::builder().points(grid()).base_seed(0xfeed).jobs(2).run();
    for (i, (x, y)) in a.outcomes().iter().zip(b.outcomes()).enumerate() {
        assert_eq!(x.spec.seed, sweep::derive_seed(0xfeed, i), "seed derivation is pure");
        assert_eq!(x.spec.seed, y.spec.seed);
        assert_eq!(fingerprint(&x.result), fingerprint(&y.result), "point {i} diverged");
    }
}

/// The Figure-1 golden subset through a 4-worker sweep. Any change to
/// simulation semantics shows up here as a CSV drift, whereas the tests
/// above would still pass if both worker counts drifted together.
#[test]
fn fig01_point_subset_csv_matches_golden() {
    let report = Sweep::builder().points(fig01_golden::points()).jobs(4).run();
    let mbs: Vec<f64> = report.results().map(RunResult::total_throughput_mbs).collect();
    let (csv, hash) = fig01_golden::render(&mbs);
    assert_eq!(
        hash,
        fig01_golden::GOLDEN,
        "fig01 subset CSV drifted from the recorded golden output:\n{csv}"
    );
}

#[test]
fn derived_seeds_differ_across_points() {
    let report = Sweep::builder().points(grid()).base_seed(7).jobs(3).run();
    let seeds: Vec<u64> = report.outcomes().iter().map(|o| o.spec.seed).collect();
    for (i, a) in seeds.iter().enumerate() {
        for (j, b) in seeds.iter().enumerate() {
            if i != j {
                assert_ne!(a, b, "points {i} and {j} share a seed");
            }
        }
    }
    // And different seeds actually change the simulation: at least one
    // observable differs between the first two points' re-seeded runs.
    let r0 = fingerprint(&report.outcomes()[0].result);
    let unseeded = Sweep::builder().points(grid()).jobs(3).run();
    let u0 = fingerprint(&unseeded.outcomes()[0].result);
    assert_ne!(r0, u0, "base_seed had no effect on point 0");
}
