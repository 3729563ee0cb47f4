//! Regression guard for the committed figure data: recomputes a small
//! subset of the committed `bench_results/*.csv` cells from the current
//! build and fails if the full-mode numbers drift from what the code now
//! produces. Cheap on purpose — a handful of cells per figure, chosen
//! from low-throughput corners so the simulated event count stays small.
//!
//! Covered figures: fig01 (direct-path collapse, 60 disks), fig12 (8-disk
//! D = S configuration), fig13 (small dispatch set vs D = S), fig_slo
//! (open-loop session latency vs offered load) and scenario_matrix (named
//! scenarios: direct vs static tunes vs adaptive).
//!
//! The last two tests re-derive one cell of each figure through the wider
//! drivers — the shared-clock cluster driver (a 1-node identity
//! [`ClusterExperiment`]) and the client front end's closed-loop identity
//! mode — the committed figure data must be reachable through those paths
//! too, bit for bit, pinning the layer-equivalence guarantees to the same
//! goldens the figures use.

use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig};
use seqio_cluster::ClusterExperiment;
use seqio_node::{Experiment, Frontend, NodeShape};
use seqio_scenario::{run_row, MatrixScale, ScenarioKind};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

/// Loads a cell of a committed CSV by row label and column header.
fn committed_cell(slug: &str, row: &str, column: &str) -> String {
    let path = seqio_bench::results_dir().join(format!("{slug}.csv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let col = header.iter().position(|h| *h == column).unwrap_or_else(|| {
        panic!(
            "no column {column:?} in {header:?} — if a quick-mode `cargo bench` \
             overwrote {}, restore it with git or regenerate with \
             `SEQIO_BENCH_FULL=1 cargo bench`",
            path.display()
        )
    });
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.first() == Some(&row) {
            return cells[col].to_string();
        }
    }
    panic!("no row {row:?} in {}", path.display());
}

/// `Figure::report` writes y values with `{:.4}` — the committed format.
fn cell(mbs: f64) -> String {
    format!("{mbs:.4}")
}

/// Recomputes one full-figure fig01 cell with the exact spec the bench
/// uses in full mode (`SEQIO_BENCH_FULL=1`): 60 disks, seed 11, 4 s
/// warmup, 8 s measured window.
fn fig01_cell(streams_per_disk: usize, request_size: u64) -> String {
    let r = Experiment::builder()
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(streams_per_disk)
        .request_size(request_size)
        .warmup(SimDuration::from_secs(4))
        .duration(SimDuration::from_secs(8))
        .seed(11)
        .run();
    cell(r.total_throughput_mbs())
}

#[test]
fn fig01_committed_csv_matches_current_build() {
    // 256K row: the collapsed stream counts deliver under 1 GB/s, so these
    // are the cheapest cells of the figure to re-simulate.
    for (column, per_disk) in [("120 Streams", 2), ("300 Streams", 5)] {
        let committed = committed_cell("fig01_collapse", "256K", column);
        let current = fig01_cell(per_disk, 256 * KIB);
        assert_eq!(
            current, committed,
            "bench_results/fig01_collapse.csv cell (256K, {column}) drifted from the \
             current build; regenerate the figure CSVs with \
             `SEQIO_BENCH_FULL=1 cargo bench` and commit the result"
        );
    }
}

#[test]
fn fig12_committed_csv_matches_current_build() {
    // The collapsed "No Readahead" corner of the 8-disk figure: full mode
    // runs 10 s warmup + 10 s window at seed 1212 on the direct path, and
    // the 60/100-stream rows are its lowest-throughput (cheapest) cells.
    for streams_per_disk in [60usize, 100] {
        let committed =
            committed_cell("fig12_eight_disks", &streams_per_disk.to_string(), "No Readahead");
        let r = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(streams_per_disk)
            .warmup(SimDuration::from_secs(10))
            .duration(SimDuration::from_secs(10))
            .seed(1212)
            .run();
        assert_eq!(
            cell(r.total_throughput_mbs()),
            committed,
            "bench_results/fig12_eight_disks.csv cell ({streams_per_disk}, No Readahead) \
             drifted from the current build; regenerate with \
             `SEQIO_BENCH_FULL=1 cargo bench` and commit the result"
        );
    }
}

#[test]
fn fig13_committed_csv_matches_current_build() {
    // The D = S comparison curve at its cheapest point (10 streams/disk):
    // full mode runs 12 s warmup + 12 s window at seed 1313 with the
    // stream scheduler at R = 512K.
    let committed = committed_cell("fig13_dispatch_staged", "10", "D = S (from Fig. 12)");
    let r = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(10)
        .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
        .warmup(SimDuration::from_secs(12))
        .duration(SimDuration::from_secs(12))
        .seed(1313)
        .run();
    assert_eq!(
        cell(r.total_throughput_mbs()),
        committed,
        "bench_results/fig13_dispatch_staged.csv cell (10, D = S) drifted from the \
         current build; regenerate with `SEQIO_BENCH_FULL=1 cargo bench` and \
         commit the result"
    );
}

#[test]
fn fig_slo_committed_csv_matches_current_build() {
    // Two points of the open-loop SLO figure: 50 sessions/s over 30 s
    // against 2 nodes behind a 40 MiB/s link (about 1500 sessions, far
    // below saturation, so the link is nearly idle), and 400 sessions/s,
    // past the link's capacity, where thousands of transfers share it at
    // once and every delivery instant depends on the fair-share arithmetic.
    for rate in [50.0, 400.0] {
        let template = Experiment::builder()
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(30))
            .build();
        let slo = ClientExperiment::builder()
            .template(template)
            .nodes(2)
            .base_seed(2026)
            .arrivals(ArrivalConfig {
                rate_per_sec: rate,
                requests_per_session: 2,
                titles: 512,
                ..ArrivalConfig::default()
            })
            .link(LinkConfig { capacity_bps: 40.0 * MIB as f64, ..LinkConfig::default() })
            .run()
            .expect("slo figure point")
            .slo
            .expect("sessions completed");
        let row = format!("{rate:.0}");
        for (column, value) in
            [("p50", slo.p50_ms), ("p95", slo.p95_ms), ("p99", slo.p99_ms), ("p99.9", slo.p999_ms)]
        {
            assert_eq!(
                cell(value),
                committed_cell("fig_slo", &row, column),
                "bench_results/fig_slo.csv cell ({row}, {column}) drifted from the current \
                 build; regenerate with `SEQIO_BENCH_FULL=1 cargo bench` and commit the result"
            );
        }
    }
}

#[test]
fn scenario_matrix_committed_csv_matches_current_build() {
    // Two rows of the scenario matrix recomputed at the bench's full
    // scale: `mixed` (the lowest-throughput, cheapest row) and `video`
    // (the row where the adaptive tuner's widening retune is the whole
    // story — its Adaptive cell pins the retune behaviour, not just the
    // static panel).
    for kind in [ScenarioKind::Mixed, ScenarioKind::Video] {
        let r = run_row(kind, &MatrixScale::full(), 11).expect("the matrix row runs");
        for (column, value) in [
            ("Direct", r.direct_mbs),
            ("Best static", r.best_static().mbs),
            ("Wide reference", r.wide_mbs),
            ("Adaptive", r.adaptive_mbs),
        ] {
            assert_eq!(
                cell(value),
                committed_cell("scenario_matrix", r.scenario, column),
                "bench_results/scenario_matrix.csv cell ({}, {column}) drifted from the \
                 current build; regenerate with `SEQIO_BENCH_FULL=1 cargo bench` and \
                 commit the result",
                r.scenario
            );
        }
    }
}

/// Runs a figure template through the shared-clock cluster driver as a
/// 1-node identity cluster and renders the aggregate the way
/// `Figure::report` does.
fn cluster_cell(template: Experiment) -> String {
    let c = ClusterExperiment::builder()
        .template(template)
        .run()
        .expect("figure templates are valid 1-node clusters");
    cell(c.total_throughput_mbs())
}

#[test]
fn cluster_path_reproduces_committed_figure_cells() {
    // One representative cell per covered figure, each recomputed through
    // the co-simulation driver instead of `Experiment::run`. Equality with
    // the committed CSV is exact: the 1-node cluster is bit-identical to
    // the plain experiment, so any drift here means the cluster layer
    // perturbed the node simulation.
    let fig01 = Experiment::builder()
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(2)
        .request_size(256 * KIB)
        .warmup(SimDuration::from_secs(4))
        .duration(SimDuration::from_secs(8))
        .seed(11)
        .build();
    assert_eq!(
        cluster_cell(fig01),
        committed_cell("fig01_collapse", "256K", "120 Streams"),
        "the cluster path no longer reproduces fig01 (256K, 120 Streams)"
    );

    let fig12 = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(60)
        .warmup(SimDuration::from_secs(10))
        .duration(SimDuration::from_secs(10))
        .seed(1212)
        .build();
    assert_eq!(
        cluster_cell(fig12),
        committed_cell("fig12_eight_disks", "60", "No Readahead"),
        "the cluster path no longer reproduces fig12 (60, No Readahead)"
    );

    let fig13 = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(10)
        .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
        .warmup(SimDuration::from_secs(12))
        .duration(SimDuration::from_secs(12))
        .seed(1313)
        .build();
    assert_eq!(
        cluster_cell(fig13),
        committed_cell("fig13_dispatch_staged", "10", "D = S (from Fig. 12)"),
        "the cluster path no longer reproduces fig13 (10, D = S)"
    );
}

#[test]
fn client_identity_path_reproduces_committed_figure_cells() {
    // The client front end's identity configuration — closed loop, the
    // default unconstrained link — must reduce bit-identically to the
    // plain run, pinned to the same committed fig01 golden the other
    // equivalence tests use. Any drift here means the client tier
    // perturbed the storage simulation it claims to only observe.
    let fig01 = Experiment::builder()
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(2)
        .request_size(256 * KIB)
        .warmup(SimDuration::from_secs(4))
        .duration(SimDuration::from_secs(8))
        .seed(11)
        .build();
    let c =
        ClientExperiment::builder().template(fig01).run().expect("1-node closed-loop identity run");
    assert_eq!(
        cell(c.total_throughput_mbs()),
        committed_cell("fig01_collapse", "256K", "120 Streams"),
        "the client identity path no longer reproduces fig01 (256K, 120 Streams)"
    );
    // The one permitted difference: the identity run carries the SLO the
    // plain path cannot compute (open-ended streams never complete, so it
    // stays None here — the field exists, the reduction just has nothing
    // to fill it with on an open-ended figure template).
    assert!(c.slo.is_none(), "open-ended streams have no session completions");
}
