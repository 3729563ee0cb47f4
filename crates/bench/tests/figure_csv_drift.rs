//! Regression guard for the committed figure data: recomputes at least one
//! cell of every committed `bench_results/*.csv` from the current build
//! and fails if it drifted from the file. Each cell runs through the same
//! `*_point` function of `seqio_bench::figures` that the figure's
//! definition uses, and sits in a cheap corner of its figure (a low
//! throughput, so few simulated events) unless it is the cell a finding
//! or bar reads; `ablation_faults.csv` is cheap enough to run whole, bars
//! included. The full byte-for-byte check is
//! `probe figures` followed by `git diff --exit-code`.
//!
//! The last test re-derives committed cells through the shared-clock
//! cluster driver (a 1-node [`ClusterExperiment`] under the default
//! router): the committed figure data must be reachable through that path
//! too, bit for bit, pinning the layer-equivalence guarantee to the same
//! goldens the figures use.

use seqio_bench::figures::*;
use seqio_cluster::{ClusterExperiment, ShardPolicy};
use seqio_disk::QueuePolicy;
use seqio_hostsched::SchedKind;
use seqio_node::Experiment;
use seqio_scenario::ScenarioKind;
use seqio_simcore::units::{KIB, MIB};

/// Loads a committed CSV.
fn committed(file: &str) -> String {
    let path = seqio_bench::results_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Loads a cell of a committed CSV by row label and column header.
fn committed_cell(file: &str, row: &str, column: &str) -> String {
    let text = committed(file);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let col = header
        .iter()
        .position(|h| *h == column)
        .unwrap_or_else(|| panic!("no column {column:?} in {header:?} of {file}"));
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.first() == Some(&row) {
            return cells[col].to_string();
        }
    }
    panic!("no row {row:?} in {file}");
}

/// `Figure::to_csv` writes y values with `{:.4}` — the committed format.
fn cell(y: f64) -> String {
    format!("{y:.4}")
}

/// Fails unless `y` renders as the committed cell (`row`, `column`) of
/// `file`.
fn assert_cell(file: &str, row: &str, column: &str, y: f64) {
    assert_eq!(
        cell(y),
        committed_cell(file, row, column),
        "bench_results/{file} cell ({row}, {column}) drifted from the current build; if the \
         change is deliberate, rewrite the figures with `probe figures` and commit them"
    );
}

/// Runs `spec` and returns its aggregate throughput in MB/s.
fn mbs(spec: Experiment) -> f64 {
    spec.run().total_throughput_mbs()
}

#[test]
fn figures_name_exactly_the_committed_csvs() {
    let mut committed: Vec<String> = std::fs::read_dir(seqio_bench::results_dir())
        .expect("bench_results/ is readable")
        .map(|e| e.expect("a directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    committed.sort();
    let defined: Vec<&str> = FIGURES.iter().map(|(file, _)| *file).collect();
    assert!(defined.is_sorted_by(|a, b| a < b), "FIGURES is in file-name order, each once");
    assert_eq!(defined, committed, "every committed CSV has one definition and vice versa");
}

#[test]
fn fig01_committed_csv_matches_current_build() {
    // 256K row: the collapsed stream counts deliver under 1 GB/s, so these
    // are the cheapest cells of the figure to re-simulate.
    for (column, per_disk) in [("120 Streams", 2), ("300 Streams", 5)] {
        let y = mbs(fig01_point(per_disk, 256 * KIB));
        assert_cell("fig01_collapse.csv", "256K", column, y);
    }
}

#[test]
fn fig02_committed_csv_matches_current_build() {
    let y = mbs(fig02_point(SchedKind::Noop, 256));
    assert_cell("fig02_linux_sched.csv", "256", "noop scheduler", y);
}

#[test]
fn fig04_committed_csv_matches_current_build() {
    assert_cell("fig04_request_size.csv", "8K", "10 Streams", mbs(fig04_point(10, 8 * KIB)));
}

#[test]
fn fig05_committed_csv_matches_current_build() {
    assert_cell("fig05_xdd_single.csv", "8K", "50 Streams", mbs(fig05_point(50, 8 * KIB)));
}

#[test]
fn fig06_committed_csv_matches_current_build() {
    assert_cell("fig06_segment_size.csv", "32K", "30 Streams", mbs(fig06_point(32 * KIB)));
}

#[test]
fn fig07_committed_csv_matches_current_build() {
    let y = mbs(fig07_point(10, 8, MIB));
    assert_cell("fig07_readahead_tradeoff.csv", "8x1M", "10 Streams", y);
}

#[test]
fn fig08_committed_csv_matches_current_build() {
    let y = mbs(fig08_point(60, 64 * KIB));
    assert_cell("fig08_controller_prefetch.csv", "64K", "60 Streams", y);
}

#[test]
fn fig10_committed_csv_matches_current_build() {
    assert_cell("fig10_readahead.csv", "60", "No Readahead", mbs(fig10_point(60, None)));
}

#[test]
fn fig11_committed_csv_matches_current_build() {
    let y = mbs(fig11_point(10, 256 * KIB, 8 * MIB));
    assert_cell("fig11_memory.csv", "8M", "S=10 (RA=256K)", y);
}

#[test]
fn fig12_committed_csv_matches_current_build() {
    // The collapsed "No Readahead" corner of the 8-disk figure: the
    // 60/100-stream rows are its lowest-throughput (cheapest) cells.
    for streams in [60, 100] {
        let y = mbs(fig12_point(streams, None));
        assert_cell("fig12_eight_disks.csv", &streams.to_string(), "No Readahead", y);
    }
}

#[test]
fn fig13_committed_csv_matches_current_build() {
    let y = mbs(fig13_point(10, false));
    assert_cell("fig13_dispatch_staged.csv", "10", "D = S (from Fig. 12)", y);
}

#[test]
fn fig14_committed_csv_matches_current_build() {
    let y = mbs(fig14_point(10, Some(2 * MIB)));
    assert_cell("fig14_single_small_d.csv", "10", "R=2M; D=S (Fig. 10)", y);
}

#[test]
fn fig15_committed_csv_matches_current_build() {
    let y = fig15_point(10, 8 * MIB, 256 * KIB).run().mean_response_ms();
    assert_cell("fig15_response_time.csv", "256K", "S=10 (M=8M)", y);
}

#[test]
fn ablation_classifier_committed_csv_matches_current_build() {
    let r = classifier_point(8).run();
    let direct = r.server_metrics.as_ref().expect("stream scheduler metrics").direct_requests;
    assert_cell("ablation_classifier.csv", "8", "throughput", r.total_throughput_mbs());
    assert_cell("ablation_classifier.csv", "8", "direct requests (x1000)", direct as f64 / 1000.0);
}

#[test]
fn ablation_faults_committed_csv_matches_current_build() {
    let fig = ablation_faults().unwrap_or_else(|bar| panic!("ablation_faults.csv: {bar}"));
    assert_eq!(
        fig.to_csv(),
        committed("ablation_faults.csv"),
        "bench_results/ablation_faults.csv drifted from the current build; if the change is \
         deliberate, rewrite the figures with `probe figures` and commit them"
    );
}

#[test]
fn ablation_queue_policy_committed_csv_matches_current_build() {
    // The figure's finding: SSTF triples FIFO at 100 streams.
    let y = mbs(queue_policy_point(QueuePolicy::Sstf, 100));
    assert_cell("ablation_queue_policy.csv", "100", "Sstf", y);
}

#[test]
fn cluster_scaling_committed_csv_matches_current_build() {
    // The cheapest cell, then the four cells the scale-out bars read.
    for (nodes, spd, column, policy, straggler) in [
        (1, 50, "Straggler hash", ShardPolicy::HashByStream, true),
        (1, 100, "Healthy", ShardPolicy::HashByStream, false),
        (4, 100, "Healthy", ShardPolicy::HashByStream, false),
        (4, 100, "Straggler hash", ShardPolicy::HashByStream, true),
        (4, 100, "Straggler aware", ShardPolicy::StragglerAware, true),
    ] {
        let y = cluster_scaling_point(nodes, spd, policy, straggler).total_throughput_mbs();
        let column = format!("{column} S/disk={spd}");
        assert_cell("cluster_scaling.csv", &nodes.to_string(), &column, y);
    }
}

#[test]
fn fig_slo_committed_csv_matches_current_build() {
    // 50 sessions/s is far below saturation, so the link is nearly idle;
    // at 400 sessions/s, past the link's capacity, thousands of transfers
    // share it at once and every delivery instant depends on the
    // fair-share arithmetic.
    for rate in [50.0, 400.0] {
        let slo = slo_point(rate).expect("slo figure point");
        let row = format!("{rate:.0}");
        for (column, y) in
            [("p50", slo.p50_ms), ("p95", slo.p95_ms), ("p99", slo.p99_ms), ("p99.9", slo.p999_ms)]
        {
            assert_cell("fig_slo.csv", &row, column, y);
        }
    }
}

#[test]
fn scenario_matrix_committed_csv_matches_current_build() {
    // `mixed` is the lowest-throughput (cheapest) row; on `video` the
    // adaptive tuner's widening retune is the whole story, so its Adaptive
    // cell pins the retune behaviour, not just the static panel.
    for kind in [ScenarioKind::Mixed, ScenarioKind::Video] {
        let r = scenario_row(kind).expect("the matrix row runs");
        for (column, y) in [
            ("Direct", r.direct_mbs),
            ("Best static", r.best_static().mbs),
            ("Wide reference", r.wide_mbs),
            ("Adaptive", r.adaptive_mbs),
        ] {
            assert_cell("scenario_matrix.csv", r.scenario, column, y);
        }
    }
}

#[test]
fn cluster_path_reproduces_committed_figure_cells() {
    // Committed cells recomputed through the co-simulation driver instead
    // of `Experiment::run`. Equality is exact: the 1-node cluster is
    // bit-identical to the plain experiment, so any drift here means the
    // cluster layer perturbed the node simulation.
    for (file, row, column, template) in [
        ("fig01_collapse.csv", "256K", "120 Streams", fig01_point(2, 256 * KIB)),
        ("fig12_eight_disks.csv", "60", "No Readahead", fig12_point(60, None)),
        ("fig13_dispatch_staged.csv", "10", "D = S (from Fig. 12)", fig13_point(10, false)),
    ] {
        let c = ClusterExperiment::builder()
            .template(template)
            .run()
            .expect("figure templates are valid 1-node clusters");
        assert_cell(file, row, column, c.total_throughput_mbs());
    }
}
