//! The 1-node equivalence oracle: a single-node cluster under the default
//! router is the plain `Experiment` — bit for bit, with the observability
//! recorder both off and on — and the fig01 golden subset reproduces
//! through the cluster path unchanged.

use seqio_cluster::ClusterExperiment;
use seqio_node::span::spans_to_csv;
use seqio_node::{Experiment, Frontend, NodeShape, ObsConfig, RunResult};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::SimDuration;

#[path = "../../../tests/support/fig01_golden.rs"]
mod fig01_golden;

/// Every observable a figure could plot, plus the diagnostics (same
/// shape as the node-level sweep determinism fingerprint).
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

fn template() -> Experiment {
    Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(5)
        .request_size(64 * KIB)
        .frontend(Frontend::stream_scheduler_with_readahead(MIB))
        .warmup(SimDuration::from_millis(500))
        .duration(SimDuration::from_secs(1))
        .seed(33)
        .build()
}

fn one_node_cluster(t: Experiment) -> ClusterExperiment {
    // No base seed: the node must keep the template seed verbatim.
    ClusterExperiment::builder().template(t).nodes(1).build()
}

#[test]
fn one_node_identity_cluster_is_the_plain_experiment() {
    let plain = template().run();
    let cluster = one_node_cluster(template()).run().unwrap();

    // The node ran the template spec verbatim and produced the same
    // RunResult bit for bit.
    let node = &cluster.nodes[0];
    assert_eq!(node.assigned_streams, 40);
    let spec = node.spec.as_ref().unwrap();
    assert_eq!(spec.seed, 33);
    assert_eq!(spec.streams_per_disk, 5);
    assert!(spec.stream_counts.is_none(), "even shares must keep the uniform layout");
    assert_eq!(fingerprint(node.result.as_ref().unwrap()), fingerprint(&plain));

    // The merged cluster view degenerates to the node view: same
    // per-stream series (the makespan rescale ratio is exactly 1.0),
    // same window, same totals.
    assert_eq!(cluster.per_stream_mbs, plain.per_stream_mbs);
    assert_eq!(cluster.window, plain.window);
    assert_eq!(cluster.bytes_delivered, plain.bytes_delivered);
    assert_eq!(cluster.requests_completed, plain.requests_completed);
    assert_eq!(cluster.events_simulated, plain.events_simulated);
    assert_eq!(cluster.total_throughput_mbs().to_bits(), plain.total_throughput_mbs().to_bits());
    assert_eq!(cluster.mean_response_ms().to_bits(), plain.mean_response_ms().to_bits());
    assert_eq!(cluster.p99_response_ms().to_bits(), plain.p99_response_ms().to_bits());
}

#[test]
fn equivalence_holds_with_the_observability_recorder_on() {
    let obs = ObsConfig::all().sample_every(SimDuration::from_millis(5));
    let plain = template().observe(obs).run();
    let cluster = one_node_cluster(template().observe(obs)).run().unwrap();
    let node_result = cluster.nodes[0].result.as_ref().unwrap();

    // Simulation outputs stay bit-identical with recording enabled.
    assert_eq!(fingerprint(node_result), fingerprint(&plain));

    // And the recordings themselves match the plain run's.
    let plain_spans = plain.spans.as_ref().expect("spans recorded");
    let node_spans = node_result.spans.as_ref().expect("spans recorded");
    assert_eq!(spans_to_csv(node_spans), spans_to_csv(plain_spans));

    let plain_series = plain.metrics.as_ref().expect("metrics recorded");
    let merged = cluster.metrics.as_ref().expect("cluster merges node series");
    assert_eq!(merged.len(), plain_series.len());
    assert_eq!(merged.times(), plain_series.times());
    for name in plain_series.names() {
        let prefixed = format!("node0.{name}");
        assert_eq!(
            merged.column_by_name(&prefixed).unwrap_or_else(|| panic!("{prefixed} missing")),
            plain_series.column_by_name(name).unwrap(),
            "column {name} drifted through the merge"
        );
    }
}

/// The Figure-1 golden subset reproduced through 1-node clusters: the cluster path must not perturb a single byte of the
/// figure pipeline.
#[test]
fn fig01_subset_golden_reproduces_through_the_cluster_path() {
    let mbs: Vec<f64> = fig01_golden::points()
        .into_iter()
        .map(|t| one_node_cluster(t).run().unwrap().total_throughput_mbs())
        .collect();
    let (csv, hash) = fig01_golden::render(&mbs);
    assert_eq!(
        hash,
        fig01_golden::GOLDEN,
        "fig01 subset drifted when run through 1-node clusters:\n{csv}"
    );
}
