//! The cluster report's two scale-out bars, each on only the points it
//! needs at the report's 100-streams-per-disk operating point, so a
//! failing bar is named by its own test. The bars themselves are
//! [`scaling_bar`] and [`straggler_bar`], which `probe cluster` and
//! `tests/probe_reports.rs` check too.

use seqio_bench::reports::{cluster_point, scaling_bar, straggler_bar};
use seqio_cluster::ShardPolicy;

const STREAMS_PER_DISK: usize = 100;

#[test]
fn four_healthy_nodes_scale_aggregate_throughput_at_least_3_5x() {
    let one = cluster_point(1, STREAMS_PER_DISK, ShardPolicy::HashByStream, None);
    let four = cluster_point(4, STREAMS_PER_DISK, ShardPolicy::HashByStream, None);
    scaling_bar(&one, &four, STREAMS_PER_DISK).unwrap_or_else(|bar| panic!("{bar}"));
}

#[test]
fn straggler_aware_routing_beats_hash_by_at_least_1_5x_under_one_straggler() {
    let hash = cluster_point(4, STREAMS_PER_DISK, ShardPolicy::HashByStream, Some(1));
    let aware = cluster_point(4, STREAMS_PER_DISK, ShardPolicy::StragglerAware, Some(1));
    straggler_bar(&hash, &aware, STREAMS_PER_DISK).unwrap_or_else(|bar| panic!("{bar}"));
}
