//! The `cluster_scaling` figure's two scale-out bars, each on only the
//! points it needs at 100 streams per disk, so a failing bar is named by
//! its own test. The bars themselves are [`scaling_bar`] and
//! [`straggler_bar`], which the figure checks at 50 and 100 streams per
//! disk.

use seqio_bench::figures::{cluster_scaling_point, scaling_bar, straggler_bar};
use seqio_cluster::ShardPolicy;

const STREAMS_PER_DISK: usize = 100;

#[test]
fn four_healthy_nodes_scale_aggregate_throughput_at_least_3_5x() {
    let one = cluster_scaling_point(1, STREAMS_PER_DISK, ShardPolicy::HashByStream, false);
    let four = cluster_scaling_point(4, STREAMS_PER_DISK, ShardPolicy::HashByStream, false);
    scaling_bar(&one, &four, STREAMS_PER_DISK).unwrap_or_else(|bar| panic!("{bar}"));
}

#[test]
fn straggler_aware_routing_beats_hash_by_at_least_1_5x_under_one_straggler() {
    let hash = cluster_scaling_point(4, STREAMS_PER_DISK, ShardPolicy::HashByStream, true);
    let aware = cluster_scaling_point(4, STREAMS_PER_DISK, ShardPolicy::StragglerAware, true);
    straggler_bar(&hash, &aware, STREAMS_PER_DISK).unwrap_or_else(|bar| panic!("{bar}"));
}
