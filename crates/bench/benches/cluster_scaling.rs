//! Cluster scale-out: aggregate throughput vs node count, healthy and
//! with one straggler node, for the hash and straggler-aware routers.
//!
//! Every point is [`cluster_point`], the batch workload of `probe
//! cluster`: a fixed request budget per stream from time zero, so a
//! node's realized window is its drain time and the cluster window is
//! the makespan across nodes. The scale-out acceptance bars are checked
//! by `seqio_bench::reports::cluster`, which `probe cluster` and the
//! `probe_reports` test run.

use seqio_bench::reports::cluster_point;
use seqio_bench::{quick_mode, Figure, Series};
use seqio_cluster::ShardPolicy;

fn main() {
    let node_counts = [1usize, 2, 4, 8];
    let spds: &[usize] = if quick_mode() { &[100] } else { &[50, 100] };

    let mut fig = Figure::new(
        "Cluster",
        "Aggregate throughput vs node count: healthy and one factor-4 straggler",
        "Nodes",
        "Aggregate throughput (MBytes/s)",
    );
    for &spd in spds {
        let mut healthy = Series::new(format!("Healthy S/disk={spd}"));
        let mut hash = Series::new(format!("Straggler hash S/disk={spd}"));
        let mut aware = Series::new(format!("Straggler aware S/disk={spd}"));
        for &nodes in &node_counts {
            // The straggler lives on node 1 when the cluster has one
            // (node 0 on a 1-node cluster, where there is nowhere to
            // steer and both routers degenerate to the same deal).
            let straggler = Some(1usize.min(nodes - 1));
            let mbs = |policy, straggler| {
                cluster_point(nodes, spd, policy, straggler).total_throughput_mbs()
            };
            healthy.push(format!("{nodes}"), mbs(ShardPolicy::HashByStream, None));
            hash.push(format!("{nodes}"), mbs(ShardPolicy::HashByStream, straggler));
            aware.push(format!("{nodes}"), mbs(ShardPolicy::StragglerAware, straggler));
        }
        fig.add(healthy);
        fig.add(hash);
        fig.add(aware);
    }
    fig.report("cluster_scaling");
}
