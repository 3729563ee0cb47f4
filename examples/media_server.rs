//! A media-server capacity-planning study — the workload that motivates the
//! paper's introduction.
//!
//! A video service stores titles on an 8-disk storage node and must decide
//! how many concurrent 1 MB/s viewers it can admit. We sweep the viewer
//! count and compare the direct path against the auto-tuned stream
//! scheduler, reporting sustained throughput, per-viewer bandwidth and
//! response times.
//!
//! ```text
//! cargo run --release --example media_server
//! ```

use seqio::prelude::*;
use seqio::simcore::units::GIB;

fn main() {
    let node_memory = GIB; // the testbed's 1 GB storage node
    let shape = NodeShape::eight_disk();
    let disks = shape.total_disks();
    let per_viewer_need = 1.0; // MB/s per stream for smooth playout

    println!("8-disk storage node, 64 KiB requests, viewers spread across disks");
    println!("target per-viewer bandwidth: {per_viewer_need:.1} MB/s\n");
    println!(
        "{:>14} {:>16} {:>16} {:>12} {:>12}",
        "viewers/disk", "direct MB/s", "scheduler MB/s", "dir ok?", "sched ok?"
    );

    for viewers_per_disk in [10usize, 30, 60, 100] {
        let total = viewers_per_disk * disks;
        let warmup = SimDuration::from_secs(8);
        let duration = SimDuration::from_secs(8);

        let direct = Experiment::builder()
            .shape(shape.clone())
            .streams_per_disk(viewers_per_disk)
            .warmup(warmup)
            .duration(duration)
            .seed(42)
            .run();

        // Static auto-tuning from node memory and disk count (paper §7:
        // the system "adjusts statically to different storage node
        // configurations").
        let cfg = ServerConfig::auto_tune(node_memory, disks);
        let sched = Experiment::builder()
            .shape(shape.clone())
            .streams_per_disk(viewers_per_disk)
            .frontend(Frontend::StreamScheduler(cfg))
            .warmup(warmup)
            .duration(duration)
            .seed(42)
            .run();

        let per_dir = direct.total_throughput_mbs() / total as f64;
        let per_sched = sched.total_throughput_mbs() / total as f64;
        println!(
            "{:>14} {:>16.1} {:>16.1} {:>12} {:>12}",
            viewers_per_disk,
            direct.total_throughput_mbs(),
            sched.total_throughput_mbs(),
            if per_dir >= per_viewer_need { "yes" } else { "NO" },
            if per_sched >= per_viewer_need { "yes" } else { "NO" },
        );
    }

    println!(
        "\nWith the scheduler the node sustains high aggregate throughput however many \
         viewers share each disk — the paper's 'insensitivity' property — so capacity \
         is planned from bandwidth alone instead of a per-disk stream budget."
    );
    let cfg = ServerConfig::auto_tune(node_memory, disks);
    println!(
        "auto-tuned parameters for this node: D={}, R={}K, N={}, M={}MB",
        cfg.dispatch_streams,
        cfg.read_ahead_bytes / 1024,
        cfg.requests_per_residency,
        cfg.memory_bytes / (1024 * 1024)
    );
}
