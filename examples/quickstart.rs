//! Quick start: the paper's headline result in one page.
//!
//! 100 sequential streams on one disk collapse the direct path to a few
//! MB/s; the host-level stream scheduler restores near-maximum throughput
//! with a bounded amount of staging memory.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use seqio::prelude::*;
use seqio::simcore::units::MIB;

fn main() {
    let streams = 100;
    let warmup = SimDuration::from_secs(5);
    let duration = SimDuration::from_secs(6);

    println!("single disk, {streams} sequential streams, 64 KiB requests\n");

    // Baseline: requests flow straight to the disk.
    let direct = Experiment::builder()
        .streams_per_disk(streams)
        .warmup(warmup)
        .duration(duration)
        .seed(7)
        .run();
    println!(
        "direct path:       {:6.1} MB/s   mean response {:7.1} ms",
        direct.total_throughput_mbs(),
        direct.mean_response_ms()
    );

    // The paper's scheduler: detect streams, dispatch them with 4 MiB
    // read-ahead, stage the data in host memory.
    let sched = Experiment::builder()
        .streams_per_disk(streams)
        .frontend(Frontend::stream_scheduler_with_readahead(4 * MIB))
        .warmup(warmup)
        .duration(duration)
        .seed(7)
        .run();
    println!(
        "stream scheduler:  {:6.1} MB/s   mean response {:7.1} ms",
        sched.total_throughput_mbs(),
        sched.mean_response_ms()
    );

    let m = sched.server_metrics.expect("stream scheduler reports metrics");
    println!(
        "\nscheduler internals: {} streams detected, {} read-ahead fills, \
         {} of {} requests served from memory",
        m.streams_detected, m.fills_issued, m.memory_hits, m.client_requests
    );
    println!(
        "\nimprovement: {:.1}x (the paper reports up to 4x at 100 streams)",
        sched.total_throughput_mbs() / direct.total_throughput_mbs()
    );
}
