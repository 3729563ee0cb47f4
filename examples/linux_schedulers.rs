//! Kernel I/O scheduler face-off (the Figure 2 scenario): xdd-style 4 KiB
//! sequential readers over one disk, under noop, deadline, CFQ and
//! anticipatory block-layer scheduling.
//!
//! ```text
//! cargo run --release --example linux_schedulers
//! ```

use seqio::hostsched::SchedKind;
use seqio::node::CostModel;
use seqio::prelude::*;
use seqio::simcore::units::KIB;

fn main() {
    let stream_counts = [1usize, 8, 32, 128];
    let kinds = [SchedKind::Noop, SchedKind::Deadline, SchedKind::Cfq, SchedKind::Anticipatory];

    println!("4 KiB sequential reads through a Linux-like page cache + block layer\n");
    print!("{:>14}", "streams");
    for k in kinds {
        print!("{:>14}", k.name());
    }
    println!();

    for n in stream_counts {
        print!("{n:>14}");
        for k in kinds {
            let r = Experiment::builder()
                .streams_per_disk(n)
                .request_size(4 * KIB)
                .frontend(Frontend::Linux { scheduler: k })
                .costs(CostModel::local_xdd())
                .warmup(SimDuration::from_secs(2))
                .duration(SimDuration::from_secs(4))
                .seed(5)
                .run();
            print!("{:>14.1}", r.total_throughput_mbs());
        }
        println!();
    }

    println!(
        "\nThe anticipatory scheduler's deceptive-idleness wait keeps each reader's \
         fetches contiguous and wins at every concurrency level — yet all of them \
         fall off a cliff as readers multiply. That residual sensitivity is the \
         problem the paper's stream scheduler removes (see `quickstart`)."
    );
}
