//! Parameter exploration: how `R` (read-ahead) and `M` (staging memory)
//! trade off at a fixed stream count — the decision surface behind the
//! paper's Figures 10 and 11.
//!
//! The grid of experiments runs on the [`Sweep`] worker pool (all cores by
//! default; override with `--jobs`/`SEQIO_JOBS`). Results come back in grid
//! order whatever the worker count, so the table below is deterministic.
//!
//! ```text
//! cargo run --release --example parameter_sweep [-- --jobs N]
//! ```

use seqio::prelude::*;
use seqio::simcore::units::{format_bytes, KIB, MIB};

fn main() {
    let streams = 60;
    let readaheads = [256 * KIB, MIB, 4 * MIB, 8 * MIB];
    let memories = [16 * MIB, 64 * MIB, 256 * MIB];

    let jobs = std::env::args()
        .skip_while(|a| a != "--jobs")
        .nth(1)
        .map(|v| v.parse::<usize>().expect("--jobs N"));

    // Build every valid (R, M) cell up front; the sweep runs them in
    // parallel and hands the results back in the same order.
    let mut cells: Vec<(u64, u64)> = Vec::new();
    let mut sweep = Sweep::builder();
    for ra in readaheads {
        for m in memories {
            if m < ra {
                continue;
            }
            cells.push((ra, m));
            let cfg = ServerConfig::memory_limited(m, ra, 1);
            sweep = sweep.point(
                Experiment::builder()
                    .streams_per_disk(streams)
                    .frontend(Frontend::StreamScheduler(cfg))
                    .warmup(SimDuration::from_secs(5))
                    .duration(SimDuration::from_secs(6))
                    .seed(9)
                    .build(),
            );
        }
    }
    if let Some(j) = jobs {
        sweep = sweep.jobs(j);
    }
    let report = sweep.run();
    let mut results = cells.iter().zip(report.results()).peekable();

    println!("60 streams, one disk, 64 KiB requests; D derived as M/(R*N), N = 1\n");
    print!("{:>10}", "R \\ M");
    for m in memories {
        print!("{:>12}", format_bytes(m));
    }
    println!();

    for ra in readaheads {
        print!("{:>10}", format_bytes(ra));
        for m in memories {
            match results.peek() {
                Some(&(&(cr, cm), r)) if cr == ra && cm == m => {
                    print!("{:>12.1}", r.total_throughput_mbs());
                    results.next();
                }
                _ => print!("{:>12}", "-"),
            }
        }
        println!();
    }

    eprintln!(
        "\nran {} experiments on {} worker(s) in {:.1}s",
        report.len(),
        report.jobs,
        report.wall.as_secs_f64()
    );
    println!(
        "\nReading the table: moving right (more memory, more dispatched streams) helps \
         far less than moving down (larger read-ahead per dispatched stream) — the \
         paper's central Figure 11 observation. Even 16 MB of staging with 8 MB \
         read-ahead outperforms 256 MB of staging at 256 KB."
    );
}
