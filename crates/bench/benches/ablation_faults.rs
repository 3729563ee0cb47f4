//! Ablation — graceful degradation under a straggler disk.
//!
//! The paper assumes healthy hardware; this ablation injects a seeded
//! straggler fault (a service-time multiplier on every media operation of
//! disk 0) and sweeps its severity. The question: does the stream
//! scheduler's advantage over the direct path survive a degraded disk, or
//! does a slow spindle erase the benefit of staged sequential fills?
//! Every point is [`fault_point`]; the quick grid is the straggler rows of
//! `probe faults`, whose report checks the acceptance bars (scheduler >=
//! 2x direct at every severity, and the 8x straggler costs throughput).

use seqio_bench::reports::fault_point;
use seqio_bench::{window_secs, Figure, Grid};

fn main() {
    let window = window_secs((3, 3), (4, 8));
    let mut grid = Grid::new();
    for (label, scheduler) in [("Direct", false), ("Scheduler", true)] {
        for factor in [1.0, 2.0, 4.0, 8.0] {
            grid =
                grid.point(label, format!("{factor:.0}x"), fault_point(factor, scheduler, window));
        }
    }

    let mut fig = Figure::new(
        "Ablation",
        "Throughput vs straggler severity: direct vs scheduler (100 streams, 1 disk)",
        "Straggler factor",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());
    fig.report("ablation_faults");
}
