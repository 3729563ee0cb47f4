//! The committed figures, one definition each.
//!
//! Each definition runs its figure at the one scale its committed CSV
//! records, checks the figure's shape bars (the only copy of them) and
//! returns the [`Figure`]. [`FIGURES`] maps every `*.csv` under
//! `bench_results/` to its definition: `probe figures` writes them all, and
//! `tests/figure_csv_drift.rs` re-runs at least one cell of each through
//! the same `*_point` function the figure's grid is built from.

use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig};
use seqio_cluster::{ClusterExperiment, ClusterResult, SessionSlo, ShardPolicy};
use seqio_core::ServerConfig;
use seqio_disk::{CacheConfig, QueuePolicy};
use seqio_hostsched::SchedKind;
use seqio_node::{
    CostModel, Experiment, ExperimentBuilder, FaultPlan, Frontend, NodeShape, Placement,
};
use seqio_scenario::{
    check_adaptive_bar, check_rescue_bar, degraded_rescue, run_row, MatrixRow, MatrixScale,
    ScenarioKind,
};
use seqio_simcore::units::{format_bytes, GIB, KIB, MIB};
use seqio_simcore::SimDuration;

use crate::{Figure, Grid, Series};

/// A figure definition: runs the figure, checks its shape bars and
/// returns it, or the first bar that failed.
pub type Definition = fn() -> Result<Figure, String>;

/// Every committed figure: its file under `bench_results/` and its
/// definition, in file-name order.
pub const FIGURES: [(&str, Definition); 19] = [
    ("ablation_classifier.csv", ablation_classifier),
    ("ablation_faults.csv", ablation_faults),
    ("ablation_queue_policy.csv", ablation_queue_policy),
    ("cluster_scaling.csv", cluster_scaling),
    ("fig01_collapse.csv", fig01_collapse),
    ("fig02_linux_sched.csv", fig02_linux_sched),
    ("fig04_request_size.csv", fig04_request_size),
    ("fig05_xdd_single.csv", fig05_xdd_single),
    ("fig06_segment_size.csv", fig06_segment_size),
    ("fig07_readahead_tradeoff.csv", fig07_readahead_tradeoff),
    ("fig08_controller_prefetch.csv", fig08_controller_prefetch),
    ("fig10_readahead.csv", fig10_readahead),
    ("fig11_memory.csv", fig11_memory),
    ("fig12_eight_disks.csv", fig12_eight_disks),
    ("fig13_dispatch_staged.csv", fig13_dispatch_staged),
    ("fig14_single_small_d.csv", fig14_single_small_d),
    ("fig15_response_time.csv", fig15_response_time),
    ("fig_slo.csv", fig_slo),
    ("scenario_matrix.csv", scenario_matrix),
];

/// The start of every single-node figure point: a `warmup` s warm-up, a
/// `window` s measured window and `seed`.
fn spec(warmup: u64, window: u64, seed: u64) -> ExperimentBuilder {
    Experiment::builder()
        .warmup(SimDuration::from_secs(warmup))
        .duration(SimDuration::from_secs(window))
        .seed(seed)
}

/// `"1 Stream"`, `"10 Streams"`: a series label by stream count.
fn streams_label(n: usize) -> String {
    format!("{n} Stream{}", if n == 1 { "" } else { "s" })
}

/// The smallest and the largest of `ys`.
fn range(ys: &[f64]) -> (f64, f64) {
    ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)))
}

/// The y values of `fig`'s series `label`.
fn ys(fig: &Figure, label: &str) -> Vec<f64> {
    fig.series.iter().find(|s| s.label == label).map(Series::ys).expect("a series of the figure")
}

/// One Fig. 1 cell: `per_disk` streams on each of 60 disks reading
/// `request_size` requests through the direct path (seed 11, 4 s warm-up,
/// 8 s window).
pub fn fig01_point(per_disk: usize, request_size: u64) -> Experiment {
    spec(4, 8, 11)
        .shape(NodeShape::sixty_disk())
        .streams_per_disk(per_disk)
        .request_size(request_size)
        .build()
}

/// `fig01_collapse.csv` — throughput collapse for multiple sequential
/// streams on a 60-disk setup. The paper runs 60/100/300/500 streams over
/// 60 disks at 8K–256K requests; streams spread uniformly here, so the
/// totals are the nearest exact multiples: 60, 120, 300 and 480.
///
/// Bar: at 256K, 480 streams deliver under half of what 60 do.
///
/// # Errors
///
/// Returns the bar when it fails.
pub fn fig01_collapse() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for per_disk in [1, 2, 5, 8] {
        let label = format!("{} Streams", per_disk * 60);
        for req in [8 * KIB, 16 * KIB, 64 * KIB, 128 * KIB, 256 * KIB] {
            grid = grid.point(&label, format_bytes(req), fig01_point(per_disk, req));
        }
    }
    let mut fig = Figure::new(
        "Figure 1",
        "Throughput collapse for multiple sequential streams (60 disks)",
        "Request size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (few, many) = (fig.series[0].ys()[4], fig.series[3].ys()[4]);
    ensure!(many < few / 2.0, "collapse missing: {many} vs {few} MB/s at the largest request");
    Ok(fig)
}

/// One Fig. 2 cell: `streams` xdd readers of 4 KiB on one disk under the
/// Linux `scheduler` with the kernel read-ahead and the local xdd costs (seed
/// 22, 3 s warm-up, 6 s window).
pub fn fig02_point(scheduler: SchedKind, streams: usize) -> Experiment {
    spec(3, 6, 22)
        .streams_per_disk(streams)
        .request_size(4 * KIB)
        .frontend(Frontend::Linux { scheduler })
        .costs(CostModel::local_xdd())
        .build()
}

/// `fig02_linux_sched.csv` — the anticipatory, CFQ and noop schedulers
/// for 1–256 concurrent sequential readers (xdd on ext3, 4 KB reads, one
/// disk). All degrade sharply beyond 16 streams; anticipatory is best.
///
/// Bars: anticipatory at least matches noop at 256 streams and still loses
/// over 2.5x from 1 stream to 256 (the paper: ~4x).
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig02_linux_sched() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for kind in [SchedKind::Anticipatory, SchedKind::Cfq, SchedKind::Noop] {
        let label = format!("{} scheduler", kind.name());
        for n in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
            grid = grid.point(&label, n.to_string(), fig02_point(kind, n));
        }
    }
    let mut fig = Figure::new(
        "Figure 2",
        "I/O scheduler performance (xdd, 4KB reads, one disk)",
        "Concurrent Seq. Streams",
        "Aggr. Read Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (antic, noop) = (fig.series[0].ys(), fig.series[2].ys());
    let last = antic.len() - 1;
    ensure!(antic[last] >= noop[last], "anticipatory must win at 256 streams");
    let factor = antic[0] / antic[last];
    ensure!(factor > 2.5, "anticipatory should lose >2.5x by 256 streams, lost {factor:.1}x");
    Ok(fig)
}

/// One Fig. 4 cell: `streams` direct-path readers of `request_size` on one
/// disk whose segments and read-ahead equal the request size, with the
/// segment count shrunk to keep the cache at 8 MiB, so the disk prefetches
/// nothing (seed 44, 4 s warm-up, 8 s window).
pub fn fig04_point(streams: usize, request_size: u64) -> Experiment {
    let mut shape = NodeShape::single_disk();
    shape.disk.cache = CacheConfig {
        segment_count: ((8 * MIB) / request_size).max(1) as usize,
        segment_bytes: request_size,
        read_ahead_bytes: request_size,
    };
    spec(4, 8, 44).shape(shape).streams_per_disk(streams).request_size(request_size).build()
}

/// `fig04_request_size.csv` — the impact of request size on throughput
/// with segment = request and an 8 MB disk cache.
///
/// Bars: every stream count gains from 8K to 256K requests, and 1 stream
/// delivers over twice what 100 do at 8K.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig04_request_size() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [1, 10, 30, 60, 100] {
        for req in [8 * KIB, 16 * KIB, 64 * KIB, 128 * KIB, 256 * KIB] {
            grid = grid.point(streams_label(n), format_bytes(req), fig04_point(n, req));
        }
    }
    let mut fig = Figure::new(
        "Figure 4",
        "Impact of request size on throughput (segment = request, 8MB cache)",
        "I/O Request Size",
        "Throughput (MB/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    for s in &fig.series {
        let ys = s.ys();
        ensure!(ys[ys.len() - 1] > ys[0], "{}: larger requests must help ({ys:?})", s.label);
    }
    let (one, hundred) = (fig.series[0].ys()[0], fig.series[4].ys()[0]);
    ensure!(one > 2.0 * hundred, "collapse missing at the smallest request size");
    Ok(fig)
}

/// One Fig. 5 cell: `streams` xdd readers of `request_size` placed 1 GiB
/// apart on one disk with its fixed segments and the local xdd costs (seed
/// 55, 4 s warm-up, 8 s window).
pub fn fig05_point(streams: usize, request_size: u64) -> Experiment {
    spec(4, 8, 55)
        .streams_per_disk(streams)
        .request_size(request_size)
        .placement(Placement::Interval(GIB))
        .costs(CostModel::local_xdd())
        .build()
}

/// `fig05_xdd_single.csv` — the real-disk counterpart of Fig. 4: the
/// drive's fixed segments prefetch, so small requests do better than in
/// Fig. 4, and throughput still degrades with the stream count.
///
/// Bars: at 8K, 1 stream delivers over twice what 50 do, and over 15 MB/s.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig05_xdd_single() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [1, 10, 20, 30, 50] {
        for req in [8 * KIB, 16 * KIB, 64 * KIB, 128 * KIB, 256 * KIB] {
            grid = grid.point(streams_label(n), format_bytes(req), fig05_point(n, req));
        }
    }
    let mut fig = Figure::new(
        "Figure 5",
        "Xdd throughput with a single disk (fixed segments, 1GB intervals)",
        "Request Size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (one, many) = (fig.series[0].ys()[0], fig.series[4].ys()[0]);
    ensure!(one > 2.0 * many, "many streams must be far slower than one");
    ensure!(one > 15.0, "fixed-segment prefetch should keep 1-stream small reads fast");
    Ok(fig)
}

/// One Fig. 6 cell: 30 direct-path streams of 64 KiB requests on one disk
/// with 32 segments of `segment_bytes`, each read ahead in full (seed 66,
/// 4 s warm-up, 8 s window).
pub fn fig06_point(segment_bytes: u64) -> Experiment {
    let mut shape = NodeShape::single_disk();
    shape.disk.cache =
        CacheConfig { segment_count: 32, segment_bytes, read_ahead_bytes: segment_bytes };
    spec(4, 8, 66).shape(shape).streams_per_disk(30).request_size(64 * KIB).build()
}

/// `fig06_segment_size.csv` — the effect of disk prefetching as the
/// segment size grows from 32K to 2M (so the cache grows with it). The
/// paper: ~8 MB/s at 32K to ~40 MB/s at 2M.
///
/// Bar: 2M segments deliver over 3x what 32K segments do.
///
/// # Errors
///
/// Returns the bar when it fails.
pub fn fig06_segment_size() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for seg in [32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB] {
        grid = grid.point("30 Streams", format_bytes(seg), fig06_point(seg));
    }
    let mut fig = Figure::new(
        "Figure 6",
        "Effect of disk segment size (32 segments, 30 streams, 64K requests)",
        "Segment size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let ys = fig.series[0].ys();
    let (first, last) = (ys[0], ys[ys.len() - 1]);
    ensure!(last > 3.0 * first, "segment growth should help >3x: {first:.1} -> {last:.1}");
    Ok(fig)
}

/// One Fig. 7 cell: `streams` direct-path streams of 64 KiB requests on
/// one disk whose cache is `segments` segments of `segment_bytes`, each
/// read ahead in full (seed 77, 4 s warm-up, 8 s window).
pub fn fig07_point(streams: usize, segments: usize, segment_bytes: u64) -> Experiment {
    let mut shape = NodeShape::single_disk();
    shape.disk.cache =
        CacheConfig { segment_count: segments, segment_bytes, read_ahead_bytes: segment_bytes };
    spec(4, 8, 77).shape(shape).streams_per_disk(streams).request_size(64 * KIB).build()
}

/// `fig07_readahead_tradeoff.csv` — read-ahead at a fixed 8 MB disk
/// cache, split from 128x64K to 8x1M. Larger segments help while segments
/// outnumber streams; past that, LRU reclaims prefetched data before use.
///
/// Bars: 1 stream gains from 128x64K to 8x1M, and 100 streams over 8x1M
/// deliver under half of what 1 stream does.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig07_readahead_tradeoff() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [1, 10, 20, 30, 50, 100] {
        for (count, seg) in
            [(128, 64 * KIB), (64, 128 * KIB), (32, 256 * KIB), (16, 512 * KIB), (8, MIB)]
        {
            grid = grid.point(
                streams_label(n),
                format!("{count}x{}", format_bytes(seg)),
                fig07_point(n, count, seg),
            );
        }
    }
    let mut fig = Figure::new(
        "Figure 7",
        "Read-ahead vs segment count at a fixed 8MB disk cache (64K requests)",
        "#Segments x Segment size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (one, hundred) = (fig.series[0].ys(), fig.series[5].ys());
    ensure!(one[4] > one[0], "single stream should improve with segment size: {one:?}");
    ensure!(hundred[4] < one[4] / 2.0, "100 streams over 8 segments must thrash");
    Ok(fig)
}

/// One Fig. 8 cell: `streams` direct-path streams of 64 KiB requests on one
/// disk behind a 128 MiB controller cache that prefetches `prefetch` bytes
/// per stream (seed 88, 4 s warm-up, 8 s window).
pub fn fig08_point(streams: usize, prefetch: u64) -> Experiment {
    let mut shape = NodeShape::single_disk();
    shape.controller = shape.controller.with_prefetch(128 * MIB, prefetch);
    spec(4, 8, 88).shape(shape).streams_per_disk(streams).request_size(64 * KIB).build()
}

/// `fig08_controller_prefetch.csv` — prefetching at the controller level.
/// The paper's collapse at 4 MB and 60–100 streams does not reproduce:
/// waiting requests coalesce onto in-flight fetches and closed-loop
/// clients drain each extent before FIFO replacement reaches it
/// (EXPERIMENTS.md, known divergence 1).
///
/// Bars: 1 stream stays within 2x across prefetch sizes, and at 100
/// streams the best prefetch size delivers over 2.5x the 64K one.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig08_controller_prefetch() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [1, 10, 30, 60, 100] {
        for pf in [64 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB] {
            grid = grid.point(streams_label(n), format_bytes(pf), fig08_point(n, pf));
        }
    }
    let mut fig = Figure::new(
        "Figure 8",
        "Prefetching at the controller level (128MB controller cache)",
        "Prefetch Size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let one = fig.series[0].ys();
    let (lo, hi) = range(&one);
    ensure!(hi / lo < 2.0, "1 stream should stay within 2x across prefetch sizes: {one:?}");
    let hundred = fig.series[4].ys();
    ensure!(range(&hundred).1 > 2.5 * hundred[0], "good prefetch must far exceed 64K: {hundred:?}");
    Ok(fig)
}

/// One Fig. 10 cell: `streams` streams of 64 KiB requests on one disk
/// through the stream scheduler with every stream dispatched at
/// `read_ahead`, or through the direct path for `None` (seed 1010, 8 s
/// warm-up, 12 s window).
pub fn fig10_point(streams: usize, read_ahead: Option<u64>) -> Experiment {
    let mut b = spec(8, 12, 1010).streams_per_disk(streams);
    if let Some(ra) = read_ahead {
        b = b.frontend(Frontend::stream_scheduler_with_readahead(ra));
    }
    b.build()
}

/// `fig10_readahead.csv` — the scheduler's read-ahead `R` with adequate
/// memory (`D = S`, `N = 1`, `M = D*R*N`) against the direct path. The
/// paper: R = 8M reaches ~50 of 55 MB/s at every stream count, the
/// baseline ~5.
///
/// Bars: R = 8M stays above 35 MB/s at every stream count and beats the
/// direct path over 3x at 100 streams.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig10_readahead() -> Result<Figure, String> {
    let counts = [10, 30, 60, 100];
    let mut grid = Grid::new();
    for ra in [8 * MIB, 2 * MIB, MIB, 512 * KIB, 128 * KIB] {
        let label = format!("R = {} (M = S*{0})", format_bytes(ra));
        for n in counts {
            grid = grid.point(&label, n.to_string(), fig10_point(n, Some(ra)));
        }
    }
    for n in counts {
        grid = grid.point("No Readahead", n.to_string(), fig10_point(n, None));
    }
    let mut fig = Figure::new(
        "Figure 10",
        "Effect of read-ahead, all streams dispatched (D=S, N=1, M=D*R)",
        "Streams per Disk",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (big, none) = (fig.series[0].ys(), fig.series[5].ys());
    ensure!(big.iter().all(|&y| y > 35.0), "R=8M must stay near max: {big:?}");
    let factor = big[3] / none[3];
    ensure!(factor > 3.0, "R=8M should beat no-RA by >3x at 100 streams, got {factor:.1}x");
    Ok(fig)
}

/// One Fig. 11 cell: `streams` streams on one disk through the stream
/// scheduler at `read_ahead`, dispatching as many streams as `memory`
/// holds buffers (`D = M / R`, `N = 1`; seed 1111, 8 s warm-up, 12 s
/// window).
///
/// # Panics
///
/// Panics when `memory` holds no buffer of `read_ahead`.
pub fn fig11_point(streams: usize, read_ahead: u64, memory: u64) -> Experiment {
    let cfg = ServerConfig::memory_limited(memory, read_ahead, 1);
    spec(8, 12, 1111).streams_per_disk(streams).frontend(Frontend::StreamScheduler(cfg)).build()
}

/// `fig11_memory.csv` — the storage node's memory size, with the dispatch
/// set limited to what it holds.
///
/// Bars: 1 stream at R = 8M spans under 20 MB/s across memory sizes, and
/// at 100 streams R = 8M in 16 MB beats R = 256K in 256 MB.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig11_memory() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for ra in [8 * MIB, MIB, 256 * KIB] {
        for n in [1, 10, 100] {
            let label = format!("S={n} (RA={})", format_bytes(ra));
            for m in [8 * MIB, 16 * MIB, 32 * MIB, 64 * MIB, 128 * MIB, 256 * MIB] {
                grid = grid.point(&label, format_bytes(m), fig11_point(n, ra, m));
            }
        }
    }
    let mut fig = Figure::new(
        "Figure 11",
        "Effect of storage memory size (D = M/(R*N), N = 1)",
        "Memory Size",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let single = fig.series[0].ys();
    let (lo, hi) = range(&single);
    ensure!(hi - lo < 20.0, "single stream should be flat-ish: {single:?}");
    let big_at_16m = ys(&fig, "S=100 (RA=8M)")[1];
    let small_at_256m = ys(&fig, "S=100 (RA=256K)")[5];
    ensure!(
        big_at_16m > small_at_256m,
        "8M-RA with 16MB memory ({big_at_16m:.1}) should beat 256K-RA with ample memory \
         ({small_at_256m:.1})"
    );
    Ok(fig)
}

/// One Fig. 12 cell: `streams` streams on each of 8 disks through the
/// stream scheduler with every stream dispatched at `read_ahead`, or
/// through the direct path for `None` (seed 1212, 10 s warm-up, 10 s
/// window).
pub fn fig12_point(streams: usize, read_ahead: Option<u64>) -> Experiment {
    let mut b = spec(10, 10, 1212).shape(NodeShape::eight_disk()).streams_per_disk(streams);
    if let Some(ra) = read_ahead {
        b = b.frontend(Frontend::stream_scheduler_with_readahead(ra));
    }
    b.build()
}

/// `fig12_eight_disks.csv` — an 8-disk controller with every stream
/// dispatched (`D = S`, `N = 1`): throughput stays far below the
/// controller's 450 MB/s whatever the read-ahead, because the controller
/// manages an enormous number of large resident buffers. At R = 2M and
/// 100 streams per disk the resident-pressure model self-relieves
/// (EXPERIMENTS.md, known divergence 3).
///
/// Bars: the R = 512K and 1M curves stay under 400 MB/s, and the mean of
/// all read-ahead curves under 350.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig12_eight_disks() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for ra in [None, Some(512 * KIB), Some(MIB), Some(2 * MIB)] {
        let label = ra.map_or("No Readahead".to_string(), |r| format!("R = {}", format_bytes(r)));
        for n in [10, 30, 60, 100] {
            grid = grid.point(&label, n.to_string(), fig12_point(n, ra));
        }
    }
    let mut fig = Figure::new(
        "Figure 12",
        "8-disk setup, all streams dispatched (D=S, N=1, M=D*R*N)",
        "Streams per Disk",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    for s in &fig.series[1..3] {
        let max = range(&s.ys()).1;
        ensure!(
            max < 400.0,
            "{}: D=S must stay below the controller maximum, got {max:.0}",
            s.label
        );
    }
    let all: Vec<f64> = fig.series[1..].iter().flat_map(Series::ys).collect();
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    ensure!(mean < 350.0, "mean across read-ahead curves should stay below 350, got {mean:.0}");
    Ok(fig)
}

/// One Fig. 13 cell: `streams` streams on each of 8 disks through the
/// stream scheduler at R = 512K, dispatching 8 streams of 128 requests
/// each (`small`) or every stream (`D = S`; seed 1313, 12 s warm-up, 12 s
/// window).
pub fn fig13_point(streams: usize, small: bool) -> Experiment {
    let frontend = if small {
        Frontend::StreamScheduler(ServerConfig::small_dispatch(8, 512 * KIB, 128))
    } else {
        Frontend::stream_scheduler_with_readahead(512 * KIB)
    };
    spec(12, 12, 1313)
        .shape(NodeShape::eight_disk())
        .streams_per_disk(streams)
        .frontend(frontend)
        .build()
}

/// `fig13_dispatch_staged.csv` — dispatching fewer streams than are
/// staged: `D = #disks`, `N = 128` against the collapsed `D = S` of
/// Fig. 12. The paper: ~80% of the controller's 450 MB/s.
///
/// Bars: at 100 streams per disk the small dispatch set delivers over 60%
/// of 450 MB/s and over 1.5x `D = S`.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig13_dispatch_staged() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [10, 30, 60, 100] {
        grid = grid.point("D = #disks, N = 128", n.to_string(), fig13_point(n, true));
        grid = grid.point("D = S (from Fig. 12)", n.to_string(), fig13_point(n, false));
    }
    let mut fig = Figure::new(
        "Figure 13",
        "Dispatching fewer streams than staged (8 disks, R=512K)",
        "Streams per Disk",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (small, all) = (fig.series[0].ys()[3], fig.series[1].ys()[3]);
    ensure!(
        small > 0.6 * 450.0,
        "small dispatch set should recover most of 450 MB/s, got {small:.0}"
    );
    ensure!(
        small > 1.5 * all,
        "D=#disks ({small:.0}) must beat D=S ({all:.0}) at 100 streams/disk"
    );
    Ok(fig)
}

/// One Fig. 14 cell: `streams` streams on one disk through the stream
/// scheduler, dispatching every stream at `all_dispatched` read-ahead, or
/// for `None` one stream of 128 requests of 512K at a time (seed 1414,
/// 10 s warm-up, 10 s window).
pub fn fig14_point(streams: usize, all_dispatched: Option<u64>) -> Experiment {
    let frontend = match all_dispatched {
        Some(ra) => Frontend::stream_scheduler_with_readahead(ra),
        None => Frontend::StreamScheduler(ServerConfig::small_dispatch(1, 512 * KIB, 128)),
    };
    spec(10, 10, 1414).streams_per_disk(streams).frontend(frontend).build()
}

/// `fig14_single_small_d.csv` — one disk with a small dispatch set (`D =
/// 1`, `N = 128`, `R = 512K`) against the all-dispatched R = 2M and 8M
/// curves of Fig. 10: it matches them with 64 MB of memory instead of up
/// to 800 MB and does not depend on the stream count.
///
/// Bars: the small dispatch set stays above 30 MB/s at every stream count
/// and reaches at least 90% of R = 2M at 100 streams.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig14_single_small_d() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for n in [10, 30, 60, 100] {
        grid = grid
            .point("R=512K, D=1, N=128", n.to_string(), fig14_point(n, None))
            .point("R=2M, D=S (Fig. 10)", n.to_string(), fig14_point(n, Some(2 * MIB)))
            .point("R=8M, D=S (Fig. 10)", n.to_string(), fig14_point(n, Some(8 * MIB)));
    }
    let mut fig = Figure::new(
        "Figure 14",
        "Single-disk throughput with a small dispatch set",
        "Streams per Disk",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (small, r2m) = (fig.series[0].ys(), fig.series[1].ys());
    ensure!(
        small.iter().all(|&y| y > 30.0),
        "D=1/N=128 should stay near the disk maximum: {small:?}"
    );
    ensure!(
        small[3] >= 0.9 * r2m[3],
        "D=1 ({:.0}) should at least match R=2M all-dispatched ({:.0})",
        small[3],
        r2m[3]
    );
    Ok(fig)
}

/// One Fig. 15 cell: `streams` streams of 64 KiB requests, one outstanding
/// each, on one disk through the stream scheduler at `read_ahead`,
/// dispatching as many streams as `memory` holds buffers (seed 1515, 8 s
/// warm-up, 12 s window).
///
/// # Panics
///
/// Panics when `memory` holds no buffer of `read_ahead`.
pub fn fig15_point(streams: usize, memory: u64, read_ahead: u64) -> Experiment {
    let cfg = ServerConfig::memory_limited(memory, read_ahead, 1);
    spec(8, 12, 1515).streams_per_disk(streams).frontend(Frontend::StreamScheduler(cfg)).build()
}

/// `fig15_response_time.csv` — the mean stream response time. The stream
/// count drives it; at a fixed count, more read-ahead lowers it because
/// more requests are served from memory.
///
/// Bars: in 256 MB, 100 streams wait over 10x longer than 1 at R = 256K,
/// and R = 8M lowers the 100-stream mean.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn fig15_response_time() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for m in [8 * MIB, 64 * MIB, 256 * MIB] {
        for n in [1, 10, 100] {
            let label = format!("S={n} (M={})", format_bytes(m));
            for ra in [256 * KIB, 512 * KIB, MIB, 2 * MIB, 8 * MIB] {
                grid = grid.point(&label, format_bytes(ra), fig15_point(n, m, ra));
            }
        }
    }
    let mut fig = Figure::new(
        "Figure 15",
        "Average stream response time (64K requests, 1 outstanding)",
        "ReadAhead",
        "Average Latency (msec)",
    );
    grid.run().fill(&mut fig, |r| r.mean_response_ms());

    let (one, hundred) = (ys(&fig, "S=1 (M=256M)"), ys(&fig, "S=100 (M=256M)"));
    ensure!(
        hundred[0] > 10.0 * one[0],
        "100 streams ({:.1} ms) must be far slower than 1 ({:.2} ms)",
        hundred[0],
        one[0]
    );
    ensure!(
        hundred[4] < hundred[0],
        "larger read-ahead should improve the 100-stream average: {hundred:?}"
    );
    Ok(fig)
}

/// One classifier-ablation cell: 100 streams of 64 KiB requests on one
/// disk, all dispatched at R = 1M, each detected once `reqs_to_detect`
/// requests have touched its region (seed 2121, 8 s warm-up, 8 s window).
pub fn classifier_point(reqs_to_detect: u64) -> Experiment {
    // Just under `reqs_to_detect` 128-block requests triggers on the Nth.
    let cfg = ServerConfig {
        detect_threshold_blocks: (reqs_to_detect - 1) * 128 + 64,
        ..ServerConfig::all_dispatched(100, MIB)
    };
    spec(8, 8, 2121)
        .streams_per_disk(100)
        .request_size(64 * KIB)
        .frontend(Frontend::StreamScheduler(cfg))
        .build()
}

/// `ablation_classifier.csv` — the classifier's detection threshold. A
/// lower one risks false positives on random workloads; a higher one
/// delays read-ahead. Plots throughput and the requests that went to disk
/// unclassified.
///
/// # Errors
///
/// Never: the ablation has no bar.
pub fn ablation_classifier() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for reqs in [1, 2, 4, 8] {
        grid = grid.point("throughput", reqs.to_string(), classifier_point(reqs));
    }
    let run = grid.run();
    let mut fig = Figure::new(
        "Ablation",
        "Classifier threshold (100 streams, R=1M, D=S)",
        "Detection threshold (64K requests)",
        "Throughput (MBytes/s)",
    );
    run.fill(&mut fig, |r| r.total_throughput_mbs());
    fig.add(run.extract("throughput", "direct requests (x1000)", |r| {
        r.server_metrics.as_ref().expect("stream scheduler metrics").direct_requests as f64 / 1000.0
    }));
    Ok(fig)
}

/// One fault-ablation cell: 100 streams on one disk under fault plan
/// `faults`, through the direct path or the stream scheduler at R = 4 MiB
/// (seed 11, 4 s warm-up, 8 s window).
pub fn faults_point(faults: FaultPlan, scheduler: bool) -> Experiment {
    let mut b = spec(4, 8, 11).streams_per_disk(100).faults(faults);
    if scheduler {
        b = b.frontend(Frontend::stream_scheduler_with_readahead(4 * MIB));
    }
    b.build()
}

/// `ablation_faults.csv` — throughput of the direct path and the stream
/// scheduler as disk 0 slows 1x to 8x, and as it fails 1% of its reads
/// (each retried): does the scheduler's advantage survive a degraded
/// disk?
///
/// Bars: the scheduler holds at least 2x direct at every straggler
/// severity, and the 8x straggler costs it throughput.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn ablation_faults() -> Result<Figure, String> {
    // A straggler starts when the measured window opens, so the warm-up
    // (stream detection, staging ramp-up) runs on healthy hardware.
    let straggler = |f| FaultPlan::new().straggler(0, f, SimDuration::from_secs(4), None);
    let mut rows: Vec<(String, FaultPlan)> =
        [1.0, 2.0, 4.0, 8.0].map(|f| (format!("{f:.0}x"), straggler(f))).into();
    rows.push(("1% read errors".into(), FaultPlan::new().read_errors(0, 0.01)));
    let mut grid = Grid::new();
    for (label, scheduler) in [("Direct", false), ("Scheduler", true)] {
        for (x, plan) in &rows {
            grid = grid.point(label, x, faults_point(plan.clone(), scheduler));
        }
    }
    let mut fig = Figure::new(
        "Ablation",
        "Throughput under a degraded disk: direct vs scheduler (100 streams, 1 disk)",
        "Disk fault",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());

    let (direct, sched) = (fig.series[0].ys(), fig.series[1].ys());
    for (i, (x, _)) in rows[..4].iter().enumerate() {
        ensure!(
            sched[i] >= 2.0 * direct[i],
            "{x} straggler: the scheduler held {:.2} MB/s, under 2x direct {:.2} MB/s",
            sched[i],
            direct[i]
        );
    }
    ensure!(
        sched[3] < sched[0],
        "the 8x straggler cost the scheduler nothing: {:.2} -> {:.2} MB/s",
        sched[0],
        sched[3]
    );
    Ok(fig)
}

/// One queue-policy-ablation cell: `streams` direct-path streams on one
/// disk that orders its queue by `policy` (seed 2525, 4 s warm-up, 8 s
/// window).
pub fn queue_policy_point(policy: QueuePolicy, streams: usize) -> Experiment {
    let mut shape = NodeShape::single_disk();
    shape.disk.queue_policy = policy;
    spec(4, 8, 2525).shape(shape).streams_per_disk(streams).build()
}

/// `ablation_queue_policy.csv` — what if the drive reordered its queue?
/// NCQ-style reordering is the obvious hardware answer to the collapse; it
/// softens it but does not remove it.
///
/// # Errors
///
/// Never: the ablation has no bar.
pub fn ablation_queue_policy() -> Result<Figure, String> {
    let mut grid = Grid::new();
    for policy in [QueuePolicy::Fifo, QueuePolicy::Sstf] {
        let label = format!("{policy:?}");
        for n in [1, 10, 30, 100] {
            grid = grid.point(&label, n.to_string(), queue_policy_point(policy, n));
        }
    }
    let mut fig = Figure::new(
        "Ablation",
        "Disk queue policy under the direct path (64K requests)",
        "Streams per Disk",
        "Throughput (MBytes/s)",
    );
    grid.run().fill(&mut fig, |r| r.total_throughput_mbs());
    Ok(fig)
}

/// Requests each stream of a `cluster_scaling.csv` batch reads.
const CLUSTER_REQUESTS: u64 = 16;

/// One `cluster_scaling.csv` cell: `nodes` nodes of one disk each, every
/// stream reading a 16-request batch of 64 KiB from time zero through the
/// stream scheduler at R = 512 KiB, dealt by `policy` (base seed 2026).
/// A node's window is its drain time, so the cluster window is the
/// makespan. With `straggler`, the disk of node 1 (of node 0 on a 1-node
/// cluster, where both routers deal alike) runs 4x slow from the start.
///
/// # Panics
///
/// Panics when `nodes` is zero.
pub fn cluster_scaling_point(
    nodes: usize,
    streams_per_disk: usize,
    policy: ShardPolicy,
    straggler: bool,
) -> ClusterResult {
    let template = Experiment::builder()
        .streams_per_disk(streams_per_disk)
        .request_size(64 * KIB)
        .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
        .requests_per_stream(CLUSTER_REQUESTS)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(120))
        .build();
    let mut b =
        ClusterExperiment::builder().template(template).nodes(nodes).policy(policy).base_seed(2026);
    if straggler {
        let plan = FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None);
        b = b.node_fault(1.min(nodes - 1), plan);
    }
    b.run().expect("a valid cluster point")
}

/// Fails unless `r` completed every request of its
/// [`cluster_scaling_point`] batch at `streams_per_disk`.
fn full_batch(r: &ClusterResult, streams_per_disk: usize) -> Result<(), String> {
    let batch = (r.nodes.len() * streams_per_disk) as u64 * CLUSTER_REQUESTS;
    ensure!(
        r.requests_completed == batch,
        "a {}-node run completed {} of {batch} requests",
        r.nodes.len(),
        r.requests_completed
    );
    Ok(())
}

/// The scale-out bar on a healthy 1-node and 4-node
/// [`cluster_scaling_point`]: both deliver their full batch and the
/// aggregate throughput scales >= 3.5x.
///
/// # Errors
///
/// Returns the first part of the bar that fails.
pub fn scaling_bar(
    one: &ClusterResult,
    four: &ClusterResult,
    streams_per_disk: usize,
) -> Result<(), String> {
    full_batch(one, streams_per_disk)?;
    full_batch(four, streams_per_disk)?;
    let (tp_one, tp_four) = (one.total_throughput_mbs(), four.total_throughput_mbs());
    let scaling = tp_four / tp_one;
    ensure!(
        scaling >= 3.5,
        "1 -> 4 healthy node scaling {scaling:.2}x below 3.5x ({tp_one:.2} -> {tp_four:.2} MB/s)"
    );
    Ok(())
}

/// The straggler bar on the hash and straggler-aware 4-node
/// [`cluster_scaling_point`]s with the straggler on node 1: both deliver
/// their full batch, aware routing holds >= 1.5x hash, routes nothing to
/// node 1 (hash routes something) and drains sooner.
///
/// # Errors
///
/// Returns the first part of the bar that fails.
pub fn straggler_bar(
    hash: &ClusterResult,
    aware: &ClusterResult,
    streams_per_disk: usize,
) -> Result<(), String> {
    full_batch(hash, streams_per_disk)?;
    full_batch(aware, streams_per_disk)?;
    let (tp_hash, tp_aware) = (hash.total_throughput_mbs(), aware.total_throughput_mbs());
    let ratio = tp_aware / tp_hash;
    ensure!(
        ratio >= 1.5,
        "straggler-aware routing held only {ratio:.2}x of hash ({tp_aware:.2} vs {tp_hash:.2} MB/s)"
    );
    ensure!(
        hash.nodes[1].assigned_streams > 0 && aware.nodes[1].assigned_streams == 0,
        "the straggler node got {} streams under hash and {} under aware routing",
        hash.nodes[1].assigned_streams,
        aware.nodes[1].assigned_streams
    );
    ensure!(
        aware.window < hash.window,
        "steering round the straggler did not shorten the makespan ({} vs {})",
        aware.window,
        hash.window
    );
    Ok(())
}

/// `cluster_scaling.csv` — aggregate throughput against node count,
/// healthy and with one straggler under the hash and straggler-aware
/// routers, at 50 and 100 streams per disk.
///
/// Bars: every run delivers its full batch; at each stream count,
/// [`scaling_bar`] on 1 and 4 healthy nodes and [`straggler_bar`] on the
/// 4-node straggler pair.
///
/// # Errors
///
/// Returns the first bar that fails.
pub fn cluster_scaling() -> Result<Figure, String> {
    let mut fig = Figure::new(
        "Cluster",
        "Aggregate throughput vs node count: healthy and one factor-4 straggler",
        "Nodes",
        "Aggregate throughput (MBytes/s)",
    );
    let columns = [
        ("Healthy", ShardPolicy::HashByStream, false),
        ("Straggler hash", ShardPolicy::HashByStream, true),
        ("Straggler aware", ShardPolicy::StragglerAware, true),
    ];
    for spd in [50, 100] {
        // runs[i][j]: the i-th node count under column j.
        let runs = [1, 2, 4, 8].map(|nodes| {
            columns
                .map(|(_, policy, straggler)| cluster_scaling_point(nodes, spd, policy, straggler))
        });
        for (j, (name, ..)) in columns.iter().enumerate() {
            let mut s = Series::new(format!("{name} S/disk={spd}"));
            for r in &runs {
                full_batch(&r[j], spd)?;
                s.push(r[j].nodes.len().to_string(), r[j].total_throughput_mbs());
            }
            fig.add(s);
        }
        scaling_bar(&runs[0][0], &runs[2][0], spd)?;
        straggler_bar(&runs[2][1], &runs[2][2], spd)?;
    }
    Ok(fig)
}

/// One `fig_slo.csv` row: open-loop sessions arriving at `rate` per second
/// over 30 s, each reading 2 requests of one of 512 titles from 2 nodes
/// behind a 40 MiB/s fair-share link (base seed 2026).
///
/// # Errors
///
/// Returns the run's error, or says that no session completed.
pub fn slo_point(rate: f64) -> Result<SessionSlo, String> {
    let template = Experiment::builder()
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(30))
        .build();
    ClientExperiment::builder()
        .template(template)
        .nodes(2)
        .base_seed(2026)
        .arrivals(ArrivalConfig {
            rate_per_sec: rate,
            requests_per_session: 2,
            titles: 512,
            ..ArrivalConfig::default()
        })
        .link(LinkConfig { capacity_bps: 40.0 * MIB as f64, ..LinkConfig::default() })
        .run()
        .map_err(|e| e.to_string())?
        .slo
        .ok_or_else(|| format!("no session completed at {rate} sessions/s"))
}

/// `fig_slo.csv` — session latency percentiles against offered load. The
/// paper has no such figure (its experiments are closed-loop), but this is
/// the curve its streaming motivation cares about: as first the disks and
/// then the shared link saturate, the p99.9 tail leaves the median behind.
///
/// Bars: the percentiles are ordered at every rate, and p99.9 grows at
/// least 10x from 50 to 400 sessions/s.
///
/// # Errors
///
/// Returns a run error or the first bar that fails.
pub fn fig_slo() -> Result<Figure, String> {
    let mut fig = Figure::new(
        "SLO",
        "Session latency percentiles vs offered load: 2 nodes behind a 40 MiB/s link",
        "Arrival rate (sessions/s)",
        "Session latency (ms)",
    );
    let mut series = ["p50", "p95", "p99", "p99.9"].map(Series::new);
    for rate in [50.0, 100.0, 200.0, 300.0, 400.0] {
        let slo = slo_point(rate)?;
        let ys = [slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms];
        ensure!(ys.is_sorted(), "percentile chain out of order at rate {rate}: {ys:?}");
        for (s, y) in series.iter_mut().zip(ys) {
            s.push(format!("{rate:.0}"), y);
        }
    }
    let p999 = series[3].ys();
    ensure!(
        p999[4] >= 10.0 * p999[0],
        "p99.9 grew only {:.2} -> {:.2} ms from light to heavy load",
        p999[0],
        p999[4]
    );
    fig.series.extend(series);
    Ok(fig)
}

/// The seed of the scenario matrix and its degraded-rescue point.
const SCENARIO_SEED: u64 = 11;

/// One `scenario_matrix.csv` row: scenario `kind` at the full matrix scale,
/// seed 11.
///
/// # Errors
///
/// Returns a generation or run error.
pub fn scenario_row(kind: ScenarioKind) -> Result<MatrixRow, String> {
    run_row(kind, &MatrixScale::full(), SCENARIO_SEED).map_err(|e| e.to_string())
}

/// `scenario_matrix.csv` — every named scenario under the direct path, the
/// best static scheduler tune, the over-wide reference tune and the
/// adaptive tuner (8 disks). Not a paper figure: the scheduler-vs-direct
/// columns echo the paper's claim scenario by scenario, and the adaptive
/// column shows the tuner matching the best static tune.
///
/// Bars: [`check_adaptive_bar`], and [`check_rescue_bar`] on the
/// degraded-rescue point at the same scale and seed, whose static and
/// adaptive throughput and retune count print with the table.
///
/// # Errors
///
/// Returns a run error or the first bar that fails.
pub fn scenario_matrix() -> Result<Figure, String> {
    let rows = ScenarioKind::ALL.into_iter().map(scenario_row).collect::<Result<Vec<_>, _>>()?;
    let mut fig = Figure::new(
        "Scenario matrix",
        "Named scenarios: direct vs static tunes vs adaptive (8 disks)",
        "Scenario",
        "Throughput (MBytes/s)",
    );
    let mut series = ["Direct", "Best static", "Wide reference", "Adaptive"].map(Series::new);
    for r in &rows {
        let ys = [r.direct_mbs, r.best_static().mbs, r.wide_mbs, r.adaptive_mbs];
        for (s, y) in series.iter_mut().zip(ys) {
            s.push(r.scenario, y);
        }
    }
    fig.series.extend(series);
    check_adaptive_bar(&rows)?;
    let rescue = degraded_rescue(&MatrixScale::full(), SCENARIO_SEED).map_err(|e| e.to_string())?;
    let (fixed, adaptive, retunes) = rescue;
    println!(
        "-- degraded rescue (narrow D=4 tune, seed {SCENARIO_SEED}): static {fixed:.2} MB/s \
         -> adaptive {adaptive:.2} MB/s ({retunes} retune(s)) --"
    );
    check_rescue_bar(rescue)?;
    Ok(fig)
}
