//! The probe binary: `probe <mode>` writes result files under
//! `bench_results/`.
//!
//! `probe figures` writes every committed figure CSV, each defined once in
//! [`seqio_bench::figures`] together with its shape bars, and prints each
//! figure as a table.
//!
//! `probe migrate` and `probe timeline` each write one deterministic
//! report under `bench_results/`, defined once in
//! [`seqio_bench::reports`] together with its acceptance bars.
//!
//! `probe perf` instead runs the kernel performance harness: a few
//! representative macro points timed wall-clock, reporting events
//! simulated and events/sec, a cluster row running a two-node migrating
//! batch through `ClusterExperiment::run`, a link point replaying a fixed
//! feed through `FairShareLink` back to back and reporting seconds per
//! feed and deliveries/sec, and micro rows timing the
//! hot data structures (classifier, disk cache, event queue) and the
//! `StorageServer` state machine over fixed op counts, with
//! machine-readable JSON written to `bench_results/perf_probe.json`.
//!
//! `probe slo` runs the user-scale open-loop point: a million diurnally
//! modulated sessions against a 4-node cluster behind a 250 MiB/s
//! fair-share link, writing end-to-end session SLO percentiles to
//! `bench_results/slo_probe.json`.
//!
//! `probe tail` runs the slo operating point at 50,000 sessions with span
//! recording on, correlates the run into cross-tier session traces,
//! attributes the p99.9 latency band, and monitors the SLO burn rate.
//! Writes `bench_results/tail_probe.json` plus the correlated traces to
//! `bench_results/tail_trace.jsonl`.
//!
//! A failed bar, a file that cannot be written, a missing mode or an
//! unknown one exits non-zero.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use seqio_bench::figures::FIGURES;
use seqio_bench::reports::REPORTS;
use seqio_bench::{ensure, write_result};
use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation};
use seqio_cluster::{ClusterExperiment, RebalanceConfig};
use seqio_controller::{Controller, ControllerConfig, CtrlOutput, HostRequest};
use seqio_core::{Classifier, ClientRequest, ServerConfig, ServerOutput, StorageServer};
use seqio_disk::{
    CacheConfig, Disk, DiskConfig, DiskOutput, DiskRequest, RequestId, SegmentedCache,
};
use seqio_node::{Experiment, Frontend, NodeShape, ObsConfig};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::{
    EventQueue, FairShareLink, FaultPlan, ProfConfig, SimComponent, SimDuration, SimRng, SimTime,
};
use seqio_telemetry::{
    correlate, monitor, parse_percentile, traces_to_jsonl, BurnRateConfig, TailAttribution,
};

/// One timed macro point of the perf harness.
struct PerfPoint {
    name: &'static str,
    wall_secs: f64,
    events: u64,
    repeats: u32,
}

impl PerfPoint {
    fn events_per_sec(&self) -> f64 {
        self.rate(self.wall_secs)
    }

    fn rate(&self, wall_secs: f64) -> f64 {
        if wall_secs > 0.0 {
            self.events as f64 / wall_secs
        } else {
            0.0
        }
    }
}

/// Wall times of rows timed against the code a later change replaced:
/// `(row, wall_secs, what it ran against)`. Each is this probe's code for
/// the row applied to the parent of that change and run on the same
/// 2-vCPU x86-64 VM as the change (median of five runs alternated with
/// it):
/// - the stream scheduler before its stream table and buffered set moved
///   to slots and sorted vectors;
/// - the link that water-filled every active transfer's rate on each
///   start and completion, which the processor-sharing virtual clock
///   replaced;
/// - the controller that scanned every in-flight fetch of every port to
///   find one a read could attach to;
/// - the calendar event queue (a bucket ring with estimated widths and
///   resizes) that a binary heap replaced;
/// - the detection bitmap that set one bit per loop pass;
/// - the scheduler that walked one admission queue of every disk's
///   waiting streams on each pick and searched the prefix index twice per
///   matched request;
/// - the event queue before its front slot, a binary heap of
///   `(time, seq, slot)` keys over a slab of payloads, on the three
///   `direct-*` points and the kernel-mix row;
/// - the cluster driver that stopped every node at every check boundary
///   until all had drained, on the cluster row.
///
/// Rows not listed have no before figure. A macro point's figure holds
/// only at the [`PERF_WINDOW_SECS`] window it was timed at.
const BEFORE_WALL_SECS: [(&str, f64, &str); 17] = [
    ("direct-1disk-100streams", 0.005711, "keyed-heap queue"),
    ("stream-sched-100streams", 0.033730, "previous scheduler"),
    ("direct-8disk-10streams", 0.099018, "keyed-heap queue"),
    ("direct-60disk-30streams", 1.310852, "keyed-heap queue"),
    (CLUSTER_ROW, 0.093187, "every-boundary lockstep"),
    (LINK_ROW, 0.589446, "previous link"),
    ("classifier-observe-sequential", 0.126110, "bit-at-a-time bitmap"),
    ("classifier-observe-scattered", 0.158373, "bit-at-a-time bitmap"),
    ("server-feed-100readers", 0.516641, "previous scheduler"),
    (SKEW_FEED_ROW, 0.231277, "single-queue scheduler"),
    ("controller-feed-8x100readers", 0.398368, "previous controller"),
    ("event-queue-push-pop-1k", 0.077718, "calendar queue"),
    ("event-queue-churn-1k-uniform", 0.285304, "calendar queue"),
    ("event-queue-churn-1k-clustered", 0.372753, "calendar queue"),
    ("event-queue-churn-100k-uniform", 0.376601, "calendar queue"),
    ("event-queue-churn-100k-clustered", 0.301472, "calendar queue"),
    (KERNEL_MIX_ROW, 0.132317, "keyed-heap queue"),
];

/// The before wall time of row `name` and what it was timed against, if
/// it has one.
fn before_figure(name: &str) -> Option<(f64, &'static str)> {
    BEFORE_WALL_SECS.iter().find(|(n, ..)| *n == name).map(|&(_, secs, what)| (secs, what))
}

/// The macro points' simulated window unless `SEQIO_PERF_SECS` sets
/// another; every macro point's before figure was timed at it.
const PERF_WINDOW_SECS: u64 = 58;

/// The before figure of macro point `name` when it runs a `secs` window:
/// a point's wall time grows with its window, so a figure holds only at
/// [`PERF_WINDOW_SECS`].
fn point_before_figure(name: &str, secs: u64) -> Option<(f64, &'static str)> {
    before_figure(name).filter(|_| secs == PERF_WINDOW_SECS)
}

/// Times `spec` `repeats` times and keeps the best (minimum) wall time —
/// the usual way to suppress scheduler noise in a throughput harness.
fn time_point(name: &'static str, spec: Experiment, repeats: u32) -> PerfPoint {
    time_events(name, repeats, || spec.run().events_simulated)
}

/// Times `run` (which returns the events it simulated) `repeats` times
/// and keeps the best wall time.
fn time_events(name: &'static str, repeats: u32, run: impl Fn() -> u64) -> PerfPoint {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        events = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    PerfPoint { name, wall_secs: best, events, repeats }
}

/// The cluster row's name.
const CLUSTER_ROW: &str = "cluster-migrate-2x8disk";

/// The cluster row: perfbench's `cluster-migrate` shape through
/// `ClusterExperiment::run`. Two eight-disk nodes of 100 streams a disk,
/// each stream 256 requests of 64 KiB, behind the stream scheduler with
/// 512 KiB read-ahead; a factor-8 straggler on node 1's disk 0 from 24 s;
/// 2.4 s checks; seed 7, two workers. A finite batch, so
/// `SEQIO_PERF_SECS` does not change it.
fn time_cluster(repeats: u32) -> PerfPoint {
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .streams_per_disk(100)
        .request_size(64 * KIB)
        .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
        .requests_per_stream(256)
        .warmup(SimDuration::ZERO)
        .duration(SimDuration::from_secs(600))
        .build();
    let cluster = ClusterExperiment::builder()
        .template(template)
        .nodes(2)
        .node_fault(1, FaultPlan::new().straggler(0, 8.0, SimDuration::from_secs(24), None))
        .rebalance(RebalanceConfig::new(SimDuration::from_millis(2_400)))
        .base_seed(7)
        .jobs(2)
        .build();
    time_events(CLUSTER_ROW, repeats, || {
        let r = cluster.run().expect("the cluster row's spec is valid");
        assert!(!r.migrations.is_empty(), "the straggler moves streams");
        r.events_simulated
    })
}

/// The link point of the perf harness, timed like a [`PerfPoint`].
struct LinkPoint {
    transfers: usize,
    peak_active: usize,
    /// Wall seconds per feed, in the best repeat.
    wall_secs: f64,
    /// Feeds replayed back to back in the best repeat.
    feeds: u32,
    repeats: u32,
}

/// The link point's feed: the start instants of 120k 128 KiB transfers,
/// Poisson at a rate that swings 30% either side of 1800/s over a 12 s
/// cycle. A 250 MiB/s link moves 2000 of them a second, so each busy
/// half-cycle (up to 2340/s) builds a backlog that peaks near 2000 active
/// transfers and each quiet one drains it.
fn link_feed() -> Vec<SimTime> {
    let mut rng = SimRng::seed_from(13);
    let mut at = 0.0;
    (0..120_000)
        .map(|_| {
            let phase = (at / 12.0 * std::f64::consts::TAU).sin();
            at += rng.exponential(1.0 / (1800.0 * (1.0 + 0.3 * phase)));
            SimTime::from_nanos((at * 1e9) as u64)
        })
        .collect()
}

/// The link point's row name.
const LINK_ROW: &str = "link-250mibs-128k";

/// Host time one repeat of the link point spends replaying feeds back to
/// back: a feed alone takes about 12 ms, short enough that host jitter
/// would decide the row.
const LINK_REPEAT_SECS: f64 = 0.1;

/// Replays [`link_feed`] through a 250 MiB/s link, back to back for at
/// least [`LINK_REPEAT_SECS`] per repeat, `repeats` times, and keeps the
/// best repeat's wall time per feed.
fn time_link(repeats: u32) -> LinkPoint {
    let feed = link_feed();
    let mut best =
        LinkPoint { transfers: 0, peak_active: 0, wall_secs: f64::INFINITY, feeds: 0, repeats };
    for _ in 0..repeats {
        let start = Instant::now();
        let mut feeds = 0;
        while feeds == 0 || start.elapsed().as_secs_f64() < LINK_REPEAT_SECS {
            let mut link = FairShareLink::new(250.0 * MIB as f64).expect("positive capacity");
            for (tag, &at) in feed.iter().enumerate() {
                link.start_transfer(at, 128 * KIB, f64::INFINITY, tag as u64);
                best.peak_active = best.peak_active.max(link.active_count());
            }
            link.advance_to(SimTime::MAX);
            best.transfers = link.take_deliveries().len();
            feeds += 1;
        }
        let per_feed = start.elapsed().as_secs_f64() / f64::from(feeds);
        if per_feed < best.wall_secs {
            best.wall_secs = per_feed;
            best.feeds = feeds;
        }
    }
    assert_eq!(best.transfers, feed.len(), "every transfer is delivered");
    best
}

/// One micro row of the perf harness: a closure over a fixed op count,
/// timed like a [`PerfPoint`].
struct MicroRow {
    name: &'static str,
    ops: u64,
    wall_secs: f64,
    repeats: u32,
}

impl MicroRow {
    fn ns_per_op(&self) -> f64 {
        self.ns_per_op_at(self.wall_secs)
    }

    fn ns_per_op_at(&self, wall_secs: f64) -> f64 {
        wall_secs * 1e9 / self.ops as f64
    }
}

/// Runs `body` (which performs `ops` operations and returns a checksum the
/// optimizer cannot see through) `repeats` times and keeps the best wall
/// time.
fn time_micro(name: &'static str, ops: u64, repeats: u32, body: impl Fn() -> u64) -> MicroRow {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(body());
        best = best.min(start.elapsed().as_secs_f64());
    }
    MicroRow { name, ops, wall_secs: best, repeats }
}

/// `rounds` fresh classifiers, each observing 64 requests of 128 blocks
/// spaced `stride` blocks apart (128: one sequential reader; 1M: scattered
/// requests that each open a detection region).
fn observe_rounds(rounds: u64, stride: u64) -> u64 {
    let mut detections = 0;
    for _ in 0..rounds {
        let mut clf = Classifier::new(4096, 192);
        for i in 0..64u64 {
            std::hint::black_box(clf.observe(0, i * stride, 128, SimTime::ZERO));
        }
        detections += clf.detections();
    }
    detections
}

/// A 32-segment disk cache with 256 KiB segments, as the paper's drive.
fn micro_cache() -> SegmentedCache {
    SegmentedCache::new(CacheConfig {
        segment_count: 32,
        segment_bytes: 256 * KIB,
        read_ahead_bytes: 256 * KIB,
    })
}

/// Event time for slot `i`, either spread evenly over one second
/// (uniform) or piled into a handful of tight bursts (clustered) — the
/// shape a DES produces when many streams complete at nearly the same
/// instant.
fn event_time(i: u64, clustered: bool) -> SimTime {
    SimTime::from_nanos(if clustered {
        (i % 8) * 100_000_000 + (i * 2_654_435_761) % 20_000
    } else {
        (i * 2_654_435_761) % 1_000_000_000
    })
}

/// Steady-state churn: prefill `n` events, then for each of `n` steps pop
/// the earliest event and push a replacement shortly after it, then drain
/// — the access pattern of a running simulation with a stable
/// pending-event population. Moves `2n` events through the queue.
fn queue_churn(n: u64, clustered: bool) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.push(event_time(i, clustered), i);
    }
    let mut acc = 0u64;
    for i in 0..n {
        let (t, v) = q.pop().expect("queue prefilled");
        acc = acc.wrapping_add(v);
        q.push(t + SimDuration::from_nanos(1 + (i * 48_271) % 1_000_000), i);
    }
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

/// The kernel-mix queue row's name.
const KERNEL_MIX_ROW: &str = "event-queue-kernel-mix-32";

/// Events pending throughout the kernel-mix queue row: about as many as a
/// `paper-sweep` node's queue holds at a push.
const KERNEL_MIX_PENDING: u64 = 32;

/// The node kernel's push pattern on one queue, over `ops` steps: each
/// step pops the earliest of [`KERNEL_MIX_PENDING`] pending events and
/// pushes one. Two pushes in three are the popped event's near follow-up,
/// earlier than every pending event; the third lands beyond them all.
/// Payloads are 48 bytes, the size of the node's event.
fn kernel_mix(ops: u64) -> u64 {
    const GAP_NS: u64 = 1_000;
    let mut q = EventQueue::new();
    for i in 0..KERNEL_MIX_PENDING {
        q.push(SimTime::from_nanos(i * GAP_NS), [i; 6]);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let (t, v) = q.pop().expect("the pending set never drains");
        acc = acc.wrapping_add(v[0]);
        let dt = if i % 3 == 2 { KERNEL_MIX_PENDING * GAP_NS } else { 1 };
        q.push(t + SimDuration::from_nanos(dt), [i; 6]);
    }
    acc
}

/// Requests per reader in the server feed row.
const FEED_REQUESTS_PER_READER: u64 = 10_000;

/// The server feed's state: a server, its instant in-order disk and the
/// readers' progress.
struct Feed {
    srv: StorageServer,
    readers: usize,
    outs: Vec<ServerOutput>,
    disk: VecDeque<u64>,
    busy: Vec<bool>,
    clock: u64,
    done: u64,
}

impl Feed {
    /// Relays outputs until the disk queue drains; completions free their
    /// readers.
    fn settle(&mut self) {
        loop {
            for o in self.outs.drain(..) {
                match o {
                    ServerOutput::SubmitDisk(b) => self.disk.push_back(b.id),
                    ServerOutput::CompleteClient { client, .. } => {
                        self.busy[client as usize % self.readers] = false;
                        self.done += 1;
                    }
                }
            }
            let Some(id) = self.disk.pop_front() else { return };
            self.clock += 10_000;
            self.srv.on_disk_complete_into(SimTime::from_nanos(self.clock), id, &mut self.outs);
        }
    }

    fn gc(&mut self) {
        self.srv.on_gc_into(SimTime::from_nanos(self.clock), &mut self.outs);
        self.settle();
    }
}

/// Drives a `default_tuning` server on one disk with `readers` sequential
/// readers of 64 KiB requests, one outstanding each, issued round robin:
/// each reader issues `per_reader` requests from its own region of the
/// disk, and the disk completes every request instantly and in order. The
/// garbage collection runs every simulated second, as a node runs it, and
/// when no reader can proceed. Returns the client completions.
fn server_feed(readers: usize, per_reader: u64) -> u64 {
    const BLOCKS: u64 = 128;
    let cfg = ServerConfig::default_tuning();
    let gc_period = cfg.gc_period.as_nanos();
    let stall_jump = cfg.buffer_timeout.as_nanos() + gc_period;
    let spacing = per_reader * BLOCKS * 2;
    let mut feed = Feed {
        srv: StorageServer::new(cfg, vec![readers as u64 * spacing]),
        readers,
        outs: Vec::new(),
        disk: VecDeque::new(),
        busy: vec![false; readers],
        clock: 0,
        done: 0,
    };
    let mut next_lba: Vec<u64> = (0..readers as u64).map(|r| r * spacing).collect();
    let mut issued = vec![0; readers];
    let (mut next_gc, mut stalls) = (gc_period, 0);
    let total = readers as u64 * per_reader;
    while feed.done < total {
        let mut progress = false;
        for r in 0..readers {
            if feed.busy[r] || issued[r] == per_reader {
                continue;
            }
            feed.clock += 50_000;
            let id = issued[r] * readers as u64 + r as u64;
            let req = ClientRequest::read(id, 0, next_lba[r], BLOCKS);
            feed.srv.on_client_request_into(SimTime::from_nanos(feed.clock), req, &mut feed.outs);
            feed.busy[r] = true;
            issued[r] += 1;
            next_lba[r] += BLOCKS;
            progress = true;
            feed.settle();
            if feed.clock >= next_gc {
                feed.gc();
                next_gc = feed.clock + gc_period;
            }
        }
        if !progress {
            // Finished readers pin read-ahead nobody will consume: let it
            // time out, as a node's periodic collection would.
            stalls += 1;
            assert!(stalls < 1_000, "server feed stalled at {} of {total}", feed.done);
            feed.clock += stall_jump;
            feed.gc();
            next_gc = feed.clock + gc_period;
        }
    }
    assert_eq!(feed.srv.metrics().completions, total, "every request completes once");
    feed.done
}

/// Requests per reader in the controller feed row.
const CTRL_FEED_REQUESTS_PER_READER: u64 = 200;

/// Requests per reader in the disk feed row.
const DISK_FEED_REQUESTS_PER_READER: u64 = 2000;

/// Sequential 64 KiB readers, `per_disk[d]` of them on disk `d`, each in
/// its own region of its disk, with one request outstanding: a reader
/// issues its next request the instant the last one completes. Readers are
/// numbered disk by disk.
struct Readers {
    disk_of: Vec<usize>,
    next_lba: Vec<u64>,
    issued: Vec<u64>,
    per_reader: u64,
}

impl Readers {
    const BLOCKS: u64 = 128;

    fn new(per_disk: &[usize], disk_blocks: u64, per_reader: u64) -> Readers {
        let (mut disk_of, mut next_lba) = (Vec::new(), Vec::new());
        for (disk, &n) in per_disk.iter().enumerate() {
            let spacing = disk_blocks / n as u64;
            disk_of.extend(std::iter::repeat_n(disk, n));
            next_lba.extend((0..n as u64).map(|i| i * spacing));
        }
        Readers { issued: vec![0; disk_of.len()], disk_of, next_lba, per_reader }
    }

    fn count(&self) -> usize {
        self.issued.len()
    }

    /// Reader `r`'s next request as `(id, disk, lba)`, if it has one left.
    fn next(&mut self, r: usize) -> Option<(RequestId, usize, u64)> {
        if self.issued[r] == self.per_reader {
            return None;
        }
        let id = RequestId(self.issued[r] * self.count() as u64 + r as u64);
        let lba = self.next_lba[r];
        self.issued[r] += 1;
        self.next_lba[r] += Self::BLOCKS;
        Some((id, self.disk_of[r], lba))
    }

    /// The reader that issued request `id`.
    fn reader(&self, id: RequestId) -> usize {
        (id.0 % self.count() as u64) as usize
    }
}

/// One event of the controller and disk feeds: a reader's next request
/// comes due, or a device event the model scheduled.
#[derive(Debug)]
enum FeedEvent<E> {
    Issue(usize),
    Device(E),
}

/// Drives one `bc4810` controller and its eight `wd800jd` disks through an
/// [`EventQueue`] with `per_port` [`Readers`] on each port. Returns the
/// host completions.
fn controller_feed(per_port: usize, per_reader: u64) -> u64 {
    let cfg = ControllerConfig::bc4810();
    let ports = cfg.ports;
    let disks = (0..ports).map(|p| Disk::new(DiskConfig::wd800jd(), p as u64)).collect();
    let mut ctrl = Controller::new(cfg, disks);
    let mut readers =
        Readers::new(&vec![per_port; ports], ctrl.disk(0).geometry().total_blocks(), per_reader);
    let mut q = EventQueue::new();
    for r in 0..readers.count() {
        q.push(SimTime::ZERO, FeedEvent::Issue(r));
    }
    let (mut out, mut done) = (Vec::new(), 0);
    while let Some((now, ev)) = q.pop() {
        match ev {
            FeedEvent::Issue(r) => {
                let Some((id, port, lba)) = readers.next(r) else { continue };
                ctrl.submit_into(now, HostRequest::read(id, port, lba, Readers::BLOCKS), &mut out);
            }
            FeedEvent::Device(e) => ctrl.on_event_into(now, e, &mut out),
        }
        for o in out.drain(..) {
            match o {
                CtrlOutput::Complete { id, at, .. } => {
                    done += 1;
                    q.push(at, FeedEvent::Issue(readers.reader(id)));
                }
                CtrlOutput::Event { at, event } => q.push(at, FeedEvent::Device(event)),
            }
        }
    }
    assert_eq!(done, readers.count() as u64 * per_reader, "every request completes once");
    done
}

/// Drives one `wd800jd` disk through an [`EventQueue`] with `readers`
/// [`Readers`]: the layer beneath [`controller_feed`]. Returns the
/// completions.
fn disk_feed(readers: usize, per_reader: u64) -> u64 {
    let mut disk = Disk::new(DiskConfig::wd800jd(), 0);
    let mut readers = Readers::new(&[readers], disk.geometry().total_blocks(), per_reader);
    let mut q = EventQueue::new();
    for r in 0..readers.count() {
        q.push(SimTime::ZERO, FeedEvent::Issue(r));
    }
    let (mut out, mut done) = (Vec::new(), 0);
    while let Some((now, ev)) = q.pop() {
        match ev {
            FeedEvent::Issue(r) => {
                let Some((id, _, lba)) = readers.next(r) else { continue };
                disk.submit_into(now, DiskRequest::read(id, lba, Readers::BLOCKS), &mut out);
            }
            FeedEvent::Device(()) => disk.on_op_finished_into(now, &mut out),
        }
        for o in out.drain(..) {
            match o {
                DiskOutput::Complete { id, at, .. } => {
                    done += 1;
                    q.push(at, FeedEvent::Issue(readers.reader(id)));
                }
                DiskOutput::OpFinished { at } => q.push(at, FeedEvent::Device(())),
            }
        }
    }
    assert_eq!(done, readers.count() as u64 * per_reader, "every request completes once");
    done
}

/// The skewed server feed's row name.
const SKEW_FEED_ROW: &str = "server-feed-8x100+50readers";

/// Requests per reader in the skewed server feed row.
const SKEW_FEED_REQUESTS_PER_READER: u64 = 512;

/// Readers per disk of the skewed server feed: 100 on each of eight disks,
/// and 50 more on disk 0.
const SKEW_FEED_READERS: [usize; 8] = [150, 100, 100, 100, 100, 100, 100, 100];

/// Simulated disk time per block in the skewed server feed.
const SKEW_FEED_NS_PER_BLOCK: u64 = 1_000;

/// Drives an `all_dispatched` server sized for 100 readers on each of eight
/// disks with [`SKEW_FEED_READERS`] [`Readers`]: the shape
/// `cluster-migrate`'s node 0 takes once a straggler's streams move onto
/// it. Disk 0 holds its quota of 100 dispatched streams while the rest of
/// its readers wait for a slot. Each disk serves its requests one at a
/// time, in submission order, at [`SKEW_FEED_NS_PER_BLOCK`]. The garbage
/// collection runs every simulated second, as a node runs it, and when no
/// reader can proceed. Returns the client completions.
fn skewed_server_feed(per_reader: u64) -> u64 {
    let disks = SKEW_FEED_READERS.len();
    let cfg = ServerConfig::all_dispatched(disks * 100, 512 * KIB);
    let (gc_period, stall_jump) = (cfg.gc_period, cfg.buffer_timeout + cfg.gc_period);
    // Each of disk 0's readers gets twice the span it reads.
    let disk_blocks = 2 * SKEW_FEED_READERS[0] as u64 * per_reader * Readers::BLOCKS;
    let mut srv = StorageServer::new(cfg, vec![disk_blocks; disks]);
    let mut readers = Readers::new(&SKEW_FEED_READERS, disk_blocks, per_reader);
    // Per disk: the backend requests it has yet to complete, as (id, blocks).
    let mut fifo = vec![VecDeque::new(); disks];
    let service = |blocks: u64| SimDuration::from_nanos(blocks * SKEW_FEED_NS_PER_BLOCK);
    let mut q: EventQueue<FeedEvent<usize>> = EventQueue::new();
    for r in 0..readers.count() {
        q.push(SimTime::ZERO, FeedEvent::Issue(r));
    }
    let (mut out, mut done, mut stalls) = (Vec::new(), 0, 0);
    let (mut now, mut next_gc) = (SimTime::ZERO, SimTime::ZERO + gc_period);
    let total = readers.count() as u64 * per_reader;
    while done < total {
        match q.pop() {
            Some((at, FeedEvent::Issue(r))) => {
                now = at;
                let Some((id, disk, lba)) = readers.next(r) else { continue };
                let req = ClientRequest::read(id.0, disk, lba, Readers::BLOCKS);
                srv.on_client_request_into(now, req, &mut out);
            }
            Some((at, FeedEvent::Device(disk))) => {
                now = at;
                let (id, _) = fifo[disk].pop_front().expect("a scheduled disk has work");
                srv.on_disk_complete_into(now, id, &mut out);
                if let Some(&(_, blocks)) = fifo[disk].front() {
                    q.push(now + service(blocks), FeedEvent::Device(disk));
                }
            }
            None => {
                // Finished readers pin read-ahead nobody will consume: let
                // it time out, as a node's periodic collection would.
                stalls += 1;
                assert!(stalls < 1_000, "skewed server feed stalled at {done} of {total}");
                now += stall_jump;
                next_gc = now;
            }
        }
        if now >= next_gc {
            srv.on_gc_into(now, &mut out);
            next_gc = now + gc_period;
        }
        for o in out.drain(..) {
            match o {
                ServerOutput::SubmitDisk(b) => {
                    fifo[b.disk].push_back((b.id, b.blocks));
                    if fifo[b.disk].len() == 1 {
                        q.push(now + service(b.blocks), FeedEvent::Device(b.disk));
                    }
                }
                ServerOutput::CompleteClient { client, .. } => {
                    done += 1;
                    q.push(now, FeedEvent::Issue(readers.reader(RequestId(client))));
                }
            }
        }
    }
    assert_eq!(srv.metrics().completions, total, "every request completes once");
    done
}

/// The micro rows: the hot data structures under the kernel, each over a
/// fixed op count (an event pushed and popped counts as one op), and the
/// server state machine (a client request and the disk completions it
/// causes count as one op).
fn micro_rows(repeats: u32) -> Vec<MicroRow> {
    let mut rows = vec![
        time_micro("classifier-observe-sequential", 4096 * 64, repeats, || {
            observe_rounds(4096, 128)
        }),
        time_micro("classifier-observe-scattered", 4096 * 64, repeats, || {
            observe_rounds(4096, 1_000_000)
        }),
        time_micro("disk-cache-lookup-hit", 1 << 20, repeats, || {
            let mut cache = micro_cache();
            let t = cache.begin_fill(0, 512, SimTime::ZERO).expect("cache has segments");
            cache.commit_fill(t, 0, 512, SimTime::ZERO);
            (0..1 << 20)
                .filter(|_| cache.lookup(std::hint::black_box(128), 128, SimTime::ZERO))
                .count() as u64
        }),
        time_micro("disk-cache-fill-cycle", 1 << 18, repeats, || {
            let mut cache = micro_cache();
            for i in 0..1 << 18 {
                let lba = i * 1_000_000;
                let t = cache.begin_fill(lba, 512, SimTime::ZERO).expect("cache has segments");
                cache.commit_fill(t, lba, 512, SimTime::ZERO);
            }
            cache.metrics().evictions
        }),
        time_micro("event-queue-push-pop-1k", 1000 * 1000, repeats, || {
            let mut acc = 0u64;
            for _ in 0..1000 {
                let mut q = EventQueue::new();
                for i in 0..1000u64 {
                    q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
                }
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
            }
            acc
        }),
    ];
    for (name, n, rounds, clustered) in [
        ("event-queue-churn-1k-uniform", 1_000u64, 1000u64, false),
        ("event-queue-churn-1k-clustered", 1_000, 1000, true),
        ("event-queue-churn-100k-uniform", 100_000, 10, false),
        ("event-queue-churn-100k-clustered", 100_000, 10, true),
    ] {
        rows.push(time_micro(name, rounds * 2 * n, repeats, || {
            (0..rounds).fold(0, |acc, _| acc.wrapping_add(queue_churn(n, clustered)))
        }));
    }
    rows.push(time_micro(KERNEL_MIX_ROW, 3_000_000, repeats, || kernel_mix(3_000_000)));
    rows.push(time_micro(
        "server-feed-100readers",
        100 * FEED_REQUESTS_PER_READER,
        repeats,
        || server_feed(100, FEED_REQUESTS_PER_READER),
    ));
    rows.push(time_micro(
        SKEW_FEED_ROW,
        SKEW_FEED_READERS.iter().sum::<usize>() as u64 * SKEW_FEED_REQUESTS_PER_READER,
        repeats,
        || skewed_server_feed(SKEW_FEED_REQUESTS_PER_READER),
    ));
    rows.push(time_micro(
        "controller-feed-8x100readers",
        8 * 100 * CTRL_FEED_REQUESTS_PER_READER,
        repeats,
        || controller_feed(100, CTRL_FEED_REQUESTS_PER_READER),
    ));
    rows.push(time_micro(
        "disk-feed-100readers",
        100 * DISK_FEED_REQUESTS_PER_READER,
        repeats,
        || disk_feed(100, DISK_FEED_REQUESTS_PER_READER),
    ));
    rows
}

/// Runs the representative macro points and writes the JSON report to
/// `dir`.
fn perf_mode(dir: &Path) -> Result<(), Box<dyn Error>> {
    let secs: u64 = std::env::var("SEQIO_PERF_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PERF_WINDOW_SECS);
    let repeats: u32 =
        std::env::var("SEQIO_PERF_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let w = SimDuration::from_secs(2);
    let d = SimDuration::from_secs(secs);
    let base = || Experiment::builder().warmup(w).duration(d).seed(7);

    let points = [
        time_point("direct-1disk-100streams", base().streams_per_disk(100).build(), repeats),
        time_point(
            "stream-sched-100streams",
            base()
                .streams_per_disk(100)
                .frontend(Frontend::stream_scheduler_with_readahead(4 * MIB))
                .build(),
            repeats,
        ),
        time_point(
            "direct-8disk-10streams",
            base().shape(NodeShape::eight_disk()).streams_per_disk(10).build(),
            repeats,
        ),
        time_point(
            "direct-60disk-30streams",
            base().shape(NodeShape::sixty_disk()).streams_per_disk(30).build(),
            repeats,
        ),
    ];

    println!("-- kernel perf: {secs}s simulated window, min of {repeats} runs --");
    let mut json = String::from("{\n  \"window_secs\": ");
    let _ = write!(json, "{secs},\n  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let before = point_before_figure(p.name, secs);
        println!(
            "  {:<32} {:>8.3}s wall  {:>10} events  {:>12.0} events/sec{}",
            p.name,
            p.wall_secs,
            p.events,
            p.events_per_sec(),
            before.map_or(String::new(), |(b, what)| format!(
                "  ({what} {b:.3}s, {:.0}/sec)",
                p.rate(b)
            ))
        );
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{}\", \"wall_secs\": {:.6}, \"events\": {}, \
             \"events_per_sec\": {:.1}, \"repeats\": {}{}}}",
            if i == 0 { "" } else { "," },
            p.name,
            p.wall_secs,
            p.events,
            p.events_per_sec(),
            p.repeats,
            before.map_or(String::new(), |(b, _)| format!(
                ", \"before\": {{\"wall_secs\": {b:.6}, \"events_per_sec\": {:.1}}}",
                p.rate(b)
            ))
        );
    }
    let cluster = time_cluster(repeats);
    let cluster_before = before_figure(CLUSTER_ROW);
    println!(
        "  {CLUSTER_ROW:<32} {:>8.3}s wall  {:>10} events  {:>12.0} events/sec{}",
        cluster.wall_secs,
        cluster.events,
        cluster.events_per_sec(),
        cluster_before.map_or(String::new(), |(b, what)| format!(
            "  ({what} {b:.3}s, {:.0}/sec)",
            cluster.rate(b)
        ))
    );
    let _ = write!(
        json,
        "\n  ],\n  \"cluster\": {{\"name\": \"{CLUSTER_ROW}\", \"wall_secs\": {:.6}, \
         \"events\": {}, \"events_per_sec\": {:.1}, \"repeats\": {}{}}},",
        cluster.wall_secs,
        cluster.events,
        cluster.events_per_sec(),
        cluster.repeats,
        cluster_before.map_or(String::new(), |(b, _)| format!(
            ", \"before\": {{\"wall_secs\": {b:.6}, \"events_per_sec\": {:.1}}}",
            cluster.rate(b)
        ))
    );
    let link = time_link(repeats);
    let rate = |wall: f64| link.transfers as f64 / wall;
    let link_before = before_figure(LINK_ROW);
    println!(
        "  {LINK_ROW:<32} {:>8.3}s/feed  {:>7} transfers  {:>12.0} deliveries/sec  \
         ({} feeds, peak {} active{})",
        link.wall_secs,
        link.transfers,
        rate(link.wall_secs),
        link.feeds,
        link.peak_active,
        link_before
            .map_or(String::new(), |(b, what)| format!("; {what} {b:.3}s, {:.0}/sec", rate(b)))
    );
    let _ = write!(
        json,
        "\n  \"link\": {{\"name\": \"{LINK_ROW}\", \"transfers\": {}, \
         \"peak_active\": {}, \"feeds\": {}, \"wall_secs\": {:.6}, \
         \"deliveries_per_sec\": {:.1}, \"repeats\": {}{}}},\n  \"micro\": [",
        link.transfers,
        link.peak_active,
        link.feeds,
        link.wall_secs,
        rate(link.wall_secs),
        link.repeats,
        link_before.map_or(String::new(), |(b, _)| format!(
            ", \"before\": {{\"wall_secs\": {b:.6}, \"deliveries_per_sec\": {:.1}}}",
            rate(b)
        ))
    );
    for (i, row) in micro_rows(repeats).iter().enumerate() {
        let before = before_figure(row.name);
        println!(
            "  {:<32} {:>8.3}s wall  {:>10} ops  {:>12.1} ns/op{}",
            row.name,
            row.wall_secs,
            row.ops,
            row.ns_per_op(),
            before.map_or(String::new(), |(b, what)| format!(
                "  ({what} {b:.3}s, {:.1} ns/op)",
                row.ns_per_op_at(b)
            ))
        );
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{}\", \"ops\": {}, \"wall_secs\": {:.6}, \
             \"ns_per_op\": {:.2}, \"repeats\": {}{}}}",
            if i == 0 { "" } else { "," },
            row.name,
            row.ops,
            row.wall_secs,
            row.ns_per_op(),
            row.repeats,
            before.map_or(String::new(), |(b, _)| format!(
                ", \"before\": {{\"wall_secs\": {b:.6}, \"ns_per_op\": {:.2}}}",
                row.ns_per_op_at(b)
            ))
        );
    }
    json.push_str("\n  ]\n}\n");
    write_result(dir, "perf_probe.json", &json)?;

    // SEQIO_PERF_OBS=1: guard the observability layer's zero-cost promise.
    // The recorder is always compiled in now; a run carrying a disabled
    // ObsConfig must stay within 10% of the plain baseline's event rate.
    if std::env::var("SEQIO_PERF_OBS").is_ok_and(|v| v == "1") {
        let baseline = time_point("obs-absent", base().streams_per_disk(100).build(), repeats);
        let disabled = time_point(
            "obs-disabled",
            base().streams_per_disk(100).build().observe(ObsConfig::new()),
            repeats,
        );
        let (b, d) = (baseline.events_per_sec(), disabled.events_per_sec());
        println!("-- recorder overhead: {b:.0} events/sec absent, {d:.0} disabled --");
        assert_eq!(baseline.events, disabled.events, "a disabled recorder must not add events");
        assert!(
            d >= 0.9 * b,
            "disabled recorder regressed the kernel by more than 10%: \
             {d:.0} vs {b:.0} events/sec"
        );

        // The kernel self-profiler rides the same promise: counting
        // alone must also stay inside the 10% envelope, and the full
        // wall-clock duration accounting is reported informationally.
        let counted = time_point(
            "prof-counts",
            base().streams_per_disk(100).build().profile(ProfConfig::counts_only()),
            repeats,
        );
        let timed = time_point(
            "prof-full",
            base().streams_per_disk(100).build().profile(ProfConfig::new()),
            repeats,
        );
        let (c, t) = (counted.events_per_sec(), timed.events_per_sec());
        println!("-- profiler overhead: {c:.0} events/sec counting, {t:.0} with durations --");
        assert_eq!(baseline.events, counted.events, "profiling must not add events");
        assert_eq!(baseline.events, timed.events, "profiling must not add events");
        assert!(
            c >= 0.9 * b,
            "count-only profiling cost more than 10%: {c:.0} vs {b:.0} events/sec"
        );
    }
    Ok(())
}

/// Sessions per second the open-loop operating point offers.
const SESSION_RATE: f64 = 1600.0;

/// Sessions `probe slo` offers: a user-scale day.
const SLO_SESSIONS: u64 = 1_000_000;

/// Sessions `probe tail` offers: fewer than `probe slo`, since spans cost
/// memory.
const TAIL_SESSIONS: u64 = 50_000;

/// The open-loop operating point `probe slo` and `probe tail` share,
/// sized for `target` sessions: four eight-disk nodes of 64 KiB requests
/// (base seed 2026) behind a 250 MiB/s link, 1600 sessions/s modulated
/// diurnally (depth 0.3, one period over the horizon) over 8192 titles at
/// Zipf 0.8, two requests per session and a 10 s lifetime. The horizon is
/// `target / rate` plus 5%, since Poisson count noise is a few thousand
/// sessions at the million-session scale.
fn open_loop(target: u64) -> ClientExperiment {
    let duration = SimDuration::from_secs_f64((target as f64 / SESSION_RATE) * 1.05);
    // Eight-disk nodes: the title placement spreads the catalogue over
    // all 32 disks, keeping per-disk concurrency low enough that the
    // storage tier sustains the 200 MiB/s mean demand — the *link* is the
    // contended resource here, not the disks.
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .request_size(64 * KIB)
        .warmup(SimDuration::ZERO)
        .duration(duration)
        .build();
    let arrivals = ArrivalConfig {
        rate_per_sec: SESSION_RATE,
        // One full diurnal cycle across the horizon: the mean factor is 1,
        // so the session volume still tracks the rate, but the peak runs
        // 30% hot — the tail percentiles have to survive the busy hour.
        modulation: RateModulation::Diurnal { period: duration, depth: 0.3 },
        titles: 8192,
        zipf_exponent: 0.8,
        requests_per_session: 2,
        session_lifetime: Some(SimDuration::from_secs(10)),
    };
    ClientExperiment::builder()
        .template(template)
        .nodes(4)
        .base_seed(2026)
        .arrivals(arrivals)
        // ~25% headroom over the mean demand of rate x 128 KiB = 200
        // MiB/s, so the diurnal peak genuinely contends for the link.
        .link(LinkConfig { capacity_bps: 250.0 * MIB as f64, ..LinkConfig::default() })
        .build()
}

/// Runs the user-scale open-loop point: a diurnally modulated million-
/// session day on [`open_loop`], and writes the end-to-end session SLO
/// percentiles to `dir/slo_probe.json`.
fn slo_mode(dir: &Path) -> Result<(), Box<dyn Error>> {
    let xp = open_loop(SLO_SESSIONS);
    let (nodes, duration) = (xp.nodes, xp.template.duration);

    let start = Instant::now();
    let open = xp.run().expect("open-loop slo point");
    let wall = start.elapsed().as_secs_f64();
    let slo = open.slo.clone().expect("sessions completed");

    println!(
        "-- slo probe: {SESSION_RATE} sessions/s open loop, {nodes} nodes, link 250 MiB/s, \
         {duration} horizon --"
    );
    println!(
        "  open loop    {:>9} arrived  {:>9} completed ({:.2}%)  {:.1}s wall",
        slo.sessions,
        slo.completed,
        100.0 * slo.completion_ratio(),
        wall
    );
    println!(
        "               p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  p99.9 {:.2} ms  max {:.2} ms",
        slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms, slo.max_ms
    );

    // Acceptance bars: the full-scale probe must admit the target session
    // count, nearly all of them must finish inside the 10 s lifetime, and
    // the percentile chain must be coherent.
    ensure!(
        slo.sessions >= SLO_SESSIONS,
        "only {} sessions admitted, wanted >= {SLO_SESSIONS}",
        slo.sessions
    );
    ensure!(
        slo.completion_ratio() >= 0.98,
        "completion ratio {:.4} below 0.98",
        slo.completion_ratio()
    );
    let chain = [slo.p50_ms, slo.p95_ms, slo.p99_ms, slo.p999_ms];
    ensure!(chain.is_sorted(), "percentile chain out of order: {chain:?}");

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"nodes\": {nodes},\n  \"rate_per_sec\": {SESSION_RATE},\n  \
         \"horizon_secs\": {:.3},\n  \"link_mibs\": 250,\n  \
         \"requests_per_session\": 2,\n  \"request_kib\": 64,\n  \
         \"titles\": 8192,\n  \"zipf_exponent\": 0.8,\n  \"diurnal_depth\": 0.3,\n  \
         \"lifetime_secs\": 10,\n  \"wall_secs\": {wall:.3},\n  \
         \"open_loop\": {{\"sessions\": {}, \"completed\": {}, \
         \"completion_ratio\": {:.6}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
         \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"mean_ms\": {:.4}, \"max_ms\": {:.4}, \
         \"aggregate_mbs\": {:.4}}}\n}}\n",
        duration.as_secs_f64(),
        slo.sessions,
        slo.completed,
        slo.completion_ratio(),
        slo.p50_ms,
        slo.p95_ms,
        slo.p99_ms,
        slo.p999_ms,
        slo.mean_ms,
        slo.max_ms,
        open.total_throughput_mbs(),
    );

    Ok(write_result(dir, "slo_probe.json", &json)?)
}

/// Runs the tail-attribution point: [`open_loop`] at [`TAIL_SESSIONS`]
/// with span recording on, so the attribution describes the operating
/// point the SLO numbers come from. The run is correlated into cross-tier
/// session traces, the p99.9 latency band is attributed to its dominant
/// phases, and the SLO burn rate is monitored against the run's own p99.
/// Writes `dir/tail_probe.json` and the correlated traces to
/// `dir/tail_trace.jsonl`.
fn tail_mode(dir: &Path) -> Result<(), Box<dyn Error>> {
    let mut xp = open_loop(TAIL_SESSIONS);
    xp.template.obs = Some(ObsConfig::new().with_spans());
    let (nodes, duration) = (xp.nodes, xp.template.duration);
    let schedule = xp.session_schedule().expect("valid open-loop config");
    let start = Instant::now();
    let result = xp.run().expect("tail probe point");
    let wall = start.elapsed().as_secs_f64();
    let slo = result.slo.clone().expect("sessions completed");

    let traces = correlate(&result, &schedule);
    let band = parse_percentile("p99.9").expect("static spec");
    let tail = TailAttribution::compute(&traces, band, 1.0).expect("completed sessions");
    let burn = monitor(&traces, &BurnRateConfig::from_slo(&slo), SimDuration::from_millis(100))
        .expect("valid burn config");

    println!(
        "-- tail probe: {SESSION_RATE} sessions/s open loop, {nodes} nodes, link 250 MiB/s, \
         {duration} horizon --"
    );
    println!(
        "  {} arrived, {} completed  p99 {:.2} ms  p99.9 {:.2} ms  {wall:.1}s wall",
        slo.sessions, slo.completed, slo.p99_ms, slo.p999_ms
    );
    print!("{}", tail.to_table());
    println!(
        "  burn rate: {} violation(s) over {:.2} ms, peak fast burn {:.2}x, \
         {} alert transition(s)",
        burn.violations,
        burn.config.threshold.as_millis_f64(),
        burn.peak_fast_burn,
        burn.alerts.len()
    );

    // Acceptance bars: the shares form a distribution over the whole
    // band, and the derived telemetry agrees with the client tier.
    ensure!(
        (tail.share_sum_pct() - 100.0).abs() < 1e-6,
        "tail shares sum to {:.9}%, not 100%",
        tail.share_sum_pct()
    );
    ensure!(
        tail.completed as u64 == slo.completed,
        "attribution counted {} of {} completed sessions",
        tail.completed,
        slo.completed
    );
    ensure!(
        burn.completed == slo.completed,
        "the burn monitor counted {} of {} completed sessions",
        burn.completed,
        slo.completed
    );

    println!("  {} correlated traces", traces.len());
    write_result(dir, "tail_trace.jsonl", &traces_to_jsonl(&traces))?;

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"nodes\": {nodes},\n  \"rate_per_sec\": {SESSION_RATE},\n  \
         \"horizon_secs\": {:.3},\n  \"link_mibs\": 250,\n  \"band\": \"p99.9\",\n  \
         \"sessions\": {},\n  \"completed\": {},\n  \"wall_secs\": {wall:.3},\n  \
         \"attribution\": {},\n  \
         \"burn\": {{\"threshold_ms\": {:.4}, \"target\": {}, \"violations\": {}, \
         \"peak_fast_burn\": {:.4}, \"alerts\": {}}}\n}}\n",
        duration.as_secs_f64(),
        slo.sessions,
        slo.completed,
        tail.to_json(),
        burn.config.threshold.as_millis_f64(),
        burn.config.target,
        burn.violations,
        burn.peak_fast_burn,
        burn.alerts.len()
    );
    Ok(write_result(dir, "tail_probe.json", &json)?)
}

fn main() -> ExitCode {
    match run(std::env::args().nth(1).as_deref(), &seqio_bench::results_dir()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs probe `mode`, writing its files under `dir`. A missing or unknown
/// mode is an error naming the modes, so a mistyped gate cannot pass on a
/// file it never rewrote.
fn run(mode: Option<&str>, dir: &Path) -> Result<(), Box<dyn Error>> {
    let modes = || {
        let reports = REPORTS.map(|(mode, ..)| mode).join(", ");
        format!("modes: figures, perf, slo, tail, {reports}")
    };
    match mode {
        None => Err(format!("no mode given; {}", modes()).into()),
        Some("figures") => {
            for (file, figure) in FIGURES {
                let fig = figure().map_err(|bar| format!("{file}: {bar}"))?;
                print!("{}", fig.to_table());
                write_result(dir, file, &fig.to_csv())?;
            }
            Ok(())
        }
        Some("perf") => perf_mode(dir),
        Some("slo") => slo_mode(dir),
        Some("tail") => tail_mode(dir),
        Some(mode) => {
            let (_, file, report) = REPORTS
                .iter()
                .find(|(name, ..)| *name == mode)
                .ok_or_else(|| format!("unknown mode {mode:?}; {}", modes()))?;
            Ok(write_result(dir, file, &report()?)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_that_cannot_be_written_fails_the_probe() {
        // No directory can carry a NUL byte in its name.
        let err = run(Some("migrate"), Path::new("no\0dir")).unwrap_err().to_string();
        assert!(err.contains("could not write") && err.contains("migrate_probe.json"), "{err}");
    }

    #[test]
    fn a_figure_that_cannot_be_written_fails_the_probe() {
        let err = run(Some("figures"), Path::new("no\0dir")).unwrap_err().to_string();
        assert!(err.contains("could not write") && err.contains(FIGURES[0].0), "{err}");
    }

    #[test]
    fn an_unknown_mode_is_an_error() {
        let err = run(Some("migrat"), Path::new("unused")).unwrap_err().to_string();
        assert!(err.contains("unknown mode") && err.contains("migrate"), "{err}");
    }

    #[test]
    fn a_point_has_its_before_figure_only_at_the_window_it_was_timed_at() {
        let name = "stream-sched-100streams";
        assert!(point_before_figure(name, PERF_WINDOW_SECS).is_some());
        assert_eq!(point_before_figure(name, 2), None);
        assert_eq!(point_before_figure(name, PERF_WINDOW_SECS + 1), None);
    }

    #[test]
    fn no_mode_is_an_error() {
        let err = run(None, Path::new("unused")).unwrap_err().to_string();
        assert!(err.contains("no mode") && err.contains("figures"), "{err}");
    }
}
