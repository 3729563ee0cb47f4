//! Calibration probe: prints the key operating points the figures depend
//! on, so model constants can be sanity-checked quickly.
//!
//! `probe perf` instead runs the kernel performance harness: a few
//! representative macro points timed wall-clock, reporting events
//! simulated and events/sec, a link point replaying a fixed feed through
//! `FairShareLink` and reporting deliveries/sec, and micro rows timing the
//! hot data structures (classifier, disk cache, calendar queue) and the
//! `StorageServer` state machine over fixed op counts, with
//! machine-readable JSON written to `bench_results/perf_probe.json`.
//!
//! `probe faults` exercises the fault-injection layer: straggler
//! severities and transient-error rates on the direct and scheduler
//! paths, with throughput and error/retry/timeout counters written to
//! `bench_results/fault_probe.json`.
//!
//! `probe timeline` runs the scheduler-vs-direct pair with the metric
//! sampler on and writes `bench_results/timeline_probe.json`: per-disk
//! utilization timelines plus the scheduler's staged-memory high-water
//! mark, cross-checked against the runs' aggregate counters.
//!
//! `probe cluster` runs the multi-node scale-out points (1/2/4/8 healthy
//! nodes, plus the hash-vs-straggler-aware pair under one factor-4
//! straggler node) and writes `bench_results/cluster_probe.json` with the
//! scaling factor and routing ratio the issue's acceptance bars read.
//!
//! `probe migrate` runs the mid-run migration point: a straggler lands on
//! one of two nodes *after* the batch is underway, and the shared-clock
//! rebalancer's live migration is compared against the best static
//! routings. Writes `bench_results/migrate_probe.json` and asserts the
//! >= 1.3x migration win.
//!
//! `probe slo` runs the user-scale open-loop point: a million diurnally
//! modulated sessions (override with `SEQIO_SLO_SESSIONS`) against a
//! 4-node cluster behind a 250 MiB/s fair-share link, writing end-to-end
//! session SLO percentiles to `bench_results/slo_probe.json` alongside a
//! closed-loop companion run for contrast.
//!
//! `probe tail` runs the slo scenario at a reduced default scale
//! (override with `SEQIO_TAIL_SESSIONS`) with span recording on,
//! correlates the run into cross-tier session traces, attributes the
//! p99.9 latency band, and monitors the SLO burn rate. Writes
//! `bench_results/tail_probe.json` plus the correlated traces to
//! `bench_results/tail_trace.jsonl`.
//!
//! `probe scenario` runs the scenario experiment matrix (every named
//! scenario under direct, the static candidate panel, the over-wide
//! reference and the adaptive tuner) plus the degraded-rescue point,
//! asserts the adaptive-vs-static acceptance bars, and writes
//! `bench_results/scenario_probe.json`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Instant;

use seqio_core::{Classifier, ClientRequest, ServerConfig, ServerOutput, StorageServer};
use seqio_disk::{CacheConfig, SegmentedCache};
use seqio_hostsched::{ReadaheadConfig, SchedKind};
use seqio_node::{CostModel, Experiment, Frontend, NodeShape, ObsConfig};
use seqio_simcore::units::{KIB, MIB};
use seqio_simcore::{
    EventQueue, FairShareLink, ProfConfig, SimComponent, SimDuration, SimRng, SimTime,
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

/// Wall times of rows at the stream scheduler before its stream table and
/// buffered set moved to slots and sorted vectors: the same code, timed
/// against that scheduler on the 2-vCPU x86-64 VM that recorded
/// `perf_probe.json` (median of five runs alternated with the current
/// scheduler). Rows not listed have no before figure.
const SCHED_BEFORE_WALL_SECS: [(&str, f64); 2] =
    [("stream-sched-100streams", 0.033730), ("server-feed-100readers", 0.516641)];

/// The before wall time of row `name`, if it has one.
fn sched_before(name: &str) -> Option<f64> {
    SCHED_BEFORE_WALL_SECS.iter().find(|(n, _)| *n == name).map(|&(_, secs)| secs)
}

/// Times `spec` `repeats` times and keeps the best (minimum) wall time —
/// the usual way to suppress scheduler noise in a throughput harness.
fn time_point(name: &'static str, spec: Experiment, repeats: u32) -> PerfPoint {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = spec.run();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        events = r.events_simulated;
    }
    PerfPoint { name, wall_secs: best, events, repeats }
}

/// The link point of the perf harness, timed like a [`PerfPoint`].
struct LinkPoint {
    transfers: usize,
    peak_active: usize,
    wall_secs: f64,
    repeats: u32,
}

/// The link point's figures at the previous link, which rebuilt the
/// max-min allocation of every active transfer on each start and
/// completion: the same feed, timed by this code against that link on a
/// 2-vCPU x86-64 VM where the current link replays it in 0.736 s.
const LINK_BEFORE_WALL_SECS: f64 = 5.918;

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

/// Replays [`link_feed`] through a 250 MiB/s link `repeats` times and
/// keeps the best wall time.
fn time_link(repeats: u32) -> LinkPoint {
    let feed = link_feed();
    let mut best = f64::INFINITY;
    let mut peak_active = 0;
    let mut transfers = 0;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut link = FairShareLink::new(250.0 * MIB as f64).expect("positive capacity");
        for (tag, &at) in feed.iter().enumerate() {
            link.start_transfer(at, 128 * KIB, f64::INFINITY, tag as u64);
            peak_active = peak_active.max(link.active_count());
        }
        link.advance_to(SimTime::MAX);
        transfers = link.take_deliveries().len();
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(transfers, feed.len(), "every transfer is delivered");
    LinkPoint { transfers, peak_active, wall_secs: best, repeats }
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
        time_micro("calendar-push-pop-1k", 1000 * 1000, repeats, || {
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
        ("calendar-churn-1k-uniform", 1_000u64, 1000u64, false),
        ("calendar-churn-1k-clustered", 1_000, 1000, true),
        ("calendar-churn-100k-uniform", 100_000, 10, false),
        ("calendar-churn-100k-clustered", 100_000, 10, true),
    ] {
        rows.push(time_micro(name, rounds * 2 * n, repeats, || {
            (0..rounds).fold(0, |acc, _| acc.wrapping_add(queue_churn(n, clustered)))
        }));
    }
    rows.push(time_micro(
        "server-feed-100readers",
        100 * FEED_REQUESTS_PER_READER,
        repeats,
        || server_feed(100, FEED_REQUESTS_PER_READER),
    ));
    rows
}

/// Runs the representative macro points and writes the JSON report.
fn perf_mode() {
    let secs: u64 =
        std::env::var("SEQIO_PERF_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(58);
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
        let before = sched_before(p.name);
        println!(
            "  {:<29} {:>8.3}s wall  {:>10} events  {:>12.0} events/sec{}",
            p.name,
            p.wall_secs,
            p.events,
            p.events_per_sec(),
            before.map_or(String::new(), |b| format!(
                "  (previous scheduler {b:.3}s, {:.0}/sec)",
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
            before.map_or(String::new(), |b| format!(
                ", \"before\": {{\"wall_secs\": {b:.6}, \"events_per_sec\": {:.1}}}",
                p.rate(b)
            ))
        );
    }
    let link = time_link(repeats);
    let rate = |wall: f64| link.transfers as f64 / wall;
    println!(
        "  {:<29} {:>8.3}s wall  {:>10} transfers  {:>12.0} deliveries/sec  (peak {} active; \
         previous link {:.3}s, {:.0}/sec)",
        "link-250mibs-128k",
        link.wall_secs,
        link.transfers,
        rate(link.wall_secs),
        link.peak_active,
        LINK_BEFORE_WALL_SECS,
        rate(LINK_BEFORE_WALL_SECS)
    );
    let _ = write!(
        json,
        "\n  ],\n  \"link\": {{\"name\": \"link-250mibs-128k\", \"transfers\": {}, \
         \"peak_active\": {}, \"wall_secs\": {:.6}, \"deliveries_per_sec\": {:.1}, \
         \"repeats\": {}, \"before\": {{\"wall_secs\": {:.6}, \"deliveries_per_sec\": {:.1}}}}},\n  \
         \"micro\": [",
        link.transfers,
        link.peak_active,
        link.wall_secs,
        rate(link.wall_secs),
        link.repeats,
        LINK_BEFORE_WALL_SECS,
        rate(LINK_BEFORE_WALL_SECS)
    );
    for (i, row) in micro_rows(repeats).iter().enumerate() {
        let before = sched_before(row.name);
        println!(
            "  {:<29} {:>8.3}s wall  {:>10} ops  {:>12.1} ns/op{}",
            row.name,
            row.wall_secs,
            row.ops,
            row.ns_per_op(),
            before.map_or(String::new(), |b| format!(
                "  (previous scheduler {b:.3}s, {:.1} ns/op)",
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
            before.map_or(String::new(), |b| format!(
                ", \"before\": {{\"wall_secs\": {b:.6}, \"ns_per_op\": {:.2}}}",
                row.ns_per_op_at(b)
            ))
        );
    }
    json.push_str("\n  ]\n}\n");
    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("perf_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

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
}

/// Runs the scheduler-vs-direct pair with metric sampling on and writes
/// per-disk utilization timelines plus the scheduler's staged-memory
/// high-water mark to `bench_results/timeline_probe.json`.
fn timeline_mode() {
    let secs: u64 =
        std::env::var("SEQIO_TIMELINE_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let w = SimDuration::from_secs(1);
    let d = SimDuration::from_secs(secs);
    let interval = SimDuration::from_millis(20);
    let run = |sched: bool| {
        let mut b = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(30)
            .warmup(w)
            .duration(d)
            .seed(17);
        if sched {
            b = b.frontend(Frontend::stream_scheduler_with_readahead(MIB));
        }
        b.build().observe(ObsConfig::new().with_metrics().sample_every(interval)).run()
    };

    println!("-- timeline probe: 8 disks, 30 streams/disk, sampled every {interval} --");
    let mut json = String::from("{\n  \"sample_interval_ms\": 20,\n  \"runs\": [");
    let run_secs = (w + d).as_secs_f64();
    for (i, (name, r)) in [("direct", run(false)), ("scheduler", run(true))].iter().enumerate() {
        let series = r.metrics.as_ref().expect("sampling enabled");
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{name}\", \"throughput_mbs\": {:.4}, \"disks\": [",
            if i == 0 { "" } else { "," },
            r.total_throughput_mbs()
        );
        for (disk, busy) in r.disk_busy.iter().enumerate() {
            let col = format!("disk{disk}.busy_frac");
            let sampled = series.column_mean(&col);
            let aggregate = busy.as_secs_f64() / run_secs;
            // The acceptance bar for the sampler: the timeline's mean must
            // reproduce the run's aggregate utilization within 5%.
            assert!(
                (sampled - aggregate).abs() <= 0.05 * aggregate.max(0.01),
                "{name} disk {disk}: sampled utilization {sampled:.4} \
                 drifted from aggregate {aggregate:.4}"
            );
            let timeline: Vec<String> = series
                .column_by_name(&col)
                .expect("registered column")
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect();
            let _ = write!(
                json,
                "{}\n      {{\"disk\": {disk}, \"mean_util\": {sampled:.4}, \
                 \"aggregate_util\": {aggregate:.4}, \"timeline\": [{}]}}",
                if disk == 0 { "" } else { "," },
                timeline.join(",")
            );
        }
        let staged_hw = series.column_max("server.staged_bytes");
        let _ = write!(json, "\n    ], \"staged_high_water_bytes\": {}}}", staged_hw as u64);
        println!(
            "  {name:<10} {:>8.2} MB/s  mean util {:.3}  staged high-water {} KiB",
            r.total_throughput_mbs(),
            (0..r.disk_busy.len())
                .map(|disk| series.column_mean(&format!("disk{disk}.busy_frac")))
                .sum::<f64>()
                / r.disk_busy.len() as f64,
            staged_hw as u64 / 1024
        );
    }
    json.push_str("\n  ]\n}\n");
    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("timeline_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Sweeps straggler severity and error rate through both request paths
/// and writes `bench_results/fault_probe.json`.
fn faults_mode() {
    use seqio_simcore::FaultPlan;

    let secs: u64 =
        std::env::var("SEQIO_FAULT_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let w = SimDuration::from_secs(secs);
    let d = SimDuration::from_secs(secs);
    let run = |plan: FaultPlan, sched: bool| {
        let mut b =
            Experiment::builder().streams_per_disk(100).faults(plan).warmup(w).duration(d).seed(11);
        if sched {
            b = b.frontend(Frontend::stream_scheduler_with_readahead(4 * MIB));
        }
        b.run()
    };

    println!("-- fault probe: {secs}s warmup + {secs}s window, 100 streams, 1 disk --");
    let mut json = String::from("{\n  \"window_secs\": ");
    let _ = write!(json, "{secs},\n  \"points\": [");
    let mut first = true;
    let mut emit = |name: String, direct: &seqio_node::RunResult, sched: &seqio_node::RunResult| {
        println!(
            "  {:<22} direct {:>7.2} MB/s  scheduler {:>7.2} MB/s  \
             errors {} retries {} timeouts {}",
            name,
            direct.total_throughput_mbs(),
            sched.total_throughput_mbs(),
            direct.disk_read_errors[0] + sched.disk_read_errors[0],
            direct.disk_retries[0] + sched.disk_retries[0],
            direct.disk_timeouts[0] + sched.disk_timeouts[0],
        );
        let _ = write!(
            json,
            "{}\n    {{\"name\": \"{}\", \"direct_mbs\": {:.4}, \"scheduler_mbs\": {:.4}, \
             \"read_errors\": {}, \"retries\": {}, \"timeouts\": {}}}",
            if first { "" } else { "," },
            name,
            direct.total_throughput_mbs(),
            sched.total_throughput_mbs(),
            direct.disk_read_errors[0] + sched.disk_read_errors[0],
            direct.disk_retries[0] + sched.disk_retries[0],
            direct.disk_timeouts[0] + sched.disk_timeouts[0],
        );
        first = false;
    };

    for factor in [1.0, 2.0, 4.0, 8.0] {
        let plan = || FaultPlan::new().straggler(0, factor, w, None);
        let direct = run(plan(), false);
        let sched = run(plan(), true);
        emit(format!("straggler-{factor:.0}x"), &direct, &sched);
    }
    for rate in [0.001, 0.01] {
        let plan = || FaultPlan::new().read_errors(0, rate);
        let direct = run(plan(), false);
        let sched = run(plan(), true);
        emit(format!("errors-{rate}"), &direct, &sched);
    }

    json.push_str("\n  ]\n}\n");
    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("fault_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs the cluster scale-out points and writes
/// `bench_results/cluster_probe.json`: aggregate throughput and makespan
/// for 1/2/4/8 healthy nodes, plus the hash-vs-straggler-aware routing
/// pair with one factor-4 straggler node at 4 nodes.
fn cluster_mode() {
    use seqio_cluster::{ClusterExperiment, ClusterResult, ShardPolicy};
    use seqio_node::FaultPlan;

    let spd: usize =
        std::env::var("SEQIO_CLUSTER_STREAMS").ok().and_then(|v| v.parse().ok()).unwrap_or(100);
    let requests: u64 = 16;
    let template = || {
        Experiment::builder()
            .streams_per_disk(spd)
            .request_size(64 * KIB)
            .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
            .requests_per_stream(requests)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(120))
            .build()
    };
    let run = |nodes: usize, policy: ShardPolicy, straggler: Option<usize>| -> ClusterResult {
        let mut b = ClusterExperiment::builder()
            .template(template())
            .nodes(nodes)
            .policy(policy)
            .base_seed(2026);
        if let Some(k) = straggler {
            b = b.node_fault(k, FaultPlan::new().straggler(0, 4.0, SimDuration::ZERO, None));
        }
        b.run().expect("cluster probe point")
    };

    println!("-- cluster probe: {spd} streams/disk, {requests} requests/stream, batch drain --");
    let mut json = String::from("{\n  \"streams_per_disk\": ");
    let _ = write!(json, "{spd},\n  \"requests_per_stream\": {requests},\n  \"healthy\": [");
    let mut healthy = [0.0f64; 9];
    for (i, nodes) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let r = run(nodes, ShardPolicy::HashByStream, None);
        healthy[nodes] = r.total_throughput_mbs();
        assert_eq!(r.requests_completed, (nodes * spd) as u64 * requests);
        println!(
            "  nodes={nodes}  {:>8.2} MB/s aggregate  makespan {:.1} ms",
            r.total_throughput_mbs(),
            r.window.as_millis_f64()
        );
        let _ = write!(
            json,
            "{}\n    {{\"nodes\": {nodes}, \"aggregate_mbs\": {:.4}, \"makespan_ms\": {:.3}}}",
            if i == 0 { "" } else { "," },
            r.total_throughput_mbs(),
            r.window.as_millis_f64()
        );
    }
    let scaling = healthy[4] / healthy[1];

    let hash = run(4, ShardPolicy::HashByStream, Some(1));
    let aware = run(4, ShardPolicy::StragglerAware, Some(1));
    let ratio = aware.total_throughput_mbs() / hash.total_throughput_mbs();
    println!(
        "  straggler(4x on node 1): hash {:>7.2} MB/s  aware {:>7.2} MB/s  ratio {ratio:.2}x",
        hash.total_throughput_mbs(),
        aware.total_throughput_mbs()
    );
    println!("  1->4 healthy scaling: {scaling:.2}x");
    let _ = write!(
        json,
        "\n  ],\n  \"scaling_1_to_4\": {scaling:.4},\n  \"straggler\": {{\
         \"factor\": 4.0, \"node\": 1, \"nodes\": 4, \
         \"hash_mbs\": {:.4}, \"aware_mbs\": {:.4}, \"aware_over_hash\": {ratio:.4}}}\n}}\n",
        hash.total_throughput_mbs(),
        aware.total_throughput_mbs()
    );

    // The issue's acceptance bars, enforced at probe time too so the CI
    // smoke step fails loudly if scale-out regresses.
    assert!(scaling >= 3.5, "1 -> 4 node scaling {scaling:.2}x below 3.5x");
    assert!(ratio >= 1.5, "straggler-aware routing held only {ratio:.2}x of hash");

    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("cluster_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs the mid-run migration point and writes
/// `bench_results/migrate_probe.json`: one of two nodes develops a
/// factor-8 straggler at 60% of the healthy makespan, and the rebalanced
/// run must beat both the hash deal and the fault-aware static router by
/// the issue's >= 1.3x bar.
fn migrate_mode() {
    use seqio_cluster::{ClusterExperiment, ClusterResult, RebalanceConfig, ShardPolicy};
    use seqio_node::FaultPlan;

    let spd: usize =
        std::env::var("SEQIO_MIGRATE_STREAMS").ok().and_then(|v| v.parse().ok()).unwrap_or(16);
    let requests: u64 = 16;
    let run = |policy: ShardPolicy,
               fault: Option<FaultPlan>,
               rebalance: Option<RebalanceConfig>|
     -> ClusterResult {
        let template = Experiment::builder()
            .streams_per_disk(spd)
            .request_size(64 * KIB)
            .requests_per_stream(requests)
            .warmup(SimDuration::ZERO)
            .duration(SimDuration::from_secs(300))
            .build();
        let mut b = ClusterExperiment::builder()
            .template(template)
            .nodes(2)
            .policy(policy)
            .base_seed(19)
            .jobs(2);
        if let Some(f) = fault {
            b = b.node_fault(1, f);
        }
        if let Some(r) = rebalance {
            b = b.rebalance(r);
        }
        b.run().expect("migrate probe point")
    };

    // Calibrate the straggler onset off the healthy makespan so the fault
    // genuinely lands mid-run, whatever the stream count.
    let healthy = run(ShardPolicy::HashByStream, None, None);
    let onset = SimDuration::from_millis((healthy.window.as_millis_f64() * 0.6) as u64);
    let fault = || FaultPlan::new().straggler(0, 8.0, onset, None);
    let epoch = SimDuration::from_millis(((healthy.window.as_millis_f64() / 25.0) as u64).max(1));

    let hash = run(ShardPolicy::HashByStream, Some(fault()), None);
    let aware = run(ShardPolicy::StragglerAware, Some(fault()), None);
    let migrated = run(ShardPolicy::HashByStream, Some(fault()), Some(RebalanceConfig::new(epoch)));

    let (tp_hash, tp_aware, tp_mig) = (
        hash.total_throughput_mbs(),
        aware.total_throughput_mbs(),
        migrated.total_throughput_mbs(),
    );
    let win = tp_mig / tp_hash.max(tp_aware);
    println!("-- migrate probe: 2 nodes, {spd} streams/node, 8x straggler from {onset} --");
    println!(
        "  static hash      {tp_hash:>8.2} MB/s  makespan {:.1} ms",
        hash.window.as_millis_f64()
    );
    println!(
        "  static aware     {tp_aware:>8.2} MB/s  makespan {:.1} ms",
        aware.window.as_millis_f64()
    );
    println!(
        "  migrated         {tp_mig:>8.2} MB/s  makespan {:.1} ms  ({} move(s))",
        migrated.window.as_millis_f64(),
        migrated.migrations.len()
    );
    println!("  migration win over best static: {win:.2}x");

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"streams_per_node\": {spd},\n  \"requests_per_stream\": {requests},\n  \
         \"straggler_factor\": 8.0,\n  \"onset_ms\": {:.3},\n  \"epoch_ms\": {:.3},\n  \
         \"hash_mbs\": {tp_hash:.4},\n  \"aware_mbs\": {tp_aware:.4},\n  \
         \"migrated_mbs\": {tp_mig:.4},\n  \"migrations\": {},\n  \
         \"win_over_best_static\": {win:.4}\n}}\n",
        onset.as_millis_f64(),
        epoch.as_millis_f64(),
        migrated.migrations.len()
    );

    // The issue's acceptance bar, enforced at probe time so the CI smoke
    // step fails loudly if the migration win regresses.
    assert!(!migrated.migrations.is_empty(), "the straggler must trigger migrations");
    assert!(win >= 1.3, "migration win {win:.2}x below the 1.3x bar");

    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("migrate_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs the user-scale open-loop point: a diurnally modulated million-
/// session day against a 4-node cluster behind a shared fair-share link,
/// plus a closed-loop companion for contrast, and writes the end-to-end
/// session SLO percentiles to `bench_results/slo_probe.json`.
fn slo_mode() {
    use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation};

    let target: u64 =
        std::env::var("SEQIO_SLO_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000_000);
    let nodes = 4usize;
    let rate = 1600.0;
    // 5% horizon margin over target/rate: Poisson count noise is a few
    // thousand sessions at the million-session scale.
    let duration = SimDuration::from_secs_f64((target as f64 / rate) * 1.05);
    // Eight-disk nodes: the title placement spreads the catalogue over
    // all 32 disks, keeping per-disk concurrency low enough that the
    // storage tier sustains the 200 MiB/s mean demand — the *link* is the
    // contended resource in this probe, not the disks.
    let template = || {
        Experiment::builder()
            .shape(NodeShape::eight_disk())
            .request_size(64 * KIB)
            .warmup(SimDuration::ZERO)
            .duration(duration)
            .build()
    };
    let arrivals = ArrivalConfig {
        rate_per_sec: rate,
        // One full diurnal cycle across the horizon: the mean factor is 1,
        // so the session volume still tracks `rate`, but the peak runs 30%
        // hot — the tail percentiles have to survive the busy hour.
        modulation: RateModulation::Diurnal { period: duration, depth: 0.3 },
        titles: 8192,
        zipf_exponent: 0.8,
        requests_per_session: 2,
        session_lifetime: Some(SimDuration::from_secs(10)),
    };
    // 250 MiB/s shared across all live sessions: ~25% headroom over the
    // mean demand of rate x 128 KiB = 200 MiB/s, so the diurnal peak
    // genuinely contends for the link.
    let link = LinkConfig { capacity_bps: 250.0 * MIB as f64, ..LinkConfig::default() };

    let start = Instant::now();
    let open = ClientExperiment::builder()
        .template(template())
        .nodes(nodes)
        .base_seed(2026)
        .arrivals(arrivals)
        .link(link)
        .run()
        .expect("open-loop slo point");
    let wall = start.elapsed().as_secs_f64();
    let slo = open.slo.clone().expect("sessions completed");

    // Closed-loop companion: the same cluster and link with a fixed
    // 32-streams/disk population pinned from t = 0. Its "sessions" all
    // start together, so the latency spread reflects batch drain, not
    // user-perceived arrival-to-delivery time — the contrast the open
    // loop exists to fix.
    let mut closed_template = template();
    closed_template.streams_per_disk = 32;
    closed_template.requests_per_stream = Some(2);
    let closed = ClientExperiment::builder()
        .template(closed_template)
        .nodes(nodes)
        .policy(seqio_cluster::ShardPolicy::HashByStream)
        .base_seed(2026)
        .link(link)
        .run()
        .expect("closed-loop slo companion");
    let closed_slo = closed.slo.clone().expect("finite streams complete");

    println!(
        "-- slo probe: {} sessions/s open loop, {nodes} nodes, link 250 MiB/s, {} horizon --",
        rate, duration
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
    println!(
        "  closed loop  {:>9} streams  p50 {:.2} ms  p99.9 {:.2} ms (batch drain, not arrivals)",
        closed_slo.sessions, closed_slo.p50_ms, closed_slo.p999_ms
    );

    // Acceptance bars: the full-scale probe must admit the target session
    // count, nearly all of them must finish inside the 10 s lifetime, and
    // the percentile chain must be coherent.
    assert!(slo.sessions >= target, "only {} sessions admitted, wanted >= {target}", slo.sessions);
    assert!(
        slo.completion_ratio() >= 0.98,
        "completion ratio {:.4} below 0.98",
        slo.completion_ratio()
    );
    assert!(slo.p50_ms <= slo.p95_ms && slo.p95_ms <= slo.p99_ms && slo.p99_ms <= slo.p999_ms);

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"nodes\": {nodes},\n  \"rate_per_sec\": {rate},\n  \
         \"horizon_secs\": {:.3},\n  \"link_mibs\": 250,\n  \
         \"requests_per_session\": 2,\n  \"request_kib\": 64,\n  \
         \"titles\": 8192,\n  \"zipf_exponent\": 0.8,\n  \"diurnal_depth\": 0.3,\n  \
         \"lifetime_secs\": 10,\n  \"wall_secs\": {wall:.3},\n  \
         \"open_loop\": {{\"sessions\": {}, \"completed\": {}, \
         \"completion_ratio\": {:.6}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
         \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"mean_ms\": {:.4}, \"max_ms\": {:.4}, \
         \"aggregate_mbs\": {:.4}}},\n  \
         \"closed_loop\": {{\"sessions\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
         \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \"mean_ms\": {:.4}}}\n}}\n",
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
        closed_slo.sessions,
        closed_slo.p50_ms,
        closed_slo.p95_ms,
        closed_slo.p99_ms,
        closed_slo.p999_ms,
        closed_slo.mean_ms,
    );

    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("slo_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Runs the tail-attribution point: the slo probe's open-loop scenario
/// at a reduced default scale with span recording on. The run is
/// correlated into cross-tier session traces, the p99.9 latency band is
/// attributed to its dominant phases, and the SLO burn rate is monitored
/// against the run's own p99. Writes `bench_results/tail_probe.json` and
/// the correlated traces to `bench_results/tail_trace.jsonl`.
fn tail_mode() {
    use seqio_client::{ArrivalConfig, ClientExperiment, LinkConfig, RateModulation};
    use seqio_telemetry::{
        correlate, monitor, parse_percentile, traces_to_jsonl, BurnRateConfig, TailAttribution,
    };

    let target: u64 =
        std::env::var("SEQIO_TAIL_SESSIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let nodes = 4usize;
    let rate = 1600.0;
    // The slo probe's operating point (same cluster, link, catalogue and
    // diurnal shape) so the attribution describes the figure the SLO
    // numbers come from — just with span recording on and a smaller
    // default horizon, since per-request spans cost memory.
    let duration = SimDuration::from_secs_f64((target as f64 / rate) * 1.05);
    let template = Experiment::builder()
        .shape(NodeShape::eight_disk())
        .request_size(64 * KIB)
        .warmup(SimDuration::ZERO)
        .duration(duration)
        .observe(ObsConfig::new().with_spans())
        .build();
    let arrivals = ArrivalConfig {
        rate_per_sec: rate,
        modulation: RateModulation::Diurnal { period: duration, depth: 0.3 },
        titles: 8192,
        zipf_exponent: 0.8,
        requests_per_session: 2,
        session_lifetime: Some(SimDuration::from_secs(10)),
    };
    let link = LinkConfig { capacity_bps: 250.0 * MIB as f64, ..LinkConfig::default() };

    let xp = ClientExperiment::builder()
        .template(template)
        .nodes(nodes)
        .base_seed(2026)
        .arrivals(arrivals)
        .link(link)
        .build();
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
        "-- tail probe: {rate} sessions/s open loop, {nodes} nodes, link 250 MiB/s, \
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
    assert!(
        (tail.share_sum_pct() - 100.0).abs() < 1e-6,
        "tail shares sum to {:.9}%, not 100%",
        tail.share_sum_pct()
    );
    assert_eq!(tail.completed as u64, slo.completed, "attribution lost completed sessions");
    assert_eq!(burn.completed, slo.completed, "burn monitor lost completed sessions");

    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let trace_path = dir.join("tail_trace.jsonl");
    match std::fs::write(&trace_path, traces_to_jsonl(&traces)) {
        Ok(()) => println!("   -> {} ({} traces)", trace_path.display(), traces.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
    }

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"nodes\": {nodes},\n  \"rate_per_sec\": {rate},\n  \
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
    let path = dir.join("tail_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `probe scenario`: the scenario experiment matrix at the quick scale —
/// every named scenario under the direct frontend, the static candidate
/// panel, the over-wide reference tune and the adaptive tuner — plus the
/// degraded-rescue point. Asserts the issue's acceptance bars (adaptive
/// matches or beats the best static candidate on every scenario; the
/// rescue strictly wins) and writes `bench_results/scenario_probe.json`.
fn scenario_mode() {
    use seqio_scenario::{degraded_rescue, run_matrix, MatrixScale};

    let scale = MatrixScale::quick();
    let seed = 11;
    let start = Instant::now();
    let rows = run_matrix(&scale, seed).expect("the scenario matrix runs");
    let rescue = degraded_rescue(&scale, seed).expect("the rescue point runs");
    let wall = start.elapsed().as_secs_f64();

    println!("-- scenario matrix: quick scale, seed {seed}, {wall:.2}s wall --");
    println!(
        "  {:<13} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "scenario", "direct", "auto", "default", "wide", "adaptive", "retunes"
    );
    for r in &rows {
        let cell = |name: &str| {
            r.statics.iter().find(|s| s.name == name).expect("candidate panel is fixed").mbs
        };
        println!(
            "  {:<13} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>8}",
            r.scenario,
            r.direct_mbs,
            cell("auto"),
            cell("default"),
            r.wide_mbs,
            r.adaptive_mbs,
            r.retunes
        );
    }
    let (rescue_static, rescue_adaptive, rescue_retunes) = rescue;
    println!(
        "  degraded rescue (narrow D=4 tune): static {rescue_static:.2} MB/s -> adaptive \
         {rescue_adaptive:.2} MB/s ({rescue_retunes} retune(s))"
    );

    // Acceptance bars — the same ones the scenario matrix test pins.
    for r in &rows {
        let best = r.best_static();
        assert!(
            r.adaptive_mbs >= best.mbs,
            "{}: adaptive {:.2} MB/s lost to static {} {:.2} MB/s",
            r.scenario,
            r.adaptive_mbs,
            best.name,
            best.mbs
        );
    }
    assert!(
        rescue_adaptive > rescue_static && rescue_retunes >= 1,
        "degraded rescue did not strictly win: {rescue_static:.2} -> {rescue_adaptive:.2} \
         with {rescue_retunes} retune(s)"
    );

    let mut json = String::from("{\n  \"scale\": \"quick\",\n");
    let _ = write!(json, "  \"seed\": {seed},\n  \"wall_secs\": {wall:.3},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scenario\": \"{}\", \"direct_mbs\": {:.4}",
            r.scenario, r.direct_mbs
        );
        for s in &r.statics {
            let _ = write!(json, ", \"{}_mbs\": {:.4}", s.name, s.mbs);
        }
        let _ = writeln!(
            json,
            ", \"wide_mbs\": {:.4}, \"adaptive_mbs\": {:.4}, \"retunes\": {}}}{}",
            r.wide_mbs,
            r.adaptive_mbs,
            r.retunes,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"degraded_rescue\": {{\"static_mbs\": {rescue_static:.4}, \
         \"adaptive_mbs\": {rescue_adaptive:.4}, \"retunes\": {rescue_retunes}}}\n}}\n"
    );
    let dir = seqio_bench::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("scenario_probe.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("   -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("perf") => {
            perf_mode();
            return;
        }
        Some("faults") => {
            faults_mode();
            return;
        }
        Some("timeline") => {
            timeline_mode();
            return;
        }
        Some("cluster") => {
            cluster_mode();
            return;
        }
        Some("migrate") => {
            migrate_mode();
            return;
        }
        Some("slo") => {
            slo_mode();
            return;
        }
        Some("tail") => {
            tail_mode();
            return;
        }
        Some("scenario") => {
            scenario_mode();
            return;
        }
        _ => {}
    }
    let w = SimDuration::from_secs(6);
    let d = SimDuration::from_secs(6);

    println!("-- direct path, single disk, 64K requests (Fig 4/5 flavour) --");
    for s in [1usize, 10, 30, 100] {
        let r = Experiment::builder().streams_per_disk(s).warmup(w).duration(d).build().run();
        println!(
            "  S={s:<4} {:>7.2} MB/s  mean resp {:.2} ms",
            r.total_throughput_mbs(),
            r.mean_response_ms()
        );
    }

    println!("-- direct, segment == request (no disk prefetch, Fig 4) --");
    for s in [1usize, 10, 30, 100] {
        let mut shape = NodeShape::single_disk();
        shape.disk.cache =
            CacheConfig { segment_count: 128, segment_bytes: 64 * KIB, read_ahead_bytes: 64 * KIB };
        let r = Experiment::builder()
            .shape(shape)
            .streams_per_disk(s)
            .warmup(w)
            .duration(d)
            .build()
            .run();
        println!("  S={s:<4} {:>7.2} MB/s", r.total_throughput_mbs());
    }

    println!("-- stream scheduler, all dispatched (Fig 10) --");
    for s in [10usize, 30, 100] {
        for ra in [128 * KIB, 512 * KIB, 2 * MIB, 8 * MIB] {
            let r = Experiment::builder()
                .streams_per_disk(s)
                .frontend(Frontend::stream_scheduler_with_readahead(ra))
                .warmup(w)
                .duration(d)
                .build()
                .run();
            println!(
                "  S={s:<4} R={:<5} {:>7.2} MB/s resp {:.1} ms",
                ra / KIB,
                r.total_throughput_mbs(),
                r.mean_response_ms()
            );
        }
    }

    println!("-- small dispatch set (Fig 14): D=1, N=128, R=512K --");
    for s in [10usize, 30, 100] {
        let cfg = ServerConfig::small_dispatch(1, 512 * KIB, 128);
        let r = Experiment::builder()
            .streams_per_disk(s)
            .frontend(Frontend::StreamScheduler(cfg))
            .warmup(w)
            .duration(d)
            .build()
            .run();
        println!("  S={s:<4} {:>7.2} MB/s", r.total_throughput_mbs());
    }

    println!("-- 8 disks, D=S (Fig 12) vs D=8,N=128 (Fig 13) at R=512K --");
    for s in [10usize, 100] {
        let r = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(s)
            .frontend(Frontend::stream_scheduler_with_readahead(512 * KIB))
            .warmup(w)
            .duration(d)
            .build()
            .run();
        println!("  D=S  S/disk={s:<4} {:>8.2} MB/s", r.total_throughput_mbs());
        let cfg = ServerConfig::small_dispatch(8, 512 * KIB, 128);
        let r = Experiment::builder()
            .shape(NodeShape::eight_disk())
            .streams_per_disk(s)
            .frontend(Frontend::StreamScheduler(cfg))
            .warmup(w)
            .duration(d)
            .build()
            .run();
        println!("  D=8  S/disk={s:<4} {:>8.2} MB/s", r.total_throughput_mbs());
    }

    println!("-- Linux schedulers, 4K reads (Fig 2) --");
    for kind in [SchedKind::Anticipatory, SchedKind::Cfq, SchedKind::Noop] {
        for s in [1usize, 16, 64, 256] {
            let r = Experiment::builder()
                .streams_per_disk(s)
                .request_size(4 * KIB)
                .frontend(Frontend::Linux {
                    scheduler: kind,
                    readahead: ReadaheadConfig::default(),
                })
                .costs(CostModel::local_xdd())
                .warmup(w)
                .duration(d)
                .build()
                .run();
            println!("  {:<13} S={s:<4} {:>7.2} MB/s", kind.name(), r.total_throughput_mbs());
        }
    }
}
